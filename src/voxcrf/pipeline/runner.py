"""Pipeline orchestration: frame loading, per-frame refinement and
projection, map fusion, artifact emission (PLY, metrics report, timing
summary).

:func:`load_frame` is the one reader of a manifest frame; ``fuse`` (through
:func:`run_frame`) and ``train-crf`` both see a frame exactly as it returns
it, every input on the depth grid."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..crf import (
    FeatureField,
    LabelDistributionImage,
    LabelImage,
    build_features,
    mean_field_infer,
    reuse_plan,
    unary_from_probabilities,
)
from ..errors import InputError, VoxcrfError
from ..filtering import FilterPlan, working_dtype
from ..fusion import VoxelMap, extract_map, integrate_cloud
from ..metrics import (
    METRIC_NAMES,
    EvalFrame,
    FusedEvalResult,
    compute_metrics,
    evaluate_fused_map,
    format_report,
    per_class_rows,
)
from ..projection import SemanticPointCloud, back_project, make_semantic_cloud, transform_cloud
from .formats import load_unary, read_label_image, read_pgm16, read_ppm, write_ply
from .labels import label_names
from .manifest import FrameRecord, PipelineConfig, apply_overrides, load_manifest
from .resample import resample_labels, resample_probabilities, resample_rgb


@dataclass
class FrameOutput:
    q: LabelDistributionImage
    cloud: SemanticPointCloud  # world frame
    depth: np.ndarray
    truth: LabelImage | None  # on the depth grid
    spatial_plan: FilterPlan  # reusable by the next frame of the same size


@dataclass
class PipelineResult:
    vmap: VoxelMap
    frame_count: int
    timings: dict[str, float]
    metrics: tuple[float, float, float, float] | None = None
    coverage: float | None = None
    outputs: dict[str, str] = field(default_factory=dict)


@contextmanager
def _frame_errors(record: FrameRecord):
    """Prefix the frame id to a voxcrf or file-system error raised inside."""
    try:
        yield
    except VoxcrfError as e:
        raise type(e)(f"frame {record.frame_id}: {e}") from e
    except OSError as e:
        raise InputError(f"frame {record.frame_id}: {e}") from e


def load_frame(
    record: FrameRecord, labels: int, backend: str
) -> tuple[np.ndarray, np.ndarray, LabelDistributionImage, LabelImage | None]:
    """(depth, rgb, unary probabilities, truth or None) of one frame, all on
    the depth grid.

    Geometry is defined by the depth image: the RGB image and the unary
    resample to it bilinearly, the truth by nearest neighbor.  The unary
    must have ``labels`` labels and the truth ids must lie in [0, labels)
    or be IGNORE; errors name the frame.  The unary is read in the dtype
    ``backend``'s inference runs in for its float32 file
    (``filtering.working_dtype``): float32 on the lattice, with no float64
    copy, and float64 on the exact backend."""
    with _frame_errors(record):
        rgb = read_ppm(record.rgb_path)
        depth = read_pgm16(record.depth_path)
        probs = load_unary(record.unary_path, working_dtype(backend, np.float32))
        if probs.labels != labels:
            raise InputError(f"unary has {probs.labels} labels, config expects {labels}")
        h, w = depth.shape
        truth = None
        if record.truth_path is not None:
            truth = resample_labels(read_label_image(record.truth_path), h, w).validate(labels)
        return depth, resample_rgb(rgb, h, w), resample_probabilities(probs, h, w), truth


def run_frame(
    record: FrameRecord, config: PipelineConfig, spatial_plan: FilterPlan | None = None
) -> FrameOutput:
    """Load one frame, refine its unaries with the CRF, back-project and
    transform the semantic cloud into the world frame.

    ``spatial_plan`` (from an earlier frame) is used when it was built on
    this frame's spatial features for the unary's dtype (float32 on the
    lattice); otherwise a new one is built."""
    depth, rgb, probs, truth = load_frame(record, config.labels, config.backend)
    with _frame_errors(record):
        unary = unary_from_probabilities(probs)
        del probs  # nothing reads it after U; free its (N, L) array before inference
        features = build_features(rgb, config.crf)
        held = () if spatial_plan is None else (spatial_plan,)
        spatial_plan = reuse_plan(features.spatial, config.backend, held, unary.data.dtype)
        # infer on the plan's own spatial features, so a held plan's equal
        # copy stands in for this frame's, which is freed
        features = FeatureField(features.bilateral, spatial_plan.features)
        q, _ = mean_field_infer(
            unary, features, config.crf, config.backend, plans=(spatial_plan,)
        )
        points, valid = back_project(depth, config.intrinsics)
        cloud = transform_cloud(make_semantic_cloud(points, valid, q, rgb), record.pose)
    return FrameOutput(q, cloud, depth, truth, spatial_plan)


def run_pipeline(
    manifest_path: str | Path,
    overrides: dict | None = None,
    out_dir: str | Path | None = None,
    per_frame_ply: bool = False,
) -> PipelineResult:
    """Process every manifest frame in order, fuse into a global voxel map,
    and emit PLY / metrics / summary artifacts to ``out_dir``.

    Frames with truth are evaluated against the fused map.  The spatial
    filter plan depends only on the frame size and θγ, so it is kept from
    frame to frame and rebuilt only when the size changes.  With
    ``per_frame_ply`` each frame writes ``<frame_id>.ply``, so a repeated
    frame id or one named ``global_map`` raises ``InputError`` before
    ``out_dir`` is made or any frame runs."""
    records, config = load_manifest(manifest_path)
    if overrides:
        config = apply_overrides(config, overrides)
    if not records:
        raise InputError(f"{manifest_path}: manifest lists no frames")
    if per_frame_ply:
        writers = {"global_map": "the global map"}
        for record in records:
            fid = record.frame_id
            if fid in writers:
                raise InputError(
                    f"{manifest_path}: with --per-frame-ply, frame id {fid!r} would write "
                    f"{fid}.ply, which {writers[fid]} also writes"
                )
            writers[fid] = "an earlier frame"

    out = Path(out_dir) if out_dir is not None else Path(manifest_path).parent / "out"
    out.mkdir(parents=True, exist_ok=True)

    vmap = VoxelMap(config.voxel_resolution, config.labels)
    timings = {"load+crf+project": 0.0, "integrate": 0.0, "evaluate": 0.0, "export": 0.0}
    eval_frames: list[EvalFrame] = []
    outputs: dict[str, str] = {}
    spatial_plan = None

    for record in records:
        t0 = time.perf_counter()
        frame = run_frame(record, config, spatial_plan)
        spatial_plan, cloud = frame.spatial_plan, frame.cloud
        if frame.truth is not None:
            eval_frames.append(
                EvalFrame(frame.truth, frame.depth, config.intrinsics, record.pose)
            )
        # the cloud holds its own copy of Q's valid rows, so Q, an (N, L)
        # array nothing reads again, is freed before integrate
        del frame
        t1 = time.perf_counter()
        integrate_cloud(vmap, cloud)
        t2 = time.perf_counter()
        timings["load+crf+project"] += t1 - t0
        timings["integrate"] += t2 - t1
        if per_frame_ply:
            hard, conf = cloud.compact()
            ply = out / f"{record.frame_id}.ply"
            write_ply(ply, cloud.points, cloud.colors, hard, conf)
            outputs[f"ply:{record.frame_id}"] = str(ply)
        # the cloud's label_dists, another (N, L) array, goes before the next
        # frame's CRF runs
        del cloud

    metrics_tuple = None
    coverage = None
    if eval_frames:
        t0 = time.perf_counter()
        result: FusedEvalResult = evaluate_fused_map(vmap, eval_frames)
        timings["evaluate"] = time.perf_counter() - t0
        coverage = result.coverage
        if result.cm.counts.sum() > 0:
            metrics_tuple = compute_metrics(result.cm)
            report = format_report(*metrics_tuple, coverage=coverage)
            (out / "metrics.txt").write_text(report)
            (out / "metrics_per_class.csv").write_text(
                per_class_rows(result.cm, label_names(config.labels))
            )
            outputs["metrics"] = str(out / "metrics.txt")
            outputs["metrics_per_class"] = str(out / "metrics_per_class.csv")

    t0 = time.perf_counter()
    extracted = extract_map(vmap, config.min_observations, config.min_confidence)
    global_ply = out / "global_map.ply"
    write_ply(
        global_ply,
        extracted.centers,
        hard_labels=extracted.labels,
        confidences=extracted.confidences,
        colors=extracted.colors,
    )
    outputs["global_ply"] = str(global_ply)
    timings["export"] = time.perf_counter() - t0

    summary_lines = [
        f"frames={len(records)}",
        f"voxels={len(vmap)}",
        f"extracted={len(extracted)}",
    ]
    summary_lines += [f"time_{k.replace('+', '_')}={v:.3f}s" for k, v in timings.items()]
    if coverage is not None:
        summary_lines.append(f"coverage={coverage:.6f}")
    if metrics_tuple is not None:
        summary_lines += [f"{n}={v:.6f}" for n, v in zip(METRIC_NAMES, metrics_tuple)]
    (out / "summary.txt").write_text("\n".join(summary_lines) + "\n")
    outputs["summary"] = str(out / "summary.txt")

    return PipelineResult(vmap, len(records), timings, metrics_tuple, coverage, outputs)
