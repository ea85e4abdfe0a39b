"""Pipeline orchestration: per-frame refinement and projection, map fusion,
artifact emission (PLY, metrics report, timing summary)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..crf import (
    LabelDistributionImage,
    build_features,
    mean_field_infer,
    reuse_plan,
    unary_from_probabilities,
)
from ..errors import InputError, VoxcrfError
from ..filtering import FilterPlan
from ..fusion import VoxelMap, extract_map, integrate_cloud
from ..metrics import (
    ConfusionMatrix,
    EvalFrame,
    FusedEvalResult,
    compute_metrics,
    evaluate_fused_map,
    format_report,
    per_class_rows,
)
from ..projection import SemanticPointCloud, back_project, make_semantic_cloud, transform_cloud
from .formats import load_unary, read_label_image, read_pgm16, read_ppm, write_ply
from .manifest import FrameRecord, PipelineConfig, apply_overrides, load_manifest
from .resample import resample_labels, resample_probabilities, resample_rgb


@dataclass
class FrameOutput:
    record: FrameRecord
    q: LabelDistributionImage
    cloud: SemanticPointCloud  # world frame
    depth: np.ndarray
    rgb: np.ndarray
    spatial_plan: FilterPlan  # reusable by the next frame of the same size


@dataclass
class PipelineResult:
    vmap: VoxelMap
    frame_count: int
    timings: dict[str, float]
    metrics: tuple[float, float, float, float] | None = None
    coverage: float | None = None
    outputs: dict[str, str] = field(default_factory=dict)


def run_frame(
    record: FrameRecord, config: PipelineConfig, spatial_plan: FilterPlan | None = None
) -> FrameOutput:
    """Load one frame, refine its unaries with the CRF, back-project and
    transform the semantic cloud into the world frame.

    ``spatial_plan`` (from an earlier frame) is used when it was built on
    this frame's spatial features; otherwise a new one is built."""
    try:
        rgb = read_ppm(record.rgb_path)
        depth = read_pgm16(record.depth_path)
        probs = load_unary(record.unary_path)
        if probs.labels != config.labels:
            raise InputError(
                f"unary has {probs.labels} labels, config expects {config.labels}"
            )
        # geometry is defined by the depth grid; other inputs resample to it
        h, w = depth.shape
        probs = resample_probabilities(probs, h, w)
        rgb = resample_rgb(rgb, h, w)
        unary = unary_from_probabilities(probs)
        features = build_features(rgb, config.crf)
        held = () if spatial_plan is None else (spatial_plan,)
        spatial_plan = reuse_plan(features.spatial, config.backend, plans=held)
        q, _ = mean_field_infer(
            unary, features, config.crf, config.backend, plans=(None, spatial_plan)
        )
        points, valid = back_project(depth, config.intrinsics)
        cloud = make_semantic_cloud(points, valid, q, rgb, record.frame_id)
        cloud = transform_cloud(cloud, record.pose)
        return FrameOutput(record, q, cloud, depth, rgb, spatial_plan)
    except VoxcrfError as e:
        raise type(e)(f"frame {record.frame_id}: {e}") from e
    except OSError as e:
        raise InputError(f"frame {record.frame_id}: {e}") from e


def run_pipeline(
    manifest_path: str | Path,
    overrides: dict | None = None,
    out_dir: str | Path | None = None,
    per_frame_ply: bool = False,
) -> PipelineResult:
    """Process every manifest frame in order, fuse into a global voxel map,
    and emit PLY / metrics / summary artifacts to ``out_dir``.

    Truth images resample to their frame's depth grid by nearest neighbor.
    The spatial filter plan depends only on the frame size and θγ, so it is
    kept from frame to frame and rebuilt only when the size changes."""
    records, config = load_manifest(manifest_path)
    if overrides:
        config = apply_overrides(config, overrides)
    if not records:
        raise InputError(f"{manifest_path}: manifest lists no frames")

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
        spatial_plan = frame.spatial_plan
        t1 = time.perf_counter()
        integrate_cloud(vmap, frame.cloud)
        t2 = time.perf_counter()
        timings["load+crf+project"] += t1 - t0
        timings["integrate"] += t2 - t1
        if record.truth_path is not None:
            truth = resample_labels(read_label_image(record.truth_path), *frame.depth.shape)
            eval_frames.append(
                EvalFrame(truth, frame.depth, config.intrinsics, record.pose)
            )
        if per_frame_ply:
            hard, conf = frame.cloud.compact()
            ply = out / f"{record.frame_id}.ply"
            write_ply(ply, frame.cloud.points, frame.cloud.colors, hard, conf)
            outputs[f"ply:{record.frame_id}"] = str(ply)
        # the frame's Q and its cloud's label_dists are two (N, L) arrays:
        # free them before the next frame's CRF runs
        del frame

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
                per_class_rows(result.cm, config.label_names)
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
        names = ("pixel_accuracy", "mean_accuracy", "mean_iu", "frequency_weighted_iu")
        summary_lines += [f"{n}={v:.6f}" for n, v in zip(names, metrics_tuple)]
    (out / "summary.txt").write_text("\n".join(summary_lines) + "\n")
    outputs["summary"] = str(out / "summary.txt")

    return PipelineResult(vmap, len(records), timings, metrics_tuple, coverage, outputs)


def metrics_from_images(
    pairs: list[tuple[str, str]], labels: int
) -> tuple[tuple[float, float, float, float], ConfusionMatrix]:
    """Accumulate predicted/truth label-image files into one matrix."""
    cm = ConfusionMatrix(labels)
    from ..metrics import accumulate

    for pred_path, truth_path in pairs:
        pred = read_label_image(pred_path)
        truth = read_label_image(truth_path)
        pred.validate(labels)
        accumulate(cm, pred, truth)
    return compute_metrics(cm), cm
