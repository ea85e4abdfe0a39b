"""Command-line interface.

Subcommands: ``segment`` (single-frame CRF refinement), ``fuse`` (full
pipeline), ``metrics`` (label-image evaluation), ``synth`` (synthetic scene
generation) and ``train-crf`` (parameter training).  Exit code 0 on
success, nonzero with a diagnostic on error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..crf import (
    ENERGY_PIXEL_LIMIT,
    build_features,
    check_label_count,
    crf_energy,
    map_labeling,
    mean_field_infer,
    train_crf_params,
    unary_from_probabilities,
)
from ..errors import ConfigError, InputError, SizeLimitError, VoxcrfError
from ..filtering import working_dtype
from ..metrics import ConfusionMatrix, accumulate, compute_metrics, format_report
from .formats import load_unary, read_label_image, read_ppm, save_unary, write_label_image
from .manifest import (
    _BASES,
    PipelineConfig,
    apply_overrides,
    load_config_overrides,
    load_manifest,
)
from .runner import load_frame, run_pipeline
from .synthetic import default_scene_spec, generate_synthetic


def _cmd_segment(args: argparse.Namespace) -> int:
    probs = load_unary(args.unary)
    rgb = read_ppm(args.rgb)
    if rgb.shape[:2] != (probs.height, probs.width):
        raise InputError(
            f"rgb is {rgb.shape[0]}x{rgb.shape[1]}, unary is {probs.height}x{probs.width}"
        )
    n = probs.height * probs.width
    if args.energy_report and n > ENERGY_PIXEL_LIMIT:  # fail before writing anything
        raise SizeLimitError(f"energy evaluation is O(N^2); {n} > {ENERGY_PIXEL_LIMIT} pixels")
    # the unary's label count must lie in [2, 255] (255 is IGNORE in labels.pgm)
    config = replace(_BASES[PipelineConfig], labels=probs.labels)
    if args.config:  # its labels and compatibility must fit the unary's label count
        config = apply_overrides(config, load_config_overrides(args.config))
        if config.labels != probs.labels:
            raise ConfigError(
                f"bad value for labels: the unary has {probs.labels} labels, got {config.labels}"
            )
    params, backend = config.crf, config.backend
    # infer in the dtype ``fuse`` reads the file in for this backend; the
    # narrowed float64 read has the bytes of load_unary's float32 read
    narrowed = probs.data.astype(working_dtype(backend, np.float32), copy=False)
    unary = unary_from_probabilities(replace(probs, data=narrowed))
    features = build_features(rgb, params)
    q, _ = mean_field_infer(unary, features, params, backend)
    labels = map_labeling(q)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_unary(out / "refined.unry", q)
    write_label_image(out / "labels.pgm", labels)
    print(f"wrote {out / 'refined.unry'} and {out / 'labels.pgm'}")
    if args.energy_report:  # both energies on the float64 unary
        unary = unary_from_probabilities(probs)
        e_map = crf_energy(labels, unary, features, params)
        e_unary = crf_energy(map_labeling(probs), unary, features, params)
        report = f"energy_map={e_map:.6f}\nenergy_unary_argmax={e_unary:.6f}\n"
        (out / "energy.txt").write_text(report)
        print(report, end="")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    result = run_pipeline(
        args.manifest,
        overrides=load_config_overrides(args.config) if args.config else None,
        out_dir=args.out,
        per_frame_ply=args.per_frame_ply,
    )
    print(f"frames={result.frame_count} voxels={len(result.vmap)}")
    for key, path in sorted(result.outputs.items()):
        print(f"{key}: {path}")
    if result.metrics is not None:
        print(format_report(*result.metrics), end="")
    if result.coverage is not None:
        print(f"coverage={result.coverage:.6f}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if len(args.images) % 2 != 0:
        raise ConfigError("metrics expects predicted/truth image pairs")
    check_label_count(args.labels)  # before any image is read or --out written
    cm = ConfusionMatrix(args.labels)
    for pred_path, truth_path in zip(args.images[::2], args.images[1::2]):
        pred = read_label_image(pred_path).validate(args.labels)
        try:
            accumulate(cm, pred, read_label_image(truth_path))
        except InputError as e:
            raise InputError(f"{pred_path} against {truth_path}: {e}") from e
    report = format_report(*compute_metrics(cm))
    if args.out:
        Path(args.out).write_text(report)
    print(report, end="")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    flags = dict(seed=args.seed, frame_count=args.frames, noise=args.noise,
                 confidence=args.confidence, width=args.width, height=args.height)
    # only the flags given, so every default is SyntheticSceneSpec's
    spec = default_scene_spec(**{k: v for k, v in flags.items() if v is not None})
    manifest = generate_synthetic(spec, args.out)
    print(f"wrote {manifest}")
    return 0


def _cmd_train_crf(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)  # fail before training, not after
    records, config = load_manifest(args.manifest)
    if not records:
        raise InputError("training manifest lists no frames")
    dataset = []
    for record in records:
        if record.truth_path is None:
            raise InputError(f"frame {record.frame_id} has no truth labels")
        _, rgb, probs, truth = load_frame(record, config.labels, args.backend)
        dataset.append((rgb, probs, truth))
    params = train_crf_params(
        dataset,
        learning_rate=args.lr,
        epochs=args.epochs,
        seed=args.seed,
        params=config.crf,
        backend=args.backend,
    )
    out.write_text(json.dumps(params.to_dict(), indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxcrf",
        description="CRF label refinement, depth back-projection and Bayesian voxel fusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="refine one frame's unaries with the CRF")
    p.add_argument("--unary", required=True)
    p.add_argument("--rgb", required=True)
    p.add_argument("--out", default="segment_out")
    p.add_argument("--energy-report", action="store_true")
    p.add_argument("--config", default=None, help="JSON file of CRF and backend settings")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("fuse", help="run the full pipeline over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="JSON file of config overrides")
    p.add_argument("--per-frame-ply", action="store_true")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("metrics", help="evaluate predicted vs truth label images")
    p.add_argument("images", nargs="+", help="pred truth [pred truth ...]")
    p.add_argument("--labels", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("synth", help="generate a synthetic scene + manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--confidence", type=float, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train-crf", help="train kernel weights and compatibility")
    p.add_argument("--manifest", required=True)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="crf_params.json")
    p.add_argument("--backend", choices=("exact", "lattice"), default="exact")
    p.set_defaults(func=_cmd_train_crf)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VoxcrfError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
