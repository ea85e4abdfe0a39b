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
from pathlib import Path

from ..crf import (
    CrfParams,
    build_features,
    crf_energy,
    map_labeling,
    mean_field_infer,
    train_crf_params,
    unary_from_probabilities,
)
from ..errors import ConfigError, InputError, VoxcrfError
from .formats import load_unary, read_label_image, read_ppm, save_unary, write_label_image
from .manifest import load_config_overrides, load_manifest
from .runner import metrics_from_images, run_pipeline
from .synthetic import default_scene_spec, generate_synthetic


def _add_crf_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=("exact", "lattice"), default=None)
    p.add_argument("--iterations", type=int, default=None)


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if getattr(args, "config", None):
        overrides.update(load_config_overrides(args.config))
    for key, attr in (
        ("backend", "backend"),
        ("iterations", "iterations"),
        ("voxel_resolution", "voxel_res"),
        ("min_observations", "min_obs"),
        ("min_confidence", "min_conf"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[key] = value
    return overrides


def _cmd_segment(args: argparse.Namespace) -> int:
    probs = load_unary(args.unary)
    rgb = read_ppm(args.rgb)
    if rgb.shape[:2] != (probs.height, probs.width):
        raise InputError(
            f"rgb is {rgb.shape[0]}x{rgb.shape[1]}, unary is {probs.height}x{probs.width}"
        )
    params = CrfParams() if args.iterations is None else CrfParams(iterations=args.iterations)
    backend = args.backend or "lattice"
    unary = unary_from_probabilities(probs)
    features = build_features(rgb, params)
    q, _ = mean_field_infer(unary, features, params, backend)
    labels = map_labeling(q)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_unary(out / "refined.unry", q)
    write_label_image(out / "labels.pgm", labels)
    print(f"wrote {out / 'refined.unry'} and {out / 'labels.pgm'}")
    if args.energy_report:
        e_map = crf_energy(labels, unary, features, params)
        e_unary = crf_energy(map_labeling(probs), unary, features, params)
        report = f"energy_map={e_map:.6f}\nenergy_unary_argmax={e_unary:.6f}\n"
        (out / "energy.txt").write_text(report)
        print(report, end="")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    result = run_pipeline(
        args.manifest,
        overrides=_collect_overrides(args),
        out_dir=args.out,
        per_frame_ply=args.per_frame_ply,
    )
    print(f"frames={result.frame_count} voxels={len(result.vmap)}")
    for key, path in sorted(result.outputs.items()):
        print(f"{key}: {path}")
    if result.metrics is not None:
        names = ("pixel_acc", "mean_acc", "mean_iu", "fw_iu")
        print("  ".join(f"{n}={v:.4f}" for n, v in zip(names, result.metrics)))
    if result.coverage is not None:
        print(f"coverage={result.coverage:.4f}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if len(args.images) % 2 != 0:
        raise ConfigError("metrics expects predicted/truth image pairs")
    pairs = [(args.images[i], args.images[i + 1]) for i in range(0, len(args.images), 2)]
    (pixel, mean, miu, fwiu), cm = metrics_from_images(pairs, args.labels)
    report = (
        f"pixel_accuracy={pixel:.6f}\nmean_accuracy={mean:.6f}\n"
        f"mean_iu={miu:.6f}\nfrequency_weighted_iu={fwiu:.6f}\n"
    )
    if args.out:
        Path(args.out).write_text(report)
    print(report, end="")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    kwargs = dict(
        seed=args.seed,
        frame_count=args.frames,
        noise=args.noise,
        confidence=args.confidence,
        width=args.width,
        height=args.height,
    )
    spec = default_scene_spec(**kwargs)
    manifest = generate_synthetic(spec, args.out)
    print(f"wrote {manifest}")
    return 0


def _cmd_train_crf(args: argparse.Namespace) -> int:
    records, config = load_manifest(args.manifest)
    if not records:
        raise InputError("training manifest lists no frames")
    dataset = []
    for record in records:
        if record.truth_path is None:
            raise InputError(f"frame {record.frame_id} has no truth labels")
        rgb = read_ppm(record.rgb_path)
        probs = load_unary(record.unary_path)
        truth = read_label_image(record.truth_path)
        dataset.append((rgb, probs, truth))
    params = train_crf_params(
        dataset,
        learning_rate=args.lr,
        epochs=args.epochs,
        seed=args.seed,
        params=config.crf,
        backend=args.backend or "exact",
    )
    Path(args.out).write_text(json.dumps(params.to_dict(), indent=2) + "\n")
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
    _add_crf_flags(p)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("fuse", help="run the full pipeline over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="JSON file of config overrides")
    p.add_argument("--voxel-res", type=float, default=None)
    p.add_argument("--min-obs", type=int, default=None)
    p.add_argument("--min-conf", type=float, default=None)
    p.add_argument("--per-frame-ply", action="store_true")
    _add_crf_flags(p)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("metrics", help="evaluate predicted vs truth label images")
    p.add_argument("images", nargs="+", help="pred truth [pred truth ...]")
    p.add_argument("--labels", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("synth", help="generate a synthetic scene + manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=12)
    p.add_argument("--noise", type=float, default=0.2)
    p.add_argument("--confidence", type=float, default=0.6)
    p.add_argument("--width", type=int, default=96)
    p.add_argument("--height", type=int, default=72)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train-crf", help="train kernel weights and compatibility")
    p.add_argument("--manifest", required=True)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="crf_params.json")
    p.add_argument("--backend", choices=("exact", "lattice"), default=None)
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
