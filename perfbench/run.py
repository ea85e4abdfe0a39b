"""voxcrf benchmark: times the pipeline and CRF training on seeded synthetic
scenes, checks their outputs, and prints one JSON result line.

    python3 perfbench/run.py --workload fuse_vga --seed 0 --seconds 15 --trace 0

Run it from the repository root; it imports voxcrf from ``src/`` of the same
checkout and writes only under ``.perfbench_work/`` there.  Workloads:

- ``fuse_vga``: ``run_pipeline`` on three 640x480 frames, 0.01 m voxels.
  Large N: lattice build and the dense mean-field arithmetic dominate, and
  almost every point makes a new voxel, so extract and PLY export are heavy.
- ``fuse_orbit``: ``run_pipeline`` on a 12-frame 160x120 orbit, 0.05 m
  voxels.  Frames share spatial features and about 15 points land in each
  voxel, so fusion is mostly updates and evaluation reads 12 truth frames.
- ``train_exact``: ``voxcrf train-crf`` (CLI ``main`` in-process) on four
  64x48 frames with the exact backend.  It runs the backward pass and the
  transpose filter, and bypasses the lattice and fusion.

With ``--trace 0`` the result holds the end-to-end metrics, measured with
tracing off.  With ``--trace 1`` the same untraced calls run first, then two
traced calls; the result holds the per-layer metrics (the median of the two
traced calls), and the spans are written to ``.perfbench_work/traces/``.
The second traced call is skipped when it would end the run after
RUN_LIMIT_S seconds.
Every call's output is checked; a call that raises or fails its check counts
all its operations (frames, or the one training run) as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = "1"  # at or below nproc; one thread keeps timings comparable
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
RUN_LIMIT_S = 150.0  # a run must end within 180 s; keep a margin for checks
LABELS = 23
NOISE = 0.25

WORKLOADS = {
    "fuse_vga": {
        "kind": "fuse",
        "size": (640, 480),
        "frames": 3,
        "overrides": {"backend": "lattice", "iterations": 5, "voxel_resolution": 0.01},
    },
    "fuse_orbit": {
        "kind": "fuse",
        "size": (160, 120),
        "frames": 12,
        "overrides": {"backend": "lattice", "iterations": 5, "voxel_resolution": 0.05},
    },
    "train_exact": {
        "kind": "train",
        "size": (64, 48),
        "frames": 4,
        "argv": ["--epochs", "1", "--lr", "0.05", "--seed", "0"],
    },
}


def blas_threads() -> int | None:
    """Thread count numpy's OpenBLAS reports, or None when it cannot be read."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def import_seconds() -> float:
    """Import time of the CLI module in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import voxcrf.pipeline.cli; "
        "print(time.perf_counter() - t)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout)


def make_scene(spec_kwargs: dict, scene_dir: Path) -> tuple[Path, float]:
    """Generate the scene SETUP_REPEATS times; returns the manifest and the
    median set-up time (fresh-interpreter import plus scene generation)."""
    from voxcrf.pipeline.synthetic import default_scene_spec, generate_synthetic

    samples = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        if scene_dir.exists():
            shutil.rmtree(scene_dir)
        t0 = time.perf_counter()
        manifest = generate_synthetic(default_scene_spec(**spec_kwargs), scene_dir)
        samples.append(t_import + time.perf_counter() - t0)
    return manifest, statistics.median(samples)


# ---------------------------------------------------------------------------
# workload calls and output checks
# ---------------------------------------------------------------------------


class FuseWorkload:
    def __init__(self, cfg: dict, manifest: Path, out_dir: Path):
        self.overrides = cfg["overrides"]
        self.manifest = manifest
        self.out_dir = out_dir
        self.ops_per_call = cfg["frames"]
        self.quality: dict[str, float] = {}

    def call(self, wrap):
        from voxcrf.pipeline.runner import run_pipeline

        run = wrap("pipeline.run_pipeline", run_pipeline)
        return run(self.manifest, overrides=self.overrides, out_dir=self.out_dir)

    def check(self, result) -> list[str]:
        import numpy as np
        from voxcrf.pipeline.formats import read_ply

        problems = []
        summary = dict(
            ln.split("=", 1) for ln in (self.out_dir / "summary.txt").read_text().split()
        )
        _, _, hard, conf = read_ply(self.out_dir / "global_map.ply")
        if len(hard) != int(summary["extracted"]):
            problems.append(f"PLY has {len(hard)} vertices, run extracted {summary['extracted']}")
        if int(summary["voxels"]) != len(result.vmap):
            problems.append("summary voxel count disagrees with the map")
        if len(hard) == 0:
            problems.append("empty global map")
        elif hard.min() < 0 or hard.max() >= LABELS:
            problems.append("PLY label outside [0, L)")
        if len(conf) and not (np.all(np.isfinite(conf)) and conf.min() >= 0 and conf.max() <= 1):
            problems.append("PLY confidence outside [0, 1]")
        if result.metrics is None or result.coverage is None:
            problems.append("run produced no fused metrics")
        elif not np.all(np.isfinite([*result.metrics, result.coverage])):
            problems.append("non-finite fused metrics")
        else:
            self.quality = {"mean_iu": result.metrics[2], "fused_coverage": result.coverage}
        return problems


class TrainWorkload:
    def __init__(self, cfg: dict, manifest: Path, out_dir: Path):
        self.argv = ["train-crf", "--manifest", str(manifest), *cfg["argv"]]
        out_dir.mkdir(parents=True, exist_ok=True)
        self.params_path = out_dir / "crf_params.json"
        self.argv += ["--out", str(self.params_path)]
        self.manifest = manifest
        self.ops_per_call = 1
        self.quality: dict[str, float] = {}
        self._dataset = None
        self._initial_loss = None
        self._checked: dict[str, list[str]] = {}

    def call(self, wrap):
        from voxcrf.pipeline.cli import main

        with redirect_stdout(sys.stderr):
            code = wrap("pipeline.cli_main", main)(self.argv)
        if code != 0:
            raise RuntimeError(f"train-crf exited with {code}")
        return code

    def _evaluate(self, params):
        """Mean per-image cross-entropy of the final marginals (IGNORE pixels
        excluded) and the mean IU of their argmax labels, exact backend."""
        import numpy as np
        from voxcrf.crf import IGNORE_LABEL, build_features, map_labeling, mean_field_infer
        from voxcrf.crf import unary_from_probabilities
        from voxcrf.metrics import ConfusionMatrix, accumulate, compute_metrics

        cm = ConfusionMatrix(LABELS)
        losses = []
        for rgb, probs, truth in self._dataset:
            q, _ = mean_field_infer(
                unary_from_probabilities(probs), build_features(rgb, params), params, "exact"
            )
            rows = np.flatnonzero(truth.data != IGNORE_LABEL)
            p = np.maximum(q.data[rows, truth.data[rows]], 1e-8)
            losses.append(float(-np.log(p).mean()))
            accumulate(cm, map_labeling(q), truth)
        return float(np.mean(losses)), compute_metrics(cm)[2]

    def check(self, _result) -> list[str]:
        import numpy as np
        from dataclasses import replace

        from voxcrf.crf import CrfParams
        from voxcrf.pipeline.formats import load_unary, read_label_image, read_ppm
        from voxcrf.pipeline.manifest import load_manifest

        text = self.params_path.read_text()
        if text in self._checked:  # identical output: same verdict
            return self._checked[text]
        if self._dataset is None:
            records, config = load_manifest(self.manifest)
            self._dataset = [
                (read_ppm(r.rgb_path), load_unary(r.unary_path), read_label_image(r.truth_path))
                for r in records
            ]
            self._initial_loss, _ = self._evaluate(replace(config.crf, compatibility=None))
        problems = []
        payload = json.loads(text)
        w = np.asarray(payload["kernel_weights"], dtype=np.float64)
        mu = np.asarray(payload["compatibility"], dtype=np.float64)
        if w.shape != (2,) or not np.all(np.isfinite(w)) or np.any(w < 0):
            problems.append(f"bad kernel weights {payload['kernel_weights']}")
        if mu.shape != (LABELS, LABELS) or not np.all(np.isfinite(mu)):
            problems.append(f"bad compatibility of shape {mu.shape}")
        if not problems:
            params = CrfParams(
                kernel_weights=w,
                compatibility=mu,
                theta_alpha=payload["theta_alpha"],
                theta_beta=payload["theta_beta"],
                theta_gamma=payload["theta_gamma"],
                iterations=payload["iterations"],
            )
            loss, miou = self._evaluate(params)
            if not loss <= self._initial_loss:
                problems.append(f"train_loss {loss} above the initial {self._initial_loss}")
            self.quality = {"mean_iu": miou, "train_loss": loss, "initial_loss": self._initial_loss}
        self._checked[text] = problems
        return problems


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def untraced(name, fn):
    return fn


class Tally:
    """Runs a workload's calls and counts attempted and failed operations."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.cpu: list[float] = []
        self.last_wall = 0.0

    def run(self, wrap=untraced) -> tuple[float, bool]:
        """One timed call plus its output check (outside the timed region)."""
        w = self.workload
        ok = True
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = w.call(wrap)
        except Exception:  # a failing call is counted, not fatal
            traceback.print_exc()
            ok = False
        wall = self.last_wall = time.perf_counter() - t0
        self.cpu.append(time.process_time() - c0)
        if ok:
            problems = w.check(result)
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
            ok = not problems
        self.attempted += w.ops_per_call
        self.failed += 0 if ok else w.ops_per_call
        return wall, ok


def timed_calls(tally: Tally, seconds: float) -> list[float]:
    """Untraced calls until their timed regions add up to ``seconds`` (at
    least one call); output checks run outside that budget."""
    walls = []
    while not walls or sum(walls) < seconds:
        walls.append(tally.run()[0])
    return walls


def traced_calls(
    tally: Tally, name: str, untraced_median: float, deadline: float, trace_file: Path, env: dict
):
    """Two traced calls; returns the per-layer metrics and self-test problems.

    The second call is skipped, with a note, when it would end after
    ``deadline`` (the run must end within its time limit); the counters are
    then not compared."""
    from tracing import COUNTERS, LAYERS, Tracer, layer_metrics, traced

    runs = []
    for k in range(2):
        if runs and time.perf_counter() + tally.last_wall > deadline:
            print("# second traced call skipped: it would pass the run's time limit")
            break
        tracer = Tracer(f"{name}-{os.getpid()}-{k}")
        with traced(tracer):
            tally.run(tracer.wrap)
        runs.append(tracer)

    problems = []
    per_run = [layer_metrics(t.spans) for t in runs]
    roots = [t.spans[0]["end"] - t.spans[0]["start"] for t in runs]
    overhead = statistics.median(roots) - untraced_median
    for key in COUNTERS:
        if per_run[0][key] != per_run[-1][key]:
            problems.append(f"counter {key} differs between traced runs: "
                            f"{per_run[0][key]} vs {per_run[-1][key]}")
    for m, root in zip(per_run, roots):
        gap = abs(sum(m[f"{layer}.self_s"] for layer in LAYERS) - root)
        if gap > max(abs(overhead), 1e-6):
            problems.append(f"layer self times miss the root span by {gap:.6f}s")
    metrics = {key: statistics.median(m[key] for m in per_run) for key in per_run[0]}
    metrics["trace.overhead_s"] = overhead
    metrics["trace.spans"] = statistics.median(len(t.spans) for t in runs)

    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(
        json.dumps(
            {"env": env, "untraced_wall_s": untraced_median, "metrics": metrics,
             "spans": [s for t in runs for s in t.spans]}
        )
        + "\n"
    )
    return metrics, problems


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "voxcrf" / "__init__.py").is_file():
        print(f"error: no voxcrf sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import voxcrf

    if Path(voxcrf.__file__).resolve().parent != (SRC / "voxcrf").resolve():
        print(f"error: imported voxcrf from {voxcrf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))

    cfg = WORKLOADS[args.workload]
    width, height = cfg["size"]
    spec = dict(seed=args.seed, frame_count=cfg["frames"], noise=NOISE,
                width=width, height=height, label_count=LABELS)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        manifest, setup_s = make_scene(spec, run_dir / "scene")
        kind = FuseWorkload if cfg["kind"] == "fuse" else TrainWorkload
        tally = Tally(kind(cfg, manifest, run_dir / "out"))
        walls = timed_calls(tally, args.seconds)
        wall_s = statistics.median(walls)
        problems = []
        if args.trace:
            trace_file = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            metrics, problems = traced_calls(
                tally, args.workload, wall_s, started + RUN_LIMIT_S, trace_file, env
            )
            units = layer_units
        else:
            metrics = {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "mean_iu": tally.workload.quality.get("mean_iu", 0.0),
            }
            units = e2e_units
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for p in problems:
        print(f"self-test failed: {p}", file=sys.stderr)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2

    print(f"# workload {args.workload} seed {args.seed}: {len(walls)} untraced calls, "
          f"walls {' '.join(f'{w:.3f}' for w in walls)} s, "
          f"cpu of every call {' '.join(f'{c:.3f}' for c in tally.cpu)} s")
    for key, value in tally.workload.quality.items():
        print(f"# {key} {value:.6g}")
    print(f"# failed_frac {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for key in sorted(metrics):
        print(f"{key} {metrics[key]:.6g} {units[key]}")
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
