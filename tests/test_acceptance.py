"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Quantitative thresholds were pre-verified by scripts/calibrate_acceptance.py
before being frozen here; run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from voxcrf.crf import (
    CrfParams,
    LabelDistributionImage,
    build_features,
    map_labeling,
    mean_field_infer,
    potts_matrix,
    unary_from_probabilities,
)
from voxcrf.filtering import plan_filter
from voxcrf.fusion import VoxelMap, integrate_cloud
from voxcrf.metrics import ConfusionMatrix, compute_metrics
from voxcrf.pipeline.cli import main as cli_main, run_budget_benchmark
from voxcrf.pipeline.formats import read_label_image
from voxcrf.pipeline.labels import label_palette
from voxcrf.pipeline.manifest import apply_overrides, load_manifest
from voxcrf.pipeline.runner import run_frame, run_pipeline
from voxcrf.pipeline.synthetic import (
    MaterialBox,
    SyntheticSceneSpec,
    corrupt_unaries,
    generate_synthetic,
    make_piecewise_labels,
    shade_labels,
)
from voxcrf.projection import SemanticPointCloud

from _reference import reference_mean_field
from test_crf import check_gradients


@pytest.fixture
def report(capsys):
    """One visible pass/fail line per criterion, then the assertion."""

    def _report(name, ok, detail):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
        assert ok, f"{name}: {detail}"

    return _report


def flat_rgb_instance(rng, h, w, num_materials=6, jitter=10.0):
    palette = label_palette(num_materials)
    labels = make_piecewise_labels(h, w, num_materials, rng, num_rects=5)
    rgb = shade_labels(labels, palette, jitter, rng)
    return rgb


def bilateral_features(rgb, theta_alpha=61.0, theta_beta=11.0):
    h, w = rgb.shape[:2]
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    return np.column_stack(
        [
            xx.ravel() / theta_alpha,
            yy.ravel() / theta_alpha,
            rgb.reshape(-1, 3).astype(np.float64) / theta_beta,
        ]
    )


def test_oracle_equivalence_inference(report):
    """Exact-backend mean field vs an independent straight-line reference."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        num_labels = int(rng.integers(2, 5))
        rgb = rng.uniform(0, 255, (h, w, 3))
        probs = rng.dirichlet(np.ones(num_labels), size=h * w)
        params = CrfParams(
            kernel_weights=rng.uniform(0.1, 2.0, 2), iterations=5
        )
        unary = unary_from_probabilities(
            LabelDistributionImage(h, w, num_labels, probs)
        )
        feats = build_features(rgb, params)
        q, _ = mean_field_infer(unary, feats, params, "exact")
        ref = reference_mean_field(
            unary.data,
            list(feats.per_kernel()),
            params.kernel_weights,
            potts_matrix(num_labels),
            5,
        )
        worst = max(worst, float(np.abs(q.data - ref).max()))
    elapsed = time.perf_counter() - start
    report(
        "oracle equivalence (inference)",
        worst <= 1e-12 and elapsed < 5.0,
        f"max abs error {worst:.2e} (limit 1e-12), runtime {elapsed:.1f}s (limit 5s)",
    )


def test_filtering_approximation(report):
    """Lattice vs exact messages on 64x64 instances; lattice speedup at 128x128."""
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        rgb = flat_rgb_instance(rng, 64, 64)
        feats = bilateral_features(rgb)
        vals = rng.dirichlet(np.ones(4), size=64 * 64)
        exact = plan_filter(feats, "exact").apply(vals)
        lattice = plan_filter(feats, "lattice").apply(vals)
        rel = float(np.abs(lattice - exact).max() / np.abs(exact).max())
        worst = max(worst, rel)

    rgb = flat_rgb_instance(rng, 128, 128)
    feats = bilateral_features(rgb)
    vals = rng.dirichlet(np.ones(4), size=128 * 128)
    t0 = time.perf_counter()
    plan_filter(feats, "lattice").apply(vals)
    t_lattice = time.perf_counter() - t0
    t0 = time.perf_counter()
    plan_filter(feats, "exact").apply(vals)
    t_exact = time.perf_counter() - t0
    elapsed = time.perf_counter() - start
    speedup = t_exact / t_lattice
    report(
        "filtering approximation",
        worst <= 5e-2 and speedup >= 10.0 and elapsed < 60.0,
        f"max rel error {worst:.4f} (limit 0.05), 128x128 speedup {speedup:.0f}x "
        f"(limit 10x), runtime {elapsed:.1f}s (limit 60s)",
    )


def test_gradient_check(report):
    """Analytic (dU, dw, dmu) vs central finite differences, 20 instances."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        worst = max(worst, check_gradients(seed=seed, h=6, w=6, L=3, iterations=5))
    elapsed = time.perf_counter() - start
    report(
        "gradient check",
        worst <= 1e-4 and elapsed < 30.0,
        f"max rel error {worst:.2e} (limit 1e-4), runtime {elapsed:.1f}s (limit 30s)",
    )


def test_crf_denoising_gain(report):
    """Mean-field refinement beats the raw unary argmax by >= 5 points."""
    start = time.perf_counter()
    num_labels = 6
    gains = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        side = 96
        truth = make_piecewise_labels(side, side, num_labels, rng, num_rects=5)
        rgb = shade_labels(truth, label_palette(num_labels), 10.0, rng)
        probs = corrupt_unaries(truth, num_labels, 0.2, 0.6, rng)
        flat = truth.reshape(-1)
        unary_acc = float((np.argmax(probs, axis=1) == flat).mean())

        params = CrfParams(iterations=10)
        unary = unary_from_probabilities(
            LabelDistributionImage(side, side, num_labels, probs)
        )
        feats = build_features(rgb, params)
        q, _ = mean_field_infer(unary, feats, params, "lattice")
        crf_acc = float((map_labeling(q).data == flat).mean())
        gains.append(crf_acc - unary_acc)
    mean_gain = float(np.mean(gains))
    elapsed = time.perf_counter() - start
    report(
        "crf denoising gain",
        mean_gain >= 0.05 and elapsed < 120.0,
        f"mean gain {mean_gain:+.4f} over 10 seeds (limit +0.05), "
        f"min {min(gains):+.4f}, runtime {elapsed:.1f}s (limit 120s)",
    )


def _fusion_scene(seed):
    boxes = [
        MaterialBox((0.9, 0.9, 0.10), (2.3, 1.7, 0.72), 2),
        MaterialBox((1.2, 2.0, 0.08), (1.9, 2.6, 1.1), 3),
        MaterialBox((0.4, 0.4, 0.06), (0.8, 0.9, 0.5), 4),
        MaterialBox((1.3, 1.1, 0.78), (1.7, 1.5, 1.0), 5),
    ]
    return SyntheticSceneSpec(
        boxes=boxes,
        room_label=0,
        label_count=6,
        width=96,
        height=72,
        frame_count=20,
        noise=0.3,
        confidence=0.6,
        seed=seed,
    )


# One mean-field iteration keeps per-frame accuracy unsaturated (~0.99), so
# the fusion contribution stays measurable; calibrated margin ~ +0.004.
_FUSION_OVERRIDES = {"iterations": 1}


def test_fusion_gain(tmp_path, report):
    """Fused map beats the mean single-frame accuracy on every seed."""
    start = time.perf_counter()
    rows = []
    ok = True
    for seed in range(5):
        manifest = generate_synthetic(_fusion_scene(seed), tmp_path / f"scene{seed}")
        records, config = load_manifest(manifest)
        config = apply_overrides(config, _FUSION_OVERRIDES)
        frame_accs = []
        for rec in records:
            out = run_frame(rec, config)
            truth = read_label_image(rec.truth_path)
            pred = map_labeling(out.q).data
            valid = out.depth.reshape(-1) > 0
            frame_accs.append(float((pred[valid] == truth.data[valid]).mean()))
        single = float(np.mean(frame_accs))
        result = run_pipeline(
            manifest, overrides=_FUSION_OVERRIDES, out_dir=tmp_path / f"out{seed}"
        )
        fused = result.metrics[0]
        rows.append((single, fused))
        ok = ok and (fused > single) and (fused > 0.95)
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{f:.4f}>{s:.4f}" for s, f in rows)
    report(
        "fusion gain",
        ok and elapsed < 180.0,
        f"fused>single per seed: {detail}; all >0.95; runtime {elapsed:.0f}s (limit 180s)",
    )


def test_fusion_order_invariance(report):
    """Permuting a fixed multiset of observations leaves posteriors unchanged."""
    rng = np.random.default_rng(11)
    points = (rng.integers(0, 4, size=(60, 3)) * 0.01 + 0.005).astype(np.float64)
    liks = rng.dirichlet(np.ones(5), size=60)
    colors = np.full((1, 3), 90, dtype=np.uint8)

    def fuse(order):
        vmap = VoxelMap(0.01, 5)
        for i in order:
            cloud = SemanticPointCloud(points[i : i + 1], colors, liks[i : i + 1])
            integrate_cloud(vmap, cloud)
        return vmap

    base = fuse(np.arange(60))
    worst = 0.0
    for _ in range(5):
        perm = fuse(rng.permutation(60))
        assert np.array_equal(perm.keys, base.keys)
        worst = max(
            worst,
            float(np.abs(np.exp(perm.log_posteriors) - np.exp(base.log_posteriors)).max()),
        )
    report(
        "fusion order invariance",
        worst <= 1e-9,
        f"max posterior change over 5 permutations {worst:.2e} (limit 1e-9)",
    )


def test_metrics_unit_suite(report):
    """Hand-derived confusion matrices reproduce exactly."""
    hand = compute_metrics(ConfusionMatrix(2, np.array([[3, 1], [1, 3]])))
    exact_hand = hand == pytest.approx((0.75, 0.75, 0.6, 0.6))

    perfect = compute_metrics(ConfusionMatrix(3, np.diag([7, 1, 4])))
    all_one = perfect == pytest.approx((1.0, 1.0, 1.0, 1.0))

    counts = np.array([[4, 0, 1], [0, 3, 0], [0, 0, 0]])  # class 2 absent
    absent = compute_metrics(ConfusionMatrix(3, counts))
    absent_ok = absent == pytest.approx(
        (7 / 8, (4 / 5 + 1.0) / 2, (4 / 5 + 1.0) / 2, (5 * 4 / 5 + 3 * 1.0) / 8)
    )
    report(
        "metrics unit suite",
        exact_hand and all_one and absent_ok,
        f"[[3,1],[1,3]] -> {tuple(round(v, 4) for v in hand)}, perfect -> 1.0, "
        "absent-class exclusion verified",
    )


def test_performance_budget(report):
    """T=5 lattice inference on 224x224, L=23 within the CPU budget."""
    elapsed = run_budget_benchmark(side=224, labels=23, iterations=5, seed=0)
    report(
        "performance budget",
        elapsed <= 2.0,
        f"224x224, L=23, T=5 lattice inference took {elapsed:.3f}s (limit 2.0s)",
    )


def test_end_to_end_closed_loop(tmp_path, report):
    """synth(eps=0) -> fuse -> metrics closes exactly."""
    scene_dir = tmp_path / "scene"
    rc = cli_main(
        [
            "synth", "--out", str(scene_dir), "--seed", "9", "--frames", "6",
            "--noise", "0.0", "--width", "64", "--height", "48",
        ]
    )
    assert rc == 0
    rc = cli_main(
        ["fuse", "--manifest", str(scene_dir / "manifest.txt"), "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    report_text = (tmp_path / "out" / "metrics.txt").read_text()
    values = dict(line.split("=") for line in report_text.strip().splitlines())
    pixel = float(values["pixel_accuracy"])
    mean = float(values["mean_accuracy"])
    coverage = float(values["coverage"])
    report(
        "end-to-end closed loop",
        pixel == 1.0 and mean == 1.0 and coverage >= 0.99,
        f"pixel_acc {pixel}, mean_acc {mean}, coverage {coverage:.4f} (limit 0.99)",
    )
