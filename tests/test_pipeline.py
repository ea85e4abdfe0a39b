import json

import numpy as np
import pytest

from voxcrf.crf import CrfParams, map_labeling
from voxcrf.errors import ConfigError, FormatError, InputError
from voxcrf.pipeline import cli, runner
from voxcrf.pipeline.cli import main as cli_main
from voxcrf.pipeline.formats import load_unary, read_label_image, read_ply
from voxcrf.pipeline.labels import MATERIAL_NAMES, label_names, label_palette
from voxcrf.pipeline.manifest import apply_overrides, load_manifest
from voxcrf.pipeline.runner import run_frame, run_pipeline
from voxcrf.pipeline.synthetic import (
    MaterialBox,
    SyntheticSceneSpec,
    corrupt_unaries,
    generate_synthetic,
)

from _reference import bayes_update


def small_spec(**kwargs):
    defaults = dict(
        boxes=[
            MaterialBox((0.9, 0.9, 0.10), (2.3, 1.7, 0.72), 1),
            MaterialBox((1.2, 2.0, 0.08), (1.9, 2.6, 1.1), 2),
        ],
        room_label=0,
        label_count=4,
        width=48,
        height=36,
        frame_count=3,
        noise=0.0,
        confidence=0.6,
        seed=3,
    )
    defaults.update(kwargs)
    return SyntheticSceneSpec(**defaults)


@pytest.fixture
def scene(tmp_path):
    return generate_synthetic(small_spec(), tmp_path / "scene")


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


def test_default_taxonomy():
    assert len(MATERIAL_NAMES) == 23
    assert label_names(23) == MATERIAL_NAMES
    assert label_names(4) == ["mat00", "mat01", "mat02", "mat03"]
    pal = label_palette(23)
    assert pal.shape == (23, 3)
    assert len({tuple(c) for c in pal}) == 23  # colors distinct


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def test_manifest_round_trip(scene):
    records, config = load_manifest(scene)
    assert [r.frame_id for r in records] == ["frame0000", "frame0001", "frame0002"]
    assert config.labels == 4
    assert config.intrinsics.fx == pytest.approx(0.9 * 48)
    assert all(r.truth_path is not None for r in records)


def test_manifest_config_only(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("fx=10\nfy=10\ncx=1\ncy=1\nlabels=3\n")
    records, config = load_manifest(path)
    assert records == []
    assert config.labels == 3
    with pytest.raises(InputError):
        run_pipeline(path)


def test_manifest_pose_arity_error(tmp_path):
    path = tmp_path / "m.txt"
    pose15 = " ".join(["1.0"] * 15)
    path.write_text(f"fx=10\nfy=10\ncx=1\ncy=1\nf0 a.ppm b.pgm c.unry {pose15}\n")
    with pytest.raises(FormatError, match="m.txt:5"):
        load_manifest(path)


def test_manifest_missing_file(tmp_path):
    path = tmp_path / "m.txt"
    pose = " ".join("%g" % v for v in np.eye(4).reshape(-1))
    path.write_text(f"fx=10\nfy=10\ncx=1\ncy=1\nf0 a.ppm b.pgm c.unry {pose}\n")
    with pytest.raises(InputError, match="a.ppm"):
        load_manifest(path)


def test_manifest_missing_intrinsics_names_path(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("fy=10\ncx=1\ncy=1\n")
    with pytest.raises(FormatError, match=r"m\.txt: missing intrinsics keys: fx$"):
        load_manifest(path)


def test_manifest_unknown_key(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("fx=10\nfy=10\ncx=1\ncy=1\nwarp_field=3\n")
    with pytest.raises(FormatError):
        load_manifest(path)


def test_apply_overrides(scene):
    _, config = load_manifest(scene)
    updated = apply_overrides(
        config, {"iterations": 2, "backend": "exact", "voxel_resolution": 0.02}
    )
    assert updated.crf.iterations == 2
    assert updated.backend == "exact"
    assert updated.voxel_resolution == 0.02
    with pytest.raises(ConfigError):
        apply_overrides(config, {"bogus": 1})


_BAD_VALUES = [
    ("voxel_resolution", "abc"),
    ("voxel_resolution", None),
    ("min_confidence", float("nan")),
    ("iterations", None),
    ("iterations", 2.7),
    ("iterations", True),
    pytest.param("iterations", 10**400, id="iterations-overflow"),
    ("min_observations", 1.9),
    ("labels", "4"),
    ("backend", 1),
    ("theta_alpha", [61.0]),
    ("w_spatial", "3"),
    ("kernel_weights", 5.0),
    ("kernel_weights", [5.0, "3"]),
    ("compatibility", [[0.0, 1.0], [1.0]]),
]


@pytest.mark.parametrize("key, value", _BAD_VALUES)
def test_config_bad_value_names_the_key(scene, tmp_path, capsys, key, value):
    _, config = load_manifest(scene)
    with pytest.raises(ConfigError, match=key):
        apply_overrides(config, {key: value})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({key: value}))
    rc = cli_main(["fuse", "--manifest", str(scene), "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and key in err and "Traceback" not in err


@pytest.mark.parametrize(
    "line",
    [
        "iterations=2.7",
        "voxel_resolution=abc",
        "kernel_weights=3",
        "depth_scale=nan",
        "fx=0",
        "fy=-2",
        "depth_scale=0",
        "labels=1",
        "voxel_resolution=0",
        "backend=magic",
    ],
)
def test_manifest_bad_value_names_the_line(tmp_path, line):
    path = tmp_path / "m.txt"
    path.write_text(f"fx=10\nfy=10\ncx=1\ncy=1\n{line}\n")
    with pytest.raises(FormatError, match=r"m\.txt:5: bad value for " + line.split("=")[0]):
        load_manifest(path)


def test_apply_overrides_reads_crf_params_dict(scene):
    _, config = load_manifest(scene)
    mu = np.arange(16.0).reshape(4, 4)
    params = CrfParams(np.array([0.5, 2.0]), mu, 30.0, 7.0, 2.0, 3)
    assert apply_overrides(config, params.to_dict()).crf.to_dict() == params.to_dict()
    potts = apply_overrides(config, CrfParams().to_dict()).crf
    assert potts.compatibility is None
    exact = apply_overrides(config, {"iterations": 2.0, "min_observations": np.int64(3)})
    assert (exact.crf.iterations, exact.min_observations) == (2, 3)
    alias = apply_overrides(config, {"w_spatial": 1.5})
    assert alias.crf.kernel_weights.tolist() == [config.crf.kernel_weights[0], 1.5]


def test_config_cross_field_conflicts(scene, monkeypatch):
    _, config = load_manifest(scene)
    with pytest.raises(ConfigError, match="compatibility"):
        apply_overrides(config, {"compatibility": np.eye(3).tolist()})
    with_mu = apply_overrides(config, {"compatibility": np.eye(4).tolist()})
    with pytest.raises(ConfigError, match="compatibility"):
        apply_overrides(with_mu, {"labels": 3})
    with pytest.raises(ConfigError, match="kernel_weights"):
        apply_overrides(config, {"kernel_weights": [1.0, 1.0], "w_bilateral": 2.0})

    def no_frames(*args):
        raise AssertionError("a frame was loaded")

    monkeypatch.setattr(runner, "run_frame", no_frames)
    with pytest.raises(ConfigError, match="^compatibility"):
        run_pipeline(scene, overrides={"compatibility": np.eye(3).tolist()})


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(noise=1.0)
    with pytest.raises(ConfigError):
        small_spec(confidence=0.2)  # <= 1/L
    with pytest.raises(ConfigError):
        small_spec(frame_count=0)
    with pytest.raises(ConfigError):
        small_spec(boxes=[MaterialBox((0, 0, 0), (9, 9, 9), 1)])  # outside room
    for jitter in (-1.0, float("nan"), float("inf")):  # once flat shading, silently
        with pytest.raises(ConfigError, match="jitter"):
            small_spec(jitter=jitter)


def test_noiseless_unary_argmax_equals_truth(scene):
    records, _ = load_manifest(scene)
    for rec in records:
        probs = load_unary(rec.unary_path)
        truth = read_label_image(rec.truth_path)
        assert np.array_equal(np.argmax(probs.data, axis=1), truth.data)


def test_corruption_fraction_near_noise_rate():
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 5, size=128 * 96)
    probs = corrupt_unaries(truth, 5, 0.2, 0.6, np.random.default_rng(1))
    frac = float((np.argmax(probs, axis=1) != truth).mean())
    assert abs(frac - 0.2) < 0.01


def test_same_seed_bit_identical(tmp_path):
    m1 = generate_synthetic(small_spec(noise=0.3), tmp_path / "a")
    m2 = generate_synthetic(small_spec(noise=0.3), tmp_path / "b")
    r1, _ = load_manifest(m1)
    r2, _ = load_manifest(m2)
    for a, b in zip(r1, r2):
        for attr in ("rgb_path", "depth_path", "unary_path", "truth_path"):
            pa, pb = getattr(a, attr), getattr(b, attr)
            assert open(pa, "rb").read() == open(pb, "rb").read()


def test_depth_is_valid_everywhere_inside_room(scene):
    records, _ = load_manifest(scene)
    from voxcrf.pipeline.formats import read_pgm16

    for rec in records:
        assert (read_pgm16(rec.depth_path) > 0).all()


# ---------------------------------------------------------------------------
# run_frame / run_pipeline
# ---------------------------------------------------------------------------


def test_run_frame_inert_crf_keeps_unary_argmax(scene):
    records, config = load_manifest(scene)
    config = apply_overrides(config, {"w_bilateral": 0.0, "w_spatial": 0.0, "iterations": 1})
    out = run_frame(records[0], config)
    probs = load_unary(records[0].unary_path)
    pred = map_labeling(out.q).data
    assert np.array_equal(pred, np.argmax(probs.data, axis=1))
    # identity-free: cloud is in the world frame; count equals valid depth
    assert len(out.cloud) == int((out.depth > 0).sum())


def test_run_frame_identity_pose_keeps_camera_frame(tmp_path):
    from voxcrf.projection import back_project

    spec = small_spec(frame_count=1)
    manifest = generate_synthetic(spec, tmp_path / "s")
    records, config = load_manifest(manifest)
    rec = records[0]
    object.__setattr__(rec.pose, "matrix", np.eye(4))  # force identity
    out = run_frame(rec, config)
    points, valid = back_project(out.depth, config.intrinsics)
    assert np.abs(out.cloud.points - points[valid]).max() < 1e-12


def test_run_frame_errors_name_the_frame(scene, tmp_path):
    records, config = load_manifest(scene)
    bad = records[0]
    bad.unary_path = str(tmp_path / "nope.unry")
    with pytest.raises(Exception, match="frame0000"):
        run_frame(bad, config)


def test_run_pipeline_single_frame_equals_voxelized_frame(tmp_path):
    spec = small_spec(frame_count=1, noise=0.2)
    manifest = generate_synthetic(spec, tmp_path / "s")
    records, config = load_manifest(manifest)
    out = run_frame(records[0], config)

    from voxcrf.fusion import VoxelMap, integrate_cloud

    expected = VoxelMap(config.voxel_resolution, config.labels)
    integrate_cloud(expected, out.cloud)

    result = run_pipeline(manifest, out_dir=tmp_path / "out")
    assert np.array_equal(result.vmap.keys, expected.keys)
    assert np.abs(
        np.exp(result.vmap.log_posteriors) - np.exp(expected.log_posteriors)
    ).max() < 1e-12


def test_run_pipeline_duplicate_frames_fuse_twice(tmp_path):
    spec = small_spec(frame_count=1, noise=0.2)
    manifest = generate_synthetic(spec, tmp_path / "s")
    text = manifest.read_text().rstrip("\n").splitlines()
    frame_line = text[-1]
    manifest.write_text("\n".join(text + [frame_line]) + "\n")

    single_dir = tmp_path / "single"
    single_manifest = tmp_path / "s" / "single.txt"
    single_manifest.write_text("\n".join(text) + "\n")

    once = run_pipeline(single_manifest, out_dir=tmp_path / "o1")
    twice = run_pipeline(manifest, out_dir=tmp_path / "o2")

    # fusing the same evidence twice = one more bayes update per point;
    # spot-check voxels observed exactly once per pass
    for key in map(tuple, once.vmap.indices[once.vmap.observations == 1]):
        d1 = once.vmap.distribution(key)
        d2 = twice.vmap.distribution(key)
        assert np.abs(bayes_update(d1, d1) - d2).max() < 1e-9


def test_run_pipeline_emits_valid_artifacts(scene, tmp_path):
    result = run_pipeline(scene, out_dir=tmp_path / "out")
    points, colors, labels, conf = read_ply(result.outputs["global_ply"])
    assert points.shape[0] == len(result.vmap)  # default thresholds keep all
    assert result.metrics is not None
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "pixel_accuracy=" in summary and "frames=3" in summary


def test_run_pipeline_deterministic(scene, tmp_path):
    r1 = run_pipeline(scene, out_dir=tmp_path / "o1")
    r2 = run_pipeline(scene, out_dir=tmp_path / "o2")
    ply1 = open(r1.outputs["global_ply"], "rb").read()
    ply2 = open(r2.outputs["global_ply"], "rb").read()
    assert ply1 == ply2
    s1 = (tmp_path / "o1" / "metrics.txt").read_bytes()
    s2 = (tmp_path / "o2" / "metrics.txt").read_bytes()
    assert s1 == s2


def test_run_pipeline_frame_order_invariance(tmp_path):
    manifest = generate_synthetic(small_spec(noise=0.3), tmp_path / "s")
    lines = manifest.read_text().rstrip("\n").splitlines()
    header = [l for l in lines if "=" in l or not l.strip() or l.startswith("#")]
    frames = [l for l in lines if l.strip() and "=" not in l and not l.startswith("#")]
    reordered = tmp_path / "s" / "reordered.txt"
    reordered.write_text("\n".join(header + frames[::-1]) + "\n")

    a = run_pipeline(manifest, out_dir=tmp_path / "oa")
    b = run_pipeline(reordered, out_dir=tmp_path / "ob")
    assert np.array_equal(a.vmap.keys, b.vmap.keys)
    worst = float(np.abs(np.exp(a.vmap.log_posteriors) - np.exp(b.vmap.log_posteriors)).max())
    assert worst <= 1e-9


def test_run_pipeline_builds_spatial_plan_once(tmp_path, plan_builds):
    manifest = generate_synthetic(small_spec(frame_count=3), tmp_path / "s")
    run_pipeline(manifest, overrides={"backend": "lattice"}, out_dir=tmp_path / "out")
    assert [s for s in plan_builds if s[1] == 5] == [(48 * 36, 5)] * 3
    assert [s for s in plan_builds if s[1] == 2] == [(48 * 36, 2)]


def test_run_pipeline_one_spatial_plan_per_depth_size(tmp_path, plan_builds):
    manifest = generate_synthetic(small_spec(frame_count=2), tmp_path / "s")
    other = generate_synthetic(small_spec(frame_count=2, width=32, height=24), tmp_path / "s" / "b")
    frames = [
        "b" + line.replace(" rgb/", " b/rgb/").replace(" depth/", " b/depth/")
        .replace(" unary/", " b/unary/").replace(" truth/", " b/truth/")
        for line in other.read_text().splitlines()
        if line.startswith("frame")
    ]
    manifest.write_text(manifest.read_text() + "\n".join(frames) + "\n")
    result = run_pipeline(manifest, out_dir=tmp_path / "out")
    assert result.frame_count == 4
    assert [s for s in plan_builds if s[1] == 2] == [(48 * 36, 2), (32 * 24, 2)]


def test_run_pipeline_frees_each_frame_before_the_next(tmp_path, monkeypatch):
    """Every earlier frame's Q is freed when the next frame starts, so two
    frames' (N, L) arrays are never live at once."""
    import weakref

    manifest = generate_synthetic(small_spec(frame_count=3), tmp_path / "s")
    original = runner.run_frame
    earlier = []

    def checked_run_frame(record, config, spatial_plan=None):
        assert all(ref() is None for ref in earlier), f"a Q is alive at {record.frame_id}"
        frame = original(record, config, spatial_plan)
        earlier.append(weakref.ref(frame.q.data))
        return frame

    monkeypatch.setattr(runner, "run_frame", checked_run_frame)
    result = run_pipeline(manifest, out_dir=tmp_path / "out")
    assert result.frame_count == len(earlier) == 3


@pytest.mark.parametrize("backend", ["exact", "lattice"])
def test_run_pipeline_reused_plan_bit_equal_to_fresh_plans(tmp_path, monkeypatch, backend):
    import voxcrf.pipeline.runner as runner
    from conftest import build_fresh_plan

    manifest = generate_synthetic(small_spec(frame_count=3, noise=0.3), tmp_path / "s")
    ov = {"backend": backend}
    shared = run_pipeline(manifest, overrides=ov, out_dir=tmp_path / "o1")
    monkeypatch.setattr(runner, "reuse_plan", build_fresh_plan)
    fresh = run_pipeline(manifest, overrides=ov, out_dir=tmp_path / "o2")
    assert np.array_equal(shared.vmap.keys, fresh.vmap.keys)
    assert np.array_equal(shared.vmap.log_posteriors, fresh.vmap.log_posteriors)
    assert shared.metrics == fresh.metrics


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_closed_loop_noiseless(tmp_path, capsys):
    scene_dir = tmp_path / "scene"
    rc = cli_main(
        [
            "synth",
            "--out",
            str(scene_dir),
            "--seed",
            "5",
            "--frames",
            "3",
            "--noise",
            "0.0",
            "--width",
            "48",
            "--height",
            "36",
        ]
    )
    assert rc == 0
    rc = cli_main(
        ["fuse", "--manifest", str(scene_dir / "manifest.txt"), "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    report = (tmp_path / "out" / "metrics.txt").read_text()
    assert "pixel_accuracy=1.000000" in report
    assert "mean_accuracy=1.000000" in report


def test_cli_segment_and_metrics(tmp_path, scene, capsys):
    records, config = load_manifest(scene)
    rec = records[0]
    out_dir = tmp_path / "seg"
    rc = cli_main(
        ["segment", "--unary", rec.unary_path, "--rgb", rec.rgb_path, "--out", str(out_dir)]
    )
    assert rc == 0
    assert (out_dir / "labels.pgm").exists()
    rc = cli_main(
        [
            "metrics",
            str(out_dir / "labels.pgm"),
            rec.truth_path,
            "--labels",
            "4",
            "--out",
            str(tmp_path / "report.txt"),
        ]
    )
    assert rc == 0
    assert "pixel_accuracy=1.000000" in (tmp_path / "report.txt").read_text()


def test_cli_segment_rejects_zero_iterations(scene, tmp_path, capsys):
    records, _ = load_manifest(scene)
    rec = records[0]
    rc = cli_main(
        ["segment", "--unary", rec.unary_path, "--rgb", rec.rgb_path,
         "--out", str(tmp_path / "seg0"), "--iterations", "0"]
    )
    assert rc != 0
    assert "error" in capsys.readouterr().err


def test_cli_train_crf(tmp_path, scene, capsys):
    rc = cli_main(
        [
            "train-crf",
            "--manifest",
            str(scene),
            "--epochs",
            "1",
            "--lr",
            "0.01",
            "--out",
            str(tmp_path / "params.json"),
        ]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "params.json").read_text())
    assert len(payload["kernel_weights"]) == 2
    assert len(payload["compatibility"]) == 4


def test_cli_train_crf_output_feeds_fuse_config(tmp_path, monkeypatch):
    scene_dir, params_path = tmp_path / "scene", tmp_path / "params.json"
    args = ["--frames", "2", "--width", "32", "--height", "24", "--noise", "0.25"]
    assert cli_main(["synth", "--out", str(scene_dir), *args]) == 0
    manifest = str(scene_dir / "manifest.txt")
    rc = cli_main(["train-crf", "--manifest", manifest, "--epochs", "1", "--out", str(params_path)])
    assert rc == 0
    trained = json.loads(params_path.read_text())
    assert trained["kernel_weights"] != CrfParams().kernel_weights.tolist()

    used, results = [], []
    run_frame_original, run_pipeline_original = runner.run_frame, cli.run_pipeline

    def recording_run_frame(record, config, *args):
        used.append(config)
        return run_frame_original(record, config, *args)

    def recording_run_pipeline(*args, **kwargs):
        results.append(run_pipeline_original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(runner, "run_frame", recording_run_frame)
    monkeypatch.setattr(cli, "run_pipeline", recording_run_pipeline)
    fuse = ["fuse", "--manifest", manifest, "--config", str(params_path)]
    assert cli_main([*fuse, "--out", str(tmp_path / "cli")]) == 0
    assert len(used) == 2
    for config in used:
        assert config.crf.kernel_weights.tolist() == trained["kernel_weights"]
        assert config.crf.compatibility.tolist() == trained["compatibility"]

    direct = run_pipeline(manifest, overrides=trained, out_dir=tmp_path / "api")
    assert np.array_equal(results[0].vmap.keys, direct.vmap.keys)
    assert np.array_equal(results[0].vmap.log_posteriors, direct.vmap.log_posteriors)


def test_cli_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        cli_main(["fuse", "--nonsense"])
    assert exc.value.code != 0


def test_cli_missing_file_diagnostic(tmp_path, capsys):
    rc = cli_main(["fuse", "--manifest", str(tmp_path / "nope.txt")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ingestion resampling
# ---------------------------------------------------------------------------


def test_resample_probabilities_identity_and_renormalization(rng):
    from voxcrf.crf import LabelDistributionImage
    from voxcrf.pipeline.resample import resample_probabilities

    probs = rng.dirichlet(np.ones(3), size=12)
    img = LabelDistributionImage(3, 4, 3, probs)
    same = resample_probabilities(img, 3, 4)
    assert same is img
    up = resample_probabilities(img, 6, 8)
    assert (up.height, up.width) == (6, 8)
    assert np.abs(up.data.sum(axis=1) - 1.0).max() < 1e-12
    # corners align with the source corners
    assert up.data[0] == pytest.approx(probs[0])
    assert up.data[-1] == pytest.approx(probs[-1])


def test_resample_labels_nearest_preserves_ids():
    from voxcrf.crf import IGNORE_LABEL, LabelImage
    from voxcrf.pipeline.resample import resample_labels

    data = np.array([[0, 1], [IGNORE_LABEL, 2]])
    img = LabelImage(2, 2, data.reshape(-1))
    up = resample_labels(img, 4, 4)
    assert set(np.unique(up.data)) <= {0, 1, 2, IGNORE_LABEL}
    assert up.data.reshape(4, 4)[0, 0] == 0
    assert up.data.reshape(4, 4)[3, 3] == 2


def test_run_frame_resamples_mismatched_unary(tmp_path):
    from voxcrf.crf import LabelDistributionImage
    from voxcrf.pipeline.formats import save_unary

    spec = small_spec(frame_count=1)
    manifest = generate_synthetic(spec, tmp_path / "s")
    records, config = load_manifest(manifest)
    rec = records[0]
    # rewrite the unary at half resolution
    probs = load_unary(rec.unary_path)
    grid = probs.data.reshape(probs.height, probs.width, probs.labels)[::2, ::2]
    small = LabelDistributionImage(
        grid.shape[0], grid.shape[1], probs.labels, grid.reshape(-1, probs.labels)
    )
    save_unary(rec.unary_path, small)
    out = run_frame(rec, config)
    assert (out.q.height, out.q.width) == (spec.height, spec.width)
    assert len(out.cloud) == int((out.depth > 0).sum())


def test_run_pipeline_resamples_truth_to_depth_grid(tmp_path):
    from voxcrf.crf import LabelImage
    from voxcrf.pipeline.formats import write_label_image
    from voxcrf.pipeline.resample import resample_labels

    spec = small_spec(frame_count=2, noise=0.2)
    runs = {}
    for name in ("small", "resampled"):
        manifest = generate_synthetic(spec, tmp_path / name)
        records, _ = load_manifest(manifest)
        truth = read_label_image(records[1].truth_path)
        grid = truth.data.reshape(truth.height, truth.width)[::2, ::2]
        small = LabelImage(grid.shape[0], grid.shape[1], grid.reshape(-1))  # 24x18
        if name == "resampled":
            small = resample_labels(small, truth.height, truth.width)
        write_label_image(records[1].truth_path, small)
        runs[name] = run_pipeline(manifest, out_dir=tmp_path / f"{name}_out")
    assert runs["small"].metrics is not None
    assert runs["small"].metrics == runs["resampled"].metrics
    assert runs["small"].coverage == runs["resampled"].coverage > 0


def test_run_pipeline_per_frame_ply(tmp_path):
    manifest = generate_synthetic(small_spec(frame_count=2), tmp_path / "s")
    result = run_pipeline(manifest, out_dir=tmp_path / "out", per_frame_ply=True)
    assert "ply:frame0000" in result.outputs
    points, _, _, _ = read_ply(result.outputs["ply:frame0000"])
    assert points.shape[0] > 0


def test_run_pipeline_exact_backend_bit_identical(tmp_path):
    manifest = generate_synthetic(small_spec(frame_count=2, noise=0.2), tmp_path / "s")
    ov = {"backend": "exact", "iterations": 2}
    r1 = run_pipeline(manifest, overrides=ov, out_dir=tmp_path / "o1")
    r2 = run_pipeline(manifest, overrides=ov, out_dir=tmp_path / "o2")
    assert open(r1.outputs["global_ply"], "rb").read() == open(r2.outputs["global_ply"], "rb").read()
    m1 = (tmp_path / "o1" / "metrics.txt").read_bytes()
    m2 = (tmp_path / "o2" / "metrics.txt").read_bytes()
    assert m1 == m2


def test_cli_segment_energy_report(tmp_path, scene, capsys):
    records, _ = load_manifest(scene)
    rec = records[0]
    out_dir = tmp_path / "seg"
    rc = cli_main(
        [
            "segment", "--unary", rec.unary_path, "--rgb", rec.rgb_path,
            "--out", str(out_dir), "--energy-report",
        ]
    )
    assert rc == 0
    text = (out_dir / "energy.txt").read_text()
    assert "energy_map=" in text and "energy_unary_argmax=" in text
    # the refined labeling should not have higher energy than the raw argmax
    values = dict(line.split("=") for line in text.strip().splitlines())
    assert float(values["energy_map"]) <= float(values["energy_unary_argmax"]) + 1e-9
