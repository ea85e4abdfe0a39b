import hashlib
import json
import math
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from voxcrf.crf import CrfParams, map_labeling
from voxcrf.errors import ConfigError, FormatError, InputError
from voxcrf.pipeline import cli, runner
from voxcrf.pipeline.cli import main as cli_main
from voxcrf.pipeline.formats import load_unary, read_label_image, read_ply, write_ppm, write_unary
from voxcrf.pipeline.labels import MATERIAL_NAMES, label_names, label_palette
from voxcrf.pipeline.manifest import PipelineConfig, apply_overrides, load_manifest
from voxcrf.pipeline.runner import run_frame, run_pipeline
from voxcrf.pipeline.synthetic import (
    MaterialBox,
    SyntheticSceneSpec,
    corrupt_unaries,
    default_scene_spec,
    generate_synthetic,
    look_at_pose,
    orbit_poses,
    render_frame,
)
from voxcrf.projection import CameraIntrinsics

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


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_manifest_non_finite_pose_names_the_line(tmp_path, token):
    # a non-finite translation passes every rotation check; it must fail at
    # load time, before any frame runs
    path = tmp_path / "m.txt"
    pose = ["%g" % v for v in np.eye(4).reshape(-1)]
    pose[3] = token
    path.write_text(f"fx=10\nfy=10\ncx=1\ncy=1\nf0 a.ppm b.pgm c.unry {' '.join(pose)}\n")
    with pytest.raises(FormatError, match=r"m\.txt:5: pose entries must be finite"):
        load_manifest(path)


def test_manifest_missing_file(tmp_path):
    path = tmp_path / "m.txt"
    pose = " ".join("%g" % v for v in np.eye(4).reshape(-1))
    path.write_text(f"fx=10\nfy=10\ncx=1\ncy=1\nf0 a.ppm b.pgm c.unry {pose}\n")
    with pytest.raises(InputError, match="a.ppm"):
        load_manifest(path)


@pytest.mark.parametrize("frame_id", ["../../escaped", "frame0001/x", "a\\b", ".", ".."])
def test_manifest_rejects_a_frame_id_that_is_not_a_file_name(tmp_path, frame_id):
    # --per-frame-ply writes <frame_id>.ply into --out; "../../escaped" once
    # wrote two directories above it
    path = tmp_path / "m.txt"
    pose = " ".join("%g" % v for v in np.eye(4).reshape(-1))
    path.write_text(f"fx=10\nfy=10\ncx=1\ncy=1\n{frame_id} a.ppm b.pgm c.unry {pose}\n")
    with pytest.raises(FormatError, match=r"m\.txt:5: frame id .* is not a plain file name"):
        load_manifest(path)


def test_manifest_keeps_plain_frame_ids(scene):
    text = scene.read_text().replace("frame0001 ", "frame.0001-b_2 ", 1)
    scene.write_text(text)
    records, _ = load_manifest(scene)
    assert [r.frame_id for r in records] == ["frame0000", "frame.0001-b_2", "frame0002"]


def test_manifest_missing_intrinsics_names_path(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("fy=10\ncx=1\ncy=1\n")
    with pytest.raises(FormatError, match=r"m\.txt: missing intrinsics keys: fx$"):
        load_manifest(path)


def test_manifest_bad_focal_length_quotes_only_its_own_value(tmp_path):
    # the check of fx alone once quoted its placeholder fy=1.0 as well
    path = tmp_path / "m.txt"
    path.write_text("fx=0\nfy=10\ncx=1\ncy=1\n")
    with pytest.raises(FormatError, match=r"m\.txt:1: bad value for fx: fx must be positive, got 0\.0$"):
        load_manifest(path)


def test_manifest_key_given_twice_names_its_second_line(tmp_path):
    # the last value once won silently: fx=1000 then fx=576.0 loaded fx 576.0
    path = tmp_path / "m.txt"
    path.write_text("fx=1000\nfy=10\ncx=1\ncy=1\n# again\nfx=576.0\n")
    with pytest.raises(FormatError, match=r"m\.txt:6: header key 'fx' is given again$"):
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
    ("kernel_weights", [5.0, None]),
    ("kernel_weights", 5.0),
    ("kernel_weights", [5.0, "3"]),
    ("compatibility", [[0.0, 1.0], [1.0]]),
    ("labels", 256),  # 255 is IGNORE in 8-bit truth images, PLY labels are uchar
    ("kernel_weights", [5.0]),
    ("kernel_weights", [-1.0, 1.0]),
    ("voxel_resolution", 0),
    ("min_observations", -1),
    ("min_confidence", -0.5),
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
        "labels=256",
        "voxel_resolution=0",
        "backend=magic",
        "kernel_weights=1,2,3",
        "kernel_weights=a,b",
        "kernel_weights=5,",
        "compatibility=0,1,1,0",  # a comma list is 1-D: compatibility is --config only
    ],
)
def test_manifest_bad_value_names_the_line(tmp_path, line):
    path = tmp_path / "m.txt"
    path.write_text(f"fx=10\nfy=10\ncx=1\ncy=1\n{line}\n")
    with pytest.raises(FormatError, match=r"m\.txt:5: bad value for " + line.split("=")[0]):
        load_manifest(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("voxel_resolution", float("nan")),
        ("voxel_resolution", float("inf")),
        ("min_confidence", float("nan")),
        ("min_observations", float("nan")),
    ],
)
def test_pipeline_config_rejects_non_finite_settings(key, value):
    with pytest.raises(ConfigError):
        PipelineConfig(CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0), **{key: value})


@pytest.mark.parametrize(
    "key, value",
    [
        ("labels", 2.5),
        ("labels", float("nan")),
        ("labels", True),
        ("min_observations", 0.5),
        ("min_observations", float("inf")),
        ("min_observations", "2"),
    ],
)
def test_pipeline_config_integer_fields_reject_non_integers(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be an integer"):
        PipelineConfig(CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0), **{key: value})


def test_manifest_reads_a_comma_list(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("fx=10\nfy=10\ncx=1\ncy=1\nkernel_weights=0.5,2\niterations=2\n")
    _, config = load_manifest(path)
    assert config.crf.kernel_weights.tolist() == [0.5, 2.0]
    assert config.crf.iterations == 2


@pytest.mark.parametrize("key", ["w_bilateral", "w_spatial"])
def test_manifest_has_no_kernel_weight_aliases(tmp_path, key):
    path = tmp_path / "m.txt"
    path.write_text(f"fx=10\nfy=10\ncx=1\ncy=1\n{key}=2\n")
    with pytest.raises(FormatError, match=rf"m\.txt:5: unknown config key '{key}'"):
        load_manifest(path)


def test_every_config_key_names_a_field_of_its_dataclass():
    from dataclasses import fields

    from voxcrf.pipeline.manifest import _KEYS

    for key, (owner, _) in _KEYS.items():
        assert key in {f.name for f in fields(owner)}


def test_apply_overrides_reads_crf_params_dict(scene):
    _, config = load_manifest(scene)
    mu = np.arange(16.0).reshape(4, 4)
    params = CrfParams(np.array([0.5, 2.0]), mu, 30.0, 7.0, 2.0, 3)
    assert apply_overrides(config, params.to_dict()).crf.to_dict() == params.to_dict()
    potts = apply_overrides(config, CrfParams().to_dict()).crf
    assert potts.compatibility is None
    exact = apply_overrides(config, {"iterations": 2.0, "min_observations": np.int64(3)})
    assert (exact.crf.iterations, exact.min_observations) == (2, 3)


def test_config_cross_field_conflicts(scene, monkeypatch):
    _, config = load_manifest(scene)
    with pytest.raises(ConfigError, match="compatibility"):
        apply_overrides(config, {"compatibility": np.eye(3).tolist()})
    six = apply_overrides(config, {"labels": 6, "compatibility": np.eye(6).tolist()})
    assert six.crf.compatibility_for(6).shape == (6, 6)
    with_mu = apply_overrides(config, {"compatibility": np.eye(4).tolist()})
    with pytest.raises(ConfigError, match="compatibility"):
        apply_overrides(with_mu, {"labels": 3})
    with pytest.raises(ConfigError, match=r"unknown override keys .*\['w_bilateral'\]"):
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
    nan, inf = float("nan"), float("inf")
    for lo, hi in (
        ((nan, 1.0, 0.1), (2.0, 2.0, 0.7)),  # once passed, and no frame showed the box
        ((0.5, 1.0, 0.1), (2.0, nan, 0.7)),
        ((0.5, 1.0, 0.1), (inf, 2.0, 0.7)),  # once failed only as "not inside the room"
    ):
        with pytest.raises(ConfigError, match=r"box MaterialBox\(.*\) corners must be finite"):
            default_scene_spec(boxes=[MaterialBox(lo, hi, 5)])
    for jitter in (-1.0, float("nan"), float("inf")):  # once flat shading, silently
        with pytest.raises(ConfigError, match="jitter"):
            small_spec(jitter=jitter)
    for label_count in (1, 256):  # 256 once wrapped truth ids to 0 in the uint8 files
        with pytest.raises(ConfigError, match="label count"):
            small_spec(label_count=label_count)
    for room in ((float("nan"), 3.2, 2.4), (3.2, float("inf"), 2.4)):  # NaN once gave no depth
        with pytest.raises(ConfigError, match="room extents"):
            small_spec(room=room)
    # an orbit above the room once rendered only its outer face, label 12 everywhere
    for orbit in (dict(orbit_height=3.0), dict(orbit_height=0.0), dict(orbit_radius=1.7)):
        with pytest.raises(ConfigError, match="orbit_radius=.* not inside the room"):
            small_spec(**orbit)
    for name in ("orbit_radius", "orbit_height"):  # NaN once wrote every file, then failed to load
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                small_spec(**{name: value})
    with pytest.raises(ConfigError, match="orbit_radius=0, orbit_height=0.3 .* inside box"):
        small_spec(orbit_radius=0, orbit_height=0.3)  # inside the table
    with pytest.raises(ConfigError, match="orbit_height=0.8 puts the camera on its look-at target"):
        small_spec(orbit_radius=0, orbit_height=0.8)  # once NaN poses in the manifest
    small_spec(orbit_radius=0, orbit_height=2.0)  # straight down is a valid view
    for size, frames in (((640, 480), 3), ((160, 120), 12), ((64, 48), 4)):  # benchmark scenes
        default_scene_spec(width=size[0], height=size[1], frame_count=frames, noise=0.25)
    with pytest.raises(FrozenInstanceError):  # a checked spec cannot be made invalid
        small_spec().seed = -1
    assert isinstance(small_spec().boxes, tuple)  # no box appended after the checks


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


def _slab_oracle(eye, d, lo, hi):
    """Kay & Kajiya's slab test for one ray in Python floats: (t, hit).  A
    zero direction component is an infinite slab: a ray inside it passes, a
    ray outside or on one of its planes (0 * inf is NaN) misses."""
    tmin, tmax = -math.inf, math.inf
    for k in range(3):
        if d[k] == 0.0:
            if not lo[k] < eye[k] < hi[k]:
                return math.inf, False
            continue
        t1 = (lo[k] - eye[k]) * (1.0 / d[k])
        t2 = (hi[k] - eye[k]) * (1.0 / d[k])
        tmin, tmax = max(tmin, min(t1, t2)), min(tmax, max(t1, t2))
    if tmax >= tmin and tmax > 1e-9:
        return (tmin if tmin > 1e-9 else tmax), True
    return math.inf, False


def _render_oracle(spec, pose):
    """render_frame one ray at a time: the closest box hit, else the room."""
    cam = spec.intrinsics
    dirs_cam = np.array(
        [((u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, 1.0)
         for v in range(spec.height) for u in range(spec.width)]
    )
    dirs = dirs_cam @ pose[:3, :3].T  # the renderer's product, so both cast the same rays
    eye = pose[:3, 3].tolist()
    depth, labels = [], []
    for d in dirs.tolist():
        t_best, _ = _slab_oracle(eye, d, (0.0, 0.0, 0.0), spec.room)
        label = spec.room_label
        for box in spec.boxes:
            t, hit = _slab_oracle(eye, d, box.lo, box.hi)
            if hit and t < t_best:
                t_best, label = t, box.label
        raw = round(t_best / spec.depth_scale) if math.isfinite(t_best) else 0
        depth.append(raw if 1 <= raw <= 65535 else 0)
        labels.append(label)
    shape = (spec.height, spec.width)
    return np.array(depth, dtype=np.uint16).reshape(shape), np.array(labels).reshape(shape)


@pytest.mark.parametrize("size", [(16, 12), (17, 13)], ids=["16x12", "17x13"])
def test_render_frame_matches_per_ray_oracle(size):
    """Depth and labels bit-equal to a scalar slab test on the orbit, a
    straight-down view, an axis-aligned view and an eye on the table's x = 0.9
    slab plane.  At 17x13 the centre row and column have exactly zero
    direction components, so the infinite-slab and NaN cases run too."""
    spec = default_scene_spec(width=size[0], height=size[1])
    poses = orbit_poses(spec) + [
        look_at_pose([1.6, 1.6, 2.0], [1.6, 1.6, 0.8]),  # straight down
        look_at_pose([0.2, 1.6, 1.0], [1.2, 1.6, 1.0]),  # along +x
        look_at_pose([0.9, 0.3, 0.5], [0.9, 1.3, 0.5]),  # in the table's x = 0.9 plane
    ]
    with np.errstate(invalid="ignore"):  # 0 * inf on the slab plane
        for pose in poses:
            depth, labels = render_frame(spec, pose)
            want_depth, want_labels = _render_oracle(spec, pose)
            np.testing.assert_array_equal(depth, want_depth)
            np.testing.assert_array_equal(labels, want_labels)
            assert depth.dtype == np.uint16 and (depth > 0).all()


# the numpy series whose Generator streams drew the pinned rgb and unary bytes
_PINNED_NUMPY = "2.4"
_DEFAULT_SCENE_SHA256 = {
    "depth/frame0000.pgm": "3c2dfaa27e53aaaed8960bd9a843d88b089baec9ce25382895eca2eec26d8786",
    "depth/frame0001.pgm": "653c0bc7d88269d054e096f813ad1782301eaf7713c2bd399f636ad45187baec",
    "depth/frame0002.pgm": "ae4956cc6bf931047422dc02fa3c5469aa6dc8502fbd1b283020b537f03137b8",
    "depth/frame0003.pgm": "cce9a8685b26296b8c3df2431a543ae10218813a63ad4e8b2199683ad490106d",
    "depth/frame0004.pgm": "b827211b9b631fb35edc122b0a0f147aca36fa10f5fdb30d6f890097d586a37c",
    "depth/frame0005.pgm": "b65be44720f336d3ac0ca208fc815e0f1389332d33399a7cf6382ddb46c25153",
    "depth/frame0006.pgm": "fbe9c424402bd97f1777cf46a0618d46a595b1c14dce873167a24968ee7445e4",
    "depth/frame0007.pgm": "fc51654f1aa1f5f7526057c7b3a458d5d0dd9b2670be958562240fa5cf6b095f",
    "depth/frame0008.pgm": "d54da683d40188f77273c23c754a14179b052391eadb5bad5a26245388eb69bb",
    "depth/frame0009.pgm": "eff91dc2bdff8a81955a4f490853a584cd9e658cd0adf47a83bc481d95003658",
    "depth/frame0010.pgm": "5ac3c7190f1fe7ce1a3e739f3154c449f96ba260af3866f27f384e527ffa77ef",
    "depth/frame0011.pgm": "d11dedddd40f4e24676eaff8cc2ee3166594833aa15dbbde49594c4ad2d2cbb9",
    "manifest.txt": "48d67f0b8c7b7eb2a96bab592e929d24d3fd39a1673311007fbcd770954cbe0a",
    "rgb/frame0000.ppm": "a9a269d49b10c6444929047736629b929aae1787a5de9d1301e1589b68b1d839",
    "rgb/frame0001.ppm": "ded61011abc8d307ab5e2f062fa99b2501d4027c09132ed303ca704b0eb09705",
    "rgb/frame0002.ppm": "f173c089bbc85759cbdcfd3af7f70ee0b601f190a47cc5949935473adb83c5da",
    "rgb/frame0003.ppm": "55517fd8b39ade6420821f0fe34a3b205e0aeda2a684830357f7f18f4d01e98b",
    "rgb/frame0004.ppm": "d08af617b83f25e045d35342b6a9f0481299bb432ccab6d74c95d971ba5cee30",
    "rgb/frame0005.ppm": "fd21d2655af2bb7700aa17850b319394d42935ecf2c1c806a22c25af030a33c0",
    "rgb/frame0006.ppm": "21b4b0a088fa2463901321ab10e84f7f6419054f6696ce69bd30d5ea0e45b964",
    "rgb/frame0007.ppm": "c5e6db34af42abfbaf6f02739bf917a69607aef5479db3c0a00119289a013b36",
    "rgb/frame0008.ppm": "a75dc6292e8b6e0ee51daf791a9740e479c50aaa890e23cb9bd6de8a356f2e65",
    "rgb/frame0009.ppm": "8d7ac4ebecbc0d97f4a0b8b878c4c257382a4d1f5f3499cb2683529ec4957206",
    "rgb/frame0010.ppm": "91bb87a9d88aeee7e48e0a5d08210bea127a440877b8c2e85cff2b944f8d83ad",
    "rgb/frame0011.ppm": "3b986584d5b0d75e6ddec47f21a08e1acec7c547ce17ec6de54556e728de0896",
    "truth/frame0000.pgm": "1f01cf915d43fd38c02cd85c725008f9a3fbb82be6c3b7c683038b44636d8c52",
    "truth/frame0001.pgm": "8e12c20ddf8399f858f136c8237a3176693fcdd48624134e608b01ba417ed736",
    "truth/frame0002.pgm": "91cf6d000b01e797a60c9eb9967f1db3b91fa29b2252cf7dcc37b6e8c4f08292",
    "truth/frame0003.pgm": "dc6bf5b53d1ebd8fd9617043f74dfeb0a2a131e9b4fee3bcc037d3972970794c",
    "truth/frame0004.pgm": "8e3c3db12356c1a780419b70692b22ff7bc2f4b2900f4ca67b86689788877a31",
    "truth/frame0005.pgm": "ef8ae701226b0bb635fa80aabc2ea1919233b7c25ae4ec437a67edd6e5eb856a",
    "truth/frame0006.pgm": "e89debcf7a7f7a5d51ca853fed78ed51f4578fd975f0328ff99829e925a8eb6e",
    "truth/frame0007.pgm": "2eec02eb3392f0c32efcefc29a0714b15ed63837e38cd43123b2f9d5dbb7477e",
    "truth/frame0008.pgm": "cb237865fe65088b3641ee42c7c23c4e866acaf62d1a5b271f247901b1e81486",
    "truth/frame0009.pgm": "3433e167453caf9e1947419c48fa836209b0434e21184920f5bc967eb8746c5a",
    "truth/frame0010.pgm": "c52add905840710f50875c9764ee7b97e8eda73acb7fcd2944febb588d8361db",
    "truth/frame0011.pgm": "833a3425e32b94f9cdf26d7aa40d835ee4c83fe59b6d487ca62df95c80331b28",
    "unary/frame0000.unry": "5d20741a942c0d7a560288d1c72bab39c76e597b7d050ba7a194c141b821f9c3",
    "unary/frame0001.unry": "623047958042b6678a4fe0ed36c1fd0994c844230115d31c5e603d8c71559de0",
    "unary/frame0002.unry": "43b0fdfa884e410d5cf8d6e31c9291649481582712de9317ca4ea1997f3ed2a0",
    "unary/frame0003.unry": "795c30923896543da42f53d82f1ca11c3ac52991f54a0cb77faf2b39773d7236",
    "unary/frame0004.unry": "87b2cbc2f52e865cff1c960a8c7f1354b3451fff925b59de1cb71fbbae638116",
    "unary/frame0005.unry": "a9f7b652325450d1857a5126fda42686cd5e20faf67b794192cd0dd49a8c6066",
    "unary/frame0006.unry": "7da3f921775930871188fbcd27ce6f320dcd7454c5bac6d2b41cddfa17b4b007",
    "unary/frame0007.unry": "ed1b8eefd0ee1c399bf7b2900fba34f35d04076ff4dbdf2bf373b6ee22cc9045",
    "unary/frame0008.unry": "1f48289e23be80bc4739e6625f1390eb8d1f0d247ca84690f31f763b92a7fff6",
    "unary/frame0009.unry": "5e3c2cc8ad3259289d918f591834c0c292efa362ecce0dcb99bd489c00644bbb",
    "unary/frame0010.unry": "0fb0b7e7506e74c02840436274ada5009cf960c658a7c6db9d0ef9c34ab79e96",
    "unary/frame0011.unry": "d1376fb7cdab78a7eb7fee21ff31e4946b1a40f3520b766173204b1f305b9787",
}
_VGA_SCENE_SHA256 = {
    "depth/frame0000.pgm": "bef8cb470de5eed643d52de046bf5f9f365cf3de8a0d28c082a1781b160da489",
    "manifest.txt": "7a91a839348bb8b3696ae8132854577a9cdbaebbac2b67424fcd5b48a7311bc3",
    "rgb/frame0000.ppm": "78c8156f37fd4732dfe1a8fd1a4b50ffed9971762cd63137501af6ffe6e69d87",
    "truth/frame0000.pgm": "989a222e95049bbd4a4aa2658802c0de072330195d064465250a4df1b16a638f",
    "unary/frame0000.unry": "e3b0bb235552366c530344e97a729eaa07e0b90fa0386e005d59090f9d19affe",
}


@pytest.mark.parametrize(
    "kwargs, pinned",
    [
        ({}, _DEFAULT_SCENE_SHA256),
        (dict(width=640, height=480, frame_count=1, noise=0.25, seed=0), _VGA_SCENE_SHA256),
    ],
    ids=["default", "vga-1-frame"],
)
def test_synthetic_scene_bytes_are_pinned(tmp_path, kwargs, pinned):
    """The scenes are the benchmark's inputs: a renderer or writer change that
    moves one byte shows here, file by file.  Depth is rounded to the
    millimetre and truth holds labels, so a last-bit difference in a float
    library leaves them be; rgb and unary are pinned as numpy's Generator
    draws them in _PINNED_NUMPY (CI installs that series).  The manifest's
    poses, printed to 17 digits from cos, sin and norm, must round-trip to
    ``orbit_poses`` and are left out of its digest."""
    spec = default_scene_spec(**kwargs)
    manifest = generate_synthetic(spec, tmp_path)
    records, _ = load_manifest(manifest)
    assert len(records) == spec.frame_count
    for rec, pose in zip(records, orbit_poses(spec)):
        np.testing.assert_array_equal(rec.pose.matrix, pose)
    got = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*")) if p.is_file()
    }
    without_poses = re.sub(r"( \S+){16}$", "", manifest.read_text(), flags=re.M)
    got["manifest.txt"] = hashlib.sha256(without_poses.encode()).hexdigest()
    assert got == pinned, (
        f"digests pinned with numpy {_PINNED_NUMPY}, running numpy {np.__version__}"
    )


def test_depth_is_valid_everywhere_inside_room(scene):
    records, _ = load_manifest(scene)
    from voxcrf.pipeline.formats import read_pgm16

    for rec in records:
        assert (read_pgm16(rec.depth_path) > 0).all()


def test_synthetic_manifest_carries_the_spec_camera(tmp_path):
    from dataclasses import fields

    spec = small_spec(width=40, height=30, depth_scale=0.0005)
    manifest = generate_synthetic(spec, tmp_path / "s")
    _, config = load_manifest(manifest)
    assert config.intrinsics == spec.intrinsics
    assert spec.intrinsics == CameraIntrinsics(36.0, 36.0, 19.5, 14.5, 0.0005)
    header = [ln.split("=", 1)[0] for ln in manifest.read_text().splitlines() if "=" in ln]
    assert [k for k in header if k != "labels"] == [f.name for f in fields(CameraIntrinsics)]


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(depth_scale=0.0), "depth_scale must be positive"),  # once wrote all-zero depth
        (dict(depth_scale=float("nan")), "intrinsics must be finite"),
        (dict(seed=-1), r"seed must be >= 0, got -1"),  # once a numpy traceback
        (dict(orbit_radius=float("nan")), "orbit_radius must be finite"),  # once NaN poses
    ],
    ids=["depth_scale-zero", "depth_scale-nan", "seed-negative", "orbit-nan"],
)
def test_spec_rejects_bad_camera_and_seed_before_writing(tmp_path, kwargs, message):
    with pytest.raises(ConfigError, match=message):
        generate_synthetic(small_spec(**kwargs), tmp_path / "s")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "name, value",
    [
        ("frame_count", 2.5),  # once a raw TypeError
        ("width", 32.5),  # width, height, label_count and seed: once a
        ("height", 24.5),  # TypeError after the four directories were made
        ("label_count", 23.5),
        ("seed", 1.5),
        ("room_label", 0.5),  # once a scene whose walls were truncated to label 0
        ("frame_count", True),  # once a 1-frame scene
        ("width", "48"),
    ],
)
def test_spec_rejects_a_non_integer_count_before_writing(tmp_path, name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
        generate_synthetic(small_spec(**{name: value}), tmp_path / "s")
    assert not (tmp_path / "s").exists()


def test_spec_takes_whole_numbers_as_ints():
    box = MaterialBox((0.9, 0.9, 0.10), (2.3, 1.7, 0.72), np.int64(1))
    spec = small_spec(boxes=[box], width=48.0, frame_count=np.int64(3), seed=3.0)
    assert (spec.width, spec.frame_count, spec.seed, spec.boxes[0].label) == (48, 3, 3, 1)
    assert all(type(v) is int for v in (spec.width, spec.frame_count, spec.seed, box.label))
    for label in (1.5, True):
        with pytest.raises(ConfigError, match="box label must be an integer"):
            MaterialBox((0.9, 0.9, 0.10), (2.3, 1.7, 0.72), label)


# ---------------------------------------------------------------------------
# run_frame / run_pipeline
# ---------------------------------------------------------------------------


def test_run_frame_inert_crf_keeps_unary_argmax(scene):
    records, config = load_manifest(scene)
    config = apply_overrides(config, {"kernel_weights": [0.0, 0.0], "iterations": 1})
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
    seen_once = once.vmap.observations == 1
    rows = twice.vmap.find(once.vmap.keys[seen_once])
    assert np.all(rows >= 0)
    d1s = np.exp(once.vmap.log_posteriors[seen_once])
    for d1, d2 in zip(d1s, np.exp(twice.vmap.log_posteriors[rows])):
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


def test_run_pipeline_frees_q_before_integrate(tmp_path, monkeypatch):
    """The cloud holds its own copy of Q's valid rows, so a frame's Q, an
    (N, L) array, is freed before its cloud is integrated."""
    import weakref

    manifest = generate_synthetic(small_spec(frame_count=2), tmp_path / "s")
    run_frame_original, integrate_original = runner.run_frame, runner.integrate_cloud
    refs, checked = [], []

    def recording_run_frame(*args, **kwargs):
        frame = run_frame_original(*args, **kwargs)
        refs.append(weakref.ref(frame.q.data))
        return frame

    def checked_integrate(vmap, cloud):
        assert refs[-1]() is None, "the frame's Q is alive in integrate_cloud"
        checked.append(True)
        return integrate_original(vmap, cloud)

    monkeypatch.setattr(runner, "run_frame", recording_run_frame)
    monkeypatch.setattr(runner, "integrate_cloud", checked_integrate)
    run_pipeline(manifest, out_dir=tmp_path / "out")
    assert len(checked) == len(refs) == 2


def test_run_frame_frees_the_probabilities_before_inference(tmp_path, monkeypatch):
    """The unary probabilities are dead once U is formed, so their (N, L)
    array is not held through the mean field."""
    import weakref

    manifest = generate_synthetic(small_spec(frame_count=2), tmp_path / "s")
    unary_original, infer_original = runner.unary_from_probabilities, runner.mean_field_infer
    refs, checked = [], []

    def recording_unary(probs):
        refs.append(weakref.ref(probs.data))
        return unary_original(probs)

    def checked_infer(*args, **kwargs):
        assert refs[-1]() is None, "the unary probabilities are alive in mean_field_infer"
        checked.append(True)
        return infer_original(*args, **kwargs)

    monkeypatch.setattr(runner, "unary_from_probabilities", recording_unary)
    monkeypatch.setattr(runner, "mean_field_infer", checked_infer)
    run_pipeline(manifest, out_dir=tmp_path / "out")
    assert len(checked) == len(refs) == 2


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


@pytest.mark.parametrize("labels", [1, 256])
def test_cli_metrics_label_count_outside_2_to_255_exits_1_writing_nothing(
    tmp_path, capsys, labels
):
    """Both counts once exited 0 on all-zero label images; they fail as the
    config's ``labels`` does, before any image is read or ``--out`` written."""
    from voxcrf.pipeline.formats import write_pgm8

    for name in ("p.pgm", "t.pgm"):
        write_pgm8(tmp_path / name, np.zeros((4, 4), dtype=np.uint8))
    images = [str(tmp_path / "p.pgm"), str(tmp_path / "t.pgm")]
    out = tmp_path / "report.txt"
    assert cli_main(["metrics", *images, "--labels", str(labels), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: labels must be in [2, 255], got {labels}\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_segment_rejects_zero_iterations(scene, tmp_path, capsys):
    records, _ = load_manifest(scene)
    rec = records[0]
    rc = cli_main(
        ["segment", "--unary", rec.unary_path, "--rgb", rec.rgb_path,
         "--out", str(tmp_path / "seg0"), "--iterations", "0"]
    )
    assert rc != 0
    assert "error" in capsys.readouterr().err


def _recorded_segment(rec, tmp_path, monkeypatch, *flags):
    """Run ``voxcrf segment`` on ``rec`` and return the (params, backend)
    its mean-field inference was given."""
    used, infer = [], cli.mean_field_infer

    def recording_infer(u, features, params, backend, *args, **kwargs):
        used.append((params, backend))
        return infer(u, features, params, backend, *args, **kwargs)

    monkeypatch.setattr(cli, "mean_field_infer", recording_infer)
    args = ["--unary", rec.unary_path, "--rgb", rec.rgb_path, "--out", str(tmp_path / "seg")]
    assert cli_main(["segment", *args, *flags]) == 0
    assert len(used) == 1
    return used[0]


def test_cli_segment_config_takes_train_crf_output(scene, tmp_path, monkeypatch):
    params_path = tmp_path / "params.json"
    rc = cli_main(["train-crf", "--manifest", str(scene), "--epochs", "1", "--out", str(params_path)])
    assert rc == 0
    trained = json.loads(params_path.read_text())
    assert trained["kernel_weights"] != CrfParams().kernel_weights.tolist()
    rec = load_manifest(scene)[0][0]

    params, backend = _recorded_segment(rec, tmp_path, monkeypatch, "--config", str(params_path))
    assert params.kernel_weights.tolist() == trained["kernel_weights"]
    assert params.compatibility.tolist() == trained["compatibility"]
    assert backend == PipelineConfig.backend  # the JSON holds no backend

    params, backend = _recorded_segment(rec, tmp_path, monkeypatch)  # no config: the defaults
    assert params.kernel_weights.tolist() == CrfParams().kernel_weights.tolist()
    assert params.compatibility is None and params.iterations == CrfParams().iterations
    assert backend == "lattice"


def test_cli_segment_flags_given_beat_the_config(scene, tmp_path, monkeypatch):
    settings = tmp_path / "settings.json"
    settings.write_text('{"backend": "exact", "iterations": 2, "kernel_weights": [4, 1]}')
    rec = load_manifest(scene)[0][0]
    config = ["--config", str(settings)]

    params, backend = _recorded_segment(rec, tmp_path, monkeypatch, *config)
    assert (backend, params.iterations, params.kernel_weights.tolist()) == ("exact", 2, [4, 1])
    flags = ["--backend", "lattice", "--iterations", "3"]
    params, backend = _recorded_segment(rec, tmp_path, monkeypatch, *config, *flags)
    assert (backend, params.iterations, params.kernel_weights.tolist()) == ("lattice", 3, [4, 1])


@pytest.mark.parametrize(
    "settings, message",
    [
        ('{"kernel_weights": [1.0]}', "error: bad value for kernel_weights: "),
        ('{"backend": "magic"}', "error: bad value for backend: "),
        ('{"iterations": 2.5}', "error: bad value for iterations: "),
        ('{"labels": 5}', "error: bad value for labels: the unary has 4 labels, got 5"),
        ('{"nonsense": 1}', "error: unknown override keys "),
    ],
)
def test_cli_segment_bad_config_exits_1_with_one_line(scene, tmp_path, capsys, settings, message):
    path = tmp_path / "bad.json"
    path.write_text(settings)
    rec = load_manifest(scene)[0][0]
    out = tmp_path / "seg"
    args = ["--unary", rec.unary_path, "--rgb", rec.rgb_path, "--out", str(out)]
    assert cli_main(["segment", *args, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("labels", [1, 256, 300])
def test_cli_segment_label_count_outside_2_to_255_exits_1_writing_nothing(tmp_path, capsys, labels):
    """Label 255 is IGNORE in labels.pgm: a 256-label unary whose argmax is
    label 255 once wrote a labels.pgm read back as IGNORE everywhere, and a
    300-label one failed only after writing refined.unry.  One label is
    rejected too, as fuse rejects it."""
    probs = np.zeros((16, labels), dtype=np.float32)
    probs[:, min(labels - 1, 255)] = 1.0
    write_unary(tmp_path / "u.unry", 4, 4, probs)
    write_ppm(tmp_path / "rgb.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
    out = tmp_path / "seg"
    args = ["--unary", str(tmp_path / "u.unry"), "--rgb", str(tmp_path / "rgb.ppm")]
    assert cli_main(["segment", "--backend", "exact", *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: labels must be in [2, 255], got {labels}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["segment", "fuse"])
def test_cli_theta_too_small_for_the_lattice_exits_1_with_one_line(
    scene, tmp_path, capsys, command
):
    """theta_beta = 1e-17 puts the bilateral features past the lattice's
    coordinate bound; that once ended in an IndexError traceback."""
    path = tmp_path / "tiny_theta.json"
    path.write_text('{"theta_beta": 1e-17}')
    rec = load_manifest(scene)[0][0]
    if command == "segment":
        args = ["--unary", rec.unary_path, "--rgb", rec.rgb_path]
    else:
        args = ["--manifest", str(scene)]
    rc = cli_main([command, *args, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "2^48" in err and "raise the theta scales" in err


def test_cli_synth_passes_only_the_flags_given(tmp_path, monkeypatch):
    """Every synth default is SyntheticSceneSpec's: with no flags the CLI
    writes the bytes of the default spec's scene."""
    passed = []

    def recording_spec(**kwargs):
        passed.append(kwargs)
        return default_scene_spec(**kwargs)

    monkeypatch.setattr(cli, "default_scene_spec", recording_spec)
    assert cli_main(["synth", "--out", str(tmp_path / "cli")]) == 0
    assert cli_main(["synth", "--out", str(tmp_path / "two"), "--frames", "2"]) == 0
    assert passed == [{}, {"frame_count": 2}]

    generate_synthetic(default_scene_spec(), tmp_path / "api")

    def contents(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    assert contents(tmp_path / "cli") == contents(tmp_path / "api")


def test_cli_synth_negative_seed_exits_1_writing_nothing(tmp_path, capsys):
    assert cli_main(["synth", "--out", str(tmp_path / "s"), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "s").exists()


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


def test_cli_train_crf_makes_the_out_directory_before_training(tmp_path, scene, capsys, monkeypatch):
    """train-crf creates the parent of --out, as segment and fuse create
    theirs; a parent that cannot be created fails with one error line
    before any frame is loaded, so no training is thrown away."""
    out = tmp_path / "missing" / "deeper" / "params.json"
    assert _train(scene, out) == 0
    assert len(json.loads(out.read_text())["kernel_weights"]) == 2

    loaded = []
    monkeypatch.setattr(cli, "load_frame", lambda *a: loaded.append(a))
    (tmp_path / "file").write_text("")
    capsys.readouterr()
    assert _train(scene, tmp_path / "file" / "params.json") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(tmp_path / "file") in err[0]
    assert loaded == []


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


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--backend", "exact"),
        ("--iterations", "2"),
        ("--voxel-res", "0.05"),
        ("--min-obs", "2"),
        ("--min-conf", "0.5"),
    ],
)
def test_fuse_takes_settings_only_from_manifest_and_config(scene, flag, value):
    with pytest.raises(SystemExit) as exc:
        cli_main(["fuse", "--manifest", str(scene), flag, value])
    assert exc.value.code == 2


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


def test_cli_segment_energy_report_too_large_fails_before_writing(tmp_path, capsys, monkeypatch):
    manifest = generate_synthetic(small_spec(width=72, height=64, frame_count=1), tmp_path / "s")
    rec = load_manifest(manifest)[0][0]

    def no_inference(*args, **kwargs):
        raise AssertionError("inference ran")

    monkeypatch.setattr(cli, "mean_field_infer", no_inference)
    out_dir = tmp_path / "seg"
    rc = cli_main(
        [
            "segment", "--unary", rec.unary_path, "--rgb", rec.rgb_path,
            "--out", str(out_dir), "--energy-report",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: energy evaluation is O(N^2); 4608 > 4096 pixels\n"
    assert captured.out == "" and not out_dir.exists()


# ---------------------------------------------------------------------------
# the one frame loader
# ---------------------------------------------------------------------------


def _train(manifest, out):
    return cli_main(["train-crf", "--manifest", str(manifest), "--epochs", "1", "--out", str(out)])


def test_train_crf_sees_frames_on_the_depth_grid(tmp_path):
    from voxcrf.crf import LabelImage
    from voxcrf.pipeline.formats import read_ppm, write_label_image, write_ppm
    from voxcrf.pipeline.resample import resample_labels, resample_rgb

    spec = small_spec(frame_count=2, noise=0.2)  # 48x36 depth
    for name in ("a", "b"):
        records, _ = load_manifest(generate_synthetic(spec, tmp_path / name))
        for rec in records:
            truth = read_label_image(rec.truth_path)
            grid = truth.data.reshape(truth.height, truth.width)[::2, ::2]
            truth = LabelImage(grid.shape[0], grid.shape[1], grid.reshape(-1))  # 24x18
            rgb = np.repeat(np.repeat(read_ppm(rec.rgb_path), 2, axis=0), 2, axis=1)  # 96x72
            if name == "b":  # scene a's inputs, already on the depth grid
                truth = resample_labels(truth, spec.height, spec.width)
                rgb = resample_rgb(rgb, spec.height, spec.width)
            write_label_image(rec.truth_path, truth)
            write_ppm(rec.rgb_path, rgb)
        assert _train(tmp_path / name / "manifest.txt", tmp_path / f"{name}.json") == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize(
    "header, truth_id, message",
    [
        ("labels=23", None, "frame0000: unary has 6 labels, config expects 23"),
        ("labels=6", 7, r"frame0000: label id out of range \[0, 6\)"),
    ],
    ids=["unary-label-count", "truth-id"],
)
def test_train_crf_frame_errors_name_the_frame_once(tmp_path, capsys, header, truth_id, message):
    boxes = [MaterialBox((0.9, 0.9, 0.10), (2.3, 1.7, 0.72), 5)]
    manifest = generate_synthetic(small_spec(label_count=6, boxes=boxes), tmp_path / "s")
    manifest.write_text(manifest.read_text().replace("labels=6", header))
    if truth_id is not None:
        from voxcrf.pipeline.formats import write_pgm8

        records, _ = load_manifest(manifest)
        write_pgm8(records[0].truth_path, np.full((36, 48), truth_id))
    assert _train(manifest, tmp_path / "p.json") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and err[0].count("frame0000") == 1
    assert re.search(message, err[0])
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("line", ["fx = 10", "fx =10", "fx= 10"])
def test_manifest_header_pair_with_spaces_names_the_line(tmp_path, line):
    # once read as a frame line: "m.txt:1: frame line has 3 tokens, expected 20 or 21"
    path = tmp_path / "m.txt"
    path.write_text(f"{line}\nfy=10\ncx=1\ncy=1\n")
    with pytest.raises(
        FormatError, match=r"m\.txt:1: header pairs are written key=value with no spaces"
    ):
        load_manifest(path)


def test_cli_metrics_names_the_first_predicted_ignore_pixel(tmp_path, capsys):
    """A predicted IGNORE where the truth is labelled once failed as a bare
    'predicted label out of range'; the one error line names the predicted
    file, the pixel as (row, col) and its value, and nothing is written."""
    from voxcrf.pipeline.formats import write_pgm8

    pred = np.zeros((4, 4), dtype=np.uint8)
    pred[1, 2] = pred[3, 0] = 255
    write_pgm8(tmp_path / "p.pgm", pred)
    write_pgm8(tmp_path / "t.pgm", np.ones((4, 4), dtype=np.uint8))
    out = tmp_path / "report.txt"
    images = [str(tmp_path / "p.pgm"), str(tmp_path / "t.pgm")]
    assert cli_main(["metrics", *images, "--labels", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(tmp_path / "p.pgm") in err
    assert "predicted label 255 at pixel (row 1, col 2) is outside [0, 5)" in err
    assert not out.exists()


def test_load_frame_reads_the_unary_in_the_backend_precision(scene):
    """The lattice backend gets the file's float32, renormalized with float64
    sums; the exact backend gets the float64 unary ``load_unary`` reads."""
    records, config = load_manifest(scene)
    exact = runner.load_frame(records[0], config.labels, "exact")[2]
    lattice = runner.load_frame(records[0], config.labels, "lattice")[2]
    assert (exact.data.dtype, lattice.data.dtype) == (np.float64, np.float32)
    np.testing.assert_array_equal(exact.data, load_unary(records[0].unary_path).data)
    np.testing.assert_array_equal(lattice.data, exact.data.astype(np.float32))


def test_correlated_unary_errors_survive_fusion(tmp_path):
    """With blobs over a quarter of each frame's pixels, whose argmax moves
    together to one wrong label, fused mean IU on a 160x120 scene sits well
    below 1.0 (0.84 measured), where independent flips alone reach 1.0."""
    spec = default_scene_spec(width=160, height=120, frame_count=4, blob_fraction=0.25)
    result = run_pipeline(
        generate_synthetic(spec, tmp_path / "scene"),
        overrides={"voxel_resolution": 0.05},
        out_dir=tmp_path / "out",
    )
    assert result.metrics[2] < 0.95
    with pytest.raises(ConfigError, match=r"blob fraction must be in \[0, 1\), got 1.0"):
        default_scene_spec(blob_fraction=1.0)
