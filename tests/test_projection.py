import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxcrf.crf import LabelDistributionImage
from voxcrf.errors import InputError
from voxcrf.projection import (
    CameraIntrinsics,
    Pose,
    SemanticPointCloud,
    back_project,
    make_semantic_cloud,
    transform_cloud,
)

INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, depth_scale=0.001)


def rotation_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    m = np.eye(4)
    m[:2, :2] = [[c, -s], [s, c]]
    return m


def random_pose(rng):
    # QR of a random matrix gives an orthonormal block
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    m = np.eye(4)
    m[:3, :3] = q
    m[:3, 3] = rng.normal(scale=2.0, size=3)
    return Pose(m)


def test_intrinsics_validation():
    with pytest.raises(InputError):
        CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0)
    with pytest.raises(InputError):
        CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, depth_scale=0.0)


@pytest.mark.parametrize("name", ["fx", "fy", "cx", "cy", "depth_scale"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_intrinsics_reject_non_finite_values(name, bad):
    # fx=inf once collapsed every X to 0; NaN passes every sign check
    values = dict(fx=1.0, fy=1.0, cx=0.0, cy=0.0, depth_scale=0.001)
    with pytest.raises(InputError, match="finite"):
        CameraIntrinsics(**{**values, name: bad})


def test_pose_validation():
    with pytest.raises(InputError):
        Pose(np.zeros((4, 4)))
    bad = np.eye(4)
    bad[0, 0] = 2.0
    with pytest.raises(InputError):
        Pose(bad)
    mirror = np.eye(4)
    mirror[0, 0] = -1.0  # det -1
    with pytest.raises(InputError):
        Pose(mirror)
    Pose(rotation_z(0.3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pose_rejects_non_finite_entries(bad):
    # NaN fails no tolerance comparison, so it must be caught by name
    for entry in ((0, 0), (1, 3), (3, 3)):
        m = np.eye(4)
        m[entry] = bad
        with pytest.raises(InputError, match="finite"):
            Pose(m)
    with pytest.raises(InputError, match="finite"):
        Pose(np.full((4, 4), bad))


def test_back_project_principal_ray():
    depth = np.zeros((480, 640), dtype=np.uint16)
    depth[240, 320] = 1000
    points, valid = back_project(depth, INTR)
    assert valid[240, 320]
    assert points[240, 320] == pytest.approx([0.0, 0.0, 1.0])


def test_back_project_pinhole_formula():
    depth = np.zeros((480, 640), dtype=np.uint16)
    depth[240, 420] = 2000
    points, _ = back_project(depth, INTR)
    assert points[240, 420] == pytest.approx([0.4, 0.0, 2.0])


def test_back_project_zero_is_invalid():
    depth = np.zeros((2, 2), dtype=np.uint16)
    _, valid = back_project(depth, INTR)
    assert not valid.any()


def test_back_projection_inverts_forward_projection(rng):
    depth = rng.integers(100, 5000, size=(20, 30)).astype(np.uint16)
    points, valid = back_project(depth, INTR)
    vv, uu = np.mgrid[0:20, 0:30]
    u_back = points[..., 0] * INTR.fx / points[..., 2] + INTR.cx
    v_back = points[..., 1] * INTR.fy / points[..., 2] + INTR.cy
    assert np.abs(u_back[valid] - uu[valid]).max() < 1e-9
    assert np.abs(v_back[valid] - vv[valid]).max() < 1e-9


def q_image(height, width, labels, rng):
    return LabelDistributionImage(
        height, width, labels, rng.dirichlet(np.ones(labels), size=height * width)
    )


def test_cloud_empty_when_all_depth_invalid(rng):
    depth = np.zeros((3, 4), dtype=np.uint16)
    points, valid = back_project(depth, INTR)
    cloud = make_semantic_cloud(points, valid, q_image(3, 4, 2, rng), np.zeros((3, 4, 3)))
    assert len(cloud) == 0


def test_cloud_single_valid_pixel(rng):
    depth = np.zeros((3, 4), dtype=np.uint16)
    depth[1, 2] = 1500
    q = q_image(3, 4, 3, rng)
    rgb = rng.integers(0, 255, (3, 4, 3))
    points, valid = back_project(depth, INTR)
    cloud = make_semantic_cloud(points, valid, q, rgb)
    assert len(cloud) == 1
    assert cloud.label_dists[0] == pytest.approx(q.data[1 * 4 + 2])
    assert np.array_equal(cloud.colors[0], rgb[1, 2])


def test_cloud_row_major_order(rng):
    depth = np.zeros((2, 2), dtype=np.uint16)
    depth[0, 1] = 100
    depth[1, 0] = 200
    depth[1, 1] = 300
    q = q_image(2, 2, 2, rng)
    points, valid = back_project(depth, INTR)
    cloud = make_semantic_cloud(points, valid, q, np.zeros((2, 2, 3)))
    assert len(cloud) == 3
    expected_rows = [1, 2, 3]  # row-major flat indices of valid pixels
    assert cloud.label_dists == pytest.approx(q.data[expected_rows])
    assert cloud.points[:, 2] == pytest.approx([0.1, 0.2, 0.3])


def test_cloud_dimension_mismatch(rng):
    depth = np.ones((2, 2), dtype=np.uint16)
    points, valid = back_project(depth, INTR)
    with pytest.raises(InputError):
        make_semantic_cloud(points, valid, q_image(2, 3, 2, rng), np.zeros((2, 2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cloud_rejects_non_finite_points(bad):
    points = np.zeros((3, 3))
    points[1, 2] = bad
    with pytest.raises(InputError, match="finite"):
        SemanticPointCloud(points, np.zeros((3, 3)), np.full((3, 2), 0.5))


def test_cloud_rejects_colors_outside_the_byte_range():
    """Colors that are not uint8 must lie in [0, 255]: an out-of-range or
    non-finite value raises ``InputError`` naming its point rather than
    wrapping (300.7 once became 44, -5 became 251)."""
    dists = np.full((2, 2), 0.5)
    for colors, point in (([[1, 2, 3], [300.7, -5, 12]], 1), ([[-5, 0, 0], [0, 0, 0]], 0),
                          ([[0, 0, 0], [0, np.nan, 0]], 1), ([[0, 0, np.inf], [0, 0, 0]], 0)):
        with pytest.raises(InputError, match=f"of point {point} is outside \\[0, 255\\]"):
            SemanticPointCloud(np.zeros((2, 3)), np.array(colors, np.float64), dists)
    cloud = SemanticPointCloud(np.zeros((2, 3)), np.array([[0.0, 255.0, 12.0], [1, 2, 3]]), dists)
    assert cloud.colors.dtype == np.uint8 and cloud.colors.tolist() == [[0, 255, 12], [1, 2, 3]]
    # in range but not whole: a cast would truncate 12.7 to 12 and 0.5 to 0
    for colors, message in (([[12.7, 0.5, 254.9], [0, 0, 0]], "color 12.7 of point 0"),
                            ([[1, 2, 3], [4, 5, 6.5]], "color 6.5 of point 1")):
        with pytest.raises(InputError, match=f"^{message} is not a whole number$"):
            SemanticPointCloud(np.zeros((2, 3)), np.array(colors), dists)
    # the first bad value is named, whichever check it fails
    with pytest.raises(InputError, match="^color 0.5 of point 0 is not a whole number$"):
        SemanticPointCloud(np.zeros((2, 3)), np.array([[0, 0.5, 0], [300, 0, 0]]), dists)


def test_make_semantic_cloud_rejects_colors_outside_the_byte_range(rng):
    """An RGB value outside [0, 255] raises rather than being clipped to
    the byte range."""
    points, valid = back_project(np.ones((2, 2), dtype=np.uint16), INTR)
    rgb = np.zeros((2, 2, 3))
    rgb[1, 0, 2] = 300.0
    with pytest.raises(InputError, match="^color 300.0 of point 2 is outside"):
        make_semantic_cloud(points, valid, q_image(2, 2, 2, rng), rgb)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cloud_keeps_q_rows_in_q_dtype(rng, dtype):
    """A float32 Q's rows stay float32 in the cloud (no float64 copy), and
    float64 ones stay float64; other dtypes are held as float64."""
    points, valid = back_project(np.ones((2, 3), dtype=np.uint16), INTR)
    q = LabelDistributionImage(2, 3, 2, rng.dirichlet(np.ones(2), size=6).astype(dtype))
    cloud = make_semantic_cloud(points, valid, q, np.zeros((2, 3, 3), np.uint8))
    assert cloud.label_dists.dtype == dtype
    np.testing.assert_array_equal(cloud.label_dists, q.data)
    assert transform_cloud(cloud, Pose(np.eye(4))).label_dists.dtype == dtype
    assert cloud.compact()[1].dtype == dtype
    ints = SemanticPointCloud(np.zeros((1, 3)), np.zeros((1, 3), np.uint8), [[1, 0]])
    assert ints.label_dists.dtype == np.float64


@pytest.mark.parametrize(
    "rows, dtype",
    [
        pytest.param(np.array([[0.5 + 0.3j, 0.5]]), "complex128", id="complex"),
        pytest.param(np.array([["0.5", "0.5"]]), "<U3", id="str"),
        pytest.param(np.array([[0.5, None]], dtype=object), "object", id="object"),
    ],
)
def test_cloud_rejects_label_rows_that_are_not_real_numbers(rows, dtype):
    """A complex row lost its imaginary part (with only a ComplexWarning)
    and a string row was parsed into numbers; each now raises InputError
    naming its dtype, as ``crf`` and ``filtering`` do."""
    with pytest.raises(InputError, match=f"^label_dists of dtype {dtype}, expected real numbers$"):
        SemanticPointCloud(np.zeros((1, 3)), np.zeros((1, 3), np.uint8), rows)


def make_cloud(rng, n=20, labels=3):
    return SemanticPointCloud(
        rng.normal(size=(n, 3)),
        rng.integers(0, 255, (n, 3)),
        rng.dirichlet(np.ones(labels), size=n),
    )


def test_transform_identity(rng):
    cloud = make_cloud(rng)
    out = transform_cloud(cloud, Pose(np.eye(4)))
    assert out.points == pytest.approx(cloud.points)


def test_transform_pure_translation(rng):
    cloud = make_cloud(rng)
    m = np.eye(4)
    m[:3, 3] = [1.0, 0.0, 0.0]
    out = transform_cloud(cloud, Pose(m))
    assert out.points[:, 0] == pytest.approx(cloud.points[:, 0] + 1.0)
    assert out.points[:, 1:] == pytest.approx(cloud.points[:, 1:])
    assert np.array_equal(out.label_dists, cloud.label_dists)


def test_transform_yaw_90_degrees():
    cloud = SemanticPointCloud(
        np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 3)), np.array([[1.0]])
    )
    out = transform_cloud(cloud, Pose(rotation_z(np.pi / 2)))
    assert out.points[0] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_transform_round_trip(seed):
    r = np.random.default_rng(seed)
    cloud = make_cloud(r)
    pose = random_pose(r)
    back = transform_cloud(transform_cloud(cloud, pose), Pose(np.linalg.inv(pose.matrix)))
    assert np.abs(back.points - cloud.points).max() < 1e-9


def test_point_count_equals_valid_count(rng):
    depth = rng.integers(0, 3, size=(16, 16)).astype(np.uint16) * 500
    points, valid = back_project(depth, INTR)
    cloud = make_semantic_cloud(
        points, valid, q_image(16, 16, 2, rng), np.zeros((16, 16, 3))
    )
    assert len(cloud) == int(valid.sum())
