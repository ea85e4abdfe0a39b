import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxcrf.crf import IGNORE_LABEL, LabelDistributionImage, LabelImage
from voxcrf.errors import InputError
from voxcrf.fusion import (
    INDEX_LIMIT,
    VoxelMap,
    extract_map,
    integrate_cloud,
    unpack_keys,
    voxel_keys,
)
from voxcrf.metrics import EvalFrame, evaluate_fused_map
from voxcrf.projection import (
    CameraIntrinsics,
    Pose,
    SemanticPointCloud,
    back_project,
    make_semantic_cloud,
    transform_cloud,
)

from _reference import ReferenceVoxelMap, bayes_update


def cloud_at(points, dists, colors=None):
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    dists = np.asarray(dists, dtype=np.float64)
    if colors is None:
        colors = np.full((len(points), 3), 100, dtype=np.uint8)
    return SemanticPointCloud(points, colors, dists)


def test_voxel_index_examples():
    points = np.array([[0.0, 0.0, 0.0], [0.015, -0.005, 0.02], [0.01, 0.0, 0.0]])
    indices = unpack_keys(voxel_keys(points, 0.01)).tolist()
    assert indices == [[0, 0, 0], [1, -1, 2], [1, 0, 0]]  # the last floors at the boundary


def test_voxel_index_errors():
    assert voxel_keys(np.array([[np.nan, 0.0, 0.0]]), 0.01).tolist() == [-1]
    with pytest.raises(InputError):
        voxel_keys(np.zeros((1, 3)), 0.0)


@pytest.mark.parametrize("resolution", [np.inf, np.nan])
def test_non_finite_resolution_is_rejected(resolution):
    # inf once fused every point into one voxel centred at (inf, inf, inf)
    with pytest.raises(InputError, match="finite"):
        voxel_keys(np.zeros((1, 3)), resolution)
    with pytest.raises(InputError, match="finite"):
        VoxelMap(resolution, 3)


def test_bayes_uniform_likelihood_keeps_prior():
    prior = np.array([0.3, 0.5, 0.2])
    post = bayes_update(prior, np.full(3, 1 / 3))
    assert post == pytest.approx(prior, abs=1e-12)


def test_bayes_hand_example():
    post = bayes_update(np.array([0.6, 0.4]), np.array([0.6, 0.4]))
    assert post == pytest.approx([9 / 13, 4 / 13])


def test_bayes_uniform_prior_returns_likelihood():
    post = bayes_update(np.array([0.5, 0.5]), np.array([0.9, 0.1]))
    assert post == pytest.approx([0.9, 0.1], abs=1e-12)


def test_bayes_likelihood_floor_keeps_labels_alive():
    post = bayes_update(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert post[1] > 0


def test_integrate_empty_cloud_unchanged():
    vmap = VoxelMap(0.01, 2)
    integrate_cloud(vmap, cloud_at(np.zeros((0, 3)), np.zeros((0, 2))))
    assert len(vmap) == 0


def test_integrate_first_observation_is_likelihood():
    vmap = VoxelMap(0.01, 2)
    integrate_cloud(vmap, cloud_at([[0.005, 0.005, 0.005]], [[0.7, 0.3]]))
    assert np.exp(vmap.log_posteriors[0]) == pytest.approx([0.7, 0.3])
    assert vmap.observations.tolist() == [1]


def test_integrate_same_distribution_twice():
    vmap = VoxelMap(0.01, 2)
    pt = [[0.005, 0.005, 0.005]]
    integrate_cloud(vmap, cloud_at(pt, [[0.6, 0.4]]))
    integrate_cloud(vmap, cloud_at(pt, [[0.6, 0.4]]))
    assert np.exp(vmap.log_posteriors[0]) == pytest.approx([9 / 13, 4 / 13])
    assert vmap.observations.tolist() == [2]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_integrate_rejects_a_non_finite_likelihood_leaving_the_map_unchanged(bad):
    """A NaN or +inf likelihood once turned its voxel's posterior NaN for
    good, which extract_map then dropped and evaluation scored as label 0."""
    vmap = VoxelMap(0.01, 2)
    integrate_cloud(vmap, cloud_at([[0.005, 0.005, 0.005]], [[0.7, 0.3]]))

    def arrays():
        views = (vmap.keys, vmap.log_posteriors, vmap.observations, vmap.color_sums)
        return [a.tobytes() for a in views]

    before = arrays()
    points = [[0.005, 0.005, 0.005], [0.015, 0.005, 0.005], [0.025, 0.005, 0.005]]
    with pytest.raises(InputError, match="^point 1 has a non-finite likelihood"):
        integrate_cloud(vmap, cloud_at(points, [[0.5, 0.5], [bad, 0.5], [0.5, 0.5]]))
    assert arrays() == before
    assert (vmap.created, vmap.updated) == (1, 0)


def test_float32_cloud_integrates_bit_equal_to_its_float64_copy(rng, tmp_path):
    """A cloud of a float32 Q keeps float32 rows; each row casts to float64
    exactly, so integrating it gives the log posteriors, and the per-frame
    PLY from ``compact``, bit-equal to its float64 copy's."""
    from voxcrf.pipeline.formats import write_ply

    n, labels = 400, 5
    points = rng.uniform(-0.05, 0.05, (n, 3))
    colors = rng.integers(0, 256, (n, 3), dtype=np.uint8)
    dists = rng.dirichlet(np.ones(labels), size=n).astype(np.float32)
    dists[:7] = 0.0  # rows under the likelihood floor
    dists[:7, 0] = 1.0
    c32 = SemanticPointCloud(points, colors, dists)
    c64 = SemanticPointCloud(points, colors, dists.astype(np.float64))
    assert (c32.label_dists.dtype, c64.label_dists.dtype) == (np.float32, np.float64)
    maps = []
    for cloud, name in ((c32, "c32"), (c64, "c64")):
        vmap = VoxelMap(0.02, labels)
        for _ in range(2):  # the second pass updates every voxel
            integrate_cloud(vmap, cloud)
        maps.append(vmap)
        write_ply(tmp_path / f"{name}.ply", cloud.points, cloud.colors, *cloud.compact())
    assert maps[0].log_posteriors.dtype == np.float64
    assert maps[0].keys.tobytes() == maps[1].keys.tobytes()
    assert maps[0].log_posteriors.tobytes() == maps[1].log_posteriors.tobytes()
    assert maps[0].color_sums.tobytes() == maps[1].color_sums.tobytes()
    assert (tmp_path / "c32.ply").read_bytes() == (tmp_path / "c64.ply").read_bytes()


def test_integrate_in_blocks_is_bit_equal_to_one_block(monkeypatch, rng):
    """integrate_cloud forms log-likelihoods and group sums a block of sorted
    points at a time, cut where a voxel group starts.  With blocks of 16
    points, which a 49-point voxel group straddles three times, the map
    after a fresh integrate and an update is byte-equal to one block."""
    from voxcrf import lattice

    labels = 5
    # five small groups (10 points), then 49 points in one voxel (sorted
    # positions 10..58, across block starts 16, 32 and 48), then 60 points
    # over 20 voxels
    small = np.repeat(np.arange(5), [1, 3, 2, 3, 1])
    x = np.r_[small, np.full(49, 5), 6 + rng.integers(0, 20, 60)]
    points = np.column_stack([(x + 0.5) * 0.01, np.full(x.size, 0.005), np.full(x.size, 0.005)])
    order = rng.permutation(x.size)  # the cloud's own order is not key order
    dists = rng.dirichlet(np.ones(labels), size=x.size).astype(np.float32)
    dists[:4] = 0.0  # rows under the likelihood floor
    dists[:4, 1] = 1.0
    colors = rng.integers(0, 256, (x.size, 3), dtype=np.uint8)
    cloud = SemanticPointCloud(points[order], colors, dists)
    seen = SemanticPointCloud(points[order][::3], colors[::3], dists[::3])

    def fused(block):
        monkeypatch.setattr(lattice, "_ROW_BLOCK", block)
        vmap = VoxelMap(0.01, labels)
        for c in (seen, cloud):  # new voxels, then hits and new ones together
            integrate_cloud(vmap, c)
        views = (vmap.keys, vmap.log_posteriors, vmap.observations, vmap.color_sums)
        return [a.tobytes() for a in views], (vmap.created, vmap.updated)

    assert fused(16) == fused(1 << 30)


def test_integrate_peaks_under_three_float32_label_arrays(rng):
    """Integrating a 160x120, L = 23 float32 cloud with about 4 points per
    voxel (G/N = 0.25 voxel groups per point, as a 640x480 frame at 0.01 m)
    peaks under 3 float32 (N, L) arrays above the allocation at entry, into
    a fresh map and into one holding its voxels.  The log-likelihoods are
    formed a block of points at a time, so what remains are float64 (G, L)
    arrays of 2G/N = 0.5 such arrays each: the group sums, and the rows the
    map inserts or adds.  A float64 (N, L) copy of the rows would be 2."""
    import tracemalloc

    n, labels = 160 * 120, 23
    points = np.column_stack([rng.uniform(0, 0.7, (n, 2)), np.full(n, 0.5)])
    colors = rng.integers(0, 256, (n, 3), dtype=np.uint8)
    dists = rng.dirichlet(np.ones(labels), size=n).astype(np.float32)
    cloud = SemanticPointCloud(points, colors, dists)
    integrate_cloud(VoxelMap(0.01, labels), cloud)  # numpy's lazy imports load here
    vmap = VoxelMap(0.01, labels)
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            integrate_cloud(vmap, cloud)
            peaks.append((tracemalloc.get_traced_memory()[1] - entry) / cloud.label_dists.nbytes)
        finally:
            tracemalloc.stop()
    assert 0.2 < len(vmap) / n < 0.3
    assert max(peaks) < 3, peaks


def test_integrate_label_count_mismatch():
    vmap = VoxelMap(0.01, 3)
    with pytest.raises(InputError):
        integrate_cloud(vmap, cloud_at([[0, 0, 0]], [[0.5, 0.5]]))


def test_integrate_mean_color():
    vmap = VoxelMap(0.01, 2)
    pt = [[0.0, 0.0, 0.0]]
    integrate_cloud(vmap, cloud_at(pt, [[0.5, 0.5]], np.array([[10, 20, 30]], dtype=np.uint8)))
    integrate_cloud(vmap, cloud_at(pt, [[0.5, 0.5]], np.array([[30, 40, 50]], dtype=np.uint8)))
    assert vmap.color_sums[0] / vmap.observations[0] == pytest.approx([20, 30, 40])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_order_invariance(seed, count):
    r = np.random.default_rng(seed)
    liks = r.dirichlet(np.ones(3), size=count)
    pt = np.array([[0.005, 0.005, 0.005]])

    def fused(order):
        vmap = VoxelMap(0.01, 3)
        for i in order:
            integrate_cloud(vmap, cloud_at(pt, liks[i : i + 1]))
        return np.exp(vmap.log_posteriors[0])

    base = fused(range(count))
    perm = fused(r.permutation(count))
    assert np.abs(base - perm).max() < 1e-9


def test_convergence_toward_certainty():
    vmap = VoxelMap(0.01, 2)
    pt = [[0.0, 0.0, 0.0]]
    last = 0.5
    for _ in range(40):
        integrate_cloud(vmap, cloud_at(pt, [[0.7, 0.3]]))
        current = float(np.exp(vmap.log_posteriors[0])[0])
        assert current >= last - 1e-12
        last = current
    assert last > 0.999


def test_extract_empty_map():
    rows = extract_map(VoxelMap(0.01, 2))
    assert len(rows) == 0
    assert rows.centers.shape == (0, 3) and rows.colors.shape == (0, 3)


def test_extract_threshold_and_center():
    vmap = VoxelMap(0.01, 2)
    integrate_cloud(vmap, cloud_at([[0.011, 0.022, 0.033]], [[0.9, 0.1]]))
    rows = extract_map(vmap, min_observations=1, min_confidence=0.5)
    assert len(rows) == 1
    assert rows.labels.tolist() == [0]
    assert rows.confidences[0] == pytest.approx(0.9)
    assert rows.centers[0] == pytest.approx([0.015, 0.025, 0.035])


def test_extract_confidence_exclusion():
    vmap = VoxelMap(0.01, 2)
    integrate_cloud(vmap, cloud_at([[0.0, 0.0, 0.0]], [[0.52, 0.48]]))
    assert len(extract_map(vmap, min_confidence=0.6)) == 0
    assert len(extract_map(vmap, min_confidence=0.5)) == 1


def test_extract_min_observations():
    vmap = VoxelMap(0.01, 2)
    integrate_cloud(vmap, cloud_at([[0.0, 0.0, 0.0]], [[0.9, 0.1]]))
    assert len(extract_map(vmap, min_observations=2)) == 0


@pytest.mark.parametrize("thresholds", [(np.nan, 0.0), (1, np.nan), (-1, 0.0), (1, -0.5)])
def test_extract_rejects_bad_thresholds(thresholds):
    vmap = VoxelMap(0.01, 2)
    integrate_cloud(vmap, cloud_at([[0.0, 0.0, 0.0]], [[0.9, 0.1]]))
    with pytest.raises(InputError, match="thresholds"):
        extract_map(vmap, *thresholds)


def test_extract_tie_breaks_to_smallest_label():
    vmap = VoxelMap(0.01, 2)
    integrate_cloud(vmap, cloud_at([[0.0, 0.0, 0.0]], [[0.5, 0.5]]))
    rows = extract_map(vmap)
    assert rows.labels.tolist() == [0]


def test_stored_distributions_normalized_after_long_runs(rng):
    vmap = VoxelMap(0.01, 4)
    pt = [[0.0, 0.0, 0.0]]
    for _ in range(200):
        integrate_cloud(vmap, cloud_at(pt, rng.dirichlet(np.ones(4), size=1)))
    dist = np.exp(vmap.log_posteriors[0])
    assert dist.sum() == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.isfinite(vmap.log_posteriors))


def test_packable_range_boundary():
    lim = INDEX_LIMIT
    edge = voxel_keys(np.array([[lim - 0.5, -lim, 0.0]]), 1.0)
    assert unpack_keys(edge).tolist() == [[lim - 1, -lim, 0]]
    outside = [[lim, 0.0, 0.0], [0.0, -lim - 0.5, 0.0], [0.0, 0.0, 1e17 / 0.01]]
    assert voxel_keys(np.array(outside), 1.0).tolist() == [-1, -1, -1]

    vmap = VoxelMap(1.0, 2)
    edges = [[lim - 0.5, -lim, -lim], [-lim, lim - 0.5, lim - 0.5]]
    integrate_cloud(vmap, cloud_at(edges, [[0.7, 0.3], [0.4, 0.6]]))
    assert unpack_keys(vmap.keys).tolist() == [[-lim, lim - 1, lim - 1], [lim - 1, -lim, -lim]]
    for point in outside:
        with pytest.raises(InputError):
            integrate_cloud(vmap, cloud_at([[0.0, 0.0, 0.0], point], [[0.5, 0.5]] * 2))
    assert len(vmap) == 2  # a rejected cloud leaves the map unchanged
    with pytest.raises(InputError):  # the formerly aliased x = 1e17 at 1 cm
        integrate_cloud(VoxelMap(0.01, 2), cloud_at([[1e17, 0.0, 0.0]], [[0.5, 0.5]]))

    # evaluation: a 6x8 frame at 0.5 m depth straddling x = lim; the left four
    # columns fall in the mapped voxel (lim - 1, -lim, -lim), the right four
    # outside the packable range, where they count as missing
    pose = np.eye(4)
    pose[:3, 3] = [lim, -lim + 0.5, -lim]
    depth = np.full((6, 8), 500, dtype=np.uint16)
    truth = LabelImage(6, 8, np.zeros(48, dtype=np.int64))
    result = evaluate_fused_map(vmap, [EvalFrame(truth, depth, INTR_SMALL, Pose(pose))])
    assert (result.hits, result.missing) == (24, 24)
    assert result.cm.counts.tolist() == [[24, 0], [0, 0]]


def test_created_and_updated_counters():
    first = [[0.5, 0.5, 0.5], [0.6, 0.5, 0.5], [1.5, 0.5, 0.5], [2.5, 0.5, 0.5]]
    second = [[1.5, 0.5, 0.5], [2.5, 0.5, 0.5], [2.6, 0.5, 0.5], [3.5, 0.5, 0.5], [-0.5, 0, 0]]
    seq = integrate_cloud(VoxelMap(1.0, 2), cloud_at(first, [[0.6, 0.4]] * 4))
    assert (seq.created, seq.updated) == (3, 0)  # two points share voxel (0, 0, 0)
    integrate_cloud(seq, cloud_at(second, [[0.3, 0.7]] * 5))
    assert (seq.created, seq.updated) == (5, 2)  # voxels (1, 0, 0) and (2, 0, 0) overlap
    with pytest.raises(AttributeError):
        seq.created = 0
    with pytest.raises(ValueError):
        seq.observations[0] = 7


INTR_SMALL = CameraIntrinsics(fx=6.0, fy=6.0, cx=3.5, cy=2.5)


def random_pose(r):
    q, upper = np.linalg.qr(r.normal(size=(3, 3)))
    q = q * np.sign(np.diag(upper))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    m = np.eye(4)
    m[:3, :3] = q
    m[:3, 3] = r.uniform(-0.3, 0.3, size=3)
    return Pose(m)


def random_frame(r, labels):
    """(world cloud, eval frame) from a 6x8 random depth image and pose."""
    depth = r.integers(300, 900, size=(6, 8)).astype(np.uint16)
    depth[r.random((6, 8)) < 0.15] = 0
    truth = r.integers(0, labels, size=48)
    truth[r.random(48) < 0.1] = IGNORE_LABEL
    alpha = r.choice([0.05, 1.0])  # sharp distributions reach the likelihood floor
    q = LabelDistributionImage(6, 8, labels, r.dirichlet(np.full(labels, alpha), size=48))
    points, valid = back_project(depth, INTR_SMALL)
    pose = random_pose(r)
    rgb = r.integers(0, 256, size=(6, 8, 3))
    cloud = transform_cloud(make_semantic_cloud(points, valid, q, rgb), pose)
    return cloud, EvalFrame(LabelImage(6, 8, truth), depth, INTR_SMALL, pose)


def reference_eval_points(frame):
    """World points and truth labels of the kept pixels, computed with the
    same expressions as ``evaluate_fused_map`` so voxel boundaries agree."""
    points, valid = back_project(frame.depth, frame.intrinsics)
    truth = frame.truth.data.reshape(frame.depth.shape)
    keep = valid & (truth != IGNORE_LABEL)
    r = frame.pose.matrix[:3, :3]
    return points[keep] @ r.T + frame.pose.matrix[:3, 3], truth[keep]


def assert_map_equals_reference(vmap, ref):
    keys = sorted(ref.cells)
    assert unpack_keys(vmap.keys).tolist() == [list(k) for k in keys]
    assert vmap.observations.tolist() == [ref.cells[k][1] for k in keys]
    assert np.array_equal(vmap.color_sums, np.array([ref.cells[k][2] for k in keys]))
    ref_dist = np.exp(np.array([ref.cells[k][0] for k in keys]))
    assert np.abs(np.exp(vmap.log_posteriors) - ref_dist).max() <= 1e-12
    assert np.array_equal(vmap.hard_labels(), np.argmax(ref_dist, axis=1))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_array_map_matches_per_point_reference(seed):
    r = np.random.default_rng(seed)
    labels = int(r.integers(2, 6))
    res = float(r.choice([0.05, 0.1, 0.25]))
    min_obs = int(r.integers(0, 4))
    min_conf = float(r.uniform(0.0, 0.9))

    # a dense cluster around the origin: many points per voxel, negative coordinates
    cluster = SemanticPointCloud(
        r.uniform(-2 * res, 2 * res, size=(120, 3)),
        r.integers(0, 256, size=(120, 3)),
        r.dirichlet(np.ones(labels), size=120),
    )
    clouds = [cluster]
    eval_frames = []
    for _ in range(int(r.integers(2, 5))):
        cloud, frame = random_frame(r, labels)
        clouds.append(cloud)
        eval_frames.append(frame)
    eval_frames.append(random_frame(r, labels)[1])  # not fused: mixes hits and misses

    vmap = VoxelMap(res, labels)
    ref = ReferenceVoxelMap(res, labels)
    for cloud in clouds:
        integrate_cloud(vmap, cloud)
        ref.integrate(cloud.points, cloud.label_dists, cloud.colors)
    assert_map_equals_reference(vmap, ref)

    rows = extract_map(vmap, min_obs, min_conf)
    ref_rows = ref.extract(min_obs, min_conf)
    assert len(rows) == len(ref_rows)
    if ref_rows:
        centers, ref_labels, confs, colors = (np.array(c) for c in zip(*ref_rows))
        assert np.array_equal(rows.centers, centers)
        assert np.array_equal(rows.labels, ref_labels)
        assert np.array_equal(rows.colors, colors)
        assert np.abs(rows.confidences - confs).max() <= 1e-12

    result = evaluate_fused_map(vmap, eval_frames)
    counts = np.zeros((labels, labels), dtype=np.int64)
    hits = missing = 0
    for frame in eval_frames:
        c, h, m = ref.evaluate(*reference_eval_points(frame))
        counts += c
        hits += h
        missing += m
    assert np.array_equal(result.cm.counts, counts)
    assert (result.hits, result.missing) == (hits, missing)
