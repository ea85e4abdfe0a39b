import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxcrf.errors import InputError
from voxcrf.filtering import plan_filter

from _reference import reference_messages


@pytest.fixture(params=["exact", "lattice"])
def backend(request):
    return request.param


def test_single_point_has_unit_normalizer_and_zero_messages(backend):
    plan = plan_filter(np.array([[1.0, 2.0, 3.0]]), backend)
    assert plan.normalizers == pytest.approx([1.0])
    v = np.array([[5.0, -2.0]])
    assert np.all(plan.apply(v) == 0.0)
    assert np.all(plan.apply_transpose(v) == 0.0)
    out = np.array([[1.5, -0.25]])
    plan.accumulate(v, 0.7, out)
    np.testing.assert_array_equal(out, [[1.5, -0.25]])


def test_identical_pair_kernel_value_is_one():
    plan = plan_filter(np.zeros((2, 4)), "exact")
    # k(f, f) = exp(0) = 1 before self-exclusion, so each normalizer is 1
    assert plan.normalizers == pytest.approx([1.0, 1.0])


def test_unit_distance_kernel_value():
    plan = plan_filter(np.array([[0.0], [1.0]]), "exact")
    assert plan.normalizers == pytest.approx([np.exp(-0.5)] * 2)


def test_two_point_messages_swap_values(backend):
    # with one neighbor each, the normalized message is the neighbor's value
    plan = plan_filter(np.array([[0.0], [1.0]]), backend)
    out = plan.apply(np.array([[1.0], [0.0]]))
    assert out.ravel() == pytest.approx([0.0, 1.0], abs=1e-9)


def test_constant_field_is_fixed_point(backend, rng):
    feats = rng.uniform(0, 5, (40, 3))
    plan = plan_filter(feats, backend)
    out = plan.apply(np.full((40, 2), 3.25))
    assert out == pytest.approx(np.full((40, 2), 3.25), abs=1e-9)


def test_matches_reference_double_sum(rng):
    feats = rng.uniform(0, 4, (30, 2))
    vals = rng.normal(size=(30, 3))
    out = plan_filter(feats, "exact").apply(vals)
    assert np.abs(out - reference_messages(feats, vals)).max() < 1e-12


# above _MIRROR_BLOCK and not a multiple of it, n reaches the walk's
# transposed term (each block's columns serving the rows below it)
@pytest.mark.parametrize("n", [60, 200])
def test_exact_block_walk_matches_cached_path(rng, n):
    import voxcrf.filtering as filtering

    feats = rng.uniform(0, 4, (n, 2))
    vals = rng.normal(size=(n, 2))
    small = plan_filter(feats, "exact").apply(vals)
    old = filtering._KERNEL_CACHE_LIMIT
    filtering._KERNEL_CACHE_LIMIT = 10  # force the block walk
    try:
        walked = plan_filter(feats, "exact").apply(vals)
    finally:
        filtering._KERNEL_CACHE_LIMIT = old
    assert np.abs(small - walked).max() < 1e-12


@pytest.mark.parametrize("n", [40, 150])
def test_exact_block_walk_keeps_isolated_points(rng, n):
    # far-apart points have tiny kernel mass: the block walk must not
    # lose it by cancelling k(f_i, f_i) = 1 against itself
    import voxcrf.filtering as filtering

    feats = rng.uniform(0, 60, (n, 2))
    vals = rng.normal(size=(n, 2))
    cached = plan_filter(feats, "exact")
    old = filtering._KERNEL_CACHE_LIMIT
    filtering._KERNEL_CACHE_LIMIT = 10  # force the block walk
    try:
        walked = plan_filter(feats, "exact")
    finally:
        filtering._KERNEL_CACHE_LIMIT = old
    assert np.any((cached.normalizers > 1e-12) & (cached.normalizers < 1e-6))
    np.testing.assert_allclose(walked.normalizers, cached.normalizers, rtol=1e-12)
    np.testing.assert_allclose(walked.apply(vals), cached.apply(vals), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        walked.apply_transpose(vals), cached.apply_transpose(vals), rtol=1e-12, atol=1e-12
    )


def _grid_features(xs, ys):
    """Row-major product grid: x = tile(xs, h), y = repeat(ys, w), as an
    image's spatial features are."""
    return np.column_stack([np.tile(xs, len(ys)), np.repeat(ys, len(xs))])


def _grid_axes_case(kind, rng):
    h, w = (int(v) for v in rng.integers(2, 40, 2))
    if kind == "random":
        return np.arange(w) / 3.0, np.arange(h) / 3.0
    if kind == "single_row":
        return np.arange(50) / 3.0, np.zeros(1)
    if kind == "single_column":
        return np.zeros(1), np.arange(50) / 3.0
    if kind == "unit_spacing":
        return np.arange(w) + 0.5, np.arange(h) - 7.0
    if kind == "spacing_5":  # off-diagonal mass about 1e-6 per neighbor
        return np.arange(w) * 5.0, np.arange(h) * 5.0
    # uneven spacing, some coordinates far apart
    return np.cumsum(rng.uniform(0.05, 4.0, w)), np.cumsum(rng.uniform(0.05, 4.0, h))


@pytest.mark.parametrize(
    "kind", ["random", "single_row", "single_column", "unit_spacing", "spacing_5", "uneven"]
)
def test_exact_grid_plan_matches_dense_kernel(kind, rng):
    """A product grid takes the Kronecker path, and its normalizers, apply
    and apply_transpose match the dense self-excluded kernel."""
    from voxcrf.filtering import NORMALIZER_FLOOR, _kernel_rows

    feats = _grid_features(*_grid_axes_case(kind, rng))
    n = len(feats)
    plan = plan_filter(feats, "exact")
    assert plan._factors is not None and plan._kernel is None
    kernel = _kernel_rows(feats, 0, n)
    d = np.maximum(kernel.sum(axis=1), NORMALIZER_FLOOR)
    if kind == "spacing_5":
        assert d.max() < 2e-5  # four neighbors at exp(-12.5)
    np.testing.assert_allclose(plan.normalizers, d, rtol=1e-13, atol=0)
    for shape in ((n,), (n, 4)):
        v = rng.normal(size=shape)
        dd = d if len(shape) == 1 else d[:, None]
        for out, expected in (
            (plan.apply(v), (kernel @ v) / dd),
            (plan.apply_transpose(v), kernel @ (v / dd)),
        ):
            assert out.shape == shape
            assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("n, dim", [(200, 5), (64, 5), (130, 2), (2, 3)])
def test_exact_mirrored_kernel_is_bit_equal_to_row_build(n, dim, rng):
    """The dense numerator N, built against the columns right of each block
    and mirrored, equals a build one row at a time bit for bit."""
    from voxcrf.filtering import NORMALIZER_FLOOR, _kernel_rows

    feats = rng.uniform(0, 4, (n, dim))
    plan = plan_filter(feats, "exact")
    assert plan._kernel is not None
    rows = np.vstack([_kernel_rows(feats, i, i + 1) for i in range(n)])
    d = np.maximum(rows.sum(axis=1), NORMALIZER_FLOOR)
    np.testing.assert_array_equal(plan.normalizers, d)
    np.testing.assert_array_equal(plan._kernel, rows)


def test_exact_forms_agree_on_a_grid(rng, monkeypatch):
    """The grid, mirrored dense and block-walk forms of N give one operator
    on the same product-grid features."""
    from voxcrf import filtering

    feats = _grid_features(np.arange(13) / 2.0, np.arange(9) / 3.0)
    grid = plan_filter(feats, "exact")
    with monkeypatch.context() as m:
        m.setattr(filtering, "_grid_axes", lambda features: None)
        dense = plan_filter(feats, "exact")
        m.setattr(filtering, "_KERNEL_CACHE_LIMIT", 10)
        walked = plan_filter(feats, "exact")
    assert grid._factors is not None and grid._kernel is None
    assert dense._factors is None and dense._kernel is not None
    assert walked._factors is None and walked._kernel is None
    v = rng.normal(size=(len(feats), 3))
    for plan in (dense, walked):
        np.testing.assert_allclose(plan.normalizers, grid.normalizers, rtol=1e-13, atol=0)
        for out, expected in (
            (plan.apply(v), grid.apply(v)),
            (plan.apply_transpose(v), grid.apply_transpose(v)),
        ):
            assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()


def test_exact_large_plan_forms_each_kernel_entry_once(rng, monkeypatch):
    """Above _KERNEL_CACHE_LIMIT the build and each apply walk N's upper
    triangle: at most N(N + 64) / 2 kernel entries each, not N^2, and the
    same operator as the kept kernel."""
    from voxcrf import filtering

    n = 300  # not a multiple of _MIRROR_BLOCK
    feats = rng.uniform(0, 4, (n, 5))
    v = rng.normal(size=(n, 3))
    kept = plan_filter(feats, "exact")
    formed = []
    kernel_rows = filtering._kernel_rows

    def counting(*args):
        rows = kernel_rows(*args)
        formed.append(rows.size)
        return rows

    monkeypatch.setattr(filtering, "_KERNEL_CACHE_LIMIT", 10)
    monkeypatch.setattr(filtering, "_kernel_rows", counting)
    walked = plan_filter(feats, "exact")
    assert walked._kernel is None and walked._factors is None
    built = sum(formed)
    formed.clear()
    out = walked.apply(v)
    bound = n * (n + filtering._MIRROR_BLOCK) / 2
    assert 0 < built <= bound and 0 < sum(formed) <= bound, (built, sum(formed), n * n)
    np.testing.assert_allclose(walked.normalizers, kept.normalizers, rtol=1e-13, atol=0)
    for out, expected in (
        (out, kept.apply(v)),
        (walked.apply_transpose(v), kept.apply_transpose(v)),
    ):
        assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()


def test_exact_grid_path_only_for_product_grids(rng):
    """Only 2-D features in row-major product grid order skip the dense
    kernel: a permuted or column-major grid, random 2-D points and 5-D
    features keep it."""
    from voxcrf.crf import CrfParams, build_features

    features = build_features(rng.uniform(0, 255, (12, 9, 3)), CrfParams())
    assert plan_filter(features.spatial, "exact")._factors is not None
    assert plan_filter(features.spatial[::-1], "exact")._factors is not None  # xs, ys reversed
    for feats in (
        features.spatial[rng.permutation(len(features.spatial))],
        features.spatial.reshape(12, 9, 2).transpose(1, 0, 2).reshape(-1, 2),
        rng.uniform(0, 5, (108, 2)),
        features.bilateral,
    ):
        plan = plan_filter(feats, "exact")
        assert plan._factors is None and plan._kernel is not None


def test_exact_grid_factors_stay_within_the_dense_limit(monkeypatch):
    """A grid side longer than _KERNEL_CACHE_LIMIT would make a dense 1-D
    factor larger than the dense kernel; such a grid takes the block walk."""
    from voxcrf import filtering

    monkeypatch.setattr(filtering, "_KERNEL_CACHE_LIMIT", 10)
    for xs, ys in ((np.arange(11.0), np.arange(2.0)), (np.arange(2.0), np.arange(11.0))):
        plan = plan_filter(_grid_features(xs, ys), "exact")
        assert plan._factors is None and plan._kernel is None
    assert plan_filter(_grid_features(np.arange(10.0), np.arange(10.0)), "exact")._factors is not None


def test_exact_grid_plan_allocates_no_dense_kernel(rng):
    """A 96x72 image's spatial plan, above the dense-kernel limit, builds
    and applies without any N x N (or N x block) array."""
    import tracemalloc

    from voxcrf.crf import CrfParams, build_features
    from voxcrf.filtering import _KERNEL_CACHE_LIMIT, _kernel_rows

    feats = build_features(np.zeros((72, 96, 3)), CrfParams()).spatial
    n = len(feats)
    assert n > _KERNEL_CACHE_LIMIT
    v = rng.normal(size=(n, 4))
    tracemalloc.start()
    try:
        plan = plan_filter(feats, "exact")
        out, out_t = plan.apply(v), plan.apply_transpose(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * v.nbytes + (1 << 20), f"peaked at {peak / 2**20:.1f} MiB"
    rows = _kernel_rows(feats, 0, 100)  # spot-check the first rows
    np.testing.assert_allclose(plan.normalizers[:100], rows.sum(axis=1), rtol=1e-13)
    expected = rows @ v / plan.normalizers[:100, None]
    assert np.abs(out[:100] - expected).max() <= 1e-13 * np.abs(expected).max()
    # the kernel is symmetric, so M^T g's first rows read N's first rows too
    expected_t = rows @ (v / plan.normalizers[:, None])
    assert np.abs(out_t[:100] - expected_t).max() <= 1e-13 * np.abs(expected_t).max()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-3, 3), st.floats(-3, 3))
def test_linearity(seed, a, b):
    r = np.random.default_rng(seed)
    feats = r.uniform(0, 5, (25, 3))
    u = r.normal(size=(25, 2))
    v = r.normal(size=(25, 2))
    for backend, tol in (("exact", 1e-12), ("lattice", 1e-10)):
        plan = plan_filter(feats, backend)
        lhs = plan.apply(a * u + b * v)
        rhs = a * plan.apply(u) + b * plan.apply(v)
        assert np.abs(lhs - rhs).max() < tol * max(1.0, abs(a) + abs(b))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exact_kernel_symmetry_via_adjoint(seed):
    # <N u, v> == <u, N v> for the symmetric exact kernel, N = D apply
    r = np.random.default_rng(seed)
    feats = r.uniform(0, 5, (30, 2))
    u = r.normal(size=(30, 2))
    v = r.normal(size=(30, 2))
    plan = plan_filter(feats, "exact")
    d = plan.normalizers[:, None]
    s1 = float((plan.apply(u) * d * v).sum())
    s2 = float((u * plan.apply(v) * d).sum())
    assert s1 == pytest.approx(s2, rel=1e-10, abs=1e-10)


def test_apply_transpose_is_exact_adjoint(backend, rng):
    feats = rng.uniform(0, 6, (50, 3))
    plan = plan_filter(feats, backend)
    u = rng.normal(size=(50, 2))
    g = rng.normal(size=(50, 2))
    lhs = float((plan.apply(u) * g).sum())
    rhs = float((u * plan.apply_transpose(g)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_lattice_approximates_exact_messages(rng):
    from conftest import random_flat_rgb

    h = w = 32
    rgb, _ = random_flat_rgb(rng, h, w)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    feats = np.column_stack(
        [xx.ravel() / 61.0, yy.ravel() / 61.0, rgb.reshape(-1, 3) / 11.0]
    )
    vals = rng.uniform(0, 1, (h * w, 3))
    exact = plan_filter(feats, "exact").apply(vals)
    lattice = plan_filter(feats, "lattice").apply(vals)
    rel = np.abs(lattice - exact).max() / np.abs(exact).max()
    assert rel <= 5e-2


def test_lattice_coordinates_past_the_bound_fail(rng):
    """Near 2^53 the lattice's float64 residuals lose their fractional part,
    which once gave wrong messages and then an IndexError.  Just inside the
    bound the lattice still matches the exact messages; just outside, the
    build raises InputError naming the bound."""
    from voxcrf.lattice import _embed

    limit = 2.0**48
    clusters = [c + rng.uniform(0, 2, (80, 2)) for c in rng.uniform(0, 30, (5, 2))]
    base = np.vstack(clusters)
    step = np.abs(_embed(np.ones((1, 2)))).max()  # per unit shift along (1, 1)
    reach = np.abs(_embed(base)).max()
    vals = rng.uniform(0, 1, (len(base), 3))
    inside = base + (0.999 * limit - reach) / step
    assert 0.99 * limit < np.abs(_embed(inside)).max() <= limit
    exact = plan_filter(inside, "exact").apply(vals)
    lattice = plan_filter(inside, "lattice").apply(vals)
    assert np.abs(lattice - exact).max() / np.abs(exact).max() <= 5e-2
    outside = base + (1.001 * limit + reach) / step
    with pytest.raises(InputError, match=r"past the bound 2\^48 .* raise the theta scales"):
        plan_filter(outside, "lattice")


def test_plan_reusable_across_channel_counts(backend, rng):
    feats = rng.uniform(0, 5, (20, 2))
    plan = plan_filter(feats, backend)
    assert plan.apply(rng.normal(size=(20, 1))).shape == (20, 1)
    assert plan.apply(rng.normal(size=(20, 7))).shape == (20, 7)
    assert plan.apply(rng.normal(size=20)).shape == (20,)


def test_normalizers_strictly_positive(backend, rng):
    feats = rng.uniform(0, 50, (30, 5))  # widely spread points
    plan = plan_filter(feats, backend)
    assert np.all(plan.normalizers > 0)


def test_input_validation(backend):
    with pytest.raises(InputError):
        plan_filter(np.array([[np.nan, 1.0]]), backend)
    with pytest.raises(InputError):
        plan_filter(np.zeros((0, 3)), backend)
    plan = plan_filter(np.zeros((4, 2)), backend)
    with pytest.raises(InputError):
        plan.apply(np.zeros((5, 2)))
    with pytest.raises(InputError):
        plan_filter(np.zeros((4, 2)), "magic")


def _best_time(fn, repeats=3):
    """Best of ``repeats`` process CPU times, so other processes loading the
    machine do not enter the ratios."""
    import time

    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        fn()
        best = min(best, time.process_time() - start)
    return best


def test_complexity_scaling(rng):
    """Going 32^2 -> 64^2 quadruples N: exact time grows ~16x (quadratic,
    4x per N-doubling) while the lattice grows well under 16x (less than 4x
    per N-doubling, asymptotically near-linear)."""
    from conftest import random_flat_rgb

    def instance(side):
        rgb, _ = random_flat_rgb(rng, side, side)
        yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
        feats = np.column_stack(
            [xx.ravel() / 61.0, yy.ravel() / 61.0, rgb.reshape(-1, 3) / 11.0]
        )
        vals = rng.uniform(0, 1, (side * side, 4))
        return feats, vals

    f32, v32 = instance(32)
    f64, v64 = instance(64)
    t_exact_32 = _best_time(lambda: plan_filter(f32, "exact").apply(v32))
    t_exact_64 = _best_time(lambda: plan_filter(f64, "exact").apply(v64))
    ratio_exact = t_exact_64 / t_exact_32
    assert 8.0 <= ratio_exact <= 32.0, f"exact scaling ratio {ratio_exact:.1f}"

    f128, v128 = instance(128)
    t_lat_64 = _best_time(lambda: plan_filter(f64, "lattice").apply(v64))
    t_lat_128 = _best_time(lambda: plan_filter(f128, "lattice").apply(v128))
    ratio_lattice = t_lat_128 / t_lat_64
    assert ratio_lattice < 16.0, f"lattice scaling ratio {ratio_lattice:.1f}"
    assert ratio_lattice < ratio_exact, "lattice must scale better than exact"


def test_plan_counters(rng):
    sparse_feats = rng.uniform(0, 5, (40, 3))  # little neighbor mass: starved
    plan = plan_filter(sparse_feats, "lattice")
    assert plan.vertices == plan._lattice.num_vertices > 0
    assert plan.starved == len(plan._starved) > 0
    assert plan.fallback_nnz == plan._fallback.nnz > 0

    yy, xx = np.mgrid[0:20, 0:20].astype(np.float64)
    grid = plan_filter(np.column_stack([xx.ravel(), yy.ravel()]) / 3.0, "lattice")
    assert grid.vertices > 0
    assert (grid.starved, grid.fallback_nnz) == (0, 0)

    for plan in (plan_filter(sparse_feats, "exact"), plan_filter(sparse_feats[:1], "lattice")):
        assert (plan.vertices, plan.starved, plan.fallback_nnz) == (0, 0, 0)
    for name in ("vertices", "starved", "fallback_nnz"):
        with pytest.raises(AttributeError):
            setattr(grid, name, 1)


def test_fallback_memory_follows_the_budget(monkeypatch):
    """Frame 0 of a strongly textured scene starves many points.  The plan
    build allocates for the fallback entries the budget keeps, not for every
    starved point's 7-sigma ball."""
    import tracemalloc

    from voxcrf import filtering
    from voxcrf.crf import CrfParams, build_features
    from voxcrf.lattice import PermutohedralLattice
    from voxcrf.pipeline.labels import label_palette
    from voxcrf.pipeline.synthetic import (
        default_scene_spec,
        orbit_poses,
        render_frame,
        shade_labels,
    )

    spec = default_scene_spec(width=80, height=60, jitter=60.0)
    _, labels = render_frame(spec, orbit_poses(spec)[0])
    palette = label_palette(spec.label_count)
    rgb = shade_labels(labels, palette, spec.jitter, np.random.default_rng(spec.seed))
    feats = build_features(rgb, CrfParams()).bilateral
    lat = PermutohedralLattice(feats)
    mass = lat.filter(np.ones(len(feats))) - lat.diagonal
    under = np.count_nonzero(mass < filtering.STARVED_THRESHOLD_HIGH_DIM)
    del lat, mass

    limit = 1 << 16
    monkeypatch.setattr(filtering, "FALLBACK_NNZ_LIMIT", limit)
    tracemalloc.start()
    try:
        plan = plan_filter(feats, "lattice")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < plan.starved < under
    assert plan.fallback_nnz < limit
    assert peak < 32 << 20, f"plan build peaked at {peak / 2**20:.1f} MiB"


def test_starved_balls_are_counted_only_until_the_budget_is_full(monkeypatch):
    """Every point is starved, and the budget keeps few of them.  The scan
    forms the balls of a worst-first prefix in blocks of 1, 2, 4, ... rows,
    so it visits at most one block past the kept rows (about twice their
    count), not the balls of every starved point."""
    from voxcrf import filtering
    from voxcrf.lattice import PermutohedralLattice

    visited = []
    ball_pairs = filtering._ball_pairs

    def counting(features, screen, rows, margin):
        visited.append(len(rows))
        return ball_pairs(features, screen, rows, margin)

    monkeypatch.setattr(filtering, "_ball_pairs", counting)
    monkeypatch.setattr(filtering, "FALLBACK_NNZ_LIMIT", 64)
    feats = np.random.default_rng(0).uniform(0.0, 400.0, (2000, 3))  # isolated points
    lat = PermutohedralLattice(feats)
    mass = lat.filter(np.ones(len(feats))) - lat.diagonal
    assert np.all(mass < filtering.STARVED_THRESHOLD_HIGH_DIM)

    plan = plan_filter(feats, "lattice")
    assert 0 < plan.starved and plan.fallback_nnz < 64
    assert sum(visited) - plan.starved <= visited[-1] <= plan.starved + 1
    assert sum(visited) <= 2 * plan.starved + 1
    assert sum(visited) < len(feats) // 10


def _starved_mass(feats):
    from voxcrf.lattice import PermutohedralLattice

    lat = PermutohedralLattice(feats)
    return lat.filter(np.ones(len(feats))) - lat.diagonal


def _frame0_bilateral(**spec_kwargs):
    """Bilateral features of frame 0 of the default scene made with
    ``spec_kwargs``, shaded as ``generate_synthetic`` shades it."""
    from voxcrf.crf import CrfParams, build_features
    from voxcrf.pipeline.labels import label_palette
    from voxcrf.pipeline.synthetic import (
        default_scene_spec,
        orbit_poses,
        render_frame,
        shade_labels,
    )

    spec = default_scene_spec(**spec_kwargs)
    _, labels = render_frame(spec, orbit_poses(spec)[0])
    palette = label_palette(spec.label_count)
    rgb = shade_labels(labels, palette, spec.jitter, np.random.default_rng(spec.seed))
    return build_features(rgb, CrfParams()).bilateral


# frame 0 of the 12-frame 160x120 orbit scene (seed 0) has 16 starved points;
# colour jitter 60 starves many
_ORBIT_FRAME = dict(seed=0, frame_count=12, width=160, height=120, label_count=23)
_TEXTURED_FRAME = dict(width=80, height=60, jitter=60.0)


@pytest.mark.parametrize("case", ["orbit", "all_starved_budget", "textured", "textured_budget"])
def test_fallback_rows_match_kd_tree_reference(case, rng, monkeypatch):
    """The screened scan keeps the same starved points, rows, columns and
    values as the k-d tree form it replaced, bit for bit, so the
    normalizers are equal too: on an orbit frame with a few starved points,
    with every point starved and a budget that keeps some, and on a
    textured frame with the full and a reduced budget."""
    from voxcrf import filtering

    from _reference import reference_fallback

    limit = {"all_starved_budget": 400, "textured_budget": 1 << 16}.get(case)
    if limit is not None:
        monkeypatch.setattr(filtering, "FALLBACK_NNZ_LIMIT", limit)
    if case == "all_starved_budget":
        feats = rng.uniform(0, 5, (40, 3))
    else:
        feats = _frame0_bilateral(**(_ORBIT_FRAME if case == "orbit" else _TEXTURED_FRAME))
    plan = plan_filter(feats, "lattice")
    starved, normalizers, fallback = reference_fallback(
        feats,
        _starved_mass(feats),
        filtering.STARVED_THRESHOLD_HIGH_DIM,
        filtering.FALLBACK_RADIUS,
        filtering.FALLBACK_NNZ_LIMIT,
    )
    assert plan.starved > 0
    if limit is not None:
        assert plan.past_budget > 0
    np.testing.assert_array_equal(plan._starved, starved)
    np.testing.assert_array_equal(plan.normalizers, normalizers)
    for part in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(plan._fallback, part), getattr(fallback, part))


def test_past_budget_counts_the_starved_points_left_on_lattice_rows(rng, monkeypatch):
    """Every point is starved and the budget keeps some: the kept points and
    the ones past the budget add up to every point under the threshold.
    With the full budget nothing is past it, and the counter is read-only."""
    from voxcrf import filtering

    feats = rng.uniform(0, 5, (40, 3))
    under = np.count_nonzero(_starved_mass(feats) < filtering.STARVED_THRESHOLD_HIGH_DIM)
    assert under == len(feats)
    for backend in ("lattice", "exact"):
        assert plan_filter(feats, backend).past_budget == 0

    monkeypatch.setattr(filtering, "FALLBACK_NNZ_LIMIT", 400)
    plan = plan_filter(feats, "lattice")
    assert 0 < plan.past_budget < under
    assert plan.starved + plan.past_budget == under
    with pytest.raises(AttributeError):
        plan.past_budget = 0


def test_no_starved_point_gives_an_empty_fallback_with_no_distance_formed(rng, monkeypatch):
    """An empty order gives an empty (0, N) F without forming a distance,
    and a lattice plan with no starved point holds that F."""
    from voxcrf import filtering

    def no_scan(*args):
        raise AssertionError("distances formed")

    monkeypatch.setattr(filtering, "_ball_pairs", no_scan)
    kept, f = filtering._fallback_rows(rng.uniform(0, 5, (40, 3)), np.zeros(0, dtype=np.int64))
    assert kept.shape == (0,) and f.shape == (0, 40) and f.nnz == 0

    ys, xs = np.mgrid[0:32, 0:32] / 3.0  # an image's spatial features at theta 3
    feats = np.column_stack([xs.ravel(), ys.ravel()])
    plan = plan_filter(feats, "lattice")
    assert (plan.starved, plan.past_budget, plan.fallback_nnz) == (0, 0, 0)
    assert plan._fallback.shape == (0, len(feats))


def test_fallback_build_peak_per_kept_entry(monkeypatch):
    """A textured 160x120 frame fills a reduced budget of 2^20 fallback
    entries.  The plan build peaks under 48 bytes per kept entry: the scan
    holds the kept rows' columns and values, and the rows once more while
    it puts them in point order (the k-d tree form peaked near 108)."""
    import tracemalloc

    from voxcrf import filtering

    feats = _frame0_bilateral(width=160, height=120, jitter=60.0)
    monkeypatch.setattr(filtering, "FALLBACK_NNZ_LIMIT", 1 << 20)
    tracemalloc.start()
    try:
        plan = plan_filter(feats, "lattice")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1 << 19 < plan.fallback_nnz < 1 << 20
    per_entry = peak / plan.fallback_nnz
    assert per_entry < 48, f"plan build peaked at {per_entry:.1f} B per kept entry"


_SCIPY_STAGES = """
import contextlib, json, sys

sys.path.insert(0, sys.argv[1])
out = sys.argv[2]
loaded = {}


def scipy_after(stage):
    loaded[stage] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


def run(*argv):
    with contextlib.redirect_stdout(sys.stderr):
        if main(list(argv)) != 0:
            sys.exit(f"voxcrf {argv[0]} failed")
    scipy_after(f"voxcrf {argv[0]}")


import voxcrf

scipy_after("import voxcrf")
from voxcrf.pipeline.cli import main

scipy_after("import voxcrf.pipeline.cli")
scene = f"{out}/scene"
run("synth", "--frames", "2", "--width", "32", "--height", "24", "--out", scene)
run("train-crf", "--backend", "exact", "--epochs", "1", "--manifest", f"{scene}/manifest.txt",
    "--out", f"{out}/p.json")
run("segment", "--backend", "exact", "--unary", f"{scene}/unary/frame0000.unry",
    "--rgb", f"{scene}/rgb/frame0000.ppm", "--out", f"{out}/seg")
import numpy as np
from voxcrf.filtering import plan_filter

plan_filter(np.random.default_rng(0).uniform(0, 5, (40, 3)), "lattice")
scipy_after("plan_filter lattice")
print(json.dumps(loaded))
"""


def test_scipy_loads_on_the_first_lattice_plan_build(tmp_path):
    """In a fresh interpreter, importing voxcrf and its CLI and running
    synth, and train-crf and segment on the exact backend, load no scipy
    module (so no scipy.spatial: the fallback rows need no k-d tree); the
    first lattice plan build loads scipy.sparse."""
    import json
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_STAGES, src, str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    stages = json.loads(done.stdout)
    lattice = stages.pop("plan_filter lattice")
    assert list(stages) == [
        "import voxcrf", "import voxcrf.pipeline.cli", "voxcrf synth", "voxcrf train-crf",
        "voxcrf segment",
    ]
    assert {stage: mods for stage, mods in stages.items() if mods} == {}
    assert "scipy.sparse" in lattice


def _dense_numerator(plan):
    """The numerator matrix M of ``plan`` built from its parts: the exact
    self-excluded kernel, or the lattice filter of the identity minus the
    lattice diagonal with each starved row replaced by the exact kernel row
    over the FALLBACK_RADIUS ball.  The lattice is built here from the
    plan's features (the plan keeps only its pre-scaled copy), and starved
    rows are found from the neighbor-mass thresholds, independently of the
    plan: of the points under the threshold, the prefix in order of
    increasing mass whose ball sizes (self included) sum to under
    FALLBACK_NNZ_LIMIT.  The returned rows are those exact rows."""
    from voxcrf import filtering
    from voxcrf.lattice import PermutohedralLattice

    feats = plan.features
    diff = feats[:, None, :] - feats[None, :, :]
    dist2 = np.einsum("ijd,ijd->ij", diff, diff)
    kernel = np.exp(-0.5 * dist2)
    np.fill_diagonal(kernel, 0.0)
    if plan.backend == "exact":
        return kernel, np.zeros(0, dtype=np.int64)
    lat = PermutohedralLattice(feats)
    m = lat.filter(np.eye(plan.n)) - np.diag(lat.diagonal)
    threshold = (
        filtering.STARVED_THRESHOLD_HIGH_DIM
        if plan.dim >= 3
        else filtering.STARVED_THRESHOLD_LOW_DIM
    )
    mass = lat.filter(np.ones(plan.n)) - lat.diagonal
    near = dist2 <= filtering.FALLBACK_RADIUS**2
    worst_first = np.flatnonzero(mass < threshold)
    worst_first = worst_first[np.argsort(mass[worst_first], kind="stable")]
    fits = np.cumsum(near[worst_first].sum(axis=1)) < filtering.FALLBACK_NNZ_LIMIT
    starved = np.sort(worst_first[fits])
    m[starved] = np.where(near[starved], kernel[starved], 0.0)
    return m, starved


def _oracle_features(kind, rng):
    yy, xx = np.mgrid[0:14, 0:14].astype(np.float64)
    grid = np.column_stack([xx.ravel(), yy.ravel()]) / 3.0
    if kind == "exact":
        return rng.uniform(0, 5, (60, 3))
    if kind == "lattice_grid":
        return grid
    if kind == "lattice_grid_outliers":  # outliers have no neighbor mass
        return np.vstack([grid, rng.uniform(8.0, 20.0, (6, 2))])
    return rng.uniform(0, 5, (40, 3))  # "lattice_sparse_3d*": every point starved


@pytest.mark.parametrize(
    "kind",
    [
        "exact",
        "lattice_grid",
        "lattice_grid_outliers",
        "lattice_sparse_3d",
        "lattice_sparse_3d_budget",  # the budget keeps exact rows for some points
    ],
)
def test_apply_and_adjoint_match_dense_numerator(kind, rng, monkeypatch):
    from voxcrf import filtering

    if kind == "lattice_sparse_3d_budget":
        monkeypatch.setattr(filtering, "FALLBACK_NNZ_LIMIT", 400)
    backend = "exact" if kind == "exact" else "lattice"
    plan = plan_filter(_oracle_features(kind, rng), backend)
    m, starved = _dense_numerator(plan)
    np.testing.assert_array_equal(plan._starved, starved)
    if kind == "lattice_sparse_3d_budget":
        # a worst-first prefix: some points past the budget keep lattice rows;
        # balls are counted in chunks of 1, 2, 4, ... points, so the kept
        # prefix spans several chunks
        assert 3 < plan.starved < plan.n
        assert plan.fallback_nnz == np.count_nonzero(m[starved]) < 400
        kept_rows = plan._fallback.toarray() * plan.normalizers[starved, None]
        assert np.abs(kept_rows - m[starved]).max() < 1e-12
    if kind in ("lattice_grid_outliers", "lattice_sparse_3d"):
        assert plan.starved > 0
    if kind == "lattice_grid_outliers":
        assert plan.starved < plan.n
    if kind == "lattice_grid":
        assert plan.starved == 0
    d = np.maximum(m.sum(axis=1), 1e-12)
    assert np.abs(plan.normalizers - d).max() < 1e-12 * max(1.0, d.max())
    for shape in ((plan.n,), (plan.n, 3)):
        v = rng.normal(size=shape)
        g = rng.normal(size=shape)
        dd = d if len(shape) == 1 else d[:, None]
        expected = (m @ v) / dd
        expected_t = m.T @ (g / dd)
        v0, g0 = v.copy(), g.copy()
        out, out_t = plan.apply(v), plan.apply_transpose(g)
        assert out.shape == out_t.shape == shape
        assert np.abs(out - expected).max() < 1e-12
        assert np.abs(out_t - expected_t).max() < 1e-12
        np.testing.assert_array_equal(v, v0)  # inputs left unchanged
        np.testing.assert_array_equal(g, g0)


def _one_pass_rows(plan, v, transpose):
    """M v (or M^T v) of a lattice plan in one pass over all rows: the whole
    filter, its diagonal term, then the fallback rows F."""
    lat = plan._lattice
    out = lat.filter(v, reverse=transpose)
    out -= v * lat.diagonal[:, None]
    if plan.starved and transpose:
        out += plan._fallback.T @ v[plan._starved]
    elif plan.starved:
        out[plan._starved] = plan._fallback @ v
    return out


@pytest.mark.parametrize("block", [7, 2048])
@pytest.mark.parametrize("outliers", [0, 9])
def test_blocked_lattice_rows_are_bit_equal_to_one_pass(rng, monkeypatch, block, outliers):
    """apply, apply_transpose and accumulate form a lattice plan's rows a
    block at a time; each is bit-equal to one pass over all rows, with N
    not a multiple of the block and starved rows spread over the blocks."""
    from voxcrf import lattice

    monkeypatch.setattr(lattice, "_ROW_BLOCK", block)
    yy, xx = np.mgrid[0:46, 0:48].astype(np.float64)
    feats = np.vstack([np.column_stack([xx.ravel(), yy.ravel()]) / 3.0,
                       rng.uniform(30.0, 90.0, (outliers, 2))])
    feats = feats[rng.permutation(len(feats))]
    plan = plan_filter(feats, "lattice")
    assert plan.n % block and (plan.starved > 0) == (outliers > 0)
    v = rng.normal(size=(plan.n, 4))
    np.testing.assert_array_equal(plan.apply(v), _one_pass_rows(plan, v, False))
    np.testing.assert_array_equal(plan.apply_transpose(v), _one_pass_rows(plan, v, True))
    _assert_accumulate_adds_apply(plan, v, rng)


def _assert_accumulate_adds_apply(plan, v, rng):
    """``accumulate(v, w, out)`` is ``out + w * apply(v)`` bit for bit."""
    out = rng.normal(size=v.shape)
    expected = out.copy()
    msg = plan.apply(v)
    msg *= 0.7
    expected += msg
    plan.accumulate(v, 0.7, out)
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("form", ["grid", "kept", "walk"])
def test_exact_accumulate_is_bit_equal_to_apply(rng, monkeypatch, form):
    """Each exact form adds its message through the routine apply runs, so
    accumulate adds bit for bit what apply returns, scaled."""
    from voxcrf import filtering

    feats = _grid_features(np.arange(13) / 2.0, np.arange(9) / 3.0)
    if form != "grid":
        monkeypatch.setattr(filtering, "_grid_axes", lambda features: None)
    if form == "walk":
        monkeypatch.setattr(filtering, "_KERNEL_CACHE_LIMIT", 10)
    plan = plan_filter(feats, "exact")
    assert (plan._factors is not None, plan._kernel is not None) == (
        form == "grid",
        form == "kept",
    )
    _assert_accumulate_adds_apply(plan, rng.normal(size=(plan.n, 4)), rng)


@pytest.mark.parametrize("shape", [(55, 4), (50, 1), (50,)], ids=["55x4", "50x1", "50"])
def test_accumulate_rejects_an_out_of_another_shape(backend, rng, shape):
    plan = plan_filter(rng.uniform(0, 4, (50, 3)), backend)
    out = np.ones(shape)
    with pytest.raises(InputError) as err:
        plan.accumulate(rng.normal(size=(50, 4)), 0.5, out)
    assert "(50, 4)" in str(err.value) and str(shape) in str(err.value)
    np.testing.assert_array_equal(out, 1.0)


# ---------------------------------------------------------------------------
# working precision
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("outliers", [0, 9])
def test_lattice_plan_keeps_float32_values_in_float32(rng, outliers):
    """A lattice plan forms apply, apply_transpose and accumulate in float32
    for float32 values, and in float64, bit-equal to one pass over all rows,
    for float64 values; with starved rows (outliers) and without."""
    yy, xx = np.mgrid[0:46, 0:48].astype(np.float64)
    feats = np.vstack([np.column_stack([xx.ravel(), yy.ravel()]) / 3.0,
                       rng.uniform(30.0, 90.0, (outliers, 2))])
    plan = plan_filter(feats[rng.permutation(len(feats))], "lattice")
    assert plan.n > 2048 and (plan.starved > 0) == (outliers > 0)
    v64 = rng.normal(size=(plan.n, 4))
    v32 = v64.astype(np.float32)
    for vals in (v32, v64):
        apply, transpose = plan.apply(vals), plan.apply_transpose(vals)
        out = rng.normal(size=vals.shape).astype(vals.dtype)
        expected = out + np.float32(0.7) * apply if vals.dtype == np.float32 else None
        plan.accumulate(vals, 0.7, out)
        assert apply.dtype == transpose.dtype == out.dtype == vals.dtype
        assert plan.apply(vals[:, 0]).dtype == vals.dtype
        if vals.dtype == np.float32:
            np.testing.assert_array_equal(out, expected)
        else:
            np.testing.assert_array_equal(apply, _one_pass_rows(plan, vals, False))
            np.testing.assert_array_equal(transpose, _one_pass_rows(plan, vals, True))


def test_exact_plan_forms_float32_values_in_float64(rng):
    """The exact backend, the oracle, computes in float64 whatever the
    values' dtype: float32 values give the float64 messages of their float64
    copy, bit for bit."""
    plan = plan_filter(rng.uniform(0, 4, (60, 3)), "exact")
    v32 = rng.normal(size=(60, 5)).astype(np.float32)
    v64 = v32.astype(np.float64)
    for op in (plan.apply, plan.apply_transpose):
        out = op(v32)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, op(v64))
    out = np.zeros((60, 5))
    plan.accumulate(v32, 0.5, out)
    expected = np.zeros((60, 5))
    plan.accumulate(v64, 0.5, expected)
    np.testing.assert_array_equal(out, expected)


# float32 lattice messages against float64 ones, relative to the largest
# float64 message: 6e-7 (VGA frame) and 4e-6 (starved rows) measured
FLOAT32_MESSAGE_TOLERANCE = 1e-5


@pytest.mark.parametrize(
    "size, jitter", [((640, 480), 10.0), ((64, 48), 60.0)], ids=["vga", "starved"]
)
def test_float32_lattice_messages_match_float64_messages(rng, size, jitter):
    """On a VGA frame of the default scene, and on a jitter-60 frame whose
    bilateral plan takes exact rows for most points, float32 messages are
    within FLOAT32_MESSAGE_TOLERANCE of float64 ones from the same values,
    in both directions, on the starved rows as on the others."""
    from voxcrf.crf import CrfParams, build_features
    from voxcrf.pipeline.labels import label_palette
    from voxcrf.pipeline.synthetic import default_scene_spec, orbit_poses, render_frame, shade_labels

    spec = default_scene_spec(width=size[0], height=size[1], jitter=jitter)
    _, truth = render_frame(spec, orbit_poses(spec)[0])
    rgb = shade_labels(truth, label_palette(23), jitter, np.random.default_rng(0))
    for feats in build_features(rgb, CrfParams()).per_kernel():
        plan = plan_filter(feats, "lattice")
        if jitter > 10.0 and feats.shape[1] == 5:
            assert plan.starved > plan.n // 2
        q32 = rng.dirichlet(np.ones(23), size=plan.n).astype(np.float32)
        q64 = q32.astype(np.float64)
        for op in ("apply", "apply_transpose"):
            m64, m32 = getattr(plan, op)(q64), getattr(plan, op)(q32)
            assert m32.dtype == np.float32
            err = np.abs(m32 - m64).max() / np.abs(m64).max()
            assert err <= FLOAT32_MESSAGE_TOLERANCE, f"{op} on {feats.shape[1]}-D: {err:.2e}"
