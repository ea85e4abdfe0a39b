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
    out = plan.apply(np.array([[5.0, -2.0]]))
    assert np.all(out == 0.0)


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


def test_exact_chunked_path_matches_cached_path(rng):
    import voxcrf.filtering as filtering

    feats = rng.uniform(0, 4, (60, 2))
    vals = rng.normal(size=(60, 2))
    small = plan_filter(feats, "exact").apply(vals)
    old = filtering._KERNEL_CACHE_LIMIT
    filtering._KERNEL_CACHE_LIMIT = 10  # force the chunked path
    try:
        chunked = plan_filter(feats, "exact").apply(vals)
    finally:
        filtering._KERNEL_CACHE_LIMIT = old
    assert np.abs(small - chunked).max() < 1e-12


def test_exact_chunked_path_keeps_isolated_points(rng):
    # far-apart points have tiny kernel mass: the chunked path must not
    # lose it by cancelling k(f_i, f_i) = 1 against itself
    import voxcrf.filtering as filtering

    feats = rng.uniform(0, 60, (40, 2))
    vals = rng.normal(size=(40, 2))
    cached = plan_filter(feats, "exact")
    old = filtering._KERNEL_CACHE_LIMIT
    filtering._KERNEL_CACHE_LIMIT = 10  # force the chunked path
    try:
        chunked = plan_filter(feats, "exact")
    finally:
        filtering._KERNEL_CACHE_LIMIT = old
    assert np.any((cached.normalizers > 1e-12) & (cached.normalizers < 1e-6))
    np.testing.assert_allclose(chunked.normalizers, cached.normalizers, rtol=1e-12)
    np.testing.assert_allclose(chunked.apply(vals), cached.apply(vals), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        chunked.apply_transpose(vals), cached.apply_transpose(vals), rtol=1e-12, atol=1e-12
    )


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


def _dense_numerator(plan):
    """The numerator matrix M of ``plan`` built from its parts: the exact
    self-excluded kernel, or the lattice filter of the identity minus the
    lattice diagonal with each starved row replaced by the exact kernel row
    over the FALLBACK_RADIUS ball.  The lattice is built here from the
    plan's features (the plan keeps only its pre-scaled copy), and starved
    rows are found from the neighbor-mass thresholds, independently of the
    plan."""
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
    starved = np.flatnonzero(lat.filter(np.ones(plan.n)) - lat.diagonal < threshold)
    near = dist2[starved] <= filtering.FALLBACK_RADIUS**2
    m[starved] = np.where(near, kernel[starved], 0.0)
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
    return rng.uniform(0, 5, (40, 3))  # "lattice_sparse_3d": every point starved


@pytest.mark.parametrize(
    "kind", ["exact", "lattice_grid", "lattice_grid_outliers", "lattice_sparse_3d"]
)
def test_apply_and_adjoint_match_dense_numerator(kind, rng):
    backend = "exact" if kind == "exact" else "lattice"
    plan = plan_filter(_oracle_features(kind, rng), backend)
    m, starved = _dense_numerator(plan)
    np.testing.assert_array_equal(plan._starved, starved)
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
