from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxcrf.crf import (
    IGNORE_LABEL,
    PROB_FLOOR,
    CrfParams,
    FeatureField,
    LabelDistributionImage,
    LabelImage,
    UnaryField,
    build_features,
    crf_energy,
    map_labeling,
    mean_field_backward,
    mean_field_infer,
    potts_matrix,
    reduce_labels,
    reuse_plan,
    softmax,
    train_crf_params,
    unary_from_probabilities,
)
from voxcrf.errors import ConfigError, InputError, NumericalError, SizeLimitError
from voxcrf.filtering import plan_filter

from _reference import brute_force_map, reference_energy, reference_mean_field


def dist_image(probs, height=None, width=None):
    probs = np.asarray(probs, dtype=np.float64)
    if height is None:
        height, width = probs.shape[0], 1
    return LabelDistributionImage(height, width, probs.shape[-1], probs.reshape(-1, probs.shape[-1]))


def random_instance(rng, h, w, num_labels, iterations=5, weights=(0.8, 0.5)):
    rgb = rng.uniform(0, 255, (h, w, 3))
    probs = rng.dirichlet(np.ones(num_labels), size=h * w)
    params = CrfParams(kernel_weights=np.array(weights), iterations=iterations)
    unary = unary_from_probabilities(dist_image(probs, h, w))
    features = build_features(rgb, params)
    return unary, features, params


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


def test_distribution_invariants():
    with pytest.raises(InputError):
        LabelDistributionImage(0, 1, 2, np.zeros((0, 2)))
    with pytest.raises(InputError):
        LabelDistributionImage(1, 1, 2, np.zeros((2, 2)))
    bad = LabelDistributionImage(1, 1, 2, np.array([[0.7, 0.2]]))
    with pytest.raises(InputError):
        bad.validate()
    LabelDistributionImage(1, 1, 2, np.array([[0.5, 0.5]])).validate()


@pytest.mark.parametrize("kind", [LabelDistributionImage, UnaryField])
@pytest.mark.parametrize(
    "data, dtype",
    [
        pytest.param(np.full((4, 2), 0.5) + 0.3j, "complex128", id="complex"),
        pytest.param(np.full((4, 2), "0.5"), "<U3", id="str"),
        pytest.param(np.full((4, 2), None), "object", id="object"),
    ],
)
def test_grid_data_rejects_values_that_are_not_real_numbers(kind, data, dtype):
    """A complex array lost its imaginary part, a string one of numerals
    was parsed and an object one of None became NaN data; each now raises
    InputError naming its dtype."""
    with pytest.raises(InputError, match=f"^data of dtype {dtype}, expected real numbers$"):
        kind(2, 2, 2, data)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_distribution_validation_rejects_non_finite_entries(bad):
    """NaN passed both the negative-entry and the sum test, as all-NaN data."""
    with pytest.raises(InputError, match="^non-finite probability entry$"):
        LabelDistributionImage(2, 2, 2, np.full((4, 2), bad)).validate()
    data = np.full((4, 2), 0.5, dtype=np.float32)
    data[3, 1] = bad
    with pytest.raises(InputError, match="^non-finite probability entry$"):
        LabelDistributionImage(2, 2, 2, data).validate()


def test_params_validation():
    with pytest.raises(ConfigError):
        CrfParams(kernel_weights=np.array([-1.0, 0.0]))
    with pytest.raises(ConfigError):
        CrfParams(theta_alpha=0.0)
    with pytest.raises(ConfigError):
        CrfParams(iterations=0)
    for iterations in (2.7, float("nan"), float("inf"), True, "3"):
        with pytest.raises(ConfigError, match="^iterations must be an integer"):
            CrfParams(iterations=iterations)
    assert CrfParams(iterations=np.float64(2.0)).iterations == 2
    assert type(CrfParams(iterations=np.int64(2)).iterations) is int
    p = CrfParams()
    assert np.array_equal(p.compatibility_for(3), potts_matrix(3))


def test_label_image_validation():
    img = LabelImage(1, 3, np.array([0, IGNORE_LABEL, 1]))
    img.validate(2)
    with pytest.raises(InputError):
        LabelImage(1, 2, np.array([0, 2])).validate(2)



def test_label_image_rejects_labels_that_are_not_whole_numbers():
    """Labels are whole numbers: integers and whole-valued floats are kept,
    a fractional or non-finite float label raises ``InputError`` naming its
    pixel rather than being truncated, and data that is not real numbers
    raises naming its dtype."""
    for data in (np.array([0, 2, 1], np.uint8), [0.0, 2.0, 1.0], np.array([0, 2, 1], np.float32)):
        img = LabelImage(1, 3, data)
        assert img.data.dtype == np.int64 and img.data.tolist() == [0, 2, 1]
    for data, pixel in (([0.9, 1.5, 2.99], 0), ([0.0, 1.0, 2.5], 2), ([1.0, np.nan, 0.0], 1),
                        ([0.0, 1.0, np.inf], 2)):
        with pytest.raises(InputError, match=f"at pixel {pixel} is not a whole number"):
            LabelImage(1, 3, data)
    for data in (np.array(["0", "1", "2"]), np.array([0, 1, 2], complex)):
        with pytest.raises(InputError, match=f"dtype {data.dtype}"):
            LabelImage(1, 3, data)

# ---------------------------------------------------------------------------
# unary_from_probabilities
# ---------------------------------------------------------------------------


def test_unary_uniform_case():
    u = unary_from_probabilities(dist_image([[0.5, 0.5]]))
    assert u.data.ravel() == pytest.approx(np.log([0.5, 0.5]))
    assert softmax(u.data).ravel() == pytest.approx([0.5, 0.5])


def test_unary_round_trip():
    u = unary_from_probabilities(dist_image([[0.8, 0.2]]))
    assert softmax(u.data).ravel() == pytest.approx([0.8, 0.2], abs=1e-9)


def test_unary_clamped_one_hot():
    u = unary_from_probabilities(dist_image([[1.0, 0.0, 0.0]]))
    assert u.data[0, 1] == pytest.approx(np.log(1e-8))
    assert u.data[0, 2] == pytest.approx(np.log(1e-8))
    # independently derived: softmax of the clamped logs
    expected = np.exp([0.0, np.log(1e-8), np.log(1e-8)])
    expected /= expected.sum()
    assert softmax(u.data)[0] == pytest.approx(expected, rel=1e-12)


def test_unary_rejects_invalid():
    with pytest.raises(InputError):
        unary_from_probabilities(dist_image([[0.9, 0.2]]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_unary_softmax_recovers_probabilities(seed):
    r = np.random.default_rng(seed)
    probs = r.dirichlet(np.ones(4), size=6)
    u = unary_from_probabilities(dist_image(probs, 2, 3))
    back = softmax(u.data)
    mask = probs >= 1e-6
    assert np.abs(back[mask] - probs[mask]).max() < 1e-6


def test_unary_field_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        data = np.zeros((6, 3))
        data[4, 1] = bad
        with pytest.raises(InputError, match="non-finite unary potential"):
            UnaryField(2, 3, 3, data)


def test_unary_peaks_at_one_array(rng):
    """U is clamped into one new (N, L) array and logged in place, and the
    validation tests the minimum, not an (N, L) bool: the call peaks near
    the one array it returns (160x120, L=23), bit-equal to log(max(p, floor))."""
    import tracemalloc

    h, w, labels = 120, 160, 23
    probs = dist_image(rng.dirichlet(np.ones(labels), size=h * w), h, w)
    probs.data[::7, 3] = 0.0  # clamped entries
    probs.data /= probs.data.sum(axis=1, keepdims=True)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        u = unary_from_probabilities(probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (peak - entry) / (h * w * labels * 8)
    assert arrays <= 1.1, f"peak of {arrays:.2f} (N, L) arrays"
    np.testing.assert_array_equal(u.data, np.log(np.maximum(probs.data, PROB_FLOOR)))


# ---------------------------------------------------------------------------
# build_features
# ---------------------------------------------------------------------------


def test_features_origin_black_pixel():
    rgb = np.zeros((1, 1, 3))
    f = build_features(rgb, CrfParams(theta_alpha=1.0, theta_beta=1.0))
    assert f.bilateral[0] == pytest.approx([0, 0, 0, 0, 0])


def test_features_spatial_division():
    rgb = np.zeros((21, 11, 3))
    f = build_features(rgb, CrfParams(theta_gamma=5.0))
    # pixel (x=10, y=20)
    idx = 20 * 11 + 10
    assert f.spatial[idx] == pytest.approx([2.0, 4.0])


def test_features_bilateral_direct_evaluation():
    rgb = np.zeros((5, 4, 3))
    rgb[4, 3] = (30, 60, 90)
    f = build_features(rgb, CrfParams(theta_alpha=61.0, theta_beta=11.0))
    idx = 4 * 4 + 3  # pixel (x=3, y=4)
    assert f.bilateral[idx] == pytest.approx([3 / 61, 4 / 61, 30 / 11, 60 / 11, 90 / 11])


# ---------------------------------------------------------------------------
# mean_field_infer
# ---------------------------------------------------------------------------


def test_step_single_pixel_returns_softmax_of_unary():
    u = unary_from_probabilities(dist_image([[0.3, 0.7]]))
    feats = build_features(np.zeros((1, 1, 3)), CrfParams())
    out, trace = mean_field_infer(u, feats, CrfParams(iterations=1))
    assert trace is None
    assert out.data == pytest.approx(softmax(u.data), abs=1e-12)


def test_step_zero_weights_returns_softmax_of_unary(rng):
    u, feats, params = random_instance(rng, 3, 4, 3, iterations=1, weights=(0.0, 0.0))
    out, _ = mean_field_infer(u, feats, params)
    assert out.data == pytest.approx(softmax(u.data), abs=1e-12)


def test_step_two_pixel_hand_derivation():
    # identical features, Potts, w = (1, 0), U = logits of (.9,.1) and (.4,.6);
    # expected values from evaluating the five stages by hand
    u = unary_from_probabilities(dist_image([[0.9, 0.1], [0.4, 0.6]], 1, 2))
    rgb = np.full((1, 2, 3), 128.0)
    params = CrfParams(
        kernel_weights=np.array([1.0, 0.0]),
        theta_alpha=1e9,
        theta_beta=1e9,
        theta_gamma=1e9,
        iterations=1,
    )
    feats = build_features(rgb, params)  # huge thetas make features identical
    out, _ = mean_field_infer(u, feats, params)
    expected = np.array(
        [
            [0.8805053682886066, 0.11949463171139338],
            [0.5973739038730755, 0.4026260961269245],
        ]
    )
    assert out.data == pytest.approx(expected, abs=1e-12)


def test_infer_uniform_stays_uniform():
    h, w, L = 4, 4, 3
    probs = np.full((h * w, L), 1.0 / L)
    u = unary_from_probabilities(dist_image(probs, h, w))
    feats = build_features(np.full((h, w, 3), 77.0), CrfParams())
    q, _ = mean_field_infer(u, feats, CrfParams(iterations=5))
    assert q.data == pytest.approx(probs, abs=1e-12)


def test_infer_zero_coupling_for_any_t(rng):
    u, feats, _ = random_instance(rng, 4, 5, 4)
    params = CrfParams(kernel_weights=np.zeros(2), iterations=7)
    q, _ = mean_field_infer(u, feats, params)
    assert q.data == pytest.approx(softmax(u.data), abs=1e-12)


def test_infer_matches_straight_line_reference(rng):
    for _ in range(3):
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        L = int(rng.integers(2, 5))
        u, feats, params = random_instance(rng, h, w, L)
        q, _ = mean_field_infer(u, feats, params, "exact")
        ref = reference_mean_field(
            u.data, list(feats.per_kernel()), params.kernel_weights, potts_matrix(L), 5
        )
        assert np.abs(q.data - ref).max() < 1e-12


def test_softmax_leaves_input_and_matches_out_of_place_form(rng):
    logits = rng.normal(scale=30.0, size=(50, 7))
    before = logits.copy()
    q = softmax(logits)
    assert np.array_equal(logits, before)
    e = np.exp(before - before.max(axis=1, keepdims=True))
    assert np.array_equal(q, e / e.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_label_reductions_are_bit_equal_to_numpy(rng, dtype):
    """``reduce_labels`` against numpy's own forms as the oracle: row sums
    bit-equal to ``a.sum(axis=1)`` and ``a.sum(axis=1, dtype=np.float64)``,
    row maxima to ``a.max(axis=1)``, below, at and above numpy's 8 lanes and
    128-label halving, over one, two and three row blocks.  A numpy release
    that changes its summation order fails here."""
    for labels in (2, 3, 7, 8, 9, 16, 17, 23, 128, 129, 255):
        for n in (1, 2047, 2048, 2049, 4097):
            # magnitudes over six decades, so a changed order rounds differently
            a = rng.normal(size=(n, labels)) * 10.0 ** rng.uniform(-3, 3, (n, labels))
            a = a.astype(dtype)
            for got, want in (
                (reduce_labels(a, np.add), a.sum(axis=1)),
                (reduce_labels(a, np.add, np.float64), a.sum(axis=1, dtype=np.float64)),
                (reduce_labels(a, np.maximum), a.max(axis=1)),
            ):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (labels, n)


def _whole_array_softmax_into(logits, out):
    """The whole-array softmax the blocked form replaced."""
    np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_softmax_is_bit_equal_to_the_whole_array_form(rng, dtype):
    """``softmax`` (float64 out, also from float32 logits) and
    ``_softmax_into`` (in place and into another array) over three row
    blocks give the bytes of the whole-array form, and leave the logits."""
    from voxcrf.crf import _softmax_into

    logits = rng.normal(scale=30.0, size=(4097, 23)).astype(dtype)
    before = logits.copy()
    want = _whole_array_softmax_into(logits, np.empty(logits.shape))
    assert softmax(logits).tobytes() == want.tobytes()
    want = _whole_array_softmax_into(logits, np.empty_like(logits))
    assert _softmax_into(logits, np.empty_like(logits)).tobytes() == want.tobytes()
    assert logits.tobytes() == before.tobytes()
    assert _softmax_into(logits, logits).tobytes() == want.tobytes()


@pytest.mark.parametrize("backend", ["exact", "lattice"])
def test_prebuilt_plans_match_fresh_plans(rng, backend):
    u, feats, params = random_instance(rng, 6, 7, 3)
    fresh, _ = mean_field_infer(u, feats, params, backend)
    bilateral = plan_filter(feats.bilateral, backend)
    spatial = plan_filter(feats.spatial, backend)
    pools = ((bilateral, spatial), (spatial, bilateral), (spatial,), (bilateral,), ())
    for plans in pools:
        q, _ = mean_field_infer(u, feats, params, backend, plans=plans)
        assert np.array_equal(q.data, fresh.data)


@pytest.mark.parametrize("backend", ["exact", "lattice"])
def test_plans_built_on_other_features_are_never_used(rng, plan_builds, backend):
    """Held plans built on another image of the same size, another size,
    the other backend or another θγ are passed over: both kernels are
    rebuilt and Q equals a fresh inference bit for bit."""
    u, feats, params = random_instance(rng, 6, 7, 3)
    other_image = build_features(rng.uniform(0, 255, (6, 7, 3)), params)
    other_size = build_features(rng.uniform(0, 255, (5, 7, 3)), params)
    other_theta = build_features(np.zeros((6, 7, 3)), replace(params, theta_gamma=5.0))
    other_backend = "lattice" if backend == "exact" else "exact"
    held = (
        plan_filter(other_image.bilateral, backend),
        plan_filter(other_size.spatial, backend),
        plan_filter(feats.bilateral, other_backend),
        plan_filter(feats.spatial, other_backend),
        plan_filter(other_theta.spatial, backend),
    )
    q0 = softmax(u.data)
    for stale, f in ((held[0], feats.bilateral), (held[4], feats.spatial)):
        # same shape and backend, another operator: using it would move Q
        assert not np.allclose(stale.apply(q0), plan_filter(f, backend).apply(q0))

    fresh, _ = mean_field_infer(u, feats, params, backend)
    del plan_builds[:]
    q, _ = mean_field_infer(u, feats, params, backend, plans=held)
    assert np.array_equal(q.data, fresh.data)
    assert plan_builds == [(42, 5), (42, 2)]


def test_reuse_plan_matches_backend_dtype_and_features(rng, plan_builds):
    """``reuse_plan`` returns a held plan only when its backend, working
    dtype and features all match; otherwise it builds one for them.  An
    exact plan is float64 for any dtype, so it serves float32 values too."""
    feats = rng.uniform(0, 4, (30, 3))
    lattice32 = plan_filter(feats, "lattice", np.float32)
    exact = plan_filter(feats, "exact", np.float32)
    del plan_builds[:]
    assert reuse_plan(feats, "lattice", [exact, lattice32], np.float32) is lattice32
    assert reuse_plan(feats, "exact", [lattice32, exact], np.float32) is exact
    assert reuse_plan(feats, "exact", [lattice32, exact]) is exact
    assert plan_builds == []
    for features, backend, dtype in (
        (feats + 1.0, "lattice", np.float32),
        (feats, "lattice", np.float64),
        (feats, "exact", np.float64),
    ):
        held = [lattice32] if backend == "exact" else [lattice32, exact]
        plan = reuse_plan(features, backend, held, dtype)
        assert plan not in held
        assert (plan.backend, plan.dtype) == (backend, np.dtype(dtype))
        assert np.array_equal(plan.features, features)
    assert len(plan_builds) == 3


def test_normalization_after_every_step(rng):
    u, feats, params = random_instance(rng, 5, 5, 3)
    q, trace = mean_field_infer(u, feats, params, cache_gradients=True)
    for state in trace.q_states:
        assert np.abs(state.sum(axis=1) - 1.0).max() < 1e-6
        assert np.all(state >= 0)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_label_permutation_equivariance(seed):
    r = np.random.default_rng(seed)
    h, w, L = 3, 4, 3
    probs = r.dirichlet(np.ones(L), size=h * w)
    rgb = r.uniform(0, 255, (h, w, 3))
    mu = r.uniform(0, 1, (L, L))
    params = CrfParams(kernel_weights=np.array([1.0, 0.7]), compatibility=mu, iterations=3)
    feats = build_features(rgb, params)
    u = unary_from_probabilities(dist_image(probs, h, w))
    q, _ = mean_field_infer(u, feats, params, "exact")

    perm = r.permutation(L)
    u_p = UnaryField(h, w, L, u.data[:, perm])
    params_p = CrfParams(
        kernel_weights=params.kernel_weights,
        compatibility=mu[np.ix_(perm, perm)],
        iterations=3,
    )
    q_p, _ = mean_field_infer(u_p, feats, params_p, "exact")
    assert np.abs(q_p.data - q.data[:, perm]).max() < 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_per_pixel_unary_shift_invariance(seed):
    r = np.random.default_rng(seed)
    h, w, L = 3, 3, 3
    u, feats, params = random_instance(np.random.default_rng(seed), h, w, L)
    q, _ = mean_field_infer(u, feats, params, "exact")
    shifts = r.normal(size=(h * w, 1))
    u_shifted = UnaryField(h, w, L, u.data + shifts)
    q_s, _ = mean_field_infer(u_shifted, feats, params, "exact")
    assert np.abs(q_s.data - q.data).max() < 1e-9


def test_step_dimension_mismatch():
    u = unary_from_probabilities(dist_image([[0.5, 0.5]]))
    feats = build_features(np.zeros((2, 1, 3)), CrfParams())
    with pytest.raises(InputError):
        mean_field_infer(u, feats, CrfParams(iterations=1))


def test_numerical_error_names_message_passing_kernel(rng):
    u, feats, params = random_instance(rng, 4, 5, 3)
    spatial = plan_filter(feats.spatial, "exact")
    spatial._numerator = lambda values: np.full_like(values, np.nan)
    with pytest.raises(NumericalError, match=r"message passing \(kernel 1\) at iteration 0"):
        mean_field_infer(u, feats, params, "exact", plans=(spatial,))


def test_numerical_error_names_compatibility_transform(rng):
    # finite messages and parameters; every pairwise entry sums to ~2e308
    u, feats, _ = random_instance(rng, 4, 5, 3)
    params = CrfParams(kernel_weights=np.array([1e308, 1e308]), compatibility=np.ones((3, 3)))
    with np.errstate(over="ignore"), pytest.raises(
        NumericalError, match="compatibility transform at iteration 0"
    ):
        mean_field_infer(u, feats, params, "exact")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_names_the_stage_of_non_finite_logits(rng, bad):
    """A NaN, +inf or -inf in the unary, or a pairwise term that overflows
    to either infinity, raises ``NumericalError`` naming its stage, also in
    a block after the first; the block check reads each block's min and
    max."""
    from voxcrf.crf import _step

    n = 2048 + 300
    feats = FeatureField(rng.normal(size=(n, 5)), rng.normal(size=(n, 2)))
    plans = tuple(plan_filter(f, "lattice") for f in feats.per_kernel())
    weights, mu = np.array([0.8, 0.5]), rng.normal(size=(3, 3))
    q, u = softmax(rng.normal(size=(n, 3))), rng.normal(size=(n, 3))
    u[n - 5, 1] = bad
    with pytest.raises(NumericalError, match="adding the unary at iteration 0"):
        _step(q, u, plans, weights, mu, 0, None)
    if np.isnan(bad):
        return
    # finite messages whose weighted sum, taken through mu, passes -+1.8e308,
    # so the logits u - C mu^T reach the infinity of ``bad``
    mu = np.full((3, 3), -np.sign(bad))
    u[n - 5, 1] = 0.0
    with np.errstate(over="ignore"), pytest.raises(
        NumericalError, match="compatibility transform at iteration 0"
    ):
        _step(q, u, plans, np.array([1e308, 1e308]), mu, 0, None)


def test_mean_field_memory_budget(rng):
    """One lattice inference with prebuilt plans stays within the (N, L)
    budget stated in ``mean_field_infer``: 5 float64 (N, L) arrays above
    the allocation at entry (160x120, L=23, T=5)."""
    import tracemalloc

    from conftest import random_flat_rgb

    h, w, labels = 120, 160, 23
    rgb, _ = random_flat_rgb(rng, h, w)
    params = CrfParams(iterations=5)
    u = unary_from_probabilities(dist_image(rng.dirichlet(np.ones(labels), size=h * w), h, w))
    feats = build_features(rgb, params)
    plans = tuple(plan_filter(f, "lattice") for f in feats.per_kernel())
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        q, _ = mean_field_infer(u, feats, params, "lattice", plans=plans)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (peak - entry) / (h * w * labels * 8)
    assert arrays <= 5.0, f"peak of {arrays:.2f} (N, L) arrays"


def test_mean_field_peaks_below_three_arrays(rng):
    """The tighter budget ``mean_field_infer`` states: the second kernel's
    message is added into the first a block of rows at a time and the
    logits are formed over them the same way, so one lattice inference with
    held plans stays within 3 (N, L) arrays above its entry (160x120, L=23,
    T=5; 3.41 when every message and the logits were whole arrays)."""
    import tracemalloc

    from conftest import random_flat_rgb

    h, w, labels = 120, 160, 23
    rgb, _ = random_flat_rgb(rng, h, w)
    params = CrfParams(iterations=5)
    u = unary_from_probabilities(dist_image(rng.dirichlet(np.ones(labels), size=h * w), h, w))
    feats = build_features(rgb, params)
    plans = tuple(plan_filter(f, "lattice") for f in feats.per_kernel())
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        mean_field_infer(u, feats, params, "lattice", plans=plans)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (peak - entry) / (h * w * labels * 8)
    assert arrays <= 3.0, f"peak of {arrays:.2f} (N, L) arrays"


def test_traced_mean_field_peaks_at_its_trace(rng):
    """Traced inference runs the untraced step and copies Q and the combined
    message into the trace, which keeps 2T + 1 (N, L) arrays: one lattice
    inference with held plans peaks within 2T + 2 arrays above its entry
    (160x120, L=23, T=5; 17.01 when the trace kept every kernel's message)."""
    import tracemalloc

    from conftest import random_flat_rgb

    h, w, labels = 120, 160, 23
    rgb, _ = random_flat_rgb(rng, h, w)
    params = CrfParams(iterations=5)
    u = unary_from_probabilities(dist_image(rng.dirichlet(np.ones(labels), size=h * w), h, w))
    feats = build_features(rgb, params)
    plans = tuple(plan_filter(f, "lattice") for f in feats.per_kernel())
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        _, trace = mean_field_infer(u, feats, params, "lattice", True, plans=plans)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (peak - entry) / (h * w * labels * 8)
    assert arrays <= 2 * params.iterations + 2, f"peak of {arrays:.2f} (N, L) arrays"
    assert (len(trace.q_states), len(trace.combined)) == (6, 5)


def _scene_instance(rng, labels=23):
    """A T = 5 instance on frame 0 of the default scene at 64x48, shaded as
    ``generate_synthetic`` shades it; its lattice plan takes exact fallback
    rows for 118 starved points."""
    from voxcrf.pipeline.labels import label_palette
    from voxcrf.pipeline.synthetic import (
        default_scene_spec,
        orbit_poses,
        render_frame,
        shade_labels,
    )

    spec = default_scene_spec(width=64, height=48)
    _, truth = render_frame(spec, orbit_poses(spec)[0])
    palette = label_palette(spec.label_count)
    rgb = shade_labels(truth, palette, spec.jitter, np.random.default_rng(spec.seed))
    h, w = rgb.shape[:2]
    params = CrfParams(compatibility=rng.normal(0, 0.5, (labels, labels)))
    u = unary_from_probabilities(dist_image(rng.dirichlet(np.ones(labels), size=h * w), h, w))
    return u, build_features(rgb, params), params


@pytest.mark.parametrize("backend", ["exact", "lattice"])
def test_traced_and_untraced_inference_are_bit_equal(rng, backend):
    """Traced and untraced inference run one step, so their Q is bit-equal,
    on a frame of two row blocks whose lattice plan has starved points."""
    u, feats, params = _scene_instance(rng)
    plans = tuple(plan_filter(f, backend) for f in feats.per_kernel())
    assert u.height * u.width > 2048
    if backend == "lattice":
        assert 0 < plans[0].starved < u.height * u.width
    q, _ = mean_field_infer(u, feats, params, backend, plans=plans)
    traced, trace = mean_field_infer(u, feats, params, backend, True, plans=plans)
    np.testing.assert_array_equal(traced.data, q.data)
    np.testing.assert_array_equal(trace.q_states[-1], q.data)


def _blob_frame(width=160, height=120):
    """Frame 0 of the default scene with correlated-error blobs over a
    quarter of its pixels, shaded and corrupted as ``generate_synthetic``
    does: (float32 unary probabilities, features, params, truth)."""
    from voxcrf.pipeline.labels import label_palette
    from voxcrf.pipeline.synthetic import (
        corrupt_unaries,
        default_scene_spec,
        orbit_poses,
        render_frame,
        shade_labels,
    )

    spec = default_scene_spec(width=width, height=height, blob_fraction=0.25)
    _, truth = render_frame(spec, orbit_poses(spec)[0])
    gen = np.random.default_rng(spec.seed)
    rgb = shade_labels(truth, label_palette(spec.label_count), spec.jitter, gen)
    probs = corrupt_unaries(
        truth, spec.label_count, spec.noise, spec.confidence, gen, spec.blob_fraction
    )
    params = CrfParams()
    probs = LabelDistributionImage(height, width, spec.label_count, probs)
    return probs, build_features(rgb, params), params, truth.reshape(-1)


def test_lattice_inference_of_a_float32_unary_runs_in_float32(rng):
    """On the lattice backend a float32 unary gives float32 U and Q, within
    1e-5 of the float64 inference of the same probabilities (7e-7 measured)
    and with the same argmax on at least 99.9% of the pixels, on a frame
    with correlated-error blobs, which the CRF leaves partly wrong.  The exact
    backend gives the float64 Q of the unary's float64 copy, bit for bit."""
    probs32, feats, params, truth = _blob_frame()
    probs64 = replace(probs32, data=probs32.data.astype(np.float64))
    u32, u64 = unary_from_probabilities(probs32), unary_from_probabilities(probs64)
    assert (u32.data.dtype, u64.data.dtype) == (np.float32, np.float64)
    plans = tuple(plan_filter(f, "lattice") for f in feats.per_kernel())
    q32, _ = mean_field_infer(u32, feats, params, "lattice", plans=plans)
    q64, _ = mean_field_infer(u64, feats, params, "lattice", plans=plans)
    assert q32.data.dtype == np.float32
    assert np.abs(q32.data - q64.data).max() <= 1e-5
    hard32, hard64 = q32.data.argmax(axis=1), q64.data.argmax(axis=1)
    assert np.mean(hard32 == hard64) >= 0.999
    assert np.mean(hard64 == truth) < 0.99  # the blobs survive the CRF

    small = UnaryField(4, 5, 3, rng.normal(size=(20, 3)).astype(np.float32))
    small_feats = build_features(rng.uniform(0, 255, (4, 5, 3)), params)
    q, _ = mean_field_infer(small, small_feats, params, "exact")
    wide = replace(small, data=small.data.astype(np.float64))
    np.testing.assert_array_equal(q.data, mean_field_infer(wide, small_feats, params, "exact")[0].data)


def test_float32_mean_field_peaks_below_three_float32_arrays(rng):
    """The budget ``mean_field_infer`` states holds in arrays of the working
    dtype: a float32 lattice inference with held plans stays within 3
    float32 (N, L) arrays above its entry, so no float64 twin of U or Q is
    formed (160x120, L=23, T=5)."""
    import tracemalloc

    from conftest import random_flat_rgb

    h, w, labels = 120, 160, 23
    rgb, _ = random_flat_rgb(rng, h, w)
    params = CrfParams(iterations=5)
    probs = rng.dirichlet(np.ones(labels), size=h * w).astype(np.float32)
    u = unary_from_probabilities(LabelDistributionImage(h, w, labels, probs))
    feats = build_features(rgb, params)
    plans = tuple(plan_filter(f, "lattice", np.float32) for f in feats.per_kernel())
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        q, _ = mean_field_infer(u, feats, params, "lattice", plans=plans)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.data.dtype == np.float32
    arrays = (peak - entry) / (h * w * labels * 4)
    assert arrays <= 3.0, f"peak of {arrays:.2f} float32 (N, L) arrays"


def test_float32_mean_field_peak_follows_the_vertex_count(rng):
    """The budget ``mean_field_infer`` states on a textured frame, whose
    bilateral lattice has more vertices than points: a float32 lattice
    inference with held plans stays within 2 + 3(m + 1)/N float32 (N, L)
    arrays plus one row block above its entry (160x120 default frame at
    jitter 60, m/N 1.12, 5.37 arrays measured; L=23, T=5)."""
    import tracemalloc

    from voxcrf.lattice import _ROW_BLOCK
    from voxcrf.pipeline.labels import label_palette
    from voxcrf.pipeline.synthetic import default_scene_spec, orbit_poses, render_frame, shade_labels

    h, w, labels = 120, 160, 23
    spec = default_scene_spec(width=w, height=h, jitter=60.0)
    _, truth = render_frame(spec, orbit_poses(spec)[0])
    rgb = shade_labels(truth, label_palette(labels), 60.0, np.random.default_rng(0))
    params = CrfParams(iterations=5)
    probs = rng.dirichlet(np.ones(labels), size=h * w).astype(np.float32)
    u = unary_from_probabilities(LabelDistributionImage(h, w, labels, probs))
    feats = build_features(rgb, params)
    plans = tuple(plan_filter(f, "lattice", np.float32) for f in feats.per_kernel())
    n, m = h * w, max(p.vertices for p in plans)
    assert m > n  # three (m + 1, L) blur buffers outweigh three (N, L) arrays
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        mean_field_infer(u, feats, params, "lattice", plans=plans)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (peak - entry) / (n * labels * 4)
    budget = 2 + 3 * (m + 1) / n + _ROW_BLOCK / n
    assert arrays <= budget, f"peak of {arrays:.2f} float32 (N, L) arrays, budget {budget:.2f}"


def test_float32_backward_accumulates_dw_and_dmu_in_float64(rng):
    """A float32 trace runs the reverse sweep in float32 and returns dw and
    dmu in float64, within 1e-5 of the float64 gradients of the same
    inference, relative to their largest entry (4e-7 measured)."""
    u, feats, params = _scene_instance(rng)
    u32 = replace(u, data=u.data.astype(np.float32))
    g = rng.normal(size=u.data.shape)
    grads = {}
    for unary in (u32, u):
        _, trace = mean_field_infer(unary, feats, params, "lattice", cache_gradients=True)
        grads[unary.data.dtype] = mean_field_backward(trace, g)
    (du32, dw32, dmu32), (du64, dw64, dmu64) = grads[np.dtype(np.float32)], grads[np.dtype(np.float64)]
    assert (du32.dtype, dw32.dtype, dmu32.dtype) == (np.float32, np.float64, np.float64)
    assert np.abs(dw32 - dw64).max() <= 1e-5 * np.abs(dw64).max()
    assert np.abs(dmu32 - dmu64).max() <= 1e-5 * np.abs(dmu64).max()


@pytest.mark.parametrize("n", [1, 5, 2048, 2049, 2050, 2 * 2048 + 777])
def test_one_pass_step_equals_whole_array_logits_and_softmax(rng, n):
    """A step forms the logits u - C mu^T and their softmax over C one block
    of rows at a time, bit-equal to the whole GEMM followed by ``softmax``,
    also where a last block would hold one row.  A NaN in the last block
    raises naming the unary and leaves the input Q unchanged."""
    from voxcrf.crf import MeanFieldTrace, _step

    feats = FeatureField(rng.normal(size=(n, 5)), rng.normal(size=(n, 2)))
    plans = tuple(plan_filter(f, "lattice") for f in feats.per_kernel())
    weights, mu = np.array([0.8, 0.5]), rng.normal(size=(23, 23))
    q, u = softmax(rng.normal(size=(n, 23))), rng.normal(size=(n, 23))
    trace = MeanFieldTrace(plans, weights, mu, [q], [])
    q_new = _step(q, u, plans, weights, mu, 0, trace)
    np.testing.assert_array_equal(q_new, softmax(u - trace.combined[0] @ mu.T))
    before = q.copy()
    u[n - 1, 3] = np.nan
    with pytest.raises(NumericalError, match="adding the unary at iteration 0"):
        _step(q, u, plans, weights, mu, 0, None)
    np.testing.assert_array_equal(q, before)


# ---------------------------------------------------------------------------
# energy and brute force
# ---------------------------------------------------------------------------


def test_energy_single_pixel():
    u = unary_from_probabilities(dist_image([[0.8, 0.2]]))
    feats = build_features(np.zeros((1, 1, 3)), CrfParams())
    e = crf_energy(LabelImage(1, 1, np.array([0])), u, feats, CrfParams())
    assert e == pytest.approx(-np.log(0.8))


def test_energy_zero_weights_is_unary_sum(rng):
    u, feats, _ = random_instance(rng, 3, 3, 3)
    params = CrfParams(kernel_weights=np.zeros(2))
    x = LabelImage(3, 3, rng.integers(0, 3, size=9))
    e = crf_energy(x, u, feats, params)
    assert e == pytest.approx(-u.data[np.arange(9), x.data].sum())


def test_energy_two_identical_pixels_disagreement_cost():
    u = unary_from_probabilities(dist_image([[0.5, 0.5], [0.5, 0.5]], 1, 2))
    params = CrfParams(
        kernel_weights=np.array([1.0, 0.0]), theta_alpha=1e9, theta_beta=1e9
    )
    feats = build_features(np.full((1, 2, 3), 10.0), params)
    e_diff = crf_energy(LabelImage(1, 2, np.array([0, 1])), u, feats, params)
    e_same = crf_energy(LabelImage(1, 2, np.array([0, 0])), u, feats, params)
    assert e_diff - e_same == pytest.approx(1.0, abs=1e-12)  # k(f, f) = 1


def test_energy_matches_reference(rng):
    u, feats, params = random_instance(rng, 3, 3, 3)
    x = rng.integers(0, 3, size=9)
    e = crf_energy(LabelImage(3, 3, x), u, feats, params)
    ref = reference_energy(
        x, u.data, list(feats.per_kernel()), params.kernel_weights, potts_matrix(3)
    )
    assert e == pytest.approx(ref, rel=1e-12)


def test_energy_rejects_ignore():
    u = unary_from_probabilities(dist_image([[0.5, 0.5]]))
    feats = build_features(np.zeros((1, 1, 3)), CrfParams())
    with pytest.raises(InputError):
        crf_energy(LabelImage(1, 1, np.array([IGNORE_LABEL])), u, feats, CrfParams())


def test_brute_force_unary_argmax_single_pixel():
    u = unary_from_probabilities(dist_image([[0.8, 0.2]]))
    feats = build_features(np.zeros((1, 1, 3)), CrfParams())
    assert brute_force_map(u, feats, CrfParams()).data.tolist() == [0]


def test_brute_force_zero_weights_is_per_pixel_argmax(rng):
    u, feats, _ = random_instance(rng, 2, 3, 3)
    params = CrfParams(kernel_weights=np.zeros(2))
    m = brute_force_map(u, feats, params)
    assert np.array_equal(m.data, np.argmax(u.data, axis=1))


def test_brute_force_strong_coupling_flips_minority():
    probs = np.array([[0.3, 0.7], [0.2, 0.8], [0.25, 0.75], [0.7, 0.3]])
    u = unary_from_probabilities(dist_image(probs, 2, 2))
    params = CrfParams(kernel_weights=np.array([5.0, 5.0]))
    feats = build_features(np.full((2, 2, 3), 128.0), params)
    m = brute_force_map(u, feats, params)
    assert m.data.tolist() == [1, 1, 1, 1]
    # cross-check against enumerating energies through crf_energy
    energies = {}
    for bits in range(16):
        x = np.array([(bits >> k) & 1 for k in range(4)])
        energies[tuple(x)] = crf_energy(LabelImage(2, 2, x), u, feats, params)
    assert min(energies, key=energies.get) == (1, 1, 1, 1)


def test_brute_force_size_guard():
    h = w = 5  # 2^25 labelings
    probs = np.full((h * w, 2), 0.5)
    u = unary_from_probabilities(dist_image(probs, h, w))
    feats = build_features(np.zeros((h, w, 3)), CrfParams())
    with pytest.raises(SizeLimitError):
        brute_force_map(u, feats, CrfParams())


# ---------------------------------------------------------------------------
# map_labeling
# ---------------------------------------------------------------------------


def test_map_labeling_examples():
    assert map_labeling(dist_image([[0.8, 0.2]])).data.tolist() == [0]
    assert map_labeling(dist_image([[0.5, 0.5]])).data.tolist() == [0]  # tie rule
    assert map_labeling(dist_image([[0.1, 0.2, 0.7]])).data.tolist() == [2]


# ---------------------------------------------------------------------------
# mean_field_backward
# ---------------------------------------------------------------------------


def check_gradients(seed, h=6, w=6, L=3, iterations=5, step=1e-4, tol=1e-4):
    rng = np.random.default_rng(seed)
    rgb = rng.uniform(0, 255, (h, w, 3))
    probs = rng.dirichlet(np.ones(L), size=h * w)
    mu = rng.normal(0, 0.5, (L, L))
    weights = np.array([0.8, 0.5])
    params = CrfParams(kernel_weights=weights, compatibility=mu, iterations=iterations)
    unary = unary_from_probabilities(dist_image(probs, h, w))
    feats = build_features(rgb, params)
    loss_dir = rng.normal(size=(h * w, L))

    def forward(u_data, w_arr, mu_arr):
        p = CrfParams(kernel_weights=w_arr, compatibility=mu_arr, iterations=iterations)
        q, _ = mean_field_infer(UnaryField(h, w, L, u_data), feats, p, "exact")
        return float((loss_dir * q.data).sum())

    _, trace = mean_field_infer(unary, feats, params, "exact", cache_gradients=True)
    du, dw, dmu = mean_field_backward(trace, loss_dir)

    def central(f, x0):
        return (f(x0 + step) - f(x0 - step)) / (2 * step)

    worst = 0.0
    for i in range(h * w):
        for l in range(L):
            def f(v, i=i, l=l):
                u2 = unary.data.copy()
                u2[i, l] = v
                return forward(u2, weights, mu)
            fd = central(f, unary.data[i, l])
            worst = max(worst, abs(du[i, l] - fd) / max(abs(du[i, l]), abs(fd), 1e-6))
    for m in range(2):
        def f(v, m=m):
            w2 = weights.copy()
            w2[m] = v
            return forward(unary.data, w2, mu)
        fd = central(f, weights[m])
        worst = max(worst, abs(dw[m] - fd) / max(abs(dw[m]), abs(fd), 1e-6))
    for a in range(L):
        for b in range(L):
            def f(v, a=a, b=b):
                m2 = mu.copy()
                m2[a, b] = v
                return forward(unary.data, weights, m2)
            fd = central(f, mu[a, b])
            worst = max(worst, abs(dmu[a, b] - fd) / max(abs(dmu[a, b]), abs(fd), 1e-6))
    assert worst <= tol, f"gradient relative error {worst:.2e}"
    return worst


def test_gradients_match_finite_differences():
    check_gradients(seed=0)


def test_backward_t1_zero_weights_is_softmax_vjp(rng):
    h, w, L = 3, 3, 3
    u, feats, _ = random_instance(rng, h, w, L, iterations=1, weights=(0.0, 0.0))
    params = CrfParams(kernel_weights=np.zeros(2), iterations=1)
    g = rng.normal(size=(h * w, L))
    q, trace = mean_field_infer(u, feats, params, "exact", cache_gradients=True)
    du, dw, dmu = mean_field_backward(trace, g)
    qd = q.data
    expected = qd * (g - (g * qd).sum(axis=1, keepdims=True))
    assert du == pytest.approx(expected, abs=1e-12)
    assert np.all(dmu == 0.0)  # dP is multiplied into messages of weight 0... via combined
    # dw is generally nonzero even with w = 0
    assert np.any(dw != 0.0)


def test_backward_zero_loss_gradient(rng):
    u, feats, params = random_instance(rng, 4, 4, 3)
    _, trace = mean_field_infer(u, feats, params, "exact", cache_gradients=True)
    du, dw, dmu = mean_field_backward(trace, np.zeros((16, 3)))
    assert np.all(du == 0) and np.all(dw == 0) and np.all(dmu == 0)


def test_backward_rejects_a_loss_gradient_of_another_shape(rng):
    u, feats, params = random_instance(rng, 3, 3, 2)
    _, trace = mean_field_infer(u, feats, params, "exact", cache_gradients=True)
    with pytest.raises(InputError):
        mean_field_backward(trace, np.zeros((5, 2)))


def test_backward_requires_cached_trace(rng):
    """Without cache_gradients the trace is None, which once raised an
    AttributeError."""
    u, feats, params = random_instance(rng, 3, 3, 2)
    q, trace = mean_field_infer(u, feats, params, "exact")
    assert trace is None
    with pytest.raises(InputError, match="cache_gradients=True"):
        mean_field_backward(trace, np.zeros_like(q.data))


def _dw_from_messages(trace, dloss_dq):
    """dw as sum_t <dc_t, M_m Q_t>, each kernel's message formed by its
    plan's ``apply``; the reverse sweep is that of ``mean_field_backward``."""
    weights, mu = trace.weights, trace.compatibility
    g, dw = dloss_dq, np.zeros_like(weights)
    for t in range(len(trace.combined) - 1, -1, -1):
        q_next = trace.q_states[t + 1]
        dp = -q_next * (g - (g * q_next).sum(axis=1, keepdims=True))
        dc = dp @ mu
        for m, plan in enumerate(trace.plans):
            dw[m] += float((dc * plan.apply(trace.q_states[t])).sum())
        g = sum(w * plan.apply_transpose(dc) for w, plan in zip(weights, trace.plans))
    return dw


@pytest.mark.parametrize("backend", ["exact", "lattice"])
def test_weight_gradient_matches_message_oracle(rng, backend):
    """dw formed from each kernel's transpose, <M_m^T dc, Q>, equals
    <dc, M_m Q> formed from its messages: apply_transpose is the exact
    adjoint of apply, so the two differ by rounding only (8.4e-16 relative
    on exact and 3.3e-16 on lattice, whose plan has starved points, here)."""
    u, feats, params = _scene_instance(rng)
    _, trace = mean_field_infer(u, feats, params, backend, cache_gradients=True)
    g = rng.normal(size=trace.q_states[0].shape)
    _, dw, _ = mean_field_backward(trace, g)
    expected = _dw_from_messages(trace, g)
    assert np.abs(dw - expected).max() <= 1e-13 * np.abs(expected).max()


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def make_training_set(rng, n_images=2, h=6, w=6, L=3, noise=0.3):
    from voxcrf.pipeline.synthetic import corrupt_unaries, make_piecewise_labels, shade_labels
    from voxcrf.pipeline.labels import label_palette

    dataset = []
    for _ in range(n_images):
        truth = make_piecewise_labels(h, w, L, rng, num_rects=2)
        rgb = shade_labels(truth, label_palette(L), 8.0, rng)
        probs = corrupt_unaries(truth, L, noise, 0.6, rng)
        dataset.append(
            (
                rgb.astype(np.float64),
                dist_image(probs, h, w),
                LabelImage(h, w, truth.reshape(-1)),
            )
        )
    return dataset


def test_train_zero_epochs_returns_initial(rng):
    dataset = make_training_set(rng)
    params = train_crf_params(dataset, learning_rate=0.1, epochs=0, seed=0)
    base = CrfParams()
    assert np.array_equal(params.kernel_weights, base.kernel_weights)
    assert np.array_equal(params.compatibility, potts_matrix(3))


def test_train_result_shares_no_array_with_initial_params(rng):
    dataset = make_training_set(rng)
    init = CrfParams(compatibility=potts_matrix(3))
    params = train_crf_params(dataset, learning_rate=0.1, epochs=0, seed=0, params=init)
    assert np.array_equal(params.compatibility, init.compatibility)
    assert not np.shares_memory(params.compatibility, init.compatibility)
    assert not np.shares_memory(params.kernel_weights, init.kernel_weights)


def test_train_loss_never_increases_over_best(rng):
    dataset = make_training_set(rng, n_images=2)

    def dataset_loss(params):
        total = 0.0
        for rgb, probs, truth in dataset:
            u = unary_from_probabilities(probs)
            feats = build_features(rgb, params)
            q, _ = mean_field_infer(u, feats, params, "exact")
            valid = truth.data != IGNORE_LABEL
            p = np.maximum(q.data[valid, truth.data[valid]], 1e-8)
            total += float(-np.log(p).mean())
        return total / len(dataset)

    init = CrfParams(iterations=3)
    trained = train_crf_params(
        dataset, learning_rate=0.05, epochs=10, seed=0, params=init, backend="exact"
    )
    assert dataset_loss(trained) <= dataset_loss(init) + 1e-12
    assert np.all(trained.kernel_weights >= 0)


def test_train_deterministic_given_seed(rng):
    dataset = make_training_set(rng)
    a = train_crf_params(dataset, learning_rate=0.05, epochs=3, seed=7)
    b = train_crf_params(dataset, learning_rate=0.05, epochs=3, seed=7)
    assert np.array_equal(a.kernel_weights, b.kernel_weights)
    assert np.array_equal(a.compatibility, b.compatibility)


def test_train_builds_each_spatial_plan_once(rng, plan_builds):
    dataset = make_training_set(rng, n_images=3)
    train_crf_params(dataset, learning_rate=0.05, epochs=1, seed=0)
    # one bilateral plan is held: the loss pass builds 3 and ends on the
    # epoch's first image, the epoch builds 2 and ends on the final loss
    # pass's first image, which builds 2 more
    assert [s for s in plan_builds if s[1] == 5] == [(36, 5)] * 7
    assert [s for s in plan_builds if s[1] == 2] == [(36, 2)]

    del plan_builds[:]
    train_crf_params(dataset, learning_rate=0.05, epochs=3, seed=0)
    # seed 0 orders the epochs [2 0 1], [1 0 2], [2 1 0]: each later epoch
    # starts on the image the one before ended on, which the loss pass
    # between them can reuse at one end only, so those epochs build all 3:
    # 3 + 2 + (2 + 3) * 2 + 2
    assert [s for s in plan_builds if s[1] == 5] == [(36, 5)] * 17

    del plan_builds[:]
    mixed = make_training_set(rng, n_images=2) + make_training_set(rng, 1, h=5, w=7)
    train_crf_params(mixed[::-1] + mixed[:1], learning_rate=0.05, epochs=1, seed=0)
    assert sorted(s for s in plan_builds if s[1] == 2) == [(35, 2), (36, 2)]


def train_with_fresh_plans(dataset, learning_rate, epochs, seed, backend):
    """``train_crf_params`` as it was before it held plans: every inference
    builds its own, and each loss pass runs in index order."""
    from voxcrf.crf import _cross_entropy_and_grad

    p = CrfParams(compatibility=potts_matrix(dataset[0][1].labels))
    prepared = [
        (unary_from_probabilities(probs), build_features(rgb, p), truth.data)
        for rgb, probs, truth in dataset
    ]

    def dataset_loss(p):
        total = 0.0
        for u, feats, truth in prepared:
            q, _ = mean_field_infer(u, feats, p, backend)
            total += _cross_entropy_and_grad(q.data, truth)[0]
        return total / len(prepared)

    best, best_loss = p, dataset_loss(p)
    rng = np.random.default_rng(seed)
    order = np.arange(len(prepared))
    for _ in range(epochs):
        rng.shuffle(order)
        for i in order:
            u, feats, truth = prepared[i]
            q, trace = mean_field_infer(u, feats, p, backend, cache_gradients=True)
            _, grad = _cross_entropy_and_grad(q.data, truth)
            if grad is None:
                continue
            _, dw, dmu = mean_field_backward(trace, grad)
            p = replace(
                p,
                kernel_weights=np.maximum(p.kernel_weights - learning_rate * dw, 0.0),
                compatibility=p.compatibility - learning_rate * dmu,
            )
        loss = dataset_loss(p)
        if loss < best_loss:
            best, best_loss = p, loss
    return best


@pytest.mark.parametrize("backend", ["exact", "lattice"])
def test_train_shared_plans_bit_equal_to_fresh_plans(rng, backend):
    dataset = make_training_set(rng, n_images=2) + make_training_set(rng, 2, h=5, w=7)
    rgb, probs, truth = dataset[1]
    ignored = np.full_like(truth.data, IGNORE_LABEL)
    dataset[1] = (rgb, probs, LabelImage(truth.height, truth.width, ignored))
    for epochs in (0, 1, 3):
        held = train_crf_params(dataset, 0.05, epochs, seed=1, backend=backend)
        fresh = train_with_fresh_plans(dataset, 0.05, epochs, seed=1, backend=backend)
        assert held.to_dict() == fresh.to_dict()


def test_train_runs_no_inference_on_unlabelled_images(rng, monkeypatch):
    """An all-IGNORE image has loss 0 and no gradient: neither a step nor a
    loss pass runs inference on it (3 images, one unlabelled, 2 epochs: 10
    inferences, 4 of them traced, against 15 and 6 when it ran)."""
    import voxcrf.crf as crf

    dataset = make_training_set(rng, n_images=3)
    rgb, probs, truth = dataset[1]
    dataset[1] = (rgb, probs, LabelImage(6, 6, np.full(36, IGNORE_LABEL)))
    calls = []
    original = crf.mean_field_infer

    def counting(u, features, params, backend, cache_gradients=False, plans=()):
        calls.append((features.bilateral.tobytes(), cache_gradients))
        return original(u, features, params, backend, cache_gradients, plans)

    monkeypatch.setattr(crf, "mean_field_infer", counting)
    trained = train_crf_params(dataset, learning_rate=0.05, epochs=2, seed=0)
    unlabelled = build_features(rgb, CrfParams()).bilateral.tobytes()
    assert len(calls) == 10 and sum(traced for _, traced in calls) == 4
    assert all(features != unlabelled for features, _ in calls)
    monkeypatch.setattr(crf, "mean_field_infer", original)
    fresh = train_with_fresh_plans(dataset, 0.05, 2, seed=0, backend="exact")
    assert trained.to_dict() == fresh.to_dict()


def test_train_holds_one_exact_kernel(rng):
    import tracemalloc

    h, w = 30, 40
    dataset = make_training_set(rng, n_images=3, h=h, w=w)
    kernel_bytes = (h * w) ** 2 * 8
    tracemalloc.start()
    try:
        train_crf_params(dataset, learning_rate=0.05, epochs=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one kernel plus a build's block of row differences (64 x N x 5 floats,
    # 0.27 of the kernel at N = 1200); two kernels alive at once, as when a
    # step's trace is kept while the next image's plan is built, exceed it
    assert peak < 1.5 * kernel_bytes


def test_train_config_errors(rng, plan_builds):
    dataset = make_training_set(rng)
    with pytest.raises(ConfigError):
        train_crf_params([], learning_rate=0.1, epochs=1)
    with pytest.raises(ConfigError):
        train_crf_params(dataset, learning_rate=0.0, epochs=1)
    for lr in (float("nan"), float("inf")):  # once failed after a step, naming the weights
        with pytest.raises(ConfigError, match="learning rate must be positive and finite"):
            train_crf_params(dataset, learning_rate=lr, epochs=1)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -3"):  # once numpy's error
        train_crf_params(dataset, learning_rate=0.1, epochs=1, seed=-3)
    # once: 2.5 ran 2 epochs and True 1, nan and a fractional seed failed
    # only after a full loss pass
    for epochs in (2.5, True, float("nan")):
        with pytest.raises(ConfigError, match="epochs must be an integer"):
            train_crf_params(dataset, learning_rate=0.1, epochs=epochs)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        train_crf_params(dataset, learning_rate=0.1, epochs=1, seed=1.5)
    assert plan_builds == []
    whole = train_crf_params(dataset, learning_rate=0.1, epochs=2, seed=2).to_dict()
    for epochs, seed in ((2.0, np.int64(2)), (np.int64(2), 2.0)):
        params = train_crf_params(dataset, learning_rate=0.1, epochs=epochs, seed=seed)
        assert params.to_dict() == whole


# ---------------------------------------------------------------------------
# tiny-instance MAP sanity (regression statistic)
# ---------------------------------------------------------------------------


def test_map_sanity_statistic_on_tiny_instances():
    """Across a fixed 100-seed suite of strongly coupled 2x2 binary instances,
    the mean-field MAP stays within 5% of the exhaustive optimum energy on
    average (individual instances may land in local optima)."""
    ratios = []
    for seed in range(100):
        r = np.random.default_rng(seed)
        probs = r.dirichlet(np.ones(2), size=4)
        rgb = np.full((2, 2, 3), 100.0) + r.uniform(-5, 5, (2, 2, 3))
        params = CrfParams(kernel_weights=np.array([3.0, 3.0]), iterations=10)
        u = unary_from_probabilities(dist_image(probs, 2, 2))
        feats = build_features(rgb, params)
        q, _ = mean_field_infer(u, feats, params, "exact")
        e_mf = crf_energy(map_labeling(q), u, feats, params)
        e_bf = crf_energy(brute_force_map(u, feats, params), u, feats, params)
        assert e_bf > 0
        ratios.append(e_mf / e_bf)
    mean_excess = float(np.mean(ratios)) - 1.0
    within = float(np.mean(np.array(ratios) <= 1.05))
    assert mean_excess <= 0.05, f"mean relative excess {mean_excess:.4f}"
    assert within >= 0.9, f"only {within:.0%} of instances within 5% of optimal"
