import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxcrf.crf import (
    IGNORE_LABEL,
    CrfParams,
    LabelDistributionImage,
    LabelImage,
    UnaryField,
    brute_force_map,
    build_features,
    crf_energy,
    map_labeling,
    mean_field_backward,
    mean_field_infer,
    potts_matrix,
    softmax,
    train_crf_params,
    unary_from_probabilities,
)
from voxcrf.errors import ConfigError, InputError, NumericalError, SizeLimitError
from voxcrf.filtering import plan_filter

from _reference import reference_energy, reference_mean_field


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


def test_params_validation():
    with pytest.raises(ConfigError):
        CrfParams(kernel_weights=np.array([-1.0, 0.0]))
    with pytest.raises(ConfigError):
        CrfParams(theta_alpha=0.0)
    with pytest.raises(ConfigError):
        CrfParams(iterations=0)
    p = CrfParams()
    assert np.array_equal(p.compatibility_for(3), potts_matrix(3))


def test_label_image_validation():
    img = LabelImage(1, 3, np.array([0, IGNORE_LABEL, 1]))
    img.validate(2)
    with pytest.raises(InputError):
        LabelImage(1, 2, np.array([0, 2])).validate(2)


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


@pytest.mark.parametrize("backend", ["exact", "lattice"])
def test_prebuilt_plans_match_fresh_plans(rng, backend):
    u, feats, params = random_instance(rng, 6, 7, 3)
    fresh, _ = mean_field_infer(u, feats, params, backend)
    bilateral = plan_filter(feats.bilateral, backend)
    spatial = plan_filter(feats.spatial, backend)
    for plans in ((bilateral, spatial), (None, spatial), (bilateral, None), (None, None)):
        q, _ = mean_field_infer(u, feats, params, backend, plans=plans)
        assert np.array_equal(q.data, fresh.data)


def test_prebuilt_plan_mismatch_raises(rng, plan_builds):
    u, feats, params = random_instance(rng, 4, 5, 3)
    other_size = build_features(rng.uniform(0, 255, (5, 5, 3)), params)
    bad_plans = [
        (None, plan_filter(other_size.spatial, "exact")),  # wrong n
        (plan_filter(feats.spatial, "exact"), None),  # wrong dim
        (None, plan_filter(feats.spatial, "lattice")),  # wrong backend
        (plan_filter(feats.bilateral, "exact"),),  # wrong count
    ]
    for plans in bad_plans:
        with pytest.raises(InputError):
            mean_field_infer(u, feats, params, "exact", plans=plans)
    assert plan_builds == []  # checked before anything is built


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
    spatial.apply = lambda values: np.full_like(values, np.nan)
    with pytest.raises(NumericalError, match=r"message passing \(kernel 1\) at iteration 0"):
        mean_field_infer(u, feats, params, "exact", plans=(None, spatial))


def test_numerical_error_names_compatibility_transform(rng):
    # finite messages and parameters; every pairwise entry sums to ~2e308
    u, feats, _ = random_instance(rng, 4, 5, 3)
    params = CrfParams(kernel_weights=np.array([1e308, 1e308]), compatibility=np.ones((3, 3)))
    with np.errstate(over="ignore"), pytest.raises(
        NumericalError, match="compatibility transform at iteration 0"
    ):
        mean_field_infer(u, feats, params, "exact")


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


def test_backward_requires_cached_trace(rng):
    u, feats, params = random_instance(rng, 3, 3, 2)
    _, trace = mean_field_infer(u, feats, params, "exact", cache_gradients=True)
    with pytest.raises(InputError):
        mean_field_backward(trace, np.zeros((5, 2)))


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
    # 3 loss inferences, 3 steps, 3 loss inferences: 9 bilateral plans
    assert [s for s in plan_builds if s[1] == 5] == [(36, 5)] * 9
    assert [s for s in plan_builds if s[1] == 2] == [(36, 2)]

    del plan_builds[:]
    mixed = make_training_set(rng, n_images=2) + make_training_set(rng, 1, h=5, w=7)
    train_crf_params(mixed[::-1] + mixed[:1], learning_rate=0.05, epochs=1, seed=0)
    assert sorted(s for s in plan_builds if s[1] == 2) == [(35, 2), (36, 2)]


@pytest.mark.parametrize("backend", ["exact", "lattice"])
def test_train_shared_plans_bit_equal_to_fresh_plans(rng, monkeypatch, backend):
    import voxcrf.crf as crf
    from conftest import build_fresh_plan

    dataset = make_training_set(rng, n_images=3)
    shared = train_crf_params(dataset, learning_rate=0.05, epochs=2, seed=1, backend=backend)
    monkeypatch.setattr(crf, "reuse_plan", build_fresh_plan)
    fresh = train_crf_params(dataset, learning_rate=0.05, epochs=2, seed=1, backend=backend)
    assert np.array_equal(shared.kernel_weights, fresh.kernel_weights)
    assert np.array_equal(shared.compatibility, fresh.compatibility)


def test_train_config_errors(rng):
    dataset = make_training_set(rng)
    with pytest.raises(ConfigError):
        train_crf_params([], learning_rate=0.1, epochs=1)
    with pytest.raises(ConfigError):
        train_crf_params(dataset, learning_rate=0.0, epochs=1)


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
