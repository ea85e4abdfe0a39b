"""Fully-connected CRF over an image.

Energy evaluation, mean-field inference unrolled for a fixed number of
iterations, reverse-mode gradients for the learnable parameters (kernel
weights and label compatibility), and small-scale gradient-descent training.

One mean-field iteration is the usual five-stage stack: per-kernel Gaussian
message passing (self-excluded, normalized per pixel), weighting, the
compatibility transform, adding the unary, and a softmax renormalization.
Message passing runs on a ``FilterPlan`` (exact or lattice backend); all
other stages are dense (N, L) array operations, done in place where no
trace keeps their inputs: the weighted sum in the first message buffer, and
the unary and the softmax in the output of the compatibility GEMM.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from typing import NoReturn

import numpy as np

from .errors import ConfigError, InputError, NumericalError, SizeLimitError
from .filtering import FilterPlan, _kernel_rows, plan_filter

IGNORE_LABEL = 255
PROB_FLOOR = 1e-8  # probabilities clamped here before taking logs
BRUTE_FORCE_LIMIT = 2**20  # max number of labelings enumerated
ENERGY_PIXEL_LIMIT = 4096  # crf_energy materializes N x N kernels


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def _grid_data(height: int, width: int, labels: int, data) -> np.ndarray:
    """``data`` as a contiguous (height * width, labels) float64 array;
    ``InputError`` on non-positive dimensions or a shape mismatch."""
    if height <= 0 or width <= 0 or labels <= 0:
        raise InputError(f"dimensions must be positive, got {height}x{width}x{labels}")
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.shape != (height * width, labels):
        raise InputError(f"data shape {data.shape} != ({height * width}, {labels})")
    return data


@dataclass
class LabelDistributionImage:
    """Per-pixel probability vectors over L labels, pixels in row-major order."""

    height: int
    width: int
    labels: int
    data: np.ndarray  # (height * width, labels) float64

    def __post_init__(self):
        self.data = _grid_data(self.height, self.width, self.labels, self.data)

    def validate(self) -> "LabelDistributionImage":
        if np.any(self.data < 0):
            raise InputError("negative probability entry")
        sums = self.data.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-6:
            raise InputError(f"per-pixel sums deviate from 1 by {np.abs(sums - 1.0).max():.2e}")
        return self


@dataclass
class UnaryField:
    """Per-pixel log-potentials; exp + normalize recovers probabilities."""

    height: int
    width: int
    labels: int
    data: np.ndarray  # (height * width, labels) float64

    def __post_init__(self):
        self.data = _grid_data(self.height, self.width, self.labels, self.data)
        if not np.all(np.isfinite(self.data)):
            raise InputError("non-finite unary potential")


@dataclass
class FeatureField:
    """Per-pixel, θ-scaled feature vectors for the M = 2 Gaussian kernels."""

    bilateral: np.ndarray  # (N, 5): x/θα, y/θα, R/θβ, G/θβ, B/θβ
    spatial: np.ndarray  # (N, 2): x/θγ, y/θγ

    def __post_init__(self):
        self.bilateral = np.ascontiguousarray(self.bilateral, dtype=np.float64)
        self.spatial = np.ascontiguousarray(self.spatial, dtype=np.float64)
        if self.bilateral.ndim != 2 or self.bilateral.shape[1] != 5:
            raise InputError(f"bilateral features must be (N, 5), got {self.bilateral.shape}")
        if self.spatial.shape != (self.bilateral.shape[0], 2):
            raise InputError(f"spatial features must be (N, 2), got {self.spatial.shape}")

    @property
    def num_points(self) -> int:
        return self.bilateral.shape[0]

    def per_kernel(self) -> tuple[np.ndarray, ...]:
        return (self.bilateral, self.spatial)


def potts_matrix(labels: int) -> np.ndarray:
    """Compatibility penalizing only differing labels: 0 diagonal, 1 elsewhere."""
    return np.ones((labels, labels)) - np.eye(labels)


@dataclass
class CrfParams:
    """Kernel weights, label compatibility, kernel scales and iteration count.

    ``compatibility=None`` stands for the Potts matrix of whatever label
    count the params are used with; θ values are fixed hyperparameters.
    """

    kernel_weights: np.ndarray = field(default_factory=lambda: np.array([5.0, 3.0]))
    compatibility: np.ndarray | None = None
    theta_alpha: float = 61.0
    theta_beta: float = 11.0
    theta_gamma: float = 3.0
    iterations: int = 5

    def __post_init__(self):
        self.kernel_weights = np.asarray(self.kernel_weights, dtype=np.float64)
        if self.kernel_weights.shape != (2,):
            raise ConfigError(f"expected 2 kernel weights, got {self.kernel_weights.shape}")
        if not np.all(np.isfinite(self.kernel_weights)) or np.any(self.kernel_weights < 0):
            raise ConfigError("kernel weights must be finite and >= 0")
        if self.compatibility is not None:
            self.compatibility = np.asarray(self.compatibility, dtype=np.float64)
            c = self.compatibility
            if c.ndim != 2 or c.shape[0] != c.shape[1] or not np.all(np.isfinite(c)):
                raise ConfigError("compatibility must be a finite square matrix")
        for name in ("theta_alpha", "theta_beta", "theta_gamma"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0:
                raise ConfigError(f"{name} must be positive, got {v}")
        if int(self.iterations) < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        self.iterations = int(self.iterations)

    def compatibility_for(self, labels: int) -> np.ndarray:
        if self.compatibility is None:
            return potts_matrix(labels)
        if self.compatibility.shape != (labels, labels):
            raise ConfigError(
                f"compatibility is {self.compatibility.shape}, need ({labels}, {labels})"
            )
        return self.compatibility

    def to_dict(self) -> dict:
        """The fields as JSON-ready values (arrays as nested lists, Potts
        ``compatibility`` as None); ``pipeline.manifest.apply_overrides``
        reads the mapping back."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


@dataclass
class LabelImage:
    """Per-pixel label ids in [0, L), 255 = IGNORE, pixels row-major."""

    height: int
    width: int
    data: np.ndarray  # (height * width,) integer

    def __post_init__(self):
        if self.height <= 0 or self.width <= 0:
            raise InputError(f"dimensions must be positive, got {self.height}x{self.width}")
        self.data = np.ascontiguousarray(self.data, dtype=np.int64).reshape(-1)
        if self.data.shape != (self.height * self.width,):
            raise InputError(
                f"data length {self.data.shape[0]} != {self.height * self.width}"
            )

    def validate(self, labels: int) -> "LabelImage":
        bad = (self.data != IGNORE_LABEL) & ((self.data < 0) | (self.data >= labels))
        if np.any(bad):
            raise InputError(f"label id out of range [0, {labels}) at pixel {int(np.argmax(bad))}")
        return self


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; ``logits`` is not written."""
    return _softmax_into(logits, np.empty_like(logits, dtype=np.float64))


def _softmax_into(logits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of ``logits`` written to ``out``, which may
    be ``logits`` itself."""
    np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def _softmax_vjp(q: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product of a row-wise softmax with output q."""
    return q * (grad - (grad * q).sum(axis=1, keepdims=True))


def unary_from_probabilities(probs: LabelDistributionImage) -> UnaryField:
    """Log-potentials U = log(clamped probabilities); softmax(U) recovers the input."""
    probs.validate()
    u = np.log(np.maximum(probs.data, PROB_FLOOR))
    return UnaryField(probs.height, probs.width, probs.labels, u)


def build_features(rgb: np.ndarray, params: CrfParams) -> FeatureField:
    """θ-scaled bilateral and spatial features from an (H, W, 3) color image.

    Pixel coordinates are (x, y) = (column, row) in pixels, colors 0-255.
    """
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise InputError(f"rgb must be (H, W, 3), got {rgb.shape}")
    h, w = rgb.shape[:2]
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    color = rgb.reshape(-1, 3).astype(np.float64)
    x = xx.reshape(-1)
    y = yy.reshape(-1)
    bilateral = np.column_stack(
        [x / params.theta_alpha, y / params.theta_alpha, color / params.theta_beta]
    )
    spatial = np.column_stack([x / params.theta_gamma, y / params.theta_gamma])
    return FeatureField(bilateral, spatial)


def map_labeling(q: LabelDistributionImage) -> LabelImage:
    """Per-pixel argmax of the marginals, ties toward the smallest label id."""
    return LabelImage(q.height, q.width, np.argmax(q.data, axis=1))


# ---------------------------------------------------------------------------
# mean-field inference
# ---------------------------------------------------------------------------


@dataclass
class MeanFieldTrace:
    """Cached intermediates of an unrolled inference, consumed by backward."""

    plans: tuple[FilterPlan, ...]
    weights: np.ndarray
    compatibility: np.ndarray
    q_states: list[np.ndarray]  # T+1 entries; [0] is softmax(U)
    messages: list[list[np.ndarray]]  # per iteration, per kernel
    combined: list[np.ndarray]  # per iteration


def _check_finite(arr: np.ndarray, stage: str, iteration: int) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite value in {stage} at iteration {iteration}")


def _raise_non_finite(
    q: np.ndarray,
    plans: tuple[FilterPlan, ...],
    weights: np.ndarray,
    mu: np.ndarray,
    iteration: int,
) -> NoReturn:
    """Raise ``NumericalError`` naming the first stage of an iteration whose
    logits were non-finite.  Runs only on that failure path: the stages are
    recomputed from the iteration's input Q (each is deterministic) and
    checked one by one."""
    msgs = [plan.apply(q) for plan in plans]
    for m, msg in enumerate(msgs):
        _check_finite(msg, f"message passing (kernel {m})", iteration)
    pairwise = _weighted_sum(msgs, weights, in_place=True) @ mu.T
    _check_finite(pairwise, "compatibility transform", iteration)
    raise NumericalError(f"non-finite value in adding the unary at iteration {iteration}")


def _step(
    q: np.ndarray,
    u: np.ndarray,
    plans: tuple[FilterPlan, ...],
    weights: np.ndarray,
    mu: np.ndarray,
    iteration: int,
    trace: MeanFieldTrace | None,
) -> np.ndarray:
    msgs = [plan.apply(q) for plan in plans]
    # Without a trace the first message buffer becomes ``combined`` and the
    # others are freed before the GEMM; a trace keeps them for backward.
    keep = trace is not None
    combined = _weighted_sum(msgs, weights, in_place=not keep)
    if keep:
        trace.messages.append(msgs)
        trace.combined.append(combined)
    del msgs
    # logits = u - combined mu^T, formed in the GEMM output; one finite
    # check covers every stage (softmax of finite logits is finite)
    logits = combined @ mu.T
    del combined
    np.subtract(u, logits, out=logits)
    if not np.all(np.isfinite(logits)):
        _raise_non_finite(q, plans, weights, mu, iteration)
    q_new = _softmax_into(logits, logits)
    if keep:
        trace.q_states.append(q_new)
    return q_new


def _weighted_sum(msgs: list[np.ndarray], weights: np.ndarray, in_place: bool) -> np.ndarray:
    """sum_m w_m msg_m; ``in_place`` scales the messages in place and
    returns the first one's buffer."""
    combined = np.multiply(msgs[0], weights[0], out=msgs[0] if in_place else None)
    for w, msg in zip(weights[1:], msgs[1:]):
        combined += np.multiply(msg, w, out=msg if in_place else None)
    return combined


def reuse_plan(
    features: np.ndarray, backend: str = "exact", plans: Sequence[FilterPlan] = ()
) -> FilterPlan:
    """The first of ``plans`` built on equal features with the same backend,
    else a new plan from :func:`plan_filter`."""
    for plan in plans:
        if plan.backend == backend and np.array_equal(plan.features, features):
            return plan
    return plan_filter(features, backend)


def _build_plans(
    features: FeatureField, backend: str, plans: Sequence[FilterPlan | None] | None = None
) -> tuple[FilterPlan, ...]:
    """One plan per kernel: the prebuilt entry of ``plans`` where one is
    given, else a new plan.  Prebuilt plans are checked before any build."""
    kernels = features.per_kernel()
    given = (None,) * len(kernels) if plans is None else tuple(plans)
    if len(given) != len(kernels):
        raise InputError(f"expected {len(kernels)} plans (or None), got {len(given)}")
    for m, (f, plan) in enumerate(zip(kernels, given)):
        if plan is None:
            continue
        if (plan.n, plan.dim) != f.shape:
            raise InputError(
                f"plan for kernel {m} is ({plan.n}, {plan.dim}), features are {f.shape}"
            )
        if plan.backend != backend:
            raise InputError(
                f"plan for kernel {m} is {plan.backend}, inference asks for {backend}"
            )
    return tuple(
        plan_filter(f, backend) if plan is None else plan for f, plan in zip(kernels, given)
    )


def _check_dims(u: UnaryField, features: FeatureField) -> None:
    if features.num_points != u.height * u.width:
        raise InputError(
            f"feature count {features.num_points} != pixel count {u.height * u.width}"
        )


def mean_field_infer(
    u: UnaryField,
    features: FeatureField,
    params: CrfParams,
    backend: str = "exact",
    cache_gradients: bool = False,
    plans: Sequence[FilterPlan | None] | None = None,
) -> tuple[LabelDistributionImage, MeanFieldTrace | None]:
    """Run T mean-field iterations from Q0 = softmax(U).

    With ``cache_gradients`` the returned trace retains every intermediate
    needed by :func:`mean_field_backward`.  ``plans`` may hold a prebuilt
    plan per kernel (bilateral, spatial), None where one is to be built; a
    prebuilt plan whose shape or backend does not match raises
    ``InputError``.

    Memory budget: with prebuilt plans and no trace, the allocations of one
    inference peak at no more than five float64 (N, L) arrays above those
    at entry on image-like features (Q, the combined messages, the message
    being filtered, and the lattice blur buffers of (m + 1, L) for m
    vertices, small next to N there).  A non-finite value raises
    ``NumericalError`` naming the stage and iteration.
    """
    _check_dims(u, features)
    mu = params.compatibility_for(u.labels)
    plans = _build_plans(features, backend, plans)
    q = softmax(u.data)
    _check_finite(q, "initialization", 0)
    trace = None
    if cache_gradients:
        trace = MeanFieldTrace(plans, params.kernel_weights.copy(), mu.copy(), [q], [], [])
    for t in range(params.iterations):
        q = _step(q, u.data, plans, params.kernel_weights, mu, t, trace)
    return LabelDistributionImage(u.height, u.width, u.labels, q), trace


def mean_field_backward(
    trace: MeanFieldTrace, dloss_dq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reverse-mode gradients (dU, dw, dμ) for a cached inference.

    The message-passing transpose is each plan's ``apply_transpose``, the
    exact adjoint of ``apply`` with its normalizers held constant; gradients
    for the shared parameters accumulate across iterations.
    """
    if not trace.q_states or not trace.messages:
        raise InputError("trace was not recorded with cache_gradients=True")
    q_final = trace.q_states[-1]
    g = np.asarray(dloss_dq, dtype=np.float64)
    if g.shape != q_final.shape:
        raise InputError(f"loss gradient shape {g.shape} != Q shape {q_final.shape}")

    weights, mu = trace.weights, trace.compatibility
    num_iters = len(trace.messages)
    du = np.zeros_like(q_final)
    dw = np.zeros_like(weights)
    dmu = np.zeros_like(mu)

    for t in range(num_iters - 1, -1, -1):
        ds = _softmax_vjp(trace.q_states[t + 1], g)
        du += ds
        dp = -ds
        dmu += dp.T @ trace.combined[t]
        dc = dp @ mu
        for m, plan in enumerate(trace.plans):
            dw[m] += float((dc * trace.messages[t][m]).sum())
        g = sum(w * plan.apply_transpose(dc) for w, plan in zip(weights, trace.plans))
    du += _softmax_vjp(trace.q_states[0], g)
    return du, dw, dmu


# ---------------------------------------------------------------------------
# energy and exhaustive MAP
# ---------------------------------------------------------------------------


def _weighted_kernel(features: FeatureField, params: CrfParams) -> np.ndarray:
    """Dense sum over kernels of w_m (K_m - I), the exact pairwise weights."""
    kernels = (_kernel_rows(f, 0, len(f)) for f in features.per_kernel())
    return sum(w * k for w, k in zip(params.kernel_weights, kernels))


def crf_energy(
    x: LabelImage, u: UnaryField, features: FeatureField, params: CrfParams
) -> float:
    """Exact O(N^2) Gibbs energy of a labeling: unary plus pairwise terms.

    Diagnostics only; refuses instances above ENERGY_PIXEL_LIMIT pixels.
    """
    if (x.height, x.width) != (u.height, u.width):
        raise InputError("labeling and unary dimensions differ")
    if np.any(x.data == IGNORE_LABEL):
        raise InputError("labeling contains IGNORE pixels")
    x.validate(u.labels)
    _check_dims(u, features)
    n = x.data.shape[0]
    if n > ENERGY_PIXEL_LIMIT:
        raise SizeLimitError(f"energy evaluation is O(N^2); {n} > {ENERGY_PIXEL_LIMIT} pixels")

    labels = x.data
    unary = -u.data[np.arange(n), labels].sum()
    mu = params.compatibility_for(u.labels)
    k_total = _weighted_kernel(features, params)
    mu_x = mu[labels[:, None], labels[None, :]]
    pairwise = float(np.triu(mu_x * k_total, k=1).sum())
    return float(unary) + pairwise


def brute_force_map(
    u: UnaryField, features: FeatureField, params: CrfParams
) -> LabelImage:
    """Exhaustive minimum-energy labeling; ties break to the lexicographically
    smallest labeling.  Requires L^N <= 2^20."""
    n = u.height * u.width
    num_labels = u.labels
    if float(num_labels) ** n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            f"{num_labels}^{n} labelings exceed the enumeration limit {BRUTE_FORCE_LIMIT}"
        )
    _check_dims(u, features)
    mu = params.compatibility_for(num_labels)
    k_total = _weighted_kernel(features, params)
    iu, ju = np.triu_indices(n, k=1)
    k_flat = k_total[iu, ju]

    best_energy = np.inf
    best = None
    chunk = 1 << 14
    total = num_labels**n
    # enumerate labelings in lexicographic order; argmin keeps the first optimum
    powers = num_labels ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        labs = (idx[:, None] // powers[None, :]) % num_labels
        unary = -u.data[np.arange(n)[None, :], labs].sum(axis=1)
        pair = (mu[labs[:, iu], labs[:, ju]] * k_flat[None, :]).sum(axis=1)
        energies = unary + pair
        j = int(np.argmin(energies))
        if energies[j] < best_energy:
            best_energy = float(energies[j])
            best = labs[j]
    return LabelImage(u.height, u.width, best)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _cross_entropy_and_grad(
    q: np.ndarray, truth: np.ndarray
) -> tuple[float, np.ndarray | None]:
    """Mean cross-entropy over non-IGNORE pixels and its gradient wrt q."""
    valid = truth != IGNORE_LABEL
    nv = int(valid.sum())
    if nv == 0:
        return 0.0, None
    rows = np.flatnonzero(valid)
    p = np.maximum(q[rows, truth[rows]], PROB_FLOOR)
    loss = float(-np.log(p).mean())
    grad = np.zeros_like(q)
    grad[rows, truth[rows]] = -1.0 / (nv * p)
    return loss, grad


def train_crf_params(
    dataset: list[tuple[np.ndarray, LabelDistributionImage, LabelImage]],
    learning_rate: float,
    epochs: int,
    seed: int = 0,
    params: CrfParams | None = None,
    backend: str = "exact",
) -> CrfParams:
    """Gradient descent on kernel weights and compatibility (θ held fixed).

    ``dataset`` holds (rgb, unary probabilities, ground-truth labels) per
    image; the loss is per-pixel cross-entropy of the final marginals with
    IGNORE pixels excluded.  Images are visited in a seed-shuffled order;
    the best parameters seen (by full-dataset loss) are returned, so the
    result never has higher training loss than the initial parameters.
    """
    if not dataset:
        raise ConfigError("empty training dataset")
    if learning_rate <= 0:
        raise ConfigError(f"learning rate must be positive, got {learning_rate}")
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    labels = dataset[0][1].labels
    for rgb, probs, truth in dataset:
        if probs.labels != labels:
            raise ConfigError("all images must share the label count")
        truth.validate(labels)

    base = params if params is not None else CrfParams()
    w = base.kernel_weights.copy()
    mu = base.compatibility_for(labels).copy()

    # Spatial features depend only on the image size, so images of one size
    # share one spatial plan for the whole run.  Bilateral plans are rebuilt
    # per inference: caching them per image would hold an exact-backend
    # N x N kernel for every image at once.
    spatial_plans: list[FilterPlan] = []
    prepared = []
    for rgb, probs, truth in dataset:
        u = unary_from_probabilities(probs)
        feats = build_features(rgb, base)
        spatial = reuse_plan(feats.spatial, backend, plans=spatial_plans)
        if spatial not in spatial_plans:
            spatial_plans.append(spatial)
        prepared.append((u, feats, truth.data, spatial))

    def dataset_loss(w_cur: np.ndarray, mu_cur: np.ndarray) -> float:
        p = replace(base, kernel_weights=w_cur, compatibility=mu_cur)
        total = 0.0
        for u, feats, truth, spatial in prepared:
            qf, _ = mean_field_infer(u, feats, p, backend, plans=(None, spatial))
            loss, _ = _cross_entropy_and_grad(qf.data, truth)
            total += loss
        return total / len(prepared)

    best_w, best_mu = w.copy(), mu.copy()
    best_loss = dataset_loss(w, mu)
    rng = np.random.default_rng(seed)
    order = np.arange(len(prepared))
    for _ in range(int(epochs)):
        rng.shuffle(order)
        for i in order:
            u, feats, truth, spatial = prepared[i]
            p = replace(base, kernel_weights=w, compatibility=mu)
            qf, trace = mean_field_infer(
                u, feats, p, backend, cache_gradients=True, plans=(None, spatial)
            )
            _, grad = _cross_entropy_and_grad(qf.data, truth)
            if grad is None:
                continue
            _, dw, dmu = mean_field_backward(trace, grad)
            w = np.maximum(w - learning_rate * dw, 0.0)
            mu = mu - learning_rate * dmu
        loss = dataset_loss(w, mu)
        if loss < best_loss:
            best_loss = loss
            best_w, best_mu = w.copy(), mu.copy()
    return replace(base, kernel_weights=best_w, compatibility=best_mu)
