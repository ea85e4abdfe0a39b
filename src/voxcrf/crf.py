"""Fully-connected CRF over an image.

Energy evaluation, mean-field inference unrolled for a fixed number of
iterations, reverse-mode gradients for the learnable parameters (kernel
weights and label compatibility), and small-scale gradient-descent training.

One mean-field iteration is the usual five-stage stack: per-kernel Gaussian
message passing (self-excluded, normalized per pixel), weighting, the
compatibility transform, adding the unary, and a softmax renormalization.
Message passing runs on a ``FilterPlan`` (exact or lattice backend); all
other stages are dense (N, L) array operations, done in place: the first
kernel's message buffer takes the weighted sum (the other kernels add
theirs into it a block of rows at a time), then one pass over its row
blocks writes each block's logits (compatibility GEMM plus unary), checks
them once from their min and max and takes their softmax in place.  Traced
inference runs the same step and copies the weighted sum into its trace
before that pass.

Row maxima and sums over the label axis (the softmax's, and those of the
probability checks, the unary reader, resampling and voxel fusion) come
from ``reduce_labels``: numpy reduces each short row in a loop of its own,
so it copies each row block label-major into one scratch buffer and
reduces whole rows of it, summing in numpy's own pairwise order so every
sum is bit-equal to ``sum(axis=1)``.

Inference runs in the dtype ``filtering.working_dtype`` gives the backend
and the unary: float32 on the lattice backend for a float32 unary (U, Q,
the messages, the compatibility GEMM and the softmax), float64 otherwise.
The parameters stay float64 in ``CrfParams`` and in the trace, so the
backward sweep, which runs in the trace's dtype, accumulates dw and dmu in
float64.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from typing import NoReturn

import numpy as np

from .errors import ConfigError, InputError, NumericalError, SizeLimitError, check_real
from .filtering import FilterPlan, _kernel_rows, plan_filter, working_dtype
from .lattice import row_blocks

IGNORE_LABEL = 255
PROB_FLOOR = 1e-8  # probabilities clamped here before taking logs
ENERGY_PIXEL_LIMIT = 4096  # crf_energy materializes N x N kernels


def check_label_count(labels: int, name: str = "labels") -> None:
    """``ConfigError`` naming ``name`` unless ``labels`` lies in
    [2, IGNORE_LABEL]: an 8-bit label image holds ids 0..L-1 and IGNORE."""
    if not 2 <= labels <= IGNORE_LABEL:
        raise ConfigError(f"{name} must be in [2, {IGNORE_LABEL}], got {labels}")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def _finite(arr: np.ndarray) -> bool:
    """Whether every entry is finite, from the min and max, which carry any
    NaN or inf, with no (N, L) bool."""
    return bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def _grid_data(height: int, width: int, labels: int, data) -> np.ndarray:
    """``data`` as a contiguous (height * width, labels) array, float32 when
    it is float32 and float64 otherwise: a unary file read in float32 for
    the lattice backend stays float32, as ``filtering.working_dtype`` chose;
    ``InputError`` on non-positive dimensions, values that are not real
    numbers (complex, strings, objects) or a shape mismatch."""
    if height <= 0 or width <= 0 or labels <= 0:
        raise InputError(f"dimensions must be positive, got {height}x{width}x{labels}")
    data = np.asarray(data)
    check_real(data, "data")
    data = np.ascontiguousarray(data, None if data.dtype == np.float32 else np.float64)
    if data.shape != (height * width, labels):
        raise InputError(f"data shape {data.shape} != ({height * width}, {labels})")
    return data


@dataclass
class LabelDistributionImage:
    """Per-pixel probability vectors over L labels, pixels in row-major order."""

    height: int
    width: int
    labels: int
    data: np.ndarray  # (height * width, labels) float32 or float64 (_grid_data)

    def __post_init__(self):
        self.data = _grid_data(self.height, self.width, self.labels, self.data)

    def validate(self) -> "LabelDistributionImage":
        # a NaN passes both tests below; min and max carry any NaN or inf
        low, high = self.data.min(), self.data.max()
        if not (np.isfinite(low) and np.isfinite(high)):
            raise InputError("non-finite probability entry")
        if low < 0:
            raise InputError("negative probability entry")
        sums = reduce_labels(self.data, np.add, np.float64)
        if np.abs(sums - 1.0).max() > 1e-6:
            raise InputError(f"per-pixel sums deviate from 1 by {np.abs(sums - 1.0).max():.2e}")
        return self


@dataclass
class UnaryField:
    """Per-pixel log-potentials; exp + normalize recovers probabilities.
    ``data`` is float32 when given float32 and float64 otherwise
    (``_grid_data``); inference on the lattice backend runs in float32 for a
    float32 unary, every other inference in float64."""

    height: int
    width: int
    labels: int
    data: np.ndarray  # (height * width, labels) float32 or float64

    def __post_init__(self):
        self.data = _grid_data(self.height, self.width, self.labels, self.data)
        if not _finite(self.data):
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


def integer_setting(name: str, value) -> int:
    """``value`` as an int when it is a whole, finite real number (``2.0``,
    ``np.int64(2)``); ``ConfigError`` naming ``name`` otherwise (``2.7``,
    nan, a bool, a string)."""
    whole = not isinstance(value, bool) and isinstance(value, numbers.Real)
    if whole and not isinstance(value, numbers.Integral):
        whole = math.isfinite(value) and float(value).is_integer()
    if not whole:
        raise ConfigError(f"{name} must be an integer, got {value!r:.80}")
    return int(value)


@dataclass
class CrfParams:
    """Kernel weights, label compatibility, kernel scales and iteration count.

    ``compatibility=None`` stands for the Potts matrix of whatever label
    count the params are used with; θ values are fixed hyperparameters.  The
    arrays are float64 copies owned by the params, never the caller's.
    """

    kernel_weights: np.ndarray = field(default_factory=lambda: np.array([5.0, 3.0]))
    compatibility: np.ndarray | None = None
    theta_alpha: float = 61.0
    theta_beta: float = 11.0
    theta_gamma: float = 3.0
    iterations: int = 5

    def __post_init__(self):
        self.kernel_weights = np.array(self.kernel_weights, dtype=np.float64)
        if self.kernel_weights.shape != (2,):
            raise ConfigError(f"expected 2 kernel weights, got {self.kernel_weights.shape}")
        if not np.all(np.isfinite(self.kernel_weights)) or np.any(self.kernel_weights < 0):
            raise ConfigError("kernel weights must be finite and >= 0")
        if self.compatibility is not None:
            self.compatibility = np.array(self.compatibility, dtype=np.float64)
            c = self.compatibility
            if c.ndim != 2 or c.shape[0] != c.shape[1] or not np.all(np.isfinite(c)):
                raise ConfigError("compatibility must be a finite square matrix")
        for name in ("theta_alpha", "theta_beta", "theta_gamma"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not 0 < v < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {v!r:.80}")
            setattr(self, name, float(v))
        self.iterations = integer_setting("iterations", self.iterations)
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")

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
        data = np.asarray(self.data).reshape(-1)
        check_real(data, "label data")
        whole = data.dtype.kind != "f" or np.isfinite(data) & (data == np.rint(data))
        if not np.all(whole):  # a cast to int64 would truncate 1.5 to 1
            i = int(np.argmin(whole))
            raise InputError(f"label {data[i]} at pixel {i} is not a whole number")
        self.data = np.ascontiguousarray(data, dtype=np.int64)
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


def reduce_labels(a: np.ndarray, ufunc, dtype=None) -> np.ndarray:
    """Per-row maxima (``ufunc`` ``np.maximum``) or sums (``np.add``, in
    ``dtype``, ``a``'s by default) over the label axis of an (N, L) array,
    bit-equal to ``a.max(axis=1)`` and ``a.sum(axis=1, dtype=dtype)``.

    numpy reduces each row in one short inner loop of its own.  Here each
    block of ``row_blocks`` is copied label-major into one (L, rows) scratch
    buffer, which stays in cache, and reduced by whole-row operations on
    it: maxima by halving (a max is exact in any order), sums in numpy's own
    pairwise order (``_pairwise_sum``), added to the identity 0 as numpy
    adds them.  ``tests/test_crf.py`` holds numpy's forms as the oracle.
    """
    dtype = a.dtype if dtype is None else np.dtype(dtype)
    out = np.empty(len(a), dtype)
    blocks = list(row_blocks(len(a)))
    buf = np.empty((a.shape[1], max((e - s for s, e in blocks), default=0)), dtype)
    for s, e in blocks:
        t = buf[:, : e - s]
        np.copyto(t, a[s:e].T)
        if ufunc is np.add:
            _pairwise_sum(t, len(t))
            np.add(t[0], 0, out=out[s:e])
            continue
        k = len(t)
        while k > 1:
            half = k // 2
            ufunc(t[:half], t[k - half : k], out=t[:half])
            k -= half
        out[s:e] = t[0]
    return out


def _pairwise_sum(t: np.ndarray, n: int) -> None:
    """Sum rows ``t[:n]`` into ``t[0]`` in the order of numpy's
    ``pairwise_sum``: in order below 8 rows; up to 128 rows in 8 lanes of
    every 8th row, joined ((0+1)+(2+3))+((4+5)+(6+7)), then the rows left
    over in order; above 128, the two halves (the first a multiple of 8)."""
    if n > 128:
        half = n // 2 - n // 2 % 8
        _pairwise_sum(t[half:], n - half)
        _pairwise_sum(t, half)
        t[0] += t[half]
        return
    lanes = 8 if n >= 8 else 1
    stop = n - n % lanes
    for i in range(lanes, stop, lanes):
        t[:lanes] += t[i : i + lanes]
    if lanes == 8:
        t[0:8:2] += t[1:8:2]
        t[0:8:4] += t[2:8:4]
        t[0] += t[4]
    for i in range(stop, n):
        t[0] += t[i]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; ``logits`` is not written."""
    return _softmax_into(logits, np.empty_like(logits, dtype=np.float64))


def _softmax_into(logits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of ``logits`` written to ``out``, which may
    be ``logits`` itself: a block of ``row_blocks`` at a time, its row
    maxima and sums from ``reduce_labels``, so each row is bit-equal to the
    whole-array form ``exp(logits - max)`` over its sum."""
    for s, e in row_blocks(len(logits)):
        block = out[s:e]
        np.subtract(logits[s:e], reduce_labels(logits[s:e], np.maximum)[:, None], out=block)
        np.exp(block, out=block)
        block /= reduce_labels(block, np.add)[:, None]
    return out


def _softmax_vjp(q: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product of a row-wise softmax with output q."""
    return q * (grad - (grad * q).sum(axis=1, keepdims=True))


def unary_from_probabilities(probs: LabelDistributionImage) -> UnaryField:
    """Log-potentials U = log(clamped probabilities), in the probabilities'
    dtype; softmax(U) recovers the input."""
    probs.validate()
    u = np.maximum(probs.data, PROB_FLOOR)
    np.log(u, out=u)
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
    """Cached intermediates of an unrolled inference, consumed by backward:
    2T + 1 (N, L) arrays, Q before each iteration and after the last, and
    each iteration's combined message sum_m w_m M_m Q."""

    plans: tuple[FilterPlan, ...]
    weights: np.ndarray
    compatibility: np.ndarray
    q_states: list[np.ndarray]  # T+1 entries; [0] is softmax(U)
    combined: list[np.ndarray]  # T entries; [t] is sum_m w_m M_m q_states[t]


def _check_finite(arr: np.ndarray, stage: str, iteration: int) -> None:
    if not _finite(arr):
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
    pairwise = sum(w * msg for w, msg in zip(weights, msgs)) @ mu.T
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
    # the first message becomes ``combined``; the other kernels add theirs
    # into it, a block of rows at a time on the lattice backend
    combined = plans[0].apply(q)
    combined *= weights[0]
    for plan, w in zip(plans[1:], weights[1:]):
        plan.accumulate(q, w, combined)
    if trace is not None:
        trace.combined.append(combined.copy())
    # one pass over row blocks: the logits u - C mu^T over ``combined``, one
    # finite check (softmax of finite logits is finite; Q stays intact for
    # the diagnosis) and the softmax, row-wise so bit-equal to whole arrays
    for s, e in row_blocks(len(combined)):
        block = np.subtract(u[s:e], combined[s:e] @ mu.T, out=combined[s:e])
        if not _finite(block):
            _raise_non_finite(q, plans, weights, mu, iteration)
        _softmax_into(block, block)
    if trace is not None:
        trace.q_states.append(combined)
    return combined


def reuse_plan(
    features: np.ndarray, backend: str, plans: Sequence[FilterPlan], dtype=np.float64
) -> FilterPlan:
    """The first of ``plans`` built on ``features`` for this backend and the
    working dtype of ``dtype`` (a plan is the operator of exactly those),
    else a new plan from :func:`plan_filter`."""
    for plan in plans:
        if _serves(plan, features, backend, dtype):
            return plan
    return plan_filter(features, backend, dtype)


def _serves(plan: FilterPlan, features: np.ndarray, backend: str, dtype) -> bool:
    same = (plan.backend, plan.dtype) == (backend, working_dtype(backend, dtype))
    return same and np.array_equal(plan.features, features)


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
    plans: Sequence[FilterPlan] = (),
) -> tuple[LabelDistributionImage, MeanFieldTrace | None]:
    """Run T mean-field iterations from Q0 = softmax(U).

    With ``cache_gradients`` the returned trace retains every intermediate
    needed by :func:`mean_field_backward`.  ``plans`` is a pool of held
    plans in any order: each kernel (bilateral, spatial) runs on the held
    plan :func:`reuse_plan` finds for its features, ``backend`` and dtype,
    or on a new one; a held plan of other features or dtype is never used.

    Inference runs in ``filtering.working_dtype(backend, u.data.dtype)``:
    float32 on the lattice backend for a float32 unary, with no float64
    copy of U or Q, and float64 otherwise (an exact inference of a float32
    unary runs on its float64 copy).  Q and the plans have that dtype.

    Memory budget: with held plans for both kernels, the allocations of one
    inference peak at about 2 + 3(m + 1)/N (N, L) arrays of that dtype
    above those at entry, plus one row block, for m vertices of the larger
    lattice: Q, the combined messages and one lattice's blur buffers, three
    of (m + 1, L).  With a float32 unary on default-scene frames that was
    2.41 arrays at 160x120 jitter 10 (m/N 0.14), 3.49 at 640x480 jitter 60
    (m/N 0.50) and 5.37 at 160x120 jitter 60 (m/N 1.12); so the peak stays
    under three arrays while m/N stays under about 1/3.  It peaks while a
    kernel is filtered: the first kernel's message becomes the combined
    buffer, the second kernel's is added into it a block of rows at a time,
    and one pass over those blocks writes their logits, checks each block
    once and takes its softmax in place.  A traced inference runs the same
    step, plus the 2T + 1 arrays its trace keeps.  A non-finite value raises
    ``NumericalError`` naming the stage and iteration.
    """
    _check_dims(u, features)
    mu = params.compatibility_for(u.labels)
    dtype = working_dtype(backend, u.data.dtype)
    plans = tuple(reuse_plan(f, backend, plans, dtype) for f in features.per_kernel())
    unary = u.data.astype(dtype, copy=False)
    q = _softmax_into(unary, np.empty_like(unary))
    _check_finite(q, "initialization", 0)
    trace = None
    if cache_gradients:  # the parameters in float64, as backward accumulates them
        trace = MeanFieldTrace(plans, params.kernel_weights.copy(), mu.copy(), [q], [])
    weights, mu = params.kernel_weights.astype(dtype, copy=False), mu.astype(dtype, copy=False)
    for t in range(params.iterations):
        q = _step(q, unary, plans, weights, mu, t, trace)
    return LabelDistributionImage(u.height, u.width, u.labels, q), trace


def mean_field_backward(
    trace: MeanFieldTrace | None, dloss_dq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reverse-mode gradients (dU, dw, dμ) for a cached inference.

    The message-passing transpose is each plan's ``apply_transpose``, the
    exact adjoint of ``apply`` with its normalizers held constant; gradients
    for the shared parameters accumulate across iterations.  The sweep runs
    in the inference's dtype (dU has it); dw and dμ accumulate in float64.
    """
    if trace is None:  # what mean_field_infer returns without cache_gradients
        raise InputError("trace was not recorded with cache_gradients=True")
    q_final = trace.q_states[-1]
    g = np.asarray(dloss_dq, dtype=q_final.dtype)
    if g.shape != q_final.shape:
        raise InputError(f"loss gradient shape {g.shape} != Q shape {q_final.shape}")

    dw = np.zeros_like(trace.weights)
    dmu = np.zeros_like(trace.compatibility)
    weights, mu = (a.astype(g.dtype, copy=False) for a in (trace.weights, trace.compatibility))
    num_iters = len(trace.combined)
    du = np.zeros_like(q_final)

    for t in range(num_iters - 1, -1, -1):
        ds = _softmax_vjp(trace.q_states[t + 1], g)
        du += ds
        dp = -ds
        dmu += dp.T @ trace.combined[t]
        dc = dp @ mu
        # <dc, M_m Q> = <M_m^T dc, Q>: one transpose per kernel gives dw and g
        back = [plan.apply_transpose(dc) for plan in trace.plans]
        dw += [float((b * trace.q_states[t]).sum()) for b in back]
        g = sum(w * b for w, b in zip(weights, back))
    du += _softmax_vjp(trace.q_states[0], g)
    return du, dw, dmu


# ---------------------------------------------------------------------------
# energy
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
    IGNORE pixels excluded.  Images are visited in a seed-shuffled order.
    The state is one ``CrfParams``, replaced by each step (a non-finite step
    raises ``ConfigError``); the best seen (by full-dataset loss) is
    returned, so the result never has higher training loss than ``params``.

    Memory: one bilateral plan is held at a time (on the exact backend an
    N x N kernel), reused while inferences stay on one image and dropped
    before the next image's is built; each step's trace, which holds its
    plans, is freed when the step ends.  ``epochs`` and ``seed`` must be
    whole numbers (``ConfigError`` otherwise, before any inference).

    An image with no labelled pixel has loss 0.0 and no gradient, so it runs
    no inference, neither a step nor in a loss pass; a ``NumericalError``
    its inference would raise is therefore not raised.
    """
    if not dataset:
        raise ConfigError("empty training dataset")
    if not 0 < learning_rate < np.inf:  # NaN and inf would fail only after a step
        raise ConfigError(f"learning rate must be positive and finite, got {learning_rate}")
    epochs = integer_setting("epochs", epochs)
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    seed = integer_setting("seed", seed)
    if seed < 0:  # numpy's seeding would fail only after the first loss pass
        raise ConfigError(f"seed must be >= 0, got {seed}")
    labels = dataset[0][1].labels
    for rgb, probs, truth in dataset:
        if probs.labels != labels:
            raise ConfigError("all images must share the label count")
        truth.validate(labels)

    params = params if params is not None else CrfParams()
    p = replace(params, compatibility=params.compatibility_for(labels))

    # Spatial features depend only on the image size, so images of one size
    # share one spatial plan, held in the pool every inference gets.
    spatial_plans: list[FilterPlan] = []
    prepared = []
    for rgb, probs, truth in dataset:
        u = unary_from_probabilities(probs)
        feats = build_features(rgb, p)
        spatial = reuse_plan(feats.spatial, backend, spatial_plans, u.data.dtype)
        if spatial not in spatial_plans:
            spatial_plans.append(spatial)
        prepared.append((u, feats, truth.data))
    labelled = [bool(np.any(truth != IGNORE_LABEL)) for _, _, truth in prepared]

    # One bilateral plan is held: one per image would keep every image's
    # exact N x N kernel alive at once.
    bilateral: FilterPlan | None = None

    def infer(i: int, p: CrfParams, cache_gradients: bool = False):
        nonlocal bilateral
        u, feats, _ = prepared[i]
        if bilateral is None or not _serves(bilateral, feats.bilateral, backend, u.data.dtype):
            bilateral = None  # dropped before the build, not replaced after it
            bilateral = plan_filter(feats.bilateral, backend, u.data.dtype)
        plans = (bilateral, *spatial_plans)
        return mean_field_infer(u, feats, p, backend, cache_gradients, plans=plans)

    def step(i: int, p: CrfParams) -> CrfParams:
        if not labelled[i]:
            return p
        # the trace holds this image's plans; it dies when the step returns
        qf, trace = infer(i, p, cache_gradients=True)
        _, grad = _cross_entropy_and_grad(qf.data, prepared[i][2])
        _, dw, dmu = mean_field_backward(trace, grad)
        return replace(
            p,
            kernel_weights=np.maximum(p.kernel_weights - learning_rate * dw, 0.0),
            compatibility=p.compatibility - learning_rate * dmu,
        )

    def dataset_loss(p: CrfParams, first: int | None, last: int | None) -> float:
        # Visits image ``first`` (the one the last step ended on, whose plan
        # is held) first and image ``last`` (the next epoch's first) last, so
        # each boundary between a pass and an epoch reuses the held plan.  The
        # losses are added left to right in index order, whatever the
        # visiting order (``sum`` compensates its float adds from Python 3.12).
        visits = sorted(
            range(len(prepared)), key=lambda i: 0 if i == first else 2 if i == last else 1
        )
        losses = [0.0] * len(prepared)
        for i in visits:
            if labelled[i]:
                qf, _ = infer(i, p)
                losses[i] = _cross_entropy_and_grad(qf.data, prepared[i][2])[0]
        total = 0.0
        for loss in losses:
            total += loss
        return total / len(prepared)

    # every epoch's order is drawn before the first loss pass
    rng = np.random.default_rng(seed)
    order = np.arange(len(prepared))
    orders = []
    for _ in range(epochs):
        rng.shuffle(order)
        orders.append(order.copy())
    firsts = [o[0] for o in orders] + [None]
    best, best_loss = p, dataset_loss(p, None, firsts[0])
    for current, upcoming in zip(orders, firsts[1:]):
        for i in current:
            p = step(i, p)
        loss = dataset_loss(p, current[-1], upcoming)
        if loss < best_loss:
            best, best_loss = p, loss
    return best
