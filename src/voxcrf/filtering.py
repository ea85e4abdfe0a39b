"""High-dimensional Gaussian filtering of per-point vector fields.

Message-passing engine: for feature vectors f_i the filtered output is

    apply(v)_i = sum_{j != i} k(f_i, f_j) v_j / d_i,
    k(f_i, f_j) = exp(-||f_i - f_j||^2 / 2),
    d_i         = sum_{j != i} k(f_i, f_j),

i.e. self-excluded and normalized per point, so a constant field is a fixed
point.  Two backends share the contract: ``exact`` evaluates the literal
double sum in O(N^2) (the oracle), ``lattice`` approximates it with a
permutohedral lattice in near-linear time.

Each plan is one linear operator: with N the unnormalized (numerator)
message matrix and D = diag(d), ``apply = D^-1 N`` and ``apply_transpose =
N^T D^-1``, its exact adjoint (d depends only on the features, so it is a
constant with respect to the values).  ``exact`` has N = K - I, symmetric;
``lattice`` has N = P_ns (L - D_L) + P_s F, with L the lattice filter
(``reverse=True`` gives L^T), D_L its own diagonal response, P_s / P_ns the
starved / other rows and F exact kernel rows stored for the starved points
only (sparse, |starved| x N).

Lattice messages are a ratio of lattice outputs, which cancels the smoothly
varying splat/blur/slice leakage.  Points with little neighbor mass (below
a dimension-dependent threshold) are where that cancellation degrades —
much of their true kernel mass sits in the Gaussian mid-tail, outside the
lattice's compact support — so these starved points take exact sparse
kernel rows over their 7-sigma feature neighborhood (the truncation error
is below exp(-24.5)).  On image-like inputs they are a small fraction.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .errors import InputError
from .lattice import PermutohedralLattice

NORMALIZER_FLOOR = 1e-12
# Fallback thresholds on the lattice's own neighbor-mass estimate, calibrated
# against the exact backend.  High-d feature spaces (bilateral) hide isolated
# clusters whose mass sits beyond the lattice support; low-d grid features
# truncate uniformly, so only near-empty neighborhoods (tiny instances,
# extreme scales) need exact rows there.
STARVED_THRESHOLD_HIGH_DIM = 64.0
STARVED_THRESHOLD_LOW_DIM = 4.0
FALLBACK_RADIUS = 7.0
FALLBACK_NNZ_LIMIT = 1 << 24
_KERNEL_CACHE_LIMIT = 4096  # exact backend keeps the dense kernel up to this N


def _as_matrix(values: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    vals = np.asarray(values, dtype=np.float64)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    if vals.ndim != 2 or vals.shape[0] != n:
        raise InputError(f"values must be ({n}, C), got {vals.shape}")
    return vals, squeeze


def _kernel_rows(features: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the self-excluded exact kernel K - I, computed
    by direct differences."""
    diff = features[start:stop, None, :] - features[None, :, :]
    rows = np.exp(-0.5 * np.einsum("rjd,rjd->rj", diff, diff))
    rows[np.arange(stop - start), np.arange(start, stop)] = 0.0
    return rows


class FilterPlan:
    """Precomputed filtering structure, reusable across value channels.

    ``apply = D^-1 N`` and ``apply_transpose = N^T D^-1`` share one method,
    ``_numerator``; lattice plans store F as its starved rows only.

    Immutable after construction; apply/apply_transpose allocate their own
    scratch, so one plan may serve concurrent calls.
    """

    def __init__(self, features: np.ndarray, backend: str = "exact"):
        feats = np.ascontiguousarray(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise InputError(f"features must be (N, d), got {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise InputError("non-finite feature value")
        if backend not in ("exact", "lattice"):
            raise InputError(f"unknown backend {backend!r}")
        self.features = feats
        self.n, self.dim = feats.shape
        self.backend = backend
        self._lattice = None
        self._starved = np.zeros(0, dtype=np.int64)
        self._fallback = None

        if self.n == 1:
            # no neighbors: zero messages, normalizer defined as 1
            self.normalizers = np.ones(1)
            return

        if backend == "exact":
            self._init_exact()
        else:
            self._init_lattice()

    # -- exact backend ------------------------------------------------------

    def _init_exact(self) -> None:
        # the dense kernel up to _KERNEL_CACHE_LIMIT points; above it, apply
        # recomputes the rows chunk by chunk
        self._kernel = np.empty((self.n, self.n)) if self.n <= _KERNEL_CACHE_LIMIT else None
        raw = np.empty(self.n)
        for s, e in self._chunks():
            rows = _kernel_rows(self.features, s, e)
            raw[s:e] = rows.sum(axis=1)
            if self._kernel is not None:
                self._kernel[s:e] = rows
            del rows  # free the chunk before the next one is built
        self.normalizers = np.maximum(raw, NORMALIZER_FLOOR)

    def _chunks(self):
        step = max(1, (1 << 22) // (self.n * self.dim))
        for s in range(0, self.n, step):
            yield s, min(s + step, self.n)

    # -- lattice backend -----------------------------------------------------

    def _init_lattice(self) -> None:
        lat = self._lattice = PermutohedralLattice(self.features)
        raw = lat.filter(np.ones(self.n)) - lat.diagonal

        threshold = (
            STARVED_THRESHOLD_HIGH_DIM if self.dim >= 3 else STARVED_THRESHOLD_LOW_DIM
        )
        starved = np.flatnonzero(raw < threshold)
        if len(starved):
            # worst points first, in case the sparse-row budget runs out
            starved = starved[np.argsort(raw[starved], kind="stable")]
            tree = cKDTree(self.features)
            balls = tree.query_ball_point(self.features[starved], r=FALLBACK_RADIUS)
            lens = np.array([len(b) for b in balls])
            kept = np.searchsorted(np.cumsum(lens), FALLBACK_NNZ_LIMIT)
            order = np.argsort(starved[:kept])  # F rows in point order
            starved, balls, lens = starved[order], balls[order], lens[order]
            cols = np.fromiter((j for b in balls for j in b), np.int64, int(lens.sum()))
            rows = np.repeat(np.arange(len(starved)), lens)
            keep = cols != starved[rows]  # self term handled analytically
            rows, cols = rows[keep], cols[keep]
            diff = self.features[starved[rows]] - self.features[cols]
            vals = np.exp(-0.5 * np.einsum("nd,nd->n", diff, diff))
            self._fallback = sparse.csr_matrix((vals, (rows, cols)), (len(starved), self.n))
            self._starved = starved
            raw[starved] = np.asarray(self._fallback.sum(axis=1)).ravel()
        self.normalizers = np.maximum(raw, NORMALIZER_FLOOR)

    # -- the operator -------------------------------------------------------

    def _numerator(self, vals: np.ndarray, transpose: bool) -> np.ndarray:
        """N vals, or N^T vals with ``transpose``, as a new (N, C) array;
        ``vals`` is left unchanged."""
        if self.n == 1:
            return np.zeros_like(vals)
        if self.backend == "exact":  # symmetric: N^T = N
            if self._kernel is not None:
                return self._kernel @ vals
            out = np.empty_like(vals)
            for s, e in self._chunks():
                out[s:e] = _kernel_rows(self.features, s, e) @ vals
            return out
        starved = self._starved
        if transpose and len(starved):
            own = vals[starved]
            vals = vals.copy()
            vals[starved] = 0.0
        out = self._lattice.filter(vals, reverse=transpose)
        out -= self._lattice.diagonal[:, None] * vals
        if len(starved):
            if transpose:
                out += self._fallback.T @ own
            else:
                out[starved] = self._fallback @ vals
        return out

    # -- public API -----------------------------------------------------------

    @property
    def vertices(self) -> int:
        """Lattice vertex count; 0 when no lattice was built (exact backend,
        single point)."""
        return 0 if self._lattice is None else self._lattice.num_vertices

    @property
    def starved(self) -> int:
        """Points whose messages come from exact fallback rows."""
        return len(self._starved)

    @property
    def fallback_nnz(self) -> int:
        """Stored kernel entries of the exact fallback rows."""
        return 0 if self._fallback is None else self._fallback.nnz

    def apply(self, values: np.ndarray) -> np.ndarray:
        """D^-1 N v: normalized self-excluded Gaussian messages."""
        vals, squeeze = _as_matrix(values, self.n)
        out = self._numerator(vals, transpose=False)
        out /= self.normalizers[:, None]
        return out[:, 0] if squeeze else out

    def apply_transpose(self, grads: np.ndarray) -> np.ndarray:
        """N^T D^-1 g: the exact adjoint of apply (D held constant)."""
        g, squeeze = _as_matrix(grads, self.n)
        out = self._numerator(g / self.normalizers[:, None], transpose=True)
        return out[:, 0] if squeeze else out


def plan_filter(features: np.ndarray, backend: str = "exact") -> FilterPlan:
    """Build a reusable filtering plan for θ-scaled feature vectors."""
    return FilterPlan(features, backend)

