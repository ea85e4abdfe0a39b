"""High-dimensional Gaussian filtering of per-point vector fields.

Message-passing engine: for feature vectors f_i the filtered output is

    apply(v)_i = sum_{j != i} k(f_i, f_j) v_j / d_i,
    k(f_i, f_j) = exp(-||f_i - f_j||^2 / 2),
    d_i         = sum_{j != i} k(f_i, f_j),

i.e. self-excluded and normalized per point, so a constant field is a fixed
point.  Two backends share the contract: ``exact`` evaluates the literal
double sum in O(N^2) (the oracle), ``lattice`` approximates it with a
permutohedral lattice in near-linear time.

Each plan is one linear operator, stored pre-scaled: with N the unnormalized
(numerator) message matrix and D = diag(d), the plan holds M = D^-1 N, and
``apply = M v`` and ``apply_transpose = M^T g`` with no separate
normalization pass and no ``g / d`` copy (d depends only on the features, so
M^T is the exact adjoint of apply).  ``exact`` has N = K - I, symmetric, and
stores M as the kernel with each row divided by d_i.  ``lattice`` has
N = P_ns (L - D_L) + P_s F, with L the lattice filter, D_L its own diagonal
response, P_s / P_ns the starved / other rows and F exact kernel rows
stored for the starved points only (sparse, |starved| x N).  Its plan keeps
diag(r) L as one scaled lattice (r_i = 1 / d_i, 0 on starved rows; the
factor is folded into the slice rows, ``reverse=True`` gives the transpose),
D_L / d as one vector (0 on starved rows) and F with each row divided by
its d_s.

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
_ROW_BLOCK = 2048  # rows per block of the lattice diagonal term


def _as_matrix(values: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    vals = np.asarray(values, dtype=np.float64)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    if vals.ndim != 2 or vals.shape[0] != n:
        raise InputError(f"values must be ({n}, C), got {vals.shape}")
    return vals, squeeze


def _subtract_row_scaled(out: np.ndarray, scale: np.ndarray, vals: np.ndarray) -> None:
    """``out -= scale[:, None] * vals`` a block of rows at a time, so the
    product needs no (N, C) temporary."""
    n = out.shape[0]
    tmp = np.empty((min(n, _ROW_BLOCK), out.shape[1]))
    for s in range(0, n, _ROW_BLOCK):
        e = min(s + _ROW_BLOCK, n)
        block = tmp[: e - s]
        np.multiply(vals[s:e], scale[s:e, None], out=block)
        out[s:e] -= block


def _kernel_rows(features: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the self-excluded exact kernel K - I, computed
    by direct differences."""
    diff = features[start:stop, None, :] - features[None, :, :]
    rows = np.exp(-0.5 * np.einsum("rjd,rjd->rj", diff, diff))
    rows[np.arange(stop - start), np.arange(start, stop)] = 0.0
    return rows


class FilterPlan:
    """Precomputed filtering structure, reusable across value channels.

    The plan is the pre-scaled operator M = D^-1 N (module docstring):
    ``apply = M v`` and ``apply_transpose = M^T g`` share one method,
    ``_operator``.  ``normalizers`` holds d.

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
        # M up to _KERNEL_CACHE_LIMIT points; above it, apply recomputes the
        # rows chunk by chunk
        self._kernel = np.empty((self.n, self.n)) if self.n <= _KERNEL_CACHE_LIMIT else None
        d = self.normalizers = np.empty(self.n)
        for s, e in self._chunks():
            rows = _kernel_rows(self.features, s, e)
            d[s:e] = np.maximum(rows.sum(axis=1), NORMALIZER_FLOOR)
            if self._kernel is not None:
                np.divide(rows, d[s:e, None], out=self._kernel[s:e])
            del rows  # free the chunk before the next one is built

    def _chunks(self):
        step = max(1, (1 << 22) // (self.n * self.dim))
        for s in range(0, self.n, step):
            yield s, min(s + step, self.n)

    # -- lattice backend -----------------------------------------------------

    def _init_lattice(self) -> None:
        lat = PermutohedralLattice(self.features)
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
            fallback = sparse.csr_matrix((vals, (rows, cols)), (len(starved), self.n))
            raw[starved] = np.asarray(fallback.sum(axis=1)).ravel()
            self._starved = starved
        self.normalizers = np.maximum(raw, NORMALIZER_FLOOR)
        scale = 1.0 / self.normalizers
        if len(starved):
            fallback.data *= np.repeat(scale[starved], np.diff(fallback.indptr))
            self._fallback = fallback
            scale[starved] = 0.0  # starved rows come from F alone
        self._lattice = lat.scaled(scale)

    # -- the operator -------------------------------------------------------

    def _operator(self, values: np.ndarray, transpose: bool) -> np.ndarray:
        """M v, or M^T v with ``transpose``, as a new array of the shape of
        ``values``; ``values`` is left unchanged."""
        vals, squeeze = _as_matrix(values, self.n)
        if self.n == 1:
            out = np.zeros_like(vals)
        elif self.backend == "exact":
            if self._kernel is not None:
                # M v = (v^T M^T)^T and M^T g = (g^T M)^T: with C << N,
                # OpenBLAS runs the (C, N) products about 1.5x faster
                m = self._kernel if transpose else self._kernel.T
                out = np.ascontiguousarray((vals.T @ m).T)
            else:
                out = np.zeros_like(vals)
                for s, e in self._chunks():
                    rows = _kernel_rows(self.features, s, e) / self.normalizers[s:e, None]
                    if transpose:
                        out += rows.T @ vals[s:e]
                    else:
                        out[s:e] = rows @ vals
        else:
            # diag(r) L - diag(r D_L), with zero starved rows, then F's rows
            out = self._lattice.filter(vals, reverse=transpose)
            _subtract_row_scaled(out, self._lattice.diagonal, vals)
            starved = self._starved
            if len(starved):
                if transpose:
                    out += self._fallback.T @ vals[starved]
                else:
                    out[starved] = self._fallback @ vals
        return out[:, 0] if squeeze else out

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
        """M v = D^-1 N v: normalized self-excluded Gaussian messages."""
        return self._operator(values, transpose=False)

    def apply_transpose(self, grads: np.ndarray) -> np.ndarray:
        """M^T g = N^T D^-1 g: the exact adjoint of apply (D held constant)."""
        return self._operator(grads, transpose=True)


def plan_filter(features: np.ndarray, backend: str = "exact") -> FilterPlan:
    """Build a reusable filtering plan for θ-scaled feature vectors."""
    return FilterPlan(features, backend)

