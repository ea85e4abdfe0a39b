"""High-dimensional Gaussian filtering of per-point vector fields.

Message-passing engine: for feature vectors f_i the filtered output is

    apply(v)_i = sum_{j != i} k(f_i, f_j) v_j / d_i,
    k(f_i, f_j) = exp(-||f_i - f_j||^2 / 2),
    d_i         = sum_{j != i} k(f_i, f_j),

i.e. self-excluded and normalized per point, so a constant field is a fixed
point.  Two backends share the contract: ``exact`` evaluates the literal
double sum in O(N^2) (the oracle), ``lattice`` approximates it with a
permutohedral lattice in near-linear time.

The lattice realizes the self-exclusion with its own diagonal response and
computes messages as a ratio of lattice outputs, which cancels the smoothly
varying splat/blur/slice leakage.  Points with little neighbor mass (below
a dimension-dependent threshold) are where that cancellation degrades —
much of their true kernel mass sits in the Gaussian mid-tail, outside the
lattice's compact support — so they fall back to exact sparse kernel rows
over their 7-sigma feature neighborhood (the truncation error is below
exp(-24.5)).  On image-like inputs these are a small fraction of the points.

Normalizers depend only on the features, so they are fixed constants with
respect to the filtered values; ``apply_transpose`` is the exact adjoint of
``apply`` under that convention.
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


def _kernel_rows(features: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Exact Gaussian kernel rows k(f_r, f_j), computed by direct differences."""
    diff = features[rows][:, None, :] - features[None, :, :]
    return np.exp(-0.5 * np.einsum("rjd,rjd->rj", diff, diff))


class FilterPlan:
    """Precomputed filtering structure, reusable across value channels.

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
            self._kernel = None
            return

        if backend == "exact":
            self._init_exact()
        else:
            self._init_lattice()

    # -- exact backend ------------------------------------------------------

    def _init_exact(self) -> None:
        if self.n <= _KERNEL_CACHE_LIMIT:
            k = np.empty((self.n, self.n))
            for s, e in self._chunks():
                k[s:e] = _kernel_rows(self.features, np.arange(s, e))
            np.fill_diagonal(k, 0.0)
            self._kernel = k
            raw = k.sum(axis=1)
        else:
            self._kernel = None
            raw = np.empty(self.n)
            for s, e in self._chunks():
                rows = _kernel_rows(self.features, np.arange(s, e))
                raw[s:e] = rows.sum(axis=1) - 1.0  # remove k(f_i, f_i) = 1
        self.normalizers = np.maximum(raw, NORMALIZER_FLOOR)

    def _chunks(self):
        step = max(1, (1 << 22) // (self.n * self.dim))
        for s in range(0, self.n, step):
            yield s, min(s + step, self.n)

    def _exact_numerator(self, vals: np.ndarray) -> np.ndarray:
        if self._kernel is not None:
            return self._kernel @ vals
        out = np.empty_like(vals)
        for s, e in self._chunks():
            rows = _kernel_rows(self.features, np.arange(s, e))
            out[s:e] = rows @ vals - vals[s:e]  # diag k = 1 exactly
        return out

    # -- lattice backend -----------------------------------------------------

    def _init_lattice(self) -> None:
        lat = PermutohedralLattice(self.features)
        self._lattice = lat
        self._lat_d = lat.diagonal
        raw = lat.filter(np.ones(self.n)) - self._lat_d

        threshold = (
            STARVED_THRESHOLD_HIGH_DIM if self.dim >= 3 else STARVED_THRESHOLD_LOW_DIM
        )
        starved = np.flatnonzero(raw < threshold)
        if len(starved):
            # worst points first, in case the sparse-row budget runs out
            starved = starved[np.argsort(raw[starved], kind="stable")]
            tree = cKDTree(self.features)
            balls = tree.query_ball_point(self.features[starved], r=FALLBACK_RADIUS)
            counts = np.array([len(b) for b in balls])
            kept = np.searchsorted(np.cumsum(counts), FALLBACK_NNZ_LIMIT)
            starved, balls = starved[:kept], balls[:kept]
        if len(starved):
            lens = [len(b) for b in balls]
            cols = np.fromiter(
                (j for b in balls for j in b), dtype=np.int64, count=int(np.sum(lens))
            )
            rows = np.repeat(starved, lens)
            keep = rows != cols  # self term handled analytically
            rows, cols = rows[keep], cols[keep]
            diff = self.features[rows] - self.features[cols]
            vals = np.exp(-0.5 * np.einsum("nd,nd->n", diff, diff))
            fallback = sparse.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))
            self._starved = np.sort(starved)
            self._fallback = fallback
            raw = raw.copy()
            raw[self._starved] = np.asarray(fallback.sum(axis=1)).ravel()[self._starved]
        self.normalizers = np.maximum(raw, NORMALIZER_FLOOR)

    def _lattice_numerator(self, vals: np.ndarray, reverse: bool) -> np.ndarray:
        lat = self._lattice
        out = lat.filter(vals, reverse=reverse) - self._lat_d[:, None] * vals
        if len(self._starved):
            out[self._starved] = (self._fallback @ vals)[self._starved]
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
        """Normalized self-excluded Gaussian messages for (N, C) values."""
        vals, squeeze = _as_matrix(values, self.n)
        if self.n == 1:
            out = np.zeros_like(vals)
        elif self.backend == "exact":
            out = self._exact_numerator(vals) / self.normalizers[:, None]
        else:
            out = self._lattice_numerator(vals, reverse=False) / self.normalizers[:, None]
        return out[:, 0] if squeeze else out

    def apply_raw(self, values: np.ndarray) -> np.ndarray:
        """Unnormalized messages sum_{j != i} k(f_i, f_j) v_j."""
        vals, squeeze = _as_matrix(values, self.n)
        if self.n == 1:
            out = np.zeros_like(vals)
        elif self.backend == "exact":
            out = self._exact_numerator(vals)
        else:
            out = self._lattice_numerator(vals, reverse=False)
        return out[:, 0] if squeeze else out

    def apply_transpose(self, grads: np.ndarray) -> np.ndarray:
        """Exact adjoint of apply (normalizers treated as constants)."""
        g, squeeze = _as_matrix(grads, self.n)
        if self.n == 1:
            out = np.zeros_like(g)
        elif self.backend == "exact":
            # kernel symmetric: (K^T g / d) == K (g / d)
            out = self._exact_numerator(g / self.normalizers[:, None])
        else:
            z = g / self.normalizers[:, None]
            zs = z.copy()
            if len(self._starved):
                zs[self._starved] = 0.0
            lat = self._lattice
            out = lat.filter(zs, reverse=True) - self._lat_d[:, None] * zs
            if len(self._starved):
                zf = np.zeros_like(z)
                zf[self._starved] = z[self._starved]
                out += self._fallback.T @ zf
        return out[:, 0] if squeeze else out


def plan_filter(features: np.ndarray, backend: str = "exact") -> FilterPlan:
    """Build a reusable filtering plan for θ-scaled feature vectors."""
    return FilterPlan(features, backend)

