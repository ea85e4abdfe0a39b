"""Permutohedral lattice for approximate high-dimensional Gaussian filtering.

Approximates ``out_i = sum_j exp(-||f_i - f_j||^2 / 2) v_j`` in near-linear
time via the classic splat / blur / slice scheme: inputs are barycentrically
splatted onto the vertices of their enclosing lattice simplex, a separable
(0.5, 1, 0.5) blur runs once along each of the d+1 lattice directions, and
the result is sliced back with the same barycentric weights and a
1 / (1 + 2^-d) scale correction, which keeps the implied kernel close to 1
at zero distance (so filtered all-ones approximates the true Gaussian mass
around each point).

Only splatted vertices are stored, so blur mass leaks at the boundary of the
occupied lattice region and the raw output is accurate only up to a smoothly
varying per-point factor.  The blur runs in place on an (m + 1, C) buffer
whose last row stays zero: a missing neighbor is stored as index -1, which
reads that row, so no gather needs a mask or a clamp, and two (m, C) gather
buffers serve every axis.  Quantities formed as ratios of lattice outputs
(message normalization in the CRF) cancel that factor; to support exact
self-exclusion inside such ratios the lattice also exposes its own diagonal
response, computed in closed form from the blur restricted to each point's
enclosing simplex (exact wherever the leak matters, i.e. sparse regions).

The build works on (N, d+1) arrays only.  The d+1 vertex keys of a point are
never materialized: their first d coordinates (which identify a vertex, as
all coordinates sum to 0) are packed into one mixed-radix int64 code per
(point, vertex) straight from the point's remainder-0 corner and ranks, and
the distinct codes are decoded back into vertex rows.  When the coordinate
ranges are too wide to pack, whole rows are sorted as structured records
instead, giving the same vertex order.  The diagonal applies the restricted
blur to each point's barycentric vector in place, one axis at a time.

Vectorized numpy throughout; the splat/slice operators are kept as one
sparse matrix so a built lattice can filter any number of value channels.
``scaled`` derives a lattice whose output rows carry a per-point factor
folded into its slice rows (with the 1 / (1 + 2^-d) correction), for callers
that normalize the filter output per point.
"""

from __future__ import annotations

import copy

import numpy as np
from scipy import sparse

from .errors import InputError

# Lattice coordinates are encoded into a single int64 when the per-axis
# ranges allow it (fast unique + neighbor lookup); otherwise rows are sorted
# and searched as structured records.
_CODE_LIMIT = 2**62


def _records(rows: np.ndarray) -> np.ndarray:
    """(R, d) int64 rows as R structured records that sort lexicographically."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    fields = [(f"f{i}", np.int64) for i in range(rows.shape[1])]
    return rows.view(np.dtype(fields)).reshape(-1)


def _embed(features: np.ndarray) -> np.ndarray:
    """Project scaled features onto the d-dim hyperplane H_d in R^(d+1).

    The per-axis scaling makes the one-pass (0.25, 0.5, 0.25) lattice blur
    compose to a unit-variance Gaussian in the original feature space.
    """
    n, d = features.shape
    inv_std = np.sqrt(2.0 / 3.0) * (d + 1)
    axes = np.arange(1, d + 1, dtype=np.float64)
    cf = features * (inv_std / np.sqrt(axes * (axes + 1.0)))

    # elevated[0] = sum(cf); elevated[i] = sum(cf[i:]) - i * cf[i-1] (i >= 1)
    emb = np.zeros((d + 1, d))
    emb[0, :] = 1.0
    for i in range(1, d + 1):
        emb[i, i:] = 1.0
        emb[i, i - 1] = -float(i)
    return cf @ emb.T


class PermutohedralLattice:
    """Immutable filtering operator built from an (N, d) feature array."""

    def __init__(self, features: np.ndarray):
        feats = np.ascontiguousarray(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise InputError(f"features must be (N, d) with N,d >= 1, got {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise InputError("non-finite feature value")
        self.n, self.dim = feats.shape
        d = self.dim
        dp1 = d + 1

        elevated = _embed(feats)

        # Nearest remainder-0 lattice point (coordinates are multiples of d+1).
        v = elevated / dp1
        up = np.ceil(v) * dp1
        down = np.floor(v) * dp1
        rem0 = np.where(up - elevated < elevated - down, up, down)
        sums = np.rint(rem0.sum(axis=1) / dp1).astype(np.int64)

        # Rank = position in descending order of the residual, ties by index.
        diff = elevated - rem0
        order = np.argsort(-diff, axis=1, kind="stable")
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.broadcast_to(np.arange(dp1), rank.shape), axis=1)

        # Walk points whose rounded coordinates left the sum-0 sublattice.
        rank = rank + sums[:, None]
        low, high = rank < 0, rank > d
        rank[low] += dp1
        rank[high] -= dp1
        rem0[low] += dp1
        rem0[high] -= dp1

        # Barycentric coordinates inside the enclosing simplex.  Each row's
        # column indices d - rank and d + 1 - rank are permutations, so no
        # index repeats within one fancy update.
        y = (elevated - rem0) / dp1
        bary = np.zeros((self.n, dp1 + 1))
        point = np.arange(self.n)[:, None]
        bary[point, d - rank] += y
        bary[point, dp1 - rank] -= y
        bary[:, 0] += 1.0 + bary[:, dp1]
        bary = bary[:, :dp1]

        # Vertex k of a point's simplex is rem0 + canon[k][rank]; the first d
        # coordinates identify it (all coordinates sum to 0).
        canon = np.empty((dp1, dp1), dtype=np.int64)
        for k in range(dp1):
            canon[k, : dp1 - k] = k
            canon[k, dp1 - k :] = k - dp1
        rem0i = np.rint(rem0[:, :d]).astype(np.int64)
        vertices, vertex_idx = self._hash_vertices(rem0i, rank[:, :d], canon)
        m = vertices.shape[0]
        self.num_vertices = m

        # Splat matrix; its transpose is the slice (same barycentric weights).
        rows = np.repeat(np.arange(self.n), dp1)
        self._splat = sparse.csr_matrix(
            (bary.ravel(), (vertex_idx, rows)), shape=(m, self.n)
        )
        self._slice = self._splat.T.tocsr()

        # Blur neighbor tables: along axis a, n1 = key + 1 - (d+1) e_a,
        # n2 = key - 1 + (d+1) e_a; -1 marks a vertex outside the lattice and
        # reads the zero pad row of the blur buffer.
        # Only the first d coordinates are kept, so axis d shifts all of them.
        self._n1 = np.empty((dp1, m), dtype=np.int64)
        self._n2 = np.empty((dp1, m), dtype=np.int64)
        for a in range(dp1):
            e_a = np.zeros(d, dtype=np.int64)
            if a < d:
                e_a[a] = dp1
            self._n1[a] = self._lookup_rows(vertices + 1 - e_a)
            self._n2[a] = self._lookup_rows(vertices - 1 + e_a)

        # the slice scale, applied in place after the slice (1.0 once folded
        # into the slice rows by ``scaled``)
        self._alpha = 1.0 / (1.0 + 2.0 ** (-d))
        self._diag = self._diagonal_response(bary, rank)

    # -- vertex hashing ---------------------------------------------------

    def _hash_vertices(
        self, rem0: np.ndarray, rank: np.ndarray, canon: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct simplex vertices (m, d) in lexicographic order, and the
        vertex index of every (point, k) pair in point-major order.

        ``rem0`` and ``rank`` hold the first d coordinates and ranks per
        point, ``canon`` the (d+1, d+1) canonical offsets indexed by (k, rank).
        """
        n, d = rem0.shape
        # canon[k][r] spans [-r, d - r] over k, which bounds every key.
        low = rem0 - rank
        self._kmin = low.min(axis=0)
        self._ranges = low.max(axis=0) + d - self._kmin + 1
        if float(np.prod(self._ranges.astype(np.float64))) < _CODE_LIMIT:
            # Mixed-radix codes, most significant digit first: code order
            # is lexicographic row order.
            radix = np.ones(d, dtype=np.int64)
            for i in range(d - 2, -1, -1):
                radix[i] = radix[i + 1] * self._ranges[i + 1]
            self._radix = radix
            base = (rem0 - self._kmin) @ radix
            codes = np.empty((n, d + 1), dtype=np.int64)
            for k in range(d + 1):
                codes[:, k] = base + canon[k][rank] @ radix
            self._codes, inverse = np.unique(codes.ravel(), return_inverse=True)
            vertices = self._kmin + (self._codes[:, None] // radix) % self._ranges
            return vertices, inverse.ravel()
        # Extreme coordinate ranges: sort whole rows as structured records.
        self._codes = None
        keys = rem0[:, None, :] + canon[:, rank].transpose(1, 0, 2)
        self._rows, inverse = np.unique(_records(keys.reshape(-1, d)), return_inverse=True)
        return self._rows.view(np.int64).reshape(-1, d), inverse.ravel()

    def _lookup_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vertex index of each (first-d) key row, -1 where it is absent."""
        if self._codes is None:
            query = _records(rows)
            pos = np.searchsorted(self._rows, query)
            pos[pos >= len(self._rows)] = 0
            return np.where(self._rows[pos] == query, pos, -1)
        shifted = rows - self._kmin
        valid = np.all((shifted >= 0) & (shifted < self._ranges), axis=1)
        codes = np.clip(shifted, 0, self._ranges - 1) @ self._radix
        pos = np.searchsorted(self._codes, codes)
        pos[pos >= len(self._codes)] = 0
        found = valid & (self._codes[pos] == codes)
        return np.where(found, pos, -1)

    # -- diagonal ---------------------------------------------------------

    def _diagonal_response(self, bary: np.ndarray, rank: np.ndarray) -> np.ndarray:
        """Per-point self response diag(slice . blur . splat), computed with
        the blur restricted to each point's enclosing simplex.

        The d+1 simplex vertices form a cycle under the blur: vertices of
        remainder k and k+1 (mod d+1) are neighbors exactly along the axis
        whose rank is d - k, so the restricted blur G is a product of
        per-axis (I + 0.5 swap) updates.  The response is the quadratic form
        alpha * b . (G b) of the barycentric vector b; G b is formed by
        applying the updates to an (N, d+1) copy of b in place, one axis at
        a time (two gathers and two scatters each).  Mass returning through
        vertices outside the simplex is ignored; that contribution is
        negligible exactly where the diagonal matters (sparse regions).
        """
        d = self.dim
        b = bary
        gb = b.copy()
        point = np.arange(self.n)
        for a in range(d + 1):
            k = d - rank[:, a]
            kn = (k + 1) % (d + 1)
            vk, vkn = gb[point, k], gb[point, kn]
            gb[point, k] = vk + 0.5 * vkn
            gb[point, kn] = vkn + 0.5 * vk
        return self._alpha * np.einsum("nk,nk->n", b, gb)

    @property
    def diagonal(self) -> np.ndarray:
        """Lattice self-response per point (analogue of k(f_i, f_i))."""
        return self._diag

    def scaled(self, rows: np.ndarray) -> "PermutohedralLattice":
        """This lattice with output row i multiplied by ``rows[i]``.

        ``filter`` of the result gives diag(rows) L, ``reverse=True`` its
        exact transpose L^T diag(rows), and ``diagonal`` is rows * diagonal.
        The factor and the slice scale are folded into a copy of the slice
        data; every other table is shared.
        """
        s = self._slice
        per_entry = np.repeat(self._alpha * rows, np.diff(s.indptr))
        out = copy.copy(self)
        out._slice = sparse.csr_matrix((s.data * per_entry, s.indices, s.indptr), shape=s.shape)
        out._alpha = 1.0
        out._diag = rows * self._diag
        return out

    # -- filtering --------------------------------------------------------

    def filter(self, values: np.ndarray, reverse: bool = False) -> np.ndarray:
        """Approximate Gaussian convolution of per-point values (N, C).

        With ``reverse=True`` the result is the exact transpose of the
        forward operator: the slice transposed splats, the blur axes run in
        the opposite order (the blurs along individual axes are symmetric
        but do not commute) and the splat transposed slices.
        """
        vals = np.asarray(values, dtype=np.float64)
        squeeze = vals.ndim == 1
        if squeeze:
            vals = vals[:, None]
        if vals.shape[0] != self.n:
            raise InputError(f"expected {self.n} rows, got {vals.shape[0]}")

        if reverse:
            splat, slice_, axes = self._slice.T, self._splat.T, range(self.dim, -1, -1)
        else:
            splat, slice_, axes = self._splat, self._slice, range(self.dim + 1)
        m = self.num_vertices
        lat = np.empty((m + 1, vals.shape[1]))
        lat[m] = 0.0  # the pad row that neighbor index -1 reads
        lat[:m] = splat @ vals
        v1, v2 = np.empty((2, m, vals.shape[1]))
        for a in axes:
            np.take(lat, self._n1[a], axis=0, out=v1, mode="wrap")
            np.take(lat, self._n2[a], axis=0, out=v2, mode="wrap")
            v1 += v2
            v1 *= 0.5
            lat[:m] += v1
        out = slice_ @ lat[:m]
        if self._alpha != 1.0:
            out *= self._alpha
        return out[:, 0] if squeeze else out
