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

Features whose embedded coordinates pass +-2^48 (``_ELEVATED_LIMIT``) raise
InputError: nearer 2^53 the float64 residuals elevated - rem0 lose the
fraction that ranks a point's simplex and gives its barycentric weights.

The build works on (N, d+1) arrays only, and drops each one after its last
read: a built lattice keeps only the slice, the neighbor tables and the
diagonal.  The d+1 vertex keys of a point are never materialized: their
first d coordinates (which identify a vertex, as all coordinates sum to 0)
are packed into one mixed-radix int64 code per (point, vertex) straight from
the point's remainder-0 corner and ranks; the distinct codes are decoded
back into vertex rows, and each (point, vertex) finds its vertex index by a
search of them.  When the coordinate ranges are too wide to pack, whole rows
are sorted as structured records instead, giving the same vertex order.  The
diagonal applies the restricted blur to each point's barycentric vector in
place, one axis at a time, a block of rows at a time.

``filter`` is ``blur`` (splat, then blur, into an (m, C) vertex grid)
followed by ``slice_rows`` over all N rows.  Each output row is a sum over
that row's slice weights alone, so a caller may slice a block of rows at a
time (``row_blocks``) and get the same rows bit for bit.

Precision: ``blur``, ``slice_rows`` and ``filter`` work in float32 for
float32 values and in float64 for any other (``as_values``), the grid and
the output in the values' dtype; which dtype a caller hands in is chosen by
``filtering.working_dtype``.  A lattice holds S and S' in both dtypes
(DTYPES; the float32 ones share the float64 index arrays), each with its
rows over every block of ``row_blocks`` as CSR matrices over views of its
arrays, formed once when the lattice is built (S' by ``scaled``), so no
filter call forms a matrix.  Every slice row holds d+1 entries, so the
first k+1 entries of indptr serve any k-row block; data and indices are
viewed through a memoryview, as scipy copies arrays that view a larger one.

Vectorized numpy throughout.  Splat and slice share one set of barycentric
weights, stored once as the (N, m) sparse slice matrix S; the splat is its
transpose S^T, so a built lattice can filter any number of value channels.
``scaled`` derives a lattice whose output rows carry a per-point factor
folded into a second slice S' (with the 1 / (1 + 2^-d) correction), for
callers that normalize the filter output per point; S' has its own weights
and shares S's index arrays.

S and S' are scipy.sparse CSR matrices.  scipy is imported in
``csr_from_arrays`` alone, the one place a CSR matrix is formed from new
arrays (``csr_rows``, ``csr_as``, ``scaled`` and the row views build theirs
with the type of the matrix they are given), so a process loads scipy on
its first lattice build, and code that never builds one (the exact backend,
scene generation, metrics) never does.  ``filtering`` imports
``PermutohedralLattice`` at module level: the benchmark tracer
(``perfbench/tracing.py``) patches ``filtering.PermutohedralLattice`` by
name, so that import must stay there.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError

if TYPE_CHECKING:
    from scipy import sparse

_ROW_BLOCK = 2048  # rows per block of a slice, the diagonal and the mean-field GEMM
# The precisions a lattice filters in: float32 values stay float32, any
# other values are filtered in float64 (``as_values``).
DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

# Lattice coordinates are encoded into a single int64 when the per-axis
# ranges allow it (fast unique + neighbor lookup); otherwise rows are sorted
# and searched as structured records.
_CODE_LIMIT = 2**62
# Largest elevated coordinate magnitude the build accepts (module docstring).
# Lattice messages matched the exact ones as well at 2^52 as near 0 on
# clustered 2-D points, and degraded past it, so 2^48 leaves a factor of 16.
_ELEVATED_LIMIT = 2.0**48


def _records(rows: np.ndarray) -> np.ndarray:
    """(R, d) int64 rows as R structured records that sort lexicographically."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    fields = [(f"f{i}", np.int64) for i in range(rows.shape[1])]
    return rows.view(np.dtype(fields)).reshape(-1)


def row_blocks(n: int):
    """(start, stop) of consecutive blocks of _ROW_BLOCK rows covering n rows.
    A last block of one row joins the one before it: numpy forms a one-row
    matrix product with gemv, whose sums may round unlike gemm's rows."""
    s = 0
    while s < n:
        e = s + _ROW_BLOCK
        e = n if e >= n - 1 else e
        yield s, e
        s = e


def csr_from_arrays(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int]
) -> sparse.csr_matrix:
    """The CSR matrix over the given arrays; the one import of scipy.sparse
    (module docstring)."""
    from scipy import sparse

    return sparse.csr_matrix((data, indices, indptr), shape=shape)


def _view(a: np.ndarray, start: int, stop: int) -> np.ndarray:
    """a[start:stop] over a memoryview of 1-D ``a``.  scipy copies the data
    and index arrays of a CSR matrix when their base array is over twice
    their size; this view's base is the memoryview, so it is kept as is."""
    return np.frombuffer(memoryview(a)[start:stop], a.dtype)


def csr_rows(matrix: sparse.csr_matrix, start: int, stop: int) -> sparse.csr_matrix:
    """Rows start..stop-1 of a CSR matrix over views of its data and index
    arrays (scipy's row slicing copies them); the whole matrix for all rows."""
    if start == 0 and stop == matrix.shape[0]:
        return matrix
    a, b = matrix.indptr[start], matrix.indptr[stop]
    indptr = matrix.indptr[start : stop + 1] - a
    return type(matrix)(
        (_view(matrix.data, a, b), _view(matrix.indices, a, b), indptr),
        shape=(stop - start, matrix.shape[1]),
    )


def csr_as(matrix: sparse.csr_matrix, dtype) -> sparse.csr_matrix:
    """``matrix`` with its entries in ``dtype``, over its own index arrays."""
    if matrix.dtype == dtype:
        return matrix
    return type(matrix)((matrix.data.astype(dtype), matrix.indices, matrix.indptr), matrix.shape)


def _slice_views(matrix: sparse.csr_matrix) -> dict:
    """{dtype: {(start, stop): rows}} of a slice matrix in each of DTYPES,
    for every block of ``row_blocks`` and for all rows.  Every row of a
    slice holds d+1 entries, so indptr[:k+1] is the indptr of any k rows:
    each block is a CSR matrix over views of the matrix's arrays alone."""
    n, m = matrix.shape
    width = int(matrix.indptr[1])
    views = {}
    for dtype in DTYPES:
        whole = csr_as(matrix, dtype)
        views[dtype] = rows = {(0, n): whole}
        for s, e in row_blocks(n):
            a, b = s * width, e * width
            rows[s, e] = type(whole)(
                (_view(whole.data, a, b), _view(whole.indices, a, b), whole.indptr[: e - s + 1]),
                (e - s, m),
            )
    return views


def as_values(values) -> np.ndarray:
    """``values`` as a float32 array when they are float32, else as float64:
    the precision a lattice filters them in (module docstring)."""
    vals = np.asarray(values)
    return vals if vals.dtype == np.float32 else vals.astype(np.float64, copy=False)


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

        # Each (N, d+1) array is dropped after its last read, so the build
        # peaks near six of them.
        elevated = _embed(feats)
        reach = max(elevated.max(), -elevated.min())
        if reach > _ELEVATED_LIMIT:
            raise InputError(
                f"feature values too large for the lattice: its coordinates reach "
                f"{reach:.3g}, past the bound 2^{np.log2(_ELEVATED_LIMIT):.0f} = "
                f"{_ELEVATED_LIMIT:.3g} within which it ranks them; raise the theta scales"
            )

        # Nearest remainder-0 lattice point (coordinates are multiples of d+1).
        v = elevated / dp1
        up = np.ceil(v) * dp1
        down = np.floor(v) * dp1
        del v
        rem0 = np.where(up - elevated < elevated - down, up, down)
        del up, down
        sums = np.rint(rem0.sum(axis=1) / dp1).astype(np.int64)

        # Rank = position in descending order of the residual, ties by index.
        order = np.argsort(-(elevated - rem0), axis=1, kind="stable")
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.broadcast_to(np.arange(dp1), rank.shape), axis=1)
        del order

        # Walk points whose rounded coordinates left the sum-0 sublattice.
        rank += sums[:, None]
        low, high = rank < 0, rank > d
        rank[low] += dp1
        rank[high] -= dp1
        rem0[low] += dp1
        rem0[high] -= dp1
        del low, high

        # y = (elevated - rem0) / (d+1), formed in elevated's buffer.
        y = elevated
        y -= rem0
        y /= dp1
        rem0i = np.rint(rem0[:, :d]).astype(np.int64)
        del rem0

        # Barycentric coordinates inside the enclosing simplex.  Each row's
        # column indices d - rank and d + 1 - rank are permutations, so no
        # index repeats within one fancy update.
        bary = np.zeros((self.n, dp1 + 1))
        point = np.arange(self.n)[:, None]
        bary[point, d - rank] += y
        bary[point, dp1 - rank] -= y
        del y, point
        bary[:, 0] += 1.0 + bary[:, dp1]
        bary = bary[:, :dp1]

        # Vertex k of a point's simplex is rem0 + canon[k][rank]; the first d
        # coordinates identify it (all coordinates sum to 0).
        canon = np.empty((dp1, dp1), dtype=np.int64)
        for k in range(dp1):
            canon[k, : dp1 - k] = k
            canon[k, dp1 - k :] = k - dp1
        vertices, vertex_idx = self._hash_vertices(rem0i, rank[:, :d], canon)
        del rem0i
        m = vertices.shape[0]
        self.num_vertices = m

        # the slice scale, applied in place after the slice (1.0 once folded
        # into the slice rows by ``scaled``)
        self._alpha = 1.0 / (1.0 + 2.0 ** (-d))
        self._diag = self._diagonal_response(bary, rank)
        del rank

        # Slice S: row i holds point i's d+1 barycentric weights; the splat
        # is S^T.  Each row's indices are sorted so the slice sums run in
        # vertex order; S owns its ``data`` (a copy of ``bary``), which the
        # sort reorders in place.
        indptr = np.arange(0, self.n * dp1 + 1, dp1)
        self._slice = csr_from_arrays(bary.flatten(), vertex_idx, indptr, (self.n, m))
        del bary, vertex_idx
        self._slice.sort_indices()
        self._out_slice = self._slice  # S', the slice of the output rows
        # S and S' in each of DTYPES with their row blocks, formed once here
        self._s_views = self._out_views = _slice_views(self._slice)

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
        del low
        if float(np.prod(self._ranges.astype(np.float64))) < _CODE_LIMIT:
            # Mixed-radix codes, most significant digit first: code order
            # is lexicographic row order.
            radix = np.ones(d, dtype=np.int64)
            for i in range(d - 2, -1, -1):
                radix[i] = radix[i + 1] * self._ranges[i + 1]
            self._radix = radix
            base = (rem0 - self._kmin) @ radix
            keys = np.empty((n, d + 1), dtype=np.int64)
            for k in range(d + 1):
                keys[:, k] = base + canon[k][rank] @ radix
            del base
            keys = keys.reshape(-1)
        else:
            # Extreme coordinate ranges: sort whole rows as structured records.
            keys = rem0[:, None, :] + canon[:, rank].transpose(1, 0, 2)
            keys = _records(keys.reshape(-1, d))
        # The inverse comes from a search of the sorted distinct keys, which
        # allocates one index per key (``return_inverse`` sorts them all).
        unique = np.unique(keys)
        inverse = np.searchsorted(unique, keys)
        if keys.dtype.names is None:
            self._codes = unique
            return self._kmin + (unique[:, None] // radix) % self._ranges, inverse
        self._codes, self._rows = None, unique
        return unique.view(np.int64).reshape(-1, d), inverse

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
        applying the updates to a copy of b in place, one axis at a time
        (two gathers and two scatters each), a block of rows at a time.
        Mass returning through vertices outside the simplex is ignored; that
        contribution is negligible exactly where the diagonal matters
        (sparse regions).
        """
        d = self.dim
        diag = np.empty(self.n)
        for s, e in row_blocks(self.n):
            b = bary[s:e]
            gb = b.copy()
            point = np.arange(e - s)
            for a in range(d + 1):
                k = d - rank[s:e, a]
                kn = (k + 1) % (d + 1)
                vk, vkn = gb[point, k], gb[point, kn]
                gb[point, k] = vk + 0.5 * vkn
                gb[point, kn] = vkn + 0.5 * vk
            diag[s:e] = self._alpha * np.einsum("nk,nk->n", b, gb)
        return diag

    @property
    def diagonal(self) -> np.ndarray:
        """Lattice self-response per point (analogue of k(f_i, f_i))."""
        return self._diag

    def scaled(self, rows: np.ndarray) -> "PermutohedralLattice":
        """This lattice with output row i multiplied by ``rows[i]``.

        ``filter`` of the result gives diag(rows) L, ``reverse=True`` its
        exact transpose L^T diag(rows), and ``diagonal`` is rows * diagonal.
        The factor and the slice scale are folded into the output slice S', a
        new data array over S's ``indices`` and ``indptr``; S, which still
        splats, and every other table are shared.
        """
        s = self._out_slice
        per_entry = np.repeat(self._alpha * rows, np.diff(s.indptr))
        out = copy.copy(self)
        out._out_slice = type(s)((s.data * per_entry, s.indices, s.indptr), shape=s.shape)
        out._out_views = _slice_views(out._out_slice)
        out._alpha = 1.0
        out._diag = rows * self._diag
        return out

    # -- filtering --------------------------------------------------------

    def filter(self, values: np.ndarray, reverse: bool = False) -> np.ndarray:
        """Approximate Gaussian convolution of per-point values (N, C).

        Forward, S^T splats and the output slice S' slices (S' is S unless
        the lattice is ``scaled``).  With ``reverse=True`` the result is the
        exact transpose: S'^T splats, the blur axes run in the opposite order
        (the blurs along individual axes are symmetric but do not commute)
        and S slices.  It is ``slice_rows`` of ``blur`` over all N rows.
        """
        vals = as_values(values)
        squeeze = vals.ndim == 1
        grid = self.blur(vals[:, None] if squeeze else vals, reverse)
        out = self.slice_rows(grid, 0, self.n, reverse)
        return out[:, 0] if squeeze else out

    def blur(self, values: np.ndarray, reverse: bool = False) -> np.ndarray:
        """The splatted and blurred (m, C) vertex grid of (N, C) ``values``
        that ``slice_rows`` reads, for ``filter`` in the given direction."""
        vals = as_values(values)
        if vals.ndim != 2 or vals.shape[0] != self.n:
            raise InputError(f"expected ({self.n}, C) values, got {vals.shape}")
        if reverse:
            splat, axes = self._out_views, range(self.dim, -1, -1)
        else:
            splat, axes = self._s_views, range(self.dim + 1)
        m = self.num_vertices
        lat = np.empty((m + 1, vals.shape[1]), vals.dtype)
        lat[m] = 0.0  # the pad row that neighbor index -1 reads
        lat[:m] = splat[vals.dtype][0, self.n].T @ vals
        v1, v2 = np.empty((2, m, vals.shape[1]), vals.dtype)
        for a in axes:
            np.take(lat, self._n1[a], axis=0, out=v1, mode="wrap")
            np.take(lat, self._n2[a], axis=0, out=v2, mode="wrap")
            v1 += v2
            v1 *= 0.5
            lat[:m] += v1
        return lat[:m]

    def slice_rows(
        self, grid: np.ndarray, start: int, stop: int, reverse: bool = False
    ) -> np.ndarray:
        """Rows start..stop-1 of ``filter`` from its ``blur`` grid, for a
        block of ``row_blocks`` or all rows, in the grid's dtype.  Each
        output row is its own sum over that row's slice weights, so a block
        of rows equals the same rows of the whole output bit for bit."""
        out = (self._s_views if reverse else self._out_views)[grid.dtype][start, stop] @ grid
        if self._alpha != 1.0:
            out *= self._alpha
        return out
