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

The build makes whole-array passes over (N, d+1) arrays, and drops each one
after its last read: a built lattice keeps only the slice, the neighbor
tables and the diagonal, and no key table.  A point's ranks come from
d(d+1)/2 comparisons of its residuals, one per pair of coordinates.  Its
enclosing simplex is its remainder-0 corner and its ranks, so points are
hashed once by simplex (one np.unique over N codes), and the d+1 vertex
keys, their sort and the search for each key's vertex index run over the
distinct simplices alone: about a third of the points of a camera frame,
whose neighboring pixels share simplices.  A vertex key is its first d
coordinates (which identify it, as all coordinates sum to 0), packed into
one mixed-radix int64 code over a box d+1 wider on each side than the
vertices, so a blur neighbor (no coordinate more than d away) is its
vertex's code plus a fixed step per axis; a simplex's code is its corner's
code above its ranks' digits.  When those codes would not fit an int64,
rows are structured records instead, giving the same vertex order; one
sorted-table search finds neighbors in either format.  Each distinct
simplex's vertex indices are sorted once and gathered back to its points
with its weights, so S is formed with sorted rows and int32 indices where
they fit: scipy neither sorts nor converts them.  The diagonal applies the
restricted blur to each point's barycentric vector in place, one axis at a
time, over flat indices into all N rows.

``filter`` is ``blur`` (splat, then blur, into an (m, C) vertex grid) and
a slice of all N rows; ``add_offdiagonal`` adds w (filter - diagonal) v a
block of ``row_blocks`` at a time, bit-equal row for row, as each output
row sums that row's slice weights alone.  Values are (N, C) arrays.

Precision: a lattice filters values of its slice's dtype alone, float64
as built; ``scaled(rows, dtype)`` forms S', the diagonal and, for float32,
S in float64, casts them and keeps no float64 copy.  Each slice is held
with its rows over every block of ``row_blocks`` as CSR matrices over
views of its arrays, formed once (S' by ``scaled``), so no filter call
forms a matrix.  Every slice row holds d+1 entries, so the first k+1
entries of indptr serve any k-row block; data and indices are viewed
through a memoryview, as scipy copies arrays that view a larger one.

Vectorized numpy throughout.  Splat and slice share one set of barycentric
weights, stored once as the (N, m) sparse slice matrix S; the splat is its
transpose S^T, so a built lattice can filter any number of value channels.
``scaled`` derives a lattice whose output rows carry a per-point factor
folded into a second slice S' (with the 1 / (1 + 2^-d) correction), for
callers that normalize the filter output per point; S' has its own weights
and shares S's index arrays.

S and S' are scipy.sparse CSR matrices.  scipy is imported in
``csr_from_arrays`` alone, the one place a CSR matrix is formed from new
arrays (``scaled`` and the row views build theirs with the type of the
matrix they are given), so a process loads scipy on
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
    from collections.abc import Callable

    from scipy import sparse

_ROW_BLOCK = 2048  # rows per block of a slice and of the mean-field GEMM

# Simplices and lattice coordinates are encoded into a single int64 when the
# per-axis ranges allow it (fast unique + neighbor lookup); otherwise rows are
# sorted and searched as structured records.
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


def _find(table: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Index of each query in the sorted distinct ``table``, -1 where absent."""
    pos = np.searchsorted(table, query)
    np.minimum(pos, len(table) - 1, out=pos)
    return np.where(table[pos] == query, pos, -1)


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


def _slice_views(matrix: sparse.csr_matrix) -> dict:
    """{(start, stop): rows} of a slice matrix for every block of
    ``row_blocks`` and for all rows.  Every row of a slice holds d+1
    entries, so indptr[:k+1] is the indptr of any k rows: each block is a
    CSR matrix over views of the matrix's arrays alone."""
    n, m = matrix.shape
    width = int(matrix.indptr[1])
    rows = {(0, n): matrix}
    for s, e in row_blocks(n):
        a, b = s * width, e * width
        rows[s, e] = type(matrix)(
            (_view(matrix.data, a, b), _view(matrix.indices, a, b), matrix.indptr[: e - s + 1]),
            (e - s, m),
        )
    return rows


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
        rank_type = np.min_scalar_type(-2 * dp1)  # ranks stay in [-d, 2d] until the walk

        # Each (N, d+1) array is dropped after its last read, so the build
        # peaks near four of them (five at d = 2, where its N-long index and
        # value arrays weigh a third of one each).
        elevated = _embed(feats)
        reach = max(elevated.max(), -elevated.min())
        if reach > _ELEVATED_LIMIT:
            raise InputError(
                f"feature values too large for the lattice: its coordinates reach "
                f"{reach:.3g}, past the bound 2^{np.log2(_ELEVATED_LIMIT):.0f} = "
                f"{_ELEVATED_LIMIT:.3g} within which it ranks them; raise the theta scales"
            )

        # Nearest remainder-0 lattice point (coordinates are multiples of
        # d+1): the one below, raised where the one above is strictly nearer.
        # Its sums are exact: they add multiples of d+1 below 2^53.
        rem0 = elevated / dp1
        np.floor(rem0, out=rem0)
        rem0 *= dp1
        up = rem0 + dp1
        up -= elevated
        np.multiply(up < elevated - rem0, dp1, out=up)
        rem0 += up
        del up
        sums = np.rint(rem0 @ np.ones(dp1) / dp1).astype(rank_type)

        # Rank = position in descending order of the residual, ties by
        # index: one comparison per pair of coordinates, over
        # coordinate-major rows.
        residual = np.empty((dp1, self.n))
        np.subtract(elevated.T, rem0.T, out=residual)
        rank = np.empty((dp1, self.n), rank_type)
        rank[:] = np.arange(dp1)[:, None]
        for i in range(dp1):
            for j in range(i + 1, dp1):
                above = residual[i] < residual[j]  # j ranks before i
                rank[i] += above
                rank[j] -= above
        del residual, above
        rank = np.ascontiguousarray(rank.T)

        # Walk points whose rounded coordinates left the sum-0 sublattice.
        rank += sums[:, None]
        del sums
        wrap = np.subtract(rank < 0, rank > d, dtype=rank_type)
        wrap *= dp1
        rank += wrap
        rem0 += wrap
        del wrap

        # y = (elevated - rem0) / (d+1), formed in elevated's buffer; adding
        # 0.0 turns the -0.0 of an elevated -0.0 on a corner at 0 into 0.0,
        # so no barycentric weight below comes out as -0.0.
        y = elevated
        y -= rem0
        y /= dp1
        y += 0.0
        rem0i = rem0[:, :d].astype(np.int64)  # exact: rem0 holds integers
        del rem0
        simplex, vertex_idx, neighbors = self._hash_vertices(rem0i, rank)
        del rem0i

        # Barycentric coordinates inside the enclosing simplex: with z[k]
        # the y of the axis ranked d - k, b[k] = z[k] - z[k-1] for k >= 1
        # and b[0] = z[0] + (1 - z[d]), formed in y's buffer.
        z = np.empty_like(y)
        z[np.arange(self.n)[:, None], d - rank] = y
        bary = y
        np.subtract(z[:, 1:], z[:, :-1], out=bary[:, 1:])
        np.subtract(1.0, z[:, d], out=bary[:, 0])
        bary[:, 0] += z[:, 0]
        del y, z

        # the slice scale, applied in place after the slice (1.0 once folded
        # into the slice rows by ``scaled``)
        self._alpha = 1.0 / (1.0 + 2.0 ** (-d))
        self._diag = self._diagonal_response(bary, rank)
        del rank

        # Slice S: row i holds point i's d+1 barycentric weights in
        # vertex-index order, so the slice sums run in that order; the splat
        # is S^T.  Each distinct simplex's vertex indices are sorted once and
        # gathered back to its points, so S needs no sort, and its index
        # arrays are int32 where they fit, as scipy would make them.
        order = np.argsort(vertex_idx, axis=1)
        itype = np.int32 if self.n * dp1 < 2**31 else np.int64
        indices = np.take_along_axis(vertex_idx, order, axis=1).astype(itype)[simplex]
        del vertex_idx
        data = np.take_along_axis(bary, order.astype(rank_type)[simplex], axis=1)
        del bary, order, simplex
        indptr = np.arange(0, self.n * dp1 + 1, dp1, dtype=itype)
        shape = (self.n, self.num_vertices)
        self._slice = csr_from_arrays(data.reshape(-1), indices.reshape(-1), indptr, shape)
        del data, indices
        # S with its row blocks, formed once here; it is also the output
        # slice S' until ``scaled`` forms one
        self._s_views = self._out_views = _slice_views(self._slice)
        self._n1, self._n2 = neighbors()

    # -- vertex hashing ---------------------------------------------------

    def _hash_vertices(
        self, rem0: np.ndarray, rank: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, Callable[[], tuple[np.ndarray, np.ndarray]]]:
        """The index of each point's simplex among the u distinct ones, the
        (u, d+1) vertex indices of each distinct simplex, and a function
        that forms the blur neighbor tables; sets ``num_vertices`` and
        ``_packed``, whether keys are int64 codes or structured records.

        ``rem0`` holds the first d coordinates of each point's remainder-0
        corner and ``rank`` its (N, d+1) ranks.  A simplex is its corner and
        its first d ranks, so points are hashed by those and only the u
        distinct simplices form keys: vertex k of one is its corner plus
        canon[k][rank], and its first d coordinates identify it (all sum to 0).
        The sorted distinct keys live on in that function alone, which the
        build calls once its (N, d+1) arrays are dropped.
        """
        n, d = rem0.shape
        dp1 = d + 1
        # canon[k][r] spans [-r, d - r] over k, which bounds every key; d+1 more
        # on each side holds every blur neighbor (no coordinate d+1 away).
        low = rem0 - rank[:, :d]
        kmin = np.array([c.min() for c in low.T]) - dp1
        ranges = np.array([c.max() for c in low.T]) + d + dp1 - kmin + 1
        del low
        spread = dp1**d  # bounds the code of a point's first d ranks
        self._packed = packed = float(np.prod(ranges.astype(np.float64))) * spread < _CODE_LIMIT
        if packed:
            # Mixed-radix codes, most significant digit first: code order
            # is lexicographic row order.  A simplex's code is its corner's
            # (the key of vertex 0) above its ranks' digits.
            radix = np.ones(d, dtype=np.int64)
            for i in range(d - 2, -1, -1):
                radix[i] = radix[i + 1] * ranges[i + 1]
            corner = (rem0 - kmin) @ radix
            code = corner * spread + rank[:, :d] @ dp1 ** np.arange(d - 1, -1, -1)
        else:
            # Extreme coordinate ranges: whole rows as structured records.
            corner = rem0
            code = _records(np.hstack([rem0, rank[:, :d]]))
        _, simplex = np.unique(code, return_inverse=True)
        del code
        first = np.empty(simplex.max() + 1, dtype=np.intp)  # a point of each simplex
        first[simplex] = np.arange(n)

        canon = np.empty((dp1, dp1), dtype=np.int64)
        for k in range(dp1):
            canon[k, : dp1 - k] = k
            canon[k, dp1 - k :] = k - dp1
        corner, srank = corner[first], rank[first, :d]
        keys = np.empty((len(first), dp1, *corner.shape[1:]), dtype=np.int64)
        for k in range(dp1):
            offset = canon[k][srank]
            keys[:, k] = corner + (offset @ radix if packed else offset)
        del corner, srank
        keys = keys.reshape(-1) if packed else _records(keys.reshape(-1, d))
        # each key's vertex index is its place among the sorted distinct keys
        table = np.unique(keys)
        vertex_idx = np.searchsorted(table, keys).reshape(-1, dp1)
        self.num_vertices = len(table)

        def neighbors() -> tuple[np.ndarray, np.ndarray]:
            """(n1, n2): along axis a, the vertex index of key + 1 - (d+1) e_a
            and key - 1 + (d+1) e_a (axis d, not kept, moves all d by 1), or
            -1, which reads the zero pad row of the blur buffer."""
            move = np.ones((dp1, d), dtype=np.int64)
            move[np.arange(d), np.arange(d)] -= dp1
            base = table if packed else table.view(np.int64).reshape(-1, d)
            move = move @ radix if packed else move
            n1, n2 = np.empty((2, dp1, len(table)), dtype=np.int64)
            for a in range(dp1):
                for out, step in ((n1, move[a]), (n2, -move[a])):
                    query = base + step
                    out[a] = _find(table, query if packed else query.view(table.dtype)[:, 0])
            return n1, n2

        return simplex, vertex_idx, neighbors

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
        (two gathers and two scatters each, over flat indices into all N
        rows).
        Mass returning through vertices outside the simplex is ignored; that
        contribution is negligible exactly where the diagonal matters
        (sparse regions).
        """
        d = self.dim
        gb = bary.copy()
        flat = gb.reshape(-1)
        row = np.arange(0, self.n * (d + 1), d + 1)
        for a in range(d + 1):
            k = d - rank[:, a]
            ik = row + k
            ikn = row + (k + 1) % (d + 1)
            vk, vkn = flat[ik], flat[ikn]
            flat[ik] = vk + 0.5 * vkn
            flat[ikn] = vkn + 0.5 * vk
        return self._alpha * np.einsum("nk,nk->n", bary, gb)

    @property
    def diagonal(self) -> np.ndarray:
        """Lattice self-response per point (analogue of k(f_i, f_i))."""
        return self._diag

    def scaled(self, rows: np.ndarray, dtype=np.float64) -> "PermutohedralLattice":
        """This lattice in ``dtype``, with output row i multiplied by ``rows[i]``.

        ``filter`` of the result gives diag(rows) L, ``reverse=True`` its
        exact transpose L^T diag(rows), and ``diagonal`` is rows * diagonal.
        The factor and the slice scale are folded into the output slice S', a
        new data array over S's ``indices`` and ``indptr``; S, which still
        splats, and every other table are shared (S cast to another dtype).
        """
        s, s_out = self._slice, self._out_views[0, self.n]
        out = copy.copy(self)
        if np.dtype(dtype) != s.dtype:
            out._slice = type(s)((s.data.astype(dtype), s.indices, s.indptr), shape=s.shape)
            out._s_views = _slice_views(out._slice)
        # every row holds d+1 entries, so each row's factor broadcasts over them
        data = s_out.data.reshape(self.n, -1) * (self._alpha * rows)[:, None]
        data = data.reshape(-1).astype(dtype, copy=False)
        out._out_views = _slice_views(type(s)((data, s.indices, s.indptr), shape=s.shape))
        out._alpha = 1.0
        out._diag = (rows * self._diag).astype(dtype, copy=False)
        return out

    # -- filtering --------------------------------------------------------

    def filter(self, values: np.ndarray, reverse: bool = False) -> np.ndarray:
        """Approximate Gaussian convolution of per-point values (N, C).

        Forward, S^T splats and the output slice S' slices (S' is S unless
        the lattice is ``scaled``).  With ``reverse=True`` the result is the
        exact transpose: S'^T splats, the blur axes run in the opposite order
        (the blurs along individual axes are symmetric but do not commute)
        and S slices."""
        grid = self.blur(values, reverse)
        out = (self._s_views if reverse else self._out_views)[0, self.n] @ grid
        if self._alpha != 1.0:
            out *= self._alpha
        return out

    def add_offdiagonal(self, values: np.ndarray, out: np.ndarray, weight=1.0, reverse=False):
        """``out += weight (filter(v) - diagonal v)`` for (N, C) ``values``
        and an ``out`` like them, a block of rows at a time (the diagonal
        term in one reused block buffer, and no product at weight 1), each
        row bit-equal to the whole-array form; ``reverse`` as in ``filter``."""
        vals = np.asarray(values)
        grid = self.blur(vals, reverse)
        if out.shape != vals.shape or out.dtype != vals.dtype:
            raise InputError(f"out must be {vals.dtype} {vals.shape}, got {out.dtype} {out.shape}")
        views, weight = self._s_views if reverse else self._out_views, vals.dtype.type(weight)
        diag = np.empty((min(self.n, _ROW_BLOCK + 1), vals.shape[1]), vals.dtype)
        for s, e in row_blocks(self.n):
            rows = views[s, e] @ grid
            if self._alpha != 1.0:
                rows *= self._alpha
            rows -= np.multiply(vals[s:e], self._diag[s:e, None], out=diag[: e - s])
            if weight != 1:
                rows *= weight
            out[s:e] += rows

    def blur(self, values: np.ndarray, reverse: bool = False) -> np.ndarray:
        """The splatted and blurred (m, C) vertex grid of (N, C) ``values``
        that ``filter`` and ``add_offdiagonal`` slice in that direction."""
        vals = np.asarray(values)
        if vals.ndim != 2 or vals.shape[0] != self.n:
            raise InputError(f"expected ({self.n}, C) values, got {vals.shape}")
        if vals.dtype != self._slice.dtype:
            raise InputError(f"{vals.dtype} values on a {self._slice.dtype} lattice")
        if reverse:
            splat, axes = self._out_views, range(self.dim, -1, -1)
        else:
            splat, axes = self._s_views, range(self.dim + 1)
        m = self.num_vertices
        lat = np.empty((m + 1, vals.shape[1]), vals.dtype)
        lat[m] = 0.0  # the pad row that neighbor index -1 reads
        lat[:m] = splat[0, self.n].T @ vals
        v1, v2 = np.empty((2, m, vals.shape[1]), vals.dtype)
        for a in axes:
            np.take(lat, self._n1[a], axis=0, out=v1, mode="wrap")
            np.take(lat, self._n2[a], axis=0, out=v2, mode="wrap")
            v1 += v2
            v1 *= 0.5
            lat[:m] += v1
        return lat[:m]
