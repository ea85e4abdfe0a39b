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
message matrix and D = diag(d), ``apply = M v`` and ``apply_transpose =
M^T g`` for M = D^-1 N (d depends only on the features, so M^T is the exact
adjoint of apply).  ``exact`` holds N = K - I, which is symmetric, so
apply is N v / d and apply_transpose N (g / d), in one of two forms:

- grid Kronecker: 2-D features on a row-major product grid (an image's
  spatial kernel, x = tile(xs, h), y = repeat(ys, w)) with h and w up to
  _KERNEL_CACHE_LIMIT keep the two self-excluded 1-D factors A_x over xs
  and A_y over ys, and K - I = A_y (x) I + I (x) A_x + A_y (x) A_x.  Then
  d = s_y + s_x + s_y s_x from the factors' row sums and
  N v = T + A_y (T + V) over an (h, w, C) view with T = A_x V, in
  O(N (h + w)) time and O(h^2 + w^2) memory beside the values, at any N;
- block walk: other features form N's upper triangle _MIRROR_BLOCK rows at
  a time, each entry once.  Up to _KERNEL_CACHE_LIMIT points N is kept:
  each block writes its rows k[s:e, s:] in place and mirrors them into
  k[e:, s:e], the blocks dealt in snake order over one thread per CPU the
  process may run on, in a pool that each build opens and closes, so no
  thread outlives the build.  No two blocks write one entry, so N is the
  same bit for bit for any number of threads, and an error in any block is
  raised in the caller once every thread has ended.  Above the limit each
  N v replays the walk on one thread, each block serving its own rows and,
  transposed, the rows below, and d is the walk applied to ones.

Kernel rows are formed one feature axis at a time (``_kernel_rows``): each
axis's differences are squared in place and summed into one of two lanes,
the even axes and the odd ones, and the lanes are added before the -1/2
scale and exp, so no (rows, N, d) difference array is formed.  That is the
order numpy's einsum over the axes was seen to sum in for d <= 7, so the
rows equal its form (kept in tests/_reference.py) bit for bit; numpy does
not document the order.  The grid factors and the energy's dense kernels
take the same form, inline.  Only the kept kernel's build runs on threads;
each message stays one BLAS call.

``lattice`` is stored pre-scaled as M, with no separate normalization pass
and no ``g / d`` copy.  It has N = P_ns (L - D_L) + P_s F, with L the
lattice filter, D_L its own diagonal response, P_s / P_ns the starved /
other rows and F exact kernel rows stored for the starved points only
(sparse, |starved| x N).  Its plan keeps
diag(r) L as one scaled lattice (r_i = 1 / d_i, 0 on starved rows; the
factor is folded into the slice rows, ``reverse=True`` gives the transpose),
D_L / d as one vector (0 on starved rows) and F with each row divided by
its d_s.  Both directions add the lattice rows in one ``add_offdiagonal``
call, a block at a time, and add F's term last: forward into the starved
rows, whose lattice rows are exactly 0, as one (|starved|, C) array, and
transposed as F^T's (N, C) term.  So a forward ``accumulate`` adds a
message with no (N, C) array.

Both backends form a message in one routine, ``out += w M v`` (w M^T v
transposed): ``apply`` and ``apply_transpose`` run it into a zeroed array
with w = 1, and ``accumulate`` into the caller's, for (N, C) values.

A plan is built for one dtype, chosen in one place, ``working_dtype``:
float32 for a lattice plan built for float32, float64 for every other plan
(the whole exact backend, the oracle).  A lattice plan holds its lattice,
D_L / d and F in that dtype alone (``lattice`` module docstring), so no call
casts a matrix.  Values of another working dtype raise ``InputError``
naming both dtypes rather than taking a hidden (N, C) copy, and values that
are not real numbers raise it naming theirs (``errors.check_real``).
Mean-field inference and the pipeline's unary reader ask ``working_dtype``
too, so a float32 unary file runs the lattice mean field in float32 with no
float64 copy.  A single point has no neighbors, so on either backend it
takes the exact form, a 1 x 1 zero kernel, with its normalizer defined as 1.

Lattice messages are a ratio of lattice outputs, which cancels the smoothly
varying splat/blur/slice leakage.  Points with little neighbor mass (below
a dimension-dependent threshold) are where that cancellation degrades —
much of their true kernel mass sits in the Gaussian mid-tail, outside the
lattice's compact support — so these starved points, worst first while their
7-sigma ball sizes sum to under FALLBACK_NNZ_LIMIT, take exact sparse kernel
rows (truncation below exp(-24.5)).  One scan forms the rows, worst first
and only until the budget is full, a block of rows at a time (1, 2, 4, ...
rows, at most _SCAN_DISTANCES distances): ||a||^2 + ||b||^2 - 2 a.b from one
GEMM screens the columns with a margin far above its rounding, and only the
candidates' squared distances are formed from their differences, in
ascending column order.  Time and memory follow the kept entries, not every
ball; starved points past the budget keep lattice rows (``past_budget``).

The lattice backend's sparse matrices (the lattice slice and F) are formed
by ``lattice.csr_from_arrays``, so scipy is loaded on the first lattice plan
build, not when this module is imported; the exact backend never loads it.
``PermutohedralLattice`` stays imported at module level: the benchmark
tracer (``perfbench/tracing.py``) patches ``filtering.PermutohedralLattice``
by name.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError, check_real
from .lattice import PermutohedralLattice, csr_from_arrays

if TYPE_CHECKING:
    from scipy import sparse

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
_MIRROR_BLOCK = 64  # rows per block of the exact kernel's upper-triangle walk
_SCAN_DISTANCES = 1 << 20  # most distances one block of the fallback scan forms
# the kept kernel's walk runs on one thread per CPU this process may use
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:  # platforms without CPU affinity
    _WORKERS = os.cpu_count() or 1


def working_dtype(backend: str, dtype) -> np.dtype:
    """The dtype a plan of ``backend`` forms messages in for values of
    ``dtype``: float32 on the lattice backend for float32 values, float64
    in every other case.  The one place the precision is chosen; mean-field
    inference and the pipeline's unary reader ask it (module docstring)."""
    lattice32 = backend == "lattice" and np.dtype(dtype) == np.float32
    return np.dtype(np.float32 if lattice32 else np.float64)


def _kernel_rows(
    features: np.ndarray,
    start: int,
    stop: int,
    first: int = 0,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Rows start..stop-1 of the self-excluded exact kernel K - I over
    columns first.. (first <= start), formed in ``out`` when it is given.

    One feature axis at a time, in place: the even axes' squared
    differences are summed in the rows and the odd axes' in a second lane,
    the lanes are added, then scaled by -1/2 and exponentiated.  ``scratch``
    is a flat float64 buffer of at least twice the rows' size (the odd lane
    and one axis's squares), allocated when not given."""
    shape = (stop - start, len(features) - first)
    size, dim = shape[0] * shape[1], features.shape[1]
    rows = np.empty(shape) if out is None else out
    extra = min(dim - 1, 2)  # the odd axes' sum, then one axis's squares
    if scratch is None:
        scratch = np.empty(extra * size)
    lanes = [rows] + [scratch[i * size : (i + 1) * size].reshape(shape) for i in range(extra)]
    for axis in range(dim):
        lane = lanes[axis % 2]
        sq = lane if axis < 2 else lanes[2]
        np.subtract(features[start:stop, axis, None], features[first:, axis], out=sq)
        sq *= sq
        if sq is not lane:
            lane += sq
    if dim > 1:
        rows += lanes[1]
    rows *= -0.5
    np.exp(rows, out=rows)
    rows[np.arange(shape[0]), np.arange(start - first, stop - first)] = 0.0
    return rows


def _mirror_blocks(features: np.ndarray, k: np.ndarray, starts, scratch: np.ndarray) -> None:
    """For each block start s, N's rows k[s:e, s:] in place and their mirror
    k[e:, s:e], every block's lanes in ``scratch``."""
    n = len(features)
    for s in starts:
        e = min(s + _MIRROR_BLOCK, n)
        rows = _kernel_rows(features, s, e, s, k[s:e, s:], scratch)
        k[e:, s:e] = rows[:, e - s :].T


def _fill_kernel(features: np.ndarray, k: np.ndarray) -> None:
    """N into the (N, N) ``k``: the walk's blocks dealt in snake order over
    a pool of up to _WORKERS threads that lives for this call alone.  The
    rows shrink down the triangle, so snake order evens the threads' shares.
    An error in any block is raised here, once every thread has ended.
    concurrent.futures is imported here because importing it adds about
    10 ms to every start of the program, lattice runs included."""
    from concurrent.futures import ThreadPoolExecutor

    n = len(features)
    starts = range(0, n, _MIRROR_BLOCK)
    workers = min(_WORKERS, len(starts))
    # each thread's lanes, in one buffer the caller allocates and frees:
    # lanes allocated in the pool's threads stay resident in their heaps
    scratch = np.empty((workers, 2 * _MIRROR_BLOCK * n))
    turn = 2 * workers
    shares = [[*starts[w::turn], *starts[turn - 1 - w :: turn]] for w in range(workers)]
    with ThreadPoolExecutor(workers, thread_name_prefix="voxcrf-kernel") as pool:
        tasks = [
            pool.submit(_mirror_blocks, features, k, share, lanes)
            for share, lanes in zip(shares, scratch)
        ]
    for task in tasks:  # the with exit has waited for every task
        task.result()


def _ball_pairs(
    features: np.ndarray, screen: np.ndarray, rows: np.ndarray, margin: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, j, d2): the pairs with d2 = ||f[rows[r]] - f[j]||^2 within
    FALLBACK_RADIUS^2, self pairs included, by r and then j ascending.

    ``screen`` is [f, -||f||^2 / 2], so one GEMM forms a.b - ||b||^2 / 2
    for each row a and column b; d2 = ||a||^2 + ||b||^2 - 2 a.b is within
    the radius, widened by ``margin``, where that is at least
    (||a||^2 - FALLBACK_RADIUS^2 - margin) / 2.  Only these candidates'
    d2 are formed, from their differences."""
    n = len(features)
    a = screen[rows]
    low = -(a[:, -1] + 0.5 * (FALLBACK_RADIUS**2 + margin))
    a[:, -1] = 1.0
    flat = np.flatnonzero(a @ screen.T >= low[:, None])
    r = flat // n
    j = flat - r * n
    diff = np.take(features, rows[r], axis=0)  # take: faster than fancy indexing
    diff -= np.take(features, j, axis=0)
    d2 = np.einsum("nd,nd->n", diff, diff)
    near = d2 <= FALLBACK_RADIUS**2
    return r[near], j[near], d2[near]


def _fallback_rows(
    features: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, sparse.csr_matrix]:
    """The exact fallback rows F: of the starved points ``order`` (worst
    first), the prefix whose balls, each counted with its point, sum to
    under FALLBACK_NNZ_LIMIT.  Returns the kept points ascending and F's
    rows for them, self-excluded, with ascending columns; for an empty
    ``order``, that order and an empty (0, N) F, with no distance formed."""
    n = len(features)
    if not len(order):
        empty = np.zeros(0, dtype=np.int32)
        return order, csr_from_arrays(np.zeros(0), empty, np.zeros(1, dtype=np.int64), (0, n))
    sq = np.einsum("nd,nd->n", features, features)
    margin = 1e-9 * (1.0 + sq.max())
    screen = np.column_stack([features, -0.5 * sq])
    cap = max(1, _SCAN_DISTANCES // n)
    index = np.int32 if n < 2**31 else np.int64  # scipy's CSR index type
    cols, vals = [], []
    lengths = [np.zeros(1, dtype=np.int64)]  # indptr's leading 0
    s, total, step = 0, 0, 1
    while s < len(order):
        rows = order[s : s + min(step, cap)]
        r, j, d2 = _ball_pairs(features, screen, rows, margin)
        sizes = np.bincount(r, minlength=len(rows))  # ball sizes, self included
        fit = int(np.searchsorted(total + np.cumsum(sizes), FALLBACK_NNZ_LIMIT))
        keep = (r < fit) & (j != rows[r])  # the self term is analytic
        cols.append(j[keep].astype(index))
        vals.append(np.exp(-0.5 * d2[keep]))
        lengths.append(sizes[:fit] - 1)
        total += int(sizes[:fit].sum())
        s += fit
        if fit < len(rows):
            break
        step *= 2
    indptr = np.cumsum(np.concatenate(lengths))
    f = csr_from_arrays(np.concatenate(vals), np.concatenate(cols), indptr, (s, n))
    del cols, vals  # f holds the rows now; one more copy puts them in point order
    rank = np.argsort(order[:s])
    return order[:s][rank], f[rank]


def _grid_axes(features: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(xs, ys) when 2-D ``features`` form the row-major product grid
    x = tile(xs, h), y = repeat(ys, w); None otherwise, and when a side is
    longer than _KERNEL_CACHE_LIMIT, so a dense factor is never larger than
    the dense kernel the exact backend keeps."""
    if features.shape[1] != 2:
        return None
    x, y = features[:, 0], features[:, 1]
    w = int(np.argmax(y != y[0])) or len(y)  # the first row's length
    if len(y) % w or max(w, len(y) // w) > _KERNEL_CACHE_LIMIT:
        return None
    xs, ys = x[:w], y[::w]
    if np.array_equal(x, np.tile(xs, len(ys))) and np.array_equal(y, np.repeat(ys, w)):
        return xs, ys
    return None


class FilterPlan:
    """Precomputed filtering structure, reusable across value channels.

    The plan is the operator M = D^-1 N (module docstring):
    ``apply = M v``, ``apply_transpose = M^T g`` and ``accumulate``
    (``out += w M v``) add through one routine, ``_add_message``.
    ``normalizers`` holds d; ``dtype``, the one dtype of its messages, is
    ``working_dtype(backend, dtype)`` of the dtype it is built for.

    Immutable after construction; apply/apply_transpose allocate their own
    scratch, so one plan may serve concurrent calls.
    """

    def __init__(self, features: np.ndarray, backend: str = "exact", dtype=np.float64):
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
        self.dtype = working_dtype(backend, dtype)
        self._lattice = None
        self._starved = np.zeros(0, dtype=np.int64)
        self._fallback = None
        self._past_budget = 0

        if backend == "lattice" and self.n > 1:
            self._init_lattice()
        else:  # one point, on either backend, takes a 1 x 1 zero kernel
            self._init_exact()

    # -- exact backend ------------------------------------------------------

    def _init_exact(self) -> None:
        # the two forms of N in the module docstring: grid factors or block walk
        self._kernel = self._factors = None
        axes = _grid_axes(self.features)
        if axes is not None:
            self._factors = ax, ay = tuple(_kernel_rows(c[:, None], 0, len(c)) for c in axes)
            sx, sy = ax.sum(axis=1), ay.sum(axis=1)[:, None]
            # (1 + s_y)(1 + s_x) - 1 without the cancellation of subtracting 1
            d = (sy + sx + sy * sx).ravel()
        elif self.n <= _KERNEL_CACHE_LIMIT:
            k = self._kernel = np.empty((self.n, self.n))
            _fill_kernel(self.features, k)
            d = k.sum(axis=1)
        else:
            d = self._numerator(np.ones((self.n, 1)))[:, 0]
        # one point has no neighbors: its normalizer is defined as 1
        self.normalizers = np.maximum(d, NORMALIZER_FLOOR) if self.n > 1 else np.ones(1)

    # -- lattice backend -----------------------------------------------------

    def _init_lattice(self) -> None:
        lat = PermutohedralLattice(self.features)
        raw = lat.filter(np.ones((self.n, 1)))[:, 0] - lat.diagonal

        threshold = (
            STARVED_THRESHOLD_HIGH_DIM if self.dim >= 3 else STARVED_THRESHOLD_LOW_DIM
        )
        under = np.flatnonzero(raw < threshold)
        starved, fallback = _fallback_rows(
            self.features, under[np.argsort(raw[under], kind="stable")]
        )
        raw[starved] = np.asarray(fallback.sum(axis=1)).ravel()
        self._starved, self._fallback = starved, fallback
        self._past_budget = len(under) - len(starved)
        self.normalizers = np.maximum(raw, NORMALIZER_FLOOR)
        scale = 1.0 / self.normalizers
        fallback.data *= np.repeat(scale[starved], np.diff(fallback.indptr))
        fallback.data = fallback.data.astype(self.dtype, copy=False)
        scale[starved] = 0.0  # starved rows come from F alone
        self._lattice = lat.scaled(scale, self.dtype)

    # -- the operator -------------------------------------------------------

    def _add_message(
        self, vals: np.ndarray, out: np.ndarray, transpose: bool, weight: float
    ) -> None:
        """``out += weight * M v``, or ``weight * M^T v`` with ``transpose``,
        for (N, C) ``vals`` and ``out``: the one routine apply,
        apply_transpose and accumulate run.  The exact form adds N v / d
        (N (v / d) transposed) as one array.  The scaled lattice adds its
        rows, diag(r) (L - D_L) v, then F's term, into the starved rows
        forward (whose lattice rows are exactly 0) and as F^T's term
        transposed: bit-equal to one unblocked pass."""
        if self._lattice is None:
            d = self.normalizers[:, None]
            msg = self._numerator(vals / d if transpose else vals)
            if not transpose:
                msg /= d
            msg *= weight
            out += msg
            return
        self._lattice.add_offdiagonal(vals, out, weight, reverse=transpose)
        if len(self._starved):
            starved, fallback = self._starved, self._fallback
            msg = fallback.T @ vals[starved] if transpose else fallback @ vals
            msg *= self.dtype.type(weight)
            if transpose:
                out += msg
            else:
                out[starved] += msg

    def _numerator(self, vals: np.ndarray) -> np.ndarray:
        """N v for the exact backend, in the form the plan holds."""
        if self._factors is not None:
            # N v = T + A_y (T + V) with T = A_x V, over an (h, w, C) view
            ax, ay = self._factors
            v = vals.reshape(len(ay), len(ax), -1)
            t = ax @ v
            out = ay @ (t + v).reshape(len(ay), -1)
            out += t.reshape(len(ay), -1)
            return out.reshape(vals.shape)
        if self._kernel is not None:
            # N v = (v^T N)^T, N being symmetric: with C << N, OpenBLAS runs
            # the (C, N) product about 1.5x faster than N v
            return (vals.T @ self._kernel).T
        # the block walk: each block's rows, formed in one buffer that the
        # next block reuses, serve its own rows and, transposed, those below
        n = self.n
        out = np.zeros_like(vals)
        buffer, scratch = np.empty(_MIRROR_BLOCK * n), np.empty(2 * _MIRROR_BLOCK * n)
        for s in range(0, n, _MIRROR_BLOCK):
            e = min(s + _MIRROR_BLOCK, n)
            rows = buffer[: (e - s) * (n - s)].reshape(e - s, n - s)
            rows = _kernel_rows(self.features, s, e, s, rows, scratch)
            out[s:e] += rows @ vals[s:]
            out[e:] += rows[:, e - s :].T @ vals[s:e]
        return out

    def _as_matrix(self, values: np.ndarray) -> np.ndarray:
        """(N, C) real values in the plan's dtype."""
        vals = np.asarray(values)
        check_real(vals, "values")
        if working_dtype(self.backend, vals.dtype) != self.dtype:
            raise InputError(f"values of dtype {vals.dtype} on a {self.dtype} {self.backend} plan")
        if vals.ndim != 2 or vals.shape[0] != self.n:
            raise InputError(f"values must be ({self.n}, C), got {vals.shape}")
        return vals.astype(self.dtype, copy=False)

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
    def past_budget(self) -> int:
        """Points under the starved threshold that FALLBACK_NNZ_LIMIT left
        on lattice rows."""
        return self._past_budget

    @property
    def fallback_nnz(self) -> int:
        """Stored kernel entries of the exact fallback rows."""
        return 0 if self._fallback is None else self._fallback.nnz

    def apply(self, values: np.ndarray) -> np.ndarray:
        """M v = D^-1 N v: normalized self-excluded Gaussian messages."""
        vals = self._as_matrix(values)
        out = np.zeros(vals.shape, vals.dtype)
        self._add_message(vals, out, False, 1.0)
        return out

    def accumulate(self, values: np.ndarray, weight: float, out: np.ndarray) -> None:
        """``out += weight * apply(values)`` in place; an ``out`` that is not
        a writeable ndarray, is of another shape than the values or of
        another dtype than the plan, or shares memory with the values (a
        lattice plan would form F's term from rows it has already changed)
        raises ``InputError`` and is left as it was.  A lattice plan forms
        no (N, C) message."""
        vals = self._as_matrix(values)
        if not isinstance(out, np.ndarray) or not out.flags.writeable:
            kind = "a read-only one" if isinstance(out, np.ndarray) else type(out).__name__
            raise InputError(f"out must be a writeable ndarray, got {kind}")
        if out.shape != vals.shape or out.dtype != self.dtype:
            raise InputError(f"out must be {self.dtype} {vals.shape}, got {out.dtype} {out.shape}")
        if np.shares_memory(out, vals):
            raise InputError("out must not share memory with the values")
        self._add_message(vals, out, False, weight)

    def apply_transpose(self, grads: np.ndarray) -> np.ndarray:
        """M^T g = N^T D^-1 g: the exact adjoint of apply (D held constant)."""
        vals = self._as_matrix(grads)
        out = np.zeros(vals.shape, vals.dtype)
        self._add_message(vals, out, True, 1.0)
        return out


def plan_filter(features: np.ndarray, backend: str = "exact", dtype=np.float64) -> FilterPlan:
    """Build a reusable filtering plan for θ-scaled feature vectors, for
    values whose ``working_dtype`` is that of ``dtype`` (module docstring)."""
    return FilterPlan(features, backend, dtype)

