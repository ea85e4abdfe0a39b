"""Independent straight-line oracles used by the test suite.

Deliberately naive: explicit kernel construction with Python loops and the
five mean-field stages written out directly, sharing no code with the
production modules.  The one exception is ``brute_force_map``, the
exhaustive MAP oracle, kept as it was in ``voxcrf.crf``: it forms its
pairwise weights with ``crf._weighted_kernel``, as ``crf_energy`` does.
"""

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from voxcrf.crf import (
    CrfParams,
    FeatureField,
    LabelImage,
    UnaryField,
    _check_dims,
    _weighted_kernel,
)
from voxcrf.errors import SizeLimitError

BRUTE_FORCE_LIMIT = 2**20  # max number of labelings enumerated


def reference_kernel(features: np.ndarray) -> np.ndarray:
    n = features.shape[0]
    k = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            k[i, j] = np.exp(-0.5 * float(np.sum((features[i] - features[j]) ** 2)))
    np.fill_diagonal(k, 0.0)
    return k


def reference_kernel_rows(
    features: np.ndarray, start: int, stop: int, first: int = 0
) -> np.ndarray:
    """Rows start..stop-1 of K - I over columns first.., in the einsum form
    ``filtering._kernel_rows`` had before it formed rows one axis at a
    time: one (rows, N, d) difference array and one einsum over d."""
    diff = features[start:stop, None, :] - features[None, first:, :]
    rows = np.exp(-0.5 * np.einsum("rjd,rjd->rj", diff, diff))
    rows[np.arange(stop - start), np.arange(start - first, stop - first)] = 0.0
    return rows


def reference_messages(features: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Normalized self-excluded Gaussian messages, literal double sum."""
    k = reference_kernel(features)
    d = np.maximum(k.sum(axis=1), 1e-12)
    return (k @ values) / d[:, None]


def reference_mean_field(
    u: np.ndarray,
    feature_list: list[np.ndarray],
    weights: np.ndarray,
    mu: np.ndarray,
    iterations: int,
) -> np.ndarray:
    """Unrolled mean field: init softmax, then per iteration message passing,
    weighting, compatibility transform, adding unary, softmax."""
    n, num_labels = u.shape
    kernels = [reference_kernel(f) for f in feature_list]
    norms = [np.maximum(k.sum(axis=1), 1e-12) for k in kernels]

    e = np.exp(u)
    q = e / e.sum(axis=1, keepdims=True)
    for _ in range(iterations):
        combined = np.zeros_like(q)
        for w, k, d in zip(weights, kernels, norms):
            combined += w * ((k @ q) / d[:, None])
        pairwise = np.zeros_like(q)
        for l in range(num_labels):
            for lp in range(num_labels):
                pairwise[:, l] += mu[l, lp] * combined[:, lp]
        logits = u - pairwise
        e = np.exp(logits)
        q = e / e.sum(axis=1, keepdims=True)
    return q


def reference_energy(
    labeling: np.ndarray,
    u: np.ndarray,
    feature_list: list[np.ndarray],
    weights: np.ndarray,
    mu: np.ndarray,
) -> float:
    """Literal double-sum Gibbs energy."""
    n = u.shape[0]
    total = 0.0
    for i in range(n):
        total -= u[i, labeling[i]]
    for i in range(n):
        for j in range(i + 1, n):
            k_sum = 0.0
            for w, f in zip(weights, feature_list):
                k_sum += w * np.exp(-0.5 * float(np.sum((f[i] - f[j]) ** 2)))
            total += mu[labeling[i], labeling[j]] * k_sum
    return total


# ---------------------------------------------------------------------------
# Voxel fusion: the per-point dict map the array-backed VoxelMap replaced
# ---------------------------------------------------------------------------

REFERENCE_LIKELIHOOD_FLOOR = 1e-8


def bayes_update(prior: np.ndarray, likelihood: np.ndarray) -> np.ndarray:
    """Posterior = normalized elementwise product, computed in log space."""
    prior = np.asarray(prior, dtype=np.float64)
    likelihood = np.asarray(likelihood, dtype=np.float64)
    if prior.shape != likelihood.shape:
        raise ValueError(f"shape mismatch {prior.shape} vs {likelihood.shape}")
    log_post = np.log(np.maximum(prior, REFERENCE_LIKELIHOOD_FLOOR)) + np.log(
        np.maximum(likelihood, REFERENCE_LIKELIHOOD_FLOOR)
    )
    log_post -= log_post.max()
    post = np.exp(log_post)
    return post / post.sum()


def _reference_normalize_log(log_dist: np.ndarray) -> np.ndarray:
    log_dist = log_dist - log_dist.max()
    log_dist -= np.log(np.exp(log_dist).sum())
    return log_dist


class ReferenceVoxelMap:
    """dict[(i, j, k)] -> [normalized log posterior, observations, color sum],
    updated one point at a time."""

    def __init__(self, resolution: float, labels: int):
        self.resolution = resolution
        self.labels = labels
        self.cells: dict[tuple[int, int, int], list] = {}

    def integrate(self, points: np.ndarray, dists: np.ndarray, colors: np.ndarray) -> None:
        idx = np.floor(points / self.resolution).astype(np.int64)
        log_lik = np.log(np.maximum(dists, REFERENCE_LIKELIHOOD_FLOOR))
        colors = colors.astype(np.float64)
        for i in range(points.shape[0]):
            key = (int(idx[i, 0]), int(idx[i, 1]), int(idx[i, 2]))
            cell = self.cells.get(key)
            if cell is None:
                # uniform prior contributes a constant absorbed by normalization
                self.cells[key] = [_reference_normalize_log(log_lik[i].copy()), 1, colors[i].copy()]
            else:
                cell[0] = _reference_normalize_log(cell[0] + log_lik[i])
                cell[1] += 1
                cell[2] = cell[2] + colors[i]

    def extract(self, min_observations: int, min_confidence: float) -> list[tuple]:
        """Rows (center, label, confidence, uint8 mean color) in sorted key
        order; argmax ties go to the smallest label id."""
        rows = []
        for key in sorted(self.cells):
            log_dist, obs, color_sum = self.cells[key]
            if obs < min_observations:
                continue
            dist = np.exp(log_dist)
            label = int(np.argmax(dist))
            if dist[label] < min_confidence:
                continue
            center = (np.asarray(key, dtype=np.float64) + 0.5) * self.resolution
            color = np.clip(np.rint(color_sum / obs), 0, 255).astype(np.uint8)
            rows.append((center, label, float(dist[label]), color))
        return rows

    def evaluate(self, world: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, int, int]:
        """(confusion counts, hits, missing) of world points with truth labels,
        one dict lookup per point."""
        counts = np.zeros((self.labels, self.labels), dtype=np.int64)
        hits = missing = 0
        idx = np.floor(world / self.resolution).astype(np.int64)
        for i in range(world.shape[0]):
            cell = self.cells.get((int(idx[i, 0]), int(idx[i, 1]), int(idx[i, 2])))
            if cell is None:
                missing += 1
            else:
                counts[truth[i], int(np.argmax(cell[0]))] += 1
                hits += 1
        return counts, hits, missing


# ---------------------------------------------------------------------------
# Starved-point fallback: the k-d tree form the screened scan replaced
# ---------------------------------------------------------------------------


def reference_fallback(
    features: np.ndarray, mass: np.ndarray, threshold: float, radius: float, limit: int
) -> tuple[np.ndarray, np.ndarray, sparse.csr_matrix | None]:
    """(starved, normalizers, F) of a lattice plan whose lattice neighbor
    mass is ``mass``: the points under ``threshold``, worst first, whose
    ``radius`` balls (self included) sum to under ``limit`` take exact
    self-excluded kernel rows F, each divided by its normalizer.  The balls
    are counted with scipy's cKDTree in chunks of 1, 2, 4, ... points until
    their sum reaches ``limit``; the kept pairs come from one
    ``sparse_distance_matrix``.  F is None when no point is kept."""
    raw = np.array(mass, dtype=np.float64)
    starved = np.flatnonzero(raw < threshold)
    fallback = None
    if len(starved):
        starved = starved[np.argsort(raw[starved], kind="stable")]
        tree = cKDTree(features)
        lens = np.zeros(0, dtype=np.intp)
        while len(lens) < len(starved) and lens.sum() < limit:
            chunk = features[starved[len(lens) : 2 * len(lens) + 1]]
            lens = np.append(lens, tree.query_ball_point(chunk, radius, return_length=True))
        starved = np.sort(starved[: np.searchsorted(np.cumsum(lens), limit)])
        pairs = cKDTree(features[starved]).sparse_distance_matrix(
            tree, radius, output_type="ndarray"
        )
        pairs = pairs[pairs["j"] != starved[pairs["i"]]]
        rows, cols = pairs["i"], pairs["j"]
        diff = features[starved[rows]] - features[cols]
        vals = np.exp(-0.5 * np.einsum("nd,nd->n", diff, diff))
        fallback = sparse.csr_matrix((vals, (rows, cols)), (len(starved), len(features)))
        fallback.sort_indices()
        raw[starved] = np.asarray(fallback.sum(axis=1)).ravel()
    normalizers = np.maximum(raw, 1e-12)
    if len(starved):
        fallback.data *= np.repeat(1.0 / normalizers[starved], np.diff(fallback.indptr))
    else:
        fallback = None
    return starved, normalizers, fallback


# ---------------------------------------------------------------------------
# Permutohedral lattice: the key-materializing build the lean one replaced
# ---------------------------------------------------------------------------


class ReferenceLattice:
    """Permutohedral lattice built by materializing every point's (d+1, d+1)
    vertex keys and (d+1, d+1) restricted-blur matrix; vertices hashed by
    packed int64 codes, or by a dict of key tuples when the ranges are too
    wide to pack.  Exposes the same tables as the production lattice."""

    CODE_LIMIT = 2**62

    def __init__(self, features: np.ndarray):
        feats = np.asarray(features, dtype=np.float64)
        n, d = feats.shape
        dp1 = d + 1
        self.n, self.dim = n, d

        inv_std = np.sqrt(2.0 / 3.0) * dp1
        axes = np.arange(1, dp1, dtype=np.float64)
        cf = feats * (inv_std / np.sqrt(axes * (axes + 1.0)))
        # elevated[0] = sum(cf); elevated[i] = sum(cf[i:]) - i * cf[i-1] (i >= 1)
        emb = np.zeros((dp1, d))
        emb[0, :] = 1.0
        for i in range(1, dp1):
            emb[i, i:] = 1.0
            emb[i, i - 1] = -float(i)
        elevated = cf @ emb.T

        v = elevated / dp1
        up = np.ceil(v) * dp1
        down = np.floor(v) * dp1
        rem0 = np.where(up - elevated < elevated - down, up, down)
        sums = np.rint(rem0.sum(axis=1) / dp1).astype(np.int64)
        diff = elevated - rem0
        order = np.argsort(-diff, axis=1, kind="stable")
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.broadcast_to(np.arange(dp1), rank.shape), axis=1)
        rank = rank + sums[:, None]
        low, high = rank < 0, rank > d
        rank[low] += dp1
        rank[high] -= dp1
        rem0[low] += dp1
        rem0[high] -= dp1
        self.rank = rank

        y = (elevated - rem0) / dp1
        bary = np.zeros((n, dp1 + 1))
        rows = np.repeat(np.arange(n), dp1)
        np.add.at(bary, (rows, (d - rank).ravel()), y.ravel())
        np.add.at(bary, (rows, (dp1 - rank).ravel()), -y.ravel())
        bary[:, 0] += 1.0 + bary[:, dp1]
        self.bary = bary[:, :dp1]

        canon = np.empty((dp1, dp1), dtype=np.int64)
        for k in range(dp1):
            canon[k, : dp1 - k] = k
            canon[k, dp1 - k :] = k - dp1
        rem0i = np.rint(rem0).astype(np.int64)
        keys = (rem0i[None, :, :] + canon[:, rank]).transpose(1, 0, 2)
        flat = np.ascontiguousarray(keys.reshape(-1, dp1))
        vertices, vertex_idx = self._unique_rows(flat)
        m = vertices.shape[0]
        self.num_vertices = m
        self.splat = sparse.csr_matrix((self.bary.ravel(), (vertex_idx, rows)), shape=(m, n))
        self.slice = self.splat.T.tocsr()

        self.n1 = np.empty((dp1, m), dtype=np.int64)
        self.n2 = np.empty((dp1, m), dtype=np.int64)
        ones = np.ones(dp1, dtype=np.int64)
        for a in range(dp1):
            e_a = np.zeros(dp1, dtype=np.int64)
            e_a[a] = dp1
            self.n1[a] = self._lookup_rows(vertices + ones - e_a)
            self.n2[a] = self._lookup_rows(vertices - ones + e_a)

        self.alpha = 1.0 / (1.0 + 2.0 ** (-d))
        green = np.zeros((n, dp1, dp1))
        green[:, np.arange(dp1), np.arange(dp1)] = 1.0
        idx = np.arange(n)
        for a in range(dp1):
            k = d - rank[:, a]
            kn = (k + 1) % dp1
            new = green.copy()
            new[idx, k] += 0.5 * green[idx, kn]
            new[idx, kn] += 0.5 * green[idx, k]
            green = new
        self.diagonal = self.alpha * np.einsum("nk,nkl,nl->n", self.bary, green, self.bary)

    def _unique_rows(self, flat):
        d = self.dim
        kmin = flat.min(axis=0)
        ranges = flat.max(axis=0) - kmin + 1
        if float(np.prod(ranges[:d].astype(np.float64))) < self.CODE_LIMIT:
            radix = np.ones(d, dtype=np.int64)
            for i in range(d - 2, -1, -1):
                radix[i] = radix[i + 1] * ranges[i + 1]
            self._kmin, self._ranges, self._radix = kmin, ranges, radix
            self._table = None
            codes = (flat[:, :d] - kmin[:d]) @ radix
            self._codes, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
            return flat[first], inverse.ravel()
        vertices, inverse = np.unique(flat, axis=0, return_inverse=True)
        self._table = {tuple(row): i for i, row in enumerate(vertices)}
        return vertices, inverse.ravel()

    def _lookup_rows(self, rows):
        if self._table is not None:
            return np.array([self._table.get(tuple(r), -1) for r in rows], dtype=np.int64)
        d = self.dim
        shifted = rows[:, :d] - self._kmin[:d]
        valid = np.all((shifted >= 0) & (shifted < self._ranges[:d]), axis=1)
        codes = np.clip(shifted, 0, self._ranges[:d] - 1) @ self._radix
        pos = np.searchsorted(self._codes, codes)
        pos[pos >= len(self._codes)] = 0
        found = valid & (self._codes[pos] == codes)
        return np.where(found, pos, -1)

    def filter(self, values: np.ndarray, reverse: bool = False) -> np.ndarray:
        lat = self.splat @ values
        axes = range(self.dim, -1, -1) if reverse else range(self.dim + 1)
        for a in axes:
            n1, n2 = self.n1[a], self.n2[a]
            v1 = lat[np.maximum(n1, 0)]
            v1[n1 < 0] = 0.0
            v2 = lat[np.maximum(n2, 0)]
            v2[n2 < 0] = 0.0
            lat = lat + 0.5 * (v1 + v2)
        return self.alpha * (self.slice @ lat)


# ---------------------------------------------------------------------------
# ASCII PLY: the row-at-a-time writer the column-wise one replaced, and the
# whole-array column-wise writer the blocked one replaced
# ---------------------------------------------------------------------------


def reference_write_ply(path, points, colors, hard_labels, confidences) -> None:
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    colors = np.asarray(colors).reshape(-1, 3)
    hard_labels = np.asarray(hard_labels).reshape(-1)
    confidences = np.asarray(confidences, dtype=np.float64).reshape(-1)
    n = points.shape[0]
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {n}\n")
        for typ, name in [("float", "x"), ("float", "y"), ("float", "z"), ("uchar", "red"),
                          ("uchar", "green"), ("uchar", "blue"), ("uchar", "label"),
                          ("float", "confidence")]:
            f.write(f"property {typ} {name}\n")
        f.write("end_header\n")
        for i in range(n):
            f.write(
                "%.9g %.9g %.9g %d %d %d %d %.9g\n"
                % (
                    points[i, 0],
                    points[i, 1],
                    points[i, 2],
                    int(colors[i, 0]),
                    int(colors[i, 1]),
                    int(colors[i, 2]),
                    int(hard_labels[i]),
                    confidences[i],
                )
            )


def whole_array_write_ply(path, points, colors, hard_labels, confidences) -> None:
    """The PLY body in the form ``write_ply`` had before it wrote a block of
    rows at a time: every column as one Python list, every row in one join."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    colors = np.asarray(colors).reshape(-1, 3)
    hard_labels = np.asarray(hard_labels).reshape(-1)
    confidences = np.asarray(confidences, dtype=np.float64).reshape(-1)
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {points.shape[0]}\n")
        for typ, name in [("float", "x"), ("float", "y"), ("float", "z"), ("uchar", "red"),
                          ("uchar", "green"), ("uchar", "blue"), ("uchar", "label"),
                          ("float", "confidence")]:
            f.write(f"property {typ} {name}\n")
        f.write("end_header\n")
        columns = [
            *points.T.tolist(),
            *colors.astype(np.int64).T.tolist(),
            hard_labels.astype(np.int64).tolist(),
            confidences.tolist(),
        ]
        row = "%.9g %.9g %.9g %d %d %d %d %.9g\n"
        f.write("".join([row % values for values in zip(*columns)]))


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
