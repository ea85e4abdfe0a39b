"""Independent straight-line oracles used by the test suite.

Deliberately naive: explicit kernel construction with Python loops and the
five mean-field stages written out directly, sharing no code with the
production modules.
"""

import numpy as np


def reference_kernel(features: np.ndarray) -> np.ndarray:
    n = features.shape[0]
    k = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            k[i, j] = np.exp(-0.5 * float(np.sum((features[i] - features[j]) ** 2)))
    np.fill_diagonal(k, 0.0)
    return k


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
