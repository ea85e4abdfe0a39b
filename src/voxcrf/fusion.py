"""Global sparse voxel map with per-voxel label distributions, fused across
posed semantic point clouds by a recursive Bayesian update.

A ``VoxelMap`` holds M voxels as parallel arrays sorted by key:

- ``keys`` (M,) int64: packed voxel indices.  A point's voxel index
  (i, j, k) is ``floor(point / resolution)`` per axis.  Each axis must lie
  in ``[-INDEX_LIMIT, INDEX_LIMIT)`` = ``[-2**20, 2**20)``; the offset
  indices pack 21 bits apiece into one non-negative int64, so key order is
  the lexicographic order of (i, j, k).  ``integrate_cloud`` rejects a
  point outside that range rather than alias it onto another voxel.
- ``log_posteriors`` (M, L): normalized log posterior per voxel.
- ``observations`` (M,) int64: points fused into each voxel.
- ``color_sums`` (M, 3) float64: accumulated RGB.

``integrate_cloud`` groups a cloud's points by voxel with a stable sort, so
one voxel's log-likelihoods sum in point order, then merges the groups into
the map by ``searchsorted``: existing voxels add the group sum, unseen ones
start from the uniform prior (a constant the normalization absorbs).  The
sums are float64 for a cloud of either dtype, formed a block of about one
``row_blocks`` block of key-sorted points at a time, cut where a voxel
group starts: each block's rows are gathered from the cloud, cast to
float64 (exactly, for a float32 cloud), floored, logged and summed per
group, so no float64 (N, L) array is formed, and since ``reduceat`` adds a
group's rows in order the sums equal one whole-array pass.  Only the rows
it touched are renormalized, a block at a time, so long observation
sequences cannot underflow.  Likelihoods are floored so one confident
wrong observation can never zero a label forever; a non-finite likelihood
(NaN, +inf) is rejected before the map is touched, by one check of the
per-voxel group sums.  Readers take the argmax over labels, with ties going
to the smallest label id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crf import reduce_labels
from .errors import InputError
from .lattice import row_blocks
from .projection import SemanticPointCloud

LIKELIHOOD_FLOOR = 1e-8
INDEX_BITS = 21
INDEX_LIMIT = 1 << (INDEX_BITS - 1)
_INDEX_MASK = (1 << INDEX_BITS) - 1


def _pack(idx: np.ndarray) -> np.ndarray:
    """Keys of (N, 3) integer-valued float indices; -1 (no voxel) for rows
    that are non-finite or outside the packable range."""
    ok = np.all((idx >= -INDEX_LIMIT) & (idx < INDEX_LIMIT), axis=1)
    shifted = np.where(ok[:, None], idx, 0.0).astype(np.int64) + INDEX_LIMIT
    keys = (shifted[:, 0] << 2 * INDEX_BITS) | (shifted[:, 1] << INDEX_BITS) | shifted[:, 2]
    keys[~ok] = -1
    return keys


def voxel_keys(points: np.ndarray, resolution: float) -> np.ndarray:
    """Packed int64 voxel keys of (N, 3) points by floor division; -1 where a
    point is non-finite or its index is outside the packable range."""
    if not 0 < resolution < math.inf:  # NaN fails both comparisons
        raise InputError(f"resolution must be positive and finite, got {resolution}")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return _pack(np.floor(points / resolution))


def unpack_keys(keys: np.ndarray) -> np.ndarray:
    """(M, 3) int64 voxel indices of packed keys."""
    keys = np.asarray(keys, dtype=np.int64)
    idx = np.stack(
        [keys >> 2 * INDEX_BITS, (keys >> INDEX_BITS) & _INDEX_MASK, keys & _INDEX_MASK],
        axis=-1,
    )
    return idx - INDEX_LIMIT


def _normalize_rows(log_dist: np.ndarray) -> np.ndarray:
    """Normalize log-distribution rows in place: subtract each row's max,
    then the log of its exp-sum (row maxima and sums from
    ``crf.reduce_labels``, bit-equal to numpy's)."""
    log_dist -= reduce_labels(log_dist, np.maximum)[:, None]
    log_dist -= np.log(reduce_labels(np.exp(log_dist), np.add))[:, None]
    return log_dist


def _readonly(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


class VoxelMap:
    """Sparse voxel map: key-sorted arrays of fused label evidence (see the
    module docstring for the layout)."""

    def __init__(self, resolution: float = 0.01, labels: int = 2):
        if not 0 < resolution < math.inf:
            raise InputError(f"resolution must be positive and finite, got {resolution}")
        if labels < 2:
            raise InputError(f"label count must be >= 2, got {labels}")
        self.resolution = resolution
        self.labels = labels
        self._keys = np.zeros(0, dtype=np.int64)
        self._log_post = np.zeros((0, labels))
        self._observations = np.zeros(0, dtype=np.int64)
        self._color_sums = np.zeros((0, 3))
        self._created = 0
        self._updated = 0

    def __len__(self) -> int:
        return self._keys.size

    @property
    def keys(self) -> np.ndarray:
        return _readonly(self._keys)

    @property
    def log_posteriors(self) -> np.ndarray:
        return _readonly(self._log_post)

    @property
    def observations(self) -> np.ndarray:
        return _readonly(self._observations)

    @property
    def color_sums(self) -> np.ndarray:
        return _readonly(self._color_sums)

    @property
    def created(self) -> int:
        """Voxels inserted so far."""
        return self._created

    @property
    def updated(self) -> int:
        """Updates of voxels that already existed, one per voxel per
        integrated cloud."""
        return self._updated

    def _locate(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Insertion position of each key and whether the voxel exists there."""
        pos = np.searchsorted(self._keys, keys)
        if not self._keys.size:
            return pos, np.zeros(keys.shape, dtype=bool)
        return pos, self._keys[np.minimum(pos, self._keys.size - 1)] == keys

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Row of each packed key in the map, -1 where the voxel is absent."""
        pos, hit = self._locate(np.asarray(keys, dtype=np.int64))
        return np.where(hit, pos, -1)

    def hard_labels(self) -> np.ndarray:
        """(M,) argmax label per voxel, ties to the smallest label id."""
        return np.argmax(self._log_post, axis=1)

    def _absorb(self, keys, log_sums, counts, color_sums) -> None:
        """Merge per-voxel evidence with unique sorted ``keys`` into the map."""
        pos, hit = self._locate(keys)
        new = ~hit
        rows = pos[hit]
        self._log_post[rows] += log_sums[hit]
        self._observations[rows] += counts[hit]
        self._color_sums[rows] += color_sums[hit]
        at = pos[new]
        self._keys = np.insert(self._keys, at, keys[new])
        self._log_post = np.insert(self._log_post, at, log_sums[new], axis=0)
        self._observations = np.insert(self._observations, at, counts[new])
        self._color_sums = np.insert(self._color_sums, at, color_sums[new], axis=0)
        # each key's row after the insertions: its position among the old
        # keys plus the new keys sorted before it
        touched = pos + np.cumsum(new) - new
        for s, e in row_blocks(touched.size):
            rows = touched[s:e]
            self._log_post[rows] = _normalize_rows(self._log_post[rows])
        self._created += int(new.sum())
        self._updated += int(hit.sum())


def integrate_cloud(vmap: VoxelMap, cloud: SemanticPointCloud) -> VoxelMap:
    """Fuse a world-frame cloud into the map (in place) and return the map.

    Every point updates its voxel; points of one cloud sharing a voxel sum
    their log-likelihoods in point order.  New voxels start from the uniform
    prior.  A point whose voxel index is outside the packable range, or
    whose likelihood row is not finite, raises ``InputError`` and leaves the
    map unchanged.
    """
    if len(cloud) == 0:
        return vmap
    if cloud.labels != vmap.labels:
        raise InputError(f"cloud has {cloud.labels} labels, map has {vmap.labels}")
    keys = voxel_keys(cloud.points, vmap.resolution)
    outside = np.flatnonzero(keys < 0)
    if outside.size:
        raise InputError(
            f"point {cloud.points[outside[0]]} has a voxel index outside "
            f"[-{INDEX_LIMIT}, {INDEX_LIMIT}) at resolution {vmap.resolution}"
        )
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    edges = np.r_[starts, keys.size]
    log_sums = np.empty((starts.size, vmap.labels))
    color_sums = np.empty((starts.size, 3))
    # blocks of about one row block of sorted points, each cut where a voxel
    # group starts: a float32 row casts to float64 exactly, and reduceat adds
    # a group's rows in order, so the sums match one whole-array pass
    firsts = [s for s, _ in row_blocks(keys.size)]
    cuts = np.unique(np.r_[np.searchsorted(starts, firsts), starts.size])
    for g, h in zip(cuts[:-1], cuts[1:]):
        points = order[edges[g] : edges[h]]
        at = starts[g:h] - edges[g]
        log_lik = cloud.label_dists[points].astype(np.float64, copy=False)
        np.maximum(log_lik, LIKELIHOOD_FLOOR, out=log_lik)
        np.log(log_lik, out=log_lik)
        np.add.reduceat(log_lik, at, axis=0, out=log_sums[g:h])
        np.add.reduceat(cloud.colors[points].astype(np.float64), at, axis=0, out=color_sums[g:h])
    if not np.isfinite(log_sums).all():  # NaN or +inf in some point's row
        bad = np.flatnonzero(~np.isfinite(cloud.label_dists).all(axis=1))[0]
        raise InputError(f"point {bad} has a non-finite likelihood {cloud.label_dists[bad]}")
    vmap._absorb(keys[starts], log_sums, np.diff(edges), color_sums)
    return vmap


@dataclass(frozen=True)
class ExtractedMap:
    """Labeled voxel centers, one row per extracted voxel, in key order."""

    centers: np.ndarray  # (K, 3) float64, meters
    labels: np.ndarray  # (K,) int64 argmax label
    confidences: np.ndarray  # (K,) float64 posterior of that label
    colors: np.ndarray  # (K, 3) uint8 mean color, rounded

    def __len__(self) -> int:
        return self.labels.shape[0]


def extract_map(
    vmap: VoxelMap, min_observations: int = 1, min_confidence: float = 0.0
) -> ExtractedMap:
    """Voxels meeting both thresholds, with their argmax label (ties to the
    smallest label id), its confidence and the rounded mean color."""
    if not (min_observations >= 0 and min_confidence >= 0):
        raise InputError("thresholds must be >= 0")
    labels = vmap.hard_labels()
    conf = np.exp(vmap.log_posteriors[np.arange(len(vmap)), labels])
    observations = vmap.observations
    keep = (observations >= min_observations) & (conf >= min_confidence)
    mean = vmap.color_sums[keep] / np.maximum(observations[keep], 1)[:, None]
    return ExtractedMap(
        (unpack_keys(vmap.keys[keep]) + 0.5) * vmap.resolution,
        labels[keep],
        conf[keep],
        np.clip(np.rint(mean), 0, 255).astype(np.uint8),
    )
