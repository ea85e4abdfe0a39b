"""Confusion-matrix accumulation and the four scene-understanding metrics,
over 2D label images and over fused voxel maps evaluated per frame.

Metric formulas follow the standard semantic-segmentation evaluation
convention with t_i = sum_j n_ij (ground-truth pixels of class i):

    pixel_acc = sum_i n_ii / sum_i t_i
    mean_acc  = (1 / n_cl) sum_i n_ii / t_i
    mean_iu   = (1 / n_cl) sum_i n_ii / (t_i + sum_j n_ji - n_ii)
    fw_iu     = (sum_k t_k)^-1 sum_i t_i n_ii / (t_i + sum_j n_ji - n_ii)

where n_cl counts classes present in the ground truth (t_i > 0); absent
classes are excluded from the averages but still absorb false positives
through the column sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .crf import IGNORE_LABEL, LabelImage
from .errors import InputError
from .fusion import VoxelMap, voxel_keys
from .projection import CameraIntrinsics, Pose, back_project

# the names of compute_metrics' four values in every report
METRIC_NAMES = ("pixel_accuracy", "mean_accuracy", "mean_iu", "frequency_weighted_iu")


@dataclass
class ConfusionMatrix:
    """L x L counts, rows ground truth, columns prediction."""

    labels: int
    counts: np.ndarray = field(default=None)  # (L, L) int64

    def __post_init__(self):
        if self.labels < 1:
            raise InputError(f"label count must be >= 1, got {self.labels}")
        if self.counts is None:
            self.counts = np.zeros((self.labels, self.labels), dtype=np.int64)
        else:
            self.counts = np.ascontiguousarray(self.counts, dtype=np.int64)
            if self.counts.shape != (self.labels, self.labels):
                raise InputError(f"counts shape {self.counts.shape} != ({self.labels},)*2")
            if np.any(self.counts < 0):
                raise InputError("negative confusion count")


def accumulate(
    cm: ConfusionMatrix, predicted: LabelImage, truth: LabelImage
) -> ConfusionMatrix:
    """Count (truth, prediction) pairs in place; IGNORE truth pixels skip.
    A truth or predicted label outside [0, L) where the truth is labelled
    (a predicted IGNORE included) raises ``InputError`` naming the first
    such pixel as (row, col) and its value."""
    if (predicted.height, predicted.width) != (truth.height, truth.width):
        raise InputError("prediction and truth dimensions differ")
    n = cm.labels
    keep = np.flatnonzero(truth.data != IGNORE_LABEL)
    t, p = truth.data[keep], predicted.data[keep]
    for name, values in (("truth", t), ("predicted", p)):
        bad = (values < 0) | (values >= n)
        if bad.any():
            first = int(np.argmax(bad))
            row, col = divmod(int(keep[first]), truth.width)
            raise InputError(
                f"{name} label {values[first]} at pixel (row {row}, col {col}) "
                f"is outside [0, {n})"
            )
    flat = np.bincount(t * n + p, minlength=n * n)
    cm.counts += flat.reshape(n, n)
    return cm


def _class_counts(cm: ConfusionMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per class, as float64: truth pixels t_i, hits n_ii and the union
    t_i + sum_j n_ji - n_ii."""
    counts = cm.counts.astype(np.float64)
    t = counts.sum(axis=1)
    diag = np.diag(counts)
    return t, diag, t + counts.sum(axis=0) - diag


def compute_metrics(cm: ConfusionMatrix) -> tuple[float, float, float, float]:
    """(pixel_acc, mean_acc, mean_iu, fw_iu); errors on an empty matrix."""
    t, diag, union = _class_counts(cm)
    total = t.sum()
    if total <= 0:
        raise InputError("empty confusion matrix")
    present = t > 0

    pixel_acc = float(diag.sum() / total)
    mean_acc = float((diag[present] / t[present]).mean())
    iu = diag[present] / union[present]
    mean_iu = float(iu.mean())
    fw_iu = float((t[present] * iu).sum() / total)
    return pixel_acc, mean_acc, mean_iu, fw_iu


@dataclass(frozen=True)
class EvalFrame:
    """Per-frame evaluation inputs: dense truth labels, raw depth, geometry."""

    truth: LabelImage
    depth: np.ndarray
    intrinsics: CameraIntrinsics
    pose: Pose


@dataclass
class FusedEvalResult:
    cm: ConfusionMatrix
    hits: int  # valid-depth truth pixels whose voxel exists
    missing: int  # valid-depth truth pixels with no voxel (MISSING bucket)

    @property
    def coverage(self) -> float:
        total = self.hits + self.missing
        return self.hits / total if total else 0.0


def evaluate_fused_map(vmap: VoxelMap, frames: list[EvalFrame]) -> FusedEvalResult:
    """Per-pixel evaluation of the fused map against posed ground truth.

    Every valid-depth, non-IGNORE truth pixel is back-projected into the
    world; the voxel's argmax label is the prediction.  Pixels whose voxel
    is absent from the map, or whose voxel index is outside the packable
    range, land in a MISSING bucket tallied as coverage, outside the L x L
    matrix.  Each frame's truth must lie on its depth grid (``InputError``
    otherwise; the runner resamples truth to the depth grid first).
    """
    n = vmap.labels
    cm = ConfusionMatrix(n)
    hits = 0
    missing = 0
    predicted = vmap.hard_labels()
    for frame in frames:
        shape = (frame.truth.height, frame.truth.width)
        if shape != frame.depth.shape:
            raise InputError(f"truth is {shape}, depth grid is {frame.depth.shape}")
        points, valid = back_project(frame.depth, frame.intrinsics)
        truth = frame.truth.data.reshape(shape)
        keep = valid & (truth != IGNORE_LABEL)
        if not np.any(keep):
            continue
        truth_kept = truth[keep]
        if np.any((truth_kept < 0) | (truth_kept >= n)):
            raise InputError("truth label out of range for the map")
        r = frame.pose.matrix[:3, :3]
        t = frame.pose.matrix[:3, 3]
        rows = vmap.find(voxel_keys(points[keep] @ r.T + t, vmap.resolution))
        found = rows >= 0
        hits += int(found.sum())
        missing += int(found.size - found.sum())
        pairs = truth_kept[found] * n + predicted[rows[found]]
        cm.counts += np.bincount(pairs, minlength=n * n).reshape(n, n)
    return FusedEvalResult(cm, hits, missing)


def format_report(*metrics: float, **extra: float) -> str:
    """Flat ``name=value`` report of compute_metrics' four values, then the
    extras."""
    pairs = [*zip(METRIC_NAMES, metrics, strict=True), *extra.items()]
    return "".join(f"{key}={value:.6f}\n" for key, value in pairs)


def per_class_rows(cm: ConfusionMatrix, names: list[str] | None = None) -> str:
    """Comma-separated per-class rows: name, truth pixels, accuracy, iu."""
    t, diag, union = _class_counts(cm)
    lines = ["class,truth_pixels,accuracy,iu"]
    for i in range(cm.labels):
        name = names[i] if names else f"class{i:02d}"
        acc = diag[i] / t[i] if t[i] > 0 else float("nan")
        iu = diag[i] / union[i] if union[i] > 0 else float("nan")
        lines.append(f"{name},{int(t[i])},{acc:.6f},{iu:.6f}")
    return "\n".join(lines) + "\n"
