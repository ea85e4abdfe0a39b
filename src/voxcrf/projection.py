"""Pinhole back-projection of depth images and rigid transforms of the
resulting semantic point clouds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crf import LabelDistributionImage
from .errors import InputError, check_real


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; depth_scale converts stored depth units to meters."""

    fx: float
    fy: float
    cx: float
    cy: float
    depth_scale: float = 0.001

    def __post_init__(self):
        if not np.all(np.isfinite([self.fx, self.fy, self.cx, self.cy, self.depth_scale])):
            raise InputError(f"intrinsics must be finite, got {self}")
        for name in ("fx", "fy"):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive, got {getattr(self, name)}")
        if self.depth_scale <= 0:
            raise InputError(f"depth_scale must be positive, got {self.depth_scale}")


@dataclass(frozen=True)
class Pose:
    """4x4 homogeneous camera-to-world transform, translation in meters."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if not np.all(np.isfinite(m)):  # NaN would pass every tolerance check below
            raise InputError("pose entries must be finite")
        if m.shape != (4, 4):
            raise InputError(f"pose must be 4x4, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        if np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0])).max() > 1e-9:
            raise InputError("pose bottom row must be (0, 0, 0, 1)")
        r = m[:3, :3]
        if np.abs(r @ r.T - np.eye(3)).max() > 1e-5:
            raise InputError("pose rotation block is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-5:
            raise InputError("pose rotation block must have determinant +1")


@dataclass
class SemanticPointCloud:
    """3D points with color and a full label distribution per point.

    ``label_dists`` keeps float32 rows as float32, as ``crf._grid_data``
    keeps a float32 Q, and holds any other real rows as float64; complex,
    string or object rows raise ``InputError`` naming their dtype.  Colors
    that are not uint8 must be whole numbers in [0, 255]; any other value
    raises ``InputError`` naming its point.
    """

    points: np.ndarray  # (N, 3) float64, meters
    colors: np.ndarray  # (N, 3) uint8
    label_dists: np.ndarray  # (N, L) float32 or float64

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64).reshape(-1, 3)
        colors = np.asarray(self.colors).reshape(-1)
        if colors.dtype != np.uint8:
            # a cast to uint8 would wrap 300 to 44 and -5 to 251, and
            # truncate 12.7 to 12; NaN fails the range test
            inside = (colors >= 0) & (colors <= 255)
            fits = inside & (colors == np.rint(colors))
            if not np.all(fits):
                i = int(np.argmin(fits))
                fault = "is not a whole number" if inside[i] else "is outside [0, 255]"
                raise InputError(f"color {colors[i]} of point {i // 3} {fault}")
        self.colors = np.ascontiguousarray(colors, dtype=np.uint8).reshape(-1, 3)
        dists = np.asarray(self.label_dists)
        check_real(dists, "label_dists")
        self.label_dists = np.ascontiguousarray(
            dists, None if dists.dtype == np.float32 else np.float64
        )
        n = self.points.shape[0]
        if self.colors.shape[0] != n or self.label_dists.shape[0] != n:
            raise InputError(
                f"parallel arrays disagree: {n} points, {self.colors.shape[0]} colors, "
                f"{self.label_dists.shape[0]} distributions"
            )
        if not np.all(np.isfinite(self.points)):
            raise InputError("point coordinates must be finite")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def labels(self) -> int:
        return self.label_dists.shape[1]

    def compact(self) -> tuple[np.ndarray, np.ndarray]:
        """Hard labels (argmax, ties to the smallest id) and their confidence,
        in the dtype of ``label_dists``."""
        hard = np.argmax(self.label_dists, axis=1)
        conf = self.label_dists[np.arange(len(self)), hard] if len(self) else np.zeros(0)
        return hard, conf


def back_project(
    depth: np.ndarray, intr: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Lift a raw depth image to an organized (H, W, 3) camera-frame point grid.

    Raw depth 0 marks an invalid pixel; the returned mask is True where valid.
    X = (u - cx) z / fx, Y = (v - cy) z / fy, Z = z = raw * depth_scale.
    """
    depth = np.asarray(depth)
    if depth.ndim != 2 or depth.shape[0] < 1 or depth.shape[1] < 1:
        raise InputError(f"depth must be (H, W) with positive dims, got {depth.shape}")
    h, w = depth.shape
    valid = depth > 0
    z = depth.astype(np.float64) * intr.depth_scale
    vv, uu = np.mgrid[0:h, 0:w].astype(np.float64)
    points = np.empty((h, w, 3))
    points[..., 0] = (uu - intr.cx) * z / intr.fx
    points[..., 1] = (vv - intr.cy) * z / intr.fy
    points[..., 2] = z
    points[~valid] = 0.0
    return points, valid


def make_semantic_cloud(
    points: np.ndarray,
    valid: np.ndarray,
    q: LabelDistributionImage,
    rgb: np.ndarray,
) -> SemanticPointCloud:
    """One point per valid depth pixel, in row-major pixel order, carrying the
    pixel's marginal distribution, in Q's dtype, and color; colors must fit
    the cloud's uint8 (``SemanticPointCloud``)."""
    points = np.asarray(points)
    valid = np.asarray(valid, dtype=bool)
    rgb = np.asarray(rgb)
    if points.shape[:2] != (q.height, q.width) or valid.shape != (q.height, q.width):
        raise InputError(
            f"point grid {points.shape[:2]} / mask {valid.shape} do not match "
            f"Q {q.height}x{q.width}"
        )
    if rgb.shape[:2] != (q.height, q.width) or rgb.shape[2] != 3:
        raise InputError(f"rgb shape {rgb.shape} does not match Q {q.height}x{q.width}")
    mask = valid.reshape(-1)
    return SemanticPointCloud(
        points.reshape(-1, 3)[mask],
        rgb.reshape(-1, 3)[mask],
        q.data[mask],
    )


def transform_cloud(cloud: SemanticPointCloud, pose: Pose) -> SemanticPointCloud:
    """Rigidly map point positions; labels and colors are untouched."""
    r = pose.matrix[:3, :3]
    t = pose.matrix[:3, 3]
    return SemanticPointCloud(cloud.points @ r.T + t, cloud.colors, cloud.label_dists)
