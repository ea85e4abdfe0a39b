"""Ingestion resampling for inputs not co-registered with the depth grid.

Probability maps and color images resample bilinearly (probabilities are
renormalized afterwards); label images resample by nearest neighbor so no
new label ids appear and IGNORE pixels stay IGNORE.
"""

from __future__ import annotations

import numpy as np

from ..crf import LabelDistributionImage, LabelImage, reduce_labels
from ..errors import InputError


def _check_target(height: int, width: int) -> None:
    if height < 1 or width < 1:
        raise InputError(f"target size must be positive, got {height}x{width}")


def _bilinear(grid: np.ndarray, height: int, width: int) -> np.ndarray:
    """Separable bilinear sampling of an (H, W, C) float grid, corners
    aligned, in the grid's dtype."""
    src_h, src_w = grid.shape[:2]
    yi = np.linspace(0.0, src_h - 1.0, height)
    xi = np.linspace(0.0, src_w - 1.0, width)
    y0 = np.floor(yi).astype(np.int64)
    x0 = np.floor(xi).astype(np.int64)
    y1 = np.minimum(y0 + 1, src_h - 1)
    x1 = np.minimum(x0 + 1, src_w - 1)
    fy = (yi - y0).astype(grid.dtype)[:, None, None]
    fx = (xi - x0).astype(grid.dtype)[None, :, None]
    top = grid[y0][:, x0] * (1 - fx) + grid[y0][:, x1] * fx
    bottom = grid[y1][:, x0] * (1 - fx) + grid[y1][:, x1] * fx
    return top * (1 - fy) + bottom * fy


def resample_probabilities(
    img: LabelDistributionImage, height: int, width: int
) -> LabelDistributionImage:
    """Bilinear resampling of per-pixel distributions, renormalized to sum 1,
    in their dtype."""
    _check_target(height, width)
    if (img.height, img.width) == (height, width):
        return img
    grid = img.data.reshape(img.height, img.width, img.labels)
    out = _bilinear(grid, height, width).reshape(-1, img.labels)
    out /= reduce_labels(out, np.add)[:, None]
    return LabelDistributionImage(height, width, img.labels, out)


def resample_rgb(rgb: np.ndarray, height: int, width: int) -> np.ndarray:
    """Bilinear resampling of an (H, W, 3) color image to uint8."""
    _check_target(height, width)
    rgb = np.asarray(rgb)
    if rgb.shape[:2] == (height, width):
        return rgb
    out = _bilinear(rgb.astype(np.float64), height, width)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def resample_labels(img: LabelImage, height: int, width: int) -> LabelImage:
    """Nearest-neighbor resampling; label ids (including IGNORE) pass through."""
    _check_target(height, width)
    if (img.height, img.width) == (height, width):
        return img
    grid = img.data.reshape(img.height, img.width)
    yi = np.clip(np.rint(np.linspace(0.0, img.height - 1.0, height)), 0, img.height - 1)
    xi = np.clip(np.rint(np.linspace(0.0, img.width - 1.0, width)), 0, img.width - 1)
    out = grid[yi.astype(np.int64)][:, xi.astype(np.int64)]
    return LabelImage(height, width, out.reshape(-1))
