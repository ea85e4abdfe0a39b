"""Synthetic RGB-D scene generation with corrupted unary probability maps.

A desk-scale room (an axis-aligned box) contains material-labeled boxes; a
camera orbit renders depth by ray casting (slab intersection tests), labels,
flat-shaded RGB with bounded per-pixel jitter for bilateral contrast, and
unaries corrupted by replacing the true label with a random wrong one at a
given rate.  All randomness derives from the scene seed, so outputs are
bit-identical for identical specs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..crf import (
    CrfParams,
    LabelDistributionImage,
    build_features,
    mean_field_infer,
    unary_from_probabilities,
)
from ..errors import ConfigError
from .formats import save_unary, write_pgm8, write_pgm16, write_ppm
from .labels import label_palette

_DEPTH_EPS = 1e-9


@dataclass(frozen=True)
class MaterialBox:
    """Axis-aligned box with a material label."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    label: int


@dataclass
class SyntheticSceneSpec:
    """Room extents, furniture boxes, camera orbit and unary corruption."""

    room: tuple[float, float, float] = (3.2, 3.2, 2.4)
    boxes: list[MaterialBox] = field(default_factory=list)
    room_label: int = 0
    label_count: int = 23
    width: int = 96
    height: int = 72
    orbit_radius: float = 1.2
    orbit_height: float = 1.5
    frame_count: int = 12
    noise: float = 0.2
    confidence: float = 0.6
    jitter: float = 10.0
    seed: int = 0
    depth_scale: float = 0.001

    def __post_init__(self):
        room = np.asarray(self.room, dtype=np.float64)
        if room.shape != (3,) or np.any(room <= 0):
            raise ConfigError(f"room extents must be 3 positive reals, got {self.room}")
        if self.frame_count < 1:
            raise ConfigError(f"frame count must be >= 1, got {self.frame_count}")
        if self.width < 2 or self.height < 2:
            raise ConfigError("image dimensions must be at least 2x2")
        if not (np.isfinite(self.jitter) and self.jitter >= 0):
            raise ConfigError(f"jitter must be finite and >= 0, got {self.jitter}")
        if not (0.0 <= self.noise < 1.0):
            raise ConfigError(f"noise must be in [0, 1), got {self.noise}")
        if not (1.0 / self.label_count < self.confidence <= 1.0):
            raise ConfigError(
                f"confidence must be in (1/{self.label_count}, 1], got {self.confidence}"
            )
        used = [self.room_label] + [b.label for b in self.boxes]
        if any(l < 0 or l >= self.label_count for l in used):
            raise ConfigError("scene labels must lie in [0, label_count)")
        for b in self.boxes:
            lo, hi = np.asarray(b.lo), np.asarray(b.hi)
            if np.any(lo >= hi) or np.any(lo < 0) or np.any(hi > room):
                raise ConfigError(f"box {b} not inside the room")

    @property
    def fx(self) -> float:
        return 0.9 * self.width

    @property
    def fy(self) -> float:
        return 0.9 * self.width

    @property
    def cx(self) -> float:
        return (self.width - 1) / 2.0

    @property
    def cy(self) -> float:
        return (self.height - 1) / 2.0


def default_scene_spec(**kwargs) -> SyntheticSceneSpec:
    """A small office-corner stand-in: four furniture boxes in a room.

    Labels refer to the default 23-material taxonomy (walls painted, a wood
    table carrying a paper box, a metal cabinet, a fabric seat).  Boxes keep
    a few centimeters of clearance from every other-label surface so no
    voxel ever straddles two materials; a map fused from noiseless unaries
    then reproduces the ground truth exactly.
    """
    boxes = [
        MaterialBox((0.9, 0.9, 0.10), (2.3, 1.7, 0.72), 22),  # wood table
        MaterialBox((1.2, 2.0, 0.08), (1.9, 2.6, 1.1), 9),  # metal cabinet
        MaterialBox((0.4, 0.4, 0.06), (0.8, 0.9, 0.5), 3),  # fabric seat
        MaterialBox((1.3, 1.1, 0.78), (1.7, 1.5, 1.0), 13),  # paper box
    ]
    kwargs.setdefault("boxes", boxes)
    kwargs.setdefault("room_label", 12)  # painted walls
    return SyntheticSceneSpec(**kwargs)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def look_at_pose(eye: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Camera-to-world matrix for a z-forward, y-down pinhole camera."""
    eye = np.asarray(eye, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - eye
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    if abs(forward @ up) > 0.999:
        up = np.array([0.0, 1.0, 0.0])
    x_cam = np.cross(forward, up)
    x_cam /= np.linalg.norm(x_cam)
    y_cam = np.cross(forward, x_cam)
    pose = np.eye(4)
    pose[:3, 0] = x_cam
    pose[:3, 1] = y_cam
    pose[:3, 2] = forward
    pose[:3, 3] = eye
    return pose


def _ray_box(origin: np.ndarray, dirs: np.ndarray, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Slab test: (t_hit, hit mask) for rays origin + t*dirs against a box.

    Entry distance when the origin is outside, exit distance when inside.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
    t1 = (np.asarray(lo) - origin) * inv
    t2 = (np.asarray(hi) - origin) * inv
    tmin = np.minimum(t1, t2).max(axis=-1)
    tmax = np.maximum(t1, t2).min(axis=-1)
    hit = (tmax >= tmin) & (tmax > _DEPTH_EPS)
    t = np.where(tmin > _DEPTH_EPS, tmin, tmax)
    return np.where(hit, t, np.inf), hit


def render_frame(
    spec: SyntheticSceneSpec, pose: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ray-cast one frame: (raw uint16 depth, label image), both (H, W)."""
    h, w = spec.height, spec.width
    vv, uu = np.mgrid[0:h, 0:w].astype(np.float64)
    dirs_cam = np.stack(
        [(uu - spec.cx) / spec.fx, (vv - spec.cy) / spec.fy, np.ones_like(uu)], axis=-1
    )
    r = pose[:3, :3]
    eye = pose[:3, 3]
    dirs = dirs_cam.reshape(-1, 3) @ r.T

    t_best, _ = _ray_box(eye, dirs, (0.0, 0.0, 0.0), spec.room)
    labels = np.full(dirs.shape[0], spec.room_label, dtype=np.int64)
    for box in spec.boxes:
        t, hit = _ray_box(eye, dirs, box.lo, box.hi)
        closer = hit & (t < t_best)
        t_best = np.where(closer, t, t_best)
        labels[closer] = box.label

    # camera z-depth equals the ray parameter because dirs_cam has z = 1
    raw = np.where(
        np.isfinite(t_best), np.rint(t_best / spec.depth_scale), 0.0
    )
    raw = np.where((raw >= 1) & (raw <= 65535), raw, 0)
    return raw.astype(np.uint16).reshape(h, w), labels.reshape(h, w)


# ---------------------------------------------------------------------------
# appearance and unary corruption
# ---------------------------------------------------------------------------


def shade_labels(
    labels: np.ndarray, palette: np.ndarray, jitter: float, rng: np.random.Generator
) -> np.ndarray:
    """Flat shading from the palette plus bounded uniform per-pixel jitter."""
    base = palette[labels].astype(np.float64)
    if jitter > 0:
        base = base + rng.uniform(-jitter, jitter, size=base.shape)
    return np.clip(np.rint(base), 0, 255).astype(np.uint8)


def corrupt_unaries(
    truth: np.ndarray,
    label_count: int,
    noise: float,
    confidence: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """(N, L) unary probabilities: with probability ``noise`` the argmax moves
    to a uniformly random wrong label; the chosen label gets ``confidence``
    and the rest share the remainder evenly."""
    flat = np.asarray(truth, dtype=np.int64).reshape(-1)
    n = flat.shape[0]
    chosen = flat.copy()
    flip = rng.random(n) < noise
    n_flip = int(flip.sum())
    if n_flip:
        offsets = rng.integers(1, label_count, size=n_flip)
        chosen[flip] = (chosen[flip] + offsets) % label_count
    probs = np.full((n, label_count), (1.0 - confidence) / (label_count - 1))
    probs[np.arange(n), chosen] = confidence
    return probs


def make_piecewise_labels(
    height: int,
    width: int,
    label_count: int,
    rng: np.random.Generator,
    num_rects: int = 5,
    background: int = 0,
) -> np.ndarray:
    """Random piecewise-constant (H, W) label image: rectangles over a background."""
    labels = np.full((height, width), background, dtype=np.int64)
    for _ in range(num_rects):
        y0 = int(rng.integers(0, max(1, height - 4)))
        x0 = int(rng.integers(0, max(1, width - 4)))
        y1 = int(rng.integers(y0 + 3, min(y0 + max(4, height // 2), height) + 1))
        x1 = int(rng.integers(x0 + 3, min(x0 + max(4, width // 2), width) + 1))
        labels[y0:y1, x0:x1] = int(rng.integers(0, label_count))
    return labels


def run_budget_benchmark(
    side: int = 224, labels: int = 23, iterations: int = 5, seed: int = 0
) -> float:
    """Wall time of full lattice mean-field inference on a flat-shaded image."""
    rng = np.random.default_rng(seed)
    lab = make_piecewise_labels(side, side, min(labels, 8), rng, num_rects=6)
    rgb = shade_labels(lab, label_palette(labels), 10.0, rng)
    probs = corrupt_unaries(lab, labels, 0.2, 0.6, rng)
    probs_img = LabelDistributionImage(side, side, labels, probs)
    params = CrfParams(iterations=iterations)
    unary = unary_from_probabilities(probs_img)
    features = build_features(rgb, params)
    start = time.perf_counter()
    mean_field_infer(unary, features, params, "lattice")
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# scene emission
# ---------------------------------------------------------------------------


def orbit_poses(spec: SyntheticSceneSpec) -> list[np.ndarray]:
    center = np.asarray(spec.room) / 2.0
    target = np.array([center[0], center[1], min(0.8, spec.room[2] / 2.0)])
    poses = []
    for k in range(spec.frame_count):
        angle = 2.0 * np.pi * k / spec.frame_count
        eye = np.array(
            [
                center[0] + spec.orbit_radius * np.cos(angle),
                center[1] + spec.orbit_radius * np.sin(angle),
                spec.orbit_height,
            ]
        )
        poses.append(look_at_pose(eye, target))
    return poses


def generate_synthetic(spec: SyntheticSceneSpec, out_dir: str | Path) -> Path:
    """Render, corrupt and write a full scene; returns the manifest path."""
    out = Path(out_dir)
    for sub in ("rgb", "depth", "unary", "truth"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    palette = label_palette(spec.label_count)
    rng = np.random.default_rng(spec.seed)

    lines = [
        "# synthetic scene manifest",
        f"fx={spec.fx}",
        f"fy={spec.fy}",
        f"cx={spec.cx}",
        f"cy={spec.cy}",
        f"depth_scale={spec.depth_scale}",
        f"labels={spec.label_count}",
        "",
    ]
    for k, pose in enumerate(orbit_poses(spec)):
        raw, labels = render_frame(spec, pose)
        rgb = shade_labels(labels, palette, spec.jitter, rng)
        probs = corrupt_unaries(
            labels, spec.label_count, spec.noise, spec.confidence, rng
        )
        unary = LabelDistributionImage(spec.height, spec.width, spec.label_count, probs)

        fid = f"frame{k:04d}"
        write_ppm(out / "rgb" / f"{fid}.ppm", rgb)
        write_pgm16(out / "depth" / f"{fid}.pgm", raw)
        save_unary(out / "unary" / f"{fid}.unry", unary)
        write_pgm8(out / "truth" / f"{fid}.pgm", labels.astype(np.uint8))
        pose_str = " ".join("%.17g" % v for v in pose.reshape(-1))
        lines.append(
            f"{fid} rgb/{fid}.ppm depth/{fid}.pgm unary/{fid}.unry truth/{fid}.pgm {pose_str}"
        )
    manifest = out / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest
