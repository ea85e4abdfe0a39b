"""Synthetic RGB-D scene generation with corrupted unary probability maps.

A desk-scale room (an axis-aligned box) contains material-labeled boxes; a
camera orbit renders depth by ray casting (slab intersection tests), labels,
flat-shaded RGB with bounded per-pixel jitter for bilateral contrast, and
unaries corrupted by replacing the true label with a random wrong one at a
given rate.  Optionally (``blob_fraction``) spatially correlated errors come
on top: blobs of smoothed noise whose pixels all move to one wrong label,
which a CRF cannot remove as it removes the independent flips.  All
randomness derives from the scene seed, so outputs are bit-identical for
identical specs.  Rays are cast one axis at a time over a
(3, N) array, one contiguous row per axis, so no step reduces a short axis.

``SyntheticSceneSpec`` holds every default of ``voxcrf synth``.  Its camera,
``spec.intrinsics``, casts the rays and writes the manifest's intrinsics header.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ..crf import (
    CrfParams,
    LabelDistributionImage,
    build_features,
    check_label_count,
    integer_setting,
    mean_field_infer,
    unary_from_probabilities,
)
from ..errors import ConfigError, InputError
from ..projection import CameraIntrinsics
from .formats import write_pgm8, write_pgm16, write_ppm, write_unary
from .labels import label_palette

_DEPTH_EPS = 1e-9
_BLOB_SIGMA = 6.0  # pixels: the smoothing of the noise whose top share forms the blobs


@dataclass(frozen=True)
class MaterialBox:
    """Axis-aligned box with a material label."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    label: int

    def __post_init__(self):
        object.__setattr__(self, "label", integer_setting("box label", self.label))


@dataclass(frozen=True)
class SyntheticSceneSpec:
    """Room extents, furniture boxes, camera orbit and unary corruption;
    frozen, as its checks run once, on construction."""

    room: tuple[float, float, float] = (3.2, 3.2, 2.4)
    boxes: tuple[MaterialBox, ...] = ()  # a list given is stored as a tuple
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
    blob_fraction: float = 0.0  # share of each frame's pixels in correlated-error blobs

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))
        for name in ("width", "height", "frame_count", "label_count", "room_label", "seed"):
            object.__setattr__(self, name, integer_setting(name, getattr(self, name)))
        check_label_count(self.label_count, "label count")
        room = np.asarray(self.room, dtype=np.float64)
        if room.shape != (3,) or not np.all((room > 0) & (room < np.inf)):
            raise ConfigError(f"room extents must be 3 positive finite reals, got {self.room}")
        if self.frame_count < 1:
            raise ConfigError(f"frame count must be >= 1, got {self.frame_count}")
        if self.seed < 0:  # numpy's seeding would fail after the directories exist
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.width < 2 or self.height < 2:
            raise ConfigError("image dimensions must be at least 2x2")
        try:
            self.intrinsics  # the camera checks depth_scale
        except InputError as e:
            raise ConfigError(str(e)) from e
        if not (np.isfinite(self.jitter) and self.jitter >= 0):
            raise ConfigError(f"jitter must be finite and >= 0, got {self.jitter}")
        if not (0.0 <= self.noise < 1.0):
            raise ConfigError(f"noise must be in [0, 1), got {self.noise}")
        if not (0.0 <= self.blob_fraction < 1.0):
            raise ConfigError(f"blob fraction must be in [0, 1), got {self.blob_fraction}")
        if not (1.0 / self.label_count < self.confidence <= 1.0):
            raise ConfigError(
                f"confidence must be in (1/{self.label_count}, 1], got {self.confidence}"
            )
        used = [self.room_label] + [b.label for b in self.boxes]
        if any(l < 0 or l >= self.label_count for l in used):
            raise ConfigError("scene labels must lie in [0, label_count)")
        for b in self.boxes:
            lo, hi = np.asarray(b.lo), np.asarray(b.hi)
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise ConfigError(f"box {b} corners must be finite")  # NaN fails every test below
            if np.any(lo >= hi) or np.any(lo < 0) or np.any(hi > room):
                raise ConfigError(f"box {b} not inside the room")
        self._check_orbit(room)

    def _check_orbit(self, room: np.ndarray) -> None:
        """Every eye strictly inside the room, outside every box and off the
        look-at target; a bad orbit once wrote an all-wall or NaN-pose scene."""
        for name in ("orbit_radius", "orbit_height"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        orbit = f"orbit_radius={self.orbit_radius}, orbit_height={self.orbit_height}"
        eyes, target = _orbit(self)
        for eye in eyes:
            if np.any(eye <= 0) or np.any(eye >= room):
                raise ConfigError(f"{orbit} puts the camera at {eye}, not inside the room")
            for b in self.boxes:
                if np.all(eye >= b.lo) and np.all(eye <= b.hi):
                    raise ConfigError(f"{orbit} puts the camera at {eye}, inside box {b}")
            if np.array_equal(eye, target):
                raise ConfigError(f"{orbit} puts the camera on its look-at target {target}")

    @property
    def intrinsics(self) -> CameraIntrinsics:
        """Pinhole camera: focal length 0.9 x width, principal point at the image center."""
        w, h = self.width, self.height
        return CameraIntrinsics(0.9 * w, 0.9 * w, (w - 1) / 2.0, (h - 1) / 2.0, self.depth_scale)


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


def _ray_box(origin: np.ndarray, inv: np.ndarray, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Slab test, one axis at a time: (t_hit, hit mask) for rays origin + t*d
    against a box, given ``inv`` = 1/d as a (3, N) array.

    Entry distance when the origin is outside, exit distance when inside.  A
    zero direction component gives an infinite slab (Williams et al., JGT
    2005), and a NaN from an origin on that slab's plane propagates to a miss.
    """
    tmin, tmax = -np.inf, np.inf
    for k in range(3):
        t1 = (lo[k] - origin[k]) * inv[k]
        t2 = (hi[k] - origin[k]) * inv[k]
        tmin = np.maximum(tmin, np.minimum(t1, t2))
        tmax = np.minimum(tmax, np.maximum(t1, t2))
    hit = (tmax >= tmin) & (tmax > _DEPTH_EPS)
    t = np.where(tmin > _DEPTH_EPS, tmin, tmax)
    return np.where(hit, t, np.inf), hit


def render_frame(
    spec: SyntheticSceneSpec, pose: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ray-cast one frame: (raw uint16 depth, label image), both (H, W)."""
    h, w = spec.height, spec.width
    cam = spec.intrinsics
    vv, uu = np.mgrid[0:h, 0:w].astype(np.float64)
    dirs_cam = np.stack(
        [(uu - cam.cx) / cam.fx, (vv - cam.cy) / cam.fy, np.ones_like(uu)], axis=-1
    )
    r = pose[:3, :3]
    eye = pose[:3, 3]
    dirs = dirs_cam.reshape(-1, 3) @ r.T  # not r @ dirs: BLAS may sum that differently
    with np.errstate(divide="ignore"):
        inv = np.ascontiguousarray((1.0 / dirs).T)  # (3, N): one row per axis

    t_best, _ = _ray_box(eye, inv, (0.0, 0.0, 0.0), spec.room)
    labels = np.full(inv.shape[1], spec.room_label, dtype=np.int64)
    for box in spec.boxes:
        t, hit = _ray_box(eye, inv, box.lo, box.hi)
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
    blob_fraction: float = 0.0,
) -> np.ndarray:
    """(N, L) float32 unary probabilities, as a UNRY file stores them: with
    probability ``noise`` the argmax moves to a uniformly random wrong label;
    the chosen label gets ``confidence`` and the rest share the remainder
    evenly (each value rounded once from float64).

    With ``blob_fraction`` > 0, ``truth`` is an (H, W) image, and its pixels
    where white noise blurred by a Gaussian of _BLOB_SIGMA pixels is in its
    top ``blob_fraction`` move, after the independent flips, to their true
    label plus one offset drawn for the image: each blob over one material
    flips together to one wrong label.  At 0 no random number is drawn for
    it, so the output is as without the option."""
    flat = np.asarray(truth, dtype=np.int64).reshape(-1)
    n = flat.shape[0]
    chosen = flat.copy()
    flip = rng.random(n) < noise
    n_flip = int(flip.sum())
    if n_flip:
        offsets = rng.integers(1, label_count, size=n_flip)
        chosen[flip] = (chosen[flip] + offsets) % label_count
    if blob_fraction > 0:
        field = _smoothed_noise(*np.shape(truth), rng).reshape(-1)
        blob = field > np.quantile(field, 1.0 - blob_fraction)
        chosen[blob] = (flat[blob] + int(rng.integers(1, label_count))) % label_count
    probs = np.full((n, label_count), (1.0 - confidence) / (label_count - 1), np.float32)
    probs[np.arange(n), chosen] = confidence
    return probs


def _smoothed_noise(height: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """(height, width) white noise blurred along each axis by a Gaussian of
    _BLOB_SIGMA pixels, as two products with dense 1-D kernels."""

    def kernel(n: int) -> np.ndarray:
        x = np.arange(n) / _BLOB_SIGMA
        return np.exp(-0.5 * (x[:, None] - x[None, :]) ** 2)

    return kernel(height) @ rng.standard_normal((height, width)) @ kernel(width)


def make_piecewise_labels(
    height: int,
    width: int,
    label_count: int,
    rng: np.random.Generator,
    num_rects: int = 5,
) -> np.ndarray:
    """Random piecewise-constant (H, W) label image: rectangles over label 0."""
    labels = np.zeros((height, width), dtype=np.int64)
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


def _orbit(spec: SyntheticSceneSpec) -> tuple[list[np.ndarray], np.ndarray]:
    """Each frame's camera eye and the look-at target they share."""
    center = np.asarray(spec.room) / 2.0
    target = np.array([center[0], center[1], min(0.8, spec.room[2] / 2.0)])
    eyes = []
    for k in range(spec.frame_count):
        angle = 2.0 * np.pi * k / spec.frame_count
        x = center[0] + spec.orbit_radius * np.cos(angle)
        y = center[1] + spec.orbit_radius * np.sin(angle)
        eyes.append(np.array([x, y, spec.orbit_height]))
    return eyes, target


def orbit_poses(spec: SyntheticSceneSpec) -> list[np.ndarray]:
    eyes, target = _orbit(spec)
    return [look_at_pose(eye, target) for eye in eyes]


def generate_synthetic(spec: SyntheticSceneSpec, out_dir: str | Path) -> Path:
    """Render, corrupt and write a full scene; returns the manifest path."""
    out = Path(out_dir)
    for sub in ("rgb", "depth", "unary", "truth"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    palette = label_palette(spec.label_count)
    rng = np.random.default_rng(spec.seed)

    cam = spec.intrinsics
    lines = [
        "# synthetic scene manifest",
        *(f"{f.name}={getattr(cam, f.name)}" for f in fields(CameraIntrinsics)),
        f"labels={spec.label_count}",
        "",
    ]
    for k, pose in enumerate(orbit_poses(spec)):
        raw, labels = render_frame(spec, pose)
        rgb = shade_labels(labels, palette, spec.jitter, rng)
        probs = corrupt_unaries(
            labels, spec.label_count, spec.noise, spec.confidence, rng, spec.blob_fraction
        )
        fid = f"frame{k:04d}"
        write_ppm(out / "rgb" / f"{fid}.ppm", rgb)
        write_pgm16(out / "depth" / f"{fid}.pgm", raw)
        write_unary(out / "unary" / f"{fid}.unry", spec.height, spec.width, probs)
        write_pgm8(out / "truth" / f"{fid}.pgm", labels)
        pose_str = " ".join("%.17g" % v for v in pose.reshape(-1))
        lines.append(
            f"{fid} rgb/{fid}.ppm depth/{fid}.pgm unary/{fid}.unry truth/{fid}.pgm {pose_str}"
        )
    manifest = out / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest
