"""Plain-text run manifests and the one config schema.

A manifest is a key=value config header, with no spaces around ``=`` and
each key at most once, followed by one line per frame:

    frame_id rgb depth unary [truth] p00 p01 ... p33

with 16 row-major floats of the camera-to-world pose.  Paths are resolved
relative to the manifest's directory.  Whitespace-separated, ``#`` starts a
comment.

``_KEYS`` maps every config key, the name of the field it sets, to the
owning dataclass and the coercion of its value; defaults live in the
dataclasses only.  The header takes every key but ``compatibility``, as a
number, a comma list of numbers (``kernel_weights=5,3``) or a name;
:func:`apply_overrides` (``--config``) takes every key but the intrinsics,
including the ``CrfParams.to_dict()`` mapping that ``voxcrf train-crf`` writes.
Both read each value through ``_coerce``, the one check of a single value, so
every bad value fails as ``ConfigError("bad value for <key>: ...")``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ..crf import CrfParams, check_label_count, integer_setting
from ..errors import ConfigError, FormatError, InputError
from ..projection import CameraIntrinsics, Pose

_POSE_FLOATS = 16


@dataclass
class FrameRecord:
    """One input frame: file paths plus the camera-to-world pose."""

    frame_id: str
    rgb_path: str
    depth_path: str
    unary_path: str
    pose: Pose
    truth_path: str | None = None


@dataclass
class PipelineConfig:
    """Everything a pipeline run needs besides the frames themselves."""

    intrinsics: CameraIntrinsics
    labels: int = 23
    crf: CrfParams = field(default_factory=CrfParams)
    backend: str = "lattice"
    voxel_resolution: float = 0.01
    min_observations: int = 1
    min_confidence: float = 0.0

    def __post_init__(self):
        self.labels = integer_setting("labels", self.labels)
        self.min_observations = integer_setting("min_observations", self.min_observations)
        check_label_count(self.labels)
        self.crf.compatibility_for(self.labels)  # a given μ must be labels x labels
        if self.backend not in ("exact", "lattice"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if not 0 < self.voxel_resolution < math.inf:
            raise ConfigError(
                f"voxel resolution must be positive and finite, got {self.voxel_resolution}"
            )
        if not (self.min_observations >= 0 and self.min_confidence >= 0):
            raise ConfigError("extraction thresholds must be >= 0")


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError("expected a finite number")
    return float(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError("expected a string")
    return value


def _array(value) -> np.ndarray:
    cells = np.asarray(value, dtype=object)
    if cells.ndim == 0:
        raise ValueError("expected a list")
    return np.array([_real(v) for v in cells.ravel()]).reshape(cells.shape)


def _matrix_or_potts(value) -> np.ndarray | None:
    return None if value is None else _array(value)


# key -> (owning dataclass, coercion); each key is the name of its field in
# the owning dataclass, and defaults live in the dataclasses only.
_KEYS = {
    "fx": (CameraIntrinsics, _real),
    "fy": (CameraIntrinsics, _real),
    "cx": (CameraIntrinsics, _real),
    "cy": (CameraIntrinsics, _real),
    "depth_scale": (CameraIntrinsics, _real),
    "kernel_weights": (CrfParams, _array),
    "compatibility": (CrfParams, _matrix_or_potts),
    "theta_alpha": (CrfParams, _real),
    "theta_beta": (CrfParams, _real),
    "theta_gamma": (CrfParams, _real),
    "iterations": (CrfParams, _real),
    "labels": (PipelineConfig, _real),
    "backend": (PipelineConfig, _text),
    "voxel_resolution": (PipelineConfig, _real),
    "min_observations": (PipelineConfig, _real),
    "min_confidence": (PipelineConfig, _real),
}
_INTRINSICS = [k for k, (owner, _) in _KEYS.items() if owner is CameraIntrinsics]
_VALID_INTRINSICS = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
# a valid instance of each owner, for checking one value on its own
_BASES = {
    CameraIntrinsics: _VALID_INTRINSICS,
    CrfParams: CrfParams(),
    PipelineConfig: PipelineConfig(_VALID_INTRINSICS),
}


def _coerce(key: str, value):
    """The value of ``key`` through its coercion, checked on its own by the
    dataclass that owns the key and returned as that dataclass holds it (an
    integer field's 2.0 as 2); every rejection is a ConfigError naming the
    key.  Checks across fields (a ``compatibility`` that is not labels
    x labels) are left to the caller's combined ``replace``."""
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    owner, coercion = _KEYS[key]
    try:
        value = coercion(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"bad value for {key}: {e}, got {value!r:.80}") from e
    try:
        return getattr(replace(_BASES[owner], **{key: value}), key)
    except (ConfigError, InputError) as e:
        raise ConfigError(f"bad value for {key}: {e}") from e


def _number(text: str) -> float | str:
    """``text`` as a float, or unchanged if it is not a number (a name)."""
    try:
        return float(text)
    except ValueError:
        return text


def _header_value(key: str, text: str):
    """The value of one header pair, a comma list if it holds a comma."""
    value = [_number(t) for t in text.split(",")] if "," in text else _number(text)
    return _coerce(key, value)


def load_manifest(path: str | Path) -> tuple[list[FrameRecord], PipelineConfig]:
    """Parse a manifest; validates poses and referenced-file presence.

    Frames keep their listed order; ids may repeat.  Malformed lines, a
    header pair written with spaces (``fx = 10``), bad header values
    (``fx=0``, ``labels=1``), a header key given a second time and frame
    ids that are not plain file names (holding a slash or backslash, or
    ``.`` or ``..``) raise FormatError naming the line number
    (a repeated key's second one), missing intrinsics FormatError naming
    the manifest, and missing files InputError naming the path.
    """
    path = Path(path)
    base = path.parent
    header: dict = {}
    records: list[FrameRecord] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        tokens = line.split()
        # a line with "=" and fewer tokens than a frame line is a header pair
        if "=" in line and len(tokens) < 4 + _POSE_FLOATS:
            if len(tokens) > 1:
                raise FormatError(
                    f"{where}: header pairs are written key=value with no spaces, got {line!r}"
                )
            key, text = (part.strip() for part in line.split("=", 1))
            try:
                value = _header_value(key, text)
            except ConfigError as e:
                raise FormatError(f"{where}: {e}") from e
            if key in header:  # a bad value is named as such first
                raise FormatError(f"{where}: header key {key!r} is given again")
            header[key] = value
            continue
        names = tokens[: len(tokens) - _POSE_FLOATS]
        if len(names) not in (4, 5):
            raise FormatError(
                f"{where}: frame line has {len(tokens)} tokens, expected "
                f"{4 + _POSE_FLOATS} or {5 + _POSE_FLOATS}"
            )
        try:
            pose = Pose(np.array([float(t) for t in tokens[len(names) :]]).reshape(4, 4))
        except InputError as e:
            raise FormatError(f"{where}: {e}") from e
        except ValueError as e:
            raise FormatError(f"{where}: bad pose float") from e
        frame_id, *rel_paths = names
        # the runner writes <frame_id>.ply into --out
        if "/" in frame_id or "\\" in frame_id or frame_id in (".", ".."):
            raise FormatError(f"{where}: frame id {frame_id!r} is not a plain file name")
        paths = []
        for kind, rel in zip(("rgb", "depth", "unary", "truth"), rel_paths):
            p = base / rel
            if not p.is_file():
                raise InputError(f"{where}: missing {kind} file {p}")
            paths.append(str(p))
        records.append(FrameRecord(frame_id, *paths[:3], pose, *paths[3:]))
    missing = [
        f.name for f in fields(CameraIntrinsics) if f.default is MISSING and f.name not in header
    ]
    if missing:
        raise FormatError(f"{path}: missing intrinsics keys: {', '.join(missing)}")
    intrinsics = CameraIntrinsics(**{k: header.pop(k) for k in _INTRINSICS if k in header})
    return records, apply_overrides(PipelineConfig(intrinsics), header)


def apply_overrides(config: PipelineConfig, overrides: dict) -> PipelineConfig:
    """Return ``config`` with the keys of ``overrides`` applied.

    Every value goes through ``_coerce``, so a value that does not exactly
    fit its field (a string for a number, 2.7 for an integer, null) or that
    its dataclass rejects (``voxel_resolution=0``) raises ``ConfigError``
    naming the key, as do unknown and manifest-only (intrinsics) keys and a
    ``compatibility`` that is not labels x labels.  Each key sets its one
    field of ``config.crf`` or ``config``.
    """
    bad = sorted(k for k in overrides if k not in _KEYS or k in _INTRINSICS)
    if bad:
        raise ConfigError(f"unknown override keys (intrinsics are manifest-only): {bad}")
    crf_updates, config_updates = {}, {}
    for key, value in overrides.items():
        updates = config_updates if _KEYS[key][0] is PipelineConfig else crf_updates
        updates[key] = _coerce(key, value)
    return replace(config, crf=replace(config.crf, **crf_updates), **config_updates)


def load_config_overrides(path: str | Path) -> dict:
    """Read a JSON file of override keys (same names as manifest config)."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise FormatError(f"{path}: config JSON must be an object")
    return data
