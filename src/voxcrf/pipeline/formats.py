"""Binary file formats: PGM/PPM images, the UNRY unary container, ASCII PLY.

Depth images are 16-bit binary PGM (P5, maxval 65535, most-significant byte
first per the Netpbm convention), label images 8-bit PGM with 255 = IGNORE,
color images binary PPM (P6).  Unary probability maps use the UNRY format:
magic bytes ``UNRY``, three little-endian uint32 (height, width, labels),
then height*width*labels little-endian float32, row-major with the label
axis fastest.  Point clouds are ASCII PLY with x/y/z float, red/green/blue
uchar, label uchar and confidence float per vertex.
"""

from __future__ import annotations

import struct
import warnings
from pathlib import Path

import numpy as np

from ..crf import LabelDistributionImage, LabelImage, reduce_labels
from ..errors import FormatError

UNARY_MAGIC = b"UNRY"
UNARY_SUM_TOLERANCE = 1e-3
_MAX_PIXELS = 1 << 28  # dimension-overflow guard for header-declared sizes

PLY_PROPERTIES = [
    ("float", "x"),
    ("float", "y"),
    ("float", "z"),
    ("uchar", "red"),
    ("uchar", "green"),
    ("uchar", "blue"),
    ("uchar", "label"),
    ("float", "confidence"),
]


# ---------------------------------------------------------------------------
# Netpbm images
# ---------------------------------------------------------------------------


# kind -> (magic, maxval, big-endian sample dtype, trailing channel axis)
_NETPBM = {
    "depth": (b"P5", 65535, np.dtype(">u2"), ()),
    "label": (b"P5", 255, np.dtype(np.uint8), ()),
    "color": (b"P6", 255, np.dtype(np.uint8), (3,)),
}


def _read_netpbm(path: str | Path, kind: str) -> np.ndarray:
    """Parse magic, width, height and maxval, then the binary samples."""
    magic, maxval, dtype, channels = _NETPBM[kind]
    data = Path(path).read_bytes()
    if not data.startswith(magic):
        raise FormatError(f"{path}: expected {magic.decode()} magic")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        if pos >= len(data):
            raise FormatError(f"{path}: truncated header")
        c = data[pos : pos + 1]
        if c == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif c.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            token = data[pos:end]
            if not token.isdigit():
                raise FormatError(f"{path}: bad header token {token!r}")
            fields.append(int(token))
            pos = end
    pos += 1  # single whitespace after maxval
    width, height, found = fields
    if width <= 0 or height <= 0 or width * height > _MAX_PIXELS:
        raise FormatError(f"{path}: bad dimensions {width}x{height}")
    if found != maxval:
        raise FormatError(f"{path}: expected maxval {maxval}, got {found}")
    shape = (height, width, *channels)
    need = int(np.prod(shape)) * dtype.itemsize
    if len(data) - pos < need:
        raise FormatError(f"{path}: truncated pixel data")
    samples = np.frombuffer(data[pos : pos + need], dtype=dtype).reshape(shape)
    return samples.astype(dtype.newbyteorder("="))  # a writable native-order copy


def _check_samples(values: np.ndarray, high: int, what: str) -> None:
    """``FormatError`` naming the first value that is not a whole number in
    [0, high], NaN and inf included: the cast to an integer sample would
    wrap 300 to 44, truncate 12.7 to 12 or turn NaN into 0."""
    inside = (values >= 0) & (values <= high)
    fits = inside & (values.dtype.kind != "f" or values == np.rint(values))
    if not np.all(fits):
        i = int(np.argmin(fits))
        where = tuple(int(k) for k in np.unravel_index(i, values.shape))
        where = where[0] if len(where) == 1 else where
        fault = "is not a whole number" if inside.flat[i] else f"is outside [0, {high}]"
        raise FormatError(f"{what} {values.flat[i]} at {where} {fault}")


def _write_netpbm(path: str | Path, image: np.ndarray, kind: str) -> None:
    magic, maxval, dtype, channels = _NETPBM[kind]
    img = np.asarray(image)
    if img.ndim != 2 + len(channels) or img.shape[2:] != channels or 0 in img.shape[:2]:
        form = "(H, W, 3)" if channels else "(H, W)"
        raise FormatError(f"{kind} image must be {form} with positive dims, got shape {img.shape}")
    _check_samples(img, maxval, f"{kind} image value")
    with open(path, "wb") as f:
        f.write(magic + f"\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode())
        f.write(img.astype(dtype).tobytes())


def write_pgm16(path: str | Path, image: np.ndarray) -> None:
    """16-bit grayscale PGM, big-endian sample bytes."""
    _write_netpbm(path, image, "depth")


def read_pgm16(path: str | Path) -> np.ndarray:
    return _read_netpbm(path, "depth")


def write_pgm8(path: str | Path, image: np.ndarray) -> None:
    _write_netpbm(path, image, "label")


def read_pgm8(path: str | Path) -> np.ndarray:
    return _read_netpbm(path, "label")


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    _write_netpbm(path, image, "color")


def read_ppm(path: str | Path) -> np.ndarray:
    return _read_netpbm(path, "color")


def read_label_image(path: str | Path) -> LabelImage:
    img = read_pgm8(path)
    return LabelImage(img.shape[0], img.shape[1], img.reshape(-1))


def write_label_image(path: str | Path, image: LabelImage) -> None:
    write_pgm8(path, image.data.reshape(image.height, image.width))


# ---------------------------------------------------------------------------
# UNRY unary container
# ---------------------------------------------------------------------------


def write_unary(path: str | Path, height: int, width: int, probs: np.ndarray) -> None:
    """Write (height * width, L) probabilities as a UNRY file.  A float32
    array is written from its own buffer; any other is rounded to float32.
    ``FormatError`` before the file is created when ``probs`` is not
    (height * width, L >= 1) or a dimension is not positive."""
    shape = np.shape(probs)
    if height < 1 or width < 1 or len(shape) != 2 or shape[0] != height * width or shape[1] < 1:
        raise FormatError(f"probabilities of shape {shape} do not fit {height}x{width} pixels")
    with open(path, "wb") as f:
        f.write(UNARY_MAGIC)
        f.write(struct.pack("<III", height, width, probs.shape[1]))
        f.write(np.ascontiguousarray(probs, dtype="<f4"))  # the buffer, no bytes copy


def save_unary(path: str | Path, image: LabelDistributionImage) -> None:
    write_unary(path, image.height, image.width, image.data)


def load_unary(path: str | Path, dtype=np.float64) -> LabelDistributionImage:
    """Read and validate a UNRY file as ``dtype`` (float64 or float32);
    per-pixel sums, formed in float64, within 1e-3 of 1 are renormalized to
    1, anything worse is rejected."""
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:4] != UNARY_MAGIC:
        raise FormatError(f"{path}: bad magic, not a UNRY file")
    height, width, labels = struct.unpack("<III", data[4:16])
    if height < 1 or width < 1 or labels < 1 or height * width > _MAX_PIXELS:
        raise FormatError(f"{path}: bad dimensions {height}x{width}x{labels}")
    count = height * width * labels
    if len(data) - 16 != count * 4:
        raise FormatError(
            f"{path}: payload is {len(data) - 16} bytes, header implies {count * 4}"
        )
    values = np.frombuffer(data[16:], dtype="<f4").astype(dtype).reshape(-1, labels)
    low, high = values.min(), values.max()  # they carry any NaN or inf
    if not (np.isfinite(low) and np.isfinite(high)) or low < 0:
        raise FormatError(f"{path}: negative or non-finite probability")
    sums = reduce_labels(values, np.add, np.float64)
    worst = np.abs(sums - 1.0).max()
    if worst > UNARY_SUM_TOLERANCE:
        raise FormatError(f"{path}: per-pixel sums deviate from 1 by {worst:.2e}")
    values /= sums[:, None]
    return LabelDistributionImage(height, width, labels, values)


# ---------------------------------------------------------------------------
# PLY point clouds
# ---------------------------------------------------------------------------


def write_ply(
    path: str | Path,
    points: np.ndarray,
    colors: np.ndarray,
    hard_labels: np.ndarray,
    confidences: np.ndarray,
) -> None:
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    colors = np.asarray(colors).reshape(-1, 3)
    hard_labels = np.asarray(hard_labels).reshape(-1)
    confidences = np.asarray(confidences, dtype=np.float64).reshape(-1)
    n = points.shape[0]
    if not (colors.shape[0] == hard_labels.shape[0] == confidences.shape[0] == n):
        raise FormatError("PLY arrays disagree in length")
    _check_samples(colors, 255, "PLY colors value")
    _check_samples(hard_labels, 255, "PLY labels value")
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {n}\n")
        for typ, name in PLY_PROPERTIES:
            f.write(f"property {typ} {name}\n")
        f.write("end_header\n")
        # one Python list per column, then every row formatted in one join
        columns = [
            *points.T.tolist(),
            *colors.astype(np.int64).T.tolist(),
            hard_labels.astype(np.int64).tolist(),
            confidences.tolist(),
        ]
        row = "%.9g %.9g %.9g %d %d %d %d %.9g\n"
        f.write("".join([row % values for values in zip(*columns)]))


def read_ply(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Strict reader for the PLY layout produced by :func:`write_ply`: any
    other header line, a vertex row that is not 8 numbers, or a uchar value
    that is not an integer in [0, 255] raises ``FormatError``."""
    header: list[list[str]] = []
    with open(path, encoding="ascii") as f:
        try:
            for line in iter(f.readline, ""):
                header.append(line.split())
                if header[-1] == ["end_header"]:
                    break
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns on an empty body
                table = np.loadtxt(f, dtype=np.float64, comments=None, ndmin=2)
        except ValueError as e:  # UnicodeDecodeError included
            raise FormatError(f"{path}: {e}") from e
    if header[:2] != [["ply"], ["format", "ascii", "1.0"]] or header[-1] != ["end_header"]:
        raise FormatError(f"{path}: not an ascii PLY file with a complete header")
    count = None
    props: list[tuple[str, str]] = []
    for number, words in enumerate(header[2:-1], start=3):
        if words[:2] == ["element", "vertex"] and len(words) == 3 and words[2].isdigit():
            count = int(words[2])
        elif words[:1] == ["property"] and len(words) == 3:
            props.append((words[1], words[2]))
        elif words[:1] != ["comment"]:
            raise FormatError(f"{path}: line {number}: unexpected header line {words}")
    if count is None or props != PLY_PROPERTIES:
        raise FormatError(f"{path}: header has vertex count {count}, properties {props}")
    if table.size == 0:
        table = table.reshape(0, 8)
    if table.shape != (count, 8):
        raise FormatError(f"{path}: vertex table is {table.shape}, header declares ({count}, 8)")
    uchar = table[:, 3:7]
    if not np.all((uchar >= 0) & (uchar <= 255) & (uchar == np.floor(uchar))):
        raise FormatError(f"{path}: a color or label is not an integer in [0, 255]")
    points = np.ascontiguousarray(table[:, :3])
    return points, uchar[:, :3].astype(np.uint8), uchar[:, 3].astype(np.int64), table[:, 7].copy()
