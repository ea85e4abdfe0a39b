import re
import struct

import numpy as np
import pytest

from voxcrf.crf import LabelDistributionImage
from voxcrf.errors import FormatError
from voxcrf.pipeline.formats import (
    _PLY_BLOCK,
    load_unary,
    read_pgm8,
    read_pgm16,
    read_ply,
    read_ppm,
    save_unary,
    write_pgm8,
    write_pgm16,
    write_ply,
    write_ppm,
    write_unary,
)

from _reference import reference_write_ply, whole_array_write_ply


def test_pgm16_round_trip(tmp_path, rng):
    img = rng.integers(0, 65536, size=(7, 5)).astype(np.uint16)
    path = tmp_path / "d.pgm"
    write_pgm16(path, img)
    assert np.array_equal(read_pgm16(path), img)


def test_pgm16_is_big_endian(tmp_path):
    img = np.array([[0x0102]], dtype=np.uint16)
    path = tmp_path / "d.pgm"
    write_pgm16(path, img)
    data = path.read_bytes()
    assert data.endswith(b"\x01\x02")  # most significant byte first


def test_pgm8_round_trip(tmp_path, rng):
    img = rng.integers(0, 256, size=(4, 6)).astype(np.uint8)
    path = tmp_path / "l.pgm"
    write_pgm8(path, img)
    assert np.array_equal(read_pgm8(path), img)


def test_ppm_round_trip(tmp_path, rng):
    img = rng.integers(0, 256, size=(3, 4, 3)).astype(np.uint8)
    path = tmp_path / "c.ppm"
    write_ppm(path, img)
    assert np.array_equal(read_ppm(path), img)


def test_netpbm_comments_and_errors(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x07\x09")
    assert read_pgm8(path).tolist() == [[7, 9]]
    path.write_bytes(b"P5\n2 1\n255\n\x07")  # truncated
    with pytest.raises(FormatError):
        read_pgm8(path)
    path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(FormatError):
        read_pgm8(path)  # wrong magic


def test_unary_round_trip(tmp_path, rng):
    probs = rng.dirichlet(np.ones(3), size=6)
    img = LabelDistributionImage(2, 3, 3, probs)
    path = tmp_path / "u.unry"
    save_unary(path, img)
    back = load_unary(path)
    assert (back.height, back.width, back.labels) == (2, 3, 3)
    assert np.abs(back.data - probs).max() < 1e-7  # float32 payload
    assert np.abs(back.data.sum(axis=1) - 1.0).max() < 1e-15


def test_unary_minimal_file(tmp_path):
    path = tmp_path / "u.unry"
    save_unary(path, LabelDistributionImage(1, 1, 2, np.array([[0.5, 0.5]])))
    img = load_unary(path)
    assert img.data.ravel() == pytest.approx([0.5, 0.5])


def test_unary_bad_magic(tmp_path):
    path = tmp_path / "u.unry"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError):
        load_unary(path)


def test_unary_sum_tolerance(tmp_path):
    path = tmp_path / "u.unry"
    # sums to 0.9 -> rejected
    payload = struct.pack("<III", 1, 1, 2) + np.array([0.45, 0.45], "<f4").tobytes()
    path.write_bytes(b"UNRY" + payload)
    with pytest.raises(FormatError):
        load_unary(path)
    # sums to 1.0004 -> accepted and renormalized to exactly 1
    vals = np.array([0.5002, 0.5002], "<f4")
    path.write_bytes(b"UNRY" + struct.pack("<III", 1, 1, 2) + vals.tobytes())
    img = load_unary(path)
    assert img.data.sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.25])
def test_unary_rejects_non_finite_and_negative_entries(tmp_path, bad, dtype):
    """A NaN, +inf, -inf or negative entry, here in the last of three
    pixels, raises ``FormatError`` with one message, in either read dtype;
    the check reads the values' min and max."""
    vals = np.array([0.5, 0.5, 0.25, 0.75, 1.25, bad], "<f4")
    path = tmp_path / "u.unry"
    path.write_bytes(b"UNRY" + struct.pack("<III", 1, 3, 2) + vals.tobytes())
    with pytest.raises(FormatError, match="negative or non-finite probability$"):
        load_unary(path, dtype)


def test_unary_payload_size_mismatch(tmp_path):
    path = tmp_path / "u.unry"
    path.write_bytes(b"UNRY" + struct.pack("<III", 2, 2, 2) + b"\x00" * 8)
    with pytest.raises(FormatError):
        load_unary(path)


@pytest.mark.parametrize("shape", [(10, 3), (16, 0), (16,), (1, 16, 3)])
def test_unary_writer_rejects_probabilities_that_do_not_fit_before_creating_the_file(
    tmp_path, shape
):
    # a 10x3 array for 4x4 pixels was once written whole and rejected only
    # by the reader ("payload is 120 bytes, header implies 192")
    path = tmp_path / "u.unry"
    with pytest.raises(FormatError, match=r"do not fit 4x4 pixels"):
        write_unary(path, 4, 4, np.full(shape, 0.5, dtype=np.float32))
    assert not path.exists()


def test_unary_dimension_overflow(tmp_path):
    path = tmp_path / "u.unry"
    path.write_bytes(b"UNRY" + struct.pack("<III", 2**16, 2**16, 8))
    with pytest.raises(FormatError):
        load_unary(path)


def test_ply_round_trip(tmp_path, rng):
    n = 17
    points = rng.normal(size=(n, 3))
    colors = rng.integers(0, 256, (n, 3)).astype(np.uint8)
    labels = rng.integers(0, 23, n)
    conf = rng.uniform(0, 1, n)
    path = tmp_path / "cloud.ply"
    write_ply(path, points, colors, labels, conf)
    p2, c2, l2, f2 = read_ply(path)
    assert np.abs(p2 - points).max() < 1e-6
    assert np.array_equal(c2, colors)
    assert np.array_equal(l2, labels)
    assert np.abs(f2 - conf).max() < 1e-6
    assert [a.dtype for a in (p2, c2, l2, f2)] == [np.float64, np.uint8, np.int64, np.float64]
    write_ply(path, points[:0], colors[:0], labels[:0], conf[:0])
    assert [a.shape for a in read_ply(path)] == [(0, 3), (0, 3), (0,), (0,)]


@pytest.mark.parametrize("n", [0, 1, 257])
def test_ply_writer_matches_row_reference_bytes(tmp_path, rng, n):
    points = rng.normal(scale=rng.uniform(1e-3, 1e3), size=(n, 3))
    points[: n // 3] = np.round(points[: n // 3], 2)
    conf = rng.uniform(0, 1, n)
    labels = rng.integers(0, 256, n)
    # whole-valued float colors write as the same integers; fractional ones
    # are rejected (test_ply_writer_rejects_colors_outside_uchar)
    for colors in (rng.integers(0, 256, (n, 3)).astype(np.uint8), np.floor(rng.uniform(0, 256, (n, 3)))):
        write_ply(tmp_path / "a.ply", points, colors, labels, conf)
        reference_write_ply(tmp_path / "b.ply", points, colors, labels, conf)
        assert (tmp_path / "a.ply").read_bytes() == (tmp_path / "b.ply").read_bytes()


@pytest.mark.parametrize("n", [0, 1, _PLY_BLOCK, _PLY_BLOCK + 1])
def test_blocked_ply_writer_matches_the_whole_array_form(tmp_path, rng, n):
    points = rng.normal(scale=100.0, size=(n, 3))
    colors = rng.integers(0, 256, (n, 3)).astype(np.uint8)
    labels, conf = rng.integers(0, 256, n), rng.uniform(0, 1, n)
    write_ply(tmp_path / "a.ply", points, colors, labels, conf)
    whole_array_write_ply(tmp_path / "b.ply", points, colors, labels, conf)
    assert (tmp_path / "a.ply").read_bytes() == (tmp_path / "b.ply").read_bytes()


def test_ply_writer_peak_follows_one_block_not_the_cloud(tmp_path, rng):
    """Formatting a block of rows at a time keeps the writer's own peak near
    one block's Python lists and strings: about 1.3 MiB here, where every
    row at once takes about 32 MiB on 100k rows."""
    import tracemalloc

    n = 100_000
    points = rng.normal(size=(n, 3))
    colors = rng.integers(0, 256, (n, 3)).astype(np.uint8)
    labels, conf = rng.integers(0, 23, n), rng.uniform(0, 1, n)
    tracemalloc.start()
    try:
        write_ply(tmp_path / "cloud.ply", points, colors, labels, conf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"peaked at {peak / 2**20:.1f} MiB"


def test_ply_strict_reader_rejects_surprises(tmp_path):
    path = tmp_path / "cloud.ply"
    write_ply(path, np.zeros((1, 3)), np.zeros((1, 3), np.uint8), [0], [1.0])
    text = path.read_text()
    path.write_text(text.replace("element vertex 1", "element vertex 2"))
    with pytest.raises(FormatError):
        read_ply(path)
    path.write_text(text.replace("property float confidence\n", ""))
    with pytest.raises(FormatError):
        read_ply(path)
    path.write_text("not a ply\n")
    with pytest.raises(FormatError):
        read_ply(path)


_ROW = "0 0 0 0 0 0 0 1\n"  # write_ply's one-vertex row below


@pytest.mark.parametrize(
    "old, new",
    [
        (_ROW, "0 0 0 0 0 0 280 1\n"),  # label above the uchar range
        (_ROW, "0 0 0 0 0 0 -3 1\n"),  # negative label
        (_ROW, "0 0 0 0 0 300 0 1\n"),  # blue above the uchar range
        (_ROW, "0 0 0 3.5 0 0 0 1\n"),  # fractional red
        (_ROW, "0 0 0 0 0 0 nan 1\n"),
        (_ROW, "0 0 0 0 0 0 0\n"),  # 7 fields
        (_ROW, "0 0 0 0 0 0 0 1 0\n"),  # 9 fields
        (_ROW, "0 0 0 0 0 0 0 x\n"),
        (_ROW, "# 0 0 0 0 0 0 0 1\n"),
        (_ROW, "0 0 0 0 0 0 0 1\u00e9\n"),  # not ascii
        ("element vertex 1", "element vertex x"),
        ("element vertex 1", "element vertex -1"),
        ("element vertex 1", "element face 1"),
        ("property float x", "property float"),
        ("end_header", "header_end"),
        ("end_header", "obj_info made by hand\nend_header"),
    ],
)
def test_ply_strict_reader_rejects_hand_edits(tmp_path, old, new):
    path = tmp_path / "cloud.ply"
    write_ply(path, np.zeros((1, 3)), np.zeros((1, 3), np.uint8), [0], [1.0])
    text = path.read_text()
    assert text.count(old) == 1
    path.write_bytes(text.replace(old, new).encode("utf-8"))
    with pytest.raises(FormatError, match=re.escape(str(path))):
        read_ply(path)


@pytest.mark.parametrize("color", [-1, 256, 300, np.nan, np.inf, 12.7, 0.5, 254.9])
def test_ply_writer_rejects_colors_outside_uchar(tmp_path, color):
    # a fractional color was once written truncated to an integer
    path = tmp_path / "c.ply"
    colors = np.zeros((2, 3))
    colors[1, 2] = color
    with pytest.raises(FormatError, match=f"^PLY colors value {float(color)} at \\(1, 2\\) is "):
        write_ply(path, np.zeros((2, 3)), colors, [0, 1], [1.0, 1.0])
    assert not path.exists()


@pytest.mark.parametrize("label", [-1, 256, 1.5, np.nan])
def test_ply_writer_rejects_labels_outside_uchar(tmp_path, label):
    # the label property is a uchar; a fractional label was once truncated
    path = tmp_path / "c.ply"
    with pytest.raises(FormatError, match=f"^PLY labels value {label} at 1 is "):
        write_ply(path, np.zeros((2, 3)), np.zeros((2, 3), np.uint8), [0, label], [1.0, 1.0])
    assert not path.exists()


def test_netpbm_writers_pin_header_and_sample_bytes(tmp_path):
    path = tmp_path / "x"
    cases = [
        (write_pgm16, [[1, 0x0102]], b"P5\n2 1\n65535\n\x00\x01\x01\x02"),
        (write_pgm8, [[7, 255]], b"P5\n2 1\n255\n\x07\xff"),
        (write_ppm, [[[1, 2, 3]]], b"P6\n1 1\n255\n\x01\x02\x03"),
    ]
    for write, image, expected in cases:
        write(path, np.array(image))
        assert path.read_bytes() == expected
    for write, image in [(write_pgm16, [[65536]]), (write_pgm8, [[256]]), (write_ppm, [[[0, 0, -1]]])]:
        with pytest.raises(FormatError, match="outside"):
            write(path, np.array(image))
    # NaN and fractions were once cast to 0 and truncated; the first is named
    path = tmp_path / "never_written"
    for write, image, message in [
        (write_ppm, [[[np.nan, 12.7, 254.9]]], "color image value nan at (0, 0, 0) is outside [0, 255]"),
        (write_pgm8, [[1.5, 2.99]], "label image value 1.5 at (0, 0) is not a whole number"),
        (write_pgm8, [[1, np.inf]], "label image value inf at (0, 1) is outside [0, 255]"),
        (write_pgm16, [[7.0, 0.25]], "depth image value 0.25 at (0, 1) is not a whole number"),
    ]:
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            write(path, np.array(image))
        assert not path.exists()
    # a Netpbm header holds positive dimensions only: an empty image is refused
    shapes = [(write_pgm16, (3,)), (write_pgm8, (2, 2, 1)), (write_ppm, (2, 2)),
              (write_pgm8, (0, 4)), (write_ppm, (2, 0, 3))]
    for write, shape in shapes:
        with pytest.raises(FormatError, match="must be"):
            write(path, np.zeros(shape))
