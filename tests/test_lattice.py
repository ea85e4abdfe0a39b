"""The lean permutohedral lattice build against the key-materializing one."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import voxcrf.lattice as lattice_mod
from voxcrf.errors import InputError
from voxcrf.lattice import PermutohedralLattice

from _reference import ReferenceLattice


def random_features(rng, n, d, kind):
    if kind == "spread":
        return rng.normal(size=(n, d)) * rng.uniform(0.1, 8.0)
    if kind == "negative":
        return rng.uniform(-40.0, -5.0, (n, d))
    if kind == "clustered":
        centers = rng.uniform(-20.0, 20.0, (3, d))
        return centers[rng.integers(0, 3, n)] + rng.normal(scale=0.05, size=(n, d))
    # duplicates: few distinct points, each repeated
    distinct = rng.uniform(-5.0, 5.0, (max(1, n // 4), d))
    return distinct[rng.integers(0, len(distinct), n)]


def assert_same_lattice(lat, ref, rng):
    assert lat.num_vertices == ref.num_vertices
    assert (lat._slice.T != ref.splat).nnz == 0
    assert (lat._slice != ref.slice).nnz == 0
    assert np.array_equal(lat._n1, ref.n1)
    assert np.array_equal(lat._n2, ref.n2)
    assert np.abs(lat.diagonal - ref.diagonal).max() <= 1e-12
    vals = rng.normal(size=(lat.n, 3))
    assert np.array_equal(lat.filter(vals), ref.filter(vals))
    assert np.array_equal(lat.filter(vals, reverse=True), ref.filter(vals, reverse=True))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.sampled_from([1, 2, 7, 60, 400]),
    st.sampled_from(["spread", "negative", "clustered", "duplicates"]),
)
def test_lattice_matches_key_materializing_reference(seed, d, n, kind):
    rng = np.random.default_rng(seed)
    feats = random_features(rng, n, d, kind)
    assert_same_lattice(PermutohedralLattice(feats), ReferenceLattice(feats), rng)


def test_lattice_matches_reference_on_image_features(rng):
    from conftest import random_flat_rgb

    rgb, _ = random_flat_rgb(rng, 24, 32)
    yy, xx = np.mgrid[0:24, 0:32].astype(np.float64)
    bilateral = np.column_stack([xx.ravel() / 6.0, yy.ravel() / 6.0, rgb.reshape(-1, 3) / 11.0])
    spatial = np.column_stack([xx.ravel() / 3.0, yy.ravel() / 3.0])
    for feats in (bilateral, spatial):
        assert_same_lattice(PermutohedralLattice(feats), ReferenceLattice(feats), rng)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_forced_row_fallback_matches_packed_codes(monkeypatch, rng, d):
    feats = random_features(rng, 300, d, "clustered")
    packed = PermutohedralLattice(feats)
    assert packed._packed
    monkeypatch.setattr(lattice_mod, "_CODE_LIMIT", 0)
    rows = PermutohedralLattice(feats)
    assert not rows._packed
    assert rows.num_vertices == packed.num_vertices
    assert (rows._slice.T != packed._slice.T).nnz == 0
    assert np.array_equal(rows._n1, packed._n1)
    assert np.array_equal(rows._n2, packed._n2)
    assert np.array_equal(rows.diagonal, packed.diagonal)
    vals = rng.normal(size=(300, 2))
    assert np.array_equal(rows.filter(vals), packed.filter(vals))
    assert np.array_equal(rows.filter(vals, reverse=True), packed.filter(vals, reverse=True))


def test_extreme_coordinate_range_takes_row_fallback(rng):
    feats = np.vstack([rng.normal(size=(40, 2)), rng.normal(size=(40, 2)) + [1e13, -3e12]])
    lat = PermutohedralLattice(feats)
    assert not lat._packed
    assert_same_lattice(lat, ReferenceLattice(feats), rng)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_both_sides_of_the_packed_code_limit_match_the_reference(rng, d):
    """Moving a second cluster away from a first widens the coordinate
    ranges until a simplex's code no longer fits an int64; bisection finds
    the last offset that packs and the first that takes structured records,
    and both lattices equal the reference.  The packed box is the vertex
    keys' box, which the reference spans, widened by d+1 on each side."""
    near, far = rng.normal(size=(60, d)), rng.normal(size=(60, d))
    direction = rng.uniform(0.5, 1.0, d)

    def features(offset):
        return np.vstack([near, far + offset * direction])

    def packs(offset):
        return PermutohedralLattice(features(offset))._packed

    lo, hi = 0.0, 2.0**40
    assert packs(lo) and not packs(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if packs(mid) else (lo, mid)
    packed, records = PermutohedralLattice(features(lo)), PermutohedralLattice(features(hi))
    assert packed._packed and not records._packed
    ref = ReferenceLattice(features(lo))
    box = ref._ranges[:d] + 2 * (d + 1)
    bound = float(np.prod(box.astype(np.float64))) * (d + 1) ** d
    assert lattice_mod._CODE_LIMIT / 2 < bound < lattice_mod._CODE_LIMIT
    assert_same_lattice(packed, ref, rng)
    assert_same_lattice(records, ReferenceLattice(features(hi)), rng)


@pytest.mark.parametrize("limit", [None, 0])
@pytest.mark.parametrize("d, length", [(2, 15), (2, 16), (2, 17), (3, 20), (5, 30)])
def test_neighbors_at_the_ends_of_the_key_box_match_the_reference(
    monkeypatch, rng, d, length, limit
):
    """Points spread evenly over a box of side ``length`` in the first d
    lattice coordinates put vertices on both ends of every axis of the key
    box, near each of its corners, and a blur neighbor of a vertex on an end
    lies up to d steps past it.  In a box too narrow for that, the
    neighbor's code carries into the next digit; at d = 2 that code can be
    another vertex's, near the opposite end, and which box sizes let it
    depends on the box's side mod 3, so three sides are checked.  The
    tables must equal the reference's in both key formats."""
    if limit is not None:  # the structured-records path
        monkeypatch.setattr(lattice_mod, "_CODE_LIMIT", limit)
    to_lattice = lattice_mod._embed(np.eye(d))[:, :d]  # features -> first d coordinates
    coords = rng.uniform(0.0, length, (1500 * d, d))
    feats = np.linalg.solve(to_lattice.T, coords.T).T
    lat = PermutohedralLattice(feats)
    assert lat._packed == (limit is None)
    assert_same_lattice(lat, ReferenceLattice(feats), rng)


def tie_heavy_features(rng, n, d):
    """Quantized features, half of their coordinates 0: most points repeat
    one another, and a zero in two embedded coordinates ties two residuals."""
    feats = rng.integers(-3, 4, (n, d)) * 0.5
    feats[rng.random((n, d)) < 0.5] = 0.0
    return feats


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("kind", ["duplicates", "ties"])
def test_duplicate_and_tie_heavy_inputs_across_row_blocks_match_the_reference(rng, d, kind):
    """4,500 points, past two row-block boundaries, drawn from 40 distinct
    points or with tied residuals in most rows, so many points share each
    simplex and ranks rest on the tie rule."""
    n = 2 * lattice_mod._ROW_BLOCK + 404
    if kind == "duplicates":
        feats = rng.uniform(-5.0, 5.0, (40, d))[rng.integers(0, 40, n)]
    else:
        feats = tie_heavy_features(rng, n, d)
        elevated = lattice_mod._embed(feats)
        assert (np.sum(elevated == 0.0, axis=1) >= 2).mean() > 0.3
    lat = PermutohedralLattice(feats)
    assert lat.num_vertices < n
    assert_same_lattice(lat, ReferenceLattice(feats), rng)


@pytest.mark.parametrize("limit", [None, 0])
def test_slice_is_formed_sorted_with_int32_indices(monkeypatch, rng, limit):
    """S arrives with int32 index arrays and each row's entries in vertex
    order: a copy with every row reversed, sorted by scipy, equals it."""
    if limit is not None:  # the structured-records path
        monkeypatch.setattr(lattice_mod, "_CODE_LIMIT", limit)
    feats = np.vstack([random_features(rng, 2500, 3, "clustered"), tie_heavy_features(rng, 500, 3)])
    s = PermutohedralLattice(feats)._slice
    assert s.indices.dtype == np.int32 and s.indptr.dtype == np.int32
    rows = s.indices.reshape(s.shape[0], -1)
    assert np.all(np.diff(rows, axis=1) > 0)
    reversed_rows = sparse.csr_matrix(
        (s.data.reshape(rows.shape)[:, ::-1].ravel(), rows[:, ::-1].ravel(), s.indptr.copy()),
        shape=s.shape,
    )
    reversed_rows.has_sorted_indices = False
    reversed_rows.sort_indices()
    assert np.array_equal(reversed_rows.indices, s.indices)
    assert np.array_equal(reversed_rows.data, s.data)


def test_one_slice_matrix_per_lattice(rng):
    """A lattice stores its barycentric weights once, as the N x m slice S;
    ``scaled`` adds an output slice with its own weights over S's indices."""
    feats = random_features(rng, 200, 3, "spread")
    lat = PermutohedralLattice(feats)
    matrices = [v for v in vars(lat).values() if sparse.issparse(v)]
    assert matrices and all(a.shape == (lat.n, lat.num_vertices) for a in matrices)
    assert lat._out_views is lat._s_views
    scaled = lat.scaled(rng.uniform(0.5, 2.0, lat.n))
    s, out = scaled._s_views[0, lat.n], scaled._out_views[0, lat.n]
    assert scaled._slice is lat._slice and np.shares_memory(s.data, lat._slice.data)
    assert np.shares_memory(out.indices, s.indices)
    assert np.shares_memory(out.indptr, s.indptr)
    assert not np.shares_memory(out.data, s.data)


@pytest.mark.parametrize("kernel", ["bilateral", "spatial"])
def test_build_peaks_below_eight_point_arrays(rng, kernel):
    """The build frees each (N, d+1) temporary after its last read and forms
    vertex keys for distinct simplices only, taking each key's vertex index
    from a search of the distinct keys, so on a 160x120 frame it peaks below
    8 x N(d+1) float64s above its input (4.1 bilateral and 5.2 spatial when
    measured; 18.7 when every temporary lived until the build returned)."""
    import tracemalloc

    from conftest import random_flat_rgb
    from voxcrf.crf import CrfParams, build_features

    rgb, _ = random_flat_rgb(rng, 120, 160)
    feats = getattr(build_features(rgb, CrfParams()), kernel)
    n, d = feats.shape
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        PermutohedralLattice(feats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (peak - entry) / (n * (d + 1) * 8)
    assert arrays <= 8.0, f"peak of {arrays:.2f} (N, d+1) arrays"


@pytest.mark.parametrize("n", [1, 2, 5, 2047, 2048, 2049, 2050, 4097, 6144])
def test_row_blocks_cover_the_rows_without_a_one_row_block(n):
    blocks = list(lattice_mod.row_blocks(n))
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(e == s2 for (_, e), (s2, _) in zip(blocks, blocks[1:]))
    sizes = [e - s for s, e in blocks]
    assert max(sizes) <= lattice_mod._ROW_BLOCK + 1
    assert min(sizes) >= min(n, 2)


@pytest.mark.parametrize("n", [4097, 300], ids=["last_block_absorbs_a_row", "below_one_block"])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("form", ["raw64", "scaled64", "scaled32"])
def test_add_offdiagonal_is_bit_equal_to_the_whole_filter(rng, n, reverse, form):
    """``add_offdiagonal(v, out, w)`` adds ``w (filter(v) - diagonal v)``,
    formed over all N rows at once, into a non-zero ``out`` bit for bit, in
    v's dtype: on a raw and a scaled lattice, in both directions, for an N
    whose last row block absorbs one row and for an N below one block."""
    lat = PermutohedralLattice(random_features(rng, n, 3, "spread"))
    if n > lattice_mod._ROW_BLOCK:
        assert [e - s for s, e in lattice_mod.row_blocks(n)][-1] == lattice_mod._ROW_BLOCK + 1
    dtype = np.float32 if form == "scaled32" else np.float64
    if form != "raw64":
        lat = lat.scaled(rng.uniform(0.5, 2.0, n), dtype)
    v = rng.normal(size=(n, 4)).astype(dtype)
    out = rng.normal(size=(n, 4)).astype(dtype)
    msg = lat.filter(v, reverse=reverse)
    msg -= v * lat.diagonal[:, None]
    msg *= dtype(0.7)
    expected = out + msg
    lat.add_offdiagonal(v, out, 0.7, reverse=reverse)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out, expected)


def test_lattice_takes_values_of_shape_n_by_c_only(rng):
    """``filter`` and ``add_offdiagonal`` take (N, C) values alone: (N,)
    values raise ``InputError`` naming the expected (N, C) shape, and an
    ``out`` of another shape or dtype than the values raises and is left as
    it was."""
    lat = PermutohedralLattice(random_features(rng, 50, 3, "spread"))
    for call in (lat.filter, lambda v: lat.add_offdiagonal(v, np.zeros(50))):
        with pytest.raises(InputError, match=r"expected \(50, C\) values, got \(50,\)"):
            call(np.ones(50))
    for out in (np.ones((50, 3)), np.ones((51, 2)), np.ones((50, 2), np.float32)):
        with pytest.raises(InputError, match="out must be float64 \\(50, 2\\)"):
            lat.add_offdiagonal(rng.normal(size=(50, 2)), out)
        np.testing.assert_array_equal(out, 1.0)
