import re
import warnings

import numpy as np
import pytest
from conftest import instance
from hypothesis import given, strategies as st

import greenband.banded as banded_module
from greenband import (
    BandedMatrix,
    BandPatternError,
    invert_lower_band_lu,
    invert_lower_band_qr,
    lu_factor_lower_band,
    prescribed_condition_band,
    random_band,
    read_matrix,
    write_matrix,
)
from greenband.banded import ROWS

# (n, r_lower, r_upper): r_upper 0, below, equal to and above r_lower, and
# n - 1 (a full upper part); the last two have n = r_lower + 1
KINDS = [(11, 3, 0), (11, 3, 2), (11, 3, 3), (11, 3, 5), (11, 3, 10), (4, 3, 3), (4, 3, 0)]


def test_to_dense_identity_case():
    a = BandedMatrix.from_dense(np.eye(2), 1, 1)
    np.testing.assert_array_equal(a.to_dense(), np.eye(2))


def test_to_dense_tridiagonal_placement():
    dense = np.diag([2.0, 2.0, 2.0]) + np.diag([-1.0, -1.0], 1) + np.diag([-1.0, -1.0], -1)
    a = BandedMatrix.from_dense(dense, 1, 1)
    out = a.to_dense()
    np.testing.assert_array_equal(out, dense)
    assert out[0, 0] == 2.0 and out[0, 1] == -1.0 and out[0, 2] == 0.0


def test_round_trip_random_band():
    a = random_band(10, 3, 3, seed=42)
    b = BandedMatrix.from_dense(a.to_dense(), 3, 3)
    assert a == b


@given(
    n=st.integers(min_value=2, max_value=15),
    data=st.data(),
)
def test_round_trip_property(n, data):
    r_lower = data.draw(st.integers(min_value=1, max_value=n - 1))
    r_upper = data.draw(st.integers(min_value=0, max_value=n - 1))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    a = random_band(n, r_lower, r_upper, seed, diag_shift=1.0)
    assert BandedMatrix.from_dense(a.to_dense(), r_lower, r_upper) == a


def test_constructor_copies_the_band_array():
    bands = random_band(10, 2, 3, seed=4).bands.copy()
    a = BandedMatrix(10, 2, 3, bands)
    assert a.bands is not bands and bands.flags.writeable
    bands[3, 5] += 1.0
    assert a.bands[3, 5] != bands[3, 5]
    assert not a.bands.flags.writeable


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n,r_lower,r_upper", KINDS)
def test_bands_in_lapack_layout(n, r_lower, r_upper, order):
    # shape (r_l + r_u + 1, n), bands[r_u + i - j, j] = A[i, j], Fortran
    # order (each column's band cells contiguous), a read-only copy of
    # either layout of the input
    dense = random_band(n, r_lower, r_upper, seed=n + r_upper, diag_shift=1.0).to_dense()
    given_bands = np.zeros((r_lower + r_upper + 1, n), order=order)
    for i, j in zip(*np.nonzero(dense)):
        given_bands[r_upper + i - j, j] = dense[i, j]
    a = BandedMatrix(n, r_lower, r_upper, given_bands)
    assert a.bands.shape == given_bands.shape
    assert a.bands.flags.f_contiguous and not a.bands.flags.writeable
    assert not np.shares_memory(a.bands, given_bands)
    np.testing.assert_array_equal(a.bands, given_bands)
    np.testing.assert_array_equal(a.to_dense(), dense)
    with pytest.raises(ValueError):
        a.bands[r_upper, 0] = 1.0


def test_constructor_rejects_nonfinite_cells():
    bands = random_band(300, 2, 299, seed=6, diag_shift=1.0).bands.copy()
    for cell in [(0, 299), (150, 170), (301, 0)]:
        for bad in (np.nan, np.inf):
            wrong = bands.copy()
            wrong[cell] = bad
            with pytest.raises(ValueError, match="finite"):
                BandedMatrix(300, 2, 299, wrong)


@pytest.mark.parametrize(
    "n, r_lower, r_upper, shape, message",
    [
        (4, 4, 1, (6, 4), "need n > r_lower > 0, got n=4, r_lower=4"),
        (4, 0, 1, (2, 4), "need n > r_lower > 0, got n=4, r_lower=0"),
        (4, 1, -1, (1, 4), "r_upper must be in [0, n-1], got -1"),
        (4, 1, 4, (6, 4), "r_upper must be in [0, n-1], got 4"),
        (4, 1, 1, (3, 5), "bands must have shape (3, 4), got (3, 5)"),
        (4, 1, 1, (4, 4), "bands must have shape (3, 4), got (4, 4)"),
    ],
    ids=["n=r_lower", "r_lower=0", "r_upper<0", "r_upper=n", "wide-bands", "tall-bands"],
)
def test_constructor_rejects_bad_bandwidths_and_band_shapes(n, r_lower, r_upper, shape, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        BandedMatrix(n, r_lower, r_upper, np.zeros(shape))


def test_cells_outside_the_matrix_are_rejected():
    # a 30 x 30 band of order 3 has 3 + 2 + 1 cells outside the matrix in
    # each corner of its band array
    bands = random_band(30, 3, 3, seed=5, diag_shift=3.0).bands.copy()
    outside = [(d, j) for d in range(3) for j in range(3 - d)]
    outside += [(d, j) for d in range(4, 7) for j in range(33 - d, 30)]
    assert len(outside) == 12
    for d, j in outside:
        bad = bands.copy()
        bad[d, j] = 1.0
        with pytest.raises(ValueError):
            BandedMatrix(30, 3, 3, bad)
    BandedMatrix(30, 3, 3, bands)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("r_lower,r_upper", [(2, 299), (299, 0), (140, 150)])
def test_corner_cells_across_diagonal_tiles(r_lower, r_upper, order):
    # corners of more than one tile of diagonals: every cell just outside
    # the matrix on its diagonal, and every first and last cell inside
    n = 300
    bands = random_band(n, r_lower, r_upper, seed=7, diag_shift=1.0).bands.copy(order=order)
    d = np.arange(r_lower + r_upper + 1)
    first = np.maximum(0, r_upper - d)  # first column of diagonal d inside the matrix
    last = np.minimum(n, n + r_upper - d) - 1
    bands[d, first] = bands[d, last] = 1.0
    BandedMatrix(n, r_lower, r_upper, bands)
    outside = [(k, first[k] - 1) for k in d if first[k] > 0]
    outside += [(k, last[k] + 1) for k in d if last[k] < n - 1]
    assert len(outside) == r_lower + r_upper
    for cell in outside:
        bad = bands.copy(order="K")
        bad[cell] = -1e-300
        with pytest.raises(ValueError, match="outside the matrix"):
            BandedMatrix(n, r_lower, r_upper, bad)


def test_band_pattern_enforced():
    dense = np.eye(4)
    dense[3, 0] = 1.0  # outside lower bandwidth 2
    with pytest.raises(BandPatternError):
        BandedMatrix.from_dense(dense, 2, 1)
    with pytest.raises(ValueError, match="dense input must be square"):
        BandedMatrix.from_dense(np.eye(4)[:3], 2, 1)


@pytest.mark.parametrize("r_lower, r_upper", [(2, 1), (3, 0), (1, 130)])
def test_band_pattern_error_names_the_first_off_band_entry(r_lower, r_upper):
    # the check goes over blocks of ROWS rows; the entry named is still the
    # first off-band one in row-major order, wherever the blocks cut
    n = 2 * ROWS + 9
    base = np.tril(np.triu(np.ones((n, n)), -r_lower), r_upper)
    rows = [ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 8]
    cells = [(i, 0) for i in rows] + [(i, i + r_upper + 1) for i in rows if i + r_upper + 1 < n]
    cells = [(i, j) for i, j in cells if i - j > r_lower or j - i > r_upper]
    for k in range(len(cells)):
        dense = base.copy()
        for i, j in cells[k:]:
            dense[i, j] = -0.5
        i, j = min(cells[k:])
        with pytest.raises(BandPatternError, match=re.escape(f"entry ({i}, {j}) is nonzero")):
            BandedMatrix.from_dense(dense, r_lower, r_upper)


NONFINITE_BAND = (2 * ROWS + 9, 2, 1)
# in-band cells on both sides of the first ROWS block edge
IN_BAND_CELLS = [(ROWS - 1, ROWS - 3), (ROWS - 1, ROWS), (ROWS, ROWS - 2), (ROWS, ROWS + 1)]


def matrix_text(dense, r_lower, r_upper):
    """The matrix file format of ``dense``, written without a ``BandedMatrix``
    (which cannot hold a non-finite entry)."""
    rows = (",".join(repr(float(x)) for x in row) for row in dense)
    return f"{len(dense)} {r_lower} {r_upper}\n" + "".join(row + "\n" for row in rows)


@pytest.mark.parametrize("cell", IN_BAND_CELLS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_in_band_nonfinite_entries_are_reported_as_not_finite(tmp_path, cell, bad):
    # an in-band NaN or inf is no band violation: the constructor rejects it,
    # and read_matrix names the path
    n, r_lower, r_upper = NONFINITE_BAND
    dense = np.tril(np.triu(np.ones((n, n)), -r_lower), r_upper)
    dense[cell] = bad
    with pytest.raises(ValueError, match="finite") as info:
        BandedMatrix.from_dense(dense, r_lower, r_upper)
    assert not isinstance(info.value, BandPatternError)
    path = tmp_path / "m.txt"
    path.write_text(matrix_text(dense, r_lower, r_upper))
    with pytest.raises(BandPatternError, match=re.escape(f"{path}: ") + ".*finite"):
        read_matrix(path)


@pytest.mark.parametrize("cell", [(ROWS - 1, 0), (ROWS - 1, ROWS + 1), (ROWS, ROWS - 3), (ROWS, ROWS + 2)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_off_band_nonfinite_entries_are_named(tmp_path, cell, bad):
    n, r_lower, r_upper = NONFINITE_BAND
    dense = np.tril(np.triu(np.ones((n, n)), -r_lower), r_upper)
    dense[cell] = bad
    message = re.escape(f"entry {cell} is nonzero outside the declared band")
    with pytest.raises(BandPatternError, match=message):
        BandedMatrix.from_dense(dense, r_lower, r_upper)
    path = tmp_path / "m.txt"
    path.write_text(matrix_text(dense, r_lower, r_upper))
    with pytest.raises(BandPatternError, match=re.escape(f"{path}: ") + message):
        read_matrix(path)


def test_sparsity_pattern_reproduced_exactly():
    a = random_band(12, 2, 4, seed=3, diag_shift=0.5)
    dense = a.to_dense()
    ii, jj = np.indices((12, 12))
    outside = (ii - jj > 2) | (jj - ii > 4)
    assert np.all(dense[outside] == 0.0)


def test_random_band_tridiagonal_support():
    a = random_band(4, 1, 1, seed=11)
    dense = a.to_dense()
    band = np.abs(np.arange(4)[:, None] - np.arange(4)) <= 1
    assert np.all(dense[band] >= 0.0) and np.all(dense[band] < 1.0)
    assert np.all(dense[~band] == 0.0)


def test_random_band_determinism():
    a = random_band(30, 4, 4, seed=7, diag_shift=2.0)
    b = random_band(30, 4, 4, seed=7, diag_shift=2.0)
    assert np.array_equal(a.bands, b.bands)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shifted_random_band_is_well_conditioned(seed):
    a = random_band(100, 5, 5, seed, diag_shift=5.0)
    assert np.linalg.cond(a.to_dense(), 2) <= 10.0


def test_random_band_rejects_bad_bandwidths():
    with pytest.raises(ValueError):
        random_band(4, 0, 1, seed=0)
    with pytest.raises(ValueError):
        random_band(4, 4, 1, seed=0)
    with pytest.raises(ValueError):
        random_band(4, 1, 5, seed=0)


def test_prescribed_condition_unitary_limit():
    a = prescribed_condition_band(40, 3, 1.0, seed=5)
    assert 1.0 <= np.linalg.cond(a.to_dense(), 2) <= 2.0


@pytest.mark.parametrize(
    "n, target, message",
    [(10, float("nan"), "target_cond must be finite and >= 1"),
     (10, float("inf"), "target_cond must be finite and >= 1"),
     (10, float("1e400"), "target_cond must be finite and >= 1"),
     (10, 0.5, "target_cond must be finite and >= 1"),
     (2, 10.0, "need n > r > 0, got n=2, r=2")],
    ids=["nan", "inf", "1e400", "0.5", "n=r"],
)
def test_prescribed_condition_rejects_a_target_that_is_not_finite_or_below_one(n, target, message):
    # and a size that leaves no room for a band of order r = 2
    with pytest.raises(ValueError, match=re.escape(message)):
        prescribed_condition_band(n, 2, target, seed=0)


@pytest.mark.parametrize("target,lo,hi", [(1e6, 5e5, 2e6), (1e1, 5.0, 20.0)])
def test_prescribed_condition_hits_target(target, lo, hi):
    a = prescribed_condition_band(100, 5, target, seed=9)
    kappa = np.linalg.cond(a.to_dense(), 2)
    assert lo <= kappa <= hi
    # lower banded with full upper part
    assert a.r_lower == 5 and a.full_upper
    dense = a.to_dense()
    assert np.all(dense[np.tril_indices(100, -6)] == 0.0)


def test_entry_and_segments():
    a = random_band(9, 2, 3, seed=1)
    dense = a.to_dense()
    for i, j in [(0, 0), (5, 3), (2, 5), (8, 0), (0, 8)]:
        assert a.entry(i, j) == dense[i, j]
    np.testing.assert_array_equal(a.row_segment(4, 0, 9), dense[4])
    np.testing.assert_array_equal(a.col_segment(3, 0, 9), dense[:, 3])
    np.testing.assert_array_equal(a.rows_block(2, 5, 1, 7), dense[2:5, 1:7])


@pytest.mark.parametrize("n,r_lower,r_upper", KINDS)
def test_rows_block_matches_dense(n, r_lower, r_upper):
    # every window whose corner lies at either edge or inside, rows past n
    # included: the strided view reads other columns' cells around the band,
    # which must come out zero
    a = random_band(n, r_lower, r_upper, seed=n * r_upper + 1, diag_shift=1.0)
    dense = np.vstack([a.to_dense(), np.zeros((r_lower + 2, n))])
    for i0 in range(n + 1):
        for i1 in range(i0, n + r_lower + 2):
            for j0 in range(n + 1):
                for j1 in {j0, min(j0 + 1, n), (j0 + n) // 2, n}:
                    block = a.rows_block(i0, i1, j0, j1)
                    assert block.flags.f_contiguous
                    np.testing.assert_array_equal(block, dense[i0:i1, j0:j1])


@pytest.mark.parametrize("n,r_lower,r_upper", KINDS)
def test_panel_matches_dense(n, r_lower, r_upper):
    # factor_panels' windows: (b + r) rows from k0, clipped columns, the
    # last ones past the matrix edge, with and without carried rows
    a = random_band(n, r_lower, r_upper, seed=n + 2 * r_upper, diag_shift=1.0)
    dense = np.vstack([a.to_dense(), np.zeros((r_lower, n))])
    carried = np.full((r_lower, r_lower), -7.0)
    for k0 in range(n - r_lower):
        for b in range(1, n - k0 + 1):
            rows, cols = b + r_lower, n - k0
            w = a.panel(k0, rows, cols)
            np.testing.assert_array_equal(w, dense[k0 : k0 + rows, k0:n])
            w = a.panel(k0, rows, cols, carried[: min(rows, cols), : min(rows, cols)])
            expected = dense[k0 : k0 + rows, k0:n].copy()
            expected[:r_lower, :r_lower] = -7.0
            np.testing.assert_array_equal(w, expected)


def test_norm_inf_matches_dense():
    # r_u in {0, r_l, n - 1} and between; rows 0 and n - 1, whose sums take
    # the corner cells of the band array, take their turn as the largest row
    shapes = [(25, 3, 6), (25, 3, 0), (25, 3, 3), (25, 3, 24), (40, 39, 39), (2, 1, 0)]
    for n, r_lower, r_upper in shapes:
        for hot in (0, n - 1, n // 2):
            dense = random_band(n, r_lower, r_upper, seed=2, diag_shift=1.5).to_dense()
            dense[hot] *= 10.0
            a = BandedMatrix.from_dense(dense, r_lower, r_upper)
            assert a.norm_inf() == pytest.approx(np.linalg.norm(a.to_dense(), np.inf))


@pytest.mark.parametrize("chunk", [banded_module.NORM_CHUNK, 64])
@pytest.mark.parametrize("scale", [1e150, 1e-150])
@pytest.mark.parametrize("n,r_lower,r_upper", KINDS + [(300, 2, 299), (300, 200, 50)])
def test_norm_inf_at_extreme_scales(monkeypatch, n, r_lower, r_upper, scale, chunk):
    # chunks of 64 cells split every band array here into several chunks of
    # columns, one column each when d > 32
    monkeypatch.setattr(banded_module, "NORM_CHUNK", chunk)
    a = instance(n, r_lower, r_upper, seed=3, scale=scale)
    expected = np.linalg.norm(a.to_dense(), np.inf)
    assert np.isfinite(expected) and expected > 0.0
    assert a.norm_inf() == pytest.approx(expected, rel=1e-13)


def test_norm_inf_is_computed_once_per_matrix(monkeypatch):
    # one QR and one LU inversion of the same matrix (both use ||A||_inf)
    # pay for it once: one dgbmv per chunk of columns, one chunk here.  LU's
    # growth, read from R's panels against the same norm, makes no call
    calls = []
    dgbmv = banded_module.dgbmv
    monkeypatch.setattr(banded_module, "dgbmv", lambda *a, **k: calls.append(1) or dgbmv(*a, **k))
    a = random_band(60, 3, 5, seed=1, diag_shift=9.0)
    invert_lower_band_qr(a)
    assert len(calls) == 1
    invert_lower_band_lu(a)
    assert len(calls) == 1
    assert lu_factor_lower_band(a).growth > 0.0
    assert len(calls) == 1
    assert a.norm_inf() == pytest.approx(np.linalg.norm(a.to_dense(), np.inf))
    assert len(calls) == 1


def test_matrix_file_round_trip(tmp_path):
    a = random_band(8, 2, 7, seed=4, diag_shift=0.25)
    path = tmp_path / "m.txt"
    write_matrix(path, a)
    b = read_matrix(path)
    assert a == b  # 17 significant digits round-trip exactly


def test_matrix_file_accepts_full_token(tmp_path):
    a = random_band(6, 2, 5, seed=8)
    path = tmp_path / "m.txt"
    write_matrix(path, a)
    text = path.read_text().splitlines()
    text[0] = "6 2 full"
    path.write_text("\n".join(text) + "\n")
    assert read_matrix(path) == a


@pytest.mark.parametrize(
    "mutate",
    [
        lambda lines: ["not a header"] + lines[1:],
        lambda lines: lines[:-1],  # missing row
        lambda lines: [lines[0]] + [ln.replace(",", ";", 1) for ln in lines[1:]],
        lambda lines: [lines[0].replace("5", "2", 1)] + lines[1:],  # band violated
    ],
)
def test_matrix_file_parse_errors(tmp_path, mutate):
    a = random_band(6, 5, 5, seed=4, diag_shift=1.0)
    path = tmp_path / "m.txt"
    write_matrix(path, a)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(mutate(lines)) + "\n")
    with pytest.raises(BandPatternError):
        read_matrix(path)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda lines: [], "empty matrix file"),
        (lambda lines: lines[:1], "expected 6 data rows, found 0"),  # header only
        (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:], "bad data row"),
        (lambda lines: [lines[0]] + [ln + ",0" for ln in lines[1:]], "expected 6 values per row"),
        (lambda lines: lines[:2] + [lines[2].replace(",", ",1#", 1)] + lines[3:], "bad data row"),
        (lambda lines: ["6 2"] + lines[1:], "header must be 'N r_lower r_upper'"),
        (lambda lines: ["6 2 3 3"] + lines[1:], "header must be 'N r_lower r_upper'"),
    ],
    ids=["empty", "header-only", "ragged-row", "wide-rows", "hash-in-value", "two-field-header",
         "four-field-header"],
)
def test_matrix_file_errors_name_the_path(tmp_path, mutate, message):
    # a '#' is a bad value, not the start of a comment; numpy's warning that
    # it read no data does not leak from a header-only file
    a = random_band(6, 2, 3, seed=4, diag_shift=1.0)
    path = tmp_path / "m.txt"
    write_matrix(path, a)
    lines = path.read_text().splitlines()
    path.write_text("".join(ln + "\n" for ln in mutate(lines)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BandPatternError, match=re.escape(f"{path}: {message}")):
            read_matrix(path)


def test_matrix_file_skips_blank_lines(tmp_path):
    a = random_band(6, 2, 3, seed=4, diag_shift=1.0)
    path = tmp_path / "m.txt"
    write_matrix(path, a)
    lines = path.read_text().splitlines()
    path.write_text("\n" + "\n  \n\n".join(lines) + "\n\n")
    assert read_matrix(path).bands.tobytes() == a.bands.tobytes()
