"""Byte identity of the shared row formatter (``banded.write_rows``) and of
the generator and matrix files written through it, against reference text
built one ``format(x, ".17g")`` at a time."""

import io

import numpy as np
import pytest
from conftest import random_generators, traced_peak
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from greenband import (
    BandedMatrix,
    GreenGenerators,
    invert_lower_band_lu,
    invert_lower_band_qr,
    invert_two_sided_lu,
    invert_two_sided_qr,
    random_band,
    read_generators,
    read_matrix,
    write_generators,
    write_matrix,
)
from greenband.banded import TEXT_CHUNK, write_rows
from greenband.dense_oracle import ROWS

LITERALS = [0.0, -0.0, 1.0, -1.0]
ULP = [np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)]  # 1 + 1 ulp, 1 - 1 ulp
SPECIAL = LITERALS + ULP + [-x for x in ULP] + [
    5e-324, -5e-324, 2.0, -2.0, 1e16, 1e17, 1.7976931348623157e308, -1.7976931348623157e308, 0.1
]
# (sep, head, tail, join) of a generator array's rows and of a matrix file's
STYLES = [(", ", "[", "]", ", "), (",", "", "\n", "")]


def per_value(vals, sep):
    return sep.join(format(float(x), ".17g") for x in vals)


def per_value_rows(mat, sep, head, tail, join):
    return join.join(head + per_value(row, sep) + tail for row in mat)


def per_value_generators(g):
    m, r = g.n - g.r, g.r

    def rows(mat):
        return "[" + per_value_rows(mat, ", ", "[", "]", ", ") + "]"

    return (
        f'{{\n  "n": {g.n},\n  "r": {r},\n  "p": {rows(g.p)},\n  "q": {rows(g.q)},\n'
        f'  "a": {rows(g.a.reshape(m, r * r))},\n  "p_last": [{per_value(g.p_last.ravel(), ", ")}]\n}}\n'
    )


def per_value_matrix(a):
    head = f"{a.n} {a.r_lower} {a.r_upper}\n"
    return head + "".join(per_value(row, ",") + "\n" for row in a.to_dense())


def assert_same_text(got, want):
    """got == want, reported by the first difference (pytest's diff of two
    long texts takes minutes)."""
    if got != want:
        at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
        raise AssertionError(f"texts differ at {at}: {got[at - 30 : at + 30]!r} != {want[at - 30 : at + 30]!r}")


def formatted(mat, style):
    fh = io.StringIO()
    write_rows(fh, mat, style[0], head=style[1], tail=style[2], join=style[3])
    return fh.getvalue()


def assert_generator_file(tmp_path, g):
    """The file of ``g`` is the per-value text and reads back bit for bit."""
    path = tmp_path / "g.json"
    write_generators(path, g)
    assert_same_text(path.read_text(), per_value_generators(g))
    h = read_generators(path)
    for field in ("p", "q", "a", "p_last"):
        assert getattr(h, field).tobytes() == getattr(g, field).tobytes(), field


def general(shape, seed):
    """Values with no exact 0 or +-1, of mixed signs and magnitudes."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)


@pytest.mark.parametrize("style", STYLES)
def test_special_values_match_per_value_format(style):
    # every rotation of the list: each row has its own pattern of literals
    mat = np.array([np.roll(SPECIAL, k) for k in range(len(SPECIAL))])
    assert_same_text(formatted(mat, style), per_value_rows(mat, *style))
    assert [format(x, ".17g") for x in LITERALS] == ["0", "-0", "1", "-1"]


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("width", [1, 7, TEXT_CHUNK + 1])
def test_patterns_that_change_inside_and_across_chunks(style, width):
    # runs of three rows with one pattern each, every fifth row a pattern of
    # its own, and one run of rows across the first chunk boundary
    step = max(1, TEXT_CHUNK // width)
    rows = 2 * step + 5
    rng = np.random.default_rng(width)
    patterns = rng.integers(-1, len(LITERALS), (5, width))  # -1: no literal
    ids = np.arange(rows) // 3 % 4
    ids[::5] = 4
    ids[max(0, step - 4) : step + 4] = 2
    mat = general((rows, width), width)
    for i, pid in enumerate(ids):
        picked = patterns[pid] >= 0
        mat[i, picked] = np.array(LITERALS)[patterns[pid, picked]]
    assert_same_text(formatted(mat, style), per_value_rows(mat, *style))


@pytest.mark.parametrize("style", STYLES)
def test_an_all_literal_chunk_then_a_chunk_without_literals(style):
    width = 4
    step = TEXT_CHUNK // width
    rng = np.random.default_rng(3)
    mat = general((2 * step + 1, width), 3)
    mat[:step] = rng.choice(LITERALS, (step, width))
    text = formatted(mat, style)
    assert_same_text(text, per_value_rows(mat, *style))
    assert set(text[: len(per_value_rows(mat[:step], *style))]) <= set("-01, []\n")


def band(n, r_lower, r_upper, seed):
    """A diagonally dominant band, built in O(n (r_lower + r_upper))
    memory."""
    rng = np.random.default_rng(seed)
    bands = rng.random((r_lower + r_upper + 1, n))
    bands[r_upper] += 1.0 + r_lower + r_upper
    i = np.arange(r_lower + r_upper + 1)[:, None] - r_upper + np.arange(n)
    bands[(i < 0) | (i >= n)] = 0.0
    return BandedMatrix(n, r_lower, r_upper, bands)


@pytest.mark.parametrize("two_sided", [True, False])
@pytest.mark.parametrize("method", ["qr", "lu"])
def test_inverse_generator_files_match_per_value_format(tmp_path, method, two_sided):
    # an LU set is mostly exact 0 and 1: q(k) = e_r and a(k) = [-f_k | shift];
    # n spans more than one chunk of every array
    n, r = 2 * TEXT_CHUNK // 3 + 40, 3
    invert = {
        ("qr", True): invert_two_sided_qr,
        ("lu", True): invert_two_sided_lu,
        ("qr", False): invert_lower_band_qr,
        ("lu", False): invert_lower_band_lu,
    }[method, two_sided]
    g = invert(band(n, r, r if two_sided else 6, seed=5))
    if method == "lu":
        assert np.isin(np.abs(g.a), [0.0, 1.0]).mean() > 0.5
    assert_generator_file(tmp_path, g)


def test_generator_file_with_every_special_value(tmp_path):
    n, r = 40, 3
    g = random_generators(n, r, seed=8)
    arrays_ = {f: getattr(g, f).copy() for f in ("p", "q", "a", "p_last")}
    for t, arr in enumerate(arrays_.values()):
        flat = arr.reshape(-1)
        flat[: len(SPECIAL)] = np.roll(SPECIAL, t)[: flat.size]
    assert_generator_file(tmp_path, GreenGenerators(n, r, **arrays_))


@pytest.mark.parametrize("shape", [(300, 3, 2), (200, 4, 199)])
def test_matrix_files_match_per_value_format(tmp_path, shape):
    # a two-sided band and a band with a full upper part, each with planted
    # literals in the band: -0.0, 1.0 and -1.0 beside the zeros outside it
    n, r_lower, r_upper = shape
    dense = random_band(n, r_lower, r_upper, seed=n, diag_shift=2.0).to_dense()
    inside = np.flatnonzero(dense)
    rng = np.random.default_rng(n)
    picks = rng.choice(inside, 3 * (len(inside) // 10), replace=False).reshape(3, -1)
    for vals, value in zip(picks, [-0.0, 1.0, -1.0]):
        dense.flat[vals] = value
    a = BandedMatrix.from_dense(dense, r_lower, r_upper)
    path = tmp_path / "m.txt"
    write_matrix(path, a)
    assert_same_text(path.read_text(), per_value_matrix(a))
    assert read_matrix(path).bands.tobytes() == a.bands.tobytes()


def test_matrix_writer_keeps_templates_for_one_chunk_only(tmp_path):
    # every row of a band has its own pattern: templates kept for the whole
    # call would add about 2 n^2 bytes of text to the n x n image's 8 n^2
    n = 600
    a = random_band(n, 3, 2, seed=1, diag_shift=5.0)
    path = tmp_path / "m.txt"
    write_matrix(path, a)
    assert traced_peak(write_matrix, path, a) < 9 * n * n


@pytest.mark.parametrize("n, r_upper", [(1500, 3), (600, 599)])
def test_matrix_writer_holds_no_image(tmp_path, n, r_upper):
    # the image is formatted in blocks of ROWS rows cut from the band, with
    # their text written as it is made: a few such blocks of doubles, 17%
    # and 43% of the n x n image's 8 n^2 bytes here
    a = band(n, 3, r_upper, seed=3)
    path = tmp_path / "m.txt"
    write_matrix(path, a)
    assert traced_peak(write_matrix, path, a) < 4 * 8 * ROWS * n


def test_matrix_reader_holds_one_image(tmp_path):
    # loadtxt's n x n result and O(ROWS n) more: the band check makes no
    # n x n temporary
    n = 2000
    a = band(n, 3, 3, seed=2)
    path = tmp_path / "m.txt"
    write_matrix(path, a)
    assert traced_peak(read_matrix, path) < 1.25 * 8 * n * n


def planted(shape):
    """Finite arrays of ``shape`` with exact 0, -0, 1 and -1 planted."""
    values = arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False))
    marks = arrays(np.int8, shape, elements=st.integers(-len(LITERALS), len(LITERALS) - 1))

    def plant(pair):
        vals, mark = pair
        vals[mark >= 0] = np.array(LITERALS)[mark[mark >= 0]]
        return vals

    return st.tuples(values, marks).map(plant)


@st.composite
def generator_sets(draw):
    r = draw(st.integers(1, 4))
    m = draw(st.integers(1, 12))
    fields = {"p": (m, r), "q": (m, r), "a": (m, r, r), "p_last": (r, r)}
    return GreenGenerators(m + r, r, **{f: draw(planted(s)) for f, s in fields.items()})


@given(g=generator_sets())
def test_generator_files_read_back_bit_for_bit(tmp_path_factory, g):
    assert_generator_file(tmp_path_factory.mktemp("g"), g)


@given(mat=st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(planted))
def test_formatted_rows_match_per_value_format(mat):
    for style in STYLES:
        assert_same_text(formatted(mat, style), per_value_rows(mat, *style))
