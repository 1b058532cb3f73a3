import functools
import json
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from greenband import (
    BandedMatrix,
    GreenGenerators,
    check_green_rank,
    covered_relative_error,
    dense_invert,
    entry,
    identity_residual,
    invert_lower_band_lu,
    invert_lower_band_qr,
    multiply_upper_triangular,
    random_band,
    read_generators,
    reconstruct_structured,
    tail_stacks,
    write_generators,
)
from conftest import instance, random_generators, traced_peak
from greenband.banded import CHUNK, ROWS, TEXT_CHUNK
from greenband import banded as banded_module, generators
from greenband.generators import IMAGE_PANEL, TREE, TREE_MAX_R


def ones_generators(n, r=1):
    m = n - r
    return GreenGenerators(
        n, r, np.ones((m, r)), np.ones((m, r)), np.ones((m, r, r)), np.ones((r, r))
    )


def backward_recursion(x, rows, width, a, t, p):
    """Rows p(k) of the generators of B = R^{-1} V, by back substitution.

    R is upper triangular with diagonal ``x``; ``rows[k]`` holds the at most
    ``width`` entries of R(k, k+1:) that can be nonzero.  V is lower Green
    with generator rows c(k), held in ``p`` on entry, and blocks ``a``; B
    shares ``a`` and V's columns q, and ``t`` is B's tail stack at the row
    below the last one walked.  Then

        p(k) = (c(k) - R(k, k+1:) P_{k+1} a(k)) / x_k,

    where the tail stack P_k = [p(k); P_{k+1} a(k)] is kept to its first
    ``width`` rows, all that a row of R reaches.  Overwrites ``p``, last row
    to first, and returns the final stack as a new array.

    The stack lives in two buffers allocated once per call: each row writes
    P_{k+1} a(k) straight into rows 1.. of the buffer the previous row did
    not, updates p(k) in place and stores it as row 0, so no row allocates.
    The inversions use the panel-blocked ``inverse_generators``; this per-row
    form is the reference that the tests compare it against.
    """
    h, r = t.shape
    bufs = np.empty((2, max(h, width) + 1, r))
    prod = np.empty(r)
    for k0 in range(len(a) - 1, -1, -1):
        nxt = bufs[k0 & 1]
        ta = np.dot(t, a[k0], out=nxt[1 : h + 1])
        row = rows[k0]
        pk = p[k0]
        pk -= np.dot(row, ta[: row.size], out=prod)
        pk /= x[k0]
        nxt[0] = pk
        h = min(h + 1, width)
        t = nxt[:h]
    return t.copy()


def per_row_recursion(x, rows, width, a, t, p):
    """backward_recursion written as its formula, with a new stack per row."""
    for k0 in range(len(a) - 1, -1, -1):
        ta = t @ a[k0]
        row = rows[k0]
        p[k0] = (p[k0] - row @ ta[: row.size]) / x[k0]
        t = np.concatenate((p[k0 : k0 + 1], ta[: width - 1]))
    return t


@pytest.mark.parametrize("start", ["empty", "r rows", "width + 1 rows"])
@pytest.mark.parametrize("width", ["r", "2r", "n-1"])
@pytest.mark.parametrize("r", [1, 3])
def test_backward_recursion_matches_per_row_formula(r, width, start):
    # rows of R hold min(width, n-1-k) entries, so the bottom ones are shorter
    # than width; from an empty stack the walk covers all n rows, from r rows
    # the top n-r, as inverse_generators runs it, and a taller starting stack
    # is cut to width rows after the first row
    n = 20
    width = {"r": r, "2r": 2 * r, "n-1": n - 1}[width]
    h = {"empty": 0, "r rows": r, "width + 1 rows": width + 1}[start]
    rng = np.random.default_rng([r, width, h])
    x = rng.uniform(1.0, 2.0, n)
    rows = [rng.uniform(-1.0, 1.0, min(width, n - 1 - k)) for k in range(n)]
    a = rng.standard_normal((n, r, r)) * (0.5 / np.sqrt(r))
    c = rng.uniform(-1.0, 1.0, (n, r))
    t = rng.uniform(-1.0, 1.0, (h, r))
    k = n if h == 0 else n - r
    t_in = t.copy()
    p_ref, p = c[:k].copy(), c[:k].copy()
    t_ref = per_row_recursion(x[:k], rows[:k], width, a[:k], t, p_ref)
    t_out = backward_recursion(x[:k], rows[:k], width, a[:k], t, p)
    assert p.tobytes() == p_ref.tobytes()
    assert t_out.shape == t_ref.shape == (min(width, h + k), r)
    assert t_out.tobytes() == t_ref.tobytes()
    assert t_out.base is None and t.tobytes() == t_in.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["p", "q", "a", "p_last"])
def test_non_finite_entries_are_rejected(field, bad):
    n, r = 6, 2
    arrays = {"p": np.ones((n - r, r)), "q": np.ones((n - r, r)),
              "a": np.ones((n - r, r, r)), "p_last": np.ones((r, r))}
    arrays[field].flat[-1] = bad
    with pytest.raises(ValueError, match="finite"):
        GreenGenerators(n, r, **arrays)


@pytest.mark.parametrize(
    "entries, finite",
    [
        ({}, True),
        ({("u", 1, 1): 1e200, ("w", 1, 0): 1e200}, False),  # a(k) overflows
        ({("u", 1, 1): 1e200, ("w", 2, 0): 1e200}, True),  # huge in different blocks
        ({("u", 1, 1): 1e154, ("w", 1, 0): 1.79e154}, True),  # just below the largest double
        ({("u", 1, 1): 1e154, ("w", 1, 0): 1.8e154}, False),  # just above it
        ({("u", 1, 0): 1e300}, True),  # u_k[0] enters neither a nor q
        ({("w", 2, 2): 1e300}, True),  # w_k[r]: q(k) = e_r - u_k[1:] w_k[r] stays finite
        ({("w", 2, 2): 1e300, ("u", 2, 2): 1e10}, False),  # q(k) overflows
        ({("u", 3, 1): 0.0, ("u", 3, 2): 0.0, ("w", 3, 0): np.inf}, False),  # a(k) holds 0 * inf
        ({("w", 3, 1): np.nan}, False),
    ],
)
def test_compact_generators_check_finiteness_exactly(entries, finite):
    # generators of an inverse keep a(k) = S - u_k[1:] w_k[:r]^T as (u, w)
    # and bound it by max |u_k[1:]| max |w_k[:r]|, which is exact: they are
    # accepted if and only if q and the built a are finite
    n, r = 7, 2
    m = n - r
    arrays = {"u": np.full((n, r + 1), 0.5), "w": np.full((n, r + 1), 0.5)}
    for (name, k, j), val in entries.items():
        arrays[name][k, j] = val
    u, w = arrays["u"], arrays["w"]
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.eye(r)[-1] - u[:m, 1:] * w[:m, r:]
        a = np.eye(r, k=1) - u[:m, 1:, None] * w[:m, None, :r]
    assert (np.isfinite(q).all() and np.isfinite(a).all()) == finite
    p, p_last = np.ones((m, r)), np.ones((r, r))
    make = functools.partial(GreenGenerators._compact, n, r, p, q, p_last, u, w)
    if finite:
        assert make().a.tobytes() == a.tobytes()
    else:
        with pytest.raises(ValueError, match="finite"):
            make()


@pytest.mark.parametrize("field", ["p", "q", "a", "p_last"])
def test_generators_share_the_callers_arrays_without_freezing_them(field):
    n, r = 6, 2
    arrays = {"p": np.ones((n - r, r)), "q": np.ones((n - r, r)),
              "a": np.ones((n - r, r, r)), "p_last": np.ones((r, r))}
    g = GreenGenerators(n, r, **arrays)
    mine, held = arrays[field], getattr(g, field)
    assert np.shares_memory(held, mine) and not held.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        held.flat[0] = 5.0
    mine.flat[0] = 5.0
    assert held.flat[0] == 5.0


def test_entry_small_products():
    # n=3, r=1: entries are products like p3 * a2 * q1
    g = GreenGenerators(
        3, 1,
        p=[[2.0], [3.0]], q=[[5.0], [7.0]], a=[[[11.0]], [[13.0]]], p_last=[[17.0]],
    )
    assert entry(g, 1, 0) == 3.0 * 11.0        # p2 a1
    assert entry(g, 1, 1) == 3.0 * 5.0         # p2 q1
    assert entry(g, 2, 1) == 17.0 * 13.0 * 5.0  # p3 a2 q1
    assert entry(g, 0, 0) == 2.0               # p1


def test_entry_all_ones():
    g = ones_generators(4)
    for i in range(4):
        for j in range(4):
            if j - i <= 0:
                assert entry(g, i, j) == 1.0


def test_entry_outside_covered_region():
    g = ones_generators(4)
    with pytest.raises(ValueError):
        entry(g, 0, 1)
    with pytest.raises(ValueError):
        entry(g, 0, 4)


def test_entry_matches_reconstruction():
    g = random_generators(8, 2, seed=21)
    b = reconstruct_structured(g)
    tol = 1e-14 * max(np.abs(b).max(), 1.0)
    for i in range(8):
        for j in range(8):
            if j - i <= 1:
                assert abs(entry(g, i, j) - b[i, j]) <= tol


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=3))
@settings(max_examples=25)
def test_entry_reconstruction_consistency_property(seed, r):
    n = 7 + r
    g = random_generators(n, r, seed)
    b = reconstruct_structured(g)
    tol = 1e-14 * max(np.abs(b).max(), 1.0)
    for i in range(n):
        for j in range(min(i + r, n)):
            assert abs(entry(g, i, j) - b[i, j]) <= tol


def test_reconstruct_all_ones_is_lower_triangle():
    g = ones_generators(3)
    np.testing.assert_array_equal(reconstruct_structured(g), np.tril(np.ones((3, 3))))


def test_reconstruct_matches_dense_inverse():
    a = random_band(12, 2, 11, seed=31, diag_shift=2.0)
    g = invert_lower_band_qr(a)
    err = covered_relative_error(reconstruct_structured(g), dense_invert(a.to_dense()), 2)
    assert err <= 1e-10


def test_reconstruct_nilpotent_chain_truncation():
    # with all a(k) = 0 only the block-diagonal products survive
    n, r = 7, 2
    m = n - r
    rng = np.random.Generator(np.random.PCG64(1))
    p, q = rng.random((m, r)), rng.random((m, r))
    g = GreenGenerators(n, r, p, q, np.zeros((m, r, r)), np.eye(r))
    b = reconstruct_structured(g)
    expected = np.zeros((n, n))
    expected[0, :r] = p[0]
    for k in range(2, m + 1):  # 1-based block rows 2..n-r
        expected[k - 1, r + k - 2] = p[k - 1] @ q[k - 2]
    expected[n - r :, n - 1] = np.eye(r) @ q[m - 1]
    np.testing.assert_allclose(b, expected, atol=1e-15)


def test_tail_stacks_all_ones():
    g = ones_generators(4)
    stacks = tail_stacks(g)
    np.testing.assert_array_equal(stacks[3], [[1.0]])
    np.testing.assert_array_equal(stacks[2], [[1.0], [1.0]])
    np.testing.assert_array_equal(stacks[1], [[1.0], [1.0], [1.0]])
    np.testing.assert_array_equal(stacks[0], np.ones((4, 1)))


def test_tail_stacks_column_segments():
    n, r = 10, 2
    g = random_generators(n, r, seed=8)
    b = reconstruct_structured(g)
    stacks = tail_stacks(g)
    assert stacks[0].shape == (n, r)
    # block column 0 spans matrix columns 0..r-1 with q(0) = I
    np.testing.assert_allclose(stacks[0], b[:, :r], rtol=1e-13, atol=1e-14)
    for k in range(2, n - r + 2):  # 1-based k
        seg = stacks[k - 1] @ g.q[k - 2]
        np.testing.assert_allclose(seg, b[k - 1 :, r + k - 2], rtol=1e-13, atol=1e-14)


def test_tail_stacks_recursion_collapse():
    n, r = 6, 2
    g = random_generators(n, r, seed=9)
    g0 = GreenGenerators(n, r, g.p, g.q, np.zeros((n - r, r, r)), g.p_last)
    stacks = tail_stacks(g0)
    for k in range(1, n - r + 1):
        pk = stacks[k - 1]
        np.testing.assert_array_equal(pk[0], g.p[k - 1])
        assert np.all(pk[1:] == 0.0)


def test_check_green_rank_on_banded_inverse():
    a = random_band(20, 3, 19, seed=13, diag_shift=3.0)
    assert check_green_rank(dense_invert(a.to_dense()), 3, 1e-8)


def test_check_green_rank_planted_violation():
    # an identity block of size r+1 inside B[4:, :k+r] certifies rank > r
    n, r = 8, 2
    b = np.zeros((n, n))
    b[4:7, 1:4] = np.eye(3)
    assert not check_green_rank(b, r, 1e-8)


def test_check_green_rank_identity():
    for r in (1, 2, 3):
        assert check_green_rank(np.eye(9), r, 1e-8)


def test_check_green_rank_upper_variant():
    a = random_band(16, 2, 2, seed=14, diag_shift=2.0)
    b = dense_invert(a.to_dense())
    assert check_green_rank(b, 2, 1e-8)
    assert check_green_rank(b, 2, 1e-8, upper=True)
    assert not check_green_rank(np.eye(8)[::-1], 1, 1e-8, upper=True)


def test_multiply_identity_is_noop():
    g = random_generators(9, 2, seed=4)
    out = multiply_upper_triangular(np.eye(9), g)
    np.testing.assert_array_equal(out.p, g.p)
    np.testing.assert_array_equal(out.p_last, g.p_last)
    np.testing.assert_array_equal(out.q, g.q)
    np.testing.assert_array_equal(out.a, g.a)


def test_multiply_by_scaled_identity():
    g = random_generators(9, 2, seed=5)
    out = multiply_upper_triangular(2.0 * np.eye(9), g)
    np.testing.assert_array_equal(out.p, 2.0 * g.p)
    np.testing.assert_array_equal(out.p_last, 2.0 * g.p_last)
    np.testing.assert_array_equal(out.q, g.q)
    np.testing.assert_array_equal(out.a, g.a)


def test_multiply_matches_dense_product():
    n, r = 10, 2
    rng = np.random.Generator(np.random.PCG64(15))
    s = np.triu(rng.uniform(-1.0, 1.0, (n, n)))
    g = random_generators(n, r, seed=16)
    out = multiply_upper_triangular(s, g)
    got = reconstruct_structured(out)
    want = np.tril(s @ reconstruct_structured(g), r - 1)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("n,r,seed", [(12, 1, 0), (18, 2, 1), (24, 3, 2), (7, 3, 3)])
def test_multiply_dense_product_sweep(n, r, seed):
    rng = np.random.Generator(np.random.PCG64(100 + seed))
    s = np.triu(rng.uniform(-1.0, 1.0, (n, n)))
    g = random_generators(n, r, seed)
    got = reconstruct_structured(multiply_upper_triangular(s, g))
    want = np.tril(s @ reconstruct_structured(g), r - 1)
    assert np.linalg.norm(got - want) <= 1e-11 * max(np.linalg.norm(want), 1e-30)


def test_multiply_rejects_non_triangular():
    g = random_generators(6, 2, seed=6)
    with pytest.raises(ValueError):
        multiply_upper_triangular(np.ones((6, 6)), g)


def test_identity_residual_small_for_true_inverse():
    a = random_band(25, 3, 3, seed=17, diag_shift=3.0)
    g = invert_lower_band_qr(a)
    assert identity_residual(a, g) <= 1e-11


def test_identity_residual_detects_corruption():
    a = random_band(25, 3, 3, seed=17, diag_shift=3.0)
    g = invert_lower_band_qr(a)
    bad = GreenGenerators(g.n, g.r, g.p + 0.01, g.q, g.a, g.p_last)
    assert identity_residual(a, bad) > 100 * identity_residual(a, g)


@pytest.mark.parametrize("method", ["qr", "lu"])
def test_identity_residual_cannot_see_q(method):
    # the strictly lower part of A B does not depend on q: with q(21) scaled
    # by 1.5 the residual stays at rounding level while the covered part is
    # 7% off the inverse; the same scaling of p(21) reads 2e-2
    a = random_band(60, 3, 3, seed=1, diag_shift=4.0)
    g = inverse_of(a, method)
    ref = dense_invert(a.to_dense())
    scaled = {}
    for field in ("q", "p"):
        arrays = {f: getattr(g, f).copy() for f in ("p", "q", "a", "p_last")}
        arrays[field][20] *= 1.5
        scaled[field] = GreenGenerators(g.n, g.r, **arrays)
    assert identity_residual(a, scaled["q"]) <= 1e-15
    assert covered_relative_error(reconstruct_structured(scaled["q"]), ref, 3) >= 0.05
    assert identity_residual(a, scaled["p"]) >= 1e-2


@pytest.mark.parametrize("n_gens", [50, 30])
def test_identity_residual_names_both_sizes_on_a_mismatch(n_gens):
    # generators larger than the matrix would give a number, smaller ones
    # numpy's broadcast error; either way both sizes are named first
    a = random_band(40, 3, 3, seed=17, diag_shift=3.0)
    g = invert_lower_band_qr(random_band(n_gens, 3, 3, seed=17, diag_shift=3.0))
    with pytest.raises(ValueError, match=f"matrix n=40, generators n={n_gens}"):
        identity_residual(a, g)


def three_array_error(b, reference, r):
    """covered_relative_error through whole-matrix copies of both covered
    parts and their difference."""
    cov_b, cov_ref = np.tril(b, r - 1), np.tril(reference, r - 1)
    return float(np.linalg.norm(cov_b - cov_ref) / np.linalg.norm(cov_ref))


def diagonal_residual(a, g):
    """identity_residual through the whole n x n product A @ B, accumulated
    one diagonal of A at a time."""
    b = reconstruct_structured(g)
    n = a.n
    prod = np.zeros((n, n))
    for off in range(-a.r_upper, a.r_lower + 1):
        idx = np.arange(max(0, -off), min(n, n - off))
        prod[idx + off] += a.bands[a.r_upper + off, idx, None] * b[idx]
    return float(np.abs(np.tril(prod, -1)).max() / (a.norm_inf() * np.linalg.norm(b, np.inf)))


@pytest.mark.parametrize(
    "n, r",
    [(7, 1), (100, 3), (300, 299), (1000, 6), (130, ROWS), (ROWS, 1), (ROWS + 1, 2), (2 * ROWS, ROWS - 1), (5, 9)],
)
@pytest.mark.parametrize("noise", [1e-12, 1.0])
def test_covered_error_by_row_blocks_matches_whole_matrix_copies(n, r, noise):
    # r = 1 and r = n - 1 (covered region: everything but the top-right
    # corner), row counts at a block boundary, and r > n (everything)
    rng = np.random.Generator(np.random.PCG64(n + r))
    reference = rng.standard_normal((n, n))
    b = reference + noise * rng.standard_normal((n, n))
    assert covered_relative_error(b, reference, r) == pytest.approx(
        three_array_error(b, reference, r), rel=1e-14
    )


def non_finite_case(case):
    """(b, reference) whose covered parts hold values near overflow, inf or
    nan at a cell of the second row block; one case puts inf above the
    covered region, where neither formula reads it."""
    n, at = 2 * ROWS + 3, (ROWS + 2, 4)
    rng = np.random.Generator(np.random.PCG64(7))
    reference = rng.standard_normal((n, n))
    b = reference + 1e-3
    cells = {
        "huge in b": [(b, 1e200)],
        "huge in both": [(b, 1e200), (reference, 1e200)],
        "huge in reference": [(reference, 1e200)],
        "inf in b": [(b, np.inf)],
        "inf in both": [(b, np.inf), (reference, np.inf)],
        "nan in reference": [(reference, np.nan)],
        "inf above the covered region": [(b, np.inf), (reference, -np.inf)],
    }[case]
    for arr, val in cells:
        arr[(0, n - 1) if case.endswith("region") else at] = val
    return b, reference


@pytest.mark.parametrize(
    "case",
    ["huge in b", "huge in both", "huge in reference", "inf in b", "inf in both",
     "nan in reference", "inf above the covered region"],
)
def test_covered_error_keeps_inf_and_nan_of_whole_matrix_copies(case):
    b, reference = non_finite_case(case)
    results = []
    for error in (covered_relative_error, three_array_error):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = error(b, reference, 3)
        results.append((value, {str(w.message) for w in caught}))
    (got, got_warned), (want, want_warned) = results
    # np.linalg.norm's dot reports an overflowing square only when BLAS's
    # calling thread computes it; the row blocks silence that warning
    assert got_warned == want_warned - {"overflow encountered in dot"}
    if np.isfinite(want) and want != 0.0:
        assert got == pytest.approx(want, rel=1e-14)
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "n, r, r_upper",
    [(40, 3, 0), (70, 4, 2), (80, 3, 3), (ROWS + 1, 2, ROWS), (150, 3, 149), (4, 3, 3), (4, 3, 0)],
)
@pytest.mark.parametrize("method", ["qr", "lu"])
def test_identity_residual_by_row_blocks_matches_the_whole_product(n, r, r_upper, method):
    # r_u = 0, r_u < r_l, r_u = r_l, a full upper part and n = r + 1: the
    # blocks add the same products in the same order, so the bytes match
    a = instance(n, r, r_upper, seed=n + r_upper, scale=1.0)
    g = inverse_of(a, method)
    assert identity_residual(a, g) == diagonal_residual(a, g)
    bad = GreenGenerators(g.n, g.r, g.p * 1.01, g.q, g.a, g.p_last)
    assert identity_residual(a, bad) == diagonal_residual(a, bad)


def test_dense_checks_hold_o_rows_n_temporaries():
    # n = 600 with a full upper part: the covered error needs no n x n array
    # at all, the residual none besides the reconstruction it expands
    n, r = 600, 6
    a = random_band(n, r, n - 1, seed=3, diag_shift=6.0)
    g = invert_lower_band_qr(a)
    image = reconstruct_structured(g)
    blocks = 4 * ROWS * n * 8
    assert blocks < n * n * 8 / 2
    assert traced_peak(covered_relative_error, image, dense_invert(a.to_dense()), r) <= blocks
    assert traced_peak(identity_residual, a, g) <= n * n * 8 + blocks


def test_generator_file_round_trip(tmp_path, monkeypatch):
    # one read scans each of the four arrays for a non-finite entry once
    g = random_generators(9, 3, seed=18)
    path = tmp_path / "g.json"
    write_generators(path, g)
    scanned = []
    all_finite = banded_module.all_finite
    monkeypatch.setattr(banded_module, "all_finite", lambda arr: scanned.append(arr.size) or all_finite(arr))
    h = read_generators(path)
    assert sorted(scanned) == sorted([6 * 3, 6 * 3, 6 * 9, 9])
    assert h.n == g.n and h.r == g.r
    np.testing.assert_array_equal(h.p, g.p)
    np.testing.assert_array_equal(h.q, g.q)
    np.testing.assert_array_equal(h.a, g.a)
    np.testing.assert_array_equal(h.p_last, g.p_last)
    for field in ("a", "p_last"):
        data = json.loads(path.read_text())
        row = data[field][0] if field == "a" else data[field]
        row[0] = float("nan")
        bad = tmp_path / f"{field}.json"
        bad.write_text(json.dumps(data))
        message = f"{bad}: malformed generator file: {field} entries must be finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_generators(bad)


def test_generator_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    texts = ['{"n": 5, "r": 2, "p": [[1.0]]}']
    # a non-integral or boolean n or r, with arrays sized for its integer part
    for n, r, field, bad in [(5, 2, '"n": 5', '"n": 5.5'), (5, 2, '"r": 2', '"r": 2.5'),
                             (5, 2, '"n": 5', '"n": true'), (2, 1, '"r": 1', '"r": true')]:
        write_generators(path, random_generators(n, r, seed=n + r))
        texts.append(path.read_text().replace(field, bad, 1))
    # a file cut short, which the json parser itself rejects
    write_generators(path, random_generators(5, 2, seed=7))
    text = path.read_text()
    texts.append(text[: len(text) // 2])
    # sizes that no generators have, with arrays that reshape to them
    texts.append('{"n": 3, "r": 0, "p": [[], [], []], "q": [[], [], []], "a": [[], [], []], "p_last": []}')
    texts.append('{"n": 2, "r": 2, "p": [], "q": [], "a": [], "p_last": [1, 0, 0, 1]}')
    # a NaN or Infinity entry, which the json parser accepts, in each field
    g = random_generators(5, 2, seed=8)
    for field in ("p", "q", "a", "p_last"):
        for bad in ("NaN", "Infinity", "-Infinity"):
            arrays = {name: np.array(getattr(g, name)) for name in ("p", "q", "a", "p_last")}
            arrays[field].flat[-1] = 12345.5
            write_generators(path, GreenGenerators(5, 2, **arrays))
            texts.append(path.read_text().replace("12345.5", bad))
    for text in texts:
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed generator file")):
            read_generators(path)


@pytest.mark.parametrize("method", ["qr", "lu"])
@pytest.mark.parametrize("r_upper", [3, 59])
def test_inversion_allocates_no_block_array(method, r_upper):
    # the inversion allocates no (n - r, r, r) array at all, as its
    # generators keep the blocks a as (u, w): with r = 48 one such array is
    # more than twice the inversion's traced peak
    import tracemalloc

    import greenband.lu as lu_module
    import greenband.qr as qr_module

    module = {"qr": qr_module, "lu": lu_module}[method]
    n, r = 240, 48
    a = random_band(n, r, r_upper, seed=4, diag_shift=1.0 + r + r_upper)
    invert = getattr(module, f"invert_lower_band_{method}")
    invert(a)  # first-call costs
    tracemalloc.start()
    try:
        invert(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (n - r) * r * r * 8
    g = invert(a)
    ref = dense_invert(a.to_dense())
    assert covered_relative_error(reconstruct_structured(g), ref, r) <= 1e-12


def per_block_entry(g, i, j):
    """``entry`` as a chain of vector-block products, one block at a time."""
    n, r = g.n, g.r
    bi = min(i, n - r) + 1
    vec = g.p_row(i)
    if j < r:
        for t in range(bi - 2, -1, -1):
            vec = vec @ g.a[t]
        return float(vec[j])
    s = j - r + 2
    for t in range(bi - 2, s - 2, -1):
        vec = vec @ g.a[t]
    return float(vec @ g.q[s - 2])


def per_column_image(g):
    """``reconstruct_structured`` as one tail-stack update per block column."""
    n, r = g.n, g.r
    out = np.zeros((n, n))
    stack = np.zeros((n, r))
    stack[n - r :] = g.p_last
    out[n - r :, n - 1] = stack[n - r :] @ g.q[n - r - 1]
    for k in range(n - r, 0, -1):
        stack[k:] = stack[k:] @ g.a[k - 1]
        stack[k - 1] = g.p[k - 1]
        if k >= 2:
            out[k - 1 :, r + k - 2] = stack[k - 1 :] @ g.q[k - 2]
        else:
            out[:, :r] = stack
    return out


def per_value_write(path, g):
    """``write_generators`` with one ``format(x, ".17g")`` per value."""
    m, r = g.n - g.r, g.r

    def row(vals):
        return "[" + ", ".join(format(float(v), ".17g") for v in vals) + "]"

    def rows(mat):
        return "[" + ", ".join(row(v) for v in mat) + "]"

    with open(path, "w") as fh:
        fh.write(f'{{\n  "n": {g.n},\n  "r": {r},\n')
        fh.write(f'  "p": {rows(g.p)},\n  "q": {rows(g.q)},\n')
        fh.write(f'  "a": {rows(g.a.reshape(m, r * r))},\n')
        fh.write(f'  "p_last": {row(g.p_last.reshape(r * r))}\n}}\n')


def inverse_of(a, method):
    return {"qr": invert_lower_band_qr, "lu": invert_lower_band_lu}[method](a)


def column_scales(a, cols):
    """Largest |B[k, j]| of each column j of B = A^{-1}, from LAPACK's banded
    solver."""
    rhs = np.zeros((a.n, len(cols)))
    rhs[cols, np.arange(len(cols))] = 1.0
    x = scipy.linalg.solve_banded((a.r_lower, a.r_upper), a.bands, rhs)
    return np.abs(x).max(axis=0)


def chain_positions(n, r, d):
    """Covered positions whose ``entry`` chain has d blocks: one with a
    column q(s-1), one in block column 0 (the chain down to a(1)) and one in
    the bottom r rows (from p_last)."""
    positions = [(d + 2, r + 1), (d, 0), (n - 1, n - 1 - d)]
    for i, j in positions:
        assert j - i <= r - 1 and min(i, n - r) - max(j - r + 1, 0) == d
    return positions


def assert_entries_agree(g, a, positions):
    scales = column_scales(a, [j for _, j in positions])
    for (i, j), scale in zip(positions, scales):
        assert abs(entry(g, i, j) - per_block_entry(g, i, j)) <= 1e-12 * scale, (i, j)


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("method", ["qr", "lu"])
@pytest.mark.parametrize("r", [1, 5])
def test_entry_matches_per_block_chain_around_the_tree_crossover(r, method, scale):
    # chain lengths on both sides of TREE, odd ones at several halvings
    n = 3 * TREE + 2 * r + 8
    a = instance(n, r, r, 40 + r, scale)
    g = inverse_of(a, method)
    lengths = [TREE - 1, TREE, TREE + 1, 2 * TREE - 1, 3 * TREE + 1, 5]
    assert_entries_agree(g, a, [pos for d in lengths for pos in chain_positions(n, r, d)])


@pytest.mark.parametrize("method", ["qr", "lu"])
def test_entry_tree_on_a_slowly_decaying_inverse(method):
    # tridiagonal (-1, 2 + 1e-5, -1): far entries decay by about
    # exp(-0.0032 d), so at d = 2000 they are still 1e-5 of their column's
    # largest entry or more, far from underflow, and the two products must
    # agree there too
    n = 2400
    bands = np.empty((3, n))
    bands[0], bands[1], bands[2] = -1.0, 2.0 + 1e-5, -1.0
    bands[0, 0] = bands[2, -1] = 0.0
    a = BandedMatrix(n, 1, 1, bands)
    g = inverse_of(a, method)
    positions = [pos for d in (TREE, 501, 1200, 2001) for pos in chain_positions(n, 1, d)]
    scales = column_scales(a, [j for _, j in positions])
    far = [abs(per_block_entry(g, i, j)) / s for (i, j), s in zip(positions, scales)]
    assert min(far) > 1e-6
    assert_entries_agree(g, a, positions)


def test_entry_falls_back_to_the_chain_when_the_block_product_overflows():
    # lower triangular blocks with entries of 1e10, not bounded by 1 as LU's
    # blocks need not be: the second row of a product of 2 TREE of them
    # overflows, but p picks the first row, which stays [1, 0]
    n, r = 2 * TREE + 10, 2
    m = n - r
    a = np.tile(np.array([[1.0, 0.0], [1e10, 1.0]]), (m, 1, 1))
    a[:, 1, 1] = 1e10
    p = np.tile([1.0, 0.0], (m, 1))
    q = np.tile([0.5, 0.25], (m, 1))
    g = GreenGenerators(n, r, p, q, a, np.eye(r))
    for i, j in [(2 * TREE + 3, r + 1), (2 * TREE, 0)]:
        with np.errstate(over="ignore", invalid="ignore"):
            product = np.linalg.multi_dot(list(g.a[: 2 * TREE]))
        assert not np.all(np.isfinite(product))
        assert entry(g, i, j) == per_block_entry(g, i, j) == {0: 1.0}.get(j, 0.5)


def test_entry_keeps_the_chain_for_wide_blocks():
    # past TREE_MAX_R a pairwise product costs more than the call it saves
    n, r = TREE + 2 * (TREE_MAX_R + 1) + 4, TREE_MAX_R + 1
    g = random_generators(n, r, seed=44)
    for i, j in chain_positions(n, r, TREE + 1):
        assert entry(g, i, j) == per_block_entry(g, i, j)


def image_sizes(r):
    # block columns 2..n-r in panels of IMAGE_PANEL, and the image's n - r
    # upper rows in panels of IMAGE_PANEL: one row, a single short panel,
    # exact multiples and short last panels of one row and of other lengths
    full = r + 1 + 2 * IMAGE_PANEL
    b = IMAGE_PANEL
    return sorted({r + 1, r + 2, r + 1 + b // 2, full - 1, full, full + 1, full + 37,
                   b - 1, r + b, r + b + 1, r + 2 * b, r + 2 * b + 17, r + 3 * b - 1})


@pytest.mark.parametrize("source", ["qr", "lu", "random"])
@pytest.mark.parametrize("r", [1, 3, 4])
def test_reconstruct_matches_per_column_image(r, source):
    # inverses of bands scaled far from 1 too: the rows' heads carry the
    # chains a ... q, the per-column image the tail stacks p a ... a
    scales = [1.0] if source == "random" else [1.0, 1e150, 1e-150]
    for n in image_sizes(r):
        for scale in scales:
            if source == "random":
                g = random_generators(n, r, seed=n)
            else:
                g = inverse_of(instance(n, r, r, n, scale), source)
            want = per_column_image(g)
            got = reconstruct_structured(g)
            assert got.shape == (n, n) and got.flags.c_contiguous
            assert np.all(np.triu(got, r) == 0.0)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (n, scale)


def bidiagonal(n, diag, sub):
    bands = np.zeros((2, n))
    bands[0], bands[1, :-1] = diag, sub
    return BandedMatrix(n, 1, 0, bands)


def assert_same_entries(got, want):
    # entry by entry, for r = 1: the same non-finite cells, and each normal
    # one, a product of at most n numbers, to n roundings
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    normal = np.isfinite(want) & (np.abs(want) >= np.finfo(float).tiny)
    got, want = got[normal], want[normal]
    assert np.all(np.abs(got - want) <= len(normal) * np.finfo(float).eps * np.abs(want))


@pytest.mark.parametrize(
    "diag, sub, methods",
    # p = 1e-150 and a = 2: heads past 2^1024, entries up to 1e-150 2^1098;
    # p = 1e150 and a = 1/2: heads below 2^-1074, entries down to 1e150 2^-1098
    [(1e150, -2e150, ["lu"]), (1e-150, -0.5e-150, ["lu", "qr"])],
)
def test_reconstruct_long_chains_of_growing_and_shrinking_blocks(monkeypatch, diag, sub, methods):
    n = 1100
    monkeypatch.setattr(generators, "_column_image", None)  # the panels alone
    for method in methods:
        g = inverse_of(bidiagonal(n, diag, sub), method)
        assert_same_entries(reconstruct_structured(g), per_column_image(g))


def test_reconstruct_rebuilds_an_overflowing_image_by_columns():
    # p = 1 and a = 2: B[k, j] = 2^(k - j) overflows from k - j = 1024 on, and
    # the heads, scaled to each panel's largest row, overflow in the panels'
    # upper rows a little before the image does
    g = inverse_of(bidiagonal(1100, 1.0, -2.0), "lu")
    with np.errstate(over="ignore", invalid="ignore"):
        got = reconstruct_structured(g)
        want = per_column_image(g)
    assert not np.isfinite(want).all() and np.all(np.triu(got, 1) == 0.0)
    assert_same_entries(got, want)


@pytest.mark.parametrize("r", [1, 4])
def test_reconstruct_writes_every_cell(monkeypatch, r):
    # the result comes from np.empty: with every np.empty array filled with
    # NaN, a cell the panels do not write would show
    empty = np.empty

    def poisoned(*args, **kwargs):
        arr = empty(*args, **kwargs)
        arr.fill(np.nan)
        return arr

    for n in image_sizes(r):
        g = random_generators(n, r, seed=n)
        want = per_column_image(g)
        with monkeypatch.context() as patch:
            patch.setattr(np, "empty", poisoned)
            got = reconstruct_structured(g)
        assert np.all(np.triu(got, r) == 0.0)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), n


@pytest.mark.parametrize("r", [3, 16])
def test_reconstruct_holds_no_second_image(r):
    # besides its n x n result only the panels' walks, O(n (r + IMAGE_PANEL))
    n = 600
    g = random_generators(n, r, seed=r)
    assert traced_peak(reconstruct_structured, g) <= 8 * n * n + 16 * n * (r + IMAGE_PANEL)


def test_generator_file_matches_per_value_format(tmp_path):
    # more than one chunk of rows for p, q and a; values whose text is easy
    # to get wrong: signed zero, the smallest subnormal, the largest finite
    # values and integral values
    r = 2
    n = 2 * TEXT_CHUNK // r + r + 3
    g = random_generators(n, r, seed=45)
    special = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               3.0, -7.0, 1e16, 2.0**60, 0.1]
    arrays = {f: getattr(g, f).copy() for f in ("p", "q", "a", "p_last")}
    for t, field in enumerate(arrays):
        flat = arrays[field].reshape(-1)
        for k in range(0, flat.size, max(1, flat.size // 40)):
            flat[k] = special[(k + t) % len(special)]
    g = GreenGenerators(n, r, **arrays)
    path, want = tmp_path / "g.json", tmp_path / "want.json"
    write_generators(path, g)
    per_value_write(want, g)
    assert path.read_bytes() == want.read_bytes()
    h = read_generators(path)
    for field, arr in arrays.items():
        assert getattr(h, field).tobytes() == arr.tobytes()


@pytest.mark.parametrize("at", ["first", "chunk start", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entries_are_found_in_every_chunk(bad, at):
    n, r = CHUNK // 16 + 12, 4
    arrays = {"p": np.ones((n - r, r)), "q": np.ones((n - r, r)),
              "a": np.ones((n - r, r, r)), "p_last": np.ones((r, r))}
    assert arrays["a"].size > CHUNK + 1
    arrays["a"].flat[{"first": 0, "chunk start": CHUNK, "last": -1}[at]] = bad
    with pytest.raises(ValueError, match="finite"):
        GreenGenerators(n, r, **arrays)
