import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greenband import (
    BlockPartitionMap,
    GreenGenerators,
    check_green_rank,
    covered_relative_error,
    dense_invert,
    entry,
    identity_residual,
    invert_lower_band_qr,
    multiply_upper_triangular,
    random_band,
    read_generators,
    reconstruct_structured,
    tail_stacks,
    write_generators,
)
from conftest import random_generators
from greenband.generators import backward_recursion


def ones_generators(n, r=1):
    m = n - r
    return GreenGenerators(
        n, r, np.ones((m, r)), np.ones((m, r)), np.ones((m, r, r)), np.ones((r, r))
    )


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


def test_generator_file_round_trip(tmp_path):
    g = random_generators(9, 3, seed=18)
    path = tmp_path / "g.json"
    write_generators(path, g)
    h = read_generators(path)
    assert h.n == g.n and h.r == g.r
    np.testing.assert_array_equal(h.p, g.p)
    np.testing.assert_array_equal(h.q, g.q)
    np.testing.assert_array_equal(h.a, g.a)
    np.testing.assert_array_equal(h.p_last, g.p_last)


def test_generator_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 5, "r": 2, "p": [[1.0]]}')
    with pytest.raises(ValueError):
        read_generators(path)


def test_block_partition_sizes_sum_to_n():
    for n, r in [(5, 1), (9, 3), (12, 5)]:
        bp = BlockPartitionMap(n, r)
        assert bp.blocks == n - r + 2
        assert bp.row_sizes[0] == 0 and bp.row_sizes[-1] == r
        assert bp.col_sizes[0] == r and bp.col_sizes[-1] == 0
        assert bp.row_sizes.sum() == n and bp.col_sizes.sum() == n
        assert np.all(bp.row_sizes[1:-1] == 1) and np.all(bp.col_sizes[1:-1] == 1)


def test_block_partition_scalar_mapping():
    bp = BlockPartitionMap(10, 3)
    assert bp.block_row(0) == 1 and bp.block_row(6) == 7
    assert bp.block_row(7) == bp.block_row(9) == 8  # bottom rows share a block
    assert bp.block_col(0) == bp.block_col(2) == 0
    assert bp.block_col(3) == 1 and bp.block_col(9) == 7
    assert bp.row_range(8) == (7, 10)
    assert bp.col_range(0) == (0, 3)
    for i in range(10):
        for j in range(10):
            assert bp.covered(i, j) == (j - i <= 2)


@pytest.mark.parametrize("method", ["qr", "lu"])
@pytest.mark.parametrize("r_upper", [3, 59])
def test_inverse_generators_are_one_array_taken_first(monkeypatch, method, r_upper):
    # a loop of inversions reuses the space of freed generators only when the
    # new ones are one array, allocated before the factorization's working
    # arrays (see empty_generators)
    import greenband.lu as lu_module
    import greenband.qr as qr_module

    module = {"qr": qr_module, "lu": lu_module}[method]
    order = []
    for name in ("empty_generators", f"{method}_factor_lower_band"):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name: order.append(name) or fn(*args))
    a = random_band(60, 3, r_upper, seed=4, diag_shift=4.0 + r_upper)
    g = getattr(module, f"invert_lower_band_{method}")(a)
    assert order == ["empty_generators", f"{method}_factor_lower_band"]
    arrays = (g.p, g.q, g.a, g.p_last)
    assert len({id(x.base) for x in arrays}) == 1
    assert g.a.base.nbytes == sum(x.nbytes for x in arrays)
    ref = dense_invert(a.to_dense())
    assert covered_relative_error(reconstruct_structured(g), ref, 3) <= 1e-12
