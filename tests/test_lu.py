import numpy as np
import pytest

from greenband import (
    BandedMatrix,
    ZeroPivotError,
    covered_relative_error,
    dense_invert,
    elementary_factors_from_entrywise,
    expand_transform_product,
    invert_lower_band_lu,
    invert_lower_band_qr,
    invert_two_sided_lu,
    lu_factor_lower_band,
    random_band,
    reconstruct_structured,
)
from greenband.bench import instability_matrix


def dense_unpivoted_lu(a):
    """Reference elimination without pivoting, row by row."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    low = np.eye(n)
    for k in range(n - 1):
        low[k + 1 :, k] = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k:] -= np.outer(low[k + 1 :, k], a[k, k:])
        a[k + 1 :, k] = 0.0
    return low, a


def test_factor_identity():
    n, r = 7, 2
    fact = lu_factor_lower_band(BandedMatrix.from_dense(np.eye(n), r, n - 1))
    assert np.all(fact.f == 0.0)
    np.testing.assert_array_equal(fact.x, np.ones(n))
    np.testing.assert_array_equal(fact.r_dense(), np.eye(n))
    np.testing.assert_array_equal(fact.l_dense(), np.eye(n))


def test_factor_bidiagonal_matches_dense_elimination():
    n = 5
    dense = 2.0 * np.eye(n) + np.diag(np.ones(n - 1), -1)
    fact = lu_factor_lower_band(BandedMatrix.from_dense(dense, 1, n - 1))
    low_ref, up_ref = dense_unpivoted_lu(dense)
    np.testing.assert_allclose(fact.l_dense(), low_ref, atol=1e-15)
    np.testing.assert_allclose(fact.r_dense(), up_ref, atol=1e-15)
    np.testing.assert_allclose(fact.f[: n - 1, 0], low_ref[np.arange(1, n), np.arange(n - 1)])


def test_factor_residual():
    a = random_band(30, 4, 29, seed=1, diag_shift=4.0)
    fact = lu_factor_lower_band(a)
    dense = a.to_dense()
    res = np.linalg.norm(dense - fact.l_dense() @ fact.r_dense(), "fro")
    assert res <= 1e-13 * np.linalg.norm(dense, "fro")
    assert np.all(np.tril(fact.l_dense(), -(4 + 1)) == 0.0)  # L keeps bandwidth r


@pytest.mark.parametrize("r_upper, width", [(0, 4), (2, 4), (32, 32), (59, 59)])
def test_window_follows_upper_bandwidth(r_upper, width):
    # R has upper bandwidth r_upper; rows are stored max(r_lower, r_upper) wide
    a = random_band(60, 4, r_upper, seed=13, diag_shift=4.0)
    fact = lu_factor_lower_band(a)
    assert fact.width == width
    assert max(row.size for row in fact.rows) == width
    dense = a.to_dense()
    res = np.linalg.norm(dense - fact.l_dense() @ fact.r_dense(), "fro")
    assert res <= 1e-13 * np.linalg.norm(dense, "fro")


def test_inverse_factor_product():
    a = random_band(12, 2, 11, seed=2, diag_shift=2.0)
    fact = lu_factor_lower_band(a)
    low = fact.l_dense()
    prod = expand_transform_product(fact.inverse_product())
    assert np.linalg.norm(low @ prod - np.eye(12)) <= 1e-12


def test_invert_identity():
    n, r = 6, 2
    g = invert_lower_band_lu(BandedMatrix.from_dense(np.eye(n), r, n - 1))
    np.testing.assert_allclose(reconstruct_structured(g), np.tril(np.eye(n), r - 1),
                               atol=1e-15)


def test_invert_random_upper_plus_band():
    a = random_band(10, 2, 9, seed=3, diag_shift=2.0)
    g = invert_lower_band_lu(a)
    err = covered_relative_error(reconstruct_structured(g), dense_invert(a.to_dense()), 2)
    assert err <= 1e-12


def test_generator_blocks_have_exact_structure():
    # a(k) = [-f_k | e_1 .. e_{r-1}], q(k) = e_r: assembled, not computed
    r = 3
    a = random_band(14, r, 13, seed=4, diag_shift=3.0)
    g = invert_lower_band_lu(a)
    fact = lu_factor_lower_band(a)
    for k in range(14 - r):
        np.testing.assert_array_equal(g.a[k][:, 0], -fact.f[k])
        np.testing.assert_array_equal(g.a[k][: r - 1, 1:], np.eye(r - 1))
        assert np.all(g.a[k][r - 1, 1:] == 0.0)
        np.testing.assert_array_equal(g.q[k], np.eye(r)[:, r - 1])


@pytest.mark.parametrize("r_upper", [0, 3, 5, 29])
def test_generator_rows_are_rows_of_the_inverse(r_upper):
    # c(k) = e_1 and a(k) = [-f_k | shift] make p(k) = B[k, k:k+r], the
    # diagonal and first r-1 superdiagonals of B = A^{-1}: a direct oracle
    # check of the backward recursion
    n, r = 30, 3
    a = random_band(n, r, r_upper, seed=5, diag_shift=4.0 + r_upper)
    g = invert_lower_band_lu(a)
    b = dense_invert(a.to_dense())
    rows = np.array([b[k, k : k + r] for k in range(n - r)])
    assert np.abs(g.p - rows).max() <= 1e-13 * np.abs(b).max()


def test_invert_two_sided_tridiagonal():
    n = 12
    dense = 2.0 * np.eye(n) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
    a = BandedMatrix.from_dense(dense, 1, 1)
    g = invert_two_sided_lu(a)
    err = covered_relative_error(reconstruct_structured(g), dense_invert(dense), 1)
    assert err <= 1e-12


def test_invert_two_sided_scaled_identity():
    for r in (1, 2, 3):
        n = 9
        g = invert_two_sided_lu(BandedMatrix.from_dense(3.0 * np.eye(n), r, r))
        np.testing.assert_allclose(reconstruct_structured(g),
                                   np.tril(np.eye(n) / 3.0, r - 1), atol=1e-15)


@pytest.mark.parametrize("n,r,seed", [(20, 1, 0), (33, 2, 1), (47, 4, 2), (60, 5, 3)])
def test_one_and_two_sided_agree(n, r, seed):
    # the same matrix declared with a full upper part runs the full-row window
    a = random_band(n, r, r, seed, diag_shift=r)
    full = BandedMatrix.from_dense(a.to_dense(), r, n - 1)
    b1 = reconstruct_structured(invert_lower_band_lu(full))
    b2 = reconstruct_structured(invert_two_sided_lu(a))
    assert np.linalg.norm(b1 - b2) <= 1e-12 * np.linalg.norm(b1)


def test_qr_lu_cross_validation():
    for seed in range(3):
        a = random_band(40, 4, 4, seed=20 + seed, diag_shift=4.0)
        assert np.linalg.cond(a.to_dense(), 2) <= 1e3
        b_qr = reconstruct_structured(invert_lower_band_qr(a))
        b_lu = reconstruct_structured(invert_lower_band_lu(a))
        assert np.linalg.norm(b_qr - b_lu) <= 1e-10 * np.linalg.norm(b_qr)


def test_elementary_factors_identity_input():
    t = elementary_factors_from_entrywise(np.eye(8), 2)
    for f in t.factors:
        np.testing.assert_array_equal(f, np.eye(3))
    np.testing.assert_array_equal(t.last, np.eye(2))


@pytest.mark.parametrize("n,r,seed", [(12, 2, 5), (9, 1, 6), (15, 4, 7)])
def test_elementary_factors_invert_l(n, r, seed):
    a = random_band(n, r, n - 1, seed, diag_shift=r)
    low = lu_factor_lower_band(a).l_dense()
    prod = expand_transform_product(elementary_factors_from_entrywise(low, r))
    assert np.linalg.norm(prod @ low - np.eye(n)) <= 1e-12


def test_elementary_factors_validate_input():
    with pytest.raises(ValueError):
        elementary_factors_from_entrywise(np.triu(np.ones((6, 6))), 2)
    low = np.eye(6)
    low[5, 0] = 1.0  # below bandwidth 2
    with pytest.raises(ValueError):
        elementary_factors_from_entrywise(low, 2)
    scaled = np.eye(6)
    scaled[3, 3] = 2.0
    with pytest.raises(ValueError, match="input must have a unit diagonal"):
        elementary_factors_from_entrywise(scaled, 2)


def test_row_and_column_partitions_share_corner_entry():
    # the last multiplier of f_k and the first entry of g_k both read L(k+r, k)
    n, r = 14, 3
    a = random_band(n, r, n - 1, seed=8, diag_shift=3.0)
    fact = lu_factor_lower_band(a)
    low = fact.l_dense()
    for k1 in range(2, n - r):  # 1-based
        alpha = fact.f[k1 - 1][r - 1]
        beta = low[k1 + r - 1, k1 - 1]
        assert alpha == beta


def test_zero_pivot_signals_index():
    dense = np.eye(6)
    dense[1, 1] = 0.0
    dense[1, 2] = 1.0  # keep it invertible, but not strongly regular
    dense[2, 1] = 1.0
    a = BandedMatrix.from_dense(dense, 2, 5)
    with pytest.raises(ZeroPivotError) as info:
        invert_lower_band_lu(a)
    assert info.value.pivot_index == 2


def test_zero_pivot_in_two_sided_path():
    a = instability_matrix(0.0)
    two_sided = BandedMatrix.from_dense(np.tril(a.to_dense(), 2), 2, 2)
    with pytest.raises(ZeroPivotError) as info:
        invert_two_sided_lu(two_sided)
    assert info.value.pivot_index == 2


def test_growth_factor_monitors_instability():
    calm = lu_factor_lower_band(instability_matrix(1.0))
    wild = lu_factor_lower_band(instability_matrix(1e-8))
    assert wild.growth > 1e6 * calm.growth


def test_two_sided_factorization_matches_one_sided():
    a = random_band(25, 3, 3, seed=9, diag_shift=3.0)
    f1 = lu_factor_lower_band(BandedMatrix.from_dense(a.to_dense(), 3, 24))
    f2 = lu_factor_lower_band(a)
    np.testing.assert_allclose(f1.x, f2.x, rtol=1e-13)
    np.testing.assert_allclose(f1.l_dense(), f2.l_dense(), rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(f1.r_dense(), f2.r_dense(), rtol=1e-13, atol=1e-15)
