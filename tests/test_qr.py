import numpy as np
import pytest

from greenband import (
    BandedMatrix,
    SingularMatrixError,
    covered_relative_error,
    dense_invert,
    identity_residual,
    invert_lower_band_qr,
    invert_two_sided_qr,
    prescribed_condition_band,
    qr_factor_lower_band,
    random_band,
    reconstruct_structured,
)

EPS = np.finfo(float).eps


def covered_part(dense, r):
    return np.tril(dense, r - 1)


def test_factor_identity():
    n, r = 6, 1
    fact = qr_factor_lower_band(BandedMatrix.from_dense(np.eye(n), r, n - 1))
    assert np.allclose(np.abs(fact.x), 1.0)
    for u in fact.inverse_product().factors:
        np.testing.assert_allclose(np.abs(u), np.eye(r + 1), atol=1e-15)
    for row in fact.rows:
        assert np.all(row == 0.0)


def test_factor_lower_bidiagonal_against_dense_qr():
    n = 4
    a = np.eye(n) + np.diag(np.ones(n - 1), -1)
    fact = qr_factor_lower_band(BandedMatrix.from_dense(a, 1, n - 1))
    assert abs(fact.x[0]) == pytest.approx(np.sqrt(2.0))
    r_dense = fact.r_dense()
    _, r_ref = np.linalg.qr(a)
    # both are upper triangular QR factors, unique up to row signs
    signs = np.sign(np.diagonal(r_dense)) * np.sign(np.diagonal(r_ref))
    np.testing.assert_allclose(r_dense, signs[:, None] * r_ref, atol=1e-14)


def test_factor_residual_and_unitarity():
    a = random_band(30, 4, 29, seed=1, diag_shift=0.0)
    fact = qr_factor_lower_band(a)
    u, r_mat = fact.u_dense(), fact.r_dense()
    dense = a.to_dense()
    assert np.linalg.norm(dense - u @ r_mat) <= 1e-13 * np.linalg.norm(dense)
    assert np.linalg.norm(u.T @ u - np.eye(30)) <= 1e-13
    assert np.all(np.tril(r_mat, -1) == 0.0)


def test_factor_residual_bound_sweep():
    for n, r, seed in [(12, 1, 4), (25, 3, 5), (60, 5, 6)]:
        a = random_band(n, r, n - 1, seed, diag_shift=1.0)
        fact = qr_factor_lower_band(a)
        dense = a.to_dense()
        res = np.linalg.norm(dense - fact.u_dense() @ fact.r_dense(), "fro")
        assert res <= 50 * EPS * n * np.linalg.norm(dense, "fro")


@pytest.mark.parametrize("r_upper, width", [(0, 4), (2, 6), (32, 36), (59, 59)])
def test_window_follows_upper_bandwidth(r_upper, width):
    # R has upper bandwidth r_lower + r_upper, clipped at the matrix edge
    a = random_band(60, 4, r_upper, seed=13, diag_shift=4.0)
    fact = qr_factor_lower_band(a)
    assert fact.width == width
    assert max(row.size for row in fact.rows) == width
    dense = a.to_dense()
    assert np.linalg.norm(dense - fact.u_dense() @ fact.r_dense()) <= 1e-13 * np.linalg.norm(dense)


def test_invert_identity():
    n, r = 6, 2
    g = invert_lower_band_qr(BandedMatrix.from_dense(np.eye(n), r, n - 1))
    np.testing.assert_allclose(reconstruct_structured(g), covered_part(np.eye(n), r),
                               atol=1e-14)


def test_invert_scaled_identity():
    n, r = 6, 2
    g = invert_lower_band_qr(BandedMatrix.from_dense(2.0 * np.eye(n), r, n - 1))
    np.testing.assert_allclose(reconstruct_structured(g), 0.5 * np.eye(n), atol=1e-14)


def test_invert_random_lower_band():
    a = random_band(50, 5, 49, seed=7, diag_shift=5.0)
    g = invert_lower_band_qr(a)
    err = covered_relative_error(reconstruct_structured(g), dense_invert(a.to_dense()), 5)
    assert err <= 1e-12


def test_invert_two_sided_discrete_laplacian():
    n = 10
    dense = 2.0 * np.eye(n) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
    a = BandedMatrix.from_dense(dense, 1, 1)
    g = invert_two_sided_qr(a)
    # explicit inverse: (T^-1)_{ij} = min(i,j) (n+1-max(i,j)) / (n+1), 1-based
    ii, jj = np.indices((n, n)) + 1
    explicit = np.minimum(ii, jj) * (n + 1 - np.maximum(ii, jj)) / (n + 1)
    np.testing.assert_allclose(reconstruct_structured(g), covered_part(explicit, 1),
                               rtol=1e-12, atol=1e-13)
    assert covered_relative_error(
        reconstruct_structured(g), dense_invert(dense), 1
    ) <= 1e-12


def test_invert_two_sided_identity():
    n, r = 9, 3
    g = invert_two_sided_qr(BandedMatrix.from_dense(np.eye(n), r, r))
    np.testing.assert_allclose(reconstruct_structured(g), covered_part(np.eye(n), r),
                               atol=1e-14)


def test_two_sided_rejects_wide_upper_band():
    a = random_band(12, 2, 4, seed=8)
    with pytest.raises(ValueError):
        invert_two_sided_qr(a)


@pytest.mark.parametrize("n,r,seed", [(20, 1, 0), (33, 2, 1), (47, 4, 2), (60, 5, 3)])
def test_one_and_two_sided_agree(n, r, seed):
    # the same matrix declared with a full upper part runs the full-row window
    a = random_band(n, r, r, seed, diag_shift=r)
    full = BandedMatrix.from_dense(a.to_dense(), r, n - 1)
    b1 = reconstruct_structured(invert_lower_band_qr(full))
    b2 = reconstruct_structured(invert_two_sided_qr(a))
    assert np.linalg.norm(b1 - b2) <= 1e-12 * np.linalg.norm(b1)


@pytest.mark.parametrize("two_sided", [False, True])
def test_right_normal_form(two_sided):
    n, r = 40, 3
    a = random_band(n, r, r if two_sided else n - 1, seed=9, diag_shift=r)
    g = invert_two_sided_qr(a) if two_sided else invert_lower_band_qr(a)
    for k in range(1, n - r):  # 1-based k = 2..n-r
        resid = g.a[k] @ g.a[k].T + np.outer(g.q[k], g.q[k]) - np.eye(r)
        assert np.linalg.norm(resid, "fro") <= 1e-13


def test_forward_error_tracks_conditioning():
    a = random_band(40, 3, 3, seed=10, diag_shift=3.0)
    dense = a.to_dense()
    err = covered_relative_error(
        reconstruct_structured(invert_two_sided_qr(a)), dense_invert(dense), 3
    )
    assert err <= 100 * EPS * np.linalg.cond(dense, 2)


@pytest.mark.parametrize("c", range(1, 9))
def test_error_tracks_prescribed_condition_on_wide_panels(c):
    # acceptance criterion 7's bound and rule (no rejection) at n = 300,
    # where the right blocks of the first seven panels are wider than
    # 2 (PANEL + r) columns and take the explicit transform; criterion 7 runs
    # n = 100, where no panel does.  Each instance, not the mean, is bounded
    n, r = 300, 5
    for seed in range(3):
        a = prescribed_condition_band(n, r, 10.0**c, 1000 * c + seed)
        ref = dense_invert(a.to_dense())
        err = covered_relative_error(reconstruct_structured(invert_lower_band_qr(a)), ref, r)
        assert err <= 100 * EPS * 10.0**c, (seed, err)


def test_product_identity_residual_without_oracle():
    a = random_band(60, 4, 4, seed=11, diag_shift=4.0)
    assert identity_residual(a, invert_two_sided_qr(a)) <= 1e-11


def test_singular_input_names_pivot():
    dense = random_band(8, 2, 7, seed=12, diag_shift=2.0).to_dense()
    dense[4, :] = 0.0
    a = BandedMatrix.from_dense(dense, 2, 7)
    with pytest.raises(SingularMatrixError) as info:
        invert_lower_band_qr(a)
    assert info.value.pivot_index is not None
    assert 1 <= info.value.pivot_index <= 8
