import numpy as np
import pytest
import scipy.linalg

from conftest import traced_peak
from greenband import (
    SingularMatrixError,
    dense_invert,
    numerical_rank,
    random_band,
)
from greenband.dense_oracle import ROWS, norm_inf

EPS = np.finfo(float).eps


def test_invert_identity():
    np.testing.assert_array_equal(dense_invert(np.eye(4)), np.eye(4))


def test_invert_diagonal():
    np.testing.assert_allclose(
        dense_invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), rtol=0, atol=0
    )


def test_invert_unit_lower_bidiagonal():
    n = 5
    a = np.eye(n) + np.diag(np.ones(n - 1), -1)
    inv = dense_invert(a)
    ii, jj = np.indices((n, n))
    expected = np.where(ii >= jj, (-1.0) ** (ii - jj), 0.0)
    np.testing.assert_allclose(inv, expected, atol=1e-14)


def test_invert_singular_signals():
    a = np.eye(4)
    a[2] = 0.0
    with pytest.raises(SingularMatrixError):
        dense_invert(a)


@pytest.mark.parametrize("n,seed", [(50, 0), (120, 1), (200, 2)])
def test_invert_residual_bound(n, seed):
    a = random_band(n, 5, n - 1, seed, diag_shift=5.0).to_dense()
    x = dense_invert(a)
    kappa = np.linalg.cond(a, 2)
    assert np.linalg.norm(a @ x - np.eye(n), 2) <= 100 * EPS * kappa * n


@pytest.mark.parametrize("n", [5, 100, 777])
def test_invert_is_lu_solve_on_the_identity(n):
    # the identity that the solve overwrites in LAPACK's order gives the
    # bytes of lu_solve on a plain C-ordered identity
    a = random_band(n, min(5, n - 1), n - 1, n, diag_shift=5.0).to_dense()
    want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), np.eye(n))
    assert dense_invert(a).tobytes(order="A") == want.tobytes(order="A")


@pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 5])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_norm_inf_keeps_the_row_sums_of_numpy(n, layout):
    rng = np.random.Generator(np.random.PCG64(n))
    m = rng.standard_normal((n, 2 * n)) * rng.uniform(0.0, 1e3, (n, 1))
    m = {"C": m[:, :n], "F": np.asfortranarray(m[:, :n]), "strided": m[:, ::2]}[layout]
    assert norm_inf(m) == np.linalg.norm(m, np.inf)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, ROWS + 3])
def test_norm_inf_of_non_finite_entries(bad, row):
    m = np.ones((2 * ROWS, 2 * ROWS))
    m[row, 5] = bad
    np.testing.assert_array_equal(norm_inf(m), np.linalg.norm(m, np.inf))


def test_invert_holds_only_the_lu_factors_besides_its_result():
    n = 600
    a = random_band(n, 6, n - 1, seed=4, diag_shift=6.0).to_dense()
    assert traced_peak(dense_invert, a) <= 2 * n * n * 8 + 4 * ROWS * n * 8


def test_rank_zero_matrix():
    assert numerical_rank(np.zeros((5, 3)), 1e-8) == 0


def test_rank_identity():
    assert numerical_rank(np.eye(4), 1e-8) == 4


def test_rank_outer_product():
    rng = np.random.Generator(np.random.PCG64(6))
    m = np.outer(rng.random(6), rng.random(6))
    assert numerical_rank(m, 1e-8) == 1


def test_rank_requires_positive_tol():
    with pytest.raises(ValueError):
        numerical_rank(np.eye(2), 0.0)
    # and a matrix
    with pytest.raises(ValueError, match="input must be a matrix"):
        numerical_rank(np.ones(3), 1e-8)


def test_rank_of_inverse_submatrices_is_low():
    # submatrices B[k:, :k+r] of the inverse of a lower banded matrix have
    # rank <= r even though B is dense
    r = 3
    a = random_band(20, r, 19, seed=3, diag_shift=3.0)
    b = dense_invert(a.to_dense())
    for k in range(20 - r):
        assert numerical_rank(b[k:, : k + r], 1e-8) <= r
