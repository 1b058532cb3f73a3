"""Dense reference computations used only to verify the structured algorithms.

Everything here is O(n^3) or worse and intended for desk-scale checks:
row-pivoted inversion and numerical rank by complete-pivoting elimination.

Working memory: besides its n x n result, ``dense_invert`` holds one n x n
array, the LU factors.  ``norm_inf`` here and the checks of ``generators``
(``covered_relative_error``, ``identity_residual``) go over dense n x n
arrays in blocks of ROWS rows, with O(ROWS n) numbers of temporaries.
"""

import warnings

import numpy as np
import scipy.linalg

from .banded import ROWS, all_finite, checked, singularity_tol
from .errors import SingularMatrixError

__all__ = ["dense_invert", "numerical_rank"]


def norm_inf(m):
    """||M||_inf, the largest absolute row sum of a 2-D array, taken over
    blocks of ROWS rows: the row sums of ``np.linalg.norm(m, np.inf)``,
    without its |M| the size of m."""
    return np.max([np.abs(m[i : i + ROWS]).sum(axis=1).max() for i in range(0, len(m), ROWS)])


def dense_invert(m):
    """Inverse of a square matrix by row-pivoted Gaussian elimination.

    Raises ValueError when M is not square or an entry is not finite, and
    SingularMatrixError when some elimination pivot falls below
    ``n * eps * ||M||_inf`` (singular to working precision).  Besides its
    n x n result it holds one n x n array, the LU factors (and a copy of M
    unless M is a C-contiguous float array): the solve overwrites an
    identity allocated in LAPACK's (Fortran) order.
    """
    n = len(m)
    m = checked(m, (n, n), "M")
    tol = singularity_tol(n, norm_inf(m))
    try:
        with warnings.catch_warnings():
            # exact singularity surfaces through the pivot check below
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"LU factorization failed: {exc}") from exc
    pivots = np.abs(np.diagonal(lu))
    if pivots.min() <= tol:
        k = int(pivots.argmin())
        raise SingularMatrixError(
            f"matrix is singular to working precision (pivot {k + 1})",
            pivot_index=k + 1,
        )
    eye = np.eye(n, order="F")
    return scipy.linalg.lu_solve((lu, piv), eye, overwrite_b=True, check_finite=False)


def numerical_rank(m, tol):
    """Numerical rank by Gaussian elimination with complete pivoting.

    Counts the pivots whose magnitude exceeds ``tol`` times the largest
    pivot.  Raises ValueError when M is not 2-D or an entry is not finite.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    work = np.array(m, dtype=float)
    if work.ndim != 2:
        raise ValueError("input must be a matrix")
    if not all_finite(work):
        raise ValueError("M entries must be finite")
    pivots = []
    for _ in range(min(work.shape)):
        i, j = np.unravel_index(np.argmax(np.abs(work)), work.shape)
        piv = work[i, j]
        if piv == 0.0:
            break
        pivots.append(abs(piv))
        work -= np.outer(work[:, j] / piv, work[i, :])
        work[i, :] = 0.0
        work[:, j] = 0.0
    if not pivots:
        return 0
    pivots = np.array(pivots)
    return int(np.count_nonzero(pivots > tol * pivots.max()))
