"""Structured QR factorization of banded matrices and QR-based Green
generators of the inverse.

A lower banded matrix of order r factors as A = U R where U is an ascending
product of embedded (r+1) x (r+1) unitary blocks (one Householder reflection
per row) and R is upper triangular.  U* is then a descending product, hence a
lower Green, upper banded matrix whose generators are read off the transposed
blocks, and the generators of A^{-1} = R^{-1} U* follow from a backward
recursion over the rows of R.

R is upper banded of order r_lower + r_upper, so the working window, the
stored rows of R and the tail stacks all have that width, clipped at the
matrix edge: the inversion costs O(n r_lower (r_lower + r_upper)) arithmetic,
O(n r^2) for a two-sided band and O(n^2 r) for a full upper part
(r_upper = n - 1).
"""

import numpy as np

from .banded import singularity_tol
from .dense_oracle import householder_vector
from .errors import SingularMatrixError
from .generators import GreenGenerators, backward_recursion
from .transforms import TransformProduct, expand_transform_product

__all__ = [
    "QrFactorization",
    "qr_factor_lower_band",
    "invert_lower_band_qr",
    "invert_two_sided_qr",
]


class QrFactorization:
    """A = U R in factored form.

    ``factors`` holds the (r+1) x (r+1) unitary blocks U_k (k = 1..n-r,
    1-based), ``closing`` the shrinking blocks of sizes n-k+1 that triangulate
    the trailing r x r window (k = n-r+1..n-1), and ``closing_unitary`` their
    assembled r x r product.  ``x[k-1] = R(k, k)`` and ``rows[k-1]`` is
    R(k, k+1:k+width), the part of row k that can be nonzero, where ``width``
    = min(r_lower + r_upper, n - 1) is the upper bandwidth of R.
    """

    def __init__(self, n, r, factors, closing, closing_unitary, x, rows, width):
        self.n = n
        self.r = r
        self.factors = factors
        self.closing = closing
        self.closing_unitary = closing_unitary
        self.x = x
        self.rows = rows
        self.width = width

    def u_product(self):
        """U as an ascending TransformProduct of the stored blocks."""
        return TransformProduct(
            self.n, self.r, self.factors, self.closing_unitary, order="ascending"
        )

    def ustar_product(self):
        """U* as a descending TransformProduct (the Green factor)."""
        return TransformProduct(
            self.n,
            self.r,
            [f.T for f in self.factors],
            self.closing_unitary.T,
            order="descending",
        )

    def u_dense(self):
        return expand_transform_product(self.u_product())

    def r_dense(self):
        out = np.zeros((self.n, self.n))
        out[np.arange(self.n), np.arange(self.n)] = self.x
        for k0, row in enumerate(self.rows):
            out[k0, k0 + 1 : k0 + 1 + row.size] = row
        return out


def _reflect(v):
    """Materialized Householder block and its reflection data for v."""
    w, beta, x = householder_vector(v)
    u = np.eye(v.size) - beta * np.outer(w, w)
    return u, w, beta, x


def _closing_qr(y, n, r, x, rows):
    """Householder QR of the trailing r x r window.

    Fills x[n-r:] and rows[n-r:n-1], returns the list of shrinking unitary
    blocks and their assembled r x r product.
    """
    closing = []
    cur = y
    for k1 in range(n - r + 1, n):  # 1-based row index
        u, w, beta, xk = _reflect(cur[:, 0])
        closing.append(u)
        z = cur[:, 1:] - beta * np.outer(w, w @ cur[:, 1:])
        x[k1 - 1] = xk
        rows[k1 - 1] = z[0].copy()
        cur = z[1:]
    x[n - 1] = cur[0, 0]
    uhat = np.eye(r)
    for idx, u in enumerate(closing):
        uhat[:, idx:] = uhat[:, idx:] @ u
    return closing, uhat


def qr_factor_lower_band(a):
    """Structured QR of a lower banded matrix of order r.

    One reflection per step acts on an (r+1)-row window spanning the
    r_lower + r_upper columns that row k of R can reach, clipped at the matrix
    edge, so the cost is O(n r (r + r_upper)): O(n r^2) for a two-sided band
    and O(n^2 r) for a full upper part.  Zero columns simply produce x_k = 0,
    which the inversion stage rejects.
    """
    n, r = a.n, a.r_lower
    width = min(r + a.r_upper, n - 1)  # upper bandwidth of R
    x = np.empty(n)
    rows = [None] * (n - 1)
    factors = []
    y = a.rows_block(0, r, 0, min(width + 1, n))
    for k0 in range(n - r):
        # rows k..k+r, columns k..k+width; the transformed rows are still zero
        # in a column the window gains
        z = np.zeros((r + 1, min(width + 1, n - k0)))
        z[:r, : y.shape[1]] = y
        z[r] = a.row_segment(k0 + r, k0, k0 + z.shape[1])
        u, w, beta, xk = _reflect(z[:, 0])
        factors.append(u)
        z = z[:, 1:]
        z -= beta * np.outer(w, w @ z)
        x[k0] = xk
        rows[k0] = z[0].copy()
        y = z[1:]
    closing, uhat = _closing_qr(y, n, r, x, rows)
    return QrFactorization(n, r, factors, closing, uhat, x, rows, width)


def _generators_from_qr(fact, tol):
    """Backward recursion producing the Green generators of A^{-1} from the
    factored A = U R."""
    n, r = fact.n, fact.r
    xs = fact.x
    small = np.abs(xs) <= tol
    if small.any():
        k = int(np.argmax(small)) + 1
        raise SingularMatrixError(
            f"matrix is singular to working precision (diagonal entry {k} of R)",
            pivot_index=k,
        )
    # closing recursion: build the r x r trailing generator block from the
    # shrinking unitary factors, starting at the bottom-right corner of R
    stack = np.array([[1.0 / xs[n - 1]]])
    for k1 in range(n - 1, n - r, -1):
        ust = fact.closing[k1 - (n - r + 1)].T
        sa = stack @ ust[1:]
        pk = (ust[0] - fact.rows[k1 - 1] @ sa) / xs[k1 - 1]
        stack = np.vstack([pk, sa])
    p_last = stack
    m = n - r
    c = np.empty((m, r))
    aa = np.empty((m, r, r))
    q = np.empty((m, r))
    for k0, u in enumerate(fact.factors):
        ust = u.T
        c[k0], aa[k0], q[k0] = ust[0, :r], ust[1:, :r], ust[1:, r]
    p = backward_recursion(xs, fact.rows, fact.width, aa, c, p_last)
    return GreenGenerators(n, r, p, q, aa, p_last)


def invert_lower_band_qr(a):
    """Green generators of A^{-1} for a lower banded matrix of order r and any
    upper bandwidth.

    The produced generators are in right normal form:
    a(k) a(k)^T + q(k) q(k)^T = I_r, since [a(k) q(k)] are orthonormal rows of
    a unitary block.  Raises SingularMatrixError (naming the failing diagonal
    index of R) when A is singular to working precision.
    """
    return _generators_from_qr(qr_factor_lower_band(a), singularity_tol(a))


def invert_two_sided_qr(a):
    """Green generators of A^{-1} for a two-sided banded matrix of order
    r = r_lower (requires r_upper <= r_lower), in O(n r^2) arithmetic.

    This is invert_lower_band_qr, whose window already follows r_upper,
    behind a check of the two-sided contract.
    """
    if a.r_upper > a.r_lower:
        raise ValueError(
            f"two-sided path needs r_upper <= r_lower, got {a.r_upper} > {a.r_lower}"
        )
    return invert_lower_band_qr(a)
