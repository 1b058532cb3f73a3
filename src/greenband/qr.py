"""Structured QR factorization of banded matrices and QR-based Green
generators of the inverse.

A lower banded matrix of order r factors as A = U R where U is an ascending
product of embedded (r+1) x (r+1) unitary blocks (one Householder reflection
per row) and R is upper triangular, upper banded of order
r_lower + r_upper.  U* is then a descending product, hence a lower Green,
upper banded matrix whose generators are read off its blocks.  The
factorization carries U* as (u, w) = (tau v, v), its blocks I - u_k w_k^T,
and the generators of A^{-1} = R^{-1} U* follow from R's panels and (u, w)
by the generator stage shared with the LU path
(``generators.inverse_generators``).  The factorization is the panel loop
shared with the LU path (``banded.factor_panels``): LAPACK's ``dgeqrf``
reduces each panel, and its reflections reach the columns right of it
either through ``dormqr`` or, on a right block wider than 2 (b + r)
columns, as their explicit product, one ``dgemm``.
"""

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dgeqrf, dormqr

from .banded import (
    PANEL,
    PanelFactorization,
    compact_transform,
    factor_panels,
    require_two_sided,
    singularity_tol,
    wide_right_block,
)
from .errors import SingularMatrixError
from .generators import empty_generators, inverse_generators
from .transforms import TransformProduct, expand_transform_product

__all__ = [
    "QrFactorization",
    "qr_factor_lower_band",
    "invert_lower_band_qr",
    "invert_two_sided_qr",
]


class QrFactorization(PanelFactorization):
    """A = U R in factored form, R and (u, w) as in ``PanelFactorization``.

    U = H_0 H_1 ... H_{n-1} (0-based), where the reflection
    H_k = I - tau[k] v[k] v[k]^T acts on rows k..k+r; ``v`` is (n, r+1) with
    v[k, 0] = 1, and the rows k >= n-r, whose reflections shrink at the
    matrix edge, are zero-padded (tau[n-1] = 0).  U^T is the descending
    product of the same reflections, kept as (u, w) = (tau v, v).
    ``closing_unitary`` is the r x r trailing block of U, the transposed
    ``closing_product``.  ``width`` = min(r_lower + r_upper, n - 1) is the
    upper bandwidth of R.
    """

    def __init__(self, n, r, v, tau, x, tops, width):
        super().__init__(n, r, x, tops, width, tau[:, None] * v, v)
        self.v = v
        self.tau = tau

    @property
    def closing_unitary(self):
        return self.closing_product().T

    def ustar_product(self):
        """U* as a descending TransformProduct (the Green factor)."""
        return TransformProduct(self.n, self.r, self.factors, self.closing_product())

    def u_dense(self):
        return expand_transform_product(self.ustar_product()).T


def qr_factor_lower_band(a):
    """Structured QR of a lower banded matrix of order r.

    Each panel's ``dgeqrf`` call reduces it, and ``_update`` applies its
    reflections to the rest of the window; the last panel also triangulates
    the trailing r x r window.  Zero columns simply produce x_k = 0, which
    the inversion stage rejects.
    """
    n, r = a.n, a.r_lower
    tau = np.empty(n)

    def reduce(w, k0, b):
        # w is in Fortran order, so dgeqrf works in place
        tau[k0 : k0 + b] = dgeqrf(w[:, :b], lwork=PANEL * b, overwrite_a=1)[1]
        _update(w, b, tau[k0 : k0 + b])

    width = min(r + a.r_upper, n - 1)  # upper bandwidth of R
    x, tops, v = factor_panels(a, width, reduce)
    v[:, 0] = 1.0
    return QrFactorization(n, r, v, tau, x, tops, width)


def _update(w, b, tau):
    """Apply the reflections of the panel in the first b columns of the
    window ``w`` (``dgeqrf``'s vectors below its diagonal, scalars ``tau``)
    to the columns right of it: a wide block (``banded.factor_panels``)
    by their explicit product from (u, w) = (tau v, v) in one ``dgemm``,
    a narrower one in one ``dormqr`` call."""
    c = w[:, b:]
    if wide_right_block(w.shape[1] - b, len(w)):
        v = np.tril(w[:, :b], -1)
        np.fill_diagonal(v, 1.0)
        w[:, b:] = dgemm(1.0, compact_transform(v * tau, v)[1], c)
    elif c.shape[1]:
        # c is a column slice of the Fortran-ordered window: in place
        dormqr("L", "T", w[:, :b], tau, c, lwork=PANEL * c.shape[1], overwrite_c=1)


def invert_lower_band_qr(a):
    """Green generators of A^{-1} for a lower banded matrix of order r and any
    upper bandwidth.

    U^T = H_{n-1} ... H_0 is a descending product of the symmetric blocks
    H_k = I - tau_k v_k v_k^T, so ``inverse_generators`` takes R's panels
    and the factorization's (u, w) = (tau v, v).  The produced generators
    are in right normal form: a(k) a(k)^T + q(k) q(k)^T = I_r, since
    [a(k) q(k)] are orthonormal rows of a unitary block.  Raises
    SingularMatrixError (naming the failing diagonal index of R) when A is
    singular to working precision.
    """
    out = empty_generators(a.n, a.r_lower)
    fact = qr_factor_lower_band(a)
    small = np.abs(fact.x) <= singularity_tol(a.n, a.norm_inf())
    if small.any():
        k = int(np.argmax(small)) + 1
        raise SingularMatrixError(
            f"matrix is singular to working precision (diagonal entry {k} of R)",
            pivot_index=k,
        )
    return inverse_generators(fact.tops, fact.width, fact.u, fact.w, out)


def invert_two_sided_qr(a):
    """Green generators of A^{-1} for a two-sided banded matrix of order
    r = r_lower (requires r_upper <= r_lower), in O(n r^2) arithmetic.

    This is invert_lower_band_qr, whose window already follows r_upper,
    behind a check of the two-sided contract.
    """
    require_two_sided(a)
    return invert_lower_band_qr(a)
