"""Structured QR factorization of banded matrices and QR-based Green
generators of the inverse.

A lower banded matrix of order r factors as A = U R where U is an ascending
product of embedded (r+1) x (r+1) unitary blocks (one Householder reflection
per row) and R is upper triangular, upper banded of order
r_lower + r_upper.  U* is then a descending product, hence a lower Green,
upper banded matrix whose generators are read off the transposed blocks, and
the generators of A^{-1} = R^{-1} U* follow from R's panels and the
reflections by the generator stage shared with the LU path
(``generators.inverse_generators``).  The factorization is the panel loop
shared with the LU path (``banded.factor_panels``): LAPACK's ``dgeqrf``
reduces each panel and ``dormqr`` applies its reflections to the columns
right of it.
"""

import numpy as np
from scipy.linalg.lapack import dgeqrf, dormqr

from .banded import PANEL, PanelFactorization, factor_panels, require_two_sided, singularity_tol
from .errors import SingularMatrixError
from .generators import empty_generators, inverse_generators
from .transforms import TransformProduct, expand_transform_product

__all__ = [
    "QrFactorization",
    "qr_factor_lower_band",
    "invert_lower_band_qr",
    "invert_two_sided_qr",
]

SLAB = 4 * PANEL  # columns per dormqr call on the block right of a panel


class QrFactorization(PanelFactorization):
    """A = U R in factored form, R as in ``PanelFactorization``.

    U = H_0 H_1 ... H_{n-1} (0-based), where the reflection
    H_k = I - tau[k] v[k] v[k]^T acts on rows k..k+r; ``v`` is (n, r+1) with
    v[k, 0] = 1, and the rows k >= n-r, whose reflections shrink at the
    matrix edge, are zero-padded (tau[n-1] = 0).  ``factors`` (the
    (r+1) x (r+1) blocks U_k = H_k, k = 1..n-r, 1-based), ``closing`` (the
    blocks of sizes n-k+1 that triangulate the trailing r x r window,
    k = n-r+1..n-1) and ``closing_unitary`` (their assembled r x r product)
    are built from (v, tau) on demand, for assembling U.  ``width`` =
    min(r_lower + r_upper, n - 1) is the upper bandwidth of R.
    """

    def __init__(self, n, r, v, tau, x, tops, width):
        super().__init__(n, r, x, tops, width)
        self.v = v
        self.tau = tau

    def _block(self, k, size):
        """H_k on its rows and columns k..k+size-1."""
        w = self.v[k, :size]
        return np.eye(size) - self.tau[k] * np.outer(w, w)

    @property
    def factors(self):
        return [self._block(k, self.r + 1) for k in range(self.n - self.r)]

    @property
    def closing(self):
        return [self._block(k, self.n - k) for k in range(self.n - self.r, self.n - 1)]

    @property
    def closing_unitary(self):
        uhat = np.eye(self.r)
        for idx, u in enumerate(self.closing):
            uhat[:, idx:] = uhat[:, idx:] @ u
        return uhat

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


def qr_factor_lower_band(a):
    """Structured QR of a lower banded matrix of order r.

    Each panel's ``dgeqrf`` call reduces it, and ``dormqr`` applies its
    reflections to the rest of the window, SLAB columns per call; the last
    panel also triangulates the trailing r x r window.  Zero columns simply
    produce x_k = 0, which the inversion stage rejects.
    """
    n, r = a.n, a.r_lower
    tau = np.empty(n)

    def reduce(w, k0, b):
        # w is in Fortran order, so both calls work in place
        tau[k0 : k0 + b] = dgeqrf(w[:, :b], lwork=PANEL * b, overwrite_a=1)[1]
        # the columns right of the panel, in slabs that each stay in cache and
        # under a threaded BLAS's threshold for splitting such thin products
        for c0 in range(b, w.shape[1], SLAB):
            c = w[:, c0 : c0 + SLAB]
            dormqr("L", "T", w[:, :b], tau[k0 : k0 + b], c, lwork=PANEL * SLAB, overwrite_c=1)

    width = min(r + a.r_upper, n - 1)  # upper bandwidth of R
    x, tops, v = factor_panels(a, width, reduce)
    v[:, 0] = 1.0
    return QrFactorization(n, r, v, tau, x, tops, width)


def invert_lower_band_qr(a):
    """Green generators of A^{-1} for a lower banded matrix of order r and any
    upper bandwidth.

    U^T = H_{n-1} ... H_0 is a descending product of the symmetric blocks
    H_k = I - tau_k v_k v_k^T, so ``inverse_generators`` takes R's panels,
    u = tau v and w = v.  The produced generators are in right normal form:
    a(k) a(k)^T + q(k) q(k)^T = I_r, since [a(k) q(k)] are orthonormal rows of
    a unitary block.  Raises SingularMatrixError (naming the failing diagonal
    index of R) when A is singular to working precision.
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
    return inverse_generators(fact.tops, fact.width, fact.tau[:, None] * fact.v, fact.v, out)


def invert_two_sided_qr(a):
    """Green generators of A^{-1} for a two-sided banded matrix of order
    r = r_lower (requires r_upper <= r_lower), in O(n r^2) arithmetic.

    This is invert_lower_band_qr, whose window already follows r_upper,
    behind a check of the two-sided contract.
    """
    require_two_sided(a)
    return invert_lower_band_qr(a)
