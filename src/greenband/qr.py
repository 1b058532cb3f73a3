"""Structured QR factorization of banded matrices and QR-based Green
generators of the inverse.

A lower banded matrix of order r factors as A = U R where U is an ascending
product of embedded (r+1) x (r+1) unitary blocks (one Householder reflection
per row) and R is upper triangular, upper banded of order
r_lower + r_upper.  U* is then a descending product, hence a lower Green,
upper banded matrix whose generators are read off its blocks.  The
factorization carries U* as (u, w) = (tau v, v), its blocks I - u_k w_k^T,
and the generators of A^{-1} = R^{-1} U* follow from the factorization by
the generator stage shared with the LU path
(``generators.inverse_generators``), with each panel's reflections as the
explicit transforms of ``_transforms``.  The factorization is the panel
loop shared with the LU path (``banded.factor_panels``).  A band whose
r_lower reaches three quarters of a panel (``keeps_t``) reduces each panel
with LAPACK's ``dgeqrt`` and keeps its compact-WY factor T, from which both
the trailing update (``dgemqrt``) and the generator stage take the panel's
transform; a narrower band reduces each panel with ``dgeqrf``, whose
reflections reach the columns right of it through ``dormqr``.  Either way
a right block wider than 2 (b + r) columns takes the panel's transform as
an explicit matrix, built once by ``_transforms``, applied by the panel
loop and kept for the generator stage.
"""

import numpy as np
from scipy.linalg.lapack import dgemqrt, dgeqrf, dgeqrt, dormqr

from .banded import (
    PANEL,
    PanelFactorization,
    compact_transform,
    factor_panels,
    reflection_transform,
    require_two_sided,
    singularity_tol,
    strictly_lower,
)
from .errors import SingularMatrixError
from .generators import inverse_generators
from .transforms import expand_transform_product

__all__ = [
    "QrFactorization",
    "keeps_t",
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
    ``width`` = min(r_lower + r_upper, n - 1) is the upper bandwidth of R.
    ``t_factors`` holds each panel's compact-WY factor T
    (H_{j0} ... H_{j1-1} = I - V T V^T on the panel's rows, tau its
    diagonal) when ``dgeqrt`` reduced the panels, else None; ``path`` names
    the reduction that ran, ``"dgeqrt"`` or ``"dgeqrf"``.  ``transforms``
    holds the (M, F) kept for panels with a wide right block.
    """

    def __init__(self, n, r, v, tau, x, tops, width, t_factors, transforms=None):
        super().__init__(n, r, x, tops, width, tau[:, None] * v, v, transforms)
        self.v = v
        self.tau = tau
        self.t_factors = t_factors

    @property
    def path(self):
        return "dgeqrf" if self.t_factors is None else "dgeqrt"

    def build_transform(self, i, u, w):
        """M and F of the reflections of panel i, given as the (b + r) x b
        matrices u = V diag(tau) and w = V (``_transforms``); tau is u's
        diagonal, as v_k[0] = 1."""
        t = None if self.t_factors is None else self.t_factors[i]
        return _transforms(u, w, u.diagonal(), t)

    def u_dense(self):
        return expand_transform_product(self.inverse_product()).T


def keeps_t(r):
    """True when a band of lower bandwidth r reduces its panels with
    ``dgeqrt`` and keeps their T factors: from r = 3 PANEL / 4 on.  There
    one T per panel, serving the trailing update (``dgemqrt``) and the
    generator stage, costs less than ``dgeqrf`` with the triangular factor
    rebuilt by ``dormqr`` and by the stage (``banded.compact_transform``);
    on narrower bands ``dgeqrt``'s fixed cost per call outweighs that."""
    return 4 * r >= 3 * PANEL


def qr_factor_lower_band(a):
    """Structured QR of a lower banded matrix of order r.

    Each panel's ``dgeqrt`` call (``keeps_t``) or ``dgeqrf`` call reduces
    it.  On a wide right block (``banded.factor_panels``) its reflections'
    (M, F) are returned for the panel loop to apply and keep, with V the
    window's vectors below the diagonal after a unit diagonal; otherwise
    ``_update`` applies them to the rest of the window.  The last panel
    also triangulates the trailing r x r window.  Zero columns simply
    produce x_k = 0, which the inversion stage rejects.
    """
    n, r = a.n, a.r_lower
    tau = np.empty(n)
    t_factors = [] if keeps_t(r) else None

    def reduce(w, k0, b, wide):
        scalars = tau[k0 : k0 + b]
        # w is in Fortran order, so dgeqrt and dgeqrf work in place
        if t_factors is None:
            t = None
            scalars[:] = dgeqrf(w[:, :b], lwork=PANEL * b, overwrite_a=1)[1]
        else:
            t = dgeqrt(b, w[:, :b], overwrite_a=1)[1]
            scalars[:] = t.diagonal()
            t_factors.append(t)
        if wide:
            v = w[:, :b] * strictly_lower(len(w), b)
            np.fill_diagonal(v, 1.0)
            return _transforms(v * scalars, v, scalars, t)
        _update(w, b, scalars, t)

    width = min(r + a.r_upper, n - 1)  # upper bandwidth of R
    x, tops, v, transforms = factor_panels(a, width, reduce)
    v[:, 0] = 1.0
    return QrFactorization(n, r, v, tau, x, tops, width, t_factors, transforms)


def _update(w, b, tau, t):
    """Apply the reflections of the panel in the first b columns of the
    window ``w`` (their vectors below its diagonal, scalars ``tau``, and
    ``dgeqrt``'s T or None) to the columns right of it, at most 2 (b + r)
    of them, in one ``dgemqrt`` or ``dormqr`` call.  A wider block takes
    their explicit product in ``banded.factor_panels``."""
    c = w[:, b:]
    if c.shape[1]:
        # c is a column slice of the Fortran-ordered window: in place
        if t is None:
            dormqr("L", "T", w[:, :b], tau, c, lwork=PANEL * c.shape[1], overwrite_c=1)
        else:
            dgemqrt(w[:, :b], t, c, side="L", trans="T", overwrite_c=1)


def _transforms(u, w, tau, t):
    """M and F of a panel's reflections H_j = I - tau_j v_j v_j^T, from the
    (b + r) x b matrices u = V diag(tau) and w = V, their scalars ``tau``
    and ``dgeqrt``'s T or None: F = H_{b-1} ... H_0, the descending product,
    as an explicit (b + r) x (b + r) matrix, and M, the factor of the
    ascending product H_0 ... H_{b-1} = I - M V^T.  From T, M = V T and
    F = I - V M^T (``banded.reflection_transform``); without it, the
    compact form F = I - u y^T (``banded.compact_transform``, one
    ``dtrsm``) and M = y diag(tau)."""
    if t is not None:
        return reflection_transform(w, t)
    y, f = compact_transform(u, w)
    return y * tau, f


def invert_lower_band_qr(a):
    """Green generators of A^{-1} for a lower banded matrix of order r and any
    upper bandwidth.

    U^T = H_{n-1} ... H_0 is a descending product of the symmetric blocks
    H_k = I - tau_k v_k v_k^T, so ``inverse_generators`` takes the
    factorization, with its (u, w) = (tau v, v) and its panels' transforms
    (``QrFactorization.panel_transform``).  The produced generators are in
    right normal form: a(k) a(k)^T + q(k) q(k)^T = I_r, since [a(k) q(k)]
    are orthonormal rows of a unitary block.  Raises SingularMatrixError (naming the failing
    diagonal index of R) when A is singular to working precision.
    """
    fact = qr_factor_lower_band(a)
    small = np.abs(fact.x) <= singularity_tol(a.n, a.norm_inf())
    if small.any():
        k = int(np.argmax(small)) + 1
        raise SingularMatrixError(
            f"matrix is singular to working precision (diagonal entry {k} of R)",
            pivot_index=k,
        )
    return inverse_generators(fact)


def invert_two_sided_qr(a):
    """Green generators of A^{-1} for a two-sided banded matrix of order
    r = r_lower (requires r_upper <= r_lower), in O(n r^2) arithmetic.

    This is invert_lower_band_qr, whose window already follows r_upper,
    behind a check of the two-sided contract.
    """
    require_two_sided(a)
    return invert_lower_band_qr(a)
