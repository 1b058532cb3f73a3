"""Structured LU (Gauss) factorization of strongly regular banded matrices and
LU-based Green generators of the inverse.

A = L R with L unit lower triangular of lower bandwidth r and R upper
triangular, upper banded of order r_upper.  L^{-1} is a descending product
of embedded elimination blocks [[1, 0], [-f_k, I_r]], hence lower Green and
upper banded of order r; the generators of A^{-1} = R^{-1} L^{-1} follow
from the factorization by the generator stage shared with the QR path
(``generators.inverse_generators``), where p(k) = A^{-1}[k, k:k+r], with
each panel's elimination steps as the explicit transform
[[L11^{-1}, 0], [-L21 L11^{-1}, I]] and no prefix correction.
A band on which no window of the panel loop would have a wide right block
(``banded.wide_right_block``: max(r_lower, r_upper) <= 2 (PANEL + r_lower),
every two-sided band among them) is factored by one LAPACK ``dgbtrf`` call,
and when its partial pivoting swapped no row its factors are the unpivoted
ones up to rounding, read off its one array.  Any swap, and any wider band,
runs the panel loop shared with the QR path (``banded.factor_panels``),
with R's rows stored max(r_lower, r_upper) wide: LAPACK's ``dgetrf``
reduces each panel, and a panel on which its partial pivoting would swap
rows is restored and eliminated column by column instead.  The panel's
elimination reaches the columns right of it, however many, as its
explicit transform, built once, applied by the panel loop and kept for
the generator stage.  No row is ever swapped: the method
requires strong regularity, and a pivot that is zero to working precision
raises ZeroPivotError.  The factorization names which of the two ran, and
gives its growth factor, computed on first read from R's panels, so that
instability on nearly-singular leading blocks is observable.
"""

import functools

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgbtrf, dgetrf

from .banded import (
    PANEL,
    PanelFactorization,
    band_block,
    checked,
    elimination_transform,
    factor_panels,
    panel_edges,
    require_two_sided,
    singularity_tol,
    strictly_lower,
    wide_right_block,
)
from .errors import ZeroPivotError
from .generators import inverse_generators
from .transforms import TransformProduct

__all__ = [
    "LuFactorization",
    "lu_factor_lower_band",
    "invert_lower_band_lu",
    "invert_two_sided_lu",
    "elementary_factors_from_entrywise",
]


class LuFactorization(PanelFactorization):
    """A = L R in factored form, R and (u, w) as in ``PanelFactorization``.

    L^{-1} is the descending product of the elimination blocks
    [[1, 0], [-f_k, I_r]], kept as (u, w) = ([0 | f], e_1): ``f``, the
    columns 1.. of ``u``, holds in ``f[k-1]`` the r multipliers eliminating
    column k (they sit in L(k+1:k+r, k), 1-based); the rows k > n-r, whose
    columns of L shrink at the matrix edge, are zero-padded.  ``width`` =
    max(r_lower, r_upper) is at least the upper bandwidth of R.  ``norm`` is
    ||A||_inf.  ``path`` names the factorization that ran: ``"dgbtrf"``
    (LAPACK's band LU in one call) or ``"panels"`` (the panel loop), and
    ``transforms`` holds the (None, F) that the panel loop kept for each
    of its panels (none on the ``dgbtrf`` route).
    """

    def __init__(self, n, r, u, x, tops, width, norm, path="panels", transforms=None):
        w = np.broadcast_to(np.eye(1, r + 1), u.shape)
        super().__init__(n, r, x, tops, width, u, w, transforms)
        self.f = u[:, 1:]
        self.norm = norm
        self._path = path

    @property
    def path(self):
        return self._path

    @functools.cached_property
    def growth(self):
        """max_k ||R(k, k:)||_1 / ||A||_inf, the largest absolute row sum of
        R against that of A (row k of R is the pivot row of step k), computed
        on first read from ``tops``, whatever the route: ``triu`` drops L's
        multipliers below each panel's diagonal."""
        return max(np.abs(np.triu(top)).sum(axis=1).max() for top in self.tops) / (self.norm or 1.0)

    def build_transform(self, i, u, w):
        """No M, and F of the elimination steps of panel i, given as the
        (b + r) x b matrices u (the multipliers) and w (unused), from
        L11^{-1} (``banded.elimination_transform``), for the ``dgbtrf``
        route: the panel loop keeps every panel's pair.  A step I - u_k e_k^T
        changes only column k, so the stage's prefix correction would
        change only columns left of each row's p(k): it is never run."""
        return None, elimination_transform(u)

    def l_dense(self):
        """Entrywise unit lower triangular factor L."""
        out = np.eye(self.n)
        for k0 in range(self.n):
            col = out[k0 + 1 : k0 + 1 + self.r, k0]
            col[:] = self.f[k0, : col.size]
        return out


def lu_factor_lower_band(a):
    """Structured unpivoted LU of a strongly regular lower banded matrix of
    order r.

    When no window of the panel loop would have a wide right block
    (``banded.wide_right_block``), that is max(r_lower, r_upper) <=
    2 (PANEL + r_lower), every two-sided band among them, one ``dgbtrf``
    call factors the whole band (``_factor_band``).  If its partial pivoting
    swapped no row, its factors are the unpivoted ones up to rounding and
    are read off its array.  Otherwise, and on wider bands, the panel loop
    runs (``_factor_panels``).  Raises ZeroPivotError with the 1-based index
    of the first pivot that is zero to working precision.
    """
    n, r = a.n, a.r_lower
    norm = a.norm_inf()
    tol = singularity_tol(n, norm)
    width = max(r, a.r_upper)
    if not wide_right_block(width, PANEL + r):
        fact = _factor_band(a, width, tol, norm)
        if fact is not None:
            return fact
    return _factor_panels(a, width, tol, norm)


def _factor_band(a, width, tol, norm):
    """LAPACK's ``dgbtrf`` on a copy of the band, or None if its partial
    pivoting swapped a row.

    In its (2 r_lower + r_upper + 1) x n array, row r_lower + r_upper holds
    U's diagonal, the r_upper rows above it U's superdiagonals (the r_lower
    rows on top are fill-in, zero when no row was swapped) and the r_lower
    rows below it L's multipliers.  So x is one row, u = [0 | f] one
    transposing copy and each panel's ``tops`` one strided read
    (``banded.band_block``).  An exactly zero pivot (``info`` > 0) is left
    in place by ``dgbtrf`` and caught by the pivot check.
    """
    n, r, s = a.n, a.r_lower, a.r_upper
    diag = r + s
    # the top r rows need not be set: dgbtrf zeroes the fill-in that it uses
    band = np.empty((diag + r + 1, n), order="F")
    band[r:] = a.bands
    band, piv, _ = dgbtrf(band, r, s, overwrite_ab=1)
    if (piv != np.arange(n)).any():
        return None
    x = band[diag].copy()
    small = np.abs(x) <= tol
    if small.any():
        raise _zero_pivot(int(small.argmax()))
    u = np.empty((n, r + 1))
    u[:, 0] = 0.0
    u[:, 1:] = band[diag + 1 :].T
    tops = [
        band_block(band, diag, s, r, k0, k1, k0, min(k1 + width, n))
        for k0, k1 in panel_edges(n, r)
    ]
    return LuFactorization(n, r, u, x, tops, width, norm, path="dgbtrf")


def _factor_panels(a, width, tol, norm):
    """The panel loop (``banded.factor_panels``).  One ``dgetrf`` call
    reduces each panel in place.  If its partial pivoting swapped no row,
    that is the unpivoted factorization up to rounding; otherwise the panel
    is restored from a copy and eliminated one column at a time
    (``_eliminate``), as the unpivoted method requires.  Then, whatever
    the width of the block right of it, the panel's (None, F) is returned
    for the panel loop to apply and keep, from its multipliers
    (``banded.elimination_transform``), so the stage builds no transform
    for this route."""
    n, r = a.n, a.r_lower
    b_max = min(n, PANEL + r)  # columns of the widest panel, the last one
    saved = np.empty((b_max + r, b_max), order="F")

    def reduce(w, k0, b, _wide):
        panel = w[:, :b]
        saved[: b + r, :b] = panel
        # in place, as the window is in Fortran order; an exactly zero
        # column (info > 0) is caught by the pivot check below
        piv = dgetrf(panel, overwrite_a=1)[1]
        if (piv != np.arange(b)).any():
            panel[...] = saved[: b + r, :b]
            _eliminate(panel, k0, r, tol)
        else:
            small = np.abs(panel.diagonal()) <= tol
            if small.any():
                raise _zero_pivot(k0 + int(small.argmax()))
        return None, elimination_transform(panel * strictly_lower(b + r, b))

    x, tops, u, transforms = factor_panels(a, width, reduce)
    u[:, 0] = 0.0
    return LuFactorization(n, r, u, x, tops, width, norm, transforms=transforms)


def _eliminate(panel, k0, r, tol):
    """Unpivoted elimination of a panel starting at column k0, one column at
    a time: pivot check, scaling of the r multipliers, rank-one update of
    the panel's columns right of it."""
    for j in range(panel.shape[1]):
        if abs(panel[j, j]) <= tol:
            raise _zero_pivot(k0 + j)
        mult = panel[j + 1 : j + 1 + r, j]
        mult /= panel[j, j]
        panel[j + 1 : j + 1 + r, j + 1 :] -= mult[:, None] * panel[j, j + 1 :]


def _zero_pivot(k):
    return ZeroPivotError(f"pivot {k + 1} is zero to working precision", pivot_index=k + 1)


def invert_lower_band_lu(a):
    """Green generators of A^{-1} for a strongly regular lower banded matrix
    of order r and any upper bandwidth, via unpivoted structured
    elimination.  L^{-1}'s blocks are I - [0 | f_k] e_1^T, so
    ``inverse_generators`` takes the factorization, with its
    (u, w) = ([0 | f], e_1) and its panels' transforms
    (``LuFactorization.panel_transform``), and a(k) = [-f_k | e_1 .. e_{r-1}]
    and q(k) = e_r come out with their identity and zero sub-blocks exact."""
    return inverse_generators(lu_factor_lower_band(a))


def invert_two_sided_lu(a):
    """Green generators of A^{-1} for a strongly regular two-sided banded
    matrix of order r = r_lower (requires r_upper <= r_lower); O(n r^2).

    This is invert_lower_band_lu, whose window already follows r_upper,
    behind a check of the two-sided contract.
    """
    require_two_sided(a)
    return invert_lower_band_lu(a)


def elementary_factors_from_entrywise(l, r):
    """Descending factorization of L^{-1} read off an entrywise unit lower
    triangular banded L, one row segment per factor.

    Writing L as an ascending product of row transforms I + e_i L(i, :i-1)
    and inverting gives

        L^{-1} = (I - e_N g_{N-r}) ... (I - e_{r+1} g_1) . (C^{-1} (+) I)

    with g_k = L(k+r, k:k+r-1) (1-based) and C = L(1:r, 1:r): each main
    factor is the block [[I_r, 0], [-g_k, 1]] embedded at position k, and the
    leading corner inverse (rows 2..r produce row transforms too short to
    fill an (r+1)-window) acts on rows/columns 1..r, so it is absorbed into
    the k = 1 factor.  Multiplying L by the expanded result gives the
    identity.  The input must be exactly unit lower triangular with lower
    bandwidth r; a non-square L, an entry that is not finite or any other
    pattern raises ValueError.
    """
    n = len(l)
    l = checked(l, (n, n), "L")
    if np.any(np.diagonal(l) != 1.0):
        raise ValueError("input must have a unit diagonal")
    if np.any(np.triu(l, 1) != 0.0):
        raise ValueError("input must be lower triangular")
    if np.any(np.tril(l, -(r + 1)) != 0.0):
        raise ValueError(f"input must have lower bandwidth {r}")
    corner = np.eye(r + 1)
    corner[:r, :r] = scipy.linalg.solve_triangular(
        l[:r, :r], np.eye(r), lower=True, unit_diagonal=True, check_finite=False
    )
    k = np.arange(n - r)[:, None]
    factors = np.tile(np.eye(r + 1), (n - r, 1, 1))
    factors[:, r, :r] = -l[k + r, k + np.arange(r)]
    factors[0] = factors[0] @ corner
    return TransformProduct(n, r, factors, np.eye(r))
