"""Structured LU (Gauss) factorization of strongly regular banded matrices and
LU-based Green generators of the inverse.

A = L R with L unit lower triangular of lower bandwidth r and R upper
triangular.  L^{-1} is a descending product of embedded elimination blocks
[[1, 0], [-f_k, I_r]], hence lower Green and upper banded of order r; the
generators of A^{-1} = R^{-1} L^{-1} follow from R's panels and the
multipliers by the same panel-blocked stage as in the QR path, where a
panel's elimination steps act as one block and p(k) = A^{-1}[k, k:k+r].
No pivoting is performed anywhere: the method requires strong regularity,
and a pivot that is zero to working precision raises ZeroPivotError.  The
factorization records its growth factor so instability on nearly-singular
leading blocks is observable.

R is upper banded of order r_upper, so the working window spans
max(r_lower, r_upper) + 1 columns and the stored rows of R and the tail
stacks max(r_lower, r_upper), clipped at the matrix edge: the inversion costs
O(n r_lower max(r_lower, r_upper)) arithmetic in the factorization and
O(n r^2) (two-sided band, r up to PANEL) or O(n^2 r) (full upper part,
r_upper = n - 1) in the generator stage.
"""

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm, dtrsm

from .banded import PANEL, singularity_tol
from .errors import ZeroPivotError
from .generators import empty_generators, inverse_generators
from .transforms import TransformProduct

__all__ = [
    "LuFactorization",
    "lu_factor_lower_band",
    "invert_lower_band_lu",
    "invert_two_sided_lu",
    "elementary_factors_from_entrywise",
]


class LuFactorization:
    """A = L R in factored form.

    ``f[k-1]`` holds the r multipliers eliminating column k (they sit in
    L(k+1:k+r, k), 1-based); ``f`` is (n, r), and the rows k > n-r, whose
    columns of L shrink at the matrix edge, are zero-padded.  ``x[k-1] =
    R(k, k)``.  ``tops`` holds R panel by panel: the panel's rows over the
    columns of its window, exact zeros past each row's reach, with L's
    multipliers below the diagonal of its leading block.  ``rows[k-1]``,
    built from it on demand, is R(k, k+1:k+width), which holds every nonzero
    of the row since ``width`` = max(r_lower, r_upper) is at least the upper
    bandwidth of R; the last row is empty.  ``growth`` is
    max_k ||R(k, k:)||_1 / ||A||_inf, the largest absolute row sum of R
    against that of A; row k of R is the pivot row of step k.
    """

    def __init__(self, n, r, f, x, tops, width, growth):
        self.n = n
        self.r = r
        self.f = f
        self.x = x
        self.tops = tops
        self.width = width
        self.growth = growth

    @property
    def rows(self):
        return [top[j, j + 1 : j + 1 + self.width] for top in self.tops for j in range(len(top))]

    def l_dense(self):
        """Entrywise unit lower triangular factor L."""
        out = np.eye(self.n)
        for k0 in range(self.n):
            col = out[k0 + 1 : k0 + 1 + self.r, k0]
            col[:] = self.f[k0, : col.size]
        return out

    def r_dense(self):
        out = np.zeros((self.n, self.n))
        out[np.arange(self.n), np.arange(self.n)] = self.x
        for k0, row in enumerate(self.rows):
            out[k0, k0 + 1 : k0 + 1 + row.size] = row
        return out

    def inverse_factors(self):
        """L^{-1} as a descending TransformProduct of the elimination blocks
        [[1, 0], [-f_k, I_r]], with the trailing block the product of the
        last r of them, shrunk at the matrix edge."""
        factors = []
        for k0 in range(self.n - self.r):
            blk = np.eye(self.r + 1)
            blk[1:, 0] = -self.f[k0]
            factors.append(blk)
        last = np.eye(self.r)
        for j in range(self.r - 1, -1, -1):  # times the block of column n-r+j, shrunk
            last[:, j] -= last[:, j + 1 :] @ self.f[self.n - self.r + j, : self.r - 1 - j]
        return TransformProduct(self.n, self.r, factors, last, order="descending")


def lu_factor_lower_band(a):
    """Structured unpivoted LU of a strongly regular lower banded matrix of
    order r.

    Each panel of PANEL columns reads its (PANEL + r) x (PANEL + width)
    window, eliminates the panel one column at a time (pivot check, scaling
    of the r multipliers, rank-one update inside the panel), then gets the
    panel's rows of R right of it with one ``dtrsm`` and updates the r rows
    below with one ``dgemm``; those rows carry over to the next panel, and
    the last panel runs to column n.  R's rows reach max(r, r_upper) columns
    past the diagonal, so the cost is O(n r max(r, r_upper)) up to the
    panel's fill: O(n r^2) for a two-sided band and O(n^2 r) for a full upper
    part.  Raises ZeroPivotError with the 1-based index of the first pivot
    that is zero to working precision.
    """
    n, r = a.n, a.r_lower
    m = n - r
    width = max(r, a.r_upper)  # R's rows are stored this wide
    norm = a.norm_inf()
    tol = singularity_tol(n, norm)
    x = np.empty(n)
    tops = []
    f = np.empty((n, r))
    growth = 0.0
    carried = None
    for k0 in range(0, m, PANEL):
        k1 = k0 + PANEL if k0 + PANEL < m else n  # the last panel runs to column n
        b = k1 - k0
        w = a.panel(k0, b + r, min(b + width, n - k0), carried)
        for j in range(b):
            if abs(w[j, j]) <= tol:
                raise ZeroPivotError(
                    f"pivot {k0 + j + 1} is zero to working precision", pivot_index=k0 + j + 1
                )
            mult = w[j + 1 : j + 1 + r, j]
            mult /= w[j, j]
            w[j + 1 : j + 1 + r, j + 1 : b] -= mult[:, None] * w[j, j + 1 : b]
        if w.shape[1] > b:
            w[:b, b:] = dtrsm(1.0, w[:b, :b], w[:b, b:], lower=1, diag=1)
            w[b:, b:] = dgemm(-1.0, w[b:, :b], w[:b, b:], 1.0, w[b:, b:])
        x[k0:k1] = np.diagonal(w[:b])
        diag = np.arange(b)[:, None]
        f[k0:k1] = w[diag + np.arange(1, r + 1), diag]  # below each pivot
        tops.append(np.ascontiguousarray(w[:b]))  # the panel's rows of R, each contiguous
        growth = max(growth, _max_row_sum(tops[-1], b))
        carried = w[b:, b:]
    return LuFactorization(n, r, f, x, tops, width, growth / (norm or 1.0))


def _max_row_sum(top, b):
    """Largest absolute row sum of R in a panel's ``top`` rows, whose left
    b x b block holds L's multipliers below its diagonal: only that block is
    masked.  A function, so that the b x (b + width) temporary is freed before
    the next panel's window is read: kept alive into the next panel, it
    raised the peak RSS of a loop of one-sided inversions (n = 2000, r = 6,
    full upper part) by about 12 MB in most runs."""
    mag = np.abs(top)
    return (np.triu(mag[:, :b]).sum(axis=1) + mag[:, b:].sum(axis=1)).max()


def invert_lower_band_lu(a):
    """Green generators of A^{-1} for a strongly regular lower banded matrix
    of order r and any upper bandwidth, via unpivoted structured
    elimination.  L^{-1}'s blocks are I - [0 | f_k] e_1^T, so
    ``inverse_generators`` takes R's panels, u = [0 | f] and w = e_1, and
    a(k) = [-f_k | e_1 .. e_{r-1}] and q(k) = e_r come out with their
    identity and zero sub-blocks exact."""
    out = empty_generators(a.n, a.r_lower)
    fact = lu_factor_lower_band(a)
    u = np.hstack((np.zeros((a.n, 1)), fact.f))
    w = np.broadcast_to(np.eye(1, a.r_lower + 1), u.shape)
    return inverse_generators(fact.tops, fact.width, u, w, out)


def invert_two_sided_lu(a):
    """Green generators of A^{-1} for a strongly regular two-sided banded
    matrix of order r = r_lower (requires r_upper <= r_lower); O(n r^2).

    This is invert_lower_band_lu, whose window already follows r_upper,
    behind a check of the two-sided contract.
    """
    if a.r_upper > a.r_lower:
        raise ValueError(
            f"two-sided path needs r_upper <= r_lower, got {a.r_upper} > {a.r_lower}"
        )
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
    bandwidth r.
    """
    l = np.asarray(l, dtype=float)
    n = l.shape[0]
    if l.shape != (n, n):
        raise ValueError("input must be square")
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
    factors = []
    for k1 in range(1, n - r + 1):
        blk = np.eye(r + 1)
        blk[r, :r] = -l[k1 + r - 1, k1 - 1 : k1 + r - 1]
        factors.append(blk if k1 > 1 else blk @ corner)
    return TransformProduct(n, r, factors, np.eye(r), order="descending")
