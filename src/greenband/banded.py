"""Banded matrix container, the panel loop of its factorizations, test-matrix
generators and the matrix text format.

A matrix A is *lower banded of order r* when ``A[i, j] == 0`` for
``i - j > r`` (the upper part may be full), and *two-sided banded* when in
addition ``A[i, j] == 0`` for ``j - i > r_upper``.  Storage is LAPACK's
band layout (the ``AB`` array of ``dgbtrf`` and ``dgbmv``): the
(r_lower + r_upper + 1) x n array ``bands[r_upper + i - j, j] == A[i, j]``
in Fortran order, so each column's band cells are contiguous.  Entry access
is O(1), a block of A is one strided view of the array (a copy of column
segments), and BLAS's banded routines read the array as it is.

All indices in this module are 0-based.
"""

import functools
import itertools

import numpy as np
from scipy.linalg.blas import dgbmv, dgemm, dtrsm
from scipy.linalg.lapack import dtrtri

from .errors import BandPatternError

__all__ = [
    "PANEL",
    "BandedMatrix",
    "PanelFactorization",
    "factor_panels",
    "require_two_sided",
    "singularity_tol",
    "random_band",
    "prescribed_condition_band",
    "read_matrix",
    "write_matrix",
]

PANEL = 32  # columns per panel of the blocked QR and LU factorizations
TILE = 128  # diagonals per tile of the constructor's copy and checks
CHUNK = 2**15  # cells per chunk of ``all_finite``, 256 KB of doubles
NORM_CHUNK = 2**18  # doubles per chunk of ``BandedMatrix.norm_inf``, 2 MB
TEXT_CHUNK = 2**13  # values formatted by one ``%`` in ``write_rows``
ROWS = 64  # rows per block of a dense n x n array written, read or checked


class BandedMatrix:
    """N x N real matrix with lower bandwidth ``r_lower`` and upper bandwidth
    ``r_upper`` (``r_upper == n - 1`` means the upper part is unconstrained).

    ``bands`` is copied into Fortran order, and its cells outside the matrix
    (the corner triangles of the band layout) must be zero.  Instances are
    immutable after construction; the band array is marked read-only so they
    can be shared freely between threads (``norm_inf``, computed on first
    use, is the same value whichever thread computes it).  One read-only
    n x n strided view of the array (``_band_view``), made once, is what
    ``rows_block`` slices.
    """

    def __init__(self, n, r_lower, r_upper, bands):
        if not n > r_lower > 0:
            raise ValueError(f"need n > r_lower > 0, got n={n}, r_lower={r_lower}")
        if not 0 <= r_upper <= n - 1:
            raise ValueError(f"r_upper must be in [0, n-1], got {r_upper}")
        src = np.asarray(bands, dtype=float)
        d = r_lower + r_upper + 1
        if src.shape != (d, n):
            raise ValueError(f"bands must have shape {(d, n)}, got {src.shape}")
        # the transposing copy goes TILE diagonals at a time, a third faster
        # than in one call
        self.bands = np.empty((d, n), order="F")
        for d0 in range(0, d, TILE):
            self.bands[d0 : d0 + TILE] = src[d0 : d0 + TILE]
        if not all_finite(self.bands):
            raise ValueError("band entries must be finite")
        # cell (d, j) holds A[j + d - r_upper, j], so the first r_upper - d
        # cells of a superdiagonal and the last d - r_upper cells of a
        # subdiagonal lie outside the matrix
        if _corner_nonzero(src, r_upper) or _corner_nonzero(src[::-1, ::-1], r_lower):
            raise ValueError("bands has nonzero cells outside the matrix")
        self.n = int(n)
        self.r_lower = int(r_lower)
        self.r_upper = int(r_upper)
        self.bands.setflags(write=False)
        self._square = _band_view(self.bands, self.r_upper)
        self._norm = None

    @property
    def full_upper(self):
        """True when no upper-bandwidth constraint is imposed."""
        return self.r_upper == self.n - 1

    @classmethod
    def from_dense(cls, dense, r_lower, r_upper):
        """Compress a dense array, requiring exact zeros outside the band.

        Working memory besides the band: O(ROWS n)."""
        dense = np.asarray(dense, dtype=float)
        n = dense.shape[0]
        if dense.shape != (n, n):
            raise ValueError("dense input must be square")
        bands = np.zeros((r_lower + r_upper + 1, n), order="F")
        for off in range(-r_upper, r_lower + 1):
            diag = np.diagonal(dense, offset=-off)
            j0 = max(0, -off)
            bands[r_upper + off, j0 : j0 + diag.size] = diag
        # everything off the band must vanish exactly: checked ROWS rows at a
        # time, the first offending block naming its first such entry
        for i0 in range(0, n, ROWS):
            block = dense[i0 : i0 + ROWS]
            off_band = np.tril(block, i0 - r_lower - 1) != 0.0
            off_band |= np.triu(block, i0 + r_upper + 1) != 0.0
            if np.any(off_band):
                bad = np.argwhere(off_band)[0]
                raise BandPatternError(
                    f"entry ({i0 + bad[0]}, {bad[1]}) is nonzero outside the declared band"
                )
        return cls(n, r_lower, r_upper, bands)

    def to_dense(self):
        """Expand to a dense (n, n) array with zeros outside the band."""
        n = self.n
        out = np.zeros((n, n))
        for off in range(-self.r_upper, self.r_lower + 1):
            row = self.bands[self.r_upper + off]
            j0 = max(0, -off)
            j1 = min(n, n - off)
            idx = np.arange(j0, j1)
            out[idx + off, idx] = row[j0:j1]
        return out

    def entry(self, i, j):
        d = self.r_upper + i - j
        if 0 <= d <= self.r_lower + self.r_upper and 0 <= i < self.n and 0 <= j < self.n:
            return self.bands[d, j]
        return 0.0

    def row_segment(self, i, j0, j1):
        """Values A[i, j0:j1] as a dense vector (zeros outside the band)."""
        return self.rows_block(i, i + 1, j0, j1)[0]

    def col_segment(self, j, i0, i1):
        """Values A[i0:i1, j] as a dense vector (zeros outside the band)."""
        return self.rows_block(i0, i1, j, j + 1)[:, 0]

    def rows_block(self, i0, i1, j0, j1):
        """Dense block A[i0:i1, j0:j1] in Fortran order, zero outside the band;
        rows past the last one read as zero (0 <= i0, 0 <= j0 <= j1 <= n).
        One slice of the band's n x n view (``band_block``)."""
        return band_block(self._square, self.r_upper, self.r_lower, i0, i1, j0, j1)

    def panel(self, k0, rows, cols, carried=None):
        """Working window of a panel factorization: A[k0:k0+rows, k0:k0+cols]
        (rows past the last one are zero) with its top-left corner replaced by
        ``carried``, the rows that the previous panel transformed.  The cells
        of the top rows to the right of ``carried`` are still entries of A."""
        w = self.rows_block(k0, k0 + rows, k0, k0 + cols)
        if carried is not None:
            w[: carried.shape[0], : carried.shape[1]] = carried
        return w

    def norm_inf(self):
        """Max absolute row sum, computed once per matrix from the
        compressed band.

        Columns j0:j1 of the (d, n) band array, read as stored, are the band
        of a lower banded (j1 - j0 + d - 1) x (j1 - j0) matrix of order
        d - 1 whose row t is row j0 - r_upper + t of A, so one ``dgbmv`` per
        chunk of NORM_CHUNK cells adds their absolute values into the row
        sums; the rows outside the matrix collect the zero corner cells.
        """
        if self._norm is None:
            d, n = self.bands.shape
            step = max(1, NORM_CHUNK // d)
            buf = np.empty((d, min(step, n)), order="F")
            ones = np.ones(buf.shape[1])
            sums = np.zeros(n + d - 1)  # rows -r_upper .. n - 1 + r_lower
            for j0 in range(0, n, step):
                blk = np.abs(self.bands[:, j0 : j0 + step], out=buf[:, : min(step, n - j0)])
                c = blk.shape[1]
                dgbmv(c + d - 1, c, d - 1, 0, 1.0, blk, ones, beta=1.0, y=sums, offy=j0, overwrite_y=1)
            self._norm = float(sums[self.r_upper : self.r_upper + n].max())
        return self._norm

    def __eq__(self, other):
        if not isinstance(other, BandedMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and self.r_lower == other.r_lower
            and self.r_upper == other.r_upper
            and np.array_equal(self.bands, other.bands)
        )

    def __repr__(self):
        return f"BandedMatrix(n={self.n}, r_lower={self.r_lower}, r_upper={self.r_upper})"


def _band_view(bands, diagonal):
    """The n x n matrix M whose cell (i, j) sits at ``bands[diagonal + i - j, j]``
    of the Fortran-ordered (d, n) array ``bands``, as one strided view of it,
    read-only when ``bands`` is.

    M[i, j] sits at offset diagonal + i + j (d - 1) of the array.  Every
    offset lies inside it when ``diagonal`` < d, the largest one,
    diagonal + (n - 1) d at i = j = n - 1, included.  The view's cells
    outside the band read other cells of the array, which ``band_block``
    zeroes.
    """
    d, n = bands.shape
    step = bands.itemsize
    return np.ndarray((n, n), buffer=bands, offset=diagonal * step, strides=(step, (d - 1) * step))


def band_block(view, above, below, i0, i1, j0, j1):
    """Dense block M[i0:i1, j0:j1] in Fortran order of the n x n matrix M
    read through ``view`` (``_band_view``), with every cell j - i > ``above``
    or i - j > ``below`` zero; rows past the last one read as zero
    (0 <= i0, 0 <= j0 <= j1 <= n).

    The block is one slice of the view, copied as each column's contiguous
    band cells.  The slice's cells above or below the band read other cells;
    they are zeroed after the copy, at indices cached per window shape
    (``_outside``).
    """
    n = len(view)
    rows, cols = i1 - i0, j1 - j0
    live = max(0, min(i1, n) - i0)
    out = np.empty((rows, cols), order="F")
    out[:live] = view[i0 : i0 + live, j0:j1]
    if live < rows:
        out[live:] = 0.0
    above = min(max(above + i0 - j0, -rows), cols)
    below = min(max(below - i0 + j0, -cols), rows)
    out.T.reshape(-1)[_outside(rows, cols, above, below)] = 0.0
    return out


def all_finite(arr):
    """True if every entry of the contiguous array ``arr`` is finite, read
    in chunks of CHUNK cells, without a boolean array of its size."""
    flat = arr.reshape(-1, order="A")
    finite = np.empty(min(CHUNK, flat.size), dtype=bool)
    for k in range(0, flat.size, CHUNK):
        part = flat[k : k + CHUNK]
        if not np.isfinite(part, out=finite[: part.size]).all():
            return False
    return True


def checked(arr, shape, name):
    """A read-only view of ``arr`` as a C-contiguous float array: the
    caller's own memory when it is one already, and the caller's array stays
    writable.  Raises ValueError, naming the array ``name``, when its shape
    is not ``shape`` or an entry is not finite."""
    out = np.ascontiguousarray(arr, dtype=float).view()
    if out.shape != shape:
        raise ValueError(f"{name} must be {shape}, got {out.shape}")
    if not all_finite(out):
        raise ValueError(f"{name} entries must be finite")
    out.setflags(write=False)
    return out


def _corner_nonzero(bands, k):
    """True if a cell (d, j) of ``bands`` with d + j < k, in the top-left
    triangle of the band layout, is nonzero.

    Per tile of diagonals d0..d1-1, the columns before k - d1 + 1 lie in the
    triangle on every diagonal; the t x (t - 1) block right of them does
    where a + c < t - 1 (``_triangle``).
    """
    for d0 in range(0, k, TILE):
        d1 = min(d0 + TILE, k)
        tile = bands[d0:d1]
        if tile[:, : k - d1 + 1].any() or tile[:, k - d1 + 1 : k - d0][_triangle(d1 - d0)].any():
            return True
    return False


@functools.lru_cache(maxsize=TILE)
def _triangle(t):
    a, c = np.indices((t, t - 1))
    mask = a + c < t - 1
    mask.setflags(write=False)
    return mask


@functools.lru_cache(maxsize=256)
def _outside(rows, cols, above, below):
    """Fortran-order flat indices of the cells (a, c) of a rows x cols window
    with c - a > above or a - c > below, the cells outside the band."""
    a = np.arange(rows)[:, None]
    c = np.arange(cols)
    idx = np.flatnonzero(((c - a > above) | (a - c > below)).T)
    idx.setflags(write=False)
    return idx


@functools.lru_cache(maxsize=256)
def strictly_lower(rows, cols):
    """The rows x cols mask of the cells below the diagonal, Fortran-ordered
    like the windows that it masks, read-only."""
    low = np.greater.outer(np.arange(rows), np.arange(cols)).astype(float, order="F")
    low.setflags(write=False)
    return low


@functools.lru_cache(maxsize=256)
def _diagonals(b, rows):
    """Fortran-order flat indices of the cells (l + t, l), l < b and
    t = 0..rows - b, of a window of ``rows`` rows: row l holds the
    diagonal cell of column l and the rows - b cells below it."""
    idx = np.arange(b)[:, None] * (rows + 1) + np.arange(rows - b + 1)
    idx.setflags(write=False)
    return idx


class PanelFactorization:
    """A factorization A = G R made by ``factor_panels``: R, and the one
    record of G that both methods keep.

    ``x[k-1] = R(k, k)``.  ``tops`` holds R panel by panel, one
    Fortran-ordered array per panel: the panel's rows over the columns of
    its window, exact zeros past each row's reach, with the method's
    entries (reflection vectors or L's multipliers) below the diagonal of
    its leading block.  ``rows[k-1]``, built from it on demand, is
    R(k, k+1:k+width), which holds every nonzero of the row since ``width``
    is at least the upper bandwidth of R; there are n rows, the last one
    empty.

    Every factorization carries its inverse factor G^{-1} (U^T for QR,
    L^{-1} for LU) as (u, w): G^{-1} = G_{n-1} ... G_0 is a descending
    product of the blocks G_k = I - u_k w_k^T on rows and columns k..k+r,
    with ``u`` and ``w`` (n, r+1), zero past the matrix edge.  The
    inversions read only (u, w); ``inverse_product`` builds G^{-1}'s blocks
    from it on demand.

    The generator stage takes each panel's explicit transforms from
    ``panel_transform(i, u, w, out)``: panel i's (M, F), F the descending
    product of its blocks and M the factor of their ascending product, or
    None where the stage needs none (LU).  ``transforms[i]`` is the pair
    that ``factor_panels`` kept for the panel (QR's panels with a wide
    right block, every panel of LU's loop), read-only, so that threads can
    share it, and None for the others, whose pair each method's class
    builds on each call (``build_transform``): every panel's transform is
    built once per inversion.
    """

    def __init__(self, n, r, x, tops, width, u, w, transforms=None):
        self.n = n
        self.r = r
        self.x = x
        self.tops = tops
        self.width = width
        self.u = u
        self.w = w
        self.transforms = transforms or [None] * len(tops)

    def panel_transform(self, i, u, w, out):
        """Panel i's (M, F): the kept pair, or else the one that
        ``build_transform`` makes from the panel's (b + r) x b matrices u
        and w.  ``out`` is the caller's Fortran (b + r) x (b + r) buffer,
        its last r columns [0; I]: a builder may write F's first b columns
        into it and return it as F (LU's does), so the caller owns the F it
        gets until its next call with that buffer."""
        kept = self.transforms[i]
        return self.build_transform(i, u, w, out) if kept is None else kept

    @property
    def rows(self):
        return [top[j, j + 1 : j + 1 + self.width] for top in self.tops for j in range(len(top))]

    def r_dense(self):
        out = np.zeros((self.n, self.n))
        out[np.arange(self.n), np.arange(self.n)] = self.x
        for k0, row in enumerate(self.rows):
            out[k0, k0 + 1 : k0 + 1 + row.size] = row
        return out

    def inverse_product(self):
        """G^{-1} as a descending ``TransformProduct``: the blocks
        G_0 .. G_{n-r-1} whole, as one (n - r, r + 1, r + 1) array, and the
        product G_{n-2} ... G_{n-r} of the closing blocks, shrunk to sizes
        r..2 at the matrix edge, on the trailing r x r window (G_{n-1} is
        the identity)."""
        # not at the top: transforms imports generators, which imports banded
        from .transforms import TransformProduct

        n, r, u, w = self.n, self.r, self.u, self.w
        factors = np.eye(r + 1) - u[: n - r, :, None] * w[: n - r, None, :]
        last = np.eye(r)
        for j in range(r - 1):
            k, size = n - r + j, r - j
            last[j:] = (np.eye(size) - np.outer(u[k, :size], w[k, :size])) @ last[j:]
        return TransformProduct(n, r, factors, last)


def factor_panels(a, width, reduce):
    """The panel loop of the QR and LU factorizations of ``a``, lower banded
    of order r, whose R has each row's nonzeros within ``width`` columns
    right of its diagonal.

    Panels of PANEL columns, the last one running to column n, each read
    their (b + r) x (b + width) window, clipped at the matrix edge, with the
    r rows that the previous panel transformed in its corner, and
    ``reduce(w, k0, b, wide)`` turns the window's first b columns into the
    panel's part of R, with the method's r entries below each diagonal
    entry, in place.  Column k's transform spans rows k..k+r:
    O(n r (r + width)) arithmetic up to the panel's fill, O(n r^2) for a
    two-sided band and O(n^2 r) for a full upper part.

    The panel's transform reaches the block C right of it in one of two
    ways, which ``reduce`` picks.  It may apply LAPACK's blocked update to
    C itself and return None: QR does so on a block at most 2 (b + r)
    columns wide (``wide`` False, by ``wide_right_block``; every
    two-sided window's, at most 2 r wide), where an explicit matrix would
    cost QR as much as it saves.  Or it leaves C alone and returns the
    panel's (M, F) (``compact_transform``, ``reflection_transform`` or
    ``elimination_transform``): QR on a wider block (the long rows of a
    one-sided band), LU on every panel.  The loop then applies F in two
    ``dgemm`` calls, several times faster than the blocked update on a
    wide block: F[:b] C straight into the panel's new top, right of its
    b x b block, and F[b:] C, the r rows carried to the next panel, back
    into the window; the last panel has no C, and none is made.  The pair
    is kept, read-only, for the generator stage, which then builds none
    for that panel.

    Returns x (R's diagonal), the panels' Fortran-ordered ``tops``, an
    (n, r + 1) array whose columns 1.. hold the entries below each diagonal
    entry, zero past the matrix edge (column 0, a copy of x, is left to the
    method), and each panel's kept (M, F) or None.  Each panel's diagonal
    and the entries below it are one gather from its window, at indices
    cached per window height (``_diagonals``).
    """
    n, r = a.n, a.r_lower
    tops, kept = [], []
    below = np.empty((n, r + 1))
    carried = None
    for k0, k1 in panel_edges(n, r):
        b = k1 - k0
        w = a.panel(k0, b + r, min(b + width, n - k0), carried)
        transform = reduce(w, k0, b, wide_right_block(w.shape[1] - b, b + r))
        below[k0:k1] = w.T.reshape(-1)[_diagonals(b, b + r)]
        if transform is None:
            top = w[:b].copy(order="F")
        else:
            f, c = transform[1], w[:, b:]
            top = np.empty((b, w.shape[1]), order="F")
            top[:, :b] = w[:b, :b]
            if c.shape[1]:  # the last panel has no columns right of it
                dgemm(1.0, f[:b], c, c=top[:, b:], overwrite_c=1)
                # the carried rows go back into the window, as on the narrow
                # path: as an array of their own, alive across the next
                # panel's allocations, they fragmented the heap and raised
                # the peak RSS of a loop of one-sided inversions by 7%
                w[b:, b:] = dgemm(1.0, f[b:], c)
            for arr in transform:
                if arr is not None:
                    arr.setflags(write=False)
        tops.append(top)
        carried = w[b:, b:]
        kept.append(transform)
    return below[:, 0].copy(), tops, below, kept


def panel_edges(n, r):
    """The panels [k0, k1) of the factorizations: PANEL columns each, the
    last one running to column n and holding the bottom r rows."""
    m = n - r
    return [(k0, k0 + PANEL if k0 + PANEL < m else n) for k0 in range(0, m, PANEL)]


def wide_right_block(cols, rows):
    """True when a block of ``cols`` columns right of a panel is wider than
    twice its window's height ``rows`` (b + r)."""
    return cols > 2 * rows


def compact_transform(u, w):
    """The descending product G_{b-1} ... G_0 of the blocks G_j = I - u_j w_j^T
    as an explicit (b + r) x (b + r) matrix F, with u_j and w_j the columns
    of the (b + r) x b matrices ``u`` and ``w``, zero outside rows j..j+r.

    F = I - u y^T with y = w (I + stril X)^{-T} and X = w^T u (Schreiber &
    Van Loan's compact form): one product for X, one ``dtrsm`` for y and
    one product for F; returns y and F.  For reflections
    (u, w) = (tau v, v), F is the transposed orthogonal factor of the panel
    and y diag(tau) = u (I + striu X)^{-1} is the factor of their ascending
    product, LAPACK's V T.  Every entry of F that the band makes zero
    (column k > i + r of row i) is an exact zero.
    """
    x = w.T @ u
    # x is C-ordered, so dtrsm solves with its transpose, uncopied, from the right
    y = dtrsm(1.0, x.T, w, side=1, diag=1)
    return y, np.subtract(_identity(len(u)), u @ y.T)


def reflection_transform(v, t):
    """The product of a panel's reflections H_j = I - tau_j v_j v_j^T from
    LAPACK's compact WY form H_0 ... H_{b-1} = I - V T V^T (``dgeqrt``'s
    (b + r) x b unit lower V and b x b upper triangular T, tau = diag(T)):
    M = V T, the factor of the ascending product, and F = I - V M^T, the
    descending one, as an explicit (b + r) x (b + r) matrix.  Two products,
    no solve; returns M and F."""
    m = v @ t
    return m, np.subtract(_identity(len(v)), v @ m.T)


def elimination_transform(l, out=None):
    """The descending product of a panel's elimination steps
    G_j = I - l_j e_j^T, l_j the columns of the (b + r) x b ``l`` (zero on
    and above its diagonal): for L = I + l = [L11; L21],
    F = [[L11^{-1}, 0], [-L21 L11^{-1}, I]], from one ``dtrtri`` and one
    ``dgemm``.  Into ``out``, a (b + r) x (b + r) array whose last r
    columns already hold [0; I], only the first b columns are written, and
    ``out`` is returned; without it, F is a new Fortran-ordered array.
    Either way F's bits are the same."""
    b = l.shape[1]
    if out is None:
        out = np.eye(len(l), order="F")
    inv = dtrtri(l[:b], lower=1, unitdiag=1)[0]
    # dtrtri leaves the unit diagonal as it found it; inv is a fresh
    # Fortran-ordered b x b array, so its diagonal is every (b + 1)-th cell
    inv.T.reshape(-1)[:: b + 1] = 1.0
    out[:b, :b] = inv
    out[b:, :b] = dgemm(-1.0, l[b:], inv)
    return out


@functools.lru_cache(maxsize=8)
def _identity(size):
    eye = np.eye(size)
    eye.setflags(write=False)
    return eye


def require_two_sided(a):
    """The contract of the two-sided inversions: r_upper <= r_lower."""
    if a.r_upper > a.r_lower:
        raise ValueError(
            f"two-sided path needs r_upper <= r_lower, got {a.r_upper} > {a.r_lower}"
        )


def singularity_tol(n, norm):
    """A pivot or diagonal entry of R at or below n * eps * ||A||_inf is zero
    to working precision; ``norm`` is ||A||_inf."""
    return n * np.finfo(float).eps * norm


def random_band(n, r_lower, r_upper, seed, diag_shift=0.0):
    """Random banded test matrix with i.i.d. uniform [0, 1) entries in the band
    plus ``diag_shift`` added to the diagonal.

    The stream is drawn from a PCG64 generator seeded with ``seed``; a full
    n x n uniform block is drawn and then masked to the band, so the in-band
    entries depend only on (n, seed), not on the bandwidths.  Identical
    arguments give bit-identical matrices.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    dense = np.tril(np.triu(rng.random((n, n)), -r_lower), r_upper)
    if diag_shift:
        dense[np.arange(n), np.arange(n)] += diag_shift
    return BandedMatrix.from_dense(dense, r_lower, r_upper)


def prescribed_condition_band(n, r, target_cond, seed):
    """Random lower banded matrix (full upper part) with 2-norm condition
    number within a factor of 2 of ``target_cond``.

    Construction: A = U (D B), where U is a product of random orthogonal
    (r+1) x (r+1) blocks embedded along the diagonal (such a product is lower
    banded of order r with a full, rank-structured upper part), D is a
    diagonal of log-uniformly spaced values between 1 and 1/target_cond in a
    random order, and B = I + E is unit upper triangular with ||E||_2 <= 0.2.
    Since U is orthogonal and 0.8 <= sigma(B) <= 1.2, kappa_2(A) lands in
    [target_cond / 1.5, 1.5 * target_cond] by construction, no iteration
    needed.  B couples the graded diagonal so that inverting A genuinely
    suffers the usual eps * kappa error growth.  Raises ValueError unless
    ``target_cond`` is finite and at least 1.
    """
    if not 1.0 <= target_cond < np.inf:
        raise ValueError(f"target_cond must be finite and >= 1, got {target_cond}")
    if not n > r > 0:
        raise ValueError(f"need n > r > 0, got n={n}, r={r}")
    rng = np.random.Generator(np.random.PCG64(seed))

    def haar_orthogonal(m):
        q, rr = np.linalg.qr(rng.standard_normal((m, m)))
        return q * np.sign(np.diagonal(rr))

    u = np.eye(n)
    for k in range(n - r):
        u[:, k : k + r + 1] = u[:, k : k + r + 1] @ haar_orthogonal(r + 1)
    u[:, n - r :] = u[:, n - r :] @ haar_orthogonal(r)

    d = np.logspace(0.0, -np.log10(target_cond), n) if target_cond > 1.0 else np.ones(n)
    strict = np.triu(rng.random((n, n)), 1)
    norm = np.linalg.norm(strict, 2)
    coupling = np.eye(n) + (0.2 / norm) * strict if norm > 0 else np.eye(n)
    a = u @ (rng.permutation(d)[:, None] * coupling)
    return BandedMatrix.from_dense(a, r, n - 1)


# the text of a value by its ``write_rows`` code: the ``%`` conversion of a
# general value (0), and the text ``format(x, ".17g")`` gives exact 0, 1, -0
# and -1 (1-4)
LITERALS = ("%.17g", "0", "1", "-0", "-1")


def write_rows(fh, mat, sep, head="", tail="", join=""):
    """Write the rows of a 2-D float array as text, row i as
    ``head + sep.join(format(x, ".17g") for x in mat[i]) + tail``, the rows
    separated by ``join``.

    Exact 0.0, -0.0, 1.0 and -1.0 (71% of an LU generator set, almost all of
    a band's dense image) go in as their literal text, which is that of
    ``%.17g``; only the other values are formatted, by one ``%`` per chunk
    of whole rows, about TEXT_CHUNK values.  Each run of rows with the same
    pattern of literals takes one row template, built once per chunk and
    pattern: a chunk with no literal has the single all-``%.17g`` template,
    and rows that all differ, as a band's do, hold at most a chunk's worth
    of template text.
    """
    width = mat.shape[1]
    step = max(1, TEXT_CHUNK // width)
    for k in range(0, len(mat), step):
        chunk = mat[k : k + step]
        zero, one = chunk == 0.0, np.abs(chunk) == 1.0
        # each value's index into LITERALS, as uint8
        code = (zero | one) * (one + np.signbit(chunk) * np.uint8(2) + np.uint8(1))
        # each row's codes as one item, and the rows that start a run
        keys = code.view(np.dtype((np.void, width))).ravel()
        starts = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(chunk)]
        templates, rows = {}, []
        for i, end in zip(starts, starts[1:]):
            key = keys[i].tobytes()
            if key not in templates:
                templates[key] = head + sep.join([LITERALS[c] for c in key]) + tail
            rows += [templates[key]] * (end - i)
        if k:
            fh.write(join)
        fh.write(join.join(rows) % tuple(chunk[code == 0].tolist()))


def write_matrix(path, banded):
    """Write the matrix text format: header ``N r_lower r_upper``, then N lines
    of N comma-separated values (dense image, 17 significant digits).

    The image is formatted ROWS rows at a time, each block of rows cut from
    the band (``rows_block``): working memory O(ROWS n), with no n x n
    array."""
    n, r_lower, r_upper = banded.n, banded.r_lower, banded.r_upper
    with open(path, "w") as fh:
        fh.write(f"{n} {r_lower} {r_upper}\n")
        for i0 in range(0, n, ROWS):
            i1 = min(i0 + ROWS, n)
            j0, j1 = max(0, i0 - r_lower), min(n, i1 + r_upper)  # the block's band columns
            rows = np.zeros((i1 - i0, n))
            rows[:, j0:j1] = banded.rows_block(i0, i1, j0, j1)
            write_rows(fh, rows, ",", tail="\n")


def read_matrix(path):
    """Parse the matrix text format and validate the band pattern.

    The header's ``r_upper`` field may be an integer or the word ``full``
    (meaning n - 1).  Blank lines are skipped.  The data rows are parsed by
    one ``np.loadtxt`` call, with no comment character, so a ``#`` is a bad
    value.  Raises BandPatternError on malformed input or on nonzero entries
    outside the declared band.
    """
    with open(path) as fh:
        lines = (ln for ln in fh if not ln.isspace())
        head = next(lines, "").split()
        if not head:
            raise BandPatternError(f"{path}: empty matrix file")
        if len(head) != 3:
            raise BandPatternError(f"{path}: header must be 'N r_lower r_upper'")
        try:
            n = int(head[0])
            r_lower = int(head[1])
            r_upper = n - 1 if head[2].lower() == "full" else int(head[2])
        except ValueError as exc:
            raise BandPatternError(f"{path}: bad header: {exc}") from exc
        first = next(lines, None)
        if first is None:  # loadtxt would warn that it read no data
            dense = np.zeros((0, 0))
        else:
            try:
                rows = itertools.chain([first], lines)
                dense = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:  # a value that is no number, or a ragged row
                raise BandPatternError(f"{path}: bad data row: {exc}") from exc
    if len(dense) != n:
        raise BandPatternError(f"{path}: expected {n} data rows, found {len(dense)}")
    if dense.shape[1] != n:
        raise BandPatternError(f"{path}: expected {n} values per row")
    try:
        return BandedMatrix.from_dense(dense, r_lower, r_upper)
    except (BandPatternError, ValueError) as exc:
        raise BandPatternError(f"{path}: {exc}") from exc
