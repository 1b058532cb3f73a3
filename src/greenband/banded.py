"""Banded matrix container, test-matrix generators and the matrix text format.

A matrix A is *lower banded of order r* when ``A[i, j] == 0`` for
``i - j > r`` (the upper part may be full), and *two-sided banded* when in
addition ``A[i, j] == 0`` for ``j - i > r_upper``.  Storage is by diagonals
(LAPACK band layout): ``bands[r_upper + i - j, j] == A[i, j]``, which gives
O(1) entry access and O(length) row/column gathers.

All indices in this module are 0-based.
"""

import numpy as np

from .errors import BandPatternError

__all__ = [
    "PANEL",
    "BandedMatrix",
    "singularity_tol",
    "random_band",
    "prescribed_condition_band",
    "read_matrix",
    "write_matrix",
]

PANEL = 32  # columns per panel of the blocked QR and LU factorizations


class BandedMatrix:
    """N x N real matrix with lower bandwidth ``r_lower`` and upper bandwidth
    ``r_upper`` (``r_upper == n - 1`` means the upper part is unconstrained).

    ``bands`` is copied, and its cells outside the matrix (the corner
    triangles of the band layout) must be zero.  Instances are immutable after
    construction; the band array is marked read-only so they can be shared
    freely between threads.
    """

    def __init__(self, n, r_lower, r_upper, bands):
        if not n > r_lower > 0:
            raise ValueError(f"need n > r_lower > 0, got n={n}, r_lower={r_lower}")
        if not 0 <= r_upper <= n - 1:
            raise ValueError(f"r_upper must be in [0, n-1], got {r_upper}")
        bands = np.array(bands, dtype=float, order="C")
        if bands.shape != (r_lower + r_upper + 1, n):
            raise ValueError(
                f"bands must have shape {(r_lower + r_upper + 1, n)}, got {bands.shape}"
            )
        if not np.all(np.isfinite(bands)):
            raise ValueError("band entries must be finite")
        # cell (d, j) holds A[j + d - r_upper, j], so the first r_upper - d
        # cells of a superdiagonal and the last d - r_upper cells of a
        # subdiagonal lie outside the matrix
        corners = [bands[d, : r_upper - d] for d in range(r_upper)]
        corners += [bands[d, n + r_upper - d :] for d in range(r_upper + 1, bands.shape[0])]
        if any(c.any() for c in corners):
            raise ValueError("bands has nonzero cells outside the matrix")
        self.n = int(n)
        self.r_lower = int(r_lower)
        self.r_upper = int(r_upper)
        self.bands = bands
        self.bands.setflags(write=False)

    @property
    def full_upper(self):
        """True when no upper-bandwidth constraint is imposed."""
        return self.r_upper == self.n - 1

    @classmethod
    def from_dense(cls, dense, r_lower, r_upper):
        """Compress a dense array, requiring exact zeros outside the band."""
        dense = np.asarray(dense, dtype=float)
        n = dense.shape[0]
        if dense.shape != (n, n):
            raise ValueError("dense input must be square")
        bands = np.zeros((r_lower + r_upper + 1, n))
        for off in range(-r_upper, r_lower + 1):
            diag = np.diagonal(dense, offset=-off)
            j0 = max(0, -off)
            bands[r_upper + off, j0 : j0 + diag.size] = diag
        # everything off the band must vanish exactly
        off_band = dense - np.tril(np.triu(dense, -r_lower), r_upper)
        if np.any(off_band != 0.0):
            bad = np.argwhere(off_band != 0.0)[0]
            raise BandPatternError(
                f"entry ({bad[0]}, {bad[1]}) is nonzero outside the declared band"
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

    def _row_band(self):
        """Read-only (n, r_lower + r_upper + 1) strided view of ``bands`` whose
        row i holds A[i, i - r_lower : i + r_upper + 1].

        Every cell of the view lies inside the band array.  A cell whose
        column falls outside the matrix reads one of the zero corner cells,
        except in row 0 (columns before 0) and row n - 1 (columns past n - 1),
        where it wraps onto entries of row n - 1 and row 0.
        """
        d, n = self.bands.shape
        step = self.bands.strides[1]
        # A[i, i - r_lower + t] sits at flat offset (d-1-t) n + i - r_lower + t
        return np.lib.stride_tricks.as_strided(
            self.bands.ravel()[(d - 1) * n - self.r_lower :],
            shape=(n, d),
            strides=(step, (1 - n) * step),
            writeable=False,
        )

    def row_segment(self, i, j0, j1):
        """Values A[i, j0:j1] as a dense vector (zeros outside the band)."""
        return self.rows_block(i, i + 1, j0, j1)[0]

    def col_segment(self, j, i0, i1):
        """Values A[i0:i1, j] as a dense vector (zeros outside the band)."""
        return self.rows_block(i0, i1, j, j + 1)[:, 0]

    def rows_block(self, i0, i1, j0, j1):
        """Dense block A[i0:i1, j0:j1] in Fortran order, zero outside the band;
        rows past the last one read as zero (0 <= i0, 0 <= j0 <= j1 <= n).

        One strided copy moves the band cells of all rows at once: row i0 + a
        of the row-band view is written along a skewed view of a buffer
        padded on both sides, and the pads take the cells outside the block's
        columns, the wrapped cells of rows 0 and n - 1 among them.
        """
        d = self.bands.shape[0]
        rows, cols = i1 - i0, j1 - j0
        live = max(0, min(i1, self.n) - i0)
        s = i0 - self.r_lower - j0  # block column of row-band cell (a, t) is a + t + s
        t_lo = max(0, -s - max(live - 1, 0))
        t_hi = min(d, cols - s)
        pad = max(0, -(t_lo + s))
        buf = np.zeros((rows, pad + max(cols, live + t_hi + s - 1)), order="F")
        if live and t_hi > t_lo:
            skew = np.lib.stride_tricks.as_strided(
                buf[:, pad + t_lo + s :],
                shape=(live, t_hi - t_lo),
                strides=(buf.strides[0] + buf.strides[1], buf.strides[1]),
            )
            skew[...] = self._row_band()[i0 : i0 + live, t_lo:t_hi]
        return buf[:, pad : pad + cols]

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
        """Max absolute row sum, computed from the compressed band.

        The row sums accumulate over blocks of 32 diagonals of the row-band
        view; rows 0 and n - 1, whose cells outside the matrix wrap around,
        are summed on their own.
        """
        band = self._row_band().T  # band[t, i] = A[i, i - r_lower + t]
        chunk = 32
        sums = np.zeros(self.n)
        buf = np.empty((min(chunk, len(band)), self.n))
        for t0 in range(0, len(band), chunk):
            blk = band[t0 : t0 + chunk]
            sums += np.abs(blk, out=buf[: len(blk)]).sum(axis=0)
        sums[0] = np.abs(band[self.r_lower : self.r_lower + self.n, 0]).sum()
        sums[-1] = np.abs(band[max(0, self.r_lower + 1 - self.n) : self.r_lower + 1, -1]).sum()
        return float(sums.max())

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
    if not n > r_lower > 0:
        raise ValueError(f"need n > r_lower > 0, got n={n}, r_lower={r_lower}")
    if not 0 <= r_upper <= n - 1:
        raise ValueError(f"r_upper must be in [0, n-1], got {r_upper}")
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
    suffers the usual eps * kappa error growth.
    """
    if target_cond < 1.0:
        raise ValueError("target_cond must be >= 1")
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


def _fmt(x):
    return format(float(x), ".17g")


def write_matrix(path, banded):
    """Write the matrix text format: header ``N r_lower r_upper``, then N lines
    of N comma-separated values (dense image, 17 significant digits)."""
    dense = banded.to_dense()
    with open(path, "w") as fh:
        fh.write(f"{banded.n} {banded.r_lower} {banded.r_upper}\n")
        for row in dense:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_matrix(path):
    """Parse the matrix text format and validate the band pattern.

    The header's ``r_upper`` field may be an integer or the word ``full``
    (meaning n - 1).  Raises BandPatternError on malformed input or on nonzero
    entries outside the declared band.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise BandPatternError(f"{path}: empty matrix file")
    head = lines[0].split()
    if len(head) != 3:
        raise BandPatternError(f"{path}: header must be 'N r_lower r_upper'")
    try:
        n = int(head[0])
        r_lower = int(head[1])
        r_upper = n - 1 if head[2].lower() == "full" else int(head[2])
    except ValueError as exc:
        raise BandPatternError(f"{path}: bad header: {exc}") from exc
    if len(lines) != n + 1:
        raise BandPatternError(f"{path}: expected {n} data rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            vals = [float(tok) for tok in ln.split(",")]
        except ValueError as exc:
            raise BandPatternError(f"{path}: bad value: {exc}") from exc
        if len(vals) != n:
            raise BandPatternError(f"{path}: expected {n} values per row")
        rows.append(vals)
    try:
        return BandedMatrix.from_dense(np.array(rows), r_lower, r_upper)
    except (BandPatternError, ValueError) as exc:
        raise BandPatternError(f"{path}: {exc}") from exc
