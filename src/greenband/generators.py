"""Lower Green generator representation of rank-structured matrices.

A matrix B is lower Green of order r when every submatrix
``B[k:, :k + r]`` (0-based, k = 0..n-r-1) has rank at most r; by Asplund's
theorem these are exactly the inverses of invertible lower banded matrices of
order r.  The part of B on and below the (r-1)-th superdiagonal (the *covered
region* ``j - i <= r - 1``) is reproduced by generator parameters

    B[i, j] = p(i) . a(i-1) ... a(s) . q(s-1)      (1-based block indices)

with 1 x r rows p, r x 1 columns q, r x r blocks a, an r x r closing block
``p_last`` for the bottom r rows, and the convention q(0) = I_r (not stored).

Generator sequences are stored 0-based: ``p[k]``, ``q[k]``, ``a[k]`` hold the
1-based parameters p(k+1), q(k+1), a(k+1).
"""

import numpy as np
from scipy.linalg.blas import dtrsm

from .dense_oracle import numerical_rank

CHUNK = 2**15  # doubles in a chunk of the blocks a(k), 256 KB

__all__ = [
    "BlockPartitionMap",
    "GreenGenerators",
    "entry",
    "reconstruct_structured",
    "tail_stacks",
    "check_green_rank",
    "multiply_upper_triangular",
    "backward_recursion",
    "covered_relative_error",
    "identity_residual",
    "write_generators",
    "read_generators",
]


class BlockPartitionMap:
    """The block partition underlying the generator representation.

    An n x n matrix is treated as an (n-r+2) x (n-r+2) block matrix with row
    block sizes (0, 1, ..., 1, r) and column block sizes (r, 1, ..., 1, 0),
    block indices starting at 0.  Scalar rows 0..n-r-1 map to block rows
    1..n-r and the bottom r rows share block row n-r+1; scalar columns
    0..r-1 form block column 0 and column r-1+j is block column j.  The
    covered region is exactly the block strictly lower triangle.
    """

    def __init__(self, n, r):
        if not n > r > 0:
            raise ValueError(f"need n > r > 0, got n={n}, r={r}")
        self.n = int(n)
        self.r = int(r)
        m = self.n - self.r
        self.row_sizes = np.array([0] + [1] * m + [r])
        self.col_sizes = np.array([r] + [1] * m + [0])

    @property
    def blocks(self):
        return self.n - self.r + 2

    def block_row(self, i):
        """Block row index of 0-based scalar row i."""
        return min(i, self.n - self.r) + 1

    def block_col(self, j):
        """Block column index of 0-based scalar column j."""
        return max(j - self.r + 1, 0)

    def row_range(self, bi):
        """0-based scalar row range [lo, hi) of block row bi."""
        lo = int(self.row_sizes[:bi].sum())
        return lo, lo + int(self.row_sizes[bi])

    def col_range(self, bj):
        lo = int(self.col_sizes[:bj].sum())
        return lo, lo + int(self.col_sizes[bj])

    def covered(self, i, j):
        """True when scalar entry (i, j) lies in the block strictly lower
        triangle, equivalently j - i <= r - 1."""
        return self.block_col(j) < self.block_row(i)


class GreenGenerators:
    """Generator parameters of an n x n lower Green matrix of order r.

    p : (n - r, r) rows, q : (n - r, r) columns, a : (n - r, r, r) blocks,
    p_last : (r, r) closing block.  Any finite parameter set defines a valid
    lower Green matrix; no further constraints are imposed.  C-contiguous
    float arrays are shared with the caller, not copied (the generators of a
    wide band are tens of MB); the instance holds read-only views of them so
    it can be shared across threads, and the caller's arrays stay writable.
    """

    def __init__(self, n, r, p, q, a, p_last):
        if not n > r > 0:
            raise ValueError(f"need n > r > 0, got n={n}, r={r}")
        self.n = int(n)
        self.r = int(r)
        self.p, self.q, self.a, self.p_last = (
            np.ascontiguousarray(arr, dtype=float).view() for arr in (p, q, a, p_last)
        )
        m = self.n - self.r
        if self.p.shape != (m, r) or self.q.shape != (m, r):
            raise ValueError(f"p and q must have shape {(m, r)}")
        if self.a.shape != (m, r, r):
            raise ValueError(f"a must have shape {(m, r, r)}")
        if self.p_last.shape != (r, r):
            raise ValueError(f"p_last must have shape {(r, r)}")
        for arr in (self.p, self.q, self.a, self.p_last):
            # as isfinite, but without an array of the generators' size
            if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
                raise ValueError("generator entries must be finite")
            arr.setflags(write=False)

    def p_row(self, i):
        """The generator row attached to 0-based matrix row i (from p_last for
        the bottom r rows)."""
        m = self.n - self.r
        return self.p[i] if i < m else self.p_last[i - m]

    def __repr__(self):
        return f"GreenGenerators(n={self.n}, r={self.r})"


def entry(g, i, j):
    """Single covered entry B[i, j] (0-based) from the generators.

    Raises ValueError when (i, j) lies outside the covered region
    ``j - i <= r - 1``.
    """
    n, r = g.n, g.r
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"index ({i}, {j}) out of range")
    if j - i > r - 1:
        raise ValueError(f"({i}, {j}) is outside the covered region j - i <= r - 1")
    bi = min(i, n - r) + 1  # 1-based block row; the bottom r rows share one
    vec = g.p_row(i)
    if j < r:
        # block column 0 spans matrix columns 0..r-1 and carries q(0) = I_r
        for t in range(bi - 2, -1, -1):  # a(bi-1) ... a(1), 1-based
            vec = vec @ g.a[t]
        return float(vec[j])
    # block column s-1 (1-based s = j - r + 2) is matrix column j
    s = j - r + 2
    for t in range(bi - 2, s - 2, -1):  # a(bi-1) ... a(s), 1-based
        vec = vec @ g.a[t]
    return float(vec @ g.q[s - 2])


def reconstruct_structured(g):
    """Dense n x n image of the covered region (zero above it).

    Runs the tail-stack recursion once, emitting one column segment per block
    column; cost O(n^2 r^2) for the full image, never O(n^3).
    """
    n, r = g.n, g.r
    out = np.zeros((n, n))
    stack = np.zeros((n, r))
    stack[n - r :] = g.p_last
    out[n - r :, n - 1] = stack[n - r :] @ g.q[n - r - 1]
    for k in range(n - r, 0, -1):  # 1-based block row index
        stack[k:] = stack[k:] @ g.a[k - 1]
        stack[k - 1] = g.p[k - 1]
        if k >= 2:
            out[k - 1 :, r + k - 2] = stack[k - 1 :] @ g.q[k - 2]
        else:
            out[:, :r] = stack
    return out


def tail_stacks(g):
    """All tail stacks P_k, returned as a list with element k-1 holding P_k
    (1-based k = 1..n-r+1).

    P_{n-r+1} = p_last and P_k = [p(k); P_{k+1} a(k)]; each P_k has n-k+1
    rows and satisfies ``P_k q(k-1) = B[k-1:, column of block k-1]``.
    """
    n, r = g.n, g.r
    stacks = [g.p_last]
    cur = g.p_last
    for k in range(n - r, 0, -1):
        cur = np.vstack([g.p[k - 1], cur @ g.a[k - 1]])
        stacks.append(cur)
    stacks.reverse()
    return stacks


def check_green_rank(b, r, tol, upper=False):
    """True iff every submatrix B[k:, :k + r] (k = 0..n-r-1) has numerical
    rank at most r.

    With ``upper=True`` the transposed pattern ``B[:k + r, k:]`` is checked
    instead (the two-sided case).
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if b.shape != (n, n):
        raise ValueError("input must be square")
    if upper:
        b = b.T
    for k in range(n - r):
        if numerical_rank(b[k:, : k + r], tol) > r:
            return False
    return True


def multiply_upper_triangular(s, g):
    """Generators of C = S B for upper triangular S and lower Green B.

    The product is again lower Green of the same order: q and a carry over
    unchanged, the closing block becomes S[n-r:, n-r:] p_last, and each p row
    picks up the action of the corresponding row of S on the tail stack.
    """
    s = np.asarray(s, dtype=float)
    n, r = g.n, g.r
    if s.shape != (n, n):
        raise ValueError(f"S must be {n} x {n}")
    if np.any(np.tril(s, -1) != 0.0):
        raise ValueError("S must be upper triangular")
    p_last = s[n - r :, n - r :] @ g.p_last
    p_out = np.empty_like(g.p)
    stack = g.p_last  # tail stack of B, grown downward from the closing block
    for k in range(n - r, 0, -1):
        sa = stack @ g.a[k - 1]
        p_out[k - 1] = s[k - 1, k - 1] * g.p[k - 1] + s[k - 1, k:] @ sa
        stack = np.vstack([g.p[k - 1], sa])
    return GreenGenerators(n, r, p_out, g.q, g.a, p_last)


def empty_generators(n, r):
    """Uninitialized p (n - r, r), q (n - r, r), a (n - r, r, r) and p_last
    (r, r) for the generators of an inverse, as views of one array.

    The inversions take it before any working array, so the generators they
    return are a single allocation, made first.  Repeated inversions then
    reuse the space earlier, freed generators left.  With separate arrays, or
    with this one taken after the factorization, working arrays or a small
    p_last could land in that space first, and the process grew by a whole
    set of blocks once more: on n = 1000, r = 48, peak RSS of a loop keeping
    two inversions alive was 135 MB in some runs and 149 MB in others
    (glibc 2.36).
    """
    m = n - r
    buf = np.empty(m * r * (r + 2) + r * r)
    p = buf[: m * r].reshape(m, r)
    q = buf[m * r : 2 * m * r].reshape(m, r)
    a = buf[2 * m * r : -r * r].reshape(m, r, r)
    return p, q, a, buf[-r * r :].reshape(r, r)


def backward_recursion(x, rows, width, a, t, p):
    """Rows p(k) of the generators of B = R^{-1} V, by back substitution.

    R is upper triangular with diagonal ``x``; ``rows[k]`` holds the at most
    ``width`` entries of R(k, k+1:) that can be nonzero.  V is lower Green
    with generator rows c(k), held in ``p`` on entry, and blocks ``a``; B
    shares ``a`` and V's columns q, and ``t`` is B's tail stack at the row
    below the last one walked.  Then

        p(k) = (c(k) - R(k, k+1:) P_{k+1} a(k)) / x_k,

    where the tail stack P_k = [p(k); P_{k+1} a(k)] is kept to its first
    ``width`` rows, all that a row of R reaches.  Overwrites ``p``, last row
    to first, and returns the final stack as a new array.

    The stack lives in two buffers allocated once per call: each row writes
    P_{k+1} a(k) straight into rows 1.. of the buffer the previous row did
    not, updates p(k) in place and stores it as row 0, so no row allocates.
    The inversions use the panel-blocked ``inverse_generators``; this per-row
    form is the reference it is tested against.
    """
    h, r = t.shape
    bufs = np.empty((2, max(h, width) + 1, r))
    prod = np.empty(r)
    for k0 in range(len(a) - 1, -1, -1):
        nxt = bufs[k0 & 1]
        ta = np.dot(t, a[k0], out=nxt[1 : h + 1])
        row = rows[k0]
        pk = p[k0]
        pk -= np.dot(row, ta[: row.size], out=prod)
        pk /= x[k0]
        nxt[0] = pk
        h = min(h + 1, width)
        t = nxt[:h]
    return t.copy()


def _skewed(b, r, count):
    """``count`` zero b x (b + r) matrices, C-ordered, and for each a
    b x (r + 1) view whose row l is the matrix's cells (l, l..l+r).  Those
    cells start at l (b + r + 1) in the matrix's buffer, so a buffer b cells
    longer, read as rows of b + r + 1, holds them at the start of each row."""
    buf = np.zeros((count, b * (b + r + 1)))
    mats = buf[:, : b * (b + r)].reshape(count, b, b + r)
    return mats, buf.reshape(count, b, b + r + 1)[:, :, : r + 1]


def inverse_generators(tops, width, u, w, out):
    """Generators of B = R^{-1} V, one panel of rows of R at a time.

    R is upper triangular.  ``tops`` holds its rows panel by panel, top to
    bottom: for the panel J = [j0, j1) of b rows, ``top`` is R(J, j0:), as
    many columns as the panel's rows reach, exact zeros past each row's reach
    of ``width`` columns right of its diagonal; what is below the diagonal
    of its leading b x b block is not read.  V = G_{n-1} ... G_0 is a
    descending product of the (r+1) x (r+1) blocks
    G_k = I - u_k w_k^T = [[c(k), d(k)], [a(k), q(k)]] at rows and columns
    k..k+r, with ``u``, ``w`` (n, r+1) zero past the matrix edge, where each
    G_k is a reflection (G_k^2 = I) or an elimination step (w_k = e_1).  B
    shares a and q.  Writes into ``out``, the arrays of ``empty_generators``.

    With Z_k = R^{-1} G_{n-1} ... G_k, row k of the generators is
    p(k) = Z_k[k, k:k+r] and the tail stack at row k is Z_k[k:, k:k+r], of
    which a row of R reaches the first ``width`` rows.  For a panel J, with U
    and W its u_k and w_k as (b+r) x b banded matrices and X = W^T U:

    - F = I - U (I + stril X)^{-1} W^T is G_{j1-1} ... G_{j0} on the rows
      and columns j0..j1+r-1 (Schreiber & Van Loan's compact form);
    - Z = R(J, J)^{-1} (F[:b] - R(J, j1:) P F[b:]) is Z_{j0} there, where P
      is the stack below J (none below the last panel);
    - the stack at row j0 is [Z[:, :r]; P F[b:, :r]], cut to ``width`` rows;
    - row k of Z_k is row k of Z times G_{j0} ... G_{k-1}, the compact form
      of the panel's first k - j0 blocks in ascending order, that is
      Z - tril(Z U (I + striu X)^{-1}, -1) W^T.  For reflections that
      product is the inverse of G_{k-1} ... G_{j0}; for elimination steps
      it is not, but the correction then changes only columns left of k.

    The last panel holds the bottom r rows too.  Their prefix stops at
    G_{m-1} (m = n - r): the closing block p_last is Z_m[m:, m:m+r].

    A panel costs about ten BLAS calls, three of them ``dtrsm``, and
    O(b (b + r)^2 + h r (b + r)) arithmetic for a stack of h <= width rows:
    O(n r^2) in all for a two-sided band (width <= 2r, r up to b) and
    O(n^2 r) for a full upper part (width n - 1).  The blocks a(k) are built
    first, in chunks of CHUNK doubles, so that each chunk's second pass finds
    it in cache.
    """
    n, r = u.shape[0], u.shape[1] - 1
    m = n - r
    p, q, a, p_last = out
    shift = np.eye(r + 1)[1:]  # [E | e_r]
    np.multiply(u[:m, 1:], w[:m, r:], out=q)
    np.subtract(shift[:, r], q, out=q)
    step = max(1, CHUNK // (r * r))
    for k0 in range(0, m, step):
        k1 = min(k0 + step, m)
        np.einsum("ki,kj->kij", u[k0:k1, 1:], w[k0:k1, :r], out=a[k0:k1])  # faster than a broadcast multiply
        np.subtract(shift[:, :r], a[k0:k1], out=a[k0:k1])
    stacks = np.empty((2, width, r))  # each panel writes the one it does not read
    t = stacks[1, :0]
    scratch = {}
    j0 = n
    for i, top in enumerate(reversed(tops)):
        b, h = len(top), len(t)
        j0 -= b
        if b not in scratch:
            scratch[b] = _skewed(b, r, 3) + (np.eye(b + r), np.tri(b, b, -1))
        (ut, wt, z), bands, eye, low = scratch[b]
        bands[0] = u[j0 : j0 + b]
        bands[1] = w[j0 : j0 + b]
        # ut = U^T, wt = W^T and z are C-ordered, so dtrsm solves with their
        # transposes, uncopied, from the right
        x = wt @ ut.T
        f = np.subtract(eye, ut.T @ dtrsm(1.0, x.T, wt.T, side=1, diag=1).T)
        np.dot(top[:, b : b + h] @ t, f[b:], out=z)
        np.subtract(f[:b], z, out=z)
        z[:] = dtrsm(1.0, top[:, :b], z.T, side=1, trans_a=1, overwrite_b=1).T
        nxt = stacks[i & 1]
        keep = min(b, width)
        nxt[:keep] = z[:keep, :r]
        height = min(b + h, width)
        np.dot(t[: height - keep], f[b:, :r], out=nxt[keep:height])
        t = nxt[:height]
        prefix = dtrsm(1.0, x.T, (ut @ z.T).T, side=1, lower=1, trans_a=1, diag=1, overwrite_b=1)
        prefix *= low
        e = min(m - j0, b)  # rows e.. of the last panel are the bottom r rows,
        prefix[:, e:] = 0.0  # whose prefix stops at row m
        z -= prefix @ wt
        p[j0 : j0 + e] = bands[2, :e, :r]
        if e < b:
            p_last[:] = z[e:, e : e + r]
    return GreenGenerators(n, r, p, q, a, p_last)


def covered_relative_error(b, reference, r):
    """Frobenius-norm relative error between the covered parts (entries with
    ``j - i <= r - 1``) of ``b`` and ``reference``."""
    b = np.asarray(b, dtype=float)
    reference = np.asarray(reference, dtype=float)
    cov_b = np.tril(b, r - 1)
    cov_ref = np.tril(reference, r - 1)
    return float(np.linalg.norm(cov_b - cov_ref) / np.linalg.norm(cov_ref))


def identity_residual(a, g):
    """Self-contained consistency check of generators against their matrix.

    For B = A^{-1} every strictly-lower entry of A @ B equals zero and is a
    combination of covered entries of B only, so it can be evaluated from the
    reconstruction without knowing A^{-1}.  Returns the largest strictly-lower
    entry of A @ reconstruct(g), scaled by ||A||_inf ||B||_inf.
    """
    b = reconstruct_structured(g)
    n = a.n
    prod = np.zeros((n, n))
    for off in range(-a.r_upper, a.r_lower + 1):
        vals = a.bands[a.r_upper + off]
        j0 = max(0, -off)
        j1 = min(n, n - off)
        idx = np.arange(j0, j1)
        prod[idx + off] += vals[j0:j1, None] * b[idx]
    scale = a.norm_inf() * np.linalg.norm(b, np.inf)
    return float(np.abs(np.tril(prod, -1)).max() / scale)


def _fmt(x):
    return format(float(x), ".17g")


def write_generators(path, g):
    """Write the generator interchange format (JSON, 17 significant digits).

    Fields: n, r, p (n-r rows of r values), q (n-r columns of r values),
    a (n-r blocks of r*r values, row-major), p_last (r*r, row-major).
    """
    m = g.n - g.r

    def row(vals):
        return "[" + ", ".join(_fmt(v) for v in vals) + "]"

    def rows(mat):
        return "[" + ", ".join(row(v) for v in mat) + "]"

    with open(path, "w") as fh:
        fh.write("{\n")
        fh.write(f'  "n": {g.n},\n')
        fh.write(f'  "r": {g.r},\n')
        fh.write(f'  "p": {rows(g.p)},\n')
        fh.write(f'  "q": {rows(g.q)},\n')
        fh.write(f'  "a": {rows(g.a.reshape(m, g.r * g.r))},\n')
        fh.write(f'  "p_last": {row(g.p_last.reshape(g.r * g.r))}\n')
        fh.write("}\n")


def read_generators(path):
    """Parse the generator interchange format written by write_generators."""
    import json

    with open(path) as fh:
        data = json.load(fh)
    try:
        n = int(data["n"])
        r = int(data["r"])
        m = n - r
        p = np.array(data["p"], dtype=float).reshape(m, r)
        q = np.array(data["q"], dtype=float).reshape(m, r)
        a = np.array(data["a"], dtype=float).reshape(m, r, r)
        p_last = np.array(data["p_last"], dtype=float).reshape(r, r)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed generator file: {exc}") from exc
    return GreenGenerators(n, r, p, q, a, p_last)
