"""Lower Green generator representation of rank-structured matrices.

A matrix B is lower Green of order r when every submatrix
``B[k:, :k + r]`` (0-based, k = 0..n-r-1) has rank at most r; by Asplund's
theorem these are exactly the inverses of invertible lower banded matrices of
order r.  The part of B on and below the (r-1)-th superdiagonal (the *covered
region* ``j - i <= r - 1``) is reproduced by generator parameters

    B[i, j] = p(i) . a(i-1) ... a(s) . q(s-1)      (1-based block indices)

with 1 x r rows p, r x 1 columns q, r x r blocks a, an r x r closing block
``p_last`` for the bottom r rows, and the convention q(0) = I_r (not stored).
The indices are those of a block partition of B: row blocks of sizes
(0, 1, ..., 1, r) and column blocks of sizes (r, 1, ..., 1, 0), n - r + 2 of
each, numbered from 0.  Matrix row i (0-based) lies in block row
min(i, n - r) + 1, the bottom r rows sharing the last one; matrix columns
0..r-1 form block column 0 and column r - 1 + j is block column j.  The
covered region is exactly the block strictly lower triangle.

Generator sequences are stored 0-based: ``p[k]``, ``q[k]``, ``a[k]`` hold the
1-based parameters p(k+1), q(k+1), a(k+1).
"""

import functools

import numpy as np
from scipy.linalg.blas import dtrsm

from .banded import CHUNK, ROWS, all_finite, checked, strictly_lower, write_rows
from .dense_oracle import norm_inf, numerical_rank

TREE = 64  # blocks in a chain from which ``entry`` multiplies them pairwise
TREE_MAX_R = 16  # past this order a block product costs more than the call it saves
IMAGE_PANEL = 64  # rows per panel of ``reconstruct_structured``

__all__ = [
    "GreenGenerators",
    "entry",
    "reconstruct_structured",
    "tail_stacks",
    "check_green_rank",
    "multiply_upper_triangular",
    "covered_relative_error",
    "identity_residual",
    "write_generators",
    "read_generators",
]


class GreenGenerators:
    """Generator parameters of an n x n lower Green matrix of order r.

    p : (n - r, r) rows, q : (n - r, r) columns, a : (n - r, r, r) blocks,
    p_last : (r, r) closing block.  Any finite parameter set defines a valid
    lower Green matrix; no further constraints are imposed, and a wrong
    shape or an entry that is not finite raises ValueError naming the array.
    C-contiguous float arrays are shared with the caller, not copied; the
    instance holds read-only views of them so it can be shared across
    threads, and the caller's arrays stay writable.

    The generators of an inverse hold the factors (u, w) of their blocks
    instead of a: a(k) = S - u_k[1:] w_k[:r]^T, S the r x r shift, is an
    outer product off S, so such an instance takes O(n r) memory where a
    takes (n - r) r^2 numbers (17.5 MB of an 18.3 MB set at n = 1000,
    r = 48).  ``a`` is then built on first read, kept and read-only; reads
    from several threads at once all return the array stored first.
    """

    def __init__(self, n, r, p, q, a, p_last):
        self._hold(n, r, p, q, p_last)
        self._a = checked(a, (self.n - self.r, self.r, self.r), "a")

    @classmethod
    def _compact(cls, n, r, p, q, p_last, u, w):
        """Generators with a(k) = S - u_k[1:] w_k[:r]^T for k < n - r, from
        the (n, r + 1) factors of an inverse's blocks I - u_k w_k^T.

        max |a(k) - S| is max |u_k[1:]| max |w_k[:r]| (a rounded product is
        monotone in each factor), and S - x is finite for finite x, so that
        product being finite for every k is exactly every a(k) being finite:
        an O(n r) check.  The bound over all k decides first, as reductions
        along rows of r values cost several times more; only when it is not
        finite does the bound of each k."""
        g = cls.__new__(cls)
        g._hold(n, r, p, q, p_last)
        m = g.n - g.r
        u, w = u[:m, 1:].view(), w[:m, :r].view()
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(np.abs(u).max() * np.abs(w).max()) or all_finite(
                np.abs(u).max(1) * np.abs(w).max(1)
            )
        if not finite:
            raise ValueError("generator entries must be finite")
        for arr in (u, w):
            arr.setflags(write=False)
        g._u, g._w = u, w
        return g

    def _hold(self, n, r, p, q, p_last):
        """Shape- and finiteness-checked read-only views of p, q and
        p_last."""
        if not n > r > 0:
            raise ValueError(f"need n > r > 0, got n={n}, r={r}")
        self.n, self.r = int(n), int(r)
        m = self.n - self.r
        self.p = checked(p, (m, self.r), "p")
        self.q = checked(q, (m, self.r), "q")
        self.p_last = checked(p_last, (self.r, self.r), "p_last")

    @property
    def a(self):
        a = self.__dict__.get("_a")
        if a is None:
            a = _blocks(self._u, self._w)
            a.setflags(write=False)
            # threads that read a first at the same time each build the
            # same bytes, and setdefault, atomic, keeps the first array stored
            a = self.__dict__.setdefault("_a", a)
        return a

    def p_row(self, i):
        """The generator row attached to 0-based matrix row i (from p_last for
        the bottom r rows)."""
        m = self.n - self.r
        return self.p[i] if i < m else self.p_last[i - m]

    def __repr__(self):
        return f"GreenGenerators(n={self.n}, r={self.r})"


def _blocks(u, w):
    """The blocks a(k) = S - u_k w_k^T, S the r x r shift (ones on its
    superdiagonal), for the rows of u and w (m x r each), in chunks of CHUNK
    doubles, so that each chunk's second pass finds it in cache."""
    m, r = u.shape
    a = np.empty((m, r, r))
    step = max(1, CHUNK // (r * r))
    for k0 in range(0, m, step):
        chunk = a[k0 : k0 + step]
        np.einsum("ki,kj->kij", u[k0 : k0 + step], w[k0 : k0 + step], out=chunk)  # faster than a broadcast multiply
        # negated, then S's ones added through one strided view, with no
        # broadcast over the chunk's short r x r blocks
        np.subtract(0.0, chunk, out=chunk)
        chunk.reshape(len(chunk), r * r)[:, 1 :: r + 1] += 1.0
    return a


def _tree(vec, blocks):
    """vec . blocks[-1] ... blocks[0], the blocks multiplied pairwise: one
    ``np.matmul`` per halving, with vec taking the leading block of an odd
    count."""
    while len(blocks) > 1:
        if len(blocks) & 1:
            vec = vec @ blocks[-1]
            blocks = blocks[:-1]
        blocks = np.matmul(blocks[1::2], blocks[0::2])
    return vec @ blocks[0]


def entry(g, i, j):
    """Single covered entry B[i, j] (0-based) from the generators.

    The chain a(bi-1) ... a(s) between row and column is applied to p(i)
    one block at a time.  From TREE blocks on (for r <= TREE_MAX_R) the
    blocks are instead multiplied pairwise, log2 of the chain length calls
    for O(d r^3) arithmetic instead of d calls for O(d r^2); LU blocks are
    not bounded by 1, so when that product overflows the chain is walked
    block by block after all.

    Raises ValueError when (i, j) lies outside the covered region
    ``j - i <= r - 1``.
    """
    n, r = g.n, g.r
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"index ({i}, {j}) out of range")
    if j - i > r - 1:
        raise ValueError(f"({i}, {j}) is outside the covered region j - i <= r - 1")
    bi = min(i, n - r) + 1  # 1-based block row; the bottom r rows share one
    # block column 0 spans matrix columns 0..r-1 and carries q(0) = I_r; block
    # column s-1 (1-based s = j - r + 2) is matrix column j
    lo = 0 if j < r else j - r + 1
    blocks = g.a[lo : bi - 1]  # a(lo+1) ... a(bi-1), 1-based

    def close(vec):
        return float(vec[j] if j < r else vec @ g.q[lo - 1])

    if len(blocks) >= TREE and r <= TREE_MAX_R:
        with np.errstate(over="ignore", invalid="ignore"):
            val = close(_tree(g.p_row(i), blocks))
        if np.isfinite(val):
            return val
    vec = g.p_row(i)
    for blk in blocks[::-1]:
        vec = vec @ blk
    return close(vec)


def reconstruct_structured(g):
    """Dense n x n image of the covered region (zero above it), C-ordered.

    Row k < n - r of the image is p[k] H_k on its first k + r columns
    (0-based arrays), with the row heads H_0 = I_r and
    H_k = [a[k-1] H_{k-1} | q[k-1]] (r x (k + r)); the bottom r rows are
    p_last H_{n-r}.  In a panel of IMAGE_PANEL rows from row ``base``,
    H_k = [X_k[:, :r] H_base | X_k[:, r:]] with X_base = I_r and
    X_k = [a[k-1] X_{k-1} | q[k-1]].  Every panel's X starts from I_r, so
    all panels walk in lockstep: a step is one batched ``np.matmul`` for X
    over the panels, one assignment of q and one batched ``np.matmul`` for
    y_k = p[k] X_k.  A short last panel drops out of the batch after its
    own steps, its X left at X_{n-r}.  Then each panel's rows are written
    once, contiguously: Y[:, :r] H_base in one gemm, the lower triangle
    from Y[:, r:] and zeros right of it; H_base moves on by one gemm with
    the panel's last X.

    H_base is a product of up to n - r blocks without p, and LU blocks are
    not bounded by 1.  So each panel's Y[:, :r] is scaled by a power of two
    to at most 1 in size and H_base by the inverse power (exact scalings):
    the head then holds about the panel's largest image row, and underflows
    only where every row of the panel does.  When the head or the walk
    overflows all the same (the image itself overflows in that row, and
    the panel's smaller rows may not yet), the image is rebuilt by the
    column walk ``_column_image``.

    O(n^2 r) arithmetic, plus O(n r^2 (r + IMAGE_PANEL)) in the walk, in
    O(IMAGE_PANEL + n / IMAGE_PANEL) numpy calls (O(n) on the column walk).
    Every cell of the result is written once, from ``np.empty``; the working
    memory besides it, the panels' X and Y, is O(n (r + IMAGE_PANEL)) for r
    up to IMAGE_PANEL.
    """
    n, r, a, p, q = g.n, g.r, g.a, g.p, g.q
    m = n - r
    b = IMAGE_PANEL
    x = np.empty((-(-m // b), r, r + b))  # X of each panel, in its first r + t columns at step t
    x[:, :, :r] = np.eye(r)
    # row t of a panel: y_{base+t} in its first r + t columns, zeros after them
    y = np.zeros((len(x), b, r + b))
    y[:, 0, :r] = p[::b]
    out = np.empty((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, b + 1):
            live = len(range(t - 1, m, b))  # the panels with a row base + t - 1
            # numpy buffers an operand that overlaps the output, so X is updated in place
            np.matmul(a[t - 1 :: b], x[:live, :, : r + t - 1], out=x[:live, :, : r + t - 1])
            x[:live, :, r + t - 1] = q[t - 1 :: b]
            if t < b:
                live = len(range(t, m, b))
                np.matmul(p[t::b, None], x[:live, :, : r + t], out=y[:live, t : t + 1, : r + t])
        # panel i's Y[:, :r] is scaled by 2^-s[i], the head by 2^s[i]; s[-1] is p_last's
        size = np.append(np.abs(y[:, :, :r]).max(axis=(1, 2)), np.abs(g.p_last).max())
        s = np.minimum(np.frexp(size)[1], 1023)
        y[:, :, :r] = np.ldexp(y[:, :, :r], -s[:-1, None, None])
        head = np.empty((r, n))  # H_base 2^s[i] in its first base + r columns
        head[:, :r] = np.ldexp(np.eye(r), s[0])
        for i, base in enumerate(range(0, m, b)):
            rows, w = min(b, m - base), base + r
            block = out[base : base + rows]
            np.matmul(y[i, :rows, :r], head[:, :w], out=block[:, :w])
            block[:, w : w + rows] = y[i, :rows, r : r + rows]
            block[:, w + rows :] = 0.0
            head[:, :w] = np.ldexp(x[i, :, :r], s[i + 1] - s[i]) @ head[:, :w]
            head[:, w : w + rows] = np.ldexp(x[i, :, r : r + rows], s[i + 1])
        np.matmul(np.ldexp(g.p_last, -s[-1]), head, out=out[m:])
        finite = all_finite(head)
    return out if finite else _column_image(g, out)


def _column_image(g, out):
    """``reconstruct_structured`` into ``out`` one block column at a time:
    column r + k - 2 from row k - 1 down is P_k q(k-1), with the tail stacks
    P_k = [p(k); P_{k+1} a(k)] (1-based k) updated in one (n, r) array.  The
    stacks carry p, so they overflow only where the image does.  O(n) numpy
    calls, for the images whose panel heads overflowed."""
    n, r = g.n, g.r
    m = n - r
    out.fill(0.0)
    stack = np.empty((n, r))
    stack[m:] = g.p_last
    out[m:, n - 1] = g.p_last @ g.q[m - 1]
    for k in range(m, 0, -1):
        stack[k:] = stack[k:] @ g.a[k - 1]
        stack[k - 1] = g.p[k - 1]
        if k >= 2:
            out[k - 1 :, r + k - 2] = stack[k - 1 :] @ g.q[k - 2]
    out[:, :r] = stack
    return out


def tail_stacks(g):
    """All tail stacks P_k, returned as a list with element k-1 holding P_k
    (1-based k = 1..n-r+1).

    P_{n-r+1} = p_last and P_k = [p(k); P_{k+1} a(k)]; each P_k has n-k+1
    rows and satisfies ``P_k q(k-1) = B[k-1:, column of block k-1]``.
    """
    n, r, a = g.n, g.r, g.a
    stacks = [g.p_last]
    cur = g.p_last
    for k in range(n - r, 0, -1):
        cur = np.vstack([g.p[k - 1], cur @ a[k - 1]])
        stacks.append(cur)
    stacks.reverse()
    return stacks


def check_green_rank(b, r, tol, upper=False):
    """True iff every submatrix B[k:, :k + r] (k = 0..n-r-1) has numerical
    rank at most r.

    With ``upper=True`` the transposed pattern ``B[:k + r, k:]`` is checked
    instead (the two-sided case).  Raises ValueError when B is not square or
    an entry is not finite.
    """
    n = len(b)
    b = checked(b, (n, n), "B")
    if upper:
        b = b.T
    for k in range(n - r):
        if numerical_rank(b[k:, : k + r], tol) > r:
            return False
    return True


def multiply_upper_triangular(s, g):
    """Generators of C = S B for upper triangular S and lower Green B.

    The product is again lower Green of the same order: q and a carry over
    unchanged, the closing block becomes S[n-r:, n-r:] p_last, and p(k)
    becomes S[k-1, k-1:] P_k, the row of S on the tail stack of B.  Raises
    ValueError when S is not n x n, has an entry that is not finite or is not
    upper triangular.
    """
    n, r = g.n, g.r
    s = checked(s, (n, n), "S")
    if np.any(np.tril(s, -1) != 0.0):
        raise ValueError("S must be upper triangular")
    stacks = tail_stacks(g)
    p_out = np.array([s[k, k:] @ stacks[k] for k in range(n - r)])
    return GreenGenerators(n, r, p_out, g.q, g.a, s[n - r :, n - r :] @ g.p_last)


def _skewed(b, r, count):
    """``count`` zero b x (b + r) matrices, C-ordered, and for each a
    b x (r + 1) view whose row l is the matrix's cells (l, l..l+r).  Those
    cells start at l (b + r + 1) in the matrix's buffer, so a buffer b cells
    longer, read as rows of b + r + 1, holds them at the start of each row."""
    buf = np.zeros((count, b * (b + r + 1)))
    mats = buf[:, : b * (b + r)].reshape(count, b, b + r)
    return mats, buf.reshape(count, b, b + r + 1)[:, :, : r + 1]


def inverse_generators(fact):
    """Generators of A^{-1} = R^{-1} V from the factorization A = G R,
    ``fact`` a ``QrFactorization`` or an ``LuFactorization``, one panel of
    rows of R at a time.

    R is upper triangular.  ``fact.tops`` holds its rows panel by panel, top
    to bottom: for the panel J = [j0, j1) of b rows, ``top`` is R(J, j0:),
    as many columns as the panel's rows reach, exact zeros past each row's
    reach of ``fact.width`` columns right of its diagonal; what is below the
    diagonal of its leading b x b block is not read.  V = G^{-1} =
    G_{n-1} ... G_0 is a descending product of the (r+1) x (r+1) blocks
    G_k = I - u_k w_k^T = [[c(k), d(k)], [a(k), q(k)]] at rows and columns
    k..k+r, with ``fact.u``, ``fact.w`` (n, r+1) zero past the matrix edge.
    B shares a and q.  Allocates p, q and p_last, and returns generators
    that keep the blocks a(k) as their factors (u, w) (``GreenGenerators``):
    the stage builds no a.

    With Z_k = R^{-1} G_{n-1} ... G_k, row k of the generators is
    p(k) = Z_k[k, k:k+r] and the tail stack at row k is Z_k[k:, k:k+r], of
    which a row of R reaches the first ``width`` rows.  For a panel J, with
    U and W its u_k and w_k as (b+r) x b banded matrices:

    - F = G_{j1-1} ... G_{j0} on the rows and columns j0..j1+r-1 is an
      explicit matrix, and M the factor of the ascending product
      G_{j0} ... G_{j1-1} = I - M W^T, both from the factorization
      (``fact.panel_transform``): the read-only pair that its panel loop
      built and kept (QR's panels with a wide right block, every panel of
      LU's loop), else built here
      from the panel's one triangular factor, QR's from LAPACK's T or from
      the compact form, LU's F from L11^{-1}, with no M.  Either way each
      panel's pair is built once per inversion, and the stage writes into
      no array of the factorization, so threads may share one;
    - Z = R(J, J)^{-1} (F[:b] - R(J, j1:) P F[b:]) is Z_{j0} there, where P
      is the stack below J (none below the last panel);
    - the stack at row j0 is [Z[:, :r]; P F[b:, :r]], cut to ``width`` rows;
    - row k of Z_k is row k of Z times G_{j0} ... G_{k-1}, the ascending
      product of the panel's first k - j0 reflections, each its own
      inverse, that is Z - tril(Z M, -1) W^T: one product, no solve.  The
      stage applies that prefix correction exactly when the factorization
      gives an M.  Elimination steps G_j = I - u_j e_j^T change only column
      j, so for them it would change only columns left of k, and p(k) reads
      columns k..k+r-1: LU gives none.

    The last panel holds the bottom r rows too.  Their prefix stops at
    G_{m-1} (m = n - r): the closing block p_last is Z_m[m:, m:m+r].

    A panel costs about ten BLAS calls: one ``dtrsm`` (the solve with
    R(J, J)) besides its transform's, if it builds one.  Its arithmetic is
    O(b (b + r)^2 + h r (b + r)) for a stack of h <= width rows: O(n r^2)
    in all for a two-sided band (width <= 2r, r up to b) and O(n^2 r) for
    a full upper part (width n - 1).
    """
    n, r, width, u, w = fact.n, fact.r, fact.width, fact.u, fact.w
    m = n - r
    # p, q and p_last as views of one array: as three arrays they raised
    # the peak RSS of a loop of inversions at n = 1000, r = 48 by 0.8 MB
    buf = np.empty(2 * m * r + r * r)
    p, q = buf[: 2 * m * r].reshape(2, m, r)
    p_last = buf[2 * m * r :].reshape(r, r)
    np.multiply(u[:m, 1:], w[:m, r:], out=q)
    np.subtract(np.eye(r)[-1], q, out=q)  # e_r - q
    stacks = np.empty((2, width, r))  # each panel writes the one it does not read
    t = stacks[1, :0]
    scratch = {}
    j0 = n
    for i in range(len(fact.tops) - 1, -1, -1):
        top = fact.tops[i]
        b, h = len(top), len(t)
        j0 -= b
        if b not in scratch:
            scratch[b] = _skewed(b, r, 3)
        (ut, wt, z), bands = scratch[b]
        bands[0] = u[j0 : j0 + b]
        bands[1] = w[j0 : j0 + b]
        # ut = U^T and wt = W^T are C-ordered: their transposes are the
        # Fortran-ordered (b + r) x b matrices U and W, uncopied
        mult, f = fact.panel_transform(i, ut.T, wt.T)
        np.dot(top[:, b : b + h] @ t, f[b:], out=z)
        np.subtract(f[:b], z, out=z)
        # z is C-ordered, so dtrsm solves with its transpose, uncopied
        z[:] = dtrsm(1.0, top[:, :b], z.T, side=1, trans_a=1, overwrite_b=1).T
        nxt = stacks[i & 1]
        keep = min(b, width)
        nxt[:keep] = z[:keep, :r]
        height = min(b + h, width)
        np.dot(t[: height - keep], f[b:, :r], out=nxt[keep:height])
        t = nxt[:height]
        e = min(m - j0, b)  # rows e.. of the last panel are the bottom r rows
        if mult is not None:
            prefix = z @ mult
            prefix *= strictly_lower(b, b)
            prefix[:, e:] = 0.0  # the bottom rows' prefix stops at row m
            z -= prefix @ wt
        p[j0 : j0 + e] = bands[2, :e, :r]
        if e < b:
            p_last[:] = z[e:, e : e + r]
    return GreenGenerators._compact(n, r, p, q, p_last, u, w)


def covered_relative_error(b, reference, r):
    """Frobenius-norm relative error between the covered parts (entries with
    ``j - i <= r - 1``) of ``b`` and ``reference``.

    Working memory O(ROWS n): the squares are summed over blocks of ROWS
    rows, each cut to the columns that the covered region reaches there."""
    b = np.asarray(b, dtype=float)
    reference = np.asarray(reference, dtype=float)
    num = den = 0.0
    for i in range(0, len(b), ROWS):
        end = i + ROWS - 1 + r  # the covered columns of rows i..i+ROWS-1
        cov_ref = np.tril(reference[i : i + ROWS, :end], i + r - 1).ravel()
        diff = np.tril(b[i : i + ROWS, :end], i + r - 1).ravel()
        diff -= cov_ref
        # past the largest double a block's sum of squares, or the running
        # sum, is inf, the norm's value; np.linalg.norm's one dot warns of
        # that only when it runs in the calling thread (BLAS's threads keep
        # their own flags), so overflow raises no warning here at all
        with np.errstate(over="ignore"):
            num += diff.dot(diff)
            den += cov_ref.dot(cov_ref)
    return float(np.sqrt(num) / np.sqrt(den))


def identity_residual(a, g):
    """Consistency check of p, a and p_last against their matrix, not of q.

    For B = A^{-1} every strictly-lower entry of A @ B equals zero and is a
    combination of covered entries of B only, so it can be evaluated from the
    reconstruction without knowing A^{-1}.  Returns the largest strictly-lower
    entry of A @ reconstruct(g), scaled by ||A||_inf ||B||_inf.

    It certifies p, a and p_last only.  Every covered entry of a column
    j >= r of B ends in the factor ``q[j - r]``, so a strictly lower entry
    of A @ B in that column is a row vector made of A, p, a and p_last times
    q[j - r].  When p, a and p_last are those of A^{-1} that vector is zero,
    so any q passes.  Check q against exact columns of A^{-1} instead.

    Working memory: the n x n reconstruction and O(ROWS n) more.  A @ B is
    formed ROWS rows at a time, cut to the columns left of the rows'
    diagonal, from A's diagonals in turn.  Raises ValueError when A and the
    generators differ in size.
    """
    if g.n != a.n:
        raise ValueError(f"size mismatch: matrix n={a.n}, generators n={g.n}")
    b = reconstruct_structured(g)
    n, ru = a.n, a.r_upper
    worst = []
    for i0 in range(0, n, ROWS):
        i1 = min(i0 + ROWS, n)
        prod = np.zeros((i1 - i0, i1 - 1))
        for off in range(-ru, a.r_lower + 1):
            lo, hi = max(i0, off), min(i1, n + off)  # rows i whose column i - off exists
            if lo < hi:
                vals = a.bands[ru + off, lo - off : hi - off, None]
                prod[lo - i0 : hi - i0] += vals * b[lo - off : hi - off, : i1 - 1]
        worst.append(np.abs(np.tril(prod, i0 - 1)).max())
    return float(np.max(worst) / (a.norm_inf() * norm_inf(b)))


def _write_rows(fh, mat):
    """Write a 2-D array as a JSON list of its rows."""
    fh.write("[")
    write_rows(fh, mat, ", ", head="[", tail="]", join=", ")
    fh.write("]")


def write_generators(path, g):
    """Write the generator interchange format (JSON, 17 significant digits).

    Fields: n, r, p (n-r rows of r values), q (n-r columns of r values),
    a (n-r blocks of r*r values, row-major), p_last (r*r, row-major).

    Every value's text is that of ``%.17g``, byte for byte; exact 0, -0, 1
    and -1 are written as their literal text, and only the other values are
    formatted (``banded.write_rows``).
    """
    m, r = g.n - g.r, g.r
    with open(path, "w") as fh:
        fh.write(f'{{\n  "n": {g.n},\n  "r": {r},\n  "p": ')
        _write_rows(fh, g.p)
        fh.write(',\n  "q": ')
        _write_rows(fh, g.q)
        fh.write(',\n  "a": ')
        _write_rows(fh, g.a.reshape(m, r * r))
        fh.write(',\n  "p_last": ')
        write_rows(fh, g.p_last.reshape(1, r * r), ", ", head="[", tail="]")
        fh.write("\n}\n")


def read_generators(path):
    """Parse the generator interchange format written by write_generators.

    Each field must have the shape that the writer writes and finite
    values; a file that is not so, or not JSON, raises ValueError with its
    path."""
    import json

    try:
        with open(path) as fh:
            # integers as floats, so that "-0" reads as -0.0; the cache keeps
            # one float per distinct integer, as json keeps its small ints
            data = json.load(fh, parse_int=functools.lru_cache(maxsize=None)(float))
        n, r = data["n"], data["r"]
        # json reads every integer as a float here, and a bool is no float
        if not all(isinstance(v, float) and v.is_integer() for v in (n, r)):
            raise ValueError(f"n and r must be integers, got {n!r} and {r!r}")
        n, r = int(n), int(r)
        m = n - r
        # a and p_last are written flat: their shapes are checked here, and
        # their finiteness by GreenGenerators, with p's and q's
        a, p_last = np.asarray(data["a"], dtype=float), np.asarray(data["p_last"], dtype=float)
        for name, arr, shape in (("a", a, (m, r * r)), ("p_last", p_last, (r * r,))):
            if arr.shape != shape:
                raise ValueError(f"{name} must be {shape}, got {arr.shape}")
        return GreenGenerators(n, r, data["p"], data["q"], a.reshape(m, r, r), p_last.reshape(r, r))
    # a truncated or otherwise unparsable file raises json.JSONDecodeError,
    # and a field of the wrong shape or with a NaN or Infinity entry (which
    # json accepts) raises here or in ``checked``: each a ValueError,
    # reported with the path
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed generator file: {exc}") from exc
