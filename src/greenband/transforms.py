"""Products of elementary transforms and their Green generator form.

An n x n matrix built as a product of (r+1) x (r+1) blocks embedded along the
diagonal,

    G = G~_{n-r+1} G~_{n-r} ... G~_1        (descending order)

with G~_k = I_{k-1} (+) G_k (+) I_{n-k-r} and an r x r trailing block
G_{n-r+1}, is simultaneously lower Green and upper banded of order r.  Its
generators are read off the 2 x 2 partition of each factor

    G_k = [[p(k), d(k)],
           [a(k), q(k)]]        (1 x r, 1 x 1, r x r, r x 1)

with p_last = G_{n-r+1}, and d(k) = G[k-1, k+r-1] are the block-diagonal
entries.
"""

import numpy as np

from .generators import GreenGenerators

__all__ = [
    "TransformProduct",
    "expand_transform_product",
    "generators_from_transforms",
    "transforms_from_generators",
]


class TransformProduct:
    """The descending product of the factors G_k ((r+1) x (r+1),
    k = 1..n-r) and a trailing r x r block."""

    def __init__(self, n, r, factors, last):
        if not n > r > 0:
            raise ValueError(f"need n > r > 0, got n={n}, r={r}")
        factors = [np.ascontiguousarray(f, dtype=float) for f in factors]
        if len(factors) != n - r:
            raise ValueError(f"expected {n - r} factors, got {len(factors)}")
        for f in factors:
            if f.shape != (r + 1, r + 1):
                raise ValueError(f"factors must be {(r + 1, r + 1)}, got {f.shape}")
        last = np.ascontiguousarray(last, dtype=float)
        if last.shape != (r, r):
            raise ValueError(f"trailing block must be {(r, r)}, got {last.shape}")
        self.n = int(n)
        self.r = int(r)
        self.factors = factors
        self.last = last

    def __repr__(self):
        return f"TransformProduct(n={self.n}, r={self.r})"


def expand_transform_product(t):
    """Dense n x n product of the embedded factors, in descending order."""
    n, r = t.n, t.r
    out = np.eye(n)
    out[n - r :, n - r :] = t.last
    for k in range(n - r, 0, -1):  # right-multiply by I_{k-1} (+) G_k (+) I
        out[:, k - 1 : k + r] = out[:, k - 1 : k + r] @ t.factors[k - 1]
    return out


def generators_from_transforms(t):
    """Green generators and block-diagonal entries of a descending product.

    Returns (GreenGenerators, d) where d[k] holds the entries G[k, k + r]
    (0-based).
    """
    n, r = t.n, t.r
    m = n - r
    p = np.empty((m, r))
    q = np.empty((m, r))
    a = np.empty((m, r, r))
    d = np.empty(m)
    for k in range(m):
        f = t.factors[k]
        p[k] = f[0, :r]
        d[k] = f[0, r]
        a[k] = f[1:, :r]
        q[k] = f[1:, r]
    return GreenGenerators(n, r, p, q, a, t.last), d


def transforms_from_generators(g, d):
    """Assemble the descending product whose generators and block-diagonal
    entries are (g, d); inverse of generators_from_transforms."""
    d = np.asarray(d, dtype=float)
    m = g.n - g.r
    if d.shape != (m,):
        raise ValueError(f"expected {m} diagonal entries, got {d.shape}")
    factors = []
    for k in range(m):
        f = np.empty((g.r + 1, g.r + 1))
        f[0, : g.r] = g.p[k]
        f[0, g.r] = d[k]
        f[1:, : g.r] = g.a[k]
        f[1:, g.r] = g.q[k]
        factors.append(f)
    return TransformProduct(g.n, g.r, factors, g.p_last)
