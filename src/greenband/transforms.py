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
entries.  A ``TransformProduct`` holds the G_k as one (n - r, r + 1, r + 1)
array: the generators are read from it as four slices, and it is built from
them by four slice assignments, with no loop over the blocks.
"""

import numpy as np

from .banded import checked
from .generators import GreenGenerators

__all__ = [
    "TransformProduct",
    "expand_transform_product",
    "generators_from_transforms",
    "transforms_from_generators",
]


class TransformProduct:
    """The descending product of the factors G_k ((r+1) x (r+1),
    k = 1..n-r) and a trailing r x r block.

    ``factors`` holds the G_k as one C-contiguous (n - r, r + 1, r + 1)
    array, ``factors[k - 1]`` being G_k; any array-like of that shape, such
    as a list of blocks, is accepted.  ``factors`` and ``last`` are
    read-only views, as in ``GreenGenerators``: the generators that
    ``generators_from_transforms`` slices from them may share their memory.
    The caller's arrays stay writable.  A wrong shape or an entry that is
    not finite raises ValueError naming the array."""

    def __init__(self, n, r, factors, last):
        if not n > r > 0:
            raise ValueError(f"need n > r > 0, got n={n}, r={r}")
        self.n, self.r = int(n), int(r)
        self.factors = checked(factors, (self.n - self.r, self.r + 1, self.r + 1), "factors")
        self.last = checked(last, (self.r, self.r), "trailing block")

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
    f, r = t.factors, t.r
    g = GreenGenerators(t.n, r, f[:, 0, :r], f[:, 1:, r], f[:, 1:, :r], t.last)
    return g, f[:, 0, r].copy()


def transforms_from_generators(g, d):
    """Assemble the descending product whose generators and block-diagonal
    entries are (g, d); inverse of generators_from_transforms.  Raises
    ValueError when d does not hold n - r finite entries."""
    n, r = g.n, g.r
    d = checked(d, (n - r,), "d")
    f = np.empty((n - r, r + 1, r + 1))
    f[:, 0, :r] = g.p
    f[:, 0, r] = d
    f[:, 1:, :r] = g.a
    f[:, 1:, r] = g.q
    return TransformProduct(n, r, f, g.p_last)
