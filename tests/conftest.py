import tracemalloc

import numpy as np
from hypothesis import settings

settings.register_profile("ci", deadline=None)
settings.load_profile("ci")


def random_generators(n, r, seed, scale=None):
    """A well-scaled random generator set (a-blocks contracted so that long
    products stay O(1))."""
    from greenband import GreenGenerators

    rng = np.random.Generator(np.random.PCG64(seed))
    m = n - r
    scale = scale if scale is not None else 0.5 / np.sqrt(r)
    return GreenGenerators(
        n,
        r,
        p=rng.uniform(-1.0, 1.0, (m, r)),
        q=rng.uniform(-1.0, 1.0, (m, r)),
        a=rng.standard_normal((m, r, r)) * scale,
        p_last=rng.uniform(-1.0, 1.0, (r, r)),
    )


def random_orthogonal(m, rng):
    q, rr = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diagonal(rr))


def instance(n, r_lower, r_upper, seed, scale):
    """A diagonally dominant banded matrix (strongly regular, well
    conditioned) with its entries multiplied by ``scale``."""
    from greenband import BandedMatrix, random_band

    a = random_band(n, r_lower, r_upper, seed, diag_shift=1.0 + r_lower + r_upper)
    return BandedMatrix.from_dense(scale * a.to_dense(), r_lower, r_upper)


def inverters(a):
    """The inversion entry points that accept ``a``."""
    import greenband

    out = [greenband.invert_lower_band_qr, greenband.invert_lower_band_lu]
    if a.r_upper <= a.r_lower:
        out += [greenband.invert_two_sided_qr, greenband.invert_two_sided_lu]
    return out


def traced_peak(fn, *args):
    """Bytes of the largest tracemalloc-traced allocation total (numpy
    arrays included) that ``fn(*args)`` reached above what was live when it
    was called."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
