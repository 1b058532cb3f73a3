"""Workloads of the greenband benchmark: seeded inputs, the timed operations,
the correctness gate and the traced layer probe.

Every workload is a closed loop with one client and no worker threads or
processes.  A round builds fresh seeded input (untimed), runs the workload's
operations back to back (each timed on its own, one clock reading on either
side of the call into greenband) and then checks every output (untimed).  An
operation that raises or whose output fails its check counts as failed.  Only
public greenband functions and attributes are used.
"""

import time
import traceback
from dataclasses import dataclass

import numpy as np
import scipy.linalg

import greenband

from .spans import NullTracer

__all__ = [
    "TOLERANCES",
    "SPECS",
    "InversionSpec",
    "GeneratorIoSpec",
    "Context",
    "band_array",
    "instance_bands",
    "batch_positions",
    "run",
]

TOLERANCES = {
    # max |B_qr[i, j] - B_lu[i, j]| / max |B_qr[i, j]| over the sampled covered entries
    "agree": 1e-9,
    # |(A B)[i*, j]| / (sum_k |A[i*, k]| * max_k |B[k, j]|) at a strictly lower i* > j
    # (for generator_io's reconstruction: the largest such entry of a sampled row)
    "residual": 1e-10,
    # |B[i, j] - X[i, j]| / max_k |X[k, j]|, X from LAPACK's banded solver
    "exact": 1e-10,
    # covered_relative_error against dense_invert (lower_full)
    "dense": 1e-9,
}

# seed streams: every random draw is keyed by (seed, stream, round, ...)
MATRIX, POSITIONS, SETUP, CHECK = range(4)

SETUP_REPEATS = 5
MIN_ROUNDS = 2


@dataclass(frozen=True)
class InversionSpec:
    """A fresh n x n instance per round, inverted by the QR and the LU path.

    ``one_sided`` instances are lower banded of order r with a full upper part;
    otherwise they are two-sided banded with bandwidth r on both sides.
    """

    n: int
    r: int
    one_sided: bool


@dataclass(frozen=True)
class GeneratorIoSpec:
    """Set-up inverts three two-sided instances of bandwidth r; each round then
    runs an entry batch on the n_query set, reconstruct_structured on the
    n_image set and a write/read round trip of the n_io set."""

    n_query: int
    n_io: int
    n_image: int
    r: int
    near: int  # queries per batch within a few bandwidths of the diagonal
    far: tuple = (1 / 8, 1 / 4, 1 / 2, 7 / 8)  # far tail, as fractions of n_query


SPECS = {
    "narrow_band": InversionSpec(n=2000, r=4, one_sided=False),
    "wide_band": InversionSpec(n=1000, r=48, one_sided=False),
    "lower_full": InversionSpec(n=2000, r=6, one_sided=True),
    "generator_io": GeneratorIoSpec(n_query=20000, n_io=5000, n_image=2000, r=5, near=252),
}


def rng(*key):
    return np.random.default_rng(list(key))


# ---------------------------------------------------------------- inputs


def band_array(n, r_lower, r_upper, gen, diag_shift, upper_scale=None):
    """Band array ``bands[r_upper + i - j, j] = A[i, j]`` of a random matrix,
    built in O(n (r_lower + r_upper)) memory (``random_band`` draws n x n).

    Band entries are uniform on [0, 1) with ``diag_shift`` added to the
    diagonal.  With ``upper_scale`` the superdiagonals are instead uniform on
    [-upper_scale, upper_scale), which keeps a full upper part well
    conditioned.  Cells that fall outside the matrix are zero.
    """
    bands = gen.random((r_lower + r_upper + 1, n))
    if upper_scale is not None:
        bands[:r_upper] = (2.0 * bands[:r_upper] - 1.0) * upper_scale
    bands[r_upper] += diag_shift
    rows = np.arange(r_lower + r_upper + 1)[:, None] - r_upper + np.arange(n)
    bands[(rows < 0) | (rows >= n)] = 0.0
    return bands


def instance_bands(spec, gen):
    """Constructor arguments of one inversion instance: diagonal shift r;
    a one-sided instance has its upper part scaled by 1 / sqrt(n)."""
    n, r = spec.n, spec.r
    if spec.one_sided:
        return n, r, n - 1, band_array(n, r, n - 1, gen, r, upper_scale=n**-0.5)
    return n, r, r, band_array(n, r, r, gen, r)


def covered_positions(gen, n, r, distances):
    """One covered position (i, j) per distance d = i - j, with j >= r and
    i < n - r so that ``entry`` walks exactly d + r - 1 blocks.  Rows are drawn
    from ``gen``; the distances are fixed, so the work is too."""
    out = []
    for d in distances:
        j = int(gen.integers(max(r, -d), n - r - d))
        out.append((j + d, j))
    return out


def _reachable(n, r, distances):
    return list(dict.fromkeys(d for d in distances if d <= n - 2 * r - 1))


def check_distances(n, r):
    """Distances sampled by the correctness checks: near the diagonal (the
    covered part above it included) and a far tail."""
    return _reachable(n, r, [-(r - 1), 0, 1, r, 2 * r, n // 8, n // 4, n // 2])


def batch_positions(gen, spec):
    """Query positions of one entry batch on the n_query set: ``near``
    queries cycling through distances -(r-1) .. 3r and the far tail, in an
    order drawn from ``gen``."""
    n, r = spec.n_query, spec.r
    near = [-(r - 1) + t % (4 * r) for t in range(spec.near)]
    far = _reachable(n, r, [int(f * n) for f in spec.far])
    pos = covered_positions(gen, n, r, near + far)
    return [pos[t] for t in gen.permutation(len(pos))]


def entry_steps(n, r, i, j):
    """Number of r x r block products ``entry`` performs for (i, j)."""
    bi = min(i, n - r) + 1
    return bi - 1 if j < r else bi - (j - r + 2)


def inversion_flops(method, n, r, one_sided):
    """Leading-order flop count of one inversion, computed from the loop
    dimensions of the factorization and the generator recursion, not
    measured.  Per step: the reflection (QR) or elimination (LU) update of the
    working window, t @ a(k) on the tail stack and the row of R against it."""
    m = n - r
    if one_sided:
        length = m * n - m * (m + 1) // 2  # window width / stack height n - k, summed
    else:
        length = m * (2 * r if method == "qr" else r)
    if method == "qr":
        return 2 * (r + 1) ** 2 * m + (4 * (r + 1) + 2 * r * r + 2 * r) * length
    return (4 * r + 2 * r * r) * length


# ---------------------------------------------------------------- running


class Context:
    """What the rounds share: the library under test (tests substitute a
    corrupted copy), the tracer of the current round, the id of the current
    operation, a scratch directory and the check statistics."""

    def __init__(self, gb, scratch):
        self.gb = gb
        self.scratch = scratch
        self.tracer = NullTracer()
        self.op = None
        self.stats = {"rel_err_max": 0.0, "residual_max": 0.0}
        self.errors = []

    def call(self, name, fn, *args):
        with self.tracer.span(name, self.op):
            return fn(*args)

    def entries(self, g, positions):
        """``entry`` at each position, counting the block products walked."""
        self.tracer.add("generators.entry_steps", sum(entry_steps(g.n, g.r, i, j) for i, j in positions))
        return [self.call("generators.entry", self.gb.entry, g, i, j) for i, j in positions]

    def invert(self, method, a, one_sided):
        gb = self.gb
        fn = {
            ("qr", False): gb.invert_two_sided_qr,
            ("lu", False): gb.invert_two_sided_lu,
            ("qr", True): gb.invert_lower_band_qr,
            ("lu", True): gb.invert_lower_band_lu,
        }[method, one_sided]
        self.tracer.add(f"{method}.rows", a.n)
        self.tracer.add(f"{method}.flops", inversion_flops(method, a.n, a.r_lower, one_sided))
        return self.call(f"{method}.invert", fn, a)

    def save_load(self, g):
        path = self.scratch / "generators.json"
        try:
            self.call("generators.write", self.gb.write_generators, path, g)
            self.tracer.add("generators.bytes", path.stat().st_size)
            return self.call("generators.read", self.gb.read_generators, path)
        finally:
            path.unlink(missing_ok=True)

    def record(self, key, value):
        self.stats[key] = max(self.stats[key], value)

    def attempt(self, fn, *args):
        """Run an operation or a check; an exception is recorded and returned
        instead of raised, so the loop goes on and the op counts as failed."""
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - any error in an op is a failed op
            self.errors.append("".join(traceback.format_exception_only(exc)).strip())
            return exc


def _timed(ctx, r, fn, *args):
    """Run one op: (its output or exception, its seconds, the mean of
    ``calibration_s(r)`` timed just before and just after it)."""
    before = calibration_s(r)
    t0 = time.perf_counter()
    out = ctx.attempt(fn, *args)
    secs = time.perf_counter() - t0
    return out, secs, (before + calibration_s(r)) / 2


def column_values(g, j, k_hi):
    """Covered entries B[k0:k_hi, j] evaluated right to left, as
    p(k) . (a(k-1) ... a(s) q(s-1)), in one pass over the column instead of
    one ``entry`` call per row.  Returns (k0, values)."""
    n, r = g.n, g.r
    m = n - r
    if j < r:
        k0, v = 0, np.eye(r)[j]
    else:
        k0 = j - r + 1
        v = g.q[k0 - 1]
    vals = []
    k = k0
    while k < min(k_hi, m):
        vals.append(g.p[k] @ v)
        v = g.a[k] @ v
        k += 1
    if k_hi > m:  # the bottom r rows share the closing block
        vals.extend(g.p_last[: k_hi - m] @ v)
    return k0, np.array(vals)


def residual(a, g, i, j):
    """(A B)[i*, j] at i* = max(i, j + 1), with column j of B taken from
    ``column_values``, relative to sum_k |A[i*, k]| times the column's largest
    entry (near the diagonal: far entries decay and may underflow).  It is
    strictly lower, so zero for B = A^{-1}, and involves only covered entries
    of B, B[i, j] among them."""
    row = max(i, j + 1)
    lo, hi = max(0, row - a.r_lower), min(a.n, row + a.r_upper + 1)
    k0, col = column_values(g, j, hi)
    seg = a.row_segment(row, lo, hi)
    return abs(seg @ col[lo - k0 :]) / (np.abs(seg).sum() * np.abs(col).max())


def exact_columns(a, cols):
    """Columns ``cols`` of A^{-1} from LAPACK's banded solver (partial
    pivoting), independent of greenband."""
    rhs = np.zeros((a.n, len(cols)))
    rhs[cols, np.arange(len(cols))] = 1.0
    return scipy.linalg.solve_banded((a.r_lower, a.r_upper), a.bands, rhs, check_finite=False)


def exact_error(ctx, vals, pos, x):
    """Largest |vals[t] - X[i, j]| relative to the largest entry of X's column."""
    err = max(abs(v - x[i, t]) / np.abs(x[:, t]).max() for t, (v, (i, _)) in enumerate(zip(vals, pos)))
    ctx.record("rel_err_max", err)
    return err


def check_inversion(ctx, a, gens, gen, one_sided):
    """Gate of one instance.  On sampled covered positions: each output's
    residual and its entries against the exact columns, and QR against LU.
    For one-sided input also the whole covered part against the dense
    oracle.  Returns the methods that failed; a QR/LU disagreement fails
    both."""
    gb = ctx.gb
    n, r = a.n, a.r_lower
    pos = covered_positions(gen, n, r, check_distances(n, r))
    x = exact_columns(a, [j for _, j in pos])
    bad = {m for m, g in gens.items() if isinstance(g, Exception)}
    vals = {}

    def own(m, g):
        res = max(residual(a, g, i, j) for i, j in pos)
        ctx.record("residual_max", res)
        vals[m] = np.array(ctx.entries(g, pos))
        err = exact_error(ctx, vals[m], pos, x)
        return bool(res <= TOLERANCES["residual"] and err <= TOLERANCES["exact"])

    for m in sorted(gens.keys() - bad):
        if ctx.attempt(own, m, gens[m]) is not True:
            bad.add(m)
    if len(vals) == 2:
        err = np.abs(vals["qr"] - vals["lu"]).max() / np.abs(vals["qr"]).max()
        ctx.record("rel_err_max", err)
        if not err <= TOLERANCES["agree"]:
            bad.update(gens)
    if one_sided and len(bad) < len(gens):
        ref = ctx.call("dense_oracle.invert", gb.dense_invert, a.to_dense())

        def dense(g):
            image = ctx.call("generators.reconstruct", gb.reconstruct_structured, g)
            err = gb.covered_relative_error(image, ref, r)
            ctx.record("rel_err_max", err)
            return bool(err <= TOLERANCES["dense"])

        for m in sorted(gens.keys() - bad):
            if ctx.attempt(dense, gens[m]) is not True:
                bad.add(m)
    return bad


def setup_inversion(ctx, spec, seed, s):
    """Build one instance and invert it both ways (first-call costs)."""
    a = ctx.call("banded.construct", ctx.gb.BandedMatrix, *instance_bands(spec, rng(seed, SETUP, s)))
    ctx.attempt(ctx.invert, "qr", a, spec.one_sided)
    ctx.attempt(ctx.invert, "lu", a, spec.one_sided)


def round_inversion(ctx, spec, state, seed, k):
    a = ctx.call("banded.construct", ctx.gb.BandedMatrix, *instance_bands(spec, rng(seed, MATRIX, k)))
    order = ("qr", "lu") if k % 2 == 0 else ("lu", "qr")
    gens, timed = {}, []
    for m in order:
        gens[m], secs, cal = _timed(ctx, spec.r, ctx.invert, m, a, spec.one_sided)
        timed.append((m, secs, cal))

    def check():
        bad = check_inversion(ctx, a, gens, rng(seed, CHECK, k), spec.one_sided)
        return [m not in bad for m in order]

    return timed, check, a


@dataclass
class IoState:
    a_query: object
    g_query: object
    g_io: object
    a_image: object
    g_image: object


def setup_generator_io(ctx, spec, seed, s):
    """Invert the query set (QR), the I/O set (LU) and the image set (QR).
    A failed inversion leaves its exception in place of the generators, so
    the ops using them fail."""
    mats = []
    for t, n in enumerate((spec.n_query, spec.n_io, spec.n_image)):
        bands = band_array(n, spec.r, spec.r, rng(seed, SETUP, s, t), spec.r)
        mats.append(ctx.call("banded.construct", ctx.gb.BandedMatrix, n, spec.r, spec.r, bands))
    a_q, a_io, a_img = mats
    return IoState(
        a_q,
        ctx.attempt(ctx.invert, "qr", a_q, False),
        ctx.attempt(ctx.invert, "lu", a_io, False),
        a_img,
        ctx.attempt(ctx.invert, "qr", a_img, False),
    )


def check_entries(ctx, st, queries, vals, gen):
    """Sampled queries of the batch (six near ones and the two farthest)
    against the exact columns, plus their residuals."""
    order = sorted(range(len(queries)), key=lambda t: queries[t][0] - queries[t][1])
    picks = list(gen.choice(order[:-2], size=min(6, len(order) - 2), replace=False)) + order[-2:]
    pos = [queries[t] for t in picks]
    err = exact_error(ctx, [vals[t] for t in picks], pos, exact_columns(st.a_query, [j for _, j in pos]))
    res = max(residual(st.a_query, st.g_query, i, j) for i, j in pos)
    ctx.record("residual_max", res)
    return bool(err <= TOLERANCES["exact"] and res <= TOLERANCES["residual"])


def check_image(ctx, st, image, gen):
    """The reconstruction and ``entry`` against the exact columns on sampled
    covered positions, and the strictly-lower part of (A B) on the sampled
    rows."""
    a, g = st.a_image, st.g_image
    n, r = a.n, a.r_lower
    pos = covered_positions(gen, n, r, check_distances(n, r))
    x = exact_columns(a, [j for _, j in pos])
    err = max(exact_error(ctx, ctx.entries(g, pos), pos, x), exact_error(ctx, [image[i, j] for i, j in pos], pos, x))
    ok = err <= TOLERANCES["exact"]
    for i, _ in pos:
        lo, hi = max(0, i - a.r_lower), min(n, i + a.r_upper + 1)
        seg, blk = a.row_segment(i, lo, hi), image[lo:hi, :i]
        res = np.abs(seg @ blk).max() / (np.abs(seg).sum() * np.abs(blk).max())
        ctx.record("residual_max", res)
        ok = ok and res <= TOLERANCES["residual"]
    return bool(ok)


def same_generators(g, h):
    """The save/load round trip must be bit-identical."""
    return (g.n, g.r) == (h.n, h.r) and all(
        np.array_equal(getattr(g, f), getattr(h, f)) for f in ("p", "q", "a", "p_last")
    )


def round_generator_io(ctx, spec, st, seed, k):
    gb = ctx.gb
    queries = batch_positions(rng(seed, POSITIONS, k), spec)
    vals, *t_entry = _timed(ctx, spec.r, ctx.entries, st.g_query, queries)
    image, *t_image = _timed(ctx, spec.r, ctx.call, "generators.reconstruct", gb.reconstruct_structured, st.g_image)
    back, *t_io = _timed(ctx, spec.r, ctx.save_load, st.g_io)

    def check():
        gen = rng(seed, CHECK, k)
        return [
            not isinstance(out, Exception) and ctx.attempt(fn, *args) is True
            for out, fn, args in (
                (vals, check_entries, (ctx, st, queries, vals, gen)),
                (image, check_image, (ctx, st, image, gen)),
                (back, same_generators, (st.g_io, back)),
            )
        ]

    return [("entry", *t_entry), ("reconstruct", *t_image), ("save_load", *t_io)], check, st.a_image


def calibration_s(r):
    """Seconds for a fixed loop of (2r x r) @ (r x r) products, the shape of
    the tail-stack update the structured paths do per row, in plain numpy
    (about 3-10 ms).  On a shared host the CPU's speed swings by up to 2x
    within seconds, and small-r (dispatch-bound) and large-r (arithmetic-
    bound) code slow down by different factors; each op is divided by this
    loop, at the workload's r, timed right around it, which cancels most of
    the swing."""
    stack, block = np.ones((2 * r, r)), np.eye(r)
    t0 = time.perf_counter()
    for _ in range(3000 // max(1, r // 4)):
        stack @ block
    return time.perf_counter() - t0


def probe(ctx, a, one_sided):
    """Traced runs only, after the loop: send one instance of the workload
    through every layer function the loop does not call (the one-sided
    factorizations, the dense oracle, reconstruction, serialization and the
    generator constructor), so that every per-layer metric has a value on
    every workload and the one-sided split into factorization and recursion
    is taken on a single instance."""
    gb = ctx.gb
    ctx.op = "probe"
    g = ctx.invert("qr", a, one_sided)
    ctx.call("generators.construct", gb.GreenGenerators, g.n, g.r, g.p, g.q, g.a, g.p_last)
    for m, factor, invert in (
        ("qr", gb.qr_factor_lower_band, gb.invert_lower_band_qr),
        ("lu", gb.lu_factor_lower_band, gb.invert_lower_band_lu),
    ):
        fact = ctx.call(f"{m}.factor_lower", factor, a)
        ctx.call(f"{m}.invert_lower", invert, a)
    ctx.tracer.peak("lu.growth_max", fact.growth)
    ctx.call("dense_oracle.invert", gb.dense_invert, a.to_dense())
    ctx.call("generators.reconstruct", gb.reconstruct_structured, g)
    ctx.save_load(g)


@dataclass
class Outcome:
    """Everything a run measured; the driver turns it into metrics."""

    spec: object
    setup_s: list
    rounds: list  # per round: list of (kind, seconds, calibration seconds, ok)
    traced: list  # per round: whether it ran under the tracer
    stats: dict
    errors: list


def run(name, seed, seconds, ctx, tracer=None, specs=SPECS):
    """Set up SETUP_REPEATS times, then run rounds until ``seconds`` have
    passed (at least MIN_ROUNDS).  Each round's timed ops are followed by its
    check.  With a tracer, set-up, every odd round and the probe run traced;
    even rounds stay untraced for the overhead comparison."""
    spec = specs[name]
    one_sided = getattr(spec, "one_sided", False)
    setup, step = (
        (setup_generator_io, round_generator_io)
        if isinstance(spec, GeneratorIoSpec)
        else (setup_inversion, round_inversion)
    )
    if tracer is not None:
        ctx.tracer = tracer
    setup_s = []
    for s in range(SETUP_REPEATS):
        ctx.op = f"setup-{s}"
        t0 = time.perf_counter()
        state = setup(ctx, spec, seed, s)
        setup_s.append(time.perf_counter() - t0)
    rounds, traced = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_ROUNDS or time.perf_counter() < deadline:
        on = tracer is not None and k % 2 == 1
        ctx.tracer = tracer if on else NullTracer()
        ctx.op = f"round-{k}"
        timed, check, last = step(ctx, spec, state, seed, k)
        with ctx.tracer.span("check", ctx.op):
            ok = check()
        rounds.append([(*op, good) for op, good in zip(timed, ok)])
        traced.append(on)
        k += 1
    if tracer is not None:
        ctx.tracer = tracer
        probe(ctx, last, one_sided)
    return Outcome(spec, setup_s, rounds, traced, ctx.stats, ctx.errors)
