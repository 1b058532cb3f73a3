"""Timing sweeps, slope fits, CSV output and the scripted experiment suite.

Methods timed here: the two-sided structured paths ("qr", "lu"), their
one-sided counterparts ("qr-lower", "lu-lower") and the dense reference
("dense", row-pivoted elimination).  Matrix generation is always excluded
from the timed region.  Each of the ``trials`` timed runs (about 10 ms of
back-to-back calls) is divided by a calibration run beside it, as long a
burst of the sweep's smallest cell, and reported seconds per call are the
median of those ratios in units of the median calibration, so a slope does
not bend when the host's speed changes during a sweep.  Relative errors are
measured on the covered part against the dense inverse, and only for sizes
up to ``oracle_cutoff``.
"""

import csv
import functools
import gc
import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

try:  # pin BLAS threads during timing when available, for stable slopes
    from threadpoolctl import threadpool_limits
except ImportError:  # pragma: no cover
    threadpool_limits = None

from .banded import BandedMatrix, random_band, prescribed_condition_band
from .dense_oracle import dense_invert
from .errors import SingularMatrixError
from .generators import covered_relative_error, reconstruct_structured
from .lu import invert_lower_band_lu, invert_two_sided_lu
from .qr import invert_lower_band_qr, invert_two_sided_qr

__all__ = [
    "BenchRecord",
    "SlopeFit",
    "slope_fit",
    "run_bench",
    "write_bench_csv",
    "run_example",
    "EXAMPLE_IDS",
    "METHODS",
]

_EPS = np.finfo(float).eps
SPAN_S = 0.01  # seconds of back-to-back calls per timed trial

# method -> inversion; "dense" takes the dense image, built before timing
_INVERTERS = {
    "qr": invert_two_sided_qr,
    "lu": invert_two_sided_lu,
    "qr-lower": invert_lower_band_qr,
    "lu-lower": invert_lower_band_lu,
    "dense": dense_invert,
}
METHODS = tuple(_INVERTERS)


@dataclass
class BenchRecord:
    """One benchmark cell: size, method tag, calibrated wall seconds and (when the
    oracle was consulted) the covered-part relative error."""

    n: int
    method: str
    seconds: float
    rel_err: float | None = None


@dataclass
class SlopeFit:
    """Least-squares fit of log(seconds) against log(n); ``residual`` is the
    sum of squared residuals of the fit."""

    slope: float
    intercept: float
    residual: float


def slope_fit(points):
    """Ordinary least squares on (ln n, ln t) for a list of (n, t) pairs.

    Requires at least three points with positive finite values and
    non-degenerate abscissae; raises ValueError otherwise.
    """
    pts = [(float(n), float(t)) for n, t in points]
    if len(pts) < 3:
        raise ValueError("slope fit needs at least 3 points")
    if not all(0 < v < np.inf for pt in pts for v in pt):
        raise ValueError("slope fit needs positive finite sizes and times")
    ln = np.log([n for n, _ in pts])
    lt = np.log([t for _, t in pts])
    if np.ptp(ln) == 0.0:
        raise ValueError("slope fit needs at least two distinct sizes")
    design = np.column_stack([ln, np.ones_like(ln)])
    coef, *_ = np.linalg.lstsq(design, lt, rcond=None)
    resid = float(np.sum((design @ coef - lt) ** 2))
    return SlopeFit(slope=float(coef[0]), intercept=float(coef[1]), residual=resid)


def _burst_s(fn, count):
    """Seconds of ``count`` back-to-back calls of ``fn``."""
    t0 = time.perf_counter()
    for _ in range(count):
        fn()
    return time.perf_counter() - t0


def _interleaved_times(fns, trials):
    """Calibrated seconds per call of each callable; the first one, the
    sweep's smallest cell, is the calibration loop.

    A timed trial calls its callable back to back for about SPAN_S seconds
    (the count comes from the warm-up call), so that a sub-millisecond call
    is timed warm and over as long a stretch as a large one.  It is divided
    by the mean of a burst of the first callable, as long, timed just
    before and just after it.  The host's speed swings by up to 2x within
    seconds, and the sweep's own code swings with it by about the same
    factor, where a loop of small numpy products slowed 1.8x while the
    inversions slowed 1.3-1.4x.  A cell is the median of its trials'
    ratios (a burst of load may hit a trial or its calibration), times the
    median calibration to read as seconds.  The trials are interleaved
    across all callables, so that what the calibration leaves spreads over
    every cell instead of skewing one."""
    counts = []
    for fn in fns:
        t0 = time.perf_counter()
        fn()  # warm-up run, not timed
        counts.append(max(1, math.ceil(SPAN_S / max(time.perf_counter() - t0, 1e-9))))
    ratios = [[] for _ in fns]
    cals = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, trials)):
            for idx, (fn, count) in enumerate(zip(fns, counts)):
                before = _burst_s(fns[0], counts[0])
                secs = _burst_s(fn, count) / count
                cal = (before + _burst_s(fns[0], counts[0])) / (2 * counts[0])
                ratios[idx].append(secs / cal)
                cals.append(cal)
    finally:
        if gc_was_enabled:
            gc.enable()
    scale = float(np.median(cals))
    return [float(np.median(rs)) * scale for rs in ratios]


def _timed_region():
    if threadpool_limits is not None:
        return threadpool_limits(limits=1)
    import contextlib

    return contextlib.nullcontext()


def run_bench(sizes, r, method, trials=3, seed=0, diag_shift=None, oracle_cutoff=1000):
    """Benchmark one method over a list of sizes; returns BenchRecords.

    Instances are random banded matrices (two-sided for "qr"/"lu"/"dense",
    lower banded otherwise) with ``diag_shift`` added to the diagonal
    (default r, which keeps every instance strongly regular and well
    conditioned).  Each size uses seed ``seed + n`` so cells are independent.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    shift = float(r if diag_shift is None else diag_shift)
    two_sided = method in ("qr", "lu", "dense")
    cells = []
    for n in sizes:
        a = random_band(n, r, r if two_sided else n - 1, seed + n, diag_shift=shift)
        fn = functools.partial(_INVERTERS[method], a.to_dense() if method == "dense" else a)
        cells.append((n, a, fn))
    with _timed_region():
        seconds = _interleaved_times([fn for _, _, fn in cells], trials)
    records = []
    for (n, a, fn), secs in zip(cells, seconds):
        rel_err = None
        if n <= oracle_cutoff:
            if method == "dense":
                rel_err = 0.0
            else:
                rel_err = covered_relative_error(
                    reconstruct_structured(fn()), dense_invert(a.to_dense()), r
                )
        records.append(BenchRecord(n=n, method=method, seconds=secs, rel_err=rel_err))
    return records


def write_bench_csv(path, records):
    """CSV with header ``n,method,seconds,rel_err`` (rel_err empty when the
    oracle was skipped); values at 17 significant digits."""
    rows = [asdict(rec) for rec in sorted(records, key=lambda rc: (rc.n, rc.method))]
    _write_table(path, rows, [f.name for f in fields(BenchRecord)])


def _write_table(path, rows, header=None):
    """CSV of a list of dicts, ``header`` or else the first one's keys as
    header, floats at 17 significant digits, None as an empty field."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header or list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {k: (format(v, ".17g") if isinstance(v, float) else v) for k, v in row.items()}
            )


def fit_records(records):
    """Slope fit over one method's records (n, seconds)."""
    return slope_fit([(rec.n, rec.seconds) for rec in records])


# ---------------------------------------------------------------------------
# scripted experiments (desk-scale reproductions of the benchmark protocols)
# ---------------------------------------------------------------------------

EXAMPLE_IDS = (1, 2, 3, 4, 5)

_INSTABILITY_BLOCK = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 5.0], [4.0, 6.0, 8.0]])


def instability_matrix(delta, seed=12345):
    """N=10, r=2 lower banded matrix whose leading 3x3 block
    [[1,1,1],[2,2+delta,5],[4,6,8]] forces a pivot of size ~delta on the
    unpivoted elimination path while kappa_2 stays modest for all deltas."""
    base = random_band(10, 2, 9, seed, diag_shift=2.0).to_dense()
    base[:3, :3] = _INSTABILITY_BLOCK
    base[1, 1] += delta
    return BandedMatrix.from_dense(base, 2, 9)


def _example_1(out_dir, trials):
    """Two-sided QR inversion: times and errors over growing sizes."""
    sizes = [250, 500, 1000, 2000]
    recs = run_bench(sizes, r=5, method="qr", trials=trials, seed=1, diag_shift=0.0,
                     oracle_cutoff=max(sizes))
    path = f"{out_dir}/example1_qr_two_sided.csv"
    write_bench_csv(path, recs)
    return {"files": [path], "slope": fit_records(recs).slope}


def _example_2(out_dir, trials):
    """Two-sided LU inversion on strongly regular instances (diagonal shift r)."""
    sizes = [500, 1000, 2000, 2500]
    recs = run_bench(sizes, r=5, method="lu", trials=trials, seed=2, diag_shift=5.0,
                     oracle_cutoff=max(sizes))
    path = f"{out_dir}/example2_lu_two_sided.csv"
    write_bench_csv(path, recs)
    return {"files": [path], "slope": fit_records(recs).slope}


def _example_3(out_dir, trials):
    """Structured vs dense timing contrast, two-sided and lower banded.

    The lower banded structured paths are O(n^2), so their sizes run twice as
    far before the quadratic term dominates per-step dispatch overhead; the
    dense reference stops at 2400 to keep the sweep desk-scale.
    """
    out = {"files": [], "slopes": {}}
    cases = {
        "two_sided": {
            "qr": [300, 600, 1200, 2400],
            "lu": [300, 600, 1200, 2400],
            "dense": [300, 600, 1200, 2400],
        },
        "lower": {
            "qr-lower": [600, 1200, 2400, 4800],
            "lu-lower": [600, 1200, 2400, 4800],
            "dense": [600, 1200, 2400],
        },
    }
    for tag, methods in cases.items():
        recs = []
        for method, sizes in methods.items():
            batch = run_bench(sizes, r=5, method=method, trials=trials, seed=3,
                              diag_shift=5.0, oracle_cutoff=0)
            recs.extend(batch)
            out["slopes"][f"{tag}:{method}"] = fit_records(batch).slope
        path = f"{out_dir}/example3_{tag}.csv"
        write_bench_csv(path, recs)
        out["files"].append(path)
    return out


def _example_4(out_dir, trials):
    """QR inversion accuracy against prescribed condition numbers 10^c.

    The reference inverse is computed in double precision, so it is only
    trustworthy while eps * kappa is well below the observed errors; rows are
    flagged trusted for c <= 8 and reported (not asserted) beyond that.
    """
    del trials
    n, r, seeds = 100, 5, range(10)
    path = f"{out_dir}/example4_conditioning.csv"
    rows = []
    for c in range(1, 15):
        errs = []
        conds = []
        rejected = 0
        for seed in seeds:
            a = prescribed_condition_band(n, r, 10.0 ** c, 1000 * c + seed)
            dense = a.to_dense()
            conds.append(np.linalg.cond(dense, 2))
            try:
                gens = invert_lower_band_qr(a)
            except SingularMatrixError:
                # near kappa ~ 1/eps the pivot gate may legitimately refuse
                rejected += 1
                continue
            try:
                ref = dense_invert(dense)
            except SingularMatrixError:
                # beyond the trust region the reference is reported anyway
                ref = np.linalg.inv(dense)
            errs.append(covered_relative_error(reconstruct_structured(gens), ref, r))
        rows.append(
            {
                "c": c,
                "target_cond": 10.0 ** c,
                "measured_cond": float(np.mean(conds)),
                "qr_rel_err": float(np.mean(errs)) if errs else float("nan"),
                "estimate_eps_kappa": _EPS * 10.0 ** c,
                "trusted": int(c <= 8),
                "rejected": rejected,
            }
        )
    _write_table(path, rows)
    return {"files": [path], "rows": rows}


def _example_5(out_dir, trials):
    """Unpivoted-elimination instability witness: LU error grows like 1/delta
    on the planted small-pivot block while QR stays at roundoff."""
    del trials
    path = f"{out_dir}/example5_instability.csv"
    rows = []
    for c in range(0, 9):
        delta = 10.0 ** (-c)
        a = instability_matrix(delta)
        ref = dense_invert(a.to_dense())
        lu_err = covered_relative_error(
            reconstruct_structured(invert_lower_band_lu(a)), ref, a.r_lower
        )
        qr_err = covered_relative_error(
            reconstruct_structured(invert_lower_band_qr(a)), ref, a.r_lower
        )
        rows.append({"delta": delta, "lu_rel_err": lu_err, "qr_rel_err": qr_err})
    _write_table(path, rows)
    return {"files": [path], "rows": rows}


def run_example(example_id, out_dir, trials=3):
    """Run one of the scripted experiments (1-5), writing its CSV data into
    ``out_dir``; returns a small dict of produced files and summary numbers."""
    runners = {1: _example_1, 2: _example_2, 3: _example_3, 4: _example_4, 5: _example_5}
    if example_id not in runners:
        raise ValueError(f"example id must be one of {EXAMPLE_IDS}")
    return runners[example_id](out_dir, trials)
