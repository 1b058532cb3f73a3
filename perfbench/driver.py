"""Command line, metrics and report of the greenband benchmark.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The lines before it are the readable report.
"""

import argparse
import json
import os
import resource
import statistics
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

import greenband

from . import workloads
from .spans import Tracer

__all__ = ["END_TO_END", "PER_LAYER", "WORKLOAD_METRICS", "main"]

# Gated metrics: every workload reports each of them.  A round is one pass of
# the workload's operation mix on fresh input (the QR and the LU inversion of
# one instance, or one entry batch + reconstruction + save/load round trip).
# round_cal_p50 is the median over rounds of the sum over the round's ops of
# (op seconds / seconds of the calibration loop timed around that op,
# workloads.calibration_s at the workload's r): on a shared host raw seconds
# swing by up to 2x between runs, the ratio by a few per cent.  Raw seconds
# are in the report.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_cal_p50": "ratio",
}

# Workload-specific user-facing metrics, printed in the report with their
# sample counts (not in the JSON line, which must carry one metric set for
# every workload).  error_rate is printed for every workload.
WORKLOAD_METRICS = {
    "inversion": {
        "qr_rows_per_s": "rows/s",
        "lu_rows_per_s": "rows/s",
        "qr_s_p50": "s",
        "qr_s_p90": "s",
        "lu_s_p50": "s",
        "lu_s_p90": "s",
    },
    "generator_io": {
        "entries_per_s": "1/s",
        "reconstruct_s_p50": "s",
        "save_load_s_p50": "s",
    },
}

# Raw round times and the calibration loop, printed for every workload.
RAW_ROUND = {"round_s_p50": "s", "round_s_p90": "s", "calibration_s_p50": "s", "error_rate": "ratio"}

PER_LAYER = {
    "banded.construct_s": "s",
    "qr.invert_s": "s",
    "qr.us_per_row": "us",
    "qr.flops": "count",
    "qr.gflops": "GFLOP/s",
    "qr.factor_lower_s": "s",
    "qr.recursion_lower_s": "s",
    "lu.invert_s": "s",
    "lu.us_per_row": "us",
    "lu.flops": "count",
    "lu.gflops": "GFLOP/s",
    "lu.factor_lower_s": "s",
    "lu.recursion_lower_s": "s",
    "lu.growth_max": "ratio",
    "generators.construct_s": "s",
    "generators.entry_s": "s",
    "generators.entry_steps": "count",
    "generators.reconstruct_s": "s",
    "generators.write_s": "s",
    "generators.read_s": "s",
    "generators.bytes": "bytes",
    "dense_oracle.invert_s": "s",
    "dense_oracle.speedup_vs_qr": "ratio",
    "check.s": "s",
    "check.rel_err_max": "ratio",
    "check.residual_max": "ratio",
    "trace.overhead": "ratio",
}


def _timing(values, q):
    """Percentile q of values, with the sample count and how many lie beyond it."""
    beyond = int(len(values) * (100 - q) / 100)
    return float(np.percentile(values, q)), f"{len(values)} samples, {beyond} beyond"


def _counts(out):
    """(attempted, failed) over every round of the run."""
    oks = [ok for ops in out.rounds for *_, ok in ops]
    return len(oks), oks.count(False)


def _normalized(out, traced):
    """Per round traced (or not): the sum of op seconds / calibration seconds."""
    return [sum(t / c for _, t, c, _ in ops) for ops, on in zip(out.rounds, out.traced) if on == traced]


def end_to_end(out):
    """The gated metrics and the workload's own, each as (value, unit, note)."""
    plain = [i for i, on in enumerate(out.traced) if not on]
    secs = [sum(t for _, t, _, _ in out.rounds[i]) for i in plain]
    ops = [op for i in plain for op in out.rounds[i]]
    metrics = {
        "setup_s": (statistics.median(out.setup_s), f"median of {len(out.setup_s)} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "ru_maxrss"),
        "round_cal_p50": _timing(_normalized(out, False), 50),
        "round_s_p50": _timing(secs, 50),
        "round_s_p90": _timing(secs, 90),
        "calibration_s_p50": _timing([c for _, _, c, _ in ops], 50),
    }
    by_kind = defaultdict(list)
    for kind, t, _, _ in ops:
        by_kind[kind].append(t)
    spec = out.spec
    if isinstance(spec, workloads.InversionSpec):
        for m in ("qr", "lu"):
            ts = by_kind[m]
            metrics[f"{m}_rows_per_s"] = (spec.n * len(ts) / sum(ts), f"n={spec.n}, {len(ts)} inversions")
            metrics[f"{m}_s_p50"] = _timing(ts, 50)
            metrics[f"{m}_s_p90"] = _timing(ts, 90)
    else:
        n_queries = len(workloads.batch_positions(workloads.rng(0), spec))
        ts = by_kind["entry"]
        metrics["entries_per_s"] = (
            n_queries * len(ts) / sum(ts),
            f"n={spec.n_query}, {len(ts)} batches of {n_queries}",
        )
        metrics["reconstruct_s_p50"] = _timing(by_kind["reconstruct"], 50)
        metrics["save_load_s_p50"] = _timing(by_kind["save_load"], 50)
    attempted, failed = _counts(out)
    metrics["error_rate"] = (failed / attempted, f"{failed} of {attempted} ops failed")
    return metrics


def per_layer(out, tracer):
    """Per-layer metrics from the spans and counters of a traced run.  Times
    are mean self seconds per call; ``*_lower`` and the dense speed-up come
    from the probe instance."""
    own = tracer.self_times()
    calls = defaultdict(list)
    span_s = defaultdict(list)
    for (name, start, end, _, op), t in zip(tracer.spans, own):
        calls[name].append((t, op))
        span_s[name].append(end - start)
    c = tracer.counters

    def total(name, op=None):
        return sum(t for t, o in calls[name] if op is None or o == op)

    def mean(name):
        return total(name) / len(calls[name]) if calls[name] else 0.0

    m = {"banded.construct_s": mean("banded.construct")}
    for meth in ("qr", "lu"):
        busy = total(f"{meth}.invert")
        m[f"{meth}.invert_s"] = mean(f"{meth}.invert")
        m[f"{meth}.us_per_row"] = busy / c[f"{meth}.rows"] * 1e6
        m[f"{meth}.flops"] = c[f"{meth}.flops"] / len(calls[f"{meth}.invert"])
        m[f"{meth}.gflops"] = c[f"{meth}.flops"] / busy / 1e9
        m[f"{meth}.factor_lower_s"] = mean(f"{meth}.factor_lower")
        m[f"{meth}.recursion_lower_s"] = mean(f"{meth}.invert_lower") - mean(f"{meth}.factor_lower")
    m["lu.growth_max"] = c["lu.growth_max"]
    for key in ("construct", "entry", "reconstruct", "write", "read"):
        m[f"generators.{key}_s"] = mean(f"generators.{key}")
    m["generators.entry_steps"] = c["generators.entry_steps"] / len(calls["generators.entry"])
    m["generators.bytes"] = c["generators.bytes"] / len(calls["generators.write"])
    m["dense_oracle.invert_s"] = mean("dense_oracle.invert")
    m["dense_oracle.speedup_vs_qr"] = total("dense_oracle.invert", "probe") / total("qr.invert", "probe")
    m["check.s"] = statistics.fmean(span_s["check"])  # whole check per round, children included
    m["check.rel_err_max"] = out.stats["rel_err_max"]
    m["check.residual_max"] = out.stats["residual_max"]
    m["trace.overhead"] = statistics.median(_normalized(out, True)) / statistics.median(_normalized(out, False))
    return m


def pin_quietest_cpu(samples=5):
    """Pin the process to the allowed CPU on which the calibration loop runs
    fastest.  On a shared host one virtual CPU can share its core with a
    busy neighbour and run up to twice as slowly, in bursts; unpinned, a run
    lands on either and its timings jump between two levels.  Returns the
    median loop time per CPU, in ms."""
    cpus = sorted(os.sched_getaffinity(0))
    times = {c: [] for c in cpus}
    for _ in range(samples):
        for c in cpus:
            os.sched_setaffinity(0, {c})
            times[c].append(workloads.calibration_s(4))
    loop_ms = {c: 1e3 * statistics.median(ts) for c, ts in times.items()}
    os.sched_setaffinity(0, {min(loop_ms, key=loop_ms.get)})
    return loop_ms


def machine():
    """nproc, the BLAS build and its thread pin, and the cache sizes (from
    sysconf, which glibc answers from the CPU)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    caches = []
    # glibc's _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    for label, key in (("L1d", 188), ("L2", 191), ("L3", 194)):
        try:
            size = os.sysconf(key)
        except (OSError, ValueError):
            size = -1
        caches.append(f"{label}={size // 1024} KiB" if size > 0 else f"{label}=unknown")
    return (
        f"nproc={os.cpu_count()} pinned to cpu {sorted(os.sched_getaffinity(0))} blas={blas} "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')} "
        f"OMP_NUM_THREADS={os.environ.get('OMP_NUM_THREADS')} " + " ".join(caches)
    )


def describe(spec):
    if isinstance(spec, workloads.InversionSpec):
        shape = "lower banded, full upper part" if spec.one_sided else "two-sided banded"
        return f"{shape} n={spec.n} r={spec.r}; QR and LU inversion of each instance"
    return (
        f"two-sided r={spec.r}; entry batches on n={spec.n_query}, "
        f"reconstruct n={spec.n_image}, save/load n={spec.n_io}"
    )


def _line(name, value, unit, note=""):
    return f"{name:<28} {value:>16.6g} {unit:<8} {note}".rstrip()


def parse_args(argv, names):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None, root=None, specs=workloads.SPECS, gb=greenband, pin=False):
    """Run one workload and print the report; returns the exit code.  With
    ``pin`` the process first pins itself to its quietest CPU."""
    args = parse_args(argv, list(specs))
    loop_ms = pin_quietest_cpu() if pin else {}
    outdir = Path(root or Path(__file__).resolve().parent.parent) / "perfbench" / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=outdir) as scratch:
        ctx = workloads.Context(gb, Path(scratch))
        out = workloads.run(args.workload, args.seed, args.seconds, ctx, tracer, specs)
    e2e = end_to_end(out)
    print(f"# greenband benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: {machine()}")
    if loop_ms:
        print("# cpu choice, calibration loop ms: " + " ".join(f"cpu{c}={t:.3f}" for c, t in loop_ms.items()))
    print(f"# workload: {describe(out.spec)}; closed loop, one client, {len(out.rounds)} rounds")
    print("# tolerances: " + " ".join(f"{k}<={v:g}" for k, v in workloads.TOLERANCES.items()))
    for msg in out.errors[:5]:
        print(f"# error: {msg}")
    kind = "inversion" if isinstance(out.spec, workloads.InversionSpec) else "generator_io"
    units = {**END_TO_END, **WORKLOAD_METRICS[kind], **RAW_ROUND}
    if args.trace:
        print("# end-to-end (untraced rounds of this traced run):")
    for name, unit in units.items():
        print(_line(name, e2e[name][0], unit, e2e[name][1]))
    if args.trace:
        layers = per_layer(out, tracer)
        path = outdir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, layers)
        print(f"# per-layer (traced rounds, set-up and probe; {len(tracer.spans)} spans in {path.name}):")
        for name, unit in PER_LAYER.items():
            print(_line(name, layers[name], unit))
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": u} for k, u in END_TO_END.items()}
    attempted, failed = _counts(out)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0
