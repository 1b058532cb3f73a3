"""Alternating benchmark runs of two checkouts, and the rule for claiming a gain.

    python tools/ab_pairs.py PARENT CHANGE --workloads W [W ...] --seeds S [S ...]
                             --seconds SEC [--trace 0|1]
    python tools/ab_pairs.py --saved FILE [FILE ...]

PARENT and CHANGE are checkouts of the repository: say the parent commit
unpacked by ``git archive`` and the working tree.  For each workload and
seed the script runs ``perfbench/run.py`` once in each checkout, one process
at a time; the side that goes first alternates from each seed to the next.
Each run's result (the last line of its output) is printed as one JSON line
``{"workload", "seed", "side", "result"}`` as soon as it ends, and the summary
follows the last run.  The script itself writes nothing inside either
checkout.

The summary gives, per workload and metric, each side's median and
quartiles, the median and quartiles of the per-seed ratio change / parent
(over the pairs whose parent value is not zero), the change's wins out of
all pairs (ties count for neither side) and whether a gain may be claimed:
the change wins at least nine in ten pairs, and its median is better than
the parent's by more than the parent's quartile distance.  The ratios are
for reading only: on a host whose speed switches between modes, each
side's quartiles span both modes while the paired ratios stay close, and
neither the claim nor the verdict below reads them.  Which way is better comes from the ``BENCHMARK.json``
of CHANGE (lower when a metric is not listed there).

``--saved`` runs nothing: it reads the JSON run lines from files of the
script's saved output (other lines, such as a summary, are skipped) and
prints their summary, so that pairs from several sessions, such as a second
set on fresh seeds, are judged together.  A (workload, seed, side) found
twice is an error, so that no run counts twice.  Directions and bounds then
come from the ``BENCHMARK.json`` of the checkout that holds the script.

Each ``end_to_end`` metric of that file also gets a no-regression verdict,
its ``bound`` read as a fraction of the parent's median: ``worse`` when the
change's median is worse than the parent's by more than the bound;
otherwise ``unresolved`` when the parent's quartile distance exceeds the
bound, unless every change run beats every parent run; otherwise
``in bound``.  Per-layer metrics get no verdict.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
ROOT = Path(__file__).resolve().parents[1]


def run_once(checkout, workload, seed, seconds, trace):
    """The result object of one ``perfbench/run.py`` run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_pairs(args):
    """Run every pair that ``args`` names, printing each run's line as it
    ends; returns the lines."""
    lines = []
    for k, seed in enumerate(args.seeds):
        for workload in args.workloads:
            # each workload's pairs alternate which side runs first
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                checkout = args.parent if side == "parent" else args.change
                result = run_once(checkout, workload, seed, args.seconds, args.trace)
                line = json.dumps({"workload": workload, "seed": seed, "side": side, "result": result})
                print(line, flush=True)
                lines.append(line)
    return lines


def saved_lines(paths):
    """The run lines of files of saved output, in order; any other line is
    skipped.  Raises ValueError when a (workload, seed, side) appears twice,
    naming both places."""
    lines, seen = [], {}
    for path in paths:
        for number, line in enumerate(Path(path).read_text().splitlines(), 1):
            if line.startswith("{"):
                rec = json.loads(line)
                key = rec["workload"], rec["seed"], rec["side"]
                if key in seen:
                    raise ValueError(f"{path}:{number}: run {key} also at {seen[key]}")
                seen[key] = f"{path}:{number}"
                lines.append(line)
    return lines


def directions(benchmark):
    """Metric name -> "lower" or "higher", from a BENCHMARK.json file."""
    spec = json.loads(Path(benchmark).read_text())
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def bounds(benchmark):
    """End-to-end metric name -> its bound, from a BENCHMARK.json file."""
    spec = json.loads(Path(benchmark).read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def verdict(parent, change, sign, bound):
    """The no-regression verdict on one metric's runs, ``bound`` a fraction
    of the parent's median; ``sign`` is 1 when lower is better, -1 when
    higher is."""
    (p1, pm, p3), cm = quartiles(parent), statistics.median(change)
    margin = bound * abs(pm)
    if sign * (cm - pm) > margin:
        return "worse"
    if p3 - p1 > margin and not all(sign * c < sign * p for c in change for p in parent):
        return "unresolved"
    return "in bound"


def quartiles(values):
    """(first quartile, median, third quartile) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(lines, better=None, bound=None):
    """One row per (workload, metric) from JSON lines of runs.

    A row holds each side's (q1, median, q3), ``ratio``: the (q1, median,
    q3) of the per-pair change / parent values whose parent value is not
    zero (None when none is), the failed and attempted ops of each side,
    the change's wins, the pairs, ``claim``: at least nine
    tenths of the pairs won and a median gain larger than the parent's
    quartile distance, and ``verdict``: the no-regression verdict of a
    metric with a ``bound``, None for the others.  A pair is a workload and
    seed run on both sides.  Raises ValueError, naming the run, when a
    (workload, seed, side) appears twice."""
    better, bound = better or {}, bound or {}
    runs = {}
    for line in lines:
        if line.strip():
            rec = json.loads(line)
            key = rec["workload"], rec["seed"], rec["side"]
            if key in runs:
                raise ValueError(f"run {key} appears twice")
            runs[key] = rec["result"]
    rows = []
    for workload in sorted({w for w, _, _ in runs}):
        seeds = sorted(s for w, s, side in runs if w == workload and side == "parent" and (w, s, "change") in runs)
        pairs = [(runs[workload, s, "parent"], runs[workload, s, "change"]) for s in seeds]
        if not pairs:
            continue
        ops = {side: [sum(p[k][key] for p in pairs) for key in ("failed", "attempted")] for k, side in enumerate(SIDES)}
        for metric in sorted(set(pairs[0][0]["metrics"]) & set(pairs[0][1]["metrics"])):
            sign = -1.0 if better.get(metric, "lower") == "higher" else 1.0
            vals = {side: [p[k]["metrics"][metric]["value"] for p in pairs] for k, side in enumerate(SIDES)}
            wins = sum(sign * c < sign * p for p, c in zip(vals["parent"], vals["change"]))
            stats = {side: quartiles(v) for side, v in vals.items()}
            (p1, pm, p3), (_, cm, _) = stats["parent"], stats["change"]
            ratios = [c / p for p, c in zip(vals["parent"], vals["change"]) if p]
            rows.append({
                "workload": workload, "metric": metric, "pairs": len(pairs), "wins": wins,
                **stats, "ratio": quartiles(ratios) if ratios else None, "failed": ops,
                "claim": wins >= 0.9 * len(pairs) and sign * (pm - cm) > p3 - p1,
                "verdict": verdict(vals["parent"], vals["change"], sign, bound[metric]) if metric in bound else None,
            })
    return rows


def report(rows):
    """The summary rows as text, one line each."""
    out = [f"{'workload':<14} {'metric':<32} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} "
           f"{'change/parent median [q1, q3]':>30} {'wins':>7}  claim   {'verdict':<10}  failed (parent, change)"]
    for row in rows:
        parent, change = ("{1:.6g} [{0:.6g}, {2:.6g}]".format(*row[side]) for side in SIDES)
        ratio = "{1:.4f} [{0:.4f}, {2:.4f}]".format(*row["ratio"]) if row["ratio"] else "-"
        failed = ", ".join(f"{f}/{a}" for f, a in (row["failed"][s] for s in SIDES))
        out.append(f"{row['workload']:<14} {row['metric']:<32} {parent:>36} {change:>36} {ratio:>30} "
                   f"{row['wins']:>3}/{row['pairs']:<3}  {'holds' if row['claim'] else 'no':<6}  "
                   f"{row['verdict'] or '-':<10}  {failed}")
    return "\n".join(out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--saved", nargs="+", metavar="FILE",
                    help="summarize the runs saved in these files instead of running any")
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--seeds", nargs="+", type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.saved:
        if args.parent or args.workloads or args.seeds:
            ap.error("--saved takes no checkouts, workloads or seeds")
        try:
            lines = saved_lines(args.saved)
        except ValueError as exc:
            ap.error(str(exc))
        benchmark = ROOT / "BENCHMARK.json"
    else:
        if not (args.change and args.workloads and args.seeds):
            ap.error("PARENT, CHANGE, --workloads and --seeds are required without --saved")
        if len(set(args.seeds)) < len(args.seeds):
            ap.error("a seed is given twice")
        lines = run_pairs(args)
        benchmark = Path(args.change) / "BENCHMARK.json"
    better, bound = (directions(benchmark), bounds(benchmark)) if benchmark.is_file() else ({}, {})
    print(report(summarize(lines, better, bound)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
