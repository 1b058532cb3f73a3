"""Benchmark of the greenband library: seeded workloads, a correctness gate,
end-to-end metrics and a traced per-layer run.  Run it with
``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.
"""
