"""Run one workload of the greenband benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: narrow_band, wide_band, lower_full, generator_io (see
perfbench/README.md).  The library is imported from ``src/`` of the checkout
this file sits in; without it the run stops with exit code 2.
"""

import os
import sys
from pathlib import Path


def main():
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "greenband" / "__init__.py").is_file():
        print(f"perfbench: no greenband sources under {src}", file=sys.stderr)
        return 2
    # one BLAS thread, fixed before numpy loads (threadpoolctl is not required)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(root)]
    from perfbench import driver

    return driver.main(sys.argv[1:], root, pin=True)


if __name__ == "__main__":
    sys.exit(main())
