"""Command-line front end.

Subcommands: gen, invert, reconstruct, verify, bench, example.  Exit codes
are stable: 0 success, 2 parse/usage error, 3 singular matrix or zero pivot,
4 verification failure.  All numeric output uses 17 significant digits.
"""

import argparse
import sys

import numpy as np

from . import bench as bench_mod
from .banded import (
    BandedMatrix,
    prescribed_condition_band,
    random_band,
    read_matrix,
    write_matrix,
)
from .dense_oracle import dense_invert
from .errors import BandPatternError, SingularMatrixError
from .generators import (
    covered_relative_error,
    read_generators,
    reconstruct_structured,
    write_generators,
)
from .lu import invert_lower_band_lu
from .qr import invert_lower_band_qr

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SINGULAR = 3
EXIT_VERIFY = 4

_EPS = np.finfo(float).eps


def _fmt(x):
    return format(float(x), ".17g")


def _cmd_gen(args):
    full = args.r_upper is None or args.r_upper.lower() == "full"
    r_upper = args.n - 1 if full else int(args.r_upper)
    if args.cond is not None:
        if r_upper != args.n - 1:
            raise ValueError("--cond builds a full upper part: --r-upper must be 'full' or n-1")
        a = prescribed_condition_band(args.n, args.r, args.cond, args.seed)
    else:
        a = random_band(args.n, args.r, r_upper, args.seed, diag_shift=args.diag_shift)
    write_matrix(args.out, a)
    print(f"wrote {args.out}: n={a.n} r_lower={a.r_lower} r_upper={a.r_upper}")
    return EXIT_OK


def _cmd_invert(args):
    a = read_matrix(args.matrix)
    invert = invert_lower_band_qr if args.method == "qr" else invert_lower_band_lu
    gens = invert(a)
    write_generators(args.out, gens)
    print(f"wrote {args.out}: generators of the inverse (n={gens.n}, r={gens.r})")
    return EXIT_OK


def _cmd_reconstruct(args):
    gens = read_generators(args.gens)
    image = reconstruct_structured(gens)
    banded = BandedMatrix.from_dense(image, gens.n - 1, gens.r - 1)
    write_matrix(args.out, banded)
    print(f"wrote {args.out}: covered part as a dense image")
    return EXIT_OK


def _cmd_verify(args):
    a = read_matrix(args.matrix)
    gens = read_generators(args.gens)
    if gens.n != a.n:
        raise BandPatternError(f"size mismatch: matrix n={a.n}, generators n={gens.n}")
    dense = a.to_dense()
    inv = dense_invert(dense)
    rel_err = covered_relative_error(reconstruct_structured(gens), inv, gens.r)
    kappa = float(np.linalg.cond(dense, 2))
    threshold = 100.0 * _EPS * kappa
    ok = rel_err <= threshold
    print(f"rel_err   {_fmt(rel_err)}")
    print(f"kappa2    {_fmt(kappa)}")
    print(f"threshold {_fmt(threshold)}  (100 * eps * kappa2)")
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_bench(args):
    sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    if len(sizes) < 3:
        raise BandPatternError("bench needs at least 3 sizes")
    records = bench_mod.run_bench(
        sizes,
        r=args.r,
        method=args.method,
        trials=args.trials,
        seed=args.seed,
        diag_shift=args.diag_shift,
        oracle_cutoff=args.oracle_cutoff,
    )
    bench_mod.write_bench_csv(args.out, records)
    fit = bench_mod.fit_records(records)
    print(f"wrote {args.out}")
    print(f"slope {_fmt(fit.slope)}  intercept {_fmt(fit.intercept)}  residual {_fmt(fit.residual)}")
    return EXIT_OK


def _cmd_example(args):
    result = bench_mod.run_example(args.id, args.out_dir, trials=args.trials)
    for path in result["files"]:
        print(f"wrote {path}")
    if "slope" in result:
        print(f"slope {_fmt(result['slope'])}")
    for key, val in result.get("slopes", {}).items():
        print(f"slope[{key}] {_fmt(val)}")
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="greenband",
        description="Green generator representations of banded matrix inverses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random banded test matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True, help="lower bandwidth")
    p.add_argument("--r-upper", default=None,
                   help="upper bandwidth (integer or 'full', in any case; default full)")
    p.add_argument("--seed", type=int, default=0)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--diag-shift", type=float, default=0.0)
    grp.add_argument("--cond", type=float, default=None,
                     help="target 2-norm condition number (lower banded output)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("invert", help="compute generators of the inverse")
    p.add_argument("matrix")
    p.add_argument("--method", choices=("qr", "lu"), default="qr")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("reconstruct", help="expand a generator file to its dense image")
    p.add_argument("gens")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("verify", help="check a generator file against the dense inverse")
    p.add_argument("matrix")
    p.add_argument("gens")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("bench", help="timing sweep with a log-log slope fit")
    p.add_argument("--sizes", required=True, help="comma-separated list, at least 3")
    p.add_argument("--r", type=int, default=5)
    p.add_argument("--method", choices=bench_mod.METHODS, default="qr")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--diag-shift", type=float, default=None)
    p.add_argument("--oracle-cutoff", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("example", help="run one of the scripted experiments")
    p.add_argument("id", type=int, choices=bench_mod.EXAMPLE_IDS)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--trials", type=int, default=3)
    p.set_defaults(fn=_cmd_example)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BandPatternError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SingularMatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
