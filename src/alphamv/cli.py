"""Command-line front end: solve, sweep, verify.

Exit codes: 0 success, 1 validation error (an invalid or unreadable config,
or an output path that cannot be written), 2 verification failure,
3 numerical failure.

:func:`main` may be called repeatedly in one process, as
``demos/02_figure_sweeps.py`` does: the argument parser is built on the
first call and reused, and parsing does not change it.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import load_config
from .errors import ConfigError, NumericalError, ValidationError
from .levy import build_measure
from .solver import solve_equilibrium
from .sweep import SweepSpec, run_sweep, write_solve_csv, write_sweep_csv
from .verify import run_verification

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_NUMERICAL = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphamv",
        description="Equilibrium reinsurance-investment solver for an "
                    "alpha-maxmin mean-variance insurer in a defaultable market.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="tabulate the full equilibrium solution as CSV")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter and report a quantity")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--from", dest="lo", type=float, required=True)
    p_sweep.add_argument("--to", dest="hi", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--quantity", required=True)
    p_sweep.add_argument("--t", type=float, default=None)
    p_sweep.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run the solver-vs-simulator oracle suite")
    p_verify.add_argument("--config", required=True)
    return parser


def _cmd_solve(args) -> int:
    params, claims, numerics = load_config(args.config)
    measure = build_measure(claims, numerics.quad_nodes)
    solution = solve_equilibrium(params, measure, numerics)
    write_solve_csv(args.out, solution)
    print(f"wrote {len(solution.grid)} rows to {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    params, claims, numerics = load_config(args.config)
    spec = SweepSpec.from_range(args.param, args.lo, args.hi, args.points,
                                args.quantity, t=args.t)
    result = run_sweep(params, claims, numerics, spec)
    write_sweep_csv(args.out, result)
    n_ok = sum(1 for row in result.rows if row.status == "ok")
    print(f"wrote {len(result.rows)} rows ({n_ok} ok) to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    params, claims, numerics = load_config(args.config)
    report = run_verification(params, claims, numerics)
    for line in report.lines():
        print(line)
    if not report.all_passed:
        n_failed = sum(1 for c in report.checks if not c.passed)
        print(f"verification FAILED: {n_failed} of {len(report.checks)} checks")
        return EXIT_VERIFICATION
    print(f"verification passed: {len(report.checks)} checks")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"solve": _cmd_solve, "sweep": _cmd_sweep, "verify": _cmd_verify}[args.command]
    try:
        return handler(args)
    # the config read and the CSV writes are the only file access, so an
    # OSError names an unreadable config or an unwritable output path
    except (ConfigError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
