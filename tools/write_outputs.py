"""Write every output of the benchmark's inputs, for a byte-for-byte diff of two versions.

Usage: ``python tools/write_outputs.py OUT_DIR [--seeds 1-3]``

For each seed and workload, ``perfbench/inputs.make_inputs`` generates the
benchmark's seeded inputs into ``OUT_DIR/seed<N>/<workload>/inputs``, and
the program of this checkout (``src/`` beside this script) writes beside
them:

- ``solve/<item>.csv``: the solve CSV of each config (``write_solve_csv``),
  and ``solve/<item>.b_ref.csv``: its ``reference_mean_intercepts`` columns
  ``b1_ref, b0_ref`` as ``'%.17g'``, which round-trips every float;
- ``sweep/<item>.csv``: each ``alphamv sweep`` output, and
  ``sweep/exit_codes.txt``;
- ``verify/<item>.txt``: each ``alphamv verify`` run's standard output and
  error, then its exit code;
- ``verify/<item>.mc.csv``: the Monte Carlo samples that verify scores, run
  again as verify runs them (one ``simulate_terminal(..., h0=(1, 0))`` per
  extremal side, lo from ``seed`` and hi from ``seed + 1``), as one row per
  side and default state: the sample mean, variance, penalty and J of
  ``objective_from_terminal``, each ``'%.17g'``, where verify prints only
  four digits, and the sha256 of the raw samples the row reads: its X(T)
  row, and the side's default times and claim counts, so the diff checks
  whole samples bit for bit;
- ``verify/<item>.paths.csv``: ``dump_paths_csv`` of four lo-side
  trajectories from h0 = 0 on the ``mc_dt`` grid, at the config's seed.

Run it once on each of two checkouts, into two directories; the two
versions behave the same on these inputs when ``diff -r`` of the
directories is empty.  OUT_DIR must lie outside the checkout, and nothing
(bytecode caches included) is written inside it.  Standard library, numpy
and the program only.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True      # leave no __pycache__ in the checkout

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import alphamv as amv  # noqa: E402
import alphamv.cli  # noqa: E402  (the package does not import its CLI module itself)
from perfbench.inputs import make_inputs  # noqa: E402


def _seeds(text: str) -> list[int]:
    """``"N"`` or ``"A-B"`` (inclusive) as a list of seeds."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def _solve(specs: list, out: Path) -> None:
    for spec in specs:
        params, claims, numerics = amv.load_config(spec["config"])
        measure = amv.build_measure(claims, numerics.quad_nodes)
        solution = amv.solve_equilibrium(params, measure, numerics)
        amv.write_solve_csv(out / f"{spec['name']}.csv", solution)
        b_ref = amv.reference_mean_intercepts(params, measure, solution, numerics.exp_cap)
        np.savetxt(out / f"{spec['name']}.b_ref.csv", np.column_stack(b_ref), fmt="%.17g",
                   delimiter=",", header="b1_ref,b0_ref", comments="")


def _run_cli(argv: list) -> tuple[int, str]:
    """Exit code and the standard output and error of one ``alphamv`` call."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        code = amv.cli.main(argv)
    return code, text.getvalue()


def _sweep(specs: list, out: Path) -> None:
    codes = []
    for spec in specs:
        code, _ = _run_cli(["sweep", "--config", str(spec["config"]), "--param", spec["param"],
                            "--from", spec["lo"], "--to", spec["hi"],
                            "--points", spec["points"], "--quantity", spec["quantity"],
                            "--out", str(out / f"{spec['name']}.csv")])
        codes.append(f"{spec['name']} {code}\n")    # the output names its own path
    (out / "exit_codes.txt").write_text("".join(codes), encoding="utf-8")


def _sha256(sample: np.ndarray) -> str:
    """sha256 of a sample's raw bytes, with its dtype: equal digests, equal samples."""
    data = np.ascontiguousarray(sample)
    return hashlib.sha256(data.dtype.str.encode() + data.tobytes()).hexdigest()


def _monte_carlo(config: Path, out: Path, name: str) -> None:
    """The full-precision Monte Carlo summaries and a short path dump of one verify config."""
    params, claims, numerics = amv.load_config(config)
    measure = amv.build_measure(claims, numerics.quad_nodes)
    solution = amv.solve_equilibrium(params, measure, numerics)
    dist = amv.distortions(solution, params)
    n, dt, seed = numerics.mc_paths, numerics.mc_dt, numerics.seed
    rows = ["side,h0,mean,variance,penalty,j_value,x_sha256,default_time_sha256,"
            "claim_count_sha256\n"]
    for i, tag in enumerate(("lo", "hi")):
        side = getattr(dist, tag)
        x_T, default_time, claim_count = amv.simulate_terminal(
            solution, side, params, measure, n, dt, seed + i, x0=params.x0, h0=(1, 0))
        for sample, h in zip(x_T, (1, 0)):
            est = amv.objective_from_terminal(sample, side, params, measure)
            numbers = (est.mean, est.variance, est.penalty, est.j_value)
            digests = (_sha256(a) for a in (sample, default_time, claim_count))
            rows.append(f"{tag},{h}," + ",".join("%.17g" % x for x in numbers) + ","
                        + ",".join(digests) + "\n")
    (out / f"{name}.mc.csv").write_text("".join(rows), encoding="utf-8")
    paths = amv.simulate_wealth(solution, dist.lo, params, measure, 4, dt, seed, h0=0)
    amv.dump_paths_csv(paths, out / f"{name}.paths.csv")


def _verify(specs: list, out: Path) -> None:
    for spec in specs:
        code, text = _run_cli(["verify", "--config", str(spec["config"])])
        (out / f"{spec['name']}.txt").write_text(f"{text}exit {code}\n", encoding="utf-8")
        _monte_carlo(spec["config"], out, spec["name"])


WORKLOADS = {"solve": _solve, "sweep": _sweep, "verify": _verify}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-3"),
                        help="one seed N or an inclusive range A-B (default 1-3)")
    args = parser.parse_args(argv)
    out_dir = args.out_dir.resolve()
    if out_dir == ROOT or ROOT in out_dir.parents:
        parser.error(f"OUT_DIR {out_dir} lies inside the checkout {ROOT}")
    for seed in args.seeds:
        for workload, write in WORKLOADS.items():
            out = out_dir / f"seed{seed}" / workload
            (out / "inputs").mkdir(parents=True, exist_ok=True)
            write(make_inputs(workload, seed, out / "inputs", ROOT, amv), out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
