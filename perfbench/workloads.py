"""The workloads: what one item runs, how its output is checked, its work.

Every item calls the program only through public ``alphamv`` names looked up
at call time, so the tracer's wrappers see the calls.  ``run`` is timed;
``check`` is not, and returns a list of problems (empty when the output is
correct).  ``units`` is the item's work in the workload's throughput unit.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import alphamv as amv
import alphamv.cli  # the package does not import its CLI module itself

# Mixed tolerance for outputs compared against the committed reference CSVs:
# |got - want| <= REF_ATOL + REF_RTOL * |want|.  Re-running the seed code
# differs from the committed files by at most 7.1e-15 absolute.
REF_ATOL = 1e-10
REF_RTOL = 1e-8

# A Monte Carlo check of `verify` counts as a failure only beyond this many
# standard errors, so that a new random stream cannot fail a correct program
# by chance; the program's own PASS/FAIL uses 3.
Z_BOUND = 5.0
MC_CHECKS = re.compile(r"^(g_intercept_|value_identity_|default_frequency)")
SE_DETAIL = re.compile(r"= ([-+0-9.e]+) vs 3\*SE = ([-+0-9.e]+)")
FREQ_DETAIL = re.compile(r"\|([-+0-9.e]+) - ([-+0-9.e]+)\| vs 3\*SE = ([-+0-9.e]+)")

UNITS = {"solve": "grid rows", "sweep": "sweep points", "verify": "Monte Carlo path steps"}


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    units: float


class Readouts:
    """Accuracy readouts gathered by the checks (not speed metrics)."""

    def __init__(self):
        self.max_root_residual = 0.0
        self.max_rel_dev_ref = 0.0
        self.verify_checks = {}        # verify item -> (checks, failed_3se, max |z|)


def _compare(got: np.ndarray, want: np.ndarray, what: str, readouts: Readouts) -> list:
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != reference {want.shape}"]
    dev = np.abs(got - want)
    rel = dev / np.maximum(np.abs(want), np.finfo(float).tiny)
    readouts.max_rel_dev_ref = max(readouts.max_rel_dev_ref,
                                   float(np.max(np.where(dev == 0, 0.0, rel))))
    bad = dev > REF_ATOL + REF_RTOL * np.abs(want)
    if np.any(bad):
        k = int(np.flatnonzero(bad.ravel())[0])
        return [f"{what}: value {got.ravel()[k]!r} differs from reference {want.ravel()[k]!r}"]
    return []


# --------------------------------------------------------------------------
# solve: the `alphamv solve` library path, one item per generated config
# --------------------------------------------------------------------------

def _solve_item(spec: dict, workdir: Path, reference_dir: Path, readouts: Readouts) -> Item:
    out = workdir / f"{spec['name']}.csv"
    numerics = amv.load_config(spec["config"])[2]

    def run():
        params, claims, numerics = amv.load_config(spec["config"])
        measure = amv.build_measure(claims, numerics.quad_nodes)
        solution = amv.solve_equilibrium(params, measure, numerics)
        b_ref = amv.reference_mean_intercepts(params, measure, solution, numerics.exp_cap)
        amv.write_solve_csv(out, solution)
        return params, measure, numerics, solution, b_ref

    def check(result) -> list:
        params, measure, numerics, solution, b_ref = result
        c = solution.coeffs
        columns = (solution.grid, solution.pi_q, solution.pi_s, solution.pi_p,
                   c.B1, c.B0, c.b1_lo, c.b1_hi, c.b0_lo, c.b0_hi)
        table = np.column_stack(columns)
        problems = []
        if not (np.all(np.isfinite(table)) and all(np.all(np.isfinite(b)) for b in b_ref)):
            problems.append("non-finite solution or reference intercepts")
        F = amv.reinsurance_foc(solution.grid, solution.pi_q, params, measure, numerics.exp_cap)
        scale = params.eta * params.discount_to_horizon(solution.grid) * measure.moment(1)
        residual = float(np.max(np.abs(F) / scale))
        readouts.max_root_residual = max(readouts.max_root_residual, residual)
        if not residual <= numerics.root_tol:
            problems.append(f"pi_q residual {residual:.3e} above root_tol {numerics.root_tol:g}")
        written = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        if written.shape != table.shape or not np.array_equal(written, table):
            problems.append("solve CSV does not round-trip the solution")
        if spec["reference"]:
            want = np.loadtxt(reference_dir / "equilibrium.csv", delimiter=",",
                              skiprows=1, ndmin=2)
            problems += _compare(written, want, "equilibrium.csv", readouts)
        return problems

    return Item(spec["name"], run, check, units=numerics.time_steps + 1)


# --------------------------------------------------------------------------
# sweep: `alphamv sweep` through the CLI, figure presets plus seeded extras
# --------------------------------------------------------------------------

def _read_sweep_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    values = np.array([float(r[0]) for r in rows])
    quantities = np.array([float(r[1]) if r[1] else math.nan for r in rows])
    return lines[0], values, quantities, [r[2] for r in rows]


def _sweep_item(spec: dict, workdir: Path, reference_dir: Path, readouts: Readouts) -> Item:
    out = workdir / f"{spec['name']}.csv"
    argv = ["sweep", "--config", str(spec["config"]), "--param", spec["param"],
            "--from", spec["lo"], "--to", spec["hi"], "--points", spec["points"],
            "--quantity", spec["quantity"], "--out", str(out)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return amv.cli.main(argv)

    def check(code) -> list:
        if code != 0:
            return [f"exit code {code}"]
        header, values, quantities, status = _read_sweep_csv(out)
        problems = []
        if header != f"{spec['param']},{spec['quantity']},status":
            problems.append(f"header {header!r}")
        if values.size != int(spec["points"]) or np.any(np.diff(values) < 0):
            problems.append("rows missing or not sorted by parameter value")
        bad = [s for s in status if s != "ok"]
        if bad:
            problems.append(f"{len(bad)} points not solved: {bad[0]}")
        if not np.all(np.isfinite(quantities)):
            problems.append("non-finite quantity")
        if spec["reference"]:
            _, want_v, want_q, want_s = _read_sweep_csv(reference_dir / spec["reference"])
            problems += _compare(values, want_v, f"{spec['reference']} values", readouts)
            problems += _compare(quantities, want_q, f"{spec['reference']} quantities", readouts)
            if status != want_s:
                problems.append(f"{spec['reference']}: statuses differ")
        return problems

    return Item(spec["name"], run, check, units=int(spec["points"]))


# --------------------------------------------------------------------------
# verify: `alphamv verify` through the CLI at a reduced Monte Carlo scale
# --------------------------------------------------------------------------

def parse_z(name: str, detail: str) -> float:
    """|estimate - target| in standard errors, from a Monte Carlo check line."""
    if name == "default_frequency":
        got, want, three_se = (float(x) for x in FREQ_DETAIL.search(detail).groups())
        diff = abs(got - want)
    else:
        diff, three_se = (float(x) for x in SE_DETAIL.search(detail).groups())
    return 3.0 * diff / three_se if three_se > 0 else (0.0 if diff == 0 else math.inf)


def _verify_item(spec: dict, readouts: Readouts) -> Item:
    params, _, numerics = amv.load_config(spec["config"])
    steps = max(1, int(round(params.T / numerics.mc_dt)))

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = amv.cli.main(["verify", "--config", str(spec["config"])])
        return code, buf.getvalue()

    def check(result) -> list:
        code, text = result
        problems, n_checks, failed_3se, max_z, n_mc = [], 0, 0, 0.0, 0
        for line in text.splitlines():
            m = re.match(r"^(PASS|FAIL) ([^:]+): (.*)$", line)
            if not m:
                continue
            verdict, name, detail = m.groups()
            n_checks += 1
            failed_3se += verdict == "FAIL"
            if MC_CHECKS.match(name):
                n_mc += 1
                try:
                    z = parse_z(name, detail)
                except AttributeError:
                    problems.append(f"{name}: cannot read |diff| and 3*SE from {detail!r}")
                    continue
                max_z = max(max_z, z)
                if not z <= Z_BOUND:
                    problems.append(f"{name}: z = {z:.2f} beyond {Z_BOUND:g}")
            elif verdict == "FAIL":
                problems.append(f"deterministic check failed: {line}")
        if code != (2 if failed_3se else 0):
            problems.append(f"exit code {code} with {failed_3se} failed checks")
        if n_mc < 7 or n_checks == n_mc:
            problems.append(f"expected Monte Carlo and deterministic checks, got {n_checks}")
        readouts.verify_checks[spec["name"]] = (n_checks, failed_3se, max_z)
        return problems

    return Item(spec["name"], run, check, units=4 * numerics.mc_paths * steps)


def build_items(workload: str, specs: list, workdir: Path, reference_dir: Path,
                readouts: Readouts) -> list[Item]:
    if workload == "solve":
        return [_solve_item(s, workdir, reference_dir, readouts) for s in specs]
    if workload == "sweep":
        return [_sweep_item(s, workdir, reference_dir, readouts) for s in specs]
    return [_verify_item(s, readouts) for s in specs]
