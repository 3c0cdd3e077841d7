"""Sweep machinery, CSV schemas, CLI grammar and exit codes."""

import csv
import dataclasses
import filecmp
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphamv.cli import _build_parser, main
from alphamv.config import ClaimModelSpec, load_config, replace_param
from alphamv.errors import NumericalError, SaturationWarning, ValidationError
from alphamv.levy import build_measure
from alphamv.solver import (EquilibriumSolution, pi_p_star, pi_s_star, rk4_stable_steps,
                            solve_equilibrium, solve_pi_q_star)
from alphamv.sweep import (QUANTITIES, SweepSpec, evaluate_quantity, run_sweep,
                           write_solve_csv)
from alphamv.verify import run_verification

from conftest import write_config

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


# ---------------------------------------------------------------------------
# sweeps as a library
# ---------------------------------------------------------------------------

def test_sweep_alpha_nonincreasing(base_params, base_claims, base_numerics):
    spec = SweepSpec.from_range("alpha", 0.5, 1.0, 20, "pi_q0")
    result = run_sweep(base_params, base_claims, base_numerics, spec)
    values = result.ok_values()
    assert values.size == 20
    assert np.all(np.diff(values) < 0.0)


def test_sweep_delta_nondecreasing(base_params, base_claims, base_numerics):
    lo = base_params.zeta * base_params.hP
    spec = SweepSpec.from_range("delta", lo, 0.05, 8, "pi_p0")
    result = run_sweep(base_params, base_claims, base_numerics, spec)
    values = result.ok_values()
    assert values.size == 8
    assert np.all(np.diff(values) > 0.0)


def test_sweep_skips_invalid_points(base_params, base_claims, base_numerics):
    # eta = 0.05 < theta violates the loading order; the rest are fine
    spec = SweepSpec(param="eta", values=(0.05, 0.12, 0.19, 0.26), quantity="pi_q0")
    result = run_sweep(base_params, base_claims, base_numerics, spec)
    statuses = [row.status for row in result.rows]
    assert statuses[0] == "skipped:eta<=theta"
    assert statuses[1:] == ["ok"] * 3
    assert result.rows[0].quantity is None


def test_sweep_value_intercept_ok_at_stiff_bond_mode(base_params, base_claims, base_numerics):
    # zeta = 1e-5 makes delta/zeta = 1000, past RK4's stability limit at 1000
    # steps; the closed form has no stability limit, so B0_0 is ok and equals
    # the solve's B0(0), and pi_p0 is its own closed form
    numerics = dataclasses.replace(base_numerics, time_steps=1000, quad_nodes=32)
    spec = SweepSpec(param="zeta", values=(1e-5, 0.5), quantity="B0_0")
    result = run_sweep(base_params, base_claims, numerics, spec)
    assert [row.status for row in result.rows] == ["ok", "ok"]
    stiff = dataclasses.replace(base_params, zeta=1e-5)
    solution = solve_equilibrium(stiff, build_measure(base_claims, 32), numerics)
    assert result.rows[0].quantity == pytest.approx(solution.coeffs.B0[0], rel=1e-14, abs=0)
    pi_p = run_sweep(base_params, base_claims, numerics,
                     dataclasses.replace(spec, quantity="pi_p0")).rows[0]
    assert pi_p.status == "ok" and pi_p.quantity == pi_p_star(0.0, stiff)


def _per_point(params, claims, numerics, param, value, quantity, t):
    """(quantity, status) of one sweep point, by the routes a sweep batches."""
    try:
        p, c, n = replace_param(params, claims, numerics, param, value)
        if not 0.0 <= t <= p.T:
            raise ValidationError("t_range", "")
        if quantity in ("pi_s0", "pi_p0"):
            return float((pi_s_star if quantity == "pi_s0" else pi_p_star)(t, p)), "ok"
        measure = build_measure(c, n.quad_nodes)
        if quantity == "pi_q0":
            return solve_pi_q_star(t, p, measure, n.root_tol, n.exp_cap), "ok"
        u_star = solve_pi_q_star(p.T, p, measure, n.root_tol, n.exp_cap)
        solution = EquilibriumSolution(np.array([t]), p, measure, u_star, n.exp_cap)
        return float((solution.B0 if quantity == "B0_0" else solution.B1)[0]), "ok"
    except ValidationError as exc:
        return None, f"skipped:{exc.tag}"
    except NumericalError as exc:
        return None, f"skipped:numerical ({exc})"


# swept keys and their values, valid and invalid: every key that enters the
# first-order condition or the claim measure, r, which enters neither, and
# T, hP and zeta, which enter the intercepts (T also the root time)
_SWEPT = {
    "eta": st.floats(0.0, 1.5),
    "gamma": st.one_of(st.floats(-0.5, 5.0), st.just(1e-300)),
    "alpha": st.floats(0.3, 1.1),
    "beta3": st.one_of(st.floats(-0.5, 4.0), st.just(1e-320)),
    "exp_cap": st.floats(-5.0, 700.0),
    "lambda": st.one_of(st.floats(-1.0, 20.0), st.just(1e-320)),
    "muZ": st.floats(-3.0, 5.0),
    "sigmaZ": st.floats(-0.1, 3.0),
    "quad_nodes": st.one_of(st.integers(0, 80).map(float), st.floats(0.0, 80.0)),
    "r": st.floats(-0.02, 0.2),
    "T": st.floats(-1.0, 13.0),
    "hP": st.floats(-0.005, 0.03),
    "zeta": st.one_of(st.floats(-0.1, 1.1), st.sampled_from((0.0, 1e-310, 1e-154))),
}


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data(), param=st.sampled_from(sorted(_SWEPT)),
       quantity=st.sampled_from(QUANTITIES), t=st.floats(0.0, 11.0))
def test_batched_pi_q_sweep_matches_per_point(base_params, base_claims, base_numerics,
                                              data, param, quantity, t):
    # one batched root per sweep against one root per point: same statuses,
    # quantities within the Newton stop
    values = data.draw(st.lists(_SWEPT[param], min_size=2, max_size=8), label="values")
    spec = SweepSpec(param=param, values=tuple(values), quantity=quantity, t=t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)   # small exp_cap values clip at u*
        rows = run_sweep(base_params, base_claims, base_numerics, spec).rows
        want = [_per_point(base_params, base_claims, base_numerics, param, v, quantity, t)
                for v in sorted(spec.values)]
    assert [row.status for row in rows] == [status for _, status in want]
    for row, (value, _) in zip(rows, want):
        if value is not None:
            assert row.quantity == pytest.approx(value, rel=1e-14, abs=0.0)


def test_pi_q0_does_not_depend_on_lambda(base_params, base_claims, base_numerics):
    # the first-order condition is lambda times a lambda-free function; at
    # lambda = 1e-320 weights scaled by lambda lost bits (u* off by 1.7e-3)
    values = (1e-320, 1e-315, 5e-311, 1e-300, 1.0, 1e300)
    rows = run_sweep(base_params, base_claims, base_numerics,
                     SweepSpec("lambda", values, "pi_q0")).rows
    want = solve_pi_q_star(0.0, base_params, build_measure(base_claims, base_numerics.quad_nodes))
    assert [row.status for row in rows] == ["ok"] * len(values)
    for row in rows:
        assert row.quantity == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("beta3", [5e-324, 1e-320, 1e-310, 4e-309])
def test_subnormal_beta3_solves_as_its_limit(tmp_path, base_params, base_claims, base_numerics,
                                             beta3):
    # alpha/beta3 overflows for beta3 < alpha/DBL_MAX; KB then takes its
    # beta3 -> 0 form, whose error there is O(beta3 E), below rounding
    out, ref = tmp_path / "sub.csv", tmp_path / "ref.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for value, path in ((beta3, out), (1e-300, ref)):
            cfg = write_config(tmp_path / "b.cfg", overrides={"beta3": value})
            assert main(["solve", "--config", str(cfg), "--out", str(path)]) == 0
        rows = run_sweep(base_params, base_claims, base_numerics,
                         SweepSpec("beta3", (beta3, 1e-300), "B0_0")).rows
    got, want = (np.loadtxt(path, delimiter=",", skiprows=1) for path in (out, ref))
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= 2e-15 * scale)
    assert [row.status for row in rows] == ["ok", "ok"]
    assert rows[0].quantity == pytest.approx(rows[1].quantity, rel=1e-15, abs=0.0)


def test_evaluate_quantity_is_the_one_point_sweep(base_params, base_claims, base_numerics):
    for quantity in QUANTITIES:
        row, = run_sweep(base_params, base_claims, base_numerics,
                         SweepSpec("alpha", (0.8, 0.8), quantity, t=2.0)).rows[:1]
        assert evaluate_quantity(base_params, base_claims, base_numerics,
                                 quantity, 2.0) == row.quantity
    with pytest.raises(ValidationError, match="unknown quantity") as caught:
        evaluate_quantity(base_params, base_claims, base_numerics, "pi_q9", 0.0)
    assert caught.value.tag == "unknown_quantity"
    with pytest.raises(ValidationError) as caught:
        evaluate_quantity(base_params, base_claims, base_numerics, "B0_0", 11.0)
    assert caught.value.tag == "t_range"


def test_unbuildable_measure_skips_only_the_rows_that_need_it(base_params, base_numerics):
    # a tabulated density whose one spike sits between two neighbouring nodes
    # is 0 at every node
    x = np.polynomial.legendre.leggauss(base_numerics.quad_nodes)[0]
    mid = 1.5 + 0.25 * (x[31] + x[32])
    claims = ClaimModelSpec(lam=1.0, kind="tabulated-density",
                            z_grid=np.array([1.0, mid - 1e-4, mid, mid + 1e-4, 2.0]),
                            density=np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValidationError) as caught:
        build_measure(claims, base_numerics.quad_nodes)
    for quantity, status in (("pi_q0", f"skipped:{caught.value.tag}"),
                             ("B0_0", f"skipped:{caught.value.tag}"), ("pi_s0", "ok")):
        rows = run_sweep(base_params, claims, base_numerics,
                         SweepSpec.from_range("gamma", 0.2, 2.0, 4, quantity)).rows
        assert [row.status for row in rows] == [status] * 4


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's arguments."""
    calls, original = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_value_intercept_sweep_makes_one_root_call(base_params, base_claims, base_numerics,
                                                   monkeypatch):
    # one root call and one intercept call for all lanes, also where T (so the
    # root time of the intercepts) differs from lane to lane
    import alphamv.sweep as sweep_mod
    roots = _counting(monkeypatch, sweep_mod, "solve_pi_q_lanes")
    intercepts = _counting(monkeypatch, sweep_mod, "_value_intercepts")
    for param, lo, hi in (("gamma", 0.2, 2.0), ("T", 2.0, 11.0)):
        roots.clear()
        intercepts.clear()
        result = run_sweep(base_params, base_claims, base_numerics,
                           SweepSpec.from_range(param, lo, hi, 20, "B0_0"))
        assert [row.status for row in result.rows] == ["ok"] * 20
        assert len(roots) == 1 and len(roots[0][1]) == 20
        assert len(intercepts) == 1 and len(intercepts[0][1]) == 20


@pytest.mark.parametrize("param, values, quantity", [
    ("exp_cap", (0.05, 0.05, 3.0, 700.0), "B0_0"),
    ("root_tol", (1e-12, 1e-8, 1e-8, 1e-6), "pi_q0"),
    ("gamma", (0.2, 0.5, 1.0, 2.0), "pi_q0"),
])
def test_lane_calls_take_one_root_tol_and_exp_cap(base_params, base_claims, base_numerics,
                                                  param, values, quantity, monkeypatch):
    # root_tol and exp_cap are one float per lane call: a sweep over either
    # makes one root call per distinct value, any other sweep a single call
    import alphamv.sweep as sweep_mod
    roots = _counting(monkeypatch, sweep_mod, "solve_pi_q_lanes")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)   # exp_cap 0.05 clips at u*
        result = run_sweep(base_params, base_claims, base_numerics,
                           SweepSpec(param, values, quantity))
        calls = [(call[3], call[4]) for call in roots]     # (root_tol, exp_cap)
        want = [evaluate_quantity(*replace_param(base_params, base_claims, base_numerics,
                                                 param, value), quantity, 0.0)
                for value in sorted(values)]
    assert all(type(x) is float for call in calls for x in call)
    if param == "gamma":
        assert len(calls) == 1
    else:
        column = ("root_tol", "exp_cap").index(param)
        assert sorted(call[column] for call in calls) == sorted(set(values))
    assert [row.status for row in result.rows] == ["ok"] * len(values)
    assert [row.quantity for row in result.rows] == want


@pytest.mark.parametrize("quantity", ["pi_q0", "B0_0"])
def test_root_out_of_newton_steps_skips_its_row(base_params, base_claims, base_numerics,
                                                quantity, monkeypatch):
    # gamma 0.05 and 32 nodes: the root takes 6 Newton evaluations at beta3 =
    # 0.1 and 15 at beta3 = 9, so a cap of 8 fails only the second lane
    import alphamv.solver as solver_mod
    params = dataclasses.replace(base_params, gamma=0.05)
    numerics = dataclasses.replace(base_numerics, quad_nodes=32)
    spec = SweepSpec("beta3", (0.1, 9.0), quantity)
    want = run_sweep(params, base_claims, numerics, spec).rows
    monkeypatch.setattr(solver_mod, "_MAX_ROOT_ITERS", 8)
    rows = run_sweep(params, base_claims, numerics, spec).rows
    assert rows[0] == want[0] and want[1].status == "ok"
    assert rows[1].quantity is None
    assert rows[1].status.startswith(
        "skipped:numerical (pi_q root did not converge in 8 safeguarded Newton steps")


def test_unrepresentable_bond_demand_skips_its_rows(tmp_path, base_params, base_claims,
                                                    base_numerics):
    tiny = (0.0, 5e-324, 1e-310, 1e-154)
    for quantity in ("pi_p0", "B0_0", "B1_0"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = run_sweep(base_params, base_claims, base_numerics,
                             SweepSpec("zeta", tiny + (1e-150, 0.5), quantity)).rows
        assert all(row.status.startswith("skipped:numerical (defaultable-bond demand")
                   for row in rows[:4])
        assert [row.status for row in rows[4:]] == ["ok", "ok"]
    cfg = write_config(tmp_path / "tiny.cfg", overrides={"zeta": 1e-310})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3


def test_unrepresentable_stock_demand_skips_its_rows(tmp_path, base_params, base_claims,
                                                    base_numerics):
    tiny = (1e-300, 1e-160)
    for quantity in ("pi_s0", "B0_0", "B1_0"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = run_sweep(base_params, base_claims, base_numerics,
                             SweepSpec("sigma2", tiny + (1e-150, 0.2), quantity)).rows
        assert all(row.status.startswith("skipped:numerical (stock demand") for row in rows[:2])
        assert [row.status for row in rows[2:]] == ["ok", "ok"]
    cfg = write_config(tmp_path / "tiny.cfg", overrides={"sigma2": 1e-300})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", "--config", str(cfg), "--param", "sigma2", "--from", "1e-300",
                     "--to", "0.2", "--points", "2", "--quantity", "pi_s0",
                     "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    assert table[1][0] == "1e-300" and table[1][1] == ""
    assert table[1][2].startswith("skipped:numerical (stock demand")
    assert table[2][2] == "ok"


def test_failing_lane_skips_only_its_row(base_params, base_claims, base_numerics, base_measure):
    # gamma = 1e-300 puts u0 = eta m1 / (gamma m2) past the bracket limit
    spec = SweepSpec(param="gamma", values=(0.3, 1e-300, 0.5, 2.0), quantity="pi_q0")
    rows = run_sweep(base_params, base_claims, base_numerics, spec).rows
    with pytest.raises(NumericalError, match="bracket") as caught:
        solve_pi_q_star(0.0, dataclasses.replace(base_params, gamma=1e-300), base_measure)
    assert rows[0].status == f"skipped:numerical ({caught.value})"
    assert rows[0].quantity is None
    for row in rows[1:]:
        want = solve_pi_q_star(0.0, dataclasses.replace(base_params, gamma=row.value),
                               base_measure)
        assert row.status == "ok" and row.quantity == pytest.approx(want, rel=1e-14, abs=0.0)
    # a lane whose residual misses its own root_tol
    spec = SweepSpec(param="root_tol", values=(1e-30, 1e-10), quantity="pi_q0")
    rows = run_sweep(base_params, base_claims, base_numerics, spec).rows
    assert rows[0].status == "skipped:numerical (pi_q roots did not reach the configured tolerance)"
    assert rows[1].status == "ok"
    assert rows[1].quantity == solve_pi_q_star(0.0, base_params, base_measure)


def test_sweep_builds_the_measure_once_unless_swept(base_params, base_claims, base_numerics,
                                                    monkeypatch):
    # one table build per node count; a claim-law sweep builds one row per point
    import alphamv.sweep as sweep_mod
    calls = _counting(monkeypatch, sweep_mod, "build_claim_tables")
    for param, lo, hi, quantity, points, builds, rows in (
            ("gamma", 0.2, 2.0, "pi_q0", 5, 1, 1), ("muZ", 0.5, 2.0, "pi_q0", 60, 1, 60),
            ("lambda", 0.2, 5.0, "pi_q0", 60, 1, 60), ("quad_nodes", 16, 48, "pi_q0", 5, 5, 1),
            ("alpha", 0.5, 1.0, "pi_s0", 5, 0, 0)):
        calls.clear()
        result = run_sweep(base_params, base_claims, base_numerics,
                           SweepSpec.from_range(param, lo, hi, points, quantity))
        assert [row.status for row in result.rows] == ["ok"] * points
        assert len(calls) == builds
        assert all(len(specs) == rows for specs, _ in calls)


def test_sweep_unknown_param_or_quantity_rejected():
    with pytest.raises(ValidationError, match="unknown parameter"):
        SweepSpec.from_range("bogus", 0.0, 1.0, 5, "pi_q0")
    with pytest.raises(ValidationError, match="quantity"):
        SweepSpec.from_range("alpha", 0.5, 1.0, 5, "pi_q9")
    with pytest.raises(ValidationError, match="count"):
        SweepSpec.from_range("alpha", 0.5, 1.0, 1, "pi_q0")


def test_sweep_t_override(base_params, base_claims, base_numerics):
    spec = SweepSpec.from_range("mu", 0.06, 0.2, 3, "pi_s0", t=base_params.T)
    result = run_sweep(base_params, base_claims, base_numerics, spec)
    for row in result.rows:
        p2 = base_params.__class__(**{**base_params.__dict__, "mu": row.value})
        assert row.quantity == pytest.approx(float(pi_s_star(base_params.T, p2)), rel=1e-14)


def test_sweep_rows_sorted(base_params, base_claims, base_numerics):
    spec = SweepSpec(param="alpha", values=(0.9, 0.5, 0.7), quantity="pi_s0")
    result = run_sweep(base_params, base_claims, base_numerics, spec)
    assert [row.value for row in result.rows] == [0.5, 0.7, 0.9]


# ---------------------------------------------------------------------------
# CLI: solve
# ---------------------------------------------------------------------------

def test_cmd_solve_csv(tmp_path, base_params):
    cfg = write_config(tmp_path / "base.cfg", numerics_overrides={"time_steps": 200})
    out = tmp_path / "solution.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,pi_q,pi_s,pi_p,B1,B0,b1_lo,b1_hi,b0_lo,b0_hi"
    assert len(lines) == 202
    last = [float(v) for v in lines[-1].split(",")]
    p = base_params
    assert last[0] == pytest.approx(p.T)
    # terminal bond amount: hand algebraic solve of the bond first-order
    # condition with zero intercept differences
    hand = (p.delta - p.zeta * p.hP) / (p.gamma * p.zeta ** 2 * p.hP)
    assert last[3] == pytest.approx(hand, rel=1e-10)
    assert last[4] == 0.0  # B1 column ends at zero
    # pi_s column equals the closed form at every grid point
    ts = np.array([float(line.split(",")[0]) for line in lines[1:]])
    pi_s_col = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert np.allclose(pi_s_col, pi_s_star(ts, p), rtol=0, atol=1e-15)


def test_solve_csv_formats_each_value_as_17_digits(tmp_path, base_solution):
    # the header names the columns in the order they are written, each value
    # as '%.17g'; a record builds its own columns, so the special values
    # (nan, inf, -0, subnormals) are checked through dump_paths_csv instead
    solution = dataclasses.replace(base_solution, grid=np.linspace(0.0, 10.0, 7))
    out = tmp_path / "solution.csv"
    write_solve_csv(out, solution)
    table = np.column_stack((solution.grid, solution.pi_q, solution.pi_s, solution.pi_p,
                             solution.B1, solution.B0, solution.b1_lo, solution.b1_hi,
                             solution.b0_lo, solution.b0_hi))
    expected = "t,pi_q,pi_s,pi_p,B1,B0,b1_lo,b1_hi,b0_lo,b0_hi\n" + "".join(
        ",".join(format(float(x), ".17g") for x in row) + "\n" for row in table)
    assert out.read_bytes() == expected.encode("utf-8")


def test_cmd_solve_rejects_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.cfg", overrides={"eta": 0.05})
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "eta" in capsys.readouterr().err


def test_cmd_solve_numerical_failure_exit_code(tmp_path, capsys):
    # hP = 0 admits no finite bond demand: numerical failure, exit 3
    cfg = write_config(tmp_path / "h0.cfg", overrides={"hP": 0.0},
                       numerics_overrides={"time_steps": 50})
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "unbounded" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: sweep
# ---------------------------------------------------------------------------

def test_cmd_sweep_csv(tmp_path):
    cfg = write_config(tmp_path / "base.cfg", numerics_overrides={"time_steps": 200})
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg), "--param", "alpha",
                 "--from", "0.5", "--to", "1.0", "--points", "6",
                 "--quantity", "pi_q0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "alpha,pi_q0,status"
    assert len(lines) == 7
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(line.endswith(",ok") for line in lines[1:])


def test_cmd_sweep_skipped_row_in_csv(tmp_path):
    cfg = write_config(tmp_path / "base.cfg", numerics_overrides={"time_steps": 100})
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg), "--param", "eta",
                 "--from", "0.05", "--to", "0.26", "--points", "4",
                 "--quantity", "pi_q0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1].endswith(",skipped:eta<=theta")
    assert lines[1].split(",")[1] == ""


def test_cmd_sweep_quotes_a_status_with_a_comma(tmp_path, base_params, base_claims,
                                                base_numerics):
    # the bracket error's text holds "[0, 2 u0]"
    cfg = write_config(tmp_path / "base.cfg")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--param", "gamma", "--from", "1e-300",
                 "--to", "0.5", "--points", "3", "--quantity", "pi_q0",
                 "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    assert [len(row) for row in table] == [3] * 4
    rows = run_sweep(base_params, base_claims, base_numerics,
                     SweepSpec.from_range("gamma", 1e-300, 0.5, 3, "pi_q0")).rows
    assert [row[2] for row in table[1:]] == [row.status for row in rows]
    assert "[0, 2 u0]" in rows[0].status
    assert out.read_text().splitlines()[2].endswith(",ok")


def test_cmd_sweep_unknown_param(tmp_path, capsys):
    cfg = write_config(tmp_path / "base.cfg")
    code = main(["sweep", "--config", str(cfg), "--param", "nope",
                 "--from", "0", "--to", "1", "--points", "3",
                 "--quantity", "pi_q0", "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert "unknown parameter" in capsys.readouterr().err


def test_cmd_sweep_skips_non_integral_node_counts(tmp_path):
    cfg = write_config(tmp_path / "base.cfg", numerics_overrides={"time_steps": 100})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--param", "quad_nodes", "--from", "16",
                 "--to", "32", "--points", "4", "--quantity", "pi_q0", "--out", str(out)]) == 0
    _, values, quantities, status = _read_sweep_csv(out)
    assert values == ["16", "21.333333333333332", "26.666666666666664", "32"]
    assert status == ["ok", "skipped:noninteger:quad_nodes", "skipped:noninteger:quad_nodes", "ok"]
    assert np.isnan(quantities[1:3]).all() and np.isfinite(quantities[[0, 3]]).all()


# ---------------------------------------------------------------------------
# CLI: unreadable paths, repeated calls in one process
# ---------------------------------------------------------------------------

def _argv(command, config, out):
    if command == "solve":
        return ["solve", "--config", str(config), "--out", str(out)]
    if command == "sweep":
        return ["sweep", "--config", str(config), "--param", "alpha", "--from", "0.5",
                "--to", "1.0", "--points", "3", "--quantity", "pi_q0", "--out", str(out)]
    return ["verify", "--config", str(config)]


@pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
@pytest.mark.parametrize("config", ["missing", "directory"])
def test_unreadable_config_exits_1_with_one_line(tmp_path, capsys, command, config):
    path = tmp_path / "missing.cfg" if config == "missing" else tmp_path
    assert main(_argv(command, path, tmp_path / "out.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_unwritable_output_exits_1_with_one_line(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "base.cfg", numerics_overrides={"time_steps": 50})
    out = tmp_path / "missing" / "out.csv"
    assert main(_argv(command, cfg, out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err


def _fresh_process(args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # the parser is built once and parsing leaves it unchanged: a sweep
    # without --t after one with --t 5 evaluates at t = 0, as in a fresh process
    cfg = write_config(tmp_path / "base.cfg", numerics_overrides={"time_steps": 100})
    sweep_t = ["sweep", "--config", str(cfg), "--param", "alpha", "--from", "0.5",
               "--to", "1.0", "--points", "5", "--quantity", "pi_q0", "--t", "5"]
    sweep = sweep_t[:-2]
    calls = [(sweep_t, "sweep_t.csv"), (sweep, "sweep.csv"),
             (["solve", "--config", str(cfg)], "solve.csv"), (sweep_t, "sweep_t_again.csv")]
    (tmp_path / "in").mkdir()
    (tmp_path / "fresh").mkdir()
    for argv, name in calls[:3]:
        assert main(argv + ["--out", str(tmp_path / "in" / name)]) == 0
    with pytest.raises(SystemExit) as exc_info:
        main(sweep_t + ["--nope"])
    assert exc_info.value.code == 2
    argv, name = calls[3]
    assert main(argv + ["--out", str(tmp_path / "in" / name)]) == 0
    assert _build_parser() is _build_parser()
    for argv, name in calls:
        run = _fresh_process(["-m", "alphamv.cli", *argv, "--out", str(tmp_path / "fresh" / name)])
        assert run.returncode == 0, run.stderr
        assert (tmp_path / "in" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert (tmp_path / "in" / "sweep_t.csv").read_bytes() != (tmp_path / "in" / "sweep.csv").read_bytes()


def test_parser_is_not_built_at_import():
    run = _fresh_process(["-c", "import alphamv.cli as c; print(c._build_parser.cache_info().currsize)"])
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0"


# ---------------------------------------------------------------------------
# CLI: verify
# ---------------------------------------------------------------------------

def test_cmd_verify_passes_at_reduced_scale(tmp_path, capsys):
    cfg = write_config(tmp_path / "base.cfg",
                       numerics_overrides={"mc_paths": 4000, "mc_dt": 0.01,
                                           "time_steps": 400})
    code = main(["verify", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "value_identity_h1" in out and "monotone_pi_p0_vs_delta" in out
    assert "PASS pi_p_closed_form" in out


def test_cmd_verify_aborts_on_few_paths(tmp_path, capsys):
    cfg = write_config(tmp_path / "few.cfg", numerics_overrides={"mc_paths": 100})
    code = main(["verify", "--config", str(cfg)])
    assert code == 1
    assert "paths too few" in capsys.readouterr().err


def test_cmd_verify_exits_3_past_the_claim_sampler_range(tmp_path, capsys):
    # the solve succeeds at lambda = 1e18, but 1e19 claims per path are past
    # the Poisson sampler's range: a numerical failure before any draw
    cfg = write_config(tmp_path / "lam.cfg", overrides={"lambda": 1e18},
                       numerics_overrides={"mc_paths": 1000, "time_steps": 100})
    code = main(["verify", "--config", str(cfg)])
    assert code == 3
    assert "2^62" in capsys.readouterr().err


def test_cmd_verify_reports_tiny_distortions(tmp_path, capsys):
    cfg = write_config(tmp_path / "tiny.cfg",
                       overrides={"beta1": 1e-8, "beta2": 1e-8, "beta3": 1e-8},
                       numerics_overrides={"mc_paths": 2000, "mc_dt": 0.02,
                                           "time_steps": 200})
    code = main(["verify", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    line = next(l for l in out.split("\n") if "distortion_magnitudes" in l)
    mags = [float(part.split("=")[1].strip())
            for part in line.split(":", 1)[1].split(",")]
    assert all(m < 1e-6 for m in mags)


def test_cmd_verify_reports_sweep_without_solved_points(tmp_path, capsys, monkeypatch):
    # every point of every sweep rejected by the model: the check must fail
    # and say so rather than pass on an empty sequence
    import alphamv.verify as verify_mod
    from alphamv.sweep import SweepResult, SweepRow

    def rejecting_sweeps(params, claims, numerics, specs):
        return [SweepResult(spec.param, spec.quantity,
                            tuple(SweepRow(v, None, "skipped:rejected") for v in spec.values))
                for spec in specs]

    monkeypatch.setattr(verify_mod, "_run_sweeps", rejecting_sweeps)
    cfg = write_config(tmp_path / "base.cfg",
                       numerics_overrides={"mc_paths": 1000, "mc_dt": 0.05,
                                           "time_steps": 100, "quad_nodes": 32})
    code = main(["verify", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 2
    line = next(l for l in out.split("\n") if "monotone_pi_p0_vs_hP" in l)
    assert line.startswith("FAIL") and "only 0 of 20 points solved" in line


def test_cmd_verify_pi_p_check_fails_on_a_wrong_closed_form(tmp_path, capsys, monkeypatch):
    # a closed form off by 1e-9 relative lies far outside the RK4 error bound
    # on the base config, where RK4 matches it to rounding
    import alphamv.verify as verify_mod
    monkeypatch.setattr(verify_mod, "pi_p_star",
                        lambda t, params: (1.0 + 1e-9) * pi_p_star(t, params))
    cfg = write_config(tmp_path / "base.cfg",
                       numerics_overrides={"mc_paths": 1000, "mc_dt": 0.05,
                                           "time_steps": 100, "quad_nodes": 32})
    code = main(["verify", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 2
    line = next(l for l in out.split("\n") if "pi_p_closed_form" in l)
    assert line.startswith("FAIL")


def test_verify_product_identity_holds_at_a_large_hi_side_exponent(base_params, base_claims,
                                                                  base_numerics):
    # the tilt exponent x reaches 12.2 on the claim support, where 1 - phi3_hi
    # = 1 + expm1(-x) carries about 1e-16 e^x = 2e-11 of error into the
    # product, above the check's 1e-12; the check reads exp(clip(x)) instead
    params = dataclasses.replace(base_params, eta=5.0, beta3=1.0)
    claims = dataclasses.replace(base_claims, muZ=0.5, sigmaZ=1.0)
    numerics = dataclasses.replace(base_numerics, mc_paths=1000, mc_dt=0.01, time_steps=200)
    check = next(c for c in run_verification(params, claims, numerics).checks
                 if c.name == "distortion_product_identity")
    assert check.passed, check.detail


def test_cmd_verify_foc_residual_fails_a_root_off_by_1e_3(tmp_path, capsys, monkeypatch):
    # u* scaled by 1.001 after the solve, and with it every pi_q and
    # intercept: at 1,000 paths the Monte Carlo lines do not resolve that
    # move, so the residual of the first-order condition is the line that
    # sees a wrong root
    import alphamv.verify as verify_mod
    cfg = write_config(tmp_path / "base.cfg",
                       numerics_overrides={"mc_paths": 1000, "mc_dt": 0.05,
                                           "time_steps": 100, "quad_nodes": 32})

    def foc_line(code):
        assert main(["verify", "--config", str(cfg)]) == code
        return next(l for l in capsys.readouterr().out.split("\n") if "foc_residual" in l)

    assert foc_line(0).startswith("PASS")
    def off_root(*args):
        solution = solve_equilibrium(*args)
        return dataclasses.replace(solution, u_star=1.001 * solution.u_star)

    monkeypatch.setattr(verify_mod, "solve_equilibrium", off_root)
    assert foc_line(2).startswith("FAIL")


def test_cmd_verify_hP_sweep_fits_low_spread(tmp_path, capsys):
    # delta = hP = 1e-5 is valid, but a fixed hP range from 2e-4 would break
    # delta >= zeta hP at every point; the range must end at delta/zeta
    cfg = write_config(tmp_path / "lowspread.cfg",
                       overrides={"delta": 1e-5, "hP": 1e-5},
                       numerics_overrides={"mc_paths": 1000, "mc_dt": 0.05,
                                           "time_steps": 100, "quad_nodes": 32})
    main(["verify", "--config", str(cfg)])
    out = capsys.readouterr().out
    line = next(l for l in out.split("\n") if "monotone_pi_p0_vs_hP" in l)
    assert line.startswith("PASS") and "over 20 points" in line


@pytest.mark.parametrize("overrides, names", [
    # zeta hP = 0.06 lies above the old fixed delta range's end (0.05)
    ({"hP": 0.06, "zeta": 1.0, "delta": 0.07},
     ("monotone_pi_p0_vs_delta", "monotone_pi_p0_vs_zeta")),
    # delta / hP = 1/30 lies below the old fixed zeta range's start (0.05); at
    # so small a zeta pi_p0 is not monotone in delta, and each delta step
    # takes its direction from the analytic slope
    ({"hP": 0.06, "zeta": 0.02, "delta": 0.002},
     ("monotone_pi_p0_vs_delta", "monotone_pi_p0_vs_zeta")),
])
def test_cmd_verify_delta_and_zeta_sweeps_fit_high_default_risk(tmp_path, capsys,
                                                                overrides, names):
    cfg = write_config(tmp_path / "risky.cfg", overrides=overrides,
                       numerics_overrides={"mc_paths": 1000, "mc_dt": 0.05,
                                           "time_steps": 100, "quad_nodes": 32})
    main(["verify", "--config", str(cfg)])
    out = capsys.readouterr().out
    for name in names:
        line = next(l for l in out.split("\n") if name in l)
        assert line.startswith("PASS") and "over 20 points" in line


def test_cmd_verify_delta_check_fails_a_slope_of_the_wrong_sign(tmp_path, capsys, monkeypatch):
    # pi_p0 rises, falls and rises again in delta on this config; a sweep
    # quantity whose delta-slope has the wrong sign fails the judged steps
    import alphamv.sweep as sweep_mod
    monkeypatch.setattr(sweep_mod, "pi_p_star", lambda t, params: -pi_p_star(t, params))
    cfg = write_config(tmp_path / "risky.cfg", overrides={"hP": 0.06, "zeta": 0.02, "delta": 0.002},
                       numerics_overrides={"mc_paths": 1000, "mc_dt": 0.05,
                                           "time_steps": 100, "quad_nodes": 32})
    main(["verify", "--config", str(cfg)])
    line = next(l for l in capsys.readouterr().out.split("\n") if "monotone_pi_p0_vs_delta" in l)
    assert line.startswith("FAIL") and "(inc 15, dec 2, unjudged 2 steps)" in line


# pi_s0 falls and then rises in sigma2, and pi_p0 rises and then falls in zeta
_TURNING = {"rho": 0.9, "mu": 0.17, "delta": 0.03, "hP": 0.003}


@pytest.mark.parametrize("overrides, name, direction", [
    # sigma1 rho (gamma + (2 alpha - 1) beta1) sigma2 > 2 (mu - r) e^{-rT} on the
    # whole sweep, so pi_s0 rises in sigma2
    ({"rho": 0.5, "mu": 0.06}, "monotone_pi_s0_vs_sigma2", "(inc)"),
    (_TURNING, "monotone_pi_s0_vs_sigma2", "(inc 9, dec 9, unjudged 1 steps)"),
    (_TURNING, "monotone_pi_p0_vs_zeta", "(inc 1, dec 17, unjudged 1 steps)"),
], ids=["sigma2-rising", "sigma2-turning", "zeta-turning"])
def test_cmd_verify_sigma2_and_zeta_steps_follow_the_analytic_slope(tmp_path, capsys,
                                                                   monkeypatch, overrides,
                                                                   name, direction):
    import alphamv.sweep as sweep_mod
    cfg = write_config(tmp_path / "turning.cfg", overrides=overrides,
                       numerics_overrides={"mc_paths": 1000, "mc_dt": 0.05,
                                           "time_steps": 100, "quad_nodes": 32})

    def line():
        main(["verify", "--config", str(cfg)])
        return next(l for l in capsys.readouterr().out.split("\n") if name in l)

    first = line()
    assert first.startswith("PASS") and direction in first
    # the same sweep of a closed form of the wrong sign fails its judged steps
    closed_form = "pi_s_star" if "pi_s0" in name else "pi_p_star"
    original = getattr(sweep_mod, closed_form)
    monkeypatch.setattr(sweep_mod, closed_form, lambda t, params: -original(t, params))
    assert line().startswith("FAIL")


def test_verify_stock_sign_conditions_hold_at_tiny_sigma2(base_params, base_claims,
                                                          base_numerics):
    # pi_s is about 1e80 at sigma2 = 1e-40, where finite differences of step
    # 1e-6 in t and sigma1 are lost to rounding; the signs come from (s0, s1)
    params = dataclasses.replace(base_params, sigma2=1e-40)
    numerics = dataclasses.replace(base_numerics, mc_paths=1000, mc_dt=0.05,
                                   time_steps=100, quad_nodes=32)
    check = next(c for c in run_verification(params, base_claims, numerics).checks
                 if c.name == "pi_s_sign_conditions")
    assert check.passed


# the probe config of tests/test_solver.py::test_root_past_the_integrability_edge_raises
_EDGE = {"beta3": 0.1933, "gamma": 0.4671, "eta": 6.063, "muZ": -0.3196, "sigmaZ": 0.1143}


def test_root_past_the_integrability_edge_skips_its_row_and_exits_3(tmp_path, capsys):
    # solve and verify stop with the root's Assumption 3.1 error, before any
    # claim size is drawn, and a sweep skips only that row
    cfg = write_config(tmp_path / "edge.cfg", overrides=_EDGE,
                       numerics_overrides={"mc_paths": 1000, "time_steps": 100})
    rows = run_sweep(*load_config(cfg), SweepSpec("eta", (0.5, 6.063), "pi_q0")).rows
    assert rows[0].status == "ok"
    assert rows[1].status.startswith("skipped:numerical (Assumption 3.1 fails")
    for argv in (["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")],
                 ["verify", "--config", str(cfg)]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "Assumption 3.1" in err and "u_c = 1/(sigmaZ sqrt(beta3 gamma)) = 29.116" in err
        assert "not integrable" not in err


def test_run_sweeps_match_one_run_sweep_per_spec(tmp_path, base_params, base_claims,
                                                 base_numerics, monkeypatch):
    # the specs of one quantity are one lane batch, and each row is bit for
    # bit that of its spec swept alone
    import alphamv.sweep as sweep_mod
    base = (base_params, base_claims, base_numerics)
    edge = load_config(write_config(tmp_path / "edge.cfg", overrides=_EDGE,
                                    numerics_overrides={"time_steps": 100}))
    cases = [
        (base, [SweepSpec.from_range("alpha", 0.5, 1.0, 20, "pi_q0"),
                SweepSpec.from_range("mu", 0.06, 0.2, 20, "pi_s0"),
                SweepSpec.from_range("beta3", 0.01, 1.0, 20, "pi_q0"),
                SweepSpec.from_range("zeta", 0.05, 1.0, 20, "pi_p0"),
                SweepSpec.from_range("gamma", 0.1, 2.0, 20, "pi_q0"),
                SweepSpec.from_range("sigma2", 0.1, 0.5, 20, "pi_s0"),
                SweepSpec.from_range("hP", 2e-4, 5e-3, 20, "pi_p0"),
                # every point rejected by the model
                SweepSpec("alpha", (0.1, 0.3), "pi_q0"),
                SweepSpec("delta", (1e-4, 5e-4), "pi_p0")]),
        # a lane whose root lies past the integrability edge, beside lanes that solve
        (edge, [SweepSpec("eta", (0.5, 6.063), "pi_q0"),
                SweepSpec.from_range("gamma", 0.1, 0.4671, 5, "pi_q0")]),
    ]
    evaluate = sweep_mod._evaluate_points
    batches = []
    def counted(points, quantity, t):
        batches.append(quantity)
        return evaluate(points, quantity, t)

    for model, specs in cases:
        monkeypatch.setattr(sweep_mod, "_evaluate_points", counted)
        batch = sweep_mod._run_sweeps(*model, specs)
        monkeypatch.setattr(sweep_mod, "_evaluate_points", evaluate)
        assert repr(batch) == repr([run_sweep(*model, spec) for spec in specs])
    assert batches == ["pi_q0", "pi_s0", "pi_p0", "pi_q0"]

    base_rows = sweep_mod._run_sweeps(*base, cases[0][1])
    assert all(row.status == "ok" for result in base_rows[:7] for row in result.rows)
    assert all(row.status.startswith("skipped:") for result in base_rows[7:]
               for row in result.rows)
    eta, gamma = sweep_mod._run_sweeps(*edge, cases[1][1])
    assert eta.rows[0].status == "ok"
    assert eta.rows[1].status.startswith("skipped:numerical (Assumption 3.1 fails")
    assert any(row.status == "ok" for row in gamma.rows)


def _small_verify_numerics(numerics):
    return dataclasses.replace(numerics, mc_paths=1000, mc_dt=0.05, time_steps=100,
                               quad_nodes=32)


@pytest.mark.parametrize("failing", [None, "lo", "hi"])
def test_verify_side_error_wins_and_no_worker_outlives_the_call(base_params, base_claims,
                                                                base_numerics, monkeypatch,
                                                                failing):
    # the deterministic checks run while the slower side samples: here the
    # hi side waits until they have run, and they raise.  A side's error is
    # raised in preference to theirs, and the call returns only once both
    # workers are gone
    import threading
    import alphamv.verify as verify_mod
    numerics = _small_verify_numerics(base_numerics)
    simulate, ran = verify_mod.simulate_terminal, threading.Event()

    def side(*args, **kwargs):
        tag = "lo" if args[6] == numerics.seed else "hi"
        if tag == "hi":
            assert ran.wait(10), "the deterministic checks waited for both sides"
        if tag == failing:
            raise NumericalError(f"{tag} side failed")
        return simulate(*args, **kwargs)

    def deterministic(*args):
        ran.set()
        raise RuntimeError("deterministic checks failed")

    monkeypatch.setattr(verify_mod, "simulate_terminal", side)
    monkeypatch.setattr(verify_mod, "_deterministic_checks", deterministic)
    threads = threading.active_count()
    raised = NumericalError if failing else RuntimeError
    with pytest.raises(raised, match=f"{failing} side" if failing else "deterministic"):
        run_verification(base_params, base_claims, numerics)
    assert ran.is_set()
    assert threading.active_count() == threads


def test_verify_scores_a_side_from_one_penalty_integral(base_params, base_claims,
                                                        base_numerics, monkeypatch):
    # both default-state rows of a side share one penalty integral, and each
    # estimate is that of objective_from_terminal of its row, bit for bit
    import alphamv.verify as verify_mod
    from alphamv.simulate import objective_from_terminal, simulate_terminal
    from alphamv.solver import distortions
    numerics = _small_verify_numerics(base_numerics)
    measure = build_measure(base_claims, numerics.quad_nodes)
    solution = solve_equilibrium(base_params, measure, numerics)
    penalty, calls = verify_mod._integrate_penalty, []
    monkeypatch.setattr(verify_mod, "_integrate_penalty",
                        lambda *args: calls.append(args) or penalty(*args))
    dist = distortions(solution, base_params)
    for seed, side in enumerate((dist.lo, dist.hi), start=7):
        x_T, _, _ = simulate_terminal(solution, side, base_params, measure, 1000, 0.05, seed,
                                      h0=(1, 0))
        calls.clear()
        got = verify_mod._side_estimates(x_T, side, base_params, measure)
        assert len(calls) == 1
        assert repr(got) == repr([objective_from_terminal(row, side, base_params, measure)
                                  for row in x_T])


def test_verify_pi_p_check_runs_rk4_on_its_stable_steps(base_params, base_claims,
                                                       base_numerics):
    # zeta = 1e-5 puts the bond mode (rate delta/zeta = 1000) past RK4's
    # stability limit on 1,000 steps; the check runs RK4 on the fewest stable
    # steps instead of aborting the whole suite
    params = dataclasses.replace(base_params, zeta=1e-5)
    numerics = dataclasses.replace(base_numerics, time_steps=1000, mc_paths=1000)
    report = run_verification(params, base_claims, numerics)
    check = next(c for c in report.checks if c.name == "pi_p_closed_form")
    assert check.passed
    assert f"on {rk4_stable_steps(params)} steps" in check.detail


def test_verify_lines_do_not_depend_on_worker_count(base_params, base_claims,
                                                    base_numerics, monkeypatch):
    # each Monte Carlo run has its own seed: one worker and two print the
    # same report
    import alphamv.verify as verify_mod
    numerics = dataclasses.replace(base_numerics, mc_paths=2000, mc_dt=0.05,
                                   time_steps=100, quad_nodes=32)
    reports = []
    for cpus in (1, 2):
        monkeypatch.setattr(verify_mod, "_usable_cpus", lambda: cpus)
        reports.append(run_verification(base_params, base_claims, numerics).lines())
    assert reports[0] == reports[1]


def test_verify_invariance_line_fails_a_pi_p_that_reads_alpha(base_params, base_claims,
                                                              base_numerics, monkeypatch):
    # pi_p0 does not depend on alpha: the alpha sweep is constant to rounding.
    # A closed form that moves by 1e-12 relative in alpha stays monotone
    # (inc), so only the invariance line sees it
    import alphamv.sweep as sweep_mod
    numerics = dataclasses.replace(base_numerics, mc_paths=1000, mc_dt=0.05,
                                   time_steps=100, quad_nodes=32)

    def lines():
        report = run_verification(base_params, base_claims, numerics)
        return {c.name: c for c in report.checks}

    checks = lines()
    assert checks["invariant_pi_p0_vs_alpha"].passed
    assert checks["invariant_pi_p0_vs_alpha"].detail.startswith(
        "max |pi_p0 - pi_p0 at the first point| = 0.000e+00 over 20 points")
    monkeypatch.setattr(sweep_mod, "pi_p_star",
                        lambda t, params: (1.0 + 1e-12 * params.alpha) * pi_p_star(t, params))
    checks = lines()
    assert checks["monotone_pi_p0_vs_alpha"].passed
    assert not checks["invariant_pi_p0_vs_alpha"].passed


def test_cmd_verify_failure_exit_code(tmp_path, capsys, monkeypatch):
    # force a failing report to exercise the exit-code mapping
    from alphamv.verify import CheckResult, VerificationReport
    import alphamv.cli as cli_mod

    def fake_verification(params, claims, numerics):
        return VerificationReport(checks=(
            CheckResult("value_identity_h1", False, "|diff| = 1.0 vs 3*SE = 0.1"),
        ))

    monkeypatch.setattr(cli_mod, "run_verification", fake_verification)
    cfg = write_config(tmp_path / "base.cfg")
    code = main(["verify", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL value_identity_h1" in out


# ---------------------------------------------------------------------------
# determinism of emitted CSVs
# ---------------------------------------------------------------------------

def test_csv_outputs_deterministic(tmp_path):
    cfg = write_config(tmp_path / "base.cfg", numerics_overrides={"time_steps": 150})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(b)]) == 0
    assert filecmp.cmp(a, b, shallow=False)
    sa, sb = tmp_path / "sa.csv", tmp_path / "sb.csv"
    args = ["sweep", "--config", str(cfg), "--param", "gamma",
            "--from", "0.2", "--to", "1.0", "--points", "5",
            "--quantity", "pi_p0"]
    assert main(args + ["--out", str(sa)]) == 0
    assert main(args + ["--out", str(sb)]) == 0
    assert filecmp.cmp(sa, sb, shallow=False)


# ---------------------------------------------------------------------------
# shipped sweep presets
# ---------------------------------------------------------------------------

def _read_preset(path):
    values = {}
    for line in path.read_text().splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            key, _, value = body.partition("=")
            values[key.strip()] = value.strip()
    return values


def test_six_figure_presets_shipped_and_valid():
    presets = sorted((DEMOS / "presets").glob("*.preset"))
    assert len(presets) == 6
    for path in presets:
        values = _read_preset(path)
        spec = SweepSpec.from_range(values["param"], float(values["from"]),
                                    float(values["to"]), int(values["points"]),
                                    values["quantity"])
        assert len(spec.values) >= 20


def _read_sweep_csv(path):
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    quantities = np.array([float(r[1]) if r[1] else np.nan for r in rows[1:]])
    return rows[0], [r[0] for r in rows[1:]], quantities, [r[2] for r in rows[1:]]


@pytest.mark.parametrize("preset", sorted(p.stem for p in (DEMOS / "presets").glob("*.preset")))
def test_figure_presets_reproduce_committed_outputs(tmp_path, preset):
    # the committed demos/output sweeps: the same values and statuses, and
    # quantities within the reference tolerance 1e-10 + 1e-8 |want|
    values = _read_preset(DEMOS / "presets" / f"{preset}.preset")
    out = tmp_path / f"{preset}.csv"
    assert main(["sweep", "--config", str(DEMOS / "configs" / "base.cfg"),
                 "--param", values["param"], "--from", values["from"], "--to", values["to"],
                 "--points", values["points"], "--quantity", values["quantity"],
                 "--out", str(out)]) == 0
    header, params, got, status = _read_sweep_csv(out)
    want_header, want_params, want, want_status = _read_sweep_csv(
        DEMOS / "output" / f"{preset}.csv")
    assert (header, params, status) == (want_header, want_params, want_status)
    assert np.all(np.abs(got - want) <= 1e-10 + 1e-8 * np.abs(want))
