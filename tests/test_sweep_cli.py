"""Sweep machinery, CSV schemas, CLI grammar and exit codes."""

import dataclasses
import filecmp

import numpy as np
import pytest

from alphamv.cli import main
from alphamv.errors import ValidationError
from alphamv.solver import EquilibriumSolution, ValueCoefficients, pi_p_star, pi_s_star
from alphamv.sweep import SweepSpec, run_sweep, write_solve_csv

from conftest import write_config


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


def test_sweep_skips_unstable_backward_step(base_params, base_claims, base_numerics):
    # zeta = 1e-5 makes delta/zeta = 1000, past RK4's stability limit at 1000
    # steps; a quantity of the backward sweep must be skipped, not reported as
    # an ok NaN, while pi_p0 comes from its closed form and needs no sweep
    numerics = dataclasses.replace(base_numerics, time_steps=1000, quad_nodes=32)
    spec = SweepSpec(param="zeta", values=(1e-5, 0.5), quantity="B0_0")
    result = run_sweep(base_params, base_claims, numerics, spec)
    assert result.rows[0].status.startswith("skipped:numerical")
    assert result.rows[0].quantity is None
    assert result.rows[1].status == "ok" and np.isfinite(result.rows[1].quantity)
    pi_p = run_sweep(base_params, base_claims, numerics,
                     dataclasses.replace(spec, quantity="pi_p0")).rows[0]
    assert pi_p.status == "ok" and np.isfinite(pi_p.quantity)
    assert pi_p.quantity == pi_p_star(0.0, dataclasses.replace(base_params, zeta=1e-5))


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


def test_solve_csv_formats_each_value_as_17_digits(tmp_path):
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, -1.2345678901234567e-300,
               0.1, 1.0 / 3.0, 2.0 ** 53]
    cols = [np.roll(special, j) for j in range(10)]
    grid, pi_q, pi_s, pi_p, B1, B0, b1_lo, b1_hi, b0_lo, b0_hi = cols
    coeffs = ValueCoefficients(grid=grid, A=np.ones(10), B1=B1, B0=B0, b1_lo=b1_lo,
                               b1_hi=b1_hi, b0_lo=b0_lo, b0_hi=b0_hi, r=0.05, T=10.0)
    solution = EquilibriumSolution(grid=grid, pi_q=np.abs(pi_q), pi_s=pi_s, pi_p=pi_p,
                                   coeffs=coeffs)
    out = tmp_path / "solution.csv"
    write_solve_csv(out, solution)
    table = np.column_stack((grid, np.abs(pi_q), pi_s, pi_p, B1, B0, b1_lo, b1_hi,
                             b0_lo, b0_hi))
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


def test_cmd_sweep_unknown_param(tmp_path, capsys):
    cfg = write_config(tmp_path / "base.cfg")
    code = main(["sweep", "--config", str(cfg), "--param", "nope",
                 "--from", "0", "--to", "1", "--points", "3",
                 "--quantity", "pi_q0", "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert "unknown parameter" in capsys.readouterr().err


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

    def rejecting_sweep(params, claims, numerics, spec):
        return SweepResult(spec.param, spec.quantity,
                           tuple(SweepRow(v, None, "skipped:rejected") for v in spec.values))

    monkeypatch.setattr(verify_mod, "run_sweep", rejecting_sweep)
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
    # so small a zeta pi_p0 is not monotone in delta, so only zeta is checked
    ({"hP": 0.06, "zeta": 0.02, "delta": 0.002}, ("monotone_pi_p0_vs_zeta",)),
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

def test_six_figure_presets_shipped_and_valid():
    import pathlib
    presets = sorted((pathlib.Path(__file__).parent.parent / "demos" / "presets").glob("*.preset"))
    assert len(presets) == 6
    for path in presets:
        values = {}
        for line in path.read_text().splitlines():
            body = line.split("#", 1)[0].strip()
            if body:
                key, _, value = body.partition("=")
                values[key.strip()] = value.strip()
        spec = SweepSpec.from_range(values["param"], float(values["from"]),
                                    float(values["to"]), int(values["points"]),
                                    values["quantity"])
        assert len(spec.values) >= 20
