"""Config loading, invariant validation, round-trips, numeric coercion."""

import dataclasses
import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphamv.cli import main
from alphamv.config import (ALL_KEYS, NUMERICS_DEFAULTS, ClaimModelSpec, ModelParams,
                            NumericsConfig, load_config, replace_param, save_config)
from alphamv.errors import ConfigError, ValidationError
from alphamv.levy import ClaimMeasure
from alphamv.simulate import (ConstantStrategy, WealthPath, alpha_robust_value, bond_price_path,
                              objective_from_terminal, simulate_terminal, simulate_wealth)
from alphamv.solver import (DistortionSide, distortions, penalty_rate, pi_p_star, pi_s_star,
                            pre_default_system, reference_mean_intercepts, reinsurance_foc,
                            scan_foc_sign_changes, solve_pi_q_grid, solve_pi_q_lanes,
                            solve_pi_q_star, value_function)
from alphamv.sweep import SweepSpec
from alphamv.verify import run_verification

from conftest import BASE_KWARGS, write_config


def test_base_parameter_file_accepted(tmp_path):
    path = write_config(tmp_path / "base.cfg")
    params, claims, numerics = load_config(path)
    assert params.alpha == 0.8 and params.gamma == 0.5 and params.theta == 0.1
    assert params.eta == 0.2 and params.beta1 == 1.0 and params.beta2 == 3.0
    assert params.beta3 == 0.1 and params.mu == 0.1 and params.r == 0.05
    assert claims.lam == 1.0 and params.sigma1 == 0.5 and params.sigma2 == 0.2
    assert params.rho == -0.5 and params.delta == 0.01 and params.zeta == 0.5
    assert params.hP == 0.002 and params.T == 10.0


def test_eta_below_theta_rejected(tmp_path):
    path = write_config(tmp_path / "bad.cfg", overrides={"eta": 0.05})
    with pytest.raises(ValidationError, match="eta > theta > 0") as exc_info:
        load_config(path)
    assert exc_info.value.tag == "eta<=theta"


def test_delta_below_zeta_hp_rejected(tmp_path):
    # zeta * hP = 0.001 > delta = 0.0005 violates 1/Delta >= 1
    path = write_config(tmp_path / "bad.cfg", overrides={"delta": 0.0005})
    with pytest.raises(ValidationError, match="1/Delta >= 1") as exc_info:
        load_config(path)
    assert exc_info.value.tag == "delta<zeta*hP"


def test_alpha_boundaries_accepted():
    for alpha in (0.5, 1.0):
        ModelParams(**{**BASE_KWARGS, "alpha": alpha})
    for alpha in (0.49, 1.01):
        with pytest.raises(ValidationError):
            ModelParams(**{**BASE_KWARGS, "alpha": alpha})


def test_other_invariants_enforced():
    bad = [
        ({"r": 0.0}, "r<=0"),
        ({"sigma2": -0.1}, "sigma2<=0"),
        ({"sigma1": -0.1}, "sigma1<0"),
        ({"gamma": 0.0}, "gamma<=0"),
        ({"zeta": 1.5}, "zeta_range"),
        ({"rho": -1.5}, "rho_range"),
        ({"theta": 0.0}, "theta<=0"),
        ({"beta3": 0.0}, "beta3<=0"),
        ({"T": 12.0}, "T>=T1"),
        ({"T": -1.0}, "T<=0"),
        ({"hP": -0.1}, "hP<0"),
        ({"mu": float("nan")}, "nonfinite:mu"),
    ]
    for overrides, tag in bad:
        with pytest.raises(ValidationError) as exc_info:
            ModelParams(**{**BASE_KWARGS, **overrides})
        assert exc_info.value.tag == tag, overrides


def test_missing_model_key_is_error(tmp_path):
    path = write_config(tmp_path / "partial.cfg", drop={"sigmaZ"})
    with pytest.raises(ConfigError, match="sigmaZ"):
        load_config(path)


def test_missing_numerics_keys_take_defaults(tmp_path):
    # write only the model keys
    values = dict(BASE_KWARGS, **{"lambda": 1.0, "muZ": 1.0, "sigmaZ": 0.1})
    path = tmp_path / "model_only.cfg"
    path.write_text("\n".join(f"{k} = {v!r}" for k, v in values.items()), encoding="utf-8")
    _, _, numerics = load_config(path)
    assert numerics == NumericsConfig()
    assert numerics.quad_nodes == 64 and numerics.time_steps == 1000
    assert numerics.root_tol == 1e-10 and numerics.exp_cap == 700.0
    assert numerics.mc_paths == 200000 and numerics.mc_dt == 1e-3 and numerics.seed == 42


def test_unknown_and_duplicate_and_malformed_keys(tmp_path):
    path = tmp_path / "weird.cfg"
    path.write_text("bogus = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)
    write_config(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("r = 0.07\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path)
    path.write_text("r 0.05\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="key = value"):
        load_config(path)
    path.write_text("r = zebra\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="decimal literal"):
        load_config(path)


def test_comments_and_blank_lines_ignored(tmp_path):
    path = write_config(tmp_path / "c.cfg")
    text = "# leading comment\n\n" + path.read_text() + "\n# trailing\n"
    path.write_text(text, encoding="utf-8")
    params, _, _ = load_config(path)
    assert params.r == 0.05


def test_round_trip_is_bit_exact(tmp_path):
    # awkward binary values exercise the repr round-trip
    path = write_config(tmp_path / "rt.cfg",
                        overrides={"mu": 0.1 + 1e-17, "sigma2": 1.0 / 3.0, "rho": -0.123456789012345678})
    params, claims, numerics = load_config(path)
    out = tmp_path / "rt2.cfg"
    save_config(out, params, claims, numerics)
    params2, claims2, numerics2 = load_config(out)
    assert params == params2
    assert claims == claims2
    assert numerics == numerics2


def test_integer_numerics_keys_coerced(tmp_path):
    path = write_config(tmp_path / "n.cfg", numerics_overrides={"quad_nodes": 128.0})
    _, _, numerics = load_config(path)
    assert numerics.quad_nodes == 128 and isinstance(numerics.quad_nodes, int)
    path = write_config(tmp_path / "n2.cfg", numerics_overrides={"time_steps": 10.5})
    with pytest.raises(ConfigError, match="integer"):
        load_config(path)


@pytest.mark.parametrize("key, text", [("time_steps", "inf"), ("seed", "nan"),
                                       ("quad_nodes", "1e400")])
def test_non_finite_integer_numerics_keys_rejected(tmp_path, capsys, key, text):
    path = write_config(tmp_path / "n.cfg")
    path.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {text}",
                           path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{key}.*finite integer"):
        load_config(path)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 1
    assert key in capsys.readouterr().err


def test_numerics_invariants():
    with pytest.raises(ValidationError):
        NumericsConfig(quad_nodes=0)
    with pytest.raises(ValidationError):
        NumericsConfig(root_tol=0.0)
    with pytest.raises(ValidationError):
        NumericsConfig(mc_dt=-1e-3)


@pytest.mark.parametrize("key, value, tag", [
    ("quad_nodes", 16.5, "noninteger:quad_nodes"), ("quad_nodes", math.nan, "nonfinite:quad_nodes"),
    ("time_steps", 100.5, "noninteger:time_steps"), ("seed", 1.5, "noninteger:seed"),
    ("mc_paths", np.float32(math.inf), "nonfinite:mc_paths"),
])
def test_numerics_integer_fields_rejected_unless_finite_and_integral(key, value, tag):
    with pytest.raises(ValidationError) as exc_info:
        NumericsConfig(**{key: value})
    assert exc_info.value.tag == tag


def test_numerics_fields_stored_as_python_ints_and_floats():
    numerics = NumericsConfig(quad_nodes=np.float64(32.0), time_steps=np.int64(100),
                              mc_paths=2000.0, seed=np.int32(7), root_tol=np.float32(0.5),
                              exp_cap=700, mc_dt=np.float64(0.05))
    assert [type(getattr(numerics, key)) for key in NUMERICS_DEFAULTS] == [
        int, int, float, float, int, float, int]
    assert numerics == NumericsConfig(quad_nodes=32, time_steps=100, mc_paths=2000, seed=7,
                                      root_tol=0.5, exp_cap=700.0, mc_dt=0.05)


def test_verification_runs_on_an_integral_float_path_count(base_params, base_claims):
    # the record stores the int 2000, so the simulator's range() accepts it
    numerics = NumericsConfig(mc_paths=2000.0, mc_dt=0.05, time_steps=100, quad_nodes=32)
    assert run_verification(base_params, base_claims, numerics).checks


def test_numpy_scalars_stored_as_python_floats():
    # so the representability checks run in Python float arithmetic, which
    # does not warn (test_unrepresentable_stock_demand_raises_typed_error)
    params = ModelParams(**{**BASE_KWARGS, "sigma2": np.float64(1e-160), "T": np.float32(10.0),
                            "hP": np.int64(0)})
    claims = ClaimModelSpec(lam=np.float32(1.5), muZ=np.float64(1.0), sigmaZ=np.int32(1))
    for record, names in ((params, [f.name for f in dataclasses.fields(params)]),
                          (claims, ["lam", "muZ", "sigmaZ"])):
        assert [name for name in names if type(getattr(record, name)) is not float] == []
    assert (params.sigma2, params.T, claims.lam, claims.sigmaZ) == (1e-160, 10.0, 1.5, 1.0)
    # other types keep their own errors
    with pytest.raises(TypeError):
        ModelParams(**{**BASE_KWARGS, "r": "0.05"})
    with pytest.raises(TypeError):
        ClaimModelSpec(lam=1.0, muZ=np.array([1.0, 2.0]), sigmaZ=0.1)


def test_sigma_z_zero_rejected_at_construction():
    with pytest.raises(ValidationError) as exc_info:
        ClaimModelSpec(lam=1.0, muZ=1.0, sigmaZ=0.0)
    assert exc_info.value.tag == "sigmaZ<=0"
    with pytest.raises(ValidationError):
        ClaimModelSpec(lam=0.0, muZ=1.0, sigmaZ=0.1)


_TABLE = dict(lam=1.0, kind="tabulated-density", z_grid=np.linspace(1.0, 2.0, 5),
              density=np.ones(5))
_NEGATIVE_PI_Q = types.SimpleNamespace(pi_q_at=lambda t: -np.ones_like(t),
                                       pi_s_at=np.zeros_like, pi_p_at=np.zeros_like)


def _penalty(b, phi1=0.0, phi2=0.0, phi3=None, nodes=None):
    """``penalty_rate`` on the base measure; phi3 fills a zero row of ``nodes`` entries."""
    row = np.zeros(b.measure.nodes.size if nodes is None else nodes)
    if phi3 is not None:
        row[1] = phi3
    return penalty_rate(phi1, phi2, row, b.params, b.measure)


def _terminal(b, strategy=ConstantStrategy(), n_paths=10, h0=1):
    return simulate_terminal(strategy, None, b.params, b.measure, n_paths, 0.05, 1, h0=h0)


# (id, tag, step, start time): a simulation grid that neither simulator may size
_BAD_GRIDS = [("dt_negative", "dt<=0", -0.1, 0.0), ("dt_zero", "dt<=0", 0.0, 0.0),
              ("dt_minus_inf", "nonfinite:dt", -math.inf, 0.0),
              ("dt_nan", "nonfinite:dt", math.nan, 0.0),
              ("t0_negative", "t_range", 0.05, -1.0), ("t0_nan", "t_range", 0.05, math.nan)]

# (id, tag, root_tol, exp_cap): lane numerics that no root call may run with
_BAD_NUMERICS = [("root_tol_zero", "root_tol<=0", 0.0, 700.0),
                 ("root_tol_negative", "root_tol<=0", -1.0, 700.0),
                 ("root_tol_nan", "nonfinite:root_tol", math.nan, 700.0),
                 ("exp_cap_negative", "exp_cap<=0", 1e-8, -1.0),
                 ("exp_cap_inf", "nonfinite:exp_cap", 1e-8, math.inf)]

# (id, run of the base solution at a seed): each simulator entry point that takes one
_SEEDED_RUNS = [
    ("terminal", lambda b, seed: simulate_terminal(b.solution, None, b.params, b.measure,
                                                   100, 0.01, seed)),
    ("wealth", lambda b, seed: simulate_wealth(b.solution, None, b.params, b.measure,
                                               10, 0.05, seed)),
    ("alpha_robust", lambda b, seed: alpha_robust_value(
        b.solution, distortions(b.solution, b.params), 0.0, 1.0, 1, 100, 0.01, seed)),
]


# (id, error, tag, call on the base records): each call breaks one invariant
_INVALID_CALLS = [
    ("config-claim_params_missing", ValidationError, "claim_params_missing",
     lambda b: ClaimModelSpec(lam=1.0, muZ=1.0)),
    ("config-tabulated_missing", ValidationError, "tabulated_missing",
     lambda b: ClaimModelSpec(lam=1.0, kind="tabulated-density")),
    ("config-tabulated_grid-shape", ValidationError, "tabulated_grid",
     lambda b: ClaimModelSpec(**{**_TABLE, "density": np.ones(4)})),
    ("config-tabulated_grid-order", ValidationError, "tabulated_grid",
     lambda b: ClaimModelSpec(**{**_TABLE, "z_grid": np.linspace(2.0, 1.0, 5)})),
    ("config-tabulated_density", ValidationError, "tabulated_density<0",
     lambda b: ClaimModelSpec(**{**_TABLE, "density": -np.ones(5)})),
    ("config-claim_kind", ValidationError, "claim_kind",
     lambda b: ClaimModelSpec(lam=1.0, kind="pareto")),
    # ConfigError carries no tag: its message stands in for one
    ("config-save_table", ConfigError,
     "only truncated-normal claim models have a config-file representation",
     lambda b: save_config(b.path, b.params, ClaimModelSpec(**_TABLE), b.numerics)),
    ("levy-nodes", ValidationError, "nodes<=0",
     lambda b: ClaimMeasure(b.claims, np.array([0.0, 1.0]), np.ones(2))),
    ("levy-weights", ValidationError, "weights<0",
     lambda b: ClaimMeasure(b.claims, np.ones(2), np.array([1.0, -1.0]))),
    ("simulate-constant_pi_q", ValidationError, "pi_q<0", lambda b: ConstantStrategy(pi_q=-1.0)),
    ("simulate-run_pi_q", ValidationError, "pi_q<0", lambda b: _terminal(b, _NEGATIVE_PI_Q)),
    ("simulate-H_monotone", ValidationError, "H_monotone",
     lambda b: WealthPath(np.arange(2.0), np.ones(2), np.array([1, 0]), None, [])),
    ("simulate-n_paths", ValidationError, "n_paths<1", lambda b: _terminal(b, n_paths=0)),
    ("simulate-h_range", ValidationError, "h_range", lambda b: _terminal(b, h0=2)),
    ("simulate-h_range-float", ValidationError, "h_range", lambda b: _terminal(b, h0=1.0)),
    ("simulate-h_range-repeated", ValidationError, "h_range", lambda b: _terminal(b, h0=(0, 0))),
    ("simulate-h_range-empty", ValidationError, "h_range", lambda b: _terminal(b, h0=())),
    ("simulate-h_range-pair", ValidationError, "h_range", lambda b: _terminal(b, h0=(1, 2))),
    ("simulate-h_range-wealth_pair", ValidationError, "h_range",
     lambda b: simulate_wealth(ConstantStrategy(), None, b.params, b.measure, 10, 0.05, 1,
                               h0=(1, 0))),
    *[(f"simulate-{simulate.__name__}-{name}", ValidationError, tag,
       lambda b, simulate=simulate, dt=dt, t0=t0:
       simulate(ConstantStrategy(), None, b.params, b.measure, 10, dt, 1, t0=t0))
      for simulate in (simulate_terminal, simulate_wealth) for name, tag, dt, t0 in _BAD_GRIDS],
    *[(f"simulate-objective_paths-{n}", ValidationError, "paths too few",
       lambda b, n=n: objective_from_terminal(np.ones(n), None, b.params, b.measure))
      for n in (0, 1)],
    # a (states, n_paths) sample pooled into one would mix both default states
    *[(f"simulate-objective_ndim-{name}", ValidationError, "ndim:x_T",
       lambda b, x_T=x_T: objective_from_terminal(x_T, None, b.params, b.measure))
      for name, x_T in (("pair", np.ones((2, 10))), ("scalar", np.float64(1.0)))],
    # bond prices share the [0, T]-style time rule of the strategy's closed forms
    ("simulate-bond_t", ValidationError, "t_range",
     lambda b: bond_price_path([b.params.T1 + 1.0], None, b.params)),
    ("simulate-bond_t_nan", ValidationError, "t_range",
     lambda b: bond_price_path([math.nan], None, b.params)),
    ("simulate-bond_t_negative", ValidationError, "t_range",
     lambda b: bond_price_path([0.0, -5.0], None, b.params)),
    # a default before time 0 is no timing; one past T1 is no default (below)
    *[(f"simulate-bond_default_{name}", ValidationError, "t_range",
       lambda b, tau=tau: bond_price_path([0.0, 1.0], tau, b.params))
      for name, tau in (("negative", -5.0), ("minus_inf", -math.inf), ("minus_tiny", -5e-324))],
    ("solver-value_h_range", ValidationError, "h_range",
     lambda b: value_function(0.0, 1.0, 2, b.solution.coeffs)),
    ("solver-value_h_range-float", ValidationError, "h_range",
     lambda b: value_function(0.0, 1.0, 1.0, b.solution.coeffs)),
    ("solver-value_h_range-bool", ValidationError, "h_range",
     lambda b: value_function(0.0, 1.0, True, b.solution.coeffs)),
    ("solver-value_x_nan", ValidationError, "nonfinite:x",
     lambda b: value_function(0.0, math.nan, 1, b.solution.coeffs)),
    ("solver-value_u_star", ValidationError, "u_star",
     lambda b: value_function(0.0, 1.0, 1, ConstantStrategy())),
    # a solution builds its intercept columns on its own grid, which takes
    # the [0, T] rule of every closed form
    *[(f"solver-solution_grid_{name}", ValidationError, "t_range",
       lambda b, grid=grid: dataclasses.replace(b.solution, grid=np.array(grid)))
      for name, grid in (("past_T", [0.0, 20.0]), ("negative", [-1.0, 0.0]),
                         ("nan", [0.0, math.nan]))],
    *[(f"solver-{name}", ValidationError, "t_range", call) for name, call in (
        ("grid_t_past_T", lambda b: solve_pi_q_grid([0.0, 20.0], b.params, b.measure)),
        ("grid_t_negative", lambda b: solve_pi_q_grid([-5.0], b.params, b.measure)),
        ("grid_t_nan", lambda b: solve_pi_q_grid([math.nan], b.params, b.measure)),
        ("star_t_past_T", lambda b: solve_pi_q_star(11.0, b.params, b.measure)),
        ("lanes_t_past_T", lambda b: solve_pi_q_lanes([[20.0]], [b.params], b.measure.tables)),
        ("foc_t_past_T", lambda b: reinsurance_foc(11.0, 0.1, b.params, b.measure)),
        ("scan_t_nan", lambda b: scan_foc_sign_changes(math.nan, b.params, b.measure)),
        ("pi_s_t_past_T", lambda b: pi_s_star(20.0, b.params)),
        ("pi_s_t_nan", lambda b: pi_s_star([0.0, math.nan], b.params)),
        ("pi_p_t_negative", lambda b: pi_p_star(-5.0, b.params)),
        ("pi_p_t_nan", lambda b: pi_p_star(math.nan, b.params)),
        ("pi_q_at_t_past_T", lambda b: b.solution.pi_q_at(20.0)),
        ("pi_q_at_t_nan", lambda b: b.solution.pi_q_at(math.nan)),
        ("pi_s_at_t_negative", lambda b: b.solution.pi_s_at(-5.0)),
        ("side_phi1_t_past_T", lambda b: distortions(b.solution, b.params).lo.phi1(20.0)),
        ("side_phi2_t_nan", lambda b: distortions(b.solution, b.params).hi.phi2(math.nan)),
        ("side_phi3_t_past_T",
         lambda b: distortions(b.solution, b.params).lo.phi3(20.0, b.measure.nodes)),
        ("side_phi3_t_nan",
         lambda b: distortions(b.solution, b.params).hi.phi3(math.nan, b.measure.nodes)))],
    *[(f"solver-grid_{name}", ValidationError, tag,
       lambda b, root_tol=root_tol, exp_cap=exp_cap:
       solve_pi_q_grid([0.0], b.params, b.measure, root_tol, exp_cap))
      for name, tag, root_tol, exp_cap in _BAD_NUMERICS],
    ("solver-foc_exp_cap_nan", ValidationError, "nonfinite:exp_cap",
     lambda b: reinsurance_foc(0.0, 0.1, b.params, b.measure, exp_cap=math.nan)),
    ("solver-scan_exp_cap_zero", ValidationError, "exp_cap<=0",
     lambda b: scan_foc_sign_changes(0.0, b.params, b.measure, exp_cap=0.0)),
    ("solver-reference_exp_cap_nan", ValidationError, "nonfinite:exp_cap",
     lambda b: reference_mean_intercepts(b.params, b.measure, b.solution, math.nan)),
    ("solver-foc_pi_q_nan", ValidationError, "nonfinite:pi_q",
     lambda b: reinsurance_foc(0.0, math.nan, b.params, b.measure)),
    *[(f"solver-scan_n_points_{name}", ValidationError, tag,
       lambda b, n=n: scan_foc_sign_changes(0.0, b.params, b.measure, n))
      for name, tag, n in (("negative", "n_points<2", -5), ("zero", "n_points<2", 0),
                           ("one", "n_points<2", 1), ("fraction", "noninteger:n_points", 2.5),
                           ("nan", "nonfinite:n_points", math.nan))],
    *[(f"solver-side_exp_cap_{name}", ValidationError, tag,
       lambda b, cap=cap: dataclasses.replace(b.solution.coeffs, exp_cap=cap))
      for name, tag, cap in (("negative", "exp_cap<=0", -1.0), ("zero", "exp_cap<=0", 0.0),
                             ("nan", "nonfinite:exp_cap", math.nan))],
    *[(f"solver-side_sign_{name}", ValidationError, "sign",
       lambda b, sign=sign: DistortionSide(b.solution, sign))
      for name, sign in (("five", 5), ("zero", 0), ("bool", True), ("float", 1.0))],
    ("solver-side_u_star", ValidationError, "u_star",
     lambda b: DistortionSide(ConstantStrategy(), 1)),
    *[(f"simulate-{simulate.__name__}-x0_{name}", ValidationError, "nonfinite:x0",
       lambda b, simulate=simulate, x0=x0:
       simulate(b.solution, None, b.params, b.measure, 1000, 0.01, 1, x0=x0))
      for simulate in (simulate_terminal, simulate_wealth)
      for name, x0 in (("nan", math.nan), ("inf", math.inf))],
    *[(f"simulate-constant_{name}_nonfinite", ValidationError, f"nonfinite:{name}",
       lambda b, name=name, value=value: ConstantStrategy(**{name: value}))
      for name, value in (("pi_q", math.nan), ("pi_s", math.inf), ("pi_p", math.nan))],
    *[(f"simulate-objective_t_{name}", ValidationError, "t_range",
       lambda b, t=t: objective_from_terminal(np.ones(10), None, b.params, b.measure, t))
      for name, t in (("past_T", 20.0), ("at_T", 10.0), ("negative", -5.0), ("nan", math.nan))],
    *[(f"simulate-objective_x_T_{name}", ValidationError, "nonfinite:x_T",
       lambda b, x_T=x_T: objective_from_terminal(np.array(x_T),
                                                  distortions(b.solution, b.params).lo,
                                                  b.params, b.measure))
      for name, x_T in (("nan", [1.0, math.nan, 2.0]), ("inf", [1.0, math.inf, 2.0]),
                        ("inf_pair", [math.inf, -math.inf, 1.0]),
                        ("overflow", [1e308, 1e308, 1.0]))],
    *[(f"simulate-{run_name}-seed_{name}", ValidationError, tag,
       lambda b, run=run, seed=seed: run(b, seed))
      for run_name, run in _SEEDED_RUNS
      for name, tag, seed in (("negative", "seed<0", -1), ("fraction", "noninteger:seed", 1.5),
                              ("nan", "nonfinite:seed", math.nan))],
    # the penalty rate takes finite distortions, phi3 one value per node,
    # and a side's phi3 finite claim sizes: typed errors before any arithmetic
    *[(f"solver-penalty_{name}", ValidationError, tag, lambda b, kw=kw: _penalty(b, **kw))
      for name, tag, kw in (("phi1_nan", "nonfinite:phi1", {"phi1": math.nan}),
                            ("phi2_inf", "nonfinite:phi2", {"phi2": math.inf}),
                            ("phi3_nan", "nonfinite:phi3", {"phi3": math.nan}),
                            ("phi3_minus_inf", "nonfinite:phi3", {"phi3": -math.inf}),
                            ("nodes", "nodes", {"nodes": 5}))],
    ("solver-side_phi3_z_nan", ValidationError, "nonfinite:z",
     lambda b: distortions(b.solution, b.params).lo.phi3(0.0, math.nan)),
    *[(f"solver-rk4_steps_{name}", ValidationError, tag,
       lambda b, steps=steps: pre_default_system(b.solution, steps))
      for name, tag, steps in (("fraction", "noninteger:steps", 2.5),
                               ("nan", "nonfinite:steps", math.nan))],
    ("sweep-count", ValidationError, "count<2", lambda b: SweepSpec("alpha", (0.6,), "pi_q0")),
    ("sweep-range_count_fraction", ValidationError, "noninteger:count",
     lambda b: SweepSpec.from_range("alpha", 0.5, 1.0, 2.5, "pi_q0")),
]


@pytest.mark.parametrize("error, tag, call", [case[1:] for case in _INVALID_CALLS],
                         ids=[case[0] for case in _INVALID_CALLS])
def test_invalid_input_raises_with_its_tag(tmp_path, base_params, base_claims, base_numerics,
                                           base_measure, base_solution, error, tag, call):
    base = types.SimpleNamespace(params=base_params, claims=base_claims, numerics=base_numerics,
                                 measure=base_measure, solution=base_solution,
                                 path=tmp_path / "table.cfg")
    with pytest.raises(error) as exc_info:
        call(base)
    assert getattr(exc_info.value, "tag", str(exc_info.value)) == tag


def test_params_are_immutable(base_params):
    with pytest.raises(dataclasses.FrozenInstanceError):
        base_params.r = 0.1
    assert base_params.rho_hat == pytest.approx(np.sqrt(0.75))
    assert base_params.alpha_hat == pytest.approx(0.2)
    assert base_params.h_q == pytest.approx(0.02)
    assert base_params.bond_excess_drift == pytest.approx(0.009)


_BASE_VALUES = {**BASE_KWARGS, "lambda": 1.0, "muZ": 1.0, "sigmaZ": 0.1, **NUMERICS_DEFAULTS}


def _constructed(params, claims, numerics, key, value):
    """replace_param's records built by the constructors, or the error they raise."""
    try:
        if key in ("lambda", "muZ", "sigmaZ"):
            name = "lam" if key == "lambda" else key
            return params, ClaimModelSpec(**{**vars(claims), name: value}), numerics
        if key in NUMERICS_DEFAULTS:
            return params, claims, NumericsConfig(**{**vars(numerics), key: value})
        return ModelParams(**{**vars(params), key: value}), claims, numerics
    except ValidationError as exc:
        return exc


@st.composite
def _values(draw, key):
    value = draw(st.one_of(
        st.sampled_from((math.nan, math.inf, -math.inf, 1e-300, -1e-300, 0.0)),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(0.25, 4.0).map(lambda f: f * _BASE_VALUES[key]),   # mostly valid
        st.integers(-2, 300).map(float)))
    kind = draw(st.sampled_from((float, np.float64, np.float32)))
    if kind is np.float32 and abs(value) > 1e38 and math.isfinite(value):
        kind = np.float64                   # a float32 cast would overflow
    return kind(value)


@pytest.mark.parametrize("key", ALL_KEYS)
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(data=st.data())
def test_replace_param_equals_construction(base_params, base_claims, base_numerics, key, data):
    value = data.draw(_values(key), label="value")
    want = _constructed(base_params, base_claims, base_numerics, key, value)
    if isinstance(want, ValidationError):
        with pytest.raises(ValidationError) as exc_info:
            replace_param(base_params, base_claims, base_numerics, key, value)
        assert (exc_info.value.tag, str(exc_info.value)) == (want.tag, str(want))
        return
    got = replace_param(base_params, base_claims, base_numerics, key, value)
    assert got == want
    params, claims, numerics = got
    fields = [getattr(params, f.name) for f in dataclasses.fields(params)]
    fields += [claims.lam, claims.muZ, claims.sigmaZ]
    fields += [getattr(numerics, name) for name in ("root_tol", "exp_cap", "mc_dt")]
    assert {type(v) for v in fields} == {float}
    assert {type(getattr(numerics, name))
            for name in ("quad_nodes", "time_steps", "mc_paths", "seed")} == {int}
