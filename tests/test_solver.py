"""Solver oracles: closed forms, root properties, coefficient equations."""

import dataclasses
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alphamv.config import ModelParams, load_config
from alphamv.errors import NumericalError, SaturationWarning, ValidationError
from alphamv.levy import build_measure, integrate
import alphamv.solver as solver_mod
from alphamv.solver import (_RK4_STABILITY_LIMIT, _identity_residuals, _scalar_foc,
                            _solve_coefficients, bracket_pi_q,
                            distortions, penalty_rate, pi_p_star, pi_s_star,
                            pre_default_system, reference_mean_intercepts,
                            reinsurance_foc, scan_foc_sign_changes,
                            solve_equilibrium, solve_pi_q_grid, solve_pi_q_star,
                            value_function)
from alphamv.verify import _pi_p_rk4_bound

from conftest import BASE_KWARGS
from rk4_reference import reference_states

BASE_CFG = pathlib.Path(__file__).resolve().parents[1] / "demos" / "configs" / "base.cfg"


# ---------------------------------------------------------------------------
# stock strategy closed form
# ---------------------------------------------------------------------------

def test_pi_s_star_hand_evaluated_at_horizon(base_params):
    # independent hand arithmetic: (0.05 + 0.025 + 0.03) / (0.04 * 2.0)
    assert pi_s_star(base_params.T, base_params) == pytest.approx(0.105 / 0.08, abs=1e-12)


def test_pi_s_star_vanishes_when_mu_equals_r_and_rho_zero():
    params = ModelParams(**{**BASE_KWARGS, "mu": 0.05, "rho": 0.0})
    for t in np.linspace(0.0, params.T, 7):
        assert pi_s_star(t, params) == pytest.approx(0.0, abs=1e-15)


def test_pi_s_star_rho_zero_reduction():
    params = ModelParams(**{**BASE_KWARGS, "rho": 0.0})
    ts = np.linspace(0.0, params.T, 9)
    expected = ((params.mu - params.r) * np.exp(-params.r * (params.T - ts))
                / (params.sigma2 ** 2 * (params.gamma + (2 * params.alpha - 1) * params.beta2)))
    assert np.allclose(pi_s_star(ts, params), expected, rtol=1e-14)


def test_pi_s_star_invariant_to_beta12_at_alpha_half():
    base = ModelParams(**{**BASE_KWARGS, "alpha": 0.5})
    bumped = ModelParams(**{**BASE_KWARGS, "alpha": 0.5, "beta1": 7.0, "beta2": 0.4})
    ts = np.linspace(0.0, base.T, 11)
    assert np.allclose(pi_s_star(ts, base), pi_s_star(ts, bumped), rtol=0, atol=0)


# ---------------------------------------------------------------------------
# reinsurance first-order condition
# ---------------------------------------------------------------------------

def test_foc_at_zero_exposure(base_params, base_measure):
    # alpha + alpha_hat = 1 cancels the exponential terms against z e^{r(T-t)}
    for t in (0.0, 4.2, base_params.T):
        expected = base_params.eta * math.exp(base_params.r * (base_params.T - t)) \
            * base_measure.moment(1)
        assert reinsurance_foc(t, 0.0, base_params, base_measure) == pytest.approx(expected, rel=1e-12)


def test_foc_negative_at_large_exposure(base_params, base_measure):
    assert reinsurance_foc(0.0, 10.0, base_params, base_measure) < 0.0


def test_foc_strictly_decreasing(base_params, base_measure):
    hi = bracket_pi_q(0.0, base_params, base_measure)
    grid = np.linspace(0.0, hi, 101)
    values = reinsurance_foc(np.zeros_like(grid), grid, base_params, base_measure)
    slopes = np.diff(values) / np.diff(grid)
    assert np.all(slopes < 0.0)


def test_foc_rejects_negative_exposure(base_params, base_measure):
    with pytest.raises(ValidationError):
        reinsurance_foc(0.0, -0.1, base_params, base_measure)


def test_root_against_grid_scan(base_params, base_measure):
    # the root must sit inside the single sign-change cell of a 1e5-point scan
    root = solve_pi_q_star(0.0, base_params, base_measure)
    hi = bracket_pi_q(0.0, base_params, base_measure)
    grid = np.linspace(0.0, hi, 100_001)
    values = reinsurance_foc(np.zeros_like(grid), grid, base_params, base_measure)
    flips = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))
    assert flips.size == 1
    assert grid[flips[0]] <= root <= grid[flips[0] + 1]


def test_root_beta3_limit_oracle(base_params, base_measure):
    # first-order expansion of the exponentials: pi_q* -> eta m1 e^{-r(T-t)}/(gamma m2)
    params = dataclasses.replace(base_params, beta3=1e-8)
    m1, m2 = base_measure.moment(1), base_measure.moment(2)
    for t in np.linspace(0.0, params.T, 5):
        limit = params.eta * m1 * math.exp(-params.r * (params.T - t)) / (params.gamma * m2)
        root = solve_pi_q_star(t, params, base_measure)
        assert root == pytest.approx(limit, rel=1e-4)


def test_scalar_and_grid_solvers_agree(base_params, base_measure):
    ts = np.array([0.0, 1.7, 5.0, 9.99, 10.0])
    grid_roots = solve_pi_q_grid(ts, base_params, base_measure)
    for t, expected in zip(ts, grid_roots):
        assert solve_pi_q_star(float(t), base_params, base_measure) == pytest.approx(expected, abs=1e-13)


def test_root_independent_of_default_state(base_params, base_measure):
    # the pre- and post-default conditions are the same equation; two separate
    # invocations must agree bit for bit
    a = solve_pi_q_star(3.0, base_params, base_measure)
    b = solve_pi_q_star(3.0, base_params, base_measure)
    assert a == b


def test_pi_q_at_is_exact_between_grid_points(base_params, base_measure, base_solution):
    # pi_q(t) = u* e^{-r(T-t)} at any t, not a linear interpolation of the grid
    ts = np.array([0.0012345, 3.0025, 9.9999])
    want = [solve_pi_q_star(float(t), base_params, base_measure) for t in ts]
    assert np.allclose(base_solution.pi_q_at(ts), want, rtol=1e-14, atol=0.0)


def _mp_root(params, measure):
    """u* from 50-digit arithmetic: bisection on [0, eta m1 / (gamma m2)] to
    1e-10 relative, then the secant method from the two bracket ends."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        z = [mpmath.mpf(float(v)) for v in measure.nodes]
        w = [mpmath.mpf(float(v)) for v in measure.weights]
        gamma, beta3, alpha, eta = (mpmath.mpf(v) for v in (params.gamma, params.beta3,
                                                            params.alpha, params.eta))

        def f(u):
            total = mpmath.mpf(0)
            for zi, wi in zip(z, w):
                E = u * zi + gamma / 2 * u * u * zi * zi
                mix = alpha * mpmath.exp(beta3 * E) + (1 - alpha) * mpmath.exp(-beta3 * E)
                total += wi * ((1 + eta) * zi - (zi + gamma * u * zi * zi) * mix)
            return total

        m1 = sum(wi * zi for zi, wi in zip(z, w))
        m2 = sum(wi * zi * zi for zi, wi in zip(z, w))
        lo, hi = mpmath.mpf(0), eta * m1 / (gamma * m2)
        while hi - lo > mpmath.mpf("1e-10") * hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
        return float(mpmath.findroot(f, (lo, hi), solver="secant", tol=mpmath.mpf(10) ** -45))


@pytest.mark.parametrize("model, claims", [
    ({}, {}),
    ({"alpha": 0.5}, {}),
    ({"alpha": 1.0}, {}),
    ({"beta3": 1e-12}, {}),
    ({"beta3": 2.0}, {"lam": 20.0, "muZ": 0.05, "sigmaZ": 0.01}),
    # steep beta3 E far above the root: Newton alone would gain about one unit
    # of beta3 E per step, and its slope overflows near exp_cap
    ({"gamma": 0.05, "beta3": 0.5, "alpha": 0.5, "eta": 1.0},
     {"lam": 0.1, "muZ": 10.0, "sigmaZ": 10.0}),
    ({"gamma": 0.05, "beta3": 10.0, "alpha": 0.5, "eta": 1.0},
     {"lam": 20.0, "muZ": 10.0, "sigmaZ": 30.0}),
])
def test_root_matches_50_digit_oracle(model, claims):
    params, base_claims, numerics = load_config(BASE_CFG)
    params = dataclasses.replace(params, **model)
    measure = build_measure(dataclasses.replace(base_claims, **claims), numerics.quad_nodes)
    with warnings.catch_warnings():
        # the steep cases saturate the exponent at the bracket, far above the root
        warnings.simplefilter("ignore", SaturationWarning)
        root = solve_pi_q_star(params.T, params, measure, numerics.root_tol, numerics.exp_cap)
    assert root == pytest.approx(_mp_root(params, measure), rel=1e-14, abs=0.0)


def test_single_sign_change_at_sample_times(base_params, base_measure):
    counts = scan_foc_sign_changes(np.linspace(0.0, base_params.T, 5), base_params,
                                   base_measure, 10_000)
    assert np.all(counts == 1)


def test_float32_scan_stays_finite_at_large_exponents(base_params, base_measure):
    # r = 0.2, T = 20: A(0) = e^4 stretches the scan to beta3 E in the
    # thousands, past where float32 exp overflows (~88.7) long before the
    # float64 exp_cap of 700
    params = dataclasses.replace(base_params, r=0.2, T=20.0, T1=25.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        counts = scan_foc_sign_changes(np.linspace(0.0, params.T, 11), params,
                                       base_measure, 10_000)
    assert counts.tolist() == [1] * 11


def test_bracket_vectorized_over_time(base_params, base_measure):
    ts = np.linspace(0.0, base_params.T, 7)
    his = bracket_pi_q(ts, base_params, base_measure)
    assert isinstance(bracket_pi_q(0.0, base_params, base_measure), float)
    assert np.array_equal(his, [bracket_pi_q(float(t), base_params, base_measure) for t in ts])


# valid reinsurance parameters, with alpha exactly 1/2 and 1 included, and a time fraction
_FOC_PARAMS = dict(alpha=st.one_of(st.just(0.5), st.just(1.0), st.floats(0.5, 1.0)),
                   gamma=st.floats(0.05, 5.0),
                   eta=st.floats(0.11, 1.0),
                   beta3=st.floats(1e-6, 2.0),
                   frac=st.floats(0.0, 1.0))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(**_FOC_PARAMS)
def test_root_properties_over_valid_parameters(base_measure, alpha, gamma, eta, beta3, frac):
    params = ModelParams(**{**BASE_KWARGS, "alpha": alpha, "gamma": gamma,
                            "eta": eta, "beta3": beta3})
    t = frac * params.T
    root_tol = 1e-10
    root = solve_pi_q_star(t, params, base_measure, root_tol)
    assert 0.0 <= root <= bracket_pi_q(t, params, base_measure)
    scale = params.eta * math.exp(params.r * (params.T - t)) * base_measure.moment(1)
    assert abs(reinsurance_foc(t, root, params, base_measure)) <= root_tol * scale
    grid_root = solve_pi_q_grid(np.array([0.0, t, params.T]), params, base_measure)[1]
    assert root == pytest.approx(grid_root, rel=0, abs=1e-13)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(**_FOC_PARAMS, pi_frac=st.floats(0.0, 1.0))
def test_foc_depends_on_time_only_through_accumulation(base_measure, alpha, gamma, eta,
                                                      beta3, frac, pi_frac):
    # F(t, pi) = A(t) F(T, pi A(t)): the identity behind pi_q(t) = u* / A(t)
    params = ModelParams(**{**BASE_KWARGS, "alpha": alpha, "gamma": gamma,
                            "eta": eta, "beta3": beta3})
    t = frac * params.T
    A = math.exp(params.r * (params.T - t))
    pi = pi_frac * bracket_pi_q(t, params, base_measure)
    direct = reinsurance_foc(t, pi, params, base_measure)
    reduced = A * reinsurance_foc(params.T, pi * A, params, base_measure)
    # relative to the size of the integrand terms, since F crosses zero
    terms = (1.0 + params.eta) * A * base_measure.moment(1) + abs(direct)
    assert abs(direct - reduced) <= 1e-12 * terms


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(**{k: v for k, v in _FOC_PARAMS.items() if k != "frac"})
def test_identity_residuals_match_direct_foc(base_measure, alpha, gamma, eta, beta3):
    # the root_tol check reads F(t, pi_q) as A(t) f(pi_q A(t)); it must agree
    # with the per-time quadrature of reinsurance_foc far below root_tol
    params = ModelParams(**{**BASE_KWARGS, "alpha": alpha, "gamma": gamma,
                            "eta": eta, "beta3": beta3})
    ts = np.linspace(0.0, params.T, 11)
    pi_q = solve_pi_q_grid(ts, params, base_measure)
    A = params.discount_to_horizon(ts)
    got = _identity_residuals(pi_q, A, _scalar_foc(params, base_measure, 700.0))
    want = reinsurance_foc(ts, pi_q, params, base_measure)
    scale = params.eta * A * base_measure.moment(1)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(**_FOC_PARAMS)
def test_claim_integrals_at_u_star_match_per_time_quadrature(base_measure, alpha, gamma,
                                                            eta, beta3, frac):
    # the node tables evaluate I+-, KB once at u*; quadrature on the nodes at
    # pi_q(t), A(t) for each t separately must give the same numbers
    params = ModelParams(**{**BASE_KWARGS, "alpha": alpha, "gamma": gamma,
                            "eta": eta, "beta3": beta3})
    tables, _, _ = _solve_coefficients(params, base_measure, np.linspace(0.0, params.T, 21))
    ts = np.array([0.0, frac * params.T, 0.5 * params.T, params.T])
    z, w = base_measure.nodes, base_measure.weights
    for t, pi_q in zip(ts, solve_pi_q_grid(ts, params, base_measure)):
        zA = z * params.discount_to_horizon(t)
        x = beta3 * (pi_q * zA + 0.5 * gamma * (pi_q * zA) ** 2)
        I_plus, I_minus = (z * np.exp(x)) @ w, (z * np.exp(-x)) @ w
        KB = (params.alpha_hat * np.expm1(-x) - alpha * np.expm1(x)) @ w / beta3
        for got, want in ((tables.I_plus, I_plus), (tables.I_minus, I_minus), (tables.KB, KB)):
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_solve_and_reference_memory_stay_small():
    # no times x nodes table is ever whole: on the 2001-point fine grid with
    # 64 nodes one such float64 table alone is 1 MB
    params, claims, numerics = load_config(BASE_CFG)
    measure = build_measure(claims, numerics.quad_nodes)
    solution = solve_equilibrium(params, measure, numerics)
    for run in (lambda: solve_equilibrium(params, measure, numerics),
                lambda: reference_mean_intercepts(params, measure, solution, numerics.exp_cap)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000


def test_solution_without_u_star_raises_typed_error(base_params, base_measure, base_solution):
    bare = dataclasses.replace(base_solution, u_star=None)
    for call in (lambda: bare.pi_q_at(1.0), lambda: distortions(bare, base_params),
                 lambda: reference_mean_intercepts(base_params, base_measure, bare)):
        with pytest.raises(ValidationError, match="u_star") as caught:
            call()
        assert caught.value.tag == "u_star"


def test_unreachable_root_tolerance_raises(base_params, base_measure, base_numerics):
    ts = np.linspace(0.0, base_params.T, 11)
    with pytest.raises(NumericalError, match="tolerance"):
        solve_pi_q_grid(ts, base_params, base_measure, root_tol=1e-30)
    for t in ts[::5]:
        with pytest.raises(NumericalError, match="tolerance"):
            solve_pi_q_star(float(t), base_params, base_measure, root_tol=1e-30)
    numerics = dataclasses.replace(base_numerics, time_steps=50, root_tol=1e-30)
    with pytest.raises(NumericalError, match="tolerance"):
        solve_equilibrium(base_params, base_measure, numerics)


def test_perturbed_root_fails_residual_check(base_params, base_measure, base_numerics,
                                             monkeypatch):
    # a root off by 1e-6 relative must be caught at every requested time
    newton = solver_mod._newton_root
    monkeypatch.setattr(solver_mod, "_newton_root",
                        lambda *args: newton(*args) * (1.0 + 1e-6))
    message = "pi_q roots did not reach the configured tolerance"
    with pytest.raises(NumericalError, match=message):
        solve_pi_q_grid(np.linspace(0.0, base_params.T, 11), base_params, base_measure)
    numerics = dataclasses.replace(base_numerics, time_steps=50)
    with pytest.raises(NumericalError, match=message):
        solve_equilibrium(base_params, base_measure, numerics)


def test_saturation_warning_not_error(base_params, base_measure):
    # pi = 200 pushes beta3 E beyond the cap while the clipped product stays finite
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = reinsurance_foc(0.0, 200.0, base_params, base_measure)
    assert any(issubclass(w.category, SaturationWarning) for w in caught)
    assert np.isfinite(value) and value < 0.0


def test_bracket_expansion_failure_signals_pathology(base_measure):
    # gamma ~ 0 pushes the root beyond 2^60 while beta3 ~ 0 keeps F positive
    params = ModelParams(**{**BASE_KWARGS, "gamma": 1e-300, "beta3": 1e-300})
    with pytest.raises(NumericalError, match="bracket"):
        bracket_pi_q(0.0, params, base_measure)


def test_solve_equilibrium_reports_bracket_failure(base_measure, base_numerics):
    params = ModelParams(**{**BASE_KWARGS, "gamma": 1e-300, "beta3": 1e-300})
    numerics = dataclasses.replace(base_numerics, time_steps=50)
    with pytest.raises(NumericalError, match="bracket"):
        solve_equilibrium(params, base_measure, numerics)


# ---------------------------------------------------------------------------
# coefficient system
# ---------------------------------------------------------------------------

def test_terminal_values_are_zero(base_solution):
    c = base_solution.coeffs
    for array in (c.B1, c.B0, c.b1_lo, c.b1_hi, c.b0_lo, c.b0_hi):
        assert array[-1] == 0.0
    assert c.A[-1] == pytest.approx(1.0, abs=1e-15)


def test_discount_coefficient_matches_exponential(base_params, base_solution):
    expected = np.exp(base_params.r * (base_params.T - base_solution.grid))
    assert np.allclose(base_solution.coeffs.A, expected, rtol=1e-15)


def test_b1_lo_below_b1_hi(base_solution):
    # the integrands differ by sign-definite beta1/beta2 terms
    assert np.all(base_solution.coeffs.b1_lo <= base_solution.coeffs.b1_hi + 1e-15)


def test_pre_default_terminal_bond_amount(base_params, base_measure):
    grid = np.linspace(0.0, base_params.T, 201)
    pi_p, B0, b0_lo, b0_hi = pre_default_system(base_params, base_measure, grid)
    p = base_params
    hand = (p.delta - p.zeta * p.hP) / (p.gamma * p.zeta ** 2 * p.hP)
    assert pi_p[-1] == pytest.approx(hand, rel=1e-12)
    assert B0[-1] == 0.0 and b0_lo[-1] == 0.0 and b0_hi[-1] == 0.0


def test_pre_default_bond_amount_zero_at_fair_spread(base_measure):
    # delta = zeta hP kills the excess drift; terminal demand is zero
    params = ModelParams(**{**BASE_KWARGS, "delta": 0.001})
    grid = np.linspace(0.0, params.T, 101)
    pi_p, _, _, _ = pre_default_system(params, base_measure, grid)
    assert pi_p[-1] == pytest.approx(0.0, abs=1e-12)


def test_pre_default_unbounded_demand_errors(base_measure):
    for overrides in ({"hP": 0.0, "delta": 0.01}, {"zeta": 0.0, "delta": 0.0}):
        params = ModelParams(**{**BASE_KWARGS, **overrides})
        grid = np.linspace(0.0, params.T, 51)
        with pytest.raises(NumericalError, match="unbounded"):
            pre_default_system(params, base_measure, grid)
        with pytest.raises(NumericalError, match="unbounded"):
            pi_p_star(0.0, params)


def _mp_pi_p(t, params):
    """pi_p from 40-digit arithmetic, in the form the backward system reads:
    (n0 + gamma zeta hP D) / (gamma zeta^2 hP A), D = (c/k)(e^{-k tau} - 1)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        delta, zeta, hP, gamma, r, T = (mpmath.mpf(v) for v in (
            params.delta, params.zeta, params.hP, params.gamma, params.r, params.T))
        tau = T - mpmath.mpf(t)
        n0 = delta - zeta * hP
        k = delta / zeta
        gap = n0 ** 2 / (gamma * zeta ** 2 * hP) / k * (mpmath.exp(-k * tau) - 1)
        return float((n0 + gamma * zeta * hP * gap) / (gamma * zeta ** 2 * hP * mpmath.exp(r * tau)))


@pytest.mark.parametrize("overrides", [
    {},
    {"delta": 0.001},          # fair spread delta = zeta hP
    {"zeta": 1e-5},            # delta/zeta = 1000; n0/delta = 1 - 2e-6
    {"zeta": 0.05},
])
def test_pi_p_star_matches_40_digit_oracle(overrides):
    params = ModelParams(**{**BASE_KWARGS, **overrides})
    ts = np.array([0.0, 1e-3, 2.5, 7.0, 9.9, 9.999, params.T])
    got = pi_p_star(ts, params)
    want = np.array([_mp_pi_p(t, params) for t in ts])
    if overrides.get("delta") == params.zeta * params.hP:
        assert np.all(got == 0.0)
    else:
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    assert pi_p_star(params.T, params) == got[-1]   # scalar in, float out


def test_rk4_pi_p_converges_to_closed_form(base_measure):
    # zeta = 0.05 makes the delta/zeta mode fast enough (k h = 0.05 at 40
    # steps) that RK4's error stands far above rounding at all three sizes
    params = ModelParams(**{**BASE_KWARGS, "zeta": 0.05})
    errors = []
    for m in (40, 80, 160):
        grid = np.linspace(0.0, params.T, m + 1)
        pi_p, _, _, _ = pre_default_system(params, base_measure, grid)
        common = grid[::m // 40]
        errors.append(np.max(np.abs(pi_p[::m // 40] - pi_p_star(common, params))))
    assert math.log2(errors[0] / errors[1]) >= 3.5
    assert math.log2(errors[1] / errors[2]) >= 3.5


@pytest.mark.parametrize("zeta, steps", [(0.5, 1000), (0.5, 40), (0.05, 40), (2e-4, 1000),
                                         (6e-5, 1000), (1e-5, 3591)])
def test_rk4_pi_p_within_its_error_bound(base_measure, zeta, steps):
    # from rounding (the base config) to RK4 off by 6.3 times the closed form
    # (zeta = 6e-5, k h = 1.67) the deviation stays inside the stated bound
    params = ModelParams(**{**BASE_KWARGS, "zeta": zeta})
    grid = np.linspace(0.0, params.T, steps + 1)
    pi_p, _, _, _ = pre_default_system(params, base_measure, grid)
    assert np.all(np.abs(pi_p - pi_p_star(grid, params)) <= _pi_p_rk4_bound(grid, params))


def test_value_intercepts_continuous_as_beta3_vanishes():
    # the entropy jump term (1/b3)(1 - e^{+-b3 E}) must not cancel for small
    # beta3: over [1e-12, 1e-8] the intercepts move by about 3e-9 relative
    params, claims, numerics = load_config(BASE_CFG)
    numerics = dataclasses.replace(numerics, time_steps=200)
    measure = build_measure(claims, numerics.quad_nodes)
    tiny, small = (solve_equilibrium(dataclasses.replace(params, beta3=b3), measure, numerics)
                   for b3 in (1e-12, 1e-8))
    assert tiny.coeffs.B1[0] == pytest.approx(small.coeffs.B1[0], rel=5e-8, abs=0)
    assert tiny.coeffs.B0[0] == pytest.approx(small.coeffs.B0[0], rel=5e-8, abs=0)


def test_rk4_order_on_grid_halving(base_params, base_measure):
    values = {}
    for m in (40, 80, 160):
        grid = np.linspace(0.0, base_params.T, m + 1)
        _, B0, _, _ = pre_default_system(base_params, base_measure, grid)
        values[m] = B0[0]
    d1 = abs(values[40] - values[80])
    d2 = abs(values[80] - values[160])
    assert math.log2(d1 / d2) >= 3.5


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(**{k: v for k, v in _FOC_PARAMS.items() if k != "frac"},
       zeta=st.floats(0.01, 1.0), hP=st.floats(1e-4, 0.2), spread=st.floats(0.0, 0.2),
       steps=st.integers(20, 300))
def test_backward_sweep_matches_step_loop(base_measure, alpha, gamma, eta, beta3,
                                          zeta, hP, spread, steps):
    params = ModelParams(**{**BASE_KWARGS, "alpha": alpha, "gamma": gamma, "eta": eta,
                            "beta3": beta3, "zeta": zeta, "hP": hP,
                            "delta": zeta * hP + spread})
    assume(params.h_q * params.T / steps <= _RK4_STABILITY_LIMIT)
    grid = np.linspace(0.0, params.T, steps + 1)
    tables, states, pi_p = _solve_coefficients(params, base_measure, grid)
    pi_p_fine = np.interp(tables.times, grid, pi_p)
    ref_tables, ref_states, _ = _solve_coefficients(
        params, base_measure, grid, betas=(0.0, 0.0, 0.0),
        strategy=(tables.u_star, tables.pi_s, pi_p_fine))
    for got, tab, pinned in ((states, tables, None), (ref_states, ref_tables, pi_p_fine)):
        want = np.array(reference_states(params, tab, grid, pinned))
        # post-default columns: Simpson sums in the loop's order, bit for bit
        assert np.array_equal(got[:, :3], want[:, :3])
        # the rest: rounding in either form scales with the column's size, so
        # the bound does too (where B0 crosses zero the loop is off by as much)
        scale = 1.0 + np.max(np.abs(want[:, 3:]), axis=0)
        assert np.all(np.abs(got[:, 3:] - want[:, 3:]) <= 1e-12 * scale)


def test_unstable_backward_step_raises(base_measure, base_numerics):
    # delta/zeta = 1000 and step 0.01 put the fastest pre-default mode far past
    # RK4's stability limit, where the sweep would overflow into NaN
    params = ModelParams(**{**BASE_KWARGS, "zeta": 1e-5})
    numerics = dataclasses.replace(base_numerics, time_steps=1000)
    with pytest.raises(NumericalError, match=r"rate 1000 times step 0\.01 .*time_steps >= 3591"):
        solve_equilibrium(params, base_measure, numerics)
    solution = solve_equilibrium(params, base_measure,
                                 dataclasses.replace(numerics, time_steps=3591))
    assert np.all(np.isfinite(solution.pi_p)) and np.all(np.isfinite(solution.coeffs.B0))


def test_b0_lo_satisfies_its_ode(base_params, base_measure, base_solution):
    # centered difference of b0_lo against the integrand reconstructed from
    # public pieces: b' - hP b + f = O(step^2)
    p = base_params
    sol = base_solution
    c = sol.coeffs
    dist = distortions(sol, p)
    grid = sol.grid
    h = grid[1] - grid[0]
    ks = np.arange(20, grid.size - 1, 97)
    m1 = base_measure.moment(1)
    for k in ks:
        t = grid[k]
        A = c.A[k]
        pi_q, pi_s, pi_p = sol.pi_q[k], sol.pi_s[k], sol.pi_p[k]
        I_plus = integrate(base_measure, lambda z: z * (1.0 - dist.phi3_lo(t, z)))
        f1 = ((p.theta - p.eta + (1 + p.eta) * pi_q) * A * m1
              - p.beta1 * p.sigma1 ** 2 * A ** 2
              + ((p.mu - p.r) * A - 2 * p.beta1 * p.sigma1 * p.sigma2 * p.rho * A ** 2) * pi_s
              - p.sigma2 ** 2 * A ** 2 * (p.beta1 * p.rho ** 2 + p.beta2 * p.rho_hat ** 2) * pi_s ** 2
              - pi_q * A * I_plus)
        f0 = f1 + pi_p * p.delta * A + p.hP * (-p.zeta * pi_p * A + c.b1_lo[k])
        derivative = (c.b0_lo[k + 1] - c.b0_lo[k - 1]) / (2 * h)
        residual = derivative - p.hP * c.b0_lo[k] + f0
        assert abs(residual) <= 50.0 * h ** 2


def test_reference_intercepts_beta_independent(base_params, base_measure, base_solution):
    # under the reference measure the ambiguity levels must not matter
    bumped = dataclasses.replace(base_params, beta1=2.5, beta2=0.7, beta3=0.3)
    b1_ref, b0_ref = reference_mean_intercepts(base_params, base_measure, base_solution)
    b1_ref2, b0_ref2 = reference_mean_intercepts(bumped, base_measure, base_solution)
    assert np.allclose(b1_ref, b1_ref2, rtol=0, atol=1e-12)
    assert np.allclose(b0_ref, b0_ref2, rtol=0, atol=1e-12)


def test_reference_intercept_closed_form_post_default(base_params, base_measure, base_solution):
    # with the strategy fixed, the post-default reference intercept is the
    # plain integral of A(s) [(mu-r) pi_s + (theta - eta + eta pi_q) m1]
    p = base_params
    b1_ref, _ = reference_mean_intercepts(p, base_measure, base_solution)
    fine = base_solution.fine_grid
    A = np.exp(p.r * (p.T - fine))
    m1 = base_measure.moment(1)
    integrand = A * ((p.mu - p.r) * base_solution.fine_pi_s
                     + (p.theta - p.eta + p.eta * base_solution.fine_pi_q) * m1)
    from scipy.integrate import simpson
    expected = simpson(integrand, x=fine)
    assert b1_ref[0] == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# distortions, value function, penalty
# ---------------------------------------------------------------------------

def test_distortions_vanish_without_ambiguity(base_measure, base_numerics):
    params = ModelParams(**{**BASE_KWARGS, "beta1": 1e-8, "beta2": 1e-8, "beta3": 1e-8})
    solution = solve_equilibrium(params, base_measure, base_numerics)
    dist = distortions(solution, params)
    ts = np.linspace(0.0, params.T, 64)
    zs = np.linspace(0.8, 1.2, 64)
    assert np.max(np.abs(dist.phi1_lo(ts))) < 1e-6
    assert np.max(np.abs(dist.phi2_lo(ts))) < 1e-6
    assert np.max(np.abs(dist.phi3_lo(ts[:, None], zs[None, :]))) < 1e-6


def test_distortion_identities(base_params, base_solution):
    dist = distortions(base_solution, base_params)
    rng = np.random.default_rng(99)
    ts = rng.uniform(0.0, base_params.T, 10_000)
    zs = rng.uniform(0.5, 1.5, 10_000)
    assert np.max(np.abs(dist.phi1_hi(ts) + dist.phi1_lo(ts))) <= 1e-12
    assert np.max(np.abs(dist.phi2_hi(ts) + dist.phi2_lo(ts))) <= 1e-12
    product = (1.0 - dist.phi3_lo(ts, zs)) * (1.0 - dist.phi3_hi(ts, zs))
    assert np.max(np.abs(product - 1.0)) <= 1e-12


def _small_beta3_exponents():
    # beta3 = 1e-12 on base.cfg: exponents x = beta3 E of order 1e-11
    params, claims, numerics = load_config(BASE_CFG)
    params = dataclasses.replace(params, beta3=1e-12)
    numerics = dataclasses.replace(numerics, time_steps=200)
    measure = build_measure(claims, numerics.quad_nodes)
    solution = solve_equilibrium(params, measure, numerics)
    ts = solution.fine_grid[:, None]
    z = measure.nodes[None, :]
    pqzA = solution.fine_pi_q[:, None] * z * params.discount_to_horizon(ts)
    x = params.beta3 * (pqzA + 0.5 * params.gamma * pqzA ** 2)
    return params, measure, distortions(solution, params), ts, z, x


def test_jump_distortion_accurate_at_small_beta3():
    _, _, dist, ts, z, x = _small_beta3_exponents()
    for phi3, xs in ((dist.phi3_lo, x), (dist.phi3_hi, -x)):
        series = -(xs + xs ** 2 / 2 + xs ** 3 / 6)          # 1 - e^{xs}
        assert np.max(np.abs(phi3(ts, z) / series - 1.0)) <= 1e-9


def test_penalty_entropy_accurate_at_small_beta3():
    params, measure, dist, ts, z, x = _small_beta3_exponents()
    zeros = np.zeros(ts.shape[0])
    for phi3, xs in ((dist.phi3_lo, x), (dist.phi3_hi, -x)):
        rate = penalty_rate(zeros, zeros, phi3(ts, z), params, measure)
        # q log q + phi3 with q = e^{xs}
        series = (xs ** 2 / 2 + xs ** 3 / 3 + xs ** 4 / 8) @ measure.weights / params.beta3
        assert np.max(np.abs(rate / series - 1.0)) <= 1e-9


def test_averse_measure_inflates_claim_intensity(base_params, base_solution):
    dist = distortions(base_solution, base_params)
    ts = np.linspace(0.0, base_params.T, 32)
    zs = np.linspace(0.7, 1.8, 16)
    assert np.all(1.0 - dist.phi3_lo(ts[:, None], zs[None, :]) >= 1.0)


def test_value_function_terminal_and_affine(base_params, base_solution):
    c = base_solution.coeffs
    for h in (0, 1):
        assert value_function(base_params.T, 3.7, h, c) == pytest.approx(3.7, abs=1e-12)
        x = 1.9
        gap = value_function(4.0, 2 * x, h, c) - value_function(4.0, x, h, c)
        assert gap == pytest.approx(math.exp(base_params.r * (base_params.T - 4.0)) * x, rel=1e-12)
    with pytest.raises(ValidationError):
        value_function(-0.1, 1.0, 0, c)
    with pytest.raises(ValidationError):
        value_function(base_params.T + 0.1, 1.0, 1, c)


def test_penalty_rate_zero_and_quadratic(base_params, base_measure):
    zeros = np.zeros_like(base_measure.nodes)
    assert penalty_rate(0.0, 0.0, zeros, base_params, base_measure) == pytest.approx(0.0, abs=1e-15)
    params = ModelParams(**{**BASE_KWARGS, "beta1": 1.0})
    assert penalty_rate(1.0, 0.0, zeros, params, base_measure) == pytest.approx(0.5, rel=1e-14)


def test_penalty_rate_rejects_phi3_at_one(base_params, base_measure):
    phi3 = np.zeros_like(base_measure.nodes)
    phi3[3] = 1.0
    with pytest.raises(ValidationError):
        penalty_rate(0.0, 0.0, phi3, base_params, base_measure)


def test_penalty_symmetry_between_sides(base_params, base_solution, base_measure):
    # phi1/phi2 contributions agree between the paired distortions (squares
    # kill the signs) while the phi3 entropy terms differ
    dist = distortions(base_solution, base_params)
    t = 2.5
    z = base_measure.nodes
    rate_lo = penalty_rate(float(dist.phi1_lo(t)), float(dist.phi2_lo(t)),
                           dist.phi3_lo(t, z), base_params, base_measure)
    rate_hi = penalty_rate(float(dist.phi1_hi(t)), float(dist.phi2_hi(t)),
                           dist.phi3_hi(t, z), base_params, base_measure)
    def entropy(phi3):
        q = 1.0 - phi3
        return float((q * np.log(q) + phi3) @ base_measure.weights) / base_params.beta3
    assert rate_lo - rate_hi == pytest.approx(
        entropy(dist.phi3_lo(t, z)) - entropy(dist.phi3_hi(t, z)), rel=1e-12)
    assert rate_lo != pytest.approx(rate_hi, rel=1e-6)


def test_solution_strategies_nonnegative_and_reproducible(base_params, base_claims,
                                                          base_numerics, base_solution):
    assert np.all(base_solution.pi_q >= 0.0)
    # an independent re-solve (fresh measure) reproduces every column exactly
    again = solve_equilibrium(base_params, build_measure(base_claims, base_numerics.quad_nodes),
                              base_numerics)
    assert np.array_equal(again.pi_q, base_solution.pi_q)
    assert np.array_equal(again.pi_s, base_solution.pi_s)
    assert np.array_equal(again.pi_p, base_solution.pi_p)
