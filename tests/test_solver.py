"""Solver oracles: closed forms, root properties, coefficient equations."""

import dataclasses
import functools
import inspect
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alphamv.config import ModelParams, NumericsConfig, load_config
from alphamv.errors import NumericalError, SaturationWarning, ValidationError
from alphamv.levy import (ClaimMeasure, ClaimTables, build_claim_tables, build_measure,
                          tilt_limit)
from alphamv.simulate import ConstantStrategy
import alphamv
import alphamv.solver as solver_mod
from alphamv.solver import (DistortionSide, EquilibriumSolution, _FocLanes,
                            _claim_integrals, _identity_residuals, _root_start,
                            _value_intercepts, distortions, penalty_rate, pi_p_star, pi_s_star,
                            pre_default_system, reference_mean_intercepts,
                            reinsurance_foc, scan_foc_sign_changes,
                            solve_equilibrium, solve_pi_q_grid, solve_pi_q_lanes,
                            solve_pi_q_star, value_function)
from alphamv.sweep import SweepSpec, run_sweep
from alphamv.verify import _pi_p_rk4_bound

from conftest import BASE_KWARGS

BASE_CFG = pathlib.Path(__file__).resolve().parents[1] / "demos" / "configs" / "base.cfg"


def _lane0(t, params, measure, u_star, exp_cap):
    """The six columns of ``_value_intercepts`` for one lane at times t."""
    columns, errors = _value_intercepts(t, [params], measure.tables, [u_star], exp_cap)
    assert errors == [None]
    return [column[0] for column in columns]


def _bracket_hi(t, params, measure):
    """Upper end ``min(2 u0, u_c) / A(t)`` of the root bracket of ``_root_start``."""
    z, p = measure.nodes, measure.probs
    u0, u_c = _root_start(params, tilt_limit(measure.spec), float(p @ z), float(p @ z ** 2))
    return min(2.0 * u0, u_c) / params.discount_to_horizon(t)


def _foc_per_node(u, gamma, beta3, alpha, eta, z, p, exp_cap=700.0):
    """f(u) = F(T, u) / lambda node by node, in the fused form
    ``sum_i p_i ((1 + eta) z_i - G_i (alpha e^{x_i} + (1 - alpha) e^{-x_i}))``
    with ``x = beta3 (u z + gamma u^2 z^2 / 2)`` clipped at exp_cap; u and
    the parameters are columns against the nodes z and weights p."""
    G = z + gamma * u * z * z
    x = np.minimum(beta3 * u * (z + 0.5 * gamma * u * z * z), exp_cap)
    mix = alpha * np.exp(x) + (1.0 - alpha) * np.exp(-x)
    return np.sum(p * ((1.0 + eta) * z - G * mix), axis=-1)


def _sign_changes(values):
    signs = np.sign(values)
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def _rk4(params, measure, steps):
    """The RK4 route's columns on ``steps`` steps, from the solve of ``params``."""
    return pre_default_system(solve_equilibrium(params, measure, NumericsConfig()), steps)


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


@pytest.mark.parametrize("sigma2", [1e-300, 1e-160,
                                    pytest.param(np.float64(1e-160), id="numpy-1e-160")])
def test_unrepresentable_stock_demand_raises_typed_error(base_measure, base_numerics, sigma2):
    # sigma2^2 (gamma + ...) underflows to 0 (1e-300), or is subnormal and the
    # stock coefficients (mu - r) / (sigma2^2 (...)) overflow (1e-160): a
    # typed error before any float warning, also for a numpy scalar, which
    # the record stores as a Python float
    params = dataclasses.replace(ModelParams(**BASE_KWARGS), sigma2=sigma2)
    calls = (lambda: pi_s_star(0.0, params),
             lambda: pi_s_star(np.linspace(0.0, params.T, 5), params),
             lambda: solver_mod._stock_coefficients(params),
             lambda: solve_equilibrium(params, base_measure, base_numerics))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in calls:
            with pytest.raises(NumericalError, match="stock demand"):
                call()


def test_small_representable_sigma2_still_solves(base_measure, base_numerics):
    # sigma2 = 1e-150: pi_s is about 1e299, still finite
    params = ModelParams(**{**BASE_KWARGS, "sigma2": 1e-150})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        solution = solve_equilibrium(params, base_measure, base_numerics)
    assert np.all(np.isfinite(solution.pi_s)) and solution.pi_s[0] > 1e298


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
    hi = _bracket_hi(0.0, base_params, base_measure)
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
    hi = _bracket_hi(0.0, base_params, base_measure)
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
    root = solve_pi_q_star(params.T, params, measure, numerics.root_tol, numerics.exp_cap)
    assert root == pytest.approx(_mp_root(params, measure), rel=1e-14, abs=0.0)


def test_single_sign_change_at_sample_times(base_params, base_measure):
    counts = scan_foc_sign_changes(np.linspace(0.0, base_params.T, 5), base_params,
                                   base_measure, 10_000)
    assert np.all(counts == 1)


def test_float32_scan_stays_finite_at_large_exponents(base_params, base_measure):
    # gamma = 0.05, eta = 1, beta3 = 2: the scan end u_c reaches beta3 E of
    # about 276, and no exponential or moment overflows
    params = dataclasses.replace(base_params, gamma=0.05, eta=1.0, beta3=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        counts = scan_foc_sign_changes(np.linspace(0.0, params.T, 11), params,
                                       base_measure, 10_000)
    assert counts.tolist() == [1] * 11


def test_scan_does_not_saturate_far_above_a_small_root():
    # u* ~ 0.01 with large claims: probing u = 1, 2, 4, ... would saturate
    # the float64 exponent, the bracket [0, 2 u0] does not
    params, claims, numerics = load_config(BASE_CFG)
    params = dataclasses.replace(params, gamma=5.0, beta3=1.0, alpha=0.5, eta=1.0)
    measure = build_measure(dataclasses.replace(claims, muZ=10.0, sigmaZ=10.0),
                            numerics.quad_nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        counts = scan_foc_sign_changes(np.linspace(0.0, params.T, 11), params, measure,
                                       10_000, numerics.exp_cap)
    assert counts.tolist() == [1] * 11


@pytest.mark.parametrize("model, claims, top", [
    ({}, {}, (0.0, 300.0)),
    # perfbench's claim-heavy law
    ({"beta3": 2.0}, {"lam": 20.0, "muZ": 0.05, "sigmaZ": 0.01}, (0.0, 300.0)),
    # the scan's end passes its exponent cap of 300, and stays below exp_cap
    ({"gamma": 0.05, "eta": 1.0, "beta3": 4.0}, {}, (300.0, 700.0)),
])
def test_scan_counts_the_sign_changes_of_the_per_node_foc(model, claims, top):
    params, base_claims, numerics = load_config(BASE_CFG)
    params = dataclasses.replace(params, **model)
    measure = build_measure(dataclasses.replace(base_claims, **claims), numerics.quad_nodes)
    # the same law with its nodes in reverse order: the saturation flag must
    # read the largest node, wherever it sits in the row
    reverse = ClaimMeasure(measure.spec, measure.nodes[::-1], measure.probs[::-1])
    u = np.linspace(0.0, _bracket_hi(params.T, params, measure), 10_000)
    want = _sign_changes(_foc_per_node(u[:, None], params.gamma, params.beta3, params.alpha,
                                       params.eta, measure.nodes, measure.probs))
    assert want == 1
    z = np.array([measure.nodes.min(), measure.nodes.max()])
    exponent = params.beta3 * u[-1] * z * (1.0 + 0.5 * params.gamma * u[-1] * z)
    assert top[0] < exponent[1] < top[1]
    for m in (measure, reverse):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert scan_foc_sign_changes([0.0], params, m, 10_000,
                                         numerics.exp_cap).tolist() == [want]
        # a cap between the exponents at the smallest and the largest node
        with pytest.warns(SaturationWarning):
            reinsurance_foc(params.T, u[-1], params, m, exp_cap=exponent.mean())


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
    assert 0.0 <= root <= _bracket_hi(t, params, base_measure)
    scale = params.eta * math.exp(params.r * (params.T - t)) * base_measure.moment(1)
    assert abs(reinsurance_foc(t, root, params, base_measure)) <= root_tol * scale
    grid_root = solve_pi_q_grid(np.array([0.0, t, params.T]), params, base_measure)[1]
    assert root == pytest.approx(grid_root, rel=0, abs=1e-13)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(**_FOC_PARAMS)
def test_foc_slope_matches_a_central_difference(base_measure, alpha, gamma, eta, beta3, frac):
    # Newton's bisection fallback would hide a wrong f': check it against f.
    # f sums terms of total size S, so it rounds by delta = nodes eps S, and
    # each term's log changes with u at a rate below rho = gamma z + beta3 G
    # at the largest node.  The step h = (delta/S)^(1/3) / rho balances the
    # rounding delta/h of the difference against its truncation h^2 f^(3)/6,
    # with |f^(3)| of order S rho^3: both are (delta/S)^(2/3) S rho.
    params = ModelParams(**{**BASE_KWARGS, "alpha": alpha, "gamma": gamma,
                            "eta": eta, "beta3": beta3})
    foc = _FocLanes.stack([params], base_measure.tables, 700.0)
    z = base_measure.nodes.max()
    u = frac * _bracket_hi(params.T, params, base_measure)
    (f,), (slope,) = foc(np.array([u]))
    S = 2.0 * (1.0 + eta) * float(base_measure.probs @ base_measure.nodes) - f
    delta = base_measure.nodes.size * np.finfo(float).eps * S
    rho = gamma * z + beta3 * (z + gamma * u * z * z)
    h = (delta / S) ** (1.0 / 3.0) / rho
    f_hi, f_lo = (foc(np.array([v]), slope=False)[0][0] for v in (u + h, u - h))
    assert abs((f_hi - f_lo) / (2.0 * h) - slope) <= 4.0 * (delta / S) ** (2.0 / 3.0) * S * rho


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(**_FOC_PARAMS, pi_frac=st.floats(0.0, 1.0))
def test_foc_depends_on_time_only_through_accumulation(base_measure, alpha, gamma, eta,
                                                      beta3, frac, pi_frac):
    # F(t, pi) = A(t) F(T, pi A(t)): the identity behind pi_q(t) = u* / A(t)
    params = ModelParams(**{**BASE_KWARGS, "alpha": alpha, "gamma": gamma,
                            "eta": eta, "beta3": beta3})
    t = frac * params.T
    A = math.exp(params.r * (params.T - t))
    pi = pi_frac * _bracket_hi(t, params, base_measure)
    # the first-order condition quadrature at time t itself
    zA = base_measure.nodes * A
    E = pi * zA + 0.5 * gamma * (pi * zA) ** 2
    mix = alpha * np.exp(beta3 * E) + (1.0 - alpha) * np.exp(-beta3 * E)
    direct = ((1.0 + eta) * zA - (zA + gamma * pi * zA ** 2) * mix) @ base_measure.weights
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
    got, _ = _identity_residuals(pi_q[None], A[None],
                                 _FocLanes.stack([params], base_measure.tables, 700.0))
    got = got[0]
    want = reinsurance_foc(ts, pi_q, params, base_measure)
    scale = params.eta * A * base_measure.moment(1)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(**_FOC_PARAMS)
def test_claim_integrals_at_u_star_match_per_time_quadrature(base_measure, alpha, gamma,
                                                            eta, beta3, frac):
    # the intercept equations evaluate I+-, KB once at u*; quadrature on the
    # nodes at pi_q(t), A(t) for each t separately must give the same numbers
    params = ModelParams(**{**BASE_KWARGS, "alpha": alpha, "gamma": gamma,
                            "eta": eta, "beta3": beta3})
    u_star = solve_pi_q_star(params.T, params, base_measure)
    (_, *at_u_star), = _claim_integrals([u_star], [beta3], [params], base_measure.tables, 700.0)
    ts = np.array([0.0, frac * params.T, 0.5 * params.T, params.T])
    z, w = base_measure.nodes, base_measure.weights
    for t, pi_q in zip(ts, solve_pi_q_grid(ts, params, base_measure)):
        zA = z * params.discount_to_horizon(t)
        x = beta3 * (pi_q * zA + 0.5 * gamma * (pi_q * zA) ** 2)
        I_plus, I_minus = (z * np.exp(x)) @ w, (z * np.exp(-x)) @ w
        KB = (params.alpha_hat * np.expm1(-x) - alpha * np.expm1(x)) @ w / beta3
        for got, want in zip(at_u_star, (I_plus, I_minus, KB)):
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
    # coefficients cannot lose their u*, and a strategy without coefficients
    # has no model for the post-solve calls to read
    for call in (lambda: dataclasses.replace(base_solution.coeffs, u_star=None),
                 lambda: reference_mean_intercepts(base_params, base_measure, ConstantStrategy())):
        with pytest.raises(ValidationError, match="u_star") as caught:
            call()
        assert caught.value.tag == "u_star"


def test_solved_records_always_carry_their_inputs(base_solution):
    # a solution needs the solve's params, measure, u* and cap besides its
    # columns, and a distortion side its solved strategy: none of them has a
    # default to fall back on
    s = base_solution
    columns = dict(grid=s.grid, B1=s.B1, B0=s.B0, b1_lo=s.b1_lo, b1_hi=s.b1_hi,
                   b0_lo=s.b0_lo, b0_hi=s.b0_hi)
    with pytest.raises(TypeError):
        EquilibriumSolution(**columns)
    with pytest.raises(TypeError):
        DistortionSide(sign=+1)
    for u_star in (None, -1.0, math.nan, math.inf, "0.3"):
        with pytest.raises(ValidationError) as caught:
            dataclasses.replace(s, u_star=u_star)
        assert caught.value.tag == "u_star"
    assert dataclasses.replace(s, u_star=np.float64(s.u_star)).u_star == s.u_star


def test_solutions_compare_and_hash_by_identity(base_params, base_measure, base_numerics,
                                                base_solution):
    # == of the array fields has no truth value: a record is equal to itself
    # only, and hashes, so it can key a dict or sit in a set
    again = solve_equilibrium(base_params, base_measure, base_numerics)
    assert base_solution == base_solution and not base_solution != base_solution
    assert (again == base_solution) is False and again != base_solution
    assert hash(base_solution) == hash(base_solution) and len({base_solution, again}) == 2
    dist = distortions(base_solution, base_params)
    assert dist.lo == distortions(base_solution, base_params).lo and dist.lo != dist.hi


@pytest.mark.parametrize("change", ["u_star", "params", "exp_cap", "grid"])
def test_a_replaced_input_rebuilds_every_column(base_params, base_measure, base_solution,
                                               change):
    # a record is its inputs: replacing one gives the columns of the new
    # inputs on the record's own grid, bit for bit, never the old solve's
    s = base_solution
    new = {"u_star": 2.0 * s.u_star, "exp_cap": 1e-3, "grid": 0.5 * s.grid,
           "params": dataclasses.replace(base_params, gamma=2.0, beta3=1.0)}[change]
    record = dataclasses.replace(s, **{change: new})
    want = _lane0(record.grid, record.params, base_measure, record.u_star, record.exp_cap)
    for name, column in zip(("B1", "b1_lo", "b1_hi", "B0", "b0_lo", "b0_hi"), want):
        assert np.array_equal(getattr(record, name), column), name
    for h, name in ((1, "B1"), (0, "B0")):
        assert np.array_equal(getattr(record, name), value_function(record.grid, 0.0, h, record))
    assert not np.array_equal(record.B1, s.B1)


def test_a_solve_makes_one_intercept_call(base_params, base_measure, base_numerics,
                                         monkeypatch):
    # the record builds its six columns in one closed-form call, and the
    # solve is the root plus the record
    calls, original = [], solver_mod._value_intercepts
    monkeypatch.setattr(solver_mod, "_value_intercepts",
                        lambda *args: calls.append(args) or original(*args))
    solution = solve_equilibrium(base_params, base_measure, base_numerics)
    assert len(calls) == 1 and calls[0][0] is solution.grid
    assert not hasattr(solver_mod, "_first_lane")


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


def test_newton_returns_an_exact_zero_at_its_start():
    # f = 0 exactly at the start point ends the lane there, with no step taken
    class ZeroAtStart:
        def __call__(self, u):
            return np.zeros_like(u), -np.ones_like(u)

        def take(self, lanes):
            return self

    failures = {}
    root = solver_mod._newton_root(ZeroAtStart(), np.array([0.75, 3.0]),
                                   np.array([1.5, 6.0]), failures)
    assert root.tolist() == [0.75, 3.0] and failures == {}


def test_saturation_warning_not_error(base_params, base_measure):
    # pi = 200 pushes beta3 E beyond the cap while the clipped product stays finite
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = reinsurance_foc(0.0, 200.0, base_params, base_measure)
    assert any(issubclass(w.category, SaturationWarning) for w in caught)
    assert np.isfinite(value) and value < 0.0


def test_saturation_warned_only_at_the_root():
    # Newton's first iterate u0 = eta m1 / (gamma m2) saturates beta3 E, the
    # root does not: max beta3 E at u* is 1.24, so no warning
    params, claims, numerics = load_config(BASE_CFG)
    params = dataclasses.replace(params, gamma=0.02, beta3=9.0, alpha=0.9)
    measure = build_measure(dataclasses.replace(claims, lam=0.3, muZ=0.8, sigmaZ=2.1), 32)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u = solve_pi_q_star(params.T, params, measure, numerics.root_tol, numerics.exp_cap)
    uz = u * measure.nodes
    assert params.beta3 * np.max(uz + 0.5 * params.gamma * uz ** 2) < 1.25
    u0 = params.eta * measure.moment(1) / (params.gamma * measure.moment(2))
    uz = u0 * measure.nodes
    assert params.beta3 * np.max(uz + 0.5 * params.gamma * uz ** 2) > numerics.exp_cap
    # where the exponent does saturate at the root, the root call says so
    with pytest.warns(SaturationWarning):
        solve_pi_q_star(params.T, params, measure, numerics.root_tol, exp_cap=1.0)


def test_saturation_warned_once_per_saturating_solve():
    # exp_cap = 0.05 saturates beta3 E at u* on base.cfg: the root solve says
    # so once; the intercepts, value_function and an intercept sweep's lanes
    # clip at the same cap without warning again
    params, claims, numerics = load_config(BASE_CFG)
    numerics = dataclasses.replace(numerics, exp_cap=0.05)
    measure = build_measure(claims, numerics.quad_nodes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solution = solve_equilibrium(params, measure, numerics)
        assert [w.category for w in caught] == [SaturationWarning]
        for h in (0, 1):
            value_function(0.0, params.x0, h, solution.coeffs)
        assert len(caught) == 1
        spec = SweepSpec.from_range("alpha", 0.6, 0.9, 3, "B0_0")
        assert all(row.status == "ok" for row in run_sweep(params, claims, numerics, spec).rows)
        assert [w.category for w in caught] == [SaturationWarning] * 2


def test_distortions_clip_at_the_cap_of_the_solve():
    # base.cfg solved at exp_cap = 0.05, where the lo tilt unclipped reaches
    # |phi3| 0.0736: the distortions clip at the cap of the solve
    params, claims, numerics = load_config(BASE_CFG)
    numerics = dataclasses.replace(numerics, exp_cap=0.05)
    measure = build_measure(claims, numerics.quad_nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        solution = solve_equilibrium(params, measure, numerics)
    dist = distortions(solution, params)
    assert dist.lo.exp_cap == dist.hi.exp_cap == 0.05
    assert np.max(np.abs(dist.lo.phi3(0.0, measure.nodes))) == np.expm1(0.05)


@pytest.mark.parametrize("rows", [1, 2])
def test_lane_calls_need_one_table_row_per_lane(base_params, base_claims, base_measure,
                                                base_solution, rows):
    # three lanes on fewer rows: a typed error, not NaN lanes or a broadcast error
    tables, _ = build_claim_tables([base_claims] * rows, base_measure.nodes.size)
    lanes = [base_params] * 3
    for call in (lambda: solve_pi_q_lanes([0.0], lanes, tables),
                 lambda: _value_intercepts(0.0, lanes, tables, [base_solution.u_star] * 3,
                                           700.0)):
        with pytest.raises(ValidationError, match=f"got {rows} rows for 3 lanes") as caught:
            call()
        assert caught.value.tag == "lanes"
    # a (lanes, times) table of times with another row count: the same typed error
    tables, _ = build_claim_tables([base_claims] * 3, base_measure.nodes.size)
    with pytest.raises(ValidationError, match=f"got {rows} rows of times for 3 lanes") as caught:
        solve_pi_q_lanes([[0.0, 1.0]] * rows, lanes, tables)
    assert caught.value.tag == "lanes"


def test_solution_reads_u_star_and_params_from_its_coefficients(base_measure, base_solution):
    # one record per solve: the one copy of each solve input, and the
    # intercepts on its grid built from them, never given; no strategy
    # column, its coeffs is itself, and a distortion side holds no cap of its own
    fields = dataclasses.fields(EquilibriumSolution)
    assert [f.name for f in fields if f.init] == [
        "grid", "params", "measure", "u_star", "exp_cap"]
    assert [f.name for f in fields if not f.init] == [
        "B1", "b1_lo", "b1_hi", "B0", "b0_lo", "b0_hi"]
    for column in ("B1", "b0_hi"):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(base_solution, **{column: getattr(base_solution, column)})
    assert base_solution.coeffs is base_solution
    assert "exp_cap" not in [f.name for f in dataclasses.fields(DistortionSide)]
    assert ClaimTables._fields == ("specs", "nodes", "probs")
    assert "exp_cap" not in inspect.signature(distortions).parameters
    assert not hasattr(alphamv, "ValueCoefficients")
    assert not hasattr(solver_mod, "ValueCoefficients")
    dist = distortions(base_solution, base_solution.params)
    for side in (dist.lo, dist.hi):
        assert side.coeffs is base_solution and side.exp_cap == base_solution.exp_cap
    with pytest.raises(TypeError):
        dataclasses.replace(base_solution, coeffs=base_solution)
    with pytest.raises(TypeError):
        dataclasses.replace(base_solution, pi_q=1.001 * base_solution.pi_q)
    grid = base_solution.grid
    for column, at in (("pi_q", base_solution.pi_q_at), ("pi_s", base_solution.pi_s_at),
                       ("pi_p", base_solution.pi_p_at)):
        assert np.array_equal(getattr(base_solution, column), at(grid))
    # u* / A(t) rounds as the root solve's own column does, bit for bit
    assert np.array_equal(base_solution.pi_q,
                          solve_pi_q_grid(grid, base_solution.params, base_measure))


def test_bracket_expansion_failure_signals_pathology(base_measure):
    # gamma ~ 0 pushes the beta3 -> 0 root u0 = eta m1 / (gamma m2) beyond 2^59
    params = ModelParams(**{**BASE_KWARGS, "gamma": 1e-300, "beta3": 1e-300})
    with pytest.raises(NumericalError, match="bracket"):
        _bracket_hi(0.0, params, base_measure)


def test_underflowed_measure_gives_typed_bracket_error(base_params, base_claims,
                                                       base_measure):
    # a measure whose weights all underflowed: u0 = eta m1 / (gamma m2) is 0/0,
    # which every u0 route reports as a bracket error, not a ZeroDivisionError
    measure = ClaimMeasure(base_claims, base_measure.nodes, np.zeros(base_measure.nodes.size))
    message = r"u0 = eta m1 / \(gamma m2\) = nan is not finite"
    for call in (lambda: _bracket_hi(0.0, base_params, measure),
                 lambda: scan_foc_sign_changes([0.0], base_params, measure)):
        with pytest.raises(NumericalError, match=message):
            call()
    _, errors = solve_pi_q_lanes([0.0], [base_params], measure.tables)
    with pytest.raises(NumericalError, match=message):
        raise errors[0]


def test_narrow_claim_law_is_the_point_mass_at_muZ(base_params, base_claims):
    # sigmaZ = 5e-30: the support muZ +- 8 sigmaZ rounds to the one point
    # muZ, and the root is that of the point-mass equation
    # lam ((1 + eta) z - (z + gamma u z^2)(alpha e^{beta3 E} + alpha_hat e^{-beta3 E})) = 0
    mpmath = pytest.importorskip("mpmath")
    claims = dataclasses.replace(base_claims, lam=1.3, sigmaZ=5e-30)
    measure = build_measure(claims, 64)
    assert np.all(measure.nodes == claims.muZ)
    assert measure.moment(0) == pytest.approx(claims.lam, rel=1e-15, abs=0)
    p = base_params
    with mpmath.workdps(40):
        z, gamma, beta3 = mpmath.mpf(claims.muZ), mpmath.mpf(p.gamma), mpmath.mpf(p.beta3)

        def f(u):
            E = u * z + gamma / 2 * u * u * z * z
            mix = p.alpha * mpmath.exp(beta3 * E) + (1 - p.alpha) * mpmath.exp(-beta3 * E)
            return (1 + p.eta) * z - (z + gamma * u * z * z) * mix

        want = float(mpmath.findroot(f, (0, p.eta / (p.gamma * claims.muZ)),
                                     solver="anderson"))
    assert solve_pi_q_star(p.T, p, measure) == pytest.approx(want, rel=1e-14, abs=0)


# the 3,000-config probe's first root past the edge: u* = 32.13 against
# u_c = 1/(sigmaZ sqrt(beta3 gamma)) = 29.12 (the probe's values, rounded)
EDGE_MODEL = {"beta3": 0.1933, "gamma": 0.4671, "eta": 6.063}
EDGE_CLAIMS = {"muZ": -0.3196, "sigmaZ": 0.1143}


def test_root_past_the_integrability_edge_raises():
    params, claims, numerics = load_config(BASE_CFG)
    params = dataclasses.replace(params, **EDGE_MODEL)
    measure = build_measure(dataclasses.replace(claims, **EDGE_CLAIMS), numerics.quad_nodes)
    u_c = 1.0 / (EDGE_CLAIMS["sigmaZ"] * math.sqrt(params.beta3 * params.gamma))
    assert 29.11 < u_c < 29.12
    assert reinsurance_foc(params.T, u_c, params, measure) > 0
    message = r"Assumption 3\.1 fails: .* u_c = 1/\(sigmaZ sqrt\(beta3 gamma\)\) = 29\.116"
    for call in (lambda: solve_pi_q_star(params.T, params, measure),
                 lambda: solve_equilibrium(params, measure, numerics)):
        with pytest.raises(NumericalError, match=message):
            call()
    # the bracket and the sign scan end at the edge, where 2 u0 lies beyond it
    assert 2.0 * params.eta * measure.moment(1) / (params.gamma * measure.moment(2)) > u_c
    assert _bracket_hi(params.T, params, measure) == pytest.approx(u_c, rel=1e-15)
    assert scan_foc_sign_changes([0.0], params, measure).tolist() == [0]


@functools.cache
def _edge_draw():
    """ROADMAP item 1's draw (beta3 log-uniform on [1e-2, 1e3], gamma on
    [1e-3, 10], eta - 0.1 on [1e-2, 10], sigmaZ on [0.1, 5], muZ uniform on
    [-1, 2]) as lanes of one root solve: ``(lanes, tables, numerics, pi_q at
    T, errors)``."""
    params, claims, numerics = load_config(BASE_CFG)
    rng = np.random.default_rng(7)
    n = 3000
    beta3, gamma = 10.0 ** rng.uniform(-2, 3, n), 10.0 ** rng.uniform(-3, 1, n)
    eta, muZ = 0.1 + 10.0 ** rng.uniform(-2, 1, n), rng.uniform(-1, 2, n)
    sigmaZ = 10.0 ** rng.uniform(-1, math.log10(5), n)
    lanes = [dataclasses.replace(params, beta3=b, gamma=g, eta=e)
             for b, g, e in zip(beta3, gamma, eta)]
    tables, build_errors = build_claim_tables(
        [dataclasses.replace(claims, muZ=m, sigmaZ=s) for m, s in zip(muZ, sigmaZ)],
        numerics.quad_nodes)
    assert build_errors == [None] * n
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        pi_q, errors = solve_pi_q_lanes(params.T, lanes, tables, numerics.root_tol,
                                        numerics.exp_cap)
    return lanes, tables, numerics, pi_q[:, 0], errors


def test_every_solved_root_lies_below_the_integrability_edge():
    # every lane solves below its edge u_c or carries the Assumption 3.1 error
    # (some lanes solved past u_c before)
    lanes, tables, _, u_star, errors = _edge_draw()
    solved = np.array([error is None for error in errors])
    edge = [k for k, error in enumerate(errors) if error is not None]
    assert all("Assumption 3.1" in str(errors[k]) for k in edge) and edge
    u_c = np.array([1.0 / (s.sigmaZ * math.sqrt(p.beta3 * p.gamma))
                    for p, s in zip(lanes, tables.specs)])
    assert np.all(u_star[solved] < u_c[solved])


def test_drawn_roots_match_bisection_of_the_per_node_foc():
    # the moment form's roots against bisection of the fused per-node f on
    # each solved lane's bracket [0, min(2 u0, u_c)], to adjacent floats
    lanes, tables, numerics, u_star, errors = _edge_draw()
    solved = [k for k, error in enumerate(errors) if error is None]
    measures = [ClaimMeasure(tables.specs[k], tables.nodes[k], tables.probs[k]) for k in solved]
    lo = np.zeros(len(solved))
    hi = np.array([_bracket_hi(lanes[k].T, lanes[k], m) for k, m in zip(solved, measures)])
    z, p = tables.nodes[solved], tables.probs[solved]
    gamma, beta3, alpha, eta = (np.array([getattr(lanes[k], name) for k in solved])[:, None]
                                for name in ("gamma", "beta3", "alpha", "eta"))
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        f = _foc_per_node(mid[:, None], gamma, beta3, alpha, eta, z, p, numerics.exp_cap)
        lo, hi = np.where(f > 0, mid, lo), np.where(f > 0, hi, mid)
    assert np.all(np.abs(u_star[solved] - lo) <= 2.0 * solver_mod._ROOT_RTOL * lo)


def test_zero_lanes_give_an_empty_table(base_measure):
    pi_q, errors = solve_pi_q_lanes([0.0, 5.0], [], base_measure.tables.take([]))
    assert pi_q.shape == (0, 2) and errors == []


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
    assert base_solution.params.discount_to_horizon(base_solution.grid[-1]) == 1.0


def test_discount_coefficient_matches_exponential(base_params, base_solution):
    # pi_q_at and value_function read A(t) off the parameters
    A = np.exp(base_params.r * (base_params.T - base_solution.grid))
    assert np.array_equal(base_params.discount_to_horizon(base_solution.grid), A)
    assert np.array_equal(base_solution.pi_q_at(base_solution.grid), base_solution.u_star / A)


def test_b1_lo_below_b1_hi(base_solution):
    # the integrands differ by sign-definite beta1/beta2 terms
    assert np.all(base_solution.coeffs.b1_lo <= base_solution.coeffs.b1_hi + 1e-15)


def test_pre_default_terminal_bond_amount(base_params, base_solution):
    pi_p, B0, b0_lo, b0_hi = pre_default_system(base_solution, 200)
    p = base_params
    hand = (p.delta - p.zeta * p.hP) / (p.gamma * p.zeta ** 2 * p.hP)
    assert pi_p[-1] == pytest.approx(hand, rel=1e-12)
    assert B0[-1] == 0.0 and b0_lo[-1] == 0.0 and b0_hi[-1] == 0.0


def test_pre_default_bond_amount_zero_at_fair_spread(base_measure):
    # delta = zeta hP kills the excess drift; terminal demand is zero
    params = ModelParams(**{**BASE_KWARGS, "delta": 0.001})
    pi_p, _, _, _ = _rk4(params, base_measure, 100)
    assert pi_p[-1] == pytest.approx(0.0, abs=1e-12)


def _with_params(solution, params):
    """The record of ``solution``'s grid, measure, u* and cap at ``params``: new columns."""
    return dataclasses.replace(solution, params=params)


def test_pre_default_unbounded_demand_errors(base_solution):
    # no solution record carries parameters with no finite bond demand: the
    # record raises as it builds its intercepts, so RK4 never sees them
    for overrides in ({"hP": 0.0, "delta": 0.01}, {"zeta": 0.0, "delta": 0.0}):
        params = ModelParams(**{**BASE_KWARGS, **overrides})
        with pytest.raises(NumericalError, match="unbounded"):
            _with_params(base_solution, params)
        with pytest.raises(NumericalError, match="unbounded"):
            pi_p_star(0.0, params)


@pytest.mark.parametrize("zeta", [0.0, 5e-324, 1e-310, 1e-154])
def test_unrepresentable_bond_demand_raises_typed_error(base_measure, base_numerics,
                                                        base_solution, zeta):
    # gamma zeta^2 hP underflows to 0 (or is 0), or pi_p(T) = n0/(gamma zeta^2
    # hP) or (delta/zeta) T overflows: a typed error before any float warning
    params = ModelParams(**{**BASE_KWARGS, "zeta": zeta})
    calls = (lambda: pi_p_star(0.0, params),
             lambda: solve_equilibrium(params, base_measure, base_numerics),
             lambda: _with_params(base_solution, params),
             lambda: solver_mod.rk4_stable_steps(params))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in calls:
            with pytest.raises(NumericalError, match="bond demand"):
                call()


def test_overflowing_intercepts_raise_typed_error(base_measure, base_numerics):
    # the bond demand is finite, but B0 = B1 - c (...) with c = n0^2/(gamma
    # zeta^2 hP) overflows: the closed form's finiteness check, not a warning
    params = ModelParams(**{**BASE_KWARGS, "zeta": 7e-153, "delta": 5.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert math.isfinite(pi_p_star(params.T, params))
        with pytest.raises(NumericalError, match="value coefficients are not finite"):
            solve_equilibrium(params, base_measure, base_numerics)


def test_small_representable_zeta_still_solves(base_measure, base_numerics):
    # zeta = 1e-150: pi_p(T) = n0/(gamma zeta^2 hP) is about 1e301, still finite
    params = ModelParams(**{**BASE_KWARGS, "zeta": 1e-150})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        solution = solve_equilibrium(params, base_measure, base_numerics)
    c = solution.coeffs
    for column in (solution.pi_p, c.B1, c.B0, c.b1_lo, c.b1_hi, c.b0_lo, c.b0_hi):
        assert np.all(np.isfinite(column))
    n0 = params.bond_excess_drift
    assert solution.pi_p[-1] == pytest.approx(
        n0 / (params.gamma * params.zeta ** 2 * params.hP), rel=1e-14)


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
    solution = solve_equilibrium(params, base_measure, NumericsConfig())
    errors = []
    for m in (40, 80, 160):
        grid = np.linspace(0.0, params.T, m + 1)
        pi_p, _, _, _ = pre_default_system(solution, m)
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
    pi_p, _, _, _ = _rk4(params, base_measure, steps)
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


def test_rk4_order_on_grid_halving(base_solution):
    values = {}
    for m in (40, 80, 160):
        _, B0, _, _ = pre_default_system(base_solution, m)
        values[m] = B0[0]
    d1 = abs(values[40] - values[80])
    d2 = abs(values[80] - values[160])
    assert math.log2(d1 / d2) >= 3.5


def test_unstable_backward_step_raises(base_measure):
    # delta/zeta = 1000 and step 0.01 put the fastest pre-default mode far past
    # RK4's stability limit, where the sweep would overflow into NaN
    solution = solve_equilibrium(ModelParams(**{**BASE_KWARGS, "zeta": 1e-5}), base_measure,
                                 NumericsConfig())
    with pytest.raises(NumericalError, match=r"rate 1000 times step 0\.01 .*time_steps >= 3591"):
        pre_default_system(solution, 1000)
    columns = pre_default_system(solution, 3591)
    assert all(np.all(np.isfinite(col)) for col in columns)


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
    z = base_measure.nodes
    for k in ks:
        t = grid[k]
        A = p.discount_to_horizon(t)
        pi_q, pi_s, pi_p = sol.pi_q[k], sol.pi_s[k], sol.pi_p[k]
        I_plus = base_measure.weights @ (z * (1.0 - dist.lo.phi3(t, z)))
        f1 = ((p.theta - p.eta + (1 + p.eta) * pi_q) * A * m1
              - p.beta1 * p.sigma1 ** 2 * A ** 2
              + ((p.mu - p.r) * A - 2 * p.beta1 * p.sigma1 * p.sigma2 * p.rho * A ** 2) * pi_s
              - p.sigma2 ** 2 * A ** 2 * (p.beta1 * p.rho ** 2 + p.beta2 * p.rho_hat ** 2) * pi_s ** 2
              - pi_q * A * I_plus)
        f0 = f1 + pi_p * p.delta * A + p.hP * (-p.zeta * pi_p * A + c.b1_lo[k])
        derivative = (c.b0_lo[k + 1] - c.b0_lo[k - 1]) / (2 * h)
        residual = derivative - p.hP * c.b0_lo[k] + f0
        assert abs(residual) <= 50.0 * h ** 2


def test_reference_intercepts_beta_independent(base_params, base_measure, base_solution,
                                               base_numerics):
    # under the reference measure the ambiguity levels enter only through the
    # strategy: beta3 moves neither pi_s nor the u* the coefficients hold; at
    # alpha = 1/2, where (2 alpha - 1) = 0, the stock amount does not read
    # beta1 or beta2, so bumping them moves no reference intercept either
    tilted = dataclasses.replace(base_params, beta3=0.3)
    half = dataclasses.replace(base_params, alpha=0.5)
    bumped = dataclasses.replace(half, beta1=2.5, beta2=0.7, beta3=0.3)
    pairs = [(reference_mean_intercepts(a, base_measure, _with_params(base_solution, a)),
              reference_mean_intercepts(b, base_measure, _with_params(base_solution, b)))
             for a, b in ((base_params, tilted), (half, bumped))]
    for (b1_ref, b0_ref), (b1, b0) in pairs:
        assert np.allclose(b1_ref, b1, rtol=0, atol=1e-12)
        assert np.allclose(b0_ref, b0, rtol=0, atol=1e-12)


def test_reference_intercept_gap_matches_closed_form():
    # with every beta zero and pi_p pinned by its closed form, the gap
    # D = b1_ref - b0_ref solves D' = k D + c from D(T) = 0, so
    # D = (c/k) expm1(-k (T - t)); a pi_p interpolated at the RK4 half-step
    # stages would leave an O(h^2) error here
    params, claims, numerics = load_config(BASE_CFG)
    measure = build_measure(claims, numerics.quad_nodes)
    solution = solve_equilibrium(params, measure, numerics)
    b1_ref, b0_ref = reference_mean_intercepts(params, measure, solution, numerics.exp_cap)
    n0, zeta, hP = params.bond_excess_drift, params.zeta, params.hP
    k = params.delta / zeta
    c = n0 ** 2 / (params.gamma * zeta ** 2 * hP)
    D = (c / k) * np.expm1(-k * (params.T - solution.grid))
    assert np.max(np.abs(b1_ref - b0_ref - D)) <= 1e-12 * np.max(np.abs(D))


def test_reference_intercept_closed_form_post_default(base_params, base_measure, base_solution):
    # with the strategy fixed, the post-default reference intercept is the
    # plain integral of A(s) [(mu-r) pi_s + (theta - eta + eta pi_q) m1]
    p = base_params
    b1_ref, _ = reference_mean_intercepts(p, base_measure, base_solution)
    fine = np.linspace(0.0, p.T, 2001)
    A = np.exp(p.r * (p.T - fine))
    m1 = base_measure.moment(1)
    integrand = A * ((p.mu - p.r) * base_solution.pi_s_at(fine)
                     + (p.theta - p.eta + p.eta * base_solution.pi_q_at(fine)) * m1)
    from scipy.integrate import simpson
    expected = simpson(integrand, x=fine)
    assert b1_ref[0] == pytest.approx(expected, rel=1e-9)


def _closed_form_pre_default(params, measure, steps):
    """pi_p, B0, b0_lo, b0_hi of the closed-form solve on a grid of ``steps`` steps."""
    numerics = dataclasses.replace(load_config(BASE_CFG)[2], time_steps=steps)
    solution = solve_equilibrium(params, measure, numerics)
    c = solution.coeffs
    return solution.pi_p, c.B0, c.b0_lo, c.b0_hi


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(**{k: v for k, v in _FOC_PARAMS.items() if k != "frac"},
       zeta=st.floats(0.01, 1.0), hP=st.floats(1e-4, 0.2),
       kh=st.floats(0.1, 0.8), steps=st.integers(8, 40))
def test_rk4_route_converges_to_closed_form_at_order_4(base_measure, alpha, gamma, eta,
                                                       beta3, zeta, hP, kh, steps):
    # the bond-gap mode k = delta/zeta takes k h = kh on the coarsest grid, so
    # RK4's error stands far above rounding on all three grids; n0/delta >= 1/2
    k = kh * steps / BASE_KWARGS["T"]
    assume(k >= 2.0 * hP)
    params = ModelParams(**{**BASE_KWARGS, "alpha": alpha, "gamma": gamma, "eta": eta,
                            "beta3": beta3, "zeta": zeta, "hP": hP, "delta": k * zeta})
    want = _closed_form_pre_default(params, base_measure, steps)
    solution = solve_equilibrium(params, base_measure, NumericsConfig())
    errors = []
    for m in (steps, 2 * steps, 4 * steps):
        got = pre_default_system(solution, m)
        errors.append([np.max(np.abs(g[::m // steps] - w)) for g, w in zip(got, want)])
    errors = np.array(errors)                  # (grid, column): pi_p, B0, b0_lo, b0_hi
    assert np.all(np.log2(errors[:-1] / errors[1:]) >= 3.5)


def _mp_gap_and_default_mode(t, params):
    """``D = b1 - b0`` and ``M = B1 - B0`` of the closed form, in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        delta, zeta, hP, gamma, T = (mpmath.mpf(v) for v in (
            params.delta, params.zeta, params.hP, params.gamma, params.T))
        tau = T - mpmath.mpf(t)
        n0 = delta - zeta * hP
        c, k, q = n0 ** 2 / (gamma * zeta ** 2 * hP), delta / zeta, n0 / zeta
        D = c / k * (mpmath.exp(-k * tau) - 1)
        M = -c * ((mpmath.mpf(1) / 2 - n0 / delta) * -mpmath.expm1(-hP * tau) / hP
                  + n0 / delta * mpmath.exp(-hP * tau) * -mpmath.expm1(-q * tau) / q)
        return float(D), float(M)


@pytest.mark.parametrize("zeta", [6e-5, 2e-4, 1e-5])
def test_stiff_bond_mode_matches_40_digit_closed_form(base_measure, zeta):
    # zeta = 6e-5 gives k h = 1.67 at 1000 steps, where backward RK4 left pi_p
    # 44% off and b0 off by 1.4e4 (of 1.7e5) at t = 9.99, and zeta = 1e-5 is
    # past RK4's stability limit; the closed form keeps every column to
    # rounding, with no stability limit
    params = ModelParams(**{**BASE_KWARGS, "zeta": zeta})
    numerics = dataclasses.replace(load_config(BASE_CFG)[2], time_steps=1000)
    solution = solve_equilibrium(params, base_measure, numerics)
    c = solution.coeffs
    rows = [0, 500, 990, 999, 1000]
    ts = solution.grid[rows]
    D, M = np.array([_mp_gap_and_default_mode(t, params) for t in ts]).T
    pi_p = np.array([_mp_pi_p(t, params) for t in ts])
    scale = np.max(np.abs(D))
    for got in (c.b1_lo - c.b0_lo, c.b1_hi - c.b0_hi):
        assert np.all(np.abs(got[rows] - D) <= 1e-13 * scale)
    assert np.all(np.abs((c.B1 - c.B0)[rows] - M) <= 1e-13 * np.max(np.abs(M)))
    assert np.all(np.abs(solution.pi_p[rows] - pi_p) <= 1e-13 * np.abs(pi_p))


def _symbolic_intercepts(sp, kw, t):
    """The closed-form intercepts and the backward system, in exact arithmetic.

    ``kw`` maps every model key to a sympy Rational.  The claim integrals at
    u* stay symbols.  Returns ``(symbols, system)``: ``symbols`` is ``(u, m1,
    I+, I-, KB)``, and ``system`` pairs each intercept (B1, b1_lo, b1_hi, B0,
    b0_lo, b0_hi) with its right-hand side dy/dt.  In the system pi_p is
    eliminated through its first-order condition.  The post-default
    intercepts are sympy's own integrals of their integrands; the
    pre-default ones are the closed form of ``_value_intercepts``.
    """
    u, m1, Ip, Im, KB = sp.symbols("u m1 Ip Im KB", real=True)
    s = sp.Symbol("s", real=True)
    r, T, gamma, a = kw["r"], kw["T"], kw["gamma"], kw["alpha"]
    s1, s2, rho, b1, b2 = kw["sigma1"], kw["sigma2"], kw["rho"], kw["beta1"], kw["beta2"]
    zeta, hP, delta = kw["zeta"], kw["hP"], kw["delta"]
    A = sp.exp(r * (T - t))
    two_a = 2 * a - 1
    cross = b1 * rho ** 2 + b2 * (1 - rho ** 2)
    pi_q = u / A
    pi_s = ((kw["mu"] - r) / A - s1 * s2 * rho * (gamma + two_a * b1)) \
        / (s2 ** 2 * (gamma + two_a * cross))
    common = (kw["theta"] - kw["eta"] + (1 + kw["eta"]) * pi_q) * A * m1
    sharpe = (kw["mu"] - r - s1 * s2 * rho * (gamma + two_a * b1) * A) ** 2 \
        / (2 * s2 ** 2 * (gamma + two_a * cross))
    fB1 = common - (gamma + two_a * b1) * s1 ** 2 * A ** 2 / 2 + sharpe + KB
    lin, tilt, quad = (kw["mu"] - r) * A, 2 * b1 * s1 * s2 * rho * A ** 2, s2 ** 2 * A ** 2 * cross
    f1_lo = common - b1 * s1 ** 2 * A ** 2 + (lin - tilt) * pi_s - quad * pi_s ** 2 - pi_q * A * Ip
    f1_hi = common + b1 * s1 ** 2 * A ** 2 + (lin + tilt) * pi_s + quad * pi_s ** 2 - pi_q * A * Im
    B1, b1_lo, b1_hi = (sp.integrate(sp.expand(f.subs(t, s)), (s, t, T))
                        for f in (fB1, f1_lo, f1_hi))

    n0, tau = delta - zeta * hP, T - t
    c, k = n0 ** 2 / (gamma * zeta ** 2 * hP), delta / zeta

    def tau_phi1(q):     # tau phi1(-q tau)
        return tau if q == 0 else (1 - sp.exp(-q * tau)) / q

    D = c / k * (sp.exp(-k * tau) - 1)
    B0 = B1 + c * ((sp.Rational(1, 2) - n0 / delta) * tau_phi1(hP)
                   + n0 / delta * sp.exp(-hP * tau) * tau_phi1(n0 / zeta))
    b0_lo, b0_hi = b1_lo - D, b1_hi - D

    gap = a * (b1_lo - b0_lo) + (1 - a) * (b1_hi - b0_hi)
    pi_p = (n0 + gamma * zeta * hP * gap) / (gamma * zeta ** 2 * hP * A)
    bond, lump = pi_p * delta * A, -zeta * pi_p * A
    fB0 = (fB1 + bond + hP * (lump + B1)
           - a * gamma * hP * (lump + b1_lo - b0_lo) ** 2 / 2
           - (1 - a) * gamma * hP * (lump + b1_hi - b0_hi) ** 2 / 2)
    system = [(B1, -fB1), (b1_lo, -f1_lo), (b1_hi, -f1_hi), (B0, hP * B0 - fB0),
              (b0_lo, hP * b0_lo - f1_lo - bond - hP * (lump + b1_lo)),
              (b0_hi, hP * b0_hi - f1_hi - bond - hP * (lump + b1_hi))]
    return (u, m1, Ip, Im, KB), system


@pytest.mark.parametrize("overrides", [
    {},
    {"delta": 0.001},                               # fair spread delta = zeta hP
    {"zeta": 0.05, "hP": 0.01, "alpha": 1.0},       # fast bond mode, alpha = 1
])
def test_closed_form_intercepts_solve_the_backward_system(base_measure, overrides):
    # exact: the closed form satisfies the six-equation backward system and
    # vanishes at T; numeric: the solver's columns are that closed form
    sp = pytest.importorskip("sympy")
    kw = {key: sp.Rational(str(value)) for key, value in {**BASE_KWARGS, **overrides}.items()}
    t = sp.Symbol("t", real=True)
    symbols, system = _symbolic_intercepts(sp, kw, t)
    for y, rhs in system:
        assert sp.expand(sp.diff(y, t) - rhs) == 0
        assert sp.expand(y.subs(t, kw["T"])) == 0

    params = ModelParams(**{**BASE_KWARGS, **overrides})
    numerics = dataclasses.replace(load_config(BASE_CFG)[2], time_steps=50)
    solution = solve_equilibrium(params, base_measure, numerics)
    u_star = solution.u_star
    values = (u_star, *_claim_integrals([u_star], [params.beta3], [params], base_measure.tables,
                                        numerics.exp_cap)[0])
    c = solution.coeffs
    for got, (y, _) in zip((c.B1, c.b1_lo, c.b1_hi, c.B0, c.b0_lo, c.b0_hi), system):
        y = y.subs(dict(zip(symbols, map(sp.Rational, values))))
        want = np.array([float(y.subs(t, sp.Rational(str(ti))).evalf(30))
                         for ti in solution.grid[::5]])
        assert np.max(np.abs(got[::5] - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# distortions, value function, penalty
# ---------------------------------------------------------------------------

def test_distortions_vanish_without_ambiguity(base_measure, base_numerics):
    params = ModelParams(**{**BASE_KWARGS, "beta1": 1e-8, "beta2": 1e-8, "beta3": 1e-8})
    solution = solve_equilibrium(params, base_measure, base_numerics)
    dist = distortions(solution, params)
    ts = np.linspace(0.0, params.T, 64)
    zs = np.linspace(0.8, 1.2, 64)
    assert np.max(np.abs(dist.lo.phi1(ts))) < 1e-6
    assert np.max(np.abs(dist.lo.phi2(ts))) < 1e-6
    assert np.max(np.abs(dist.lo.phi3(ts[:, None], zs[None, :]))) < 1e-6


def test_a_side_is_its_strategy_and_a_sign(base_params, base_measure, base_numerics,
                                           base_solution):
    # the extremal measures are fixed by the strategy and the side taken:
    # drift shifts, tilt, coefficients and cap are all read from the two
    assert [f.name for f in dataclasses.fields(DistortionSide)] == ["strategy", "sign"]
    c = base_solution.coeffs
    doubled = dataclasses.replace(base_solution, u_star=2.0 * c.u_star)
    p, u = base_params, 2.0 * c.u_star
    for sign in (1, -1):
        side = DistortionSide(doubled, sign)
        assert side.coeffs is doubled.coeffs and side.exp_cap == c.exp_cap
        assert side.tilt == (sign * p.beta3 * u, sign * 0.5 * p.beta3 * p.gamma * u * u)
    with pytest.raises(ValidationError, match="u_star") as caught:
        DistortionSide(ConstantStrategy(), 1)
    assert caught.value.tag == "u_star"
    # the drift shifts read the side's own strategy; the hi side is the lo
    # side negated, bit for bit
    dist = distortions(base_solution, base_params)
    grid = base_solution.grid

    class Scaled:
        coeffs = c
        pi_s_at = staticmethod(lambda t: 2.0 * base_solution.pi_s_at(t))

    assert np.array_equal(DistortionSide(Scaled(), 1).phi2(grid), 2.0 * dist.lo.phi2(grid))
    for phi in ("phi1", "phi2"):
        assert np.array_equal(getattr(dist.hi, phi)(grid), -getattr(dist.lo, phi)(grid))
    # no side takes a drift shift, tilt or coefficients apart from its
    # strategy: another solve's, or the other side's tilt, cannot be set
    q = dataclasses.replace(base_params, beta3=1.0, gamma=2.0)
    dq = distortions(solve_equilibrium(q, base_measure, base_numerics), q)
    for build in (lambda: DistortionSide(dq.lo.phi1, dq.lo.phi2, dq.lo.tilt, +1, c),
                  lambda: DistortionSide(dist.lo.phi1, dist.lo.phi2, dist.hi.tilt, +1, c),
                  lambda: dataclasses.replace(dist.lo, tilt=dist.hi.tilt),
                  lambda: dataclasses.replace(dist.lo, phi1=dq.lo.phi1),
                  lambda: dataclasses.replace(dist.lo, coeffs=dq.lo.coeffs)):
        with pytest.raises(TypeError):
            build()


def test_distortion_identities(base_params, base_solution):
    dist = distortions(base_solution, base_params)
    rng = np.random.default_rng(99)
    ts = rng.uniform(0.0, base_params.T, 10_000)
    zs = rng.uniform(0.5, 1.5, 10_000)
    assert np.max(np.abs(dist.hi.phi1(ts) + dist.lo.phi1(ts))) <= 1e-12
    assert np.max(np.abs(dist.hi.phi2(ts) + dist.lo.phi2(ts))) <= 1e-12
    product = (1.0 - dist.lo.phi3(ts, zs)) * (1.0 - dist.hi.phi3(ts, zs))
    assert np.max(np.abs(product - 1.0)) <= 1e-12


def _small_beta3_exponents():
    # beta3 = 1e-12 on base.cfg: exponents x = beta3 E of order 1e-11
    params, claims, numerics = load_config(BASE_CFG)
    params = dataclasses.replace(params, beta3=1e-12)
    numerics = dataclasses.replace(numerics, time_steps=200)
    measure = build_measure(claims, numerics.quad_nodes)
    solution = solve_equilibrium(params, measure, numerics)
    ts = np.linspace(0.0, params.T, 401)[:, None]
    z = measure.nodes[None, :]
    pqzA = solution.pi_q_at(ts) * z * params.discount_to_horizon(ts)
    x = params.beta3 * (pqzA + 0.5 * params.gamma * pqzA ** 2)
    return params, measure, distortions(solution, params), ts, z, x


def test_jump_distortion_accurate_at_small_beta3():
    _, _, dist, ts, z, x = _small_beta3_exponents()
    for phi3, xs in ((dist.lo.phi3, x), (dist.hi.phi3, -x)):
        series = -(xs + xs ** 2 / 2 + xs ** 3 / 6)          # 1 - e^{xs}
        assert np.max(np.abs(phi3(ts, z) / series - 1.0)) <= 1e-9


def test_penalty_entropy_accurate_at_small_beta3():
    params, measure, dist, ts, z, x = _small_beta3_exponents()
    zeros = np.zeros(ts.shape[0])
    for phi3, xs in ((dist.lo.phi3, x), (dist.hi.phi3, -x)):
        rate = penalty_rate(zeros, zeros, phi3(ts, z), params, measure)
        # q log q + phi3 with q = e^{xs}
        series = (xs ** 2 / 2 + xs ** 3 / 3 + xs ** 4 / 8) @ measure.weights / params.beta3
        assert np.max(np.abs(rate / series - 1.0)) <= 1e-9


def test_averse_measure_inflates_claim_intensity(base_params, base_solution):
    dist = distortions(base_solution, base_params)
    ts = np.linspace(0.0, base_params.T, 32)
    zs = np.linspace(0.7, 1.8, 16)
    assert np.all(1.0 - dist.lo.phi3(ts[:, None], zs[None, :]) >= 1.0)


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


@pytest.mark.parametrize("t", [math.nan, [1.0, math.nan]])
def test_value_function_rejects_a_nan_time(base_solution, t):
    with pytest.raises(ValidationError) as exc_info:
        value_function(t, 1.0, 1, base_solution.coeffs)
    assert exc_info.value.tag == "t_range"


def test_value_function_is_the_closed_form_at_any_time(base_params, base_measure,
                                                      base_numerics, base_solution):
    # linear interpolation of B_h between the 1000-step grid points was off
    # by up to 5.3e-7 in B0; the solution is its own coeffs, so either one
    # gives the same value bit for bit
    s = base_solution
    fine = np.linspace(0.0, base_params.T, 100_001)
    columns = _lane0(fine, base_params, base_measure, s.u_star, base_numerics.exp_cap)
    for h, want, stored in ((1, columns[0], s.B1), (0, columns[3], s.B0)):
        assert np.array_equal(value_function(fine, 0.0, h, s), want)
        assert np.array_equal(value_function(fine, 0.0, h, s.coeffs), want)
        assert np.array_equal(value_function(s.grid, 0.0, h, s), stored)
    with pytest.raises(ValidationError) as exc_info:
        value_function(1.0, 1.0, 0, dataclasses.replace(s, u_star=None))
    assert exc_info.value.tag == "u_star"


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
    rate_lo = penalty_rate(float(dist.lo.phi1(t)), float(dist.lo.phi2(t)),
                           dist.lo.phi3(t, z), base_params, base_measure)
    rate_hi = penalty_rate(float(dist.hi.phi1(t)), float(dist.hi.phi2(t)),
                           dist.hi.phi3(t, z), base_params, base_measure)
    def entropy(phi3):
        q = 1.0 - phi3
        return float((q * np.log(q) + phi3) @ base_measure.weights) / base_params.beta3
    assert rate_lo - rate_hi == pytest.approx(
        entropy(dist.lo.phi3(t, z)) - entropy(dist.hi.phi3(t, z)), rel=1e-12)
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
