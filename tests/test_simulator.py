"""Simulator oracles: exact limits, law checks, solver cross-checks, determinism."""

import dataclasses
import math

import numpy as np
import pytest

from alphamv.config import ClaimModelSpec, ModelParams, NumericsConfig
from alphamv.errors import NumericalError, ValidationError
from alphamv.levy import build_measure
from alphamv.simulate import (ConstantStrategy, _RunTables, alpha_robust_value,
                              bond_price_path, dump_paths_csv,
                              estimate_objective, simulate_terminal,
                              simulate_wealth)
from alphamv.solver import (DistortionSide, distortions, reference_mean_intercepts,
                            solve_equilibrium, strategy_distortions, value_function)

from conftest import BASE_KWARGS

# moderate scale for 3-SE checks: comfortably significant, seconds not minutes
N_PATHS = 20_000
DT = 5e-3


def test_riskless_compounding_limit(base_measure):
    # pi = 0 and sigma1 = 0 leave dX = r X dt (claims scale with pi_q and the
    # premium drift with lambda ~ 0): every path equals the exact solution
    params = ModelParams(**{**BASE_KWARGS, "sigma1": 0.0})
    claims = dataclasses.replace(base_measure.spec, lam=1e-12)
    measure = build_measure(claims, 64)
    x_T, _, _ = simulate_terminal(ConstantStrategy(), None, params, measure,
                                  n_paths=500, dt=1e-3, seed=3, h0=1)
    assert np.all(x_T == x_T[0])
    # closed form, including the O(lambda) premium drift
    growth = math.exp(params.r * params.T)
    drift = (params.theta - params.eta) * measure.moment(1)
    exact = params.x0 * growth + drift * (growth - 1.0) / params.r
    assert x_T[0] == pytest.approx(exact, rel=1e-12)


def test_discounted_drift_matches_surplus_coefficient(base_params, base_measure):
    # pi = (0, 0, 0): E[e^{-rT} X(T)] - x0 = (theta - eta) m1 (1 - e^{-rT})/r
    x_T, _, _ = simulate_terminal(ConstantStrategy(), None, base_params, base_measure,
                                  n_paths=N_PATHS, dt=DT, seed=17, h0=1)
    p = base_params
    m1 = base_measure.moment(1)
    expected = (p.theta - p.eta) * m1 * (1.0 - math.exp(-p.r * p.T)) / p.r
    discounted = math.exp(-p.r * p.T) * x_T
    se = discounted.std(ddof=1) / math.sqrt(x_T.size)
    assert abs(discounted.mean() - p.x0 - expected) <= 3 * se


def test_mean_matches_reference_intercepts(base_params, base_measure, base_solution):
    # no distortion: E[X(T)] = e^{rT} x0 + b_ref_h(0) with the intercepts from
    # the backward system evaluated at zero ambiguity
    b1_ref, b0_ref = reference_mean_intercepts(base_params, base_measure, base_solution)
    erT = math.exp(base_params.r * base_params.T)
    for h, b in ((1, b1_ref[0]), (0, b0_ref[0])):
        x_T, _, _ = simulate_terminal(base_solution, None, base_params, base_measure,
                                      n_paths=N_PATHS, dt=DT, seed=29 + h, h0=h)
        se = x_T.std(ddof=1) / math.sqrt(x_T.size)
        assert abs(x_T.mean() - (erT * base_params.x0 + b)) <= 3 * se


def test_distorted_mean_matches_g_intercepts(base_params, base_measure, base_solution):
    dist = distortions(base_solution, base_params)
    erT = math.exp(base_params.r * base_params.T)
    cases = [
        (dist.lo, 1, base_solution.coeffs.b1_lo[0]),
        (dist.lo, 0, base_solution.coeffs.b0_lo[0]),
        (dist.hi, 1, base_solution.coeffs.b1_hi[0]),
    ]
    for i, (side, h, b) in enumerate(cases):
        x_T, _, _ = simulate_terminal(base_solution, side, base_params, base_measure,
                                      n_paths=N_PATHS, dt=DT, seed=41 + i, h0=h)
        se = x_T.std(ddof=1) / math.sqrt(x_T.size)
        assert abs(x_T.mean() - (erT * base_params.x0 + b)) <= 3 * se


def test_distorted_claim_intensity(base_params, base_measure, base_solution):
    # realized claim counts under the averse measure match the time integral
    # of int (1 - phi3_lo) nu, which exceeds lambda T
    dist = distortions(base_solution, base_params)
    _, _, counts = simulate_terminal(base_solution, dist.lo, base_params, base_measure,
                                     n_paths=N_PATHS, dt=DT, seed=53, h0=1)
    ts = np.linspace(0.0, base_params.T, 4001)
    lam_tilde = (1.0 - dist.phi3_lo(ts[:, None], base_measure.nodes[None, :])) @ base_measure.weights
    from scipy.integrate import simpson
    expected = simpson(lam_tilde, x=ts)
    assert expected > base_params.T * base_measure.spec.lam
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - expected) <= 3 * se


def test_homogeneous_claims_match_thinning(base_params, base_measure, base_solution):
    # the equilibrium's constant tilt takes the homogeneous path (counts from
    # Poisson(Lambda T), amounts u* Z, no claim times); the same strategy
    # without u_star, under the same tilt returned as an array, takes the
    # thinning path (claim times, thinning, per-claim discounting).  Both
    # sample one law: x_T mean and variance and the claim count agree in 4 SE
    class HiddenUStar:
        pi_q_at = staticmethod(base_solution.pi_q_at)
        pi_s_at = staticmethod(base_solution.pi_s_at)
        pi_p_at = staticmethod(base_solution.pi_p_at)

    def as_array(tilt):
        return lambda t: tuple(np.full(np.shape(t), c) for c in tilt(t))

    dist = distortions(base_solution, base_params)
    n_paths = 20_000
    for i, side in enumerate((dist.lo, dist.hi)):
        varying = dataclasses.replace(side, tilt=as_array(side.tilt))
        samples = []
        for strategy, s in ((base_solution, side), (HiddenUStar(), varying)):
            tables = _RunTables(strategy, s, base_params, base_measure, 0.0, 0.05)
            assert tables.claim_intensity.ndim == (0 if s is side else 1)
            x_T, _, counts = simulate_terminal(strategy, s, base_params, base_measure,
                                               n_paths=n_paths, dt=0.05, seed=500 + i, h0=0)
            dev = x_T - x_T.mean()
            var = dev @ dev / (n_paths - 1)
            samples.append(((x_T.mean(), var / n_paths),
                            (var, (np.mean(dev ** 4) - var ** 2) / n_paths),
                            (counts.mean(), counts.var(ddof=1) / n_paths)))
        for (a, se2_a), (b, se2_b) in zip(*samples):
            assert abs(a - b) <= 4 * math.sqrt(se2_a + se2_b)


def _tabulated_claims():
    z = np.linspace(0.5, 1.5, 801)
    return ClaimModelSpec(lam=1.5, kind="tabulated-density", z_grid=z,
                          density=np.exp(-((z - 1.0) / 0.1) ** 2 / 2.0) * (2.0 - z))


@pytest.mark.parametrize("case", ["base", "claim-heavy", "tabulated"])
def test_distorted_sizes_and_counts_match_tilted_quadrature(case, base_params, base_claims):
    # under each extremal measure the claims are compound Poisson with
    # intensity int (1 - phi3) nu and sizes distributed as (1 - phi3) nu; the
    # sampled size moments and claim counts must match quadrature of that
    # tilted measure (claim-heavy: lambda 20, muZ 0.05, sigmaZ 0.01, beta3 2)
    params, claims, n_paths = base_params, base_claims, 20_000
    if case == "claim-heavy":
        params = dataclasses.replace(base_params, beta3=2.0)
        claims, n_paths = ClaimModelSpec(lam=20.0, muZ=0.05, sigmaZ=0.01), 1000
    elif case == "tabulated":
        claims = _tabulated_claims()
    measure = build_measure(claims, 64)
    solution = solve_equilibrium(params, measure, NumericsConfig(time_steps=200))
    dist = distortions(solution, params)
    for i, side in enumerate((dist.lo, dist.hi)):
        paths = simulate_wealth(solution, side, params, measure, n_paths=n_paths,
                                dt=params.T / 10, seed=400 + i, h0=1)
        sizes = np.array([z for path in paths for _, z in path.claim_log])
        counts = np.array([len(path.claim_log) for path in paths])
        tilted = measure.weights * (1.0 - side.phi3(0.0, measure.nodes))
        mass = tilted.sum()
        checks = ((sizes, tilted @ measure.nodes / mass),
                  (sizes ** 2, tilted @ measure.nodes ** 2 / mass),
                  (counts, params.T * mass))
        for sample, want in checks:
            assert abs(sample.mean() - want) <= 4 * sample.std(ddof=1) / math.sqrt(sample.size)


def test_claims_far_below_zero_mean_are_sampled(base_params):
    # muZ = -5 sigmaZ: plain rejection from the normal keeps 2.9e-7 of its
    # draws; the sampler switches to an exponential proposal and returns
    claims = ClaimModelSpec(lam=1.0, muZ=-0.5, sigmaZ=0.1)
    measure = build_measure(claims, 64)
    solution = solve_equilibrium(base_params, measure, NumericsConfig(time_steps=200))
    dist = distortions(solution, base_params)
    x_T, _, _ = simulate_terminal(solution, dist.lo, base_params, measure,
                                  n_paths=1000, dt=0.01, seed=3, h0=1)
    assert np.all(np.isfinite(x_T))
    paths = simulate_wealth(solution, None, base_params, measure,
                            n_paths=2000, dt=0.1, seed=4, h0=1)
    sizes = np.array([z for path in paths for _, z in path.claim_log])
    ratio = claims.muZ / claims.sigmaZ
    pdf = math.exp(-0.5 * ratio * ratio) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * math.erfc(-ratio / math.sqrt(2.0))
    expected = claims.muZ + claims.sigmaZ * pdf / cdf
    assert np.all(sizes > 0)
    assert abs(sizes.mean() - expected) <= 4 * sizes.std(ddof=1) / math.sqrt(sizes.size)


def test_reference_claim_count_poisson_oracle(base_params, base_measure, base_solution):
    # under the reference measure each path sees Poisson(lambda T) claims:
    # 1e5 paths carry 1e6 expected claims, whose total lies within 3 Poisson
    # SEs, 3e-3 relative
    n_paths = 100_000
    _, _, counts = simulate_terminal(base_solution, None, base_params, base_measure,
                                     n_paths=n_paths, dt=0.1, seed=7, h0=1)
    expected = base_measure.spec.lam * base_params.T * n_paths
    assert abs(counts.sum() / expected - 1.0) <= 3.0 / math.sqrt(expected)


def test_default_frequency(base_params, base_measure, base_solution):
    _, default_time, _ = simulate_terminal(base_solution, None, base_params, base_measure,
                                           n_paths=N_PATHS, dt=DT, seed=61, h0=0)
    frac = np.mean(~np.isnan(default_time))
    p_def = 1.0 - math.exp(-base_params.hP * base_params.T)
    se = math.sqrt(p_def * (1.0 - p_def) / default_time.size)
    assert abs(frac - p_def) <= 3 * se


def test_seed_determinism(base_params, base_measure, base_solution):
    dist = distortions(base_solution, base_params)
    a, ta, ca = simulate_terminal(base_solution, dist.lo, base_params, base_measure,
                                  n_paths=5000, dt=DT, seed=71, h0=0)
    b, tb, cb = simulate_terminal(base_solution, dist.lo, base_params, base_measure,
                                  n_paths=5000, dt=DT, seed=71, h0=0)
    assert np.array_equal(a, b)
    assert np.array_equal(ta, tb, equal_nan=True)
    assert np.array_equal(ca, cb)
    c, _, _ = simulate_terminal(base_solution, dist.lo, base_params, base_measure,
                                n_paths=5000, dt=DT, seed=72, h0=0)
    assert not np.array_equal(a, c)


def test_supercritical_size_tilt_raises(base_params, base_measure, base_solution):
    # exp(a z + b z^2) with 2b > 1/sigmaZ^2 leaves no normal law to complete
    # the square into; centred on muZ the exponent b((z - muZ)^2 - muZ^2) stays
    # between -60 and -21 on the quadrature nodes, so the intensity table is
    # harmless and only the sampler can catch it
    spec = base_measure.spec
    b = 0.6 / spec.sigmaZ ** 2
    side = DistortionSide(phi1=np.zeros_like, phi2=np.zeros_like,
                          tilt=lambda t: (-2.0 * b * spec.muZ, b), sign=1)
    with pytest.raises(NumericalError, match="2b >= 1/sigmaZ"):
        simulate_terminal(base_solution, side, base_params, base_measure,
                          n_paths=50, dt=0.1, seed=5, h0=1)


def test_strong_order_sanity(base_params, base_measure, base_solution):
    # halving dt moves the mean of X(T) by less than one MC standard error
    means = {}
    for dt in (4e-3, 2e-3):
        x_T, _, _ = simulate_terminal(base_solution, None, base_params, base_measure,
                                      n_paths=200_000, dt=dt, seed=83, h0=1)
        means[dt] = (x_T.mean(), x_T.std(ddof=1) / math.sqrt(x_T.size))
    assert abs(means[4e-3][0] - means[2e-3][0]) <= max(means[4e-3][1], means[2e-3][1])


def test_wealth_paths_bookkeeping(base_params, base_measure, base_solution):
    paths = simulate_wealth(base_solution, None, base_params, base_measure,
                            n_paths=50, dt=0.02, seed=97, h0=0)
    assert len(paths) == 50
    for path in paths:
        assert path.times[0] == 0.0 and path.times[-1] == pytest.approx(base_params.T)
        h = path.default_state.astype(int)
        assert np.all(np.diff(h) >= 0)
        if path.default_time is None:
            assert np.all(h == 0)
        else:
            assert 0.0 <= path.default_time <= base_params.T
            assert h[-1] == 1
        for t, z in path.claim_log:
            assert 0.0 <= t <= base_params.T and z > 0.0
    # terminal values agree with the unrecorded run bit for bit
    x_T, _, _ = simulate_terminal(base_solution, None, base_params, base_measure,
                                  n_paths=50, dt=0.02, seed=97, h0=0)
    assert np.array_equal(np.array([p.wealth[-1] for p in paths]), x_T)


def test_recorded_wealth_follows_exact_law(base_params, base_measure):
    # constant strategy, reference measure, coarsest grid allowed: X(t) has
    # mean x0 e^{rt} + c1 (e^{rt} - 1)/r and variance c2 (e^{2rt} - 1)/(2r)
    # both mid-path (bridge) and at T
    p = base_params
    pi_q, pi_s = 0.5, 1.0
    paths = simulate_wealth(ConstantStrategy(pi_q, pi_s, 0.0), None, p, base_measure,
                            n_paths=20_000, dt=p.T / 10, seed=13, h0=1)
    m1, m2 = base_measure.moment(1), base_measure.moment(2)
    c1 = (p.mu - p.r) * pi_s + (p.theta - p.eta + p.eta * pi_q) * m1
    c2 = ((p.sigma1 + pi_s * p.sigma2 * p.rho) ** 2 + (pi_s * p.sigma2 * p.rho_hat) ** 2
          + pi_q ** 2 * m2)
    wealth = np.array([path.wealth for path in paths])
    for k in (5, 10):
        t = paths[0].times[k]
        x = wealth[:, k]
        dev = x - x.mean()
        s2 = dev @ dev / (x.size - 1)
        mean = p.x0 * math.exp(p.r * t) + c1 * math.expm1(p.r * t) / p.r
        var = c2 * math.expm1(2.0 * p.r * t) / (2.0 * p.r)
        assert abs(x.mean() - mean) <= 3 * math.sqrt(s2 / x.size)
        assert abs(s2 - var) <= 3 * math.sqrt((np.mean(dev ** 4) - s2 ** 2) / x.size)


def test_path_dump_schema(tmp_path, base_params, base_measure, base_solution):
    paths = simulate_wealth(base_solution, None, base_params, base_measure,
                            n_paths=3, dt=0.5, seed=5, h0=0)
    out = tmp_path / "paths.csv"
    dump_paths_csv(paths, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "path_id,time,wealth,default_state"
    assert len(lines) == 1 + 3 * len(paths[0].times)
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    assert first[3] in ("0", "1")


def test_path_storage_guard(base_params, base_measure, base_solution):
    with pytest.raises(ValidationError, match="simulate_terminal"):
        simulate_wealth(base_solution, None, base_params, base_measure,
                        n_paths=300_000, dt=1e-3, seed=1, h0=1)


def test_dt_precondition(base_params, base_measure, base_solution):
    with pytest.raises(ValidationError, match="dt"):
        simulate_terminal(base_solution, None, base_params, base_measure,
                          n_paths=100, dt=2.0, seed=1, h0=1)


def test_bond_price_at_maturity_and_slope(base_params):
    assert bond_price_path(np.array([base_params.T1]), None, base_params)[0] == pytest.approx(1.0)
    # pre-default log-price slope is r + delta
    ts = np.linspace(0.0, 5.0, 501)
    prices = bond_price_path(ts, None, base_params)
    slopes = np.diff(np.log(prices)) / np.diff(ts)
    assert np.allclose(slopes, base_params.r + base_params.delta, rtol=1e-9)


def test_bond_price_default_jump(base_params):
    tau = 3.0
    eps = 1e-9
    before = bond_price_path(np.array([tau - eps]), tau, base_params)[0]
    after = bond_price_path(np.array([tau]), tau, base_params)[0]
    assert after / before - 1.0 == pytest.approx(-base_params.zeta, abs=1e-6)
    # after default the price grows at the risk-free rate
    ts = np.array([4.0, 4.5])
    p = bond_price_path(ts, tau, base_params)
    assert math.log(p[1] / p[0]) / 0.5 == pytest.approx(base_params.r, rel=1e-9)


def test_estimate_objective_deterministic_limit(base_measure):
    params = ModelParams(**{**BASE_KWARGS, "sigma1": 0.0, "gamma": 1e-12})
    claims = dataclasses.replace(base_measure.spec, lam=1e-12)
    measure = build_measure(claims, 64)
    est = estimate_objective(ConstantStrategy(), None, params, measure,
                             0.0, params.x0, 1, n_paths=200, dt=1e-3, seed=2)
    assert est.j_value == pytest.approx(params.x0 * math.exp(params.r * params.T), rel=1e-4)
    assert est.penalty == 0.0


def test_estimate_objective_rejects_tiny_samples(base_params, base_measure, base_solution):
    with pytest.raises(ValidationError, match="paths too few"):
        estimate_objective(base_solution, None, base_params, base_measure,
                           0.0, 1.0, 1, n_paths=99, dt=DT, seed=1)


def test_alpha_robust_value_matches_value_function(base_params, base_measure, base_solution):
    dist = distortions(base_solution, base_params)
    for h in (1, 0):
        value, se, _, _ = alpha_robust_value(base_solution, dist, base_params, base_measure,
                                             0.0, base_params.x0, h,
                                             n_paths=N_PATHS, dt=DT, seed=200 + h)
        target = value_function(0.0, base_params.x0, h, base_solution.coeffs)
        assert abs(value - target) <= 3 * se


def test_perturbed_strategy_does_not_beat_equilibrium(base_params, base_measure, base_solution):
    # spike deviation: pi_s scaled by 1.5 on [0, 0.5]; its alpha-robust value
    # (with its own extremal distortions) must not exceed the equilibrium value
    class Perturbed:
        def pi_q_at(self, t):
            return base_solution.pi_q_at(t)

        def pi_s_at(self, t):
            base = base_solution.pi_s_at(t)
            return np.where(np.asarray(t) < 0.5, 1.5 * base, base)

        def pi_p_at(self, t):
            return base_solution.pi_p_at(t)

    perturbed = Perturbed()
    fine = base_solution.fine_grid
    dist = strategy_distortions(fine, perturbed.pi_q_at(fine), perturbed.pi_s_at(fine),
                                base_params)
    value, se, _, _ = alpha_robust_value(perturbed, dist, base_params, base_measure,
                                         0.0, base_params.x0, 1,
                                         n_paths=N_PATHS, dt=DT, seed=300)
    equilibrium = value_function(0.0, base_params.x0, 1, base_solution.coeffs)
    assert value <= equilibrium + 3 * se
