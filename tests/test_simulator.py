"""Simulator oracles: exact limits, law checks, solver cross-checks, determinism."""

import dataclasses
import functools
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from alphamv.config import ClaimModelSpec, ModelParams, NumericsConfig
from alphamv.errors import NumericalError, ValidationError
from alphamv import levy as levy_mod, simulate as simulate_mod
from alphamv.levy import build_measure, sample_truncated_sizes
from alphamv.simulate import (ConstantStrategy, WealthPath, _RunTables, alpha_robust_value,
                              bond_price_path, dump_paths_csv, objective_from_terminal,
                              simulate_terminal, simulate_wealth)
from alphamv.solver import (DistortionFunctions, distortions, penalty_rate,
                            reference_mean_intercepts, solve_equilibrium, value_function)

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
    lam_tilde = (1.0 - dist.lo.phi3(ts[:, None], base_measure.nodes[None, :])) @ base_measure.weights
    from scipy.integrate import simpson
    expected = simpson(lam_tilde, x=ts)
    assert expected > base_params.T * base_measure.spec.lam
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - expected) <= 3 * se


class _HiddenUStar:
    """The equilibrium strategy without ``coeffs``: claims discounted one by one."""

    def __init__(self, solution):
        self.pi_q_at, self.pi_s_at, self.pi_p_at = (
            solution.pi_q_at, solution.pi_s_at, solution.pi_p_at)


class _StrayUStar(_HiddenUStar):
    """The same with a ``u_star`` attribute but no ``coeffs``: not a solved strategy."""

    def __init__(self, solution):
        super().__init__(solution)
        self.u_star = 2.0 * solution.u_star


def test_u_star_segment_sums_match_per_claim_discounting(base_params, base_measure,
                                                         base_solution):
    # under the same constant tilt and seed, the equilibrium (claim amounts
    # u* Z, no claim times) and the same strategy without coeffs (claim times
    # drawn after the terminal normal, amounts e^{r(T-s)} pi_q(s) Z) share
    # every draw X(T) reads, so they differ only by rounding; a u_star
    # attribute without coeffs does not select the u* Z path
    dist = distortions(base_solution, base_params)
    for i, side in enumerate((None, dist.lo, dist.hi)):
        runs = [simulate_terminal(strategy, side, base_params, base_measure,
                                  n_paths=20_000, dt=0.05, seed=500 + i, h0=0)
                for strategy in (base_solution, _HiddenUStar(base_solution),
                                 _StrayUStar(base_solution))]
        (x_T, default_time, counts), (ref_x, ref_default, ref_counts), stray = runs
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(stray, runs[1]))
        assert np.array_equal(counts, ref_counts) and counts.sum() > 0
        assert np.array_equal(default_time, ref_default, equal_nan=True)
        assert np.max(np.abs(x_T - ref_x)) <= 1e-13 * np.max(np.abs(x_T))


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


def _bincount_totals(values, counts):
    # per-claim reference for the segment sums: one path index per claim
    path = np.repeat(np.arange(counts.size), counts)
    return np.bincount(path, weights=values, minlength=counts.size)


def test_path_totals_match_per_claim_bincount():
    # empty first, last and middle paths, and a block with no claims at all
    rng = np.random.default_rng(5)
    # and every path filled, which takes one reduceat over all the starts
    for counts in ([0, 3, 0, 0, 2, 1, 0], [0, 2, 3, 0, 0], [4, 0, 1], [0, 0, 0], [0], [2],
                   [1, 3, 2, 1]):
        counts = np.array(counts)
        values = rng.standard_normal(int(counts.sum()))
        got = simulate_mod._path_totals(values, counts)
        assert np.allclose(got, _bincount_totals(values, counts), rtol=0, atol=1e-15)
        assert np.all(got[counts == 0] == 0.0)


@functools.cache
def _solved_at_intensity(lam):
    """The base equilibrium under claims of intensity ``lam``; lambda does not enter u*."""
    measure = build_measure(ClaimModelSpec(lam=lam, muZ=1.0, sigmaZ=0.1), 32)
    return solve_equilibrium(ModelParams(**BASE_KWARGS), measure, NumericsConfig(time_steps=200))


@pytest.mark.parametrize("case", ["u_star", "no_u_star", "sparse", "none"])
@pytest.mark.parametrize("h0", [0, 1])
def test_segment_sums_match_per_claim_bincount(case, h0, monkeypatch):
    # X(T) with each path's claims summed as one segment against the same
    # draws summed per claim by bincount: only the summation order differs
    solution = _solved_at_intensity({"sparse": 0.01, "none": 1e-9}.get(case, 2.0))
    params, measure = solution.params, solution.coeffs.measure
    side = distortions(solution, params).lo
    strategy = _HiddenUStar(solution) if case == "no_u_star" else solution
    # seeds whose sparse sample has empty first and last paths
    args = (strategy, side, params, measure, 3000, 0.05, 17 + h0)
    x_T, default_time, counts = simulate_terminal(*args, h0=h0)

    reference_totals = []
    def bincount_totals(values, counts):
        totals = _bincount_totals(values, counts)
        reference_totals.append(totals)
        return totals
    monkeypatch.setattr(simulate_mod, "_path_totals", bincount_totals)
    ref_x, ref_default, ref_counts = simulate_terminal(*args, h0=h0)

    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(default_time, ref_default, equal_nan=True)
    # the totals come chunk by chunk: the scale is that of every chunk's totals
    scale = max(1.0, *(float(np.max(np.abs(totals))) for totals in reference_totals))
    scale *= getattr(strategy, "u_star", None) or 1.0
    assert np.max(np.abs(x_T - ref_x)) <= 1e-13 * scale
    if case == "sparse":
        assert counts[0] == 0 and counts[-1] == 0 and counts.sum() > 0
    if case == "none":
        assert counts.sum() == 0


def _whole_block_terminal(strategy, side, params, measure, n_paths, dt, seed, states, totals):
    """X(T), default times and counts with each block's sizes drawn by one call.

    The draws of :func:`simulate_terminal` for a strategy with ``coeffs``,
    block by block: default times (with state 0), counts, every size of the
    block from one ``sample_truncated_sizes`` call, one normal per path; the
    claim totals are ``totals(sizes, counts)`` over the whole block.
    """
    tables = _RunTables(strategy, side, params, measure, 0.0, dt)
    times, T = tables.times, tables.times[-1]
    x_terminal, default_time, claim_count = [], [], []
    for block, lo in enumerate(range(0, n_paths, simulate_mod.BLOCK_SIZE)):
        n = min(simulate_mod.BLOCK_SIZE, n_paths - lo)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
        tau = np.full(n, np.inf if 0 in states else 0.0)
        jump, default = np.zeros(n), np.full(n, np.nan)
        if 0 in states:
            tau = rng.exponential(1.0 / params.hP, size=n)
            hit = tau <= T
            default[hit] = tau[hit]
            jump[hit] = params.zeta * np.exp(params.r * (T - tau[hit])) * strategy.pi_p_at(tau[hit])
        tau = np.minimum(tau, T)
        counts = rng.poisson(tables.claim_intensity * T, size=n)
        sizes = sample_truncated_sizes(measure.spec, int(counts.sum()), rng, *tables.tilt)
        z = rng.standard_normal(n)
        claims = tables.u_star * totals(sizes, counts)
        start = tables.growth[0] * params.x0 + tables.c_drift[-1]
        gauss = math.sqrt(tables.var[-1]) * z
        rows = []
        for h in states:
            bond, lump = (np.interp(tau, times, tables.c_bond), jump) if h == 0 else (0.0, 0.0)
            rows.append(start + bond + gauss - claims - lump)
        x_terminal.append(rows)
        default_time.append(default)
        claim_count.append(counts)
    return (np.concatenate(x_terminal, axis=1), np.concatenate(default_time),
            np.concatenate(claim_count))


_GRID = np.linspace(0.1, 3.0, 40)
# (claim law, side, paths, seed): the streamed draws must be those of one call
# per block, at the 16,376-size chunks these cases were sized for
_STREAM_CASES = {
    "base": (ClaimModelSpec(lam=1.0, muZ=1.0, sigmaZ=0.1), "lo", 5000, 3),
    "redraw-heavy": (ClaimModelSpec(lam=5.0, muZ=0.2, sigmaZ=1.0), "hi", 3000, 4),
    "robert": (ClaimModelSpec(lam=5.0, muZ=-1.0, sigmaZ=1.0), "lo", 3000, 5),
    "tabulated": (ClaimModelSpec(lam=2.0, kind="tabulated-density", z_grid=_GRID,
                                 density=np.exp(-(_GRID - 1.0) ** 2)), "hi", 3000, 6),
    "long-paths": (ClaimModelSpec(lam=3000.0, muZ=1.0, sigmaZ=0.5), "lo", 5, 7),
    "sparse": (ClaimModelSpec(lam=0.01, muZ=1.0, sigmaZ=0.1), "lo", 3000, 17),
    "none": (ClaimModelSpec(lam=1e-9, muZ=1.0, sigmaZ=0.1), "lo", 3000, 17),
    "blocks": (ClaimModelSpec(lam=1.0, muZ=1.0, sigmaZ=0.1), "hi",
               simulate_mod.BLOCK_SIZE + 700, 8),
}
# (claim law, side, paths, seed, parameter overrides) at the default chunk
# size: the benchmark's claim-heavy verify side, and a law whose tilted mean
# is 4.55 sd above 0, so that some chunks of a block wait for a redraw round
# while the others are yielded from the stream's buffer
_DEFAULT_CHUNK_CASES = {
    "claim-heavy": (ClaimModelSpec(lam=20.0, muZ=0.05, sigmaZ=0.01), "lo", 3000, 9,
                    {"beta3": 2.0}),
    "held-chunks": (ClaimModelSpec(lam=20.0, muZ=1.0, sigmaZ=0.22), "lo", 6000, 10, {}),
}


@functools.cache
def _stream_case(name):
    claims, side, n, seed, *overrides = {**_STREAM_CASES, **_DEFAULT_CHUNK_CASES}[name]
    measure = build_measure(claims, 32)
    params = ModelParams(**{**BASE_KWARGS, **(overrides[0] if overrides else {})})
    solution = solve_equilibrium(params, measure, NumericsConfig(time_steps=200))
    return solution, getattr(distortions(solution, params), side), n, seed


def _assert_streamed_match_whole_block(case, h0, monkeypatch):
    """Run ``case`` streamed and against :func:`_whole_block_terminal`; its counts."""
    solution, side, n, seed = _stream_case(case)
    params, measure = solution.params, solution.coeffs.measure
    args = (solution, side, params, measure, n, 0.05, seed)
    states = simulate_mod._default_states(h0)
    path_totals = simulate_mod._path_totals
    for totals in (path_totals, _bincount_totals):
        monkeypatch.setattr(simulate_mod, "_path_totals", totals)
        x_T, default_time, counts = simulate_terminal(*args, h0=h0)
        ref_x, ref_default, ref_counts = _whole_block_terminal(*args, states, totals)
        assert np.array_equal(np.reshape(x_T, (len(states), n)), ref_x)
        assert np.array_equal(default_time, ref_default, equal_nan=True)
        assert np.array_equal(counts, ref_counts)
    return counts


@pytest.mark.parametrize("case", list(_STREAM_CASES))
@pytest.mark.parametrize("h0", [0, 1, (1, 0)])
def test_streamed_sizes_match_one_draw_per_block(case, h0, monkeypatch):
    # the sizes come in chunks of whole paths, reduced and dropped chunk by
    # chunk; the draws, and so every bit of the sample, are those of one size
    # draw per block (first rounds for all claims, then the redraw rounds)
    chunk = 16_376
    monkeypatch.setattr(levy_mod, "_CHUNK_SIZES", chunk)
    counts = _assert_streamed_match_whole_block(case, h0, monkeypatch)

    if case == "long-paths":
        assert counts.min() > chunk
    elif case == "sparse":
        assert counts[0] == 0 and counts[-1] == 0 and counts.sum() > 0
    elif case == "none":
        assert counts.sum() == 0
    else:
        assert counts.sum() > 3 * chunk
    # the tilted normal's mean over its sd: 0.2 redraws 42% of the first
    # round, so every chunk is held; below 0 is Robert's sampler
    if case in ("redraw-heavy", "robert"):
        solution, side, _, _ = _stream_case(case)
        (a, b), s = side.tilt, solution.coeffs.measure.spec.sigmaZ
        shrink = 1.0 - 2.0 * b * s * s
        ratio = (solution.coeffs.measure.spec.muZ + a * s * s) / (s * shrink ** 0.5)
        assert 0.0 <= ratio < 0.25 if case == "redraw-heavy" else ratio < 0.0


@pytest.mark.parametrize("case", list(_DEFAULT_CHUNK_CASES))
def test_streamed_sizes_match_at_the_default_chunk_size(case, monkeypatch):
    # one buffer per stream: a chunk yielded from the first round is a view
    # of it, and a chunk held for a redraw round keeps memory of its own
    streams = []
    normal_above_zero = levy_mod._normal_above_zero

    def recording(*args):
        streams.append(stream := [])
        for k, out in normal_above_zero(*args):
            stream.append((k, out))
            yield k, out

    monkeypatch.setattr(levy_mod, "_normal_above_zero", recording)
    counts = _assert_streamed_match_whole_block(case, (1, 0), monkeypatch)
    assert counts.sum() > 3 * levy_mod._CHUNK_SIZES

    held = shared = 0
    for stream in streams:
        for p, (k, out) in enumerate(stream):
            # a chunk yielded after a chunk of a higher index was held
            if any(j > k for j, _ in stream[:p]):
                held += 1
                assert not any(np.shares_memory(out, other) for j, other in stream if j > k)
            shared += any(np.shares_memory(out, other) for _, other in stream[p + 1:])
    assert shared > 0
    assert held > 0 or case != "held-chunks"


def test_terminal_memory_grows_with_paths_not_claims(base_params):
    # tracemalloc sees numpy's buffers: a claim-heavy side of about 245 claims
    # a path holds its per-path arrays and a chunk of sizes, not every size
    params = dataclasses.replace(base_params, beta3=2.0)
    measure = build_measure(ClaimModelSpec(lam=20.0, muZ=0.05, sigmaZ=0.01), 64)
    solution = solve_equilibrium(params, measure, NumericsConfig(time_steps=200))
    side = distortions(solution, params).lo
    n = 20_000
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _, _, counts = simulate_terminal(solution, side, params, measure, n, 0.02, 1, h0=(1, 0))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert counts.sum() > 4_500_000
    assert peak <= 256 * n + 2 * 2 ** 20


@pytest.fixture(scope="module", params=["base", "claim-heavy"])
def paired_case(request, base_params, base_measure, base_solution):
    """(params, measure, solution, n_paths) on base.cfg and the claim-heavy input."""
    if request.param == "base":
        return base_params, base_measure, base_solution, 20_000
    params = dataclasses.replace(base_params, beta3=2.0)
    measure = build_measure(ClaimModelSpec(lam=20.0, muZ=0.05, sigmaZ=0.01), 64)
    return params, measure, solve_equilibrium(params, measure, NumericsConfig(time_steps=200)), 4000


@pytest.mark.parametrize("side_name", ["lo", "hi"])
def test_paired_default_states_read_one_set_of_draws(paired_case, side_name):
    # h0 = (1, 0) draws once in the h0 = 0 order: its h0 = 0 row is the
    # h0 = 0 run at the same seed, and on a path that does not default the
    # rows differ by the bond term C_bond(T) alone
    params, measure, solution, n = paired_case
    side = getattr(distortions(solution, params), side_name)
    dt, seed = 0.05, 31
    args = (solution, side, params, measure, n, dt, seed)
    x_pair, default_time, counts = simulate_terminal(*args, h0=(1, 0))
    x_h0, ref_default, ref_counts = simulate_terminal(*args, h0=0)
    assert x_pair.shape == (2, n)
    assert np.array_equal(x_pair[1], x_h0)
    assert np.array_equal(default_time, ref_default, equal_nan=True)
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(simulate_terminal(*args, h0=(0, 1))[0], x_pair[::-1])

    alive = np.isnan(default_time)
    assert 0 < alive.sum() < n
    c_bond = _RunTables(solution, side, params, measure, 0.0, dt).c_bond[-1]
    gap = x_pair[1, alive] - x_pair[0, alive]
    assert np.max(np.abs(gap - c_bond)) <= 4 * np.spacing(np.max(np.abs(x_pair)))

    # the h0 = 1 row has the h0 = 1 law: its mean is the side's g-intercept
    x_h1 = x_pair[0]
    b1 = getattr(solution.coeffs, f"b1_{side_name}")[0]
    se = x_h1.std(ddof=1) / math.sqrt(n)
    assert abs(x_h1.mean() - (math.exp(params.r * params.T) * params.x0 + b1)) <= 4 * se


def test_counts_and_default_times_follow_the_draw_order(base_params, base_measure,
                                                        base_solution):
    # default times, then claim counts, then sizes, from the block's own stream
    side = distortions(base_solution, base_params).hi
    n, dt, seed, T = 2000, 0.05, 23, base_params.T
    _, default_time, counts = simulate_terminal(base_solution, side, base_params,
                                                base_measure, n, dt, seed, h0=0)
    tables = _RunTables(base_solution, side, base_params, base_measure, 0.0, dt)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    tau = rng.exponential(1.0 / base_params.hP, size=n)
    want = rng.poisson(tables.claim_intensity * T, size=n)
    assert np.array_equal(counts, want)
    assert np.array_equal(default_time, np.where(tau <= T, tau, np.nan), equal_nan=True)
    sizes = sample_truncated_sizes(base_measure.spec, int(want.sum()), rng, *tables.tilt)
    paths = simulate_wealth(base_solution, side, base_params, base_measure, n, dt, seed, h0=0)
    logged = np.array([z for path in paths for _, z in path.claim_log])
    assert np.array_equal(np.sort(logged), np.sort(sizes))


def test_tilt_exponent_past_exp_cap_raises(base_params, base_measure, base_solution):
    # the size law is an exact tilt only where its exponent stays within exp_cap
    capped = dataclasses.replace(base_solution, exp_cap=1e-3)
    dist = distortions(capped, base_params)
    with pytest.raises(NumericalError, match="jump-tilt exponent reaches exp_cap=0.001"):
        simulate_terminal(base_solution, dist.lo, base_params, base_measure,
                          n_paths=50, dt=0.1, seed=5, h0=1)


def test_a_start_off_the_grid_ends_the_grid_at_T(base_params, base_measure, base_solution):
    # t0 + dt k over-runs T = 10 by an ulp at t0 = 2.687, dt = 0.01; the
    # strategy's closed forms refuse a time past T, so the grid ends at T itself
    t0, dt = 2.687, 0.01
    assert t0 + (base_params.T - t0) / 731 * 731 > base_params.T
    tables = _RunTables(base_solution, None, base_params, base_measure, t0, dt)
    assert tables.times[-1] == base_params.T and tables.n_steps == 731
    dist = distortions(base_solution, base_params)
    x_T, _, _ = simulate_terminal(base_solution, dist.hi, base_params, base_measure,
                                  50, dt, 1, t0=t0, h0=(1, 0))
    assert np.all(np.isfinite(x_T))


@pytest.mark.parametrize("dt", [0.01, 1e-3])
def test_drift_table_meets_the_mean_intercepts(dt, base_params, base_measure, base_solution):
    # from h0 = 1 the mean of X(T) is e^{rT} x0 + C_drift(T) - u* I T, with
    # I = int z (1 - phi3) nu the claim rate of the run's measure, and the
    # closed form says e^{rT} x0 + b1(0): the reference, lo and hi runs must
    # agree to rounding.  Recursive summation of n_steps panel sums errs by
    # at most n_steps u times the sum of their magnitudes (Higham, *Accuracy
    # and Stability of Numerical Algorithms*, 2002, sec. 4.2); 16 units more
    # cover each panel's four products and their sum, the growth factor and
    # the closed form's few terms.  The rule's own error, about 5e-10 (kh)^8
    # relative per interval at kh = 2 r dt <= 1e-3, is far below rounding.
    p, m, s = base_params, base_measure, base_solution
    b1_ref, _ = reference_mean_intercepts(p, m, s)
    dist = distortions(s, p)
    eps = np.finfo(float).eps
    for side, b1 in ((None, b1_ref[0]), (dist.lo, s.b1_lo[0]), (dist.hi, s.b1_hi[0])):
        tables = _RunTables(s, side, p, m, 0.0, dt)
        tilt = 1.0 if side is None else np.exp(side.exponent(m.nodes))
        claims = s.u_star * ((m.nodes * tilt) @ m.weights) * p.T
        start = tables.growth[0] * p.x0
        got = start + tables.c_drift[-1] - claims
        scale = abs(start) + abs(tables.c_drift[-1]) + claims + abs(b1)
        assert abs(got - (start + b1)) <= (tables.n_steps + 16) * eps * scale


@pytest.mark.parametrize("t0", [0.0, 2.687])
def test_penalty_integral_matches_adaptive_quadrature(t0, base_params, base_measure,
                                                      base_solution):
    # each side's penalty, drift and jump-entropy rates together, against
    # scipy's adaptive Gauss-Kronrod quadrature of the same rate
    from scipy.integrate import quad
    p, m = base_params, base_measure
    dist = distortions(base_solution, p)
    for side in (dist.lo, dist.hi):
        def rate(t):
            return penalty_rate(side.phi1(t), side.phi2(t), side.phi3(t, m.nodes), p, m)
        want, err = quad(rate, t0, p.T, epsabs=0.0, epsrel=1e-13, limit=200)
        assert err <= 1e-13 * want
        assert simulate_mod._integrate_penalty(side, p, m, t0) == pytest.approx(want, rel=1e-12)


def test_stiff_bond_mode_meets_its_mean_intercept(base_params, base_claims):
    # zeta = 1e-5: the bond mode k = delta/zeta = 1000 puts a boundary layer
    # of width 1e-3 at T, where pi_p rises from about 1e5 to 1e11.  At
    # k dt = 2.5 the per-interval Gauss-Legendre rule still integrates the
    # bond drift to 7e-7 relative, so the lo-side mean from h0 = 0 meets
    # e^{rT} x0 + b0_lo(0)
    params = dataclasses.replace(base_params, zeta=1e-5)
    measure = build_measure(base_claims, 32)
    solution = solve_equilibrium(params, measure, NumericsConfig(time_steps=200))
    side = distortions(solution, params).lo
    dt = 2.5 / params.h_q
    assert params.h_q == pytest.approx(1000.0)
    x_T, default_time, _ = simulate_terminal(solution, side, params, measure, 4000, dt, 1, h0=0)
    assert np.sum(~np.isnan(default_time)) > 0
    se = x_T.std(ddof=1) / math.sqrt(x_T.size)
    target = math.exp(params.r * params.T) * params.x0 + solution.b0_lo[0]
    assert abs(x_T.mean() - target) <= 3 * se


class _ScaledPiQ(_HiddenUStar):
    """The equilibrium's coeffs with pi_q = factor u*/A: not the strategy those coeffs solve."""

    def __init__(self, solution, factor):
        super().__init__(solution)
        self.coeffs = solution
        self.pi_q_at = lambda t: factor * solution.pi_q_at(t)


def test_a_solved_strategy_off_its_u_star_raises(base_params, base_measure, base_solution):
    # claims of a strategy with coeffs cost u* Z, and its sides tilt at u*:
    # a pi_q that is not u*/A would be simulated silently wrong (with pi_q
    # doubled, 20,000 paths from h0 = 1 at seed 7 read a mean X(T) of 5.89
    # where per-claim discounting gives 2.47); 8 eps is past the rounding of
    # (u*/A) A, which the solve's own pi_q stays within
    p, m = base_params, base_measure
    dist = distortions(base_solution, p)
    eps = np.finfo(float).eps
    for factor in (2.0, 1.0 + 8 * eps):
        off = _ScaledPiQ(base_solution, factor)
        for call in (lambda: simulate_terminal(off, None, p, m, 100, 0.01, 7),
                     lambda: simulate_terminal(off, dist.lo, p, m, 100, 0.01, 7, h0=(1, 0)),
                     lambda: simulate_wealth(off, dist.hi, p, m, 10, 0.01, 7),
                     lambda: simulate_terminal(base_solution, distortions(off, p).lo,
                                               p, m, 100, 0.01, 7)):
            with pytest.raises(ValidationError, match="u\\*") as caught:
                call()
            assert caught.value.tag == "inputs"
    # the solve's own pi_q = u*/A passes at every node of a fine grid
    for dt in (0.01, 1e-3):
        assert _RunTables(base_solution, dist.lo, p, m, 0.0, dt).u_star == base_solution.u_star


@pytest.mark.parametrize("lam, solved", [(1e18, True), (1e18, False), (1e17, False)])
def test_claim_counts_past_the_sampler_range_raise(lam, solved, base_params, base_claims,
                                                  base_numerics):
    # Lambda T = 1e19 claims per path is past numpy's Poisson range at 1e18,
    # and ten paths' total wraps int64 at 1e17: a typed error before any draw
    measure = build_measure(dataclasses.replace(base_claims, lam=lam), base_numerics.quad_nodes)
    strategy = ConstantStrategy(0.5, 1.0, 0.0)
    sides = [None]
    if solved:
        strategy = solve_equilibrium(base_params, measure, base_numerics)
        dist = distortions(strategy, base_params)
        sides += [dist.lo, dist.hi]
    for side in sides:
        with pytest.raises(NumericalError, match="2\\^62"):
            simulate_terminal(strategy, side, base_params, measure, 10, 0.05, 1)


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


def test_path_dump_formats_special_values_as_17_digits(tmp_path):
    # the writer's whole float range, special values included, end to end:
    # every time and wealth as '%.17g', the path index and state as integers
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308,
                        -1.2345678901234567e-300, 0.1, 1.0 / 3.0, 2.0 ** 53])
    state = np.repeat([0, 1], 5).astype(np.int8)
    paths = [WealthPath(times=np.roll(special, j), wealth=np.roll(special, -3 * j),
                        default_state=state, default_time=None, claim_log=[])
             for j in range(3)]
    out = tmp_path / "paths.csv"
    dump_paths_csv(paths, out)
    expected = "path_id,time,wealth,default_state\n" + "".join(
        f"{pid},{format(float(t), '.17g')},{format(float(x), '.17g')},{h}\n"
        for pid, path in enumerate(paths)
        for t, x, h in zip(path.times, path.wealth, path.default_state))
    assert out.read_bytes() == expected.encode("utf-8")


def test_path_storage_guard(base_params, base_measure, base_solution):
    with pytest.raises(ValidationError, match="simulate_terminal"):
        simulate_wealth(base_solution, None, base_params, base_measure,
                        n_paths=300_000, dt=1e-3, seed=1, h0=1)


@pytest.mark.parametrize("simulate", [simulate_terminal, simulate_wealth])
def test_path_count_must_be_finite_and_integral(simulate, base_params, base_measure,
                                                base_solution):
    def run(n_paths):
        out = simulate(base_solution, None, base_params, base_measure,
                       n_paths=n_paths, dt=0.05, seed=3, h0=1)
        return out[0] if simulate is simulate_terminal else np.array([p.wealth for p in out])

    assert np.array_equal(run(20.0), run(20))
    for n_paths, tag in ((math.nan, "nonfinite:n_paths"), (100.5, "noninteger:n_paths")):
        with pytest.raises(ValidationError) as exc_info:
            run(n_paths)
        assert exc_info.value.tag == tag


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


@pytest.mark.parametrize("tau", [None, math.nan, math.inf, 1e6, 1e300])
def test_bond_default_past_maturity_is_no_default(base_params, tau):
    ts = np.array([0.0, 1.0, 5.0, base_params.T1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prices = bond_price_path(ts, tau, base_params)
    assert np.array_equal(prices, bond_price_path(ts, None, base_params))
    assert np.array_equal(prices, np.exp(-(base_params.r + base_params.delta)
                                         * (base_params.T1 - ts)))


def test_estimate_objective_deterministic_limit(base_measure):
    params = ModelParams(**{**BASE_KWARGS, "sigma1": 0.0, "gamma": 1e-12})
    claims = dataclasses.replace(base_measure.spec, lam=1e-12)
    measure = build_measure(claims, 64)
    x_T, _, _ = simulate_terminal(ConstantStrategy(), None, params, measure,
                                  n_paths=200, dt=1e-3, seed=2, h0=1)
    est = objective_from_terminal(x_T, None, params, measure)
    assert est.j_value == pytest.approx(params.x0 * math.exp(params.r * params.T), rel=1e-4)
    assert est.penalty == 0.0


def test_objective_takes_a_list_as_its_array(base_params, base_solution):
    # a Python list is scored as the array of its values, with or without a side
    dist = distortions(base_solution, base_params)
    for side in (None, dist.lo):
        args = (side, base_params, base_solution.measure)
        assert objective_from_terminal([1.0, 2.0, 3.0], *args) \
            == objective_from_terminal(np.array([1.0, 2.0, 3.0]), *args)


def test_objective_moments_do_not_overflow_at_large_wealth(base_params, base_measure):
    # at sigma2 = 1e-40 X(T) reaches ~3e77, whose fourth power overflows; the
    # moments about the sample mean do not.  At unit scale the delta-method SE
    # equals the raw-moment form grad' Cov grad / n
    x = np.random.default_rng(5).normal(2.0, 0.5, 20_000)
    est = objective_from_terminal(x, None, base_params, base_measure)
    n, gamma = x.size, base_params.gamma
    m1, m2, m3, m4 = (np.mean(x ** k) for k in range(1, 5))
    grad = np.array([1.0 + gamma * m1, -0.5 * gamma])
    cov = np.array([[m2 - m1 * m1, m3 - m1 * m2], [m3 - m1 * m2, m4 - m2 * m2]]) / n
    assert est.std_error == pytest.approx(math.sqrt(grad @ cov @ grad), rel=1e-12)
    assert est.variance == pytest.approx((m2 - m1 * m1) * n / (n - 1), rel=1e-12)
    # wealth 3e77 + 1e70 x: x^4 overflows; the spread is 1e70 times that of x
    # (to the resolution 4e61 of 3e77), and the SE is (gamma/2) sd(dev^2)/sqrt(n)
    big = objective_from_terminal(3e77 + 1e70 * x, None, base_params, base_measure)
    dev2 = (x - x.mean()) ** 2
    assert big.mean == pytest.approx(3e77, rel=1e-7)
    assert big.variance == pytest.approx(1e140 * est.variance, rel=1e-6)
    assert big.std_error == pytest.approx(0.5 * gamma * 1e140 * math.sqrt(np.var(dev2) / n),
                                          rel=1e-6)


def test_estimate_objective_rejects_tiny_samples(base_params, base_measure, base_solution):
    dist = distortions(base_solution, base_params)
    with pytest.raises(ValidationError, match="paths too few"):
        alpha_robust_value(base_solution, dist, 0.0, 1.0, 1, n_paths=99, dt=DT, seed=1)


def test_alpha_robust_value_matches_value_function(base_params, base_measure, base_solution):
    dist = distortions(base_solution, base_params)
    for h in (1, 0):
        value, se, _, _ = alpha_robust_value(base_solution, dist, 0.0, base_params.x0, h,
                                             n_paths=N_PATHS, dt=DT, seed=200 + h)
        target = value_function(0.0, base_params.x0, h, base_solution.coeffs)
        assert abs(value - target) <= 3 * se


@pytest.mark.parametrize("control, h", [("pi_s", 1), ("pi_p", 0)])
def test_perturbed_strategy_does_not_beat_equilibrium(control, h, base_params, base_measure,
                                                      base_solution):
    # spike deviation: one control scaled by 1.5 on [0, 0.5]; its alpha-robust
    # value (with its own extremal distortions) must not exceed the
    # equilibrium value.  pi_q is the equilibrium's, so the jump tilt stays
    # constant; pi_p moves only the bond terms, so it is checked before default
    class Perturbed:
        coeffs = base_solution.coeffs
        pi_q_at = staticmethod(base_solution.pi_q_at)

        def pi_s_at(self, t):
            return self._spiked("pi_s", base_solution.pi_s_at(t), t)

        def pi_p_at(self, t):
            return self._spiked("pi_p", base_solution.pi_p_at(t), t)

        @staticmethod
        def _spiked(name, base, t):
            return np.where(np.asarray(t) < 0.5, 1.5 * base, base) if name == control else base

    perturbed = Perturbed()
    dist = distortions(perturbed, base_params)
    value, se, _, _ = alpha_robust_value(perturbed, dist, 0.0, base_params.x0, h,
                                         n_paths=N_PATHS, dt=DT, seed=300)
    equilibrium = value_function(0.0, base_params.x0, h, base_solution.coeffs)
    assert value <= equilibrium + 3 * se


# (id, call on the base records): each hands a post-solve call the base
# solution, or a distortion side, with other parameters or another measure
# object; ``b.other(params, measure)`` is the distortions of another solve
_OTHER_MODEL = [
    ("distortions", lambda b: distortions(b.solution, b.q)),
    ("terminal", lambda b: simulate_terminal(b.solution, b.dist.lo, b.params, b.lam3,
                                             20_000, 0.01, 1)),
    ("terminal-params", lambda b: simulate_terminal(b.solution, b.dist.lo, b.q, b.measure,
                                                    20_000, 0.01, 1)),
    ("reference", lambda b: reference_mean_intercepts(b.gamma2, b.lam3, b.solution)),
    ("reference-rebuilt", lambda b: reference_mean_intercepts(b.params, b.rebuilt, b.solution)),
    ("wealth", lambda b: simulate_wealth(b.solution, None, b.params, b.rebuilt, 10, 0.05, 1)),
    ("terminal-side", lambda b: simulate_terminal(b.solution, b.other(b.q, b.measure).lo,
                                                  b.params, b.measure, 20_000, 0.01, 1)),
    ("terminal-side_measure", lambda b: simulate_terminal(
        b.solution, b.other(b.params, b.rebuilt).lo, b.params, b.measure, 20_000, 0.01, 1)),
    ("wealth-side", lambda b: simulate_wealth(b.solution, b.other(b.q, b.measure).hi,
                                              b.params, b.measure, 10, 0.05, 1)),
    ("alpha_robust-side", lambda b: alpha_robust_value(b.solution, b.other(b.q, b.measure),
                                                       0.0, 1.0, 1, 1000, 0.01, 1)),
    ("alpha_robust-hi_side", lambda b: alpha_robust_value(
        b.solution, DistortionFunctions(b.dist.lo, b.other(b.q, b.measure).hi),
        0.0, 1.0, 1, 1000, 0.01, 1)),
    ("objective-params", lambda b: objective_from_terminal(np.ones(10), b.dist.lo, b.gamma2,
                                                           b.measure)),
    ("objective-measure", lambda b: objective_from_terminal(np.ones(10), b.dist.lo, b.params,
                                                            b.rebuilt)),
    ("objective-side", lambda b: objective_from_terminal(np.ones(10), b.other(b.q, b.measure).lo,
                                                         b.params, b.measure)),
]


@pytest.mark.parametrize("call", [case[1] for case in _OTHER_MODEL],
                         ids=[case[0] for case in _OTHER_MODEL])
def test_post_solve_calls_reject_another_copy_of_the_model(call, base_params, base_claims,
                                                           base_numerics, base_measure,
                                                           base_solution):
    # the solution's coeffs are the one copy of the model after the solve,
    # and each distortion side carries those of its own solve; a rebuilt
    # measure has the same law but is another object, and is refused too
    # (two measures' == compares arrays)
    claims = dataclasses.replace(base_claims, lam=3.0)
    base = types.SimpleNamespace(
        params=base_params, measure=base_measure, solution=base_solution,
        other=lambda params, measure: distortions(
            solve_equilibrium(params, measure, base_numerics), params),
        dist=distortions(base_solution, base_params),
        q=dataclasses.replace(base_params, beta3=1.0, gamma=2.0),
        gamma2=dataclasses.replace(base_params, gamma=2.0),
        lam3=build_measure(claims, base_numerics.quad_nodes),
        rebuilt=build_measure(base_claims, base_numerics.quad_nodes))
    with pytest.raises(ValidationError) as caught:
        call(base)
    assert caught.value.tag == "inputs"


def test_constant_strategies_take_any_model(base_params, base_claims):
    # a strategy without coeffs has no model of its own: it runs with the
    # parameters and measure it is given (lambda T = 30 claims per path here)
    q = dataclasses.replace(base_params, gamma=2.0)
    lam3 = build_measure(dataclasses.replace(base_claims, lam=3.0), 32)
    x_T, _, counts = simulate_terminal(ConstantStrategy(0.5, 1.0, 0.0), None, q, lam3,
                                       2000, 0.05, 3)
    assert np.all(np.isfinite(x_T)) and counts.mean() == pytest.approx(30.0, rel=0.05)


def test_distortions_need_u_star(base_params):
    # without pi_q A = u* the jump tilt would vary in time, which no sampler draws
    with pytest.raises(ValidationError, match="u_star") as caught:
        distortions(ConstantStrategy(0.5, 1.0, 0.0), base_params)
    assert caught.value.tag == "u_star"
