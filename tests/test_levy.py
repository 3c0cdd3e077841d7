"""Claim-measure quadrature against closed-form and sampling oracles."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.stats import truncnorm

from alphamv.config import ClaimModelSpec
from alphamv.errors import NumericalError, ValidationError
import alphamv.levy as levy_mod
from alphamv.levy import (ClaimMeasure, build_claim_tables, build_measure, sample_truncated_sizes,
                          tilt_limit)


def truncnorm_moments(muZ: float, sigmaZ: float):
    """Closed-form first two moments of a normal truncated to (0, inf)."""
    dist = truncnorm((0.0 - muZ) / sigmaZ, np.inf, loc=muZ, scale=sigmaZ)
    m1 = float(dist.mean())
    m2 = float(dist.var() + m1 ** 2)
    return m1, m2


def test_total_mass_equals_lambda(base_claims, base_measure):
    assert base_measure.moment(0) == pytest.approx(1.0, abs=1e-12)
    spec2 = dataclasses.replace(base_claims, lam=2.0)
    measure2 = build_measure(spec2, 64)
    assert measure2.moment(0) == pytest.approx(2.0 * base_measure.moment(0), rel=1e-14)


def test_moments_match_closed_form(base_claims, base_measure):
    m1, m2 = truncnorm_moments(1.0, 0.1)
    assert base_measure.moment(1) == pytest.approx(m1, rel=1e-10)
    assert base_measure.moment(2) == pytest.approx(m2, rel=1e-10)


def _truncnorm_moments_mp(muZ: float, sigmaZ: float):
    """E[Z], E[Z^2] of N(muZ, sigmaZ^2) truncated to (0, inf), in 40-digit arithmetic.

    With alpha = -muZ/sigmaZ and the inverse Mills ratio l = phi(alpha) /
    Phi(-alpha): E[Z] = muZ + sigmaZ l, E[Z^2] = muZ^2 + 2 muZ sigmaZ l +
    sigmaZ^2 (1 + alpha l).
    """
    with mpmath.workdps(40):
        mu, s = mpmath.mpf(muZ), mpmath.mpf(sigmaZ)
        alpha = -mu / s
        mills = mpmath.npdf(alpha) / mpmath.ncdf(-alpha)
        return (float(mu + s * mills),
                float(mu * mu + 2 * mu * s * mills + s * s * (1 + alpha * mills)))


@pytest.mark.parametrize("sigmaZ", [0.1, 1.7])
def test_support_follows_the_tail_over_the_whole_ratio_range(sigmaZ):
    # the support ends where the density is e^{-32} of its maximum on (0, inf):
    # mass lambda by construction, moments of the truncated normal at any
    # muZ/sigmaZ (the old muZ +- 8 sigmaZ support lost 1.7e-2 of m2 at -7 and
    # had no node above 0 from -8 down), and for muZ >= 0 the old nodes
    for ratio in np.linspace(-40.0, 40.0, 81):
        spec = ClaimModelSpec(lam=0.7, muZ=float(ratio) * sigmaZ, sigmaZ=sigmaZ)
        m1, m2 = _truncnorm_moments_mp(spec.muZ, sigmaZ)
        for n in (32, 64, 128):
            measure = build_measure(spec, n)
            assert measure.moment(0) == pytest.approx(spec.lam, rel=1e-14, abs=0)
            assert measure.moment(1) == pytest.approx(spec.lam * m1, rel=1e-11, abs=0)
            assert measure.moment(2) == pytest.approx(spec.lam * m2, rel=1e-11, abs=0)
            if spec.muZ >= 0:
                lo, hi = max(0.0, spec.muZ - 8.0 * sigmaZ), spec.muZ + 8.0 * sigmaZ
                x = leggauss(n)[0]
                assert np.array_equal(measure.nodes, 0.5 * (hi - lo) * x + 0.5 * (hi + lo))


def test_density_zero_at_every_node_is_a_typed_error():
    # a table whose mass sits between the nodes: no weights, no NaN
    # (the two nodes on [1, 2] are 1.5 -+ 0.5/sqrt(3))
    spec = ClaimModelSpec(lam=1.0, kind="tabulated-density", z_grid=np.linspace(1.0, 2.0, 5),
                          density=np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValidationError, match="0 at all 2 quadrature nodes") as caught:
        build_measure(spec, 2)
    assert caught.value.tag == "density=0"


def test_tilt_limit_is_the_integrability_rule():
    # exp(a z + b z^2) is integrable against N(muZ, sigmaZ^2) on (0, inf) iff
    # b < 1/(2 sigmaZ^2), and against a table always; the sampler reads the rule
    spec = ClaimModelSpec(lam=1.0, muZ=1.0, sigmaZ=0.1)
    assert tilt_limit(spec) == pytest.approx(50.0, rel=1e-15)
    assert tilt_limit(ClaimModelSpec(lam=1.0, muZ=1.0, sigmaZ=1e-200)) == math.inf
    z = np.linspace(0.5, 1.5, 11)
    table = ClaimModelSpec(lam=1.0, kind="tabulated-density", z_grid=z, density=np.ones(11))
    assert tilt_limit(table) == math.inf
    rng = np.random.default_rng(3)
    assert np.all(sample_truncated_sizes(spec, 10, rng, 0.0, 49.9) > 0)
    assert np.all(sample_truncated_sizes(table, 10, rng, 0.0, 1e6) > 0)
    with pytest.raises(NumericalError, match="not integrable"):
        sample_truncated_sizes(spec, 10, rng, -5.0, 50.0)


def test_moment_one_matches_sampling_oracle(base_claims, base_measure):
    rng = np.random.default_rng(314)
    draws = sample_truncated_sizes(base_claims, 10_000_000, rng)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(base_measure.moment(1) - draws.mean()) <= 3 * se


def test_quadrature_convergence_under_node_doubling(base_claims):
    m64 = build_measure(base_claims, 64)
    m128 = build_measure(base_claims, 128)
    for k in range(3):
        assert abs(m128.moment(k) - m64.moment(k)) <= 1e-12 * abs(m64.moment(k))


def test_sampled_claims_strictly_positive(base_measure):
    rng = np.random.default_rng(11)
    draws = sample_truncated_sizes(base_measure.spec, 100_000, rng)
    assert np.all(draws > 0)


def test_sampling_matches_quadrature_moments(base_claims, base_measure):
    rng = np.random.default_rng(23)
    draws = sample_truncated_sizes(base_claims, 1_000_000, rng)
    lam = base_claims.lam
    for k, sample_stat in ((1, draws), (2, draws ** 2)):
        se = sample_stat.std(ddof=1) / math.sqrt(draws.size)
        assert abs(sample_stat.mean() - base_measure.moment(k) / lam) <= 4 * se


def test_nodes_positive_and_weights_nonnegative(base_measure):
    assert np.all(base_measure.nodes > 0)
    assert np.all(base_measure.weights >= 0)


def test_measure_is_a_read_only_view_of_its_table_row(base_claims):
    # build_measure wraps the checked row it gets back: no copy of the arrays
    measure = build_measure(base_claims, 32)
    assert np.shares_memory(measure.nodes, measure.tables.nodes)
    assert np.shares_memory(measure.probs, measure.tables.probs)
    assert measure.spec is measure.tables.specs[0] is base_claims
    tables, _ = build_claim_tables([base_claims, dataclasses.replace(base_claims, lam=2.0)], 32)
    for array in (measure.nodes, measure.probs, *tables[1:]):
        assert not array.flags.writeable
    # the quadrature weights are lambda p, bit for bit
    assert np.array_equal(measure.weights, base_claims.lam * measure.probs)


def test_build_measure_checks_its_row_once(base_claims, monkeypatch):
    calls = []
    check = levy_mod._domain_errors
    monkeypatch.setattr(levy_mod, "_domain_errors", lambda *a: calls.append(1) or check(*a))
    build_measure(base_claims, 32)
    assert len(calls) == 1


def test_direct_measure_copies_the_callers_arrays(base_claims):
    nodes, probs = np.array([0.5, 1.0, 1.5]), np.array([0.25, 0.5, 0.25])
    measure = ClaimMeasure(base_claims, nodes, probs)
    nodes[0], probs[0] = 9.0, 9.0
    assert measure.nodes.tolist() == [0.5, 1.0, 1.5]
    assert measure.probs.tolist() == [0.25, 0.5, 0.25]
    assert not (measure.nodes.flags.writeable or measure.probs.flags.writeable)
    assert measure.tables.specs == (base_claims,)


def test_tabulated_measure_uses_same_machinery():
    z = np.linspace(0.5, 1.5, 801)
    dens = np.exp(-((z - 1.0) / 0.1) ** 2 / 2.0)
    spec = ClaimModelSpec(lam=1.5, kind="tabulated-density", z_grid=z, density=dens)
    measure = build_measure(spec, 128)
    assert measure.moment(0) == pytest.approx(1.5, rel=1e-6)
    assert measure.moment(1) == pytest.approx(1.5 * 1.0, rel=1e-4)
    rng = np.random.default_rng(5)
    draws = sample_truncated_sizes(spec, 200_000, rng)
    assert abs(draws.mean() - 1.0) <= 4 * draws.std(ddof=1) / math.sqrt(draws.size)


def test_tabulated_sizes_take_one_tilt_per_draw():
    # one scalar tilt per call, every draw of the call from it: each call
    # follows its own tilted tabulated law, whose moments come from the tilted
    # quadrature rule
    z = np.linspace(0.5, 1.5, 801)
    spec = ClaimModelSpec(lam=1.0, kind="tabulated-density", z_grid=z,
                          density=np.exp(-((z - 1.0) / 0.1) ** 2 / 2.0))
    measure = build_measure(spec, 128)
    rng = np.random.default_rng(9)
    for a, b in ((0.0, 0.0), (3.0, -1.0)):
        got = sample_truncated_sizes(spec, 200_000, rng, a, b)
        w = measure.weights * np.exp(a * measure.nodes + b * measure.nodes ** 2)
        for stat, want in ((got, w @ measure.nodes / w.sum()),
                           (got ** 2, w @ measure.nodes ** 2 / w.sum())):
            assert abs(stat.mean() - want) <= 4 * stat.std(ddof=1) / math.sqrt(stat.size)


def test_truncated_normal_deep_cutoff_matches_closed_form():
    # mean/sd = -5 takes Robert's exponential proposal; untilted and tilted
    # (the square completed to another deep cut-off normal) draws must match
    # the closed-form moments of their truncated normals
    spec = ClaimModelSpec(lam=1.0, muZ=-0.5, sigmaZ=0.1)
    rng = np.random.default_rng(17)
    for a, b in ((0.0, 0.0), (-20.0, -20.0)):
        draws = sample_truncated_sizes(spec, 200_000, rng, a, b)
        s2 = spec.sigmaZ ** 2
        mean = (spec.muZ + a * s2) / (1.0 - 2.0 * b * s2)
        m1, m2 = truncnorm_moments(mean, spec.sigmaZ / math.sqrt(1.0 - 2.0 * b * s2))
        assert np.all(draws > 0)
        for stat, want in ((draws, m1), (draws ** 2, m2)):
            assert abs(stat.mean() - want) <= 4 * stat.std(ddof=1) / math.sqrt(stat.size)


def test_truncated_normal_redraws_nonpositive_draws_above_a_zero_mean():
    # muZ/sigmaZ = 0.5: about 31% of the first normal draws are <= 0 and are
    # drawn again until positive; a tilt a = 10 moves the mean to 0.15 (the
    # same redraw loop) and a = -10 to -0.05 (the exponential proposal below
    # a zero mean)
    spec = ClaimModelSpec(lam=1.0, muZ=0.05, sigmaZ=0.1)
    rng = np.random.default_rng(29)
    for a, mean in ((0.0, 0.05), (10.0, 0.15), (-10.0, -0.05)):
        got = sample_truncated_sizes(spec, 400_000, rng, a)
        assert np.all(got > 0)
        dist = truncnorm(-mean / spec.sigmaZ, np.inf, loc=mean, scale=spec.sigmaZ)
        for stat, want in ((got, dist.mean()), ((got - dist.mean()) ** 2, dist.var())):
            assert abs(stat.mean() - want) <= 4 * stat.std(ddof=1) / math.sqrt(stat.size)
