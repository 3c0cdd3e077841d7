"""Claim-measure quadrature against closed-form and sampling oracles."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import truncnorm

from alphamv.config import ClaimModelSpec
from alphamv.errors import NumericalError, ValidationError
from alphamv.levy import build_measure, integrate, premium_rate, sample_truncated_sizes


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


def test_moment_one_matches_sampling_oracle(base_claims, base_measure):
    rng = np.random.default_rng(314)
    draws = sample_truncated_sizes(base_claims, 10_000_000, rng)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(base_measure.moment(1) - draws.mean()) <= 3 * se


def test_integrate_constant_linear_quadratic(base_measure):
    m1, m2 = truncnorm_moments(1.0, 0.1)
    assert integrate(base_measure, lambda z: np.ones_like(z)) == pytest.approx(1.0, abs=1e-12)
    assert integrate(base_measure, lambda z: z) == pytest.approx(m1, rel=1e-10)
    assert integrate(base_measure, lambda z: z * z) == pytest.approx(m2, rel=1e-10)


def test_integrate_rejects_nonfinite(base_measure):
    with pytest.raises(NumericalError, match="node"):
        integrate(base_measure, lambda z: np.where(z > 1.0, np.inf, z))


def test_integrate_linear_and_monotone(base_measure):
    f = lambda z: np.sin(z)
    g = lambda z: z ** 2
    lhs = integrate(base_measure, lambda z: 2.0 * f(z) + 3.0 * g(z))
    rhs = 2.0 * integrate(base_measure, f) + 3.0 * integrate(base_measure, g)
    assert lhs == pytest.approx(rhs, rel=1e-14)
    assert integrate(base_measure, lambda z: z) <= integrate(base_measure, lambda z: z + 0.1 * z ** 2)


def test_premium_rate(base_claims, base_measure):
    m1 = base_measure.moment(1)
    assert premium_rate(base_measure, 0.1) == pytest.approx(1.1 * m1, rel=1e-14)
    assert premium_rate(base_measure, 1e-12) == pytest.approx(m1, rel=1e-10)
    measure2 = build_measure(dataclasses.replace(base_claims, lam=2.0), 64)
    assert premium_rate(measure2, 0.1) == pytest.approx(2.0 * premium_rate(base_measure, 0.1), rel=1e-14)
    with pytest.raises(ValidationError):
        premium_rate(base_measure, 0.0)


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
    # two tilts interleaved draw by draw: each group follows its own tilted
    # tabulated law, whose moments come from the tilted quadrature rule
    z = np.linspace(0.5, 1.5, 801)
    spec = ClaimModelSpec(lam=1.0, kind="tabulated-density", z_grid=z,
                          density=np.exp(-((z - 1.0) / 0.1) ** 2 / 2.0))
    measure = build_measure(spec, 128)
    tilts = np.array([[0.0, 0.0], [3.0, -1.0]])
    which = np.arange(400_000) % 2
    draws = sample_truncated_sizes(spec, which.size, np.random.default_rng(9),
                                   tilts[which, 0], tilts[which, 1])
    for k, (a, b) in enumerate(tilts):
        got = draws[which == k]
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
