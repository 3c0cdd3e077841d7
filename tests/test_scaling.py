"""Exact unit symmetries of the model, checked bit for bit.

Money scaling by c: wealth, the surplus volatility sigma1 and the claim
sizes (muZ, sigmaZ) times c, and the aversions gamma, beta1, beta2, beta3
divided by c.  Then u* = pi_q A, pi_q, phi1, phi2, phi3 (on the scaled
nodes), the default times and the claim counts are unchanged, and every
money amount (pi_s, pi_p, the six intercepts, X(T), the objective and its
penalty) is c times the original.

Time scaling by kappa: the rates r, mu, delta, hP and lambda times kappa,
the volatilities sigma1 and sigma2 times sqrt(kappa), and T, T1 and the
simulation step divided by kappa.  Then every column on the scaled grid,
phi3, X(T), the claim counts and the objective are unchanged, the default
times are 1/kappa times the original, and phi1 and phi2 (drift shifts per
unit of Brownian motion) are sqrt(kappa) times the original.

With c and kappa powers of 4, c, kappa and sqrt(kappa) are powers of 2, so
every scaled input, and every product and quotient the code forms from
them, is the exact scaled value; no relation needs a tolerance.  That holds
while no intermediate value overflows, underflows or turns subnormal, which
none of these parameter sets comes near (the smallest scaled input is
beta3 = 1e-4 / 8).
"""

import dataclasses
import functools
import pathlib

import numpy as np
import pytest

from alphamv.config import load_config
from alphamv.levy import build_measure
from alphamv.simulate import objective_from_terminal, simulate_terminal
from alphamv.solver import distortions, solve_equilibrium

BASE_CFG = pathlib.Path(__file__).resolve().parents[1] / "demos" / "configs" / "base.cfg"
COLUMNS = ("pi_q", "pi_s", "pi_p", "B1", "B0", "b1_lo", "b1_hi", "b0_lo", "b0_hi")
PATHS, DT, SEED = 2000, 0.05, 3

# base.cfg, and variants at the ends of alpha's range, a vanishing and a large
# beta3, and a negative muZ, whose sizes come from Robert's tail sampler
VARIANTS = {"base": ({}, {}),
            "alpha_half": ({"alpha": 0.5}, {}), "alpha_one": ({"alpha": 1.0}, {}),
            "beta3_small": ({"beta3": 1e-4}, {}), "beta3_one": ({"beta3": 1.0}, {}),
            "muZ_negative": ({}, {"muZ": -0.5, "sigmaZ": 0.6})}


def _money(params, claims, dt, c):
    params = dataclasses.replace(params, x0=c * params.x0, sigma1=c * params.sigma1,
                                 gamma=params.gamma / c, beta1=params.beta1 / c,
                                 beta2=params.beta2 / c, beta3=params.beta3 / c)
    return params, dataclasses.replace(claims, muZ=c * claims.muZ, sigmaZ=c * claims.sigmaZ), dt


def _time(params, claims, dt, kappa):
    root = kappa ** 0.5
    params = dataclasses.replace(params, r=kappa * params.r, mu=kappa * params.mu,
                                 delta=kappa * params.delta, hP=kappa * params.hP,
                                 sigma1=root * params.sigma1, sigma2=root * params.sigma2,
                                 T=params.T / kappa, T1=params.T1 / kappa)
    return params, dataclasses.replace(claims, lam=kappa * claims.lam), dt / kappa


@functools.cache
def _outputs(variant, scale=None, factor=1.0):
    """Everything the relations compare, for one variant, scaled or not."""
    params, claims, numerics = load_config(BASE_CFG)
    model, claim_law = VARIANTS[variant]
    params = dataclasses.replace(params, **model)
    claims = dataclasses.replace(claims, **claim_law)
    numerics = dataclasses.replace(numerics, time_steps=100)
    dt = DT
    if scale is not None:
        params, claims, dt = {"money": _money, "time": _time}[scale](params, claims, dt, factor)
    measure = build_measure(claims, numerics.quad_nodes)
    solution = solve_equilibrium(params, measure, numerics)
    dist = distortions(solution, params)
    out = {"grid": solution.grid, "u_star": solution.u_star, "nodes": measure.nodes}
    out.update((name, getattr(solution, name)) for name in COLUMNS)
    for side_name, side in (("lo", dist.lo), ("hi", dist.hi)):
        out[f"phi1_{side_name}"] = side.phi1(solution.grid)
        out[f"phi2_{side_name}"] = side.phi2(solution.grid)
        out[f"phi3_{side_name}"] = side.phi3(0.0, measure.nodes)
        x_T, tau, counts = simulate_terminal(solution, side, params, measure, PATHS, dt, SEED,
                                             h0=(1, 0))
        out[f"x_T_{side_name}"] = x_T
        out[f"default_time_{side_name}"] = tau      # NaN where a path does not default
        out[f"claim_count_{side_name}"] = counts
        for h, row in zip((1, 0), x_T):
            estimate = objective_from_terminal(row, side, params, measure)
            out[f"objective_{side_name}_h{h}"] = np.array(
                [estimate.mean, estimate.penalty, estimate.j_value, estimate.std_error])
            out[f"variance_{side_name}_h{h}"] = estimate.variance
    return out


def _assert_scaled(got, want, how):
    """Every output of ``got`` equals ``how(name)`` times that of ``want``, bit for bit."""
    assert got.keys() == want.keys()
    bad = [name for name in want
           if not np.array_equal(got[name], how(name) * want[name], equal_nan=True)]
    assert bad == []


@pytest.mark.parametrize("c", [8.0, 0.25])
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_money_scaling_is_exact(variant, c):
    def how(name):
        if name in ("grid", "u_star", "pi_q") or name.startswith(("phi", "default", "claim")):
            return 1.0
        return c * c if name.startswith("variance") else c
    _assert_scaled(_outputs(variant, "money", c), _outputs(variant), how)


@pytest.mark.parametrize("kappa", [4.0, 0.25])
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_time_scaling_is_exact(variant, kappa):
    def how(name):
        if name == "grid" or name.startswith("default"):
            return 1.0 / kappa
        return kappa ** 0.5 if name.startswith(("phi1", "phi2")) else 1.0
    _assert_scaled(_outputs(variant, "time", kappa), _outputs(variant), how)
