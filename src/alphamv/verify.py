"""Cross-checks between the backward solver and the forward Monte Carlo engine.

Every check is an oracle from an independent route: distorted-measure means
against the backward mean intercepts, the assembled alpha-robust objective
against the closed-form value, algebraic distortion identities, directional
sweeps, and the default-time law.  The report prints one pass/fail line per
check with the measured discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ClaimModelSpec, ModelParams, NumericsConfig, replace_param
from .errors import ValidationError
from .levy import build_measure
from .simulate import objective_from_terminal, simulate_terminal
from .solver import (distortions, pi_p_star, pi_s_star, scan_foc_sign_changes,
                     solve_equilibrium, value_function)
from .sweep import SweepSpec, run_sweep

__all__ = ["CheckResult", "VerificationReport", "run_verification"]

_MIN_VERIFY_PATHS = 1000  # a 3-standard-error suite is meaningless below this


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def _monotone(values: np.ndarray, direction: str) -> bool:
    tol = 1e-10 * max(1.0, float(np.max(np.abs(values))))
    diffs = np.diff(values)
    return bool(np.all(diffs >= -tol) if direction == "inc" else np.all(diffs <= tol))


def _pi_p_rk4_bound(grid: np.ndarray, params: ModelParams) -> np.ndarray:
    """Bound on |RK4 pi_p - closed-form pi_p| at each time of a uniform grid.

    pi_p sees the backward system only through the gap D, which RK4 carries
    as the scalar mode ``D' = k D + c``, ``k = delta/zeta``, from ``D(T) = 0``
    (see :func:`alphamv.solver.pi_p_star`).  In ``tau = T - t`` with step h,
    ``D = -c/k + (c/k) e^{-k tau}``.  RK4 is exact on the constant part, and
    multiplies the exponential part by ``R(x) = 1 + x + ... + x^4/24`` per
    step, ``x = -k h``, against ``e^x``.  For ``-6 < x <= 0`` the tail
    ``e^x - R(x) = sum_{j>=5} x^j/j!`` alternates with shrinking terms, so
    ``|e^x - R(x)| <= (kh)^5/120``; on the stable range ``|R|`` and ``e^x``
    are at most 1, so after n steps ``|R^n - e^{nx}| <= n (kh)^5/120`` and
    ``|D_RK4 - D| <= n (kh)^5/120 c/k``.  Rounding adds at most a few units
    of ``eps c/k`` per step of the recurrence, and a few units of eps of the
    numerator ``n0 + gamma zeta hP D`` in the final division.  pi_p moves by
    ``dD / (zeta A)`` when D moves by dD, so the bound at a time n steps
    before T is

        (n ((kh)^5/120 + 4 eps) c/k + 4 eps (|n0|/(gamma zeta hP) + c/k)) / (zeta A)

    with ``c = n0^2 / (gamma zeta^2 hP)`` and ``n0 = delta - zeta hP``.
    """
    eps = np.finfo(float).eps
    n0 = params.bond_excess_drift
    k = params.h_q
    d_max = n0 * n0 / (params.gamma * params.zeta ** 2 * params.hP) / k   # c/k >= |D|
    steps = np.arange(grid.size - 1, -1, -1)
    kh = k * params.T / (grid.size - 1)
    truncation = kh ** 5 / 120.0
    rounding = 4.0 * eps * (abs(n0) / (params.gamma * params.zeta * params.hP) + d_max)
    return ((steps * (truncation + 4.0 * eps) * d_max + rounding)
            / (params.zeta * params.discount_to_horizon(grid)))


def run_verification(params: ModelParams, claims: ClaimModelSpec,
                     numerics: NumericsConfig) -> VerificationReport:
    """Run the full oracle suite at the configured Monte Carlo scale."""
    if numerics.mc_paths < _MIN_VERIFY_PATHS:
        raise ValidationError(
            "paths too few",
            f"paths too few for verification: mc_paths={numerics.mc_paths} < {_MIN_VERIFY_PATHS}",
        )
    measure = build_measure(claims, numerics.quad_nodes)
    solution = solve_equilibrium(params, measure, numerics)
    dist = distortions(solution, params, numerics.exp_cap)
    checks: list[CheckResult] = []

    # --- Monte Carlo runs: one per (side, default state) -------------------
    n, dt, seed = numerics.mc_paths, numerics.mc_dt, numerics.seed
    samples = {}
    for i, (side, tag) in enumerate(((dist.lo, "lo"), (dist.hi, "hi"))):
        for h in (1, 0):
            x_T, default_time, _ = simulate_terminal(
                solution, side, params, measure, n, dt, seed + i + 10 * h,
                x0=params.x0, h0=h)
            samples[(tag, h)] = (x_T, default_time)

    erT = math.exp(params.r * params.T)

    # g-intercept oracles: distorted means against the backward intercepts
    for (tag, h), b in (
        (("lo", 1), solution.coeffs.b1_lo), (("lo", 0), solution.coeffs.b0_lo),
        (("hi", 1), solution.coeffs.b1_hi), (("hi", 0), solution.coeffs.b0_hi),
    ):
        x_T, _ = samples[(tag, h)]
        target = erT * params.x0 + b[0]
        se = float(x_T.std(ddof=1) / math.sqrt(x_T.size))
        diff = float(x_T.mean() - target)
        checks.append(CheckResult(
            f"g_intercept_{tag}_h{h}", abs(diff) <= 3 * se,
            f"|mean - (e^rT x0 + b)| = {abs(diff):.3e} vs 3*SE = {3 * se:.3e}",
        ))

    # value identity: alpha J_lo + (1-alpha) J_hi against e^{rT} x0 + B_h(0)
    for h in (1, 0):
        est_lo = objective_from_terminal(samples[("lo", h)][0], dist.lo, params, measure)
        est_hi = objective_from_terminal(samples[("hi", h)][0], dist.hi, params, measure)
        value = params.alpha * est_lo.j_value + params.alpha_hat * est_hi.j_value
        se = math.hypot(params.alpha * est_lo.std_error, params.alpha_hat * est_hi.std_error)
        target = value_function(0.0, params.x0, h, solution.coeffs)
        diff = value - target
        checks.append(CheckResult(
            f"value_identity_h{h}", abs(diff) <= 3 * se,
            f"|alphaJ_lo+alpha_hat*J_hi - V| = {abs(diff):.3e} vs 3*SE = {3 * se:.3e}",
        ))

    # default frequency against the exponential law
    x_T, default_time = samples[("lo", 0)]
    frac = float(np.mean(~np.isnan(default_time)))
    p_def = 1.0 - math.exp(-params.hP * params.T)
    se = math.sqrt(max(p_def * (1 - p_def), 1e-300) / x_T.size)
    checks.append(CheckResult(
        "default_frequency", abs(frac - p_def) <= 3 * se,
        f"|{frac:.5f} - {p_def:.5f}| vs 3*SE = {3 * se:.3e}",
    ))

    # --- algebraic distortion identities ------------------------------------
    rng = np.random.default_rng(numerics.seed)
    ts = rng.uniform(0.0, params.T, 10_000)
    zs = rng.uniform(measure.nodes[0], measure.nodes[-1], 10_000)
    sign_err = max(
        float(np.max(np.abs(dist.phi1_hi(ts) + dist.phi1_lo(ts)))),
        float(np.max(np.abs(dist.phi2_hi(ts) + dist.phi2_lo(ts)))),
    )
    prod_err = float(np.max(np.abs(
        (1.0 - dist.phi3_lo(ts, zs)) * (1.0 - dist.phi3_hi(ts, zs)) - 1.0)))
    checks.append(CheckResult(
        "distortion_sign_identity", sign_err <= 1e-12,
        f"max |phi_hi + phi_lo| = {sign_err:.3e} (tol 1e-12)",
    ))
    checks.append(CheckResult(
        "distortion_product_identity", prod_err <= 1e-12,
        f"max |(1-phi3_lo)(1-phi3_hi) - 1| = {prod_err:.3e} (tol 1e-12)",
    ))

    # informational: largest distortion magnitudes over the grid
    phi3_grid = dist.phi3_lo(solution.fine_grid[:, None], measure.nodes[None, :])
    mags = (
        float(np.max(np.abs(dist.phi1_lo(solution.fine_grid)))),
        float(np.max(np.abs(dist.phi2_lo(solution.fine_grid)))),
        float(np.max(np.abs(phi3_grid))),
    )
    checks.append(CheckResult(
        "distortion_magnitudes", True,
        f"max|phi1| = {mags[0]:.3e}, max|phi2| = {mags[1]:.3e}, max|phi3| = {mags[2]:.3e}",
    ))

    # --- root uniqueness at a few times -------------------------------------
    scan_counts = scan_foc_sign_changes(np.linspace(0.0, params.T, 11), params, measure,
                                        10_000, numerics.exp_cap)
    checks.append(CheckResult(
        "foc_single_sign_change", bool(np.all(scan_counts == 1)),
        f"sign changes over 10^4-point scans at 11 times: {sorted(set(scan_counts.tolist()))}",
    ))

    # --- RK4 bond amount against its closed form ------------------------------
    dev = np.abs(solution.pi_p - pi_p_star(solution.grid, params))
    bound = _pi_p_rk4_bound(solution.grid, params)
    checks.append(CheckResult(
        "pi_p_closed_form", bool(np.all(dev <= bound)),
        f"max |pi_p(RK4) - pi_p closed form| = {float(np.max(dev)):.3e}, "
        f"at most {float(np.max(dev / np.maximum(bound, np.finfo(float).tiny))):.3g} "
        "of the RK4 error bound",
    ))

    # --- directional suite ---------------------------------------------------
    # the delta, zeta and hP sweeps stay within delta >= zeta hP, where the
    # model is defined, on ranges of positive width (the solve above has
    # already rejected zeta = 0 and hP = 0)
    delta_lo = params.zeta * params.hP
    zeta_hi = min(1.0, params.delta / params.hP)
    hP_hi = min(5e-3, params.delta / params.zeta)
    directions = [
        ("alpha", 0.5, 1.0, "pi_q0", "dec"),
        ("beta3", 0.01, 1.0, "pi_q0", "dec"),
        ("gamma", 0.1, 2.0, "pi_q0", "dec"),
        ("mu", 0.06, 0.2, "pi_s0", "inc"),
        ("sigma2", 0.1, 0.5, "pi_s0", "dec"),
        ("delta", delta_lo, max(0.05, 2 * delta_lo), "pi_p0", "inc"),
        ("zeta", min(0.05, zeta_hi / 20), zeta_hi, "pi_p0", "dec"),
        ("alpha", 0.5, 1.0, "pi_p0", "inc"),
        ("hP", min(2e-4, hP_hi / 25), hP_hi, "pi_p0", "dec"),
    ]
    for param, lo, hi, quantity, want in directions:
        spec = SweepSpec.from_range(param, lo, hi, 20, quantity)
        result = run_sweep(params, claims, numerics, spec)
        values = result.ok_values()
        if values.size < 2:
            # a sweep whose points the model rejects says nothing about monotonicity
            checks.append(CheckResult(
                f"monotone_{quantity}_vs_{param}", False,
                f"only {values.size} of {len(result.rows)} points solved; need at least 2",
            ))
            continue
        ok = _monotone(values, want)
        checks.append(CheckResult(
            f"monotone_{quantity}_vs_{param}", ok,
            f"{'non' if not ok else ''}monotone ({want}) over {values.size} points, "
            f"range [{values[0]:.6g}, {values[-1]:.6g}]",
        ))
    checks.append(CheckResult(
        "monotone_pi_q_vs_t", _monotone(solution.pi_q, "inc"),
        f"pi_q over the time grid, range [{solution.pi_q[0]:.6g}, {solution.pi_q[-1]:.6g}]",
    ))

    # sign conditions of the stock strategy (finite differences)
    eps = 1e-6
    def dpi_s_dt(p: ModelParams) -> float:
        return float((pi_s_star(eps, p) - pi_s_star(0.0, p)) / eps)
    p_up = replace_param(params, claims, numerics, "mu", params.r + 0.05)[0]
    p_dn = replace_param(params, claims, numerics, "mu", params.r - 0.02)[0]
    sign_t = dpi_s_dt(p_up) > 0 and dpi_s_dt(p_dn) < 0
    def dpi_s_dsigma1(rho: float) -> float:
        base = replace_param(params, claims, numerics, "rho", rho)[0]
        bumped = replace_param(base, claims, numerics, "sigma1", params.sigma1 + eps)[0]
        return float((pi_s_star(0.0, bumped) - pi_s_star(0.0, base)) / eps)
    sign_s1 = dpi_s_dsigma1(-0.5) > 0 and dpi_s_dsigma1(0.5) < 0
    checks.append(CheckResult(
        "pi_s_sign_conditions", sign_t and sign_s1,
        "d pi_s/dt sign follows sign(mu - r); d pi_s/d sigma1 sign follows -sign(rho)",
    ))

    return VerificationReport(checks=tuple(checks))
