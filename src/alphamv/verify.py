"""Cross-checks between the backward solver and the forward Monte Carlo engine.

Every check is an oracle from an independent route: distorted-measure means
against the backward mean intercepts, the assembled alpha-robust objective
against the closed-form value, algebraic distortion identities, directional
sweeps, and the default-time law.  The report prints one pass/fail line per
check with the measured discrepancy.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .config import ClaimModelSpec, ModelParams, NumericsConfig, replace_param
from .errors import SaturationWarning, ValidationError
from .levy import build_measure
from .simulate import _alpha_mix, _integrate_penalty, _score, simulate_terminal
from .solver import (_stock_coefficients, distortions, pi_p_star, pre_default_system,
                     reinsurance_foc, rk4_stable_steps, scan_foc_sign_changes,
                     solve_equilibrium, value_function)
from .sweep import SweepSpec, _run_sweeps

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


def _monotone(values: np.ndarray, steps) -> bool:
    # steps: each step's expected sign, or one for all; 0 leaves a step unjudged
    tol = 1e-10 * max(1.0, float(np.max(np.abs(values))))
    return bool(np.all(np.diff(values) * steps >= -tol))


def _step_signs(slopes: np.ndarray) -> tuple[np.ndarray, str]:
    """Each sweep step's expected sign, and the direction the steps read as.

    ``slopes`` has the sign of the analytic derivative at each sweep point; a
    step takes that sign where its two ends agree, else 0 (not judged).
    """
    s = np.sign(slopes)
    steps = np.where(s[:-1] == s[1:], s[:-1], 0.0)
    n_inc, n_dec = int(np.sum(steps > 0)), int(np.sum(steps < 0))
    if n_inc == steps.size or n_dec == steps.size:
        return steps, "inc" if n_inc else "dec"
    return steps, f"inc {n_inc}, dec {n_dec}, unjudged {steps.size - n_inc - n_dec} steps"


# Signs of analytic derivatives at swept values x, the other parameters from p.
# pi_s0 = (a - b sigma2) / (sigma2^2 D), with a = (mu - r) e^{-rT}, b = sigma1
# rho (gamma + (2 alpha - 1) beta1) and D > 0 free of sigma2, has the slope
# (b sigma2 - 2 a) / (sigma2^3 D).  pi_p0 = n0 (zeta hP + n0 E) / (gamma delta
# zeta^2 hP e^{rT}), with n0 = delta - zeta hP and E = e^{-delta T/zeta}, has
# a delta-slope of the sign below and a zeta-slope of the value below over
# gamma delta zeta^3 hP e^{rT}.
def _dpi_s0_dsigma2(p: ModelParams, x: np.ndarray) -> np.ndarray:
    b = p.sigma1 * p.rho * (p.gamma + (2.0 * p.alpha - 1.0) * p.beta1)
    return b * x - 2.0 * (p.mu - p.r) * math.exp(-p.r * p.T)


def _dpi_p0_ddelta(p: ModelParams, x: np.ndarray) -> np.ndarray:
    zh, n0, kT = p.zeta * p.hP, x - p.zeta * p.hP, x * p.T / p.zeta
    return zh * zh + n0 * np.exp(-kT) * (x + zh - n0 * kT)


def _dpi_p0_dzeta(p: ModelParams, x: np.ndarray) -> np.ndarray:
    zh, n0, kT = x * p.hP, p.delta - x * p.hP, p.delta * p.T / x
    E = np.exp(-kT)
    return n0 * n0 * E * (kT - 2.0) - zh * (n0 + zh) - 2.0 * n0 * zh * E


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


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_verification(params: ModelParams, claims: ClaimModelSpec,
                     numerics: NumericsConfig) -> VerificationReport:
    """Run the full oracle suite at the configured Monte Carlo scale.

    Two Monte Carlo runs, one per extremal side, run on a thread pool of
    ``min(2, usable CPUs)`` workers.  Each reads both default states off one
    set of draws (``simulate_terminal(..., h0=(1, 0))``), the lo side from
    ``seed`` and the hi side from ``seed + 1``, so the report is the same
    for any worker count.  The h0 = 0 samples and ``default_frequency`` are
    those of one h0 = 0 run per side at those seeds; the h0 = 1 samples
    share their draws.  The lo and hi runs draw from different seeds, so
    the two sides of ``value_identity`` stay independent and its standard
    error adds theirs in quadrature.  Both rows of a side are scored from
    one penalty integral.

    The calling thread waits only for the first side to finish.  It then
    runs the deterministic checks (the distortion identities, the FOC scan
    and residual, the RK4 check, the directional suite and the stock signs)
    on the core that side freed, while the slower side finishes, and
    collects that side last.  A side's error is raised in preference to one
    from the deterministic checks, as when the sides ran first, and the
    pool's workers are joined before the call returns or raises.  The
    report lists the Monte Carlo lines first, whatever finished first.
    The ``pi_p_closed_form`` check runs RK4 on the solution grid, or on
    :func:`alphamv.solver.rk4_stable_steps` steps when the bond mode is past
    RK4's stability limit on that grid.
    """
    if numerics.mc_paths < _MIN_VERIFY_PATHS:
        raise ValidationError(
            "paths too few",
            f"paths too few for verification: mc_paths={numerics.mc_paths} < {_MIN_VERIFY_PATHS}",
        )
    measure = build_measure(claims, numerics.quad_nodes)
    solution = solve_equilibrium(params, measure, numerics)
    dist = distortions(solution, params)

    # the draws and segment sums release the GIL; imported here because it
    # adds 6-8 ms to `import alphamv.cli`, which every CLI command pays
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    n, dt, seed = numerics.mc_paths, numerics.mc_dt, numerics.seed
    with ThreadPoolExecutor(max_workers=min(2, _usable_cpus())) as pool:
        sides = [pool.submit(simulate_terminal, solution, getattr(dist, tag), params, measure,
                             n, dt, seed + i, x0=params.x0, h0=(1, 0))
                 for i, tag in enumerate(("lo", "hi"))]
        wait(sides, return_when=FIRST_COMPLETED)
        try:
            deterministic = _deterministic_checks(params, claims, numerics, measure,
                                                  solution, dist)
        finally:
            # a side's error replaces the deterministic checks' own
            (x_lo, default_time, _), (x_hi, _, _) = (side.result() for side in sides)
    lo, hi = (_side_estimates(x_T, side, params, measure)
              for x_T, side in ((x_lo, dist.lo), (x_hi, dist.hi)))
    return VerificationReport(checks=(
        *_monte_carlo_checks(params, solution, lo, hi, default_time), *deterministic))


def _side_estimates(x_T: np.ndarray, side, params: ModelParams, measure) -> list:
    """A side's objective estimates, one per row of its sample, from one penalty integral.

    Each is :func:`~alphamv.simulate.objective_from_terminal` of its row,
    bit for bit.
    """
    penalty = _integrate_penalty(side, params, measure, 0.0)
    return [_score(row, penalty, side.sign, params.gamma) for row in x_T]


def _monte_carlo_checks(params: ModelParams, solution, lo: list, hi: list,
                        default_time: np.ndarray) -> list[CheckResult]:
    """The g-intercept, value-identity and default-frequency lines.

    ``lo`` and ``hi`` are each side's estimates at h0 = 1 and h0 = 0;
    ``default_time`` is the lo side's.
    """
    checks = []
    # g-intercept oracles: distorted means against the backward intercepts
    for name, est, b in (
        ("lo_h1", lo[0], solution.b1_lo), ("lo_h0", lo[1], solution.b0_lo),
        ("hi_h1", hi[0], solution.b1_hi), ("hi_h0", hi[1], solution.b0_hi),
    ):
        target = math.exp(params.r * params.T) * params.x0 + b[0]
        se = math.sqrt(est.variance / est.n_paths)
        diff = est.mean - target
        checks.append(CheckResult(
            f"g_intercept_{name}", abs(diff) <= 3 * se,
            f"|mean - (e^rT x0 + b)| = {abs(diff):.3e} vs 3*SE = {3 * se:.3e}",
        ))

    # value identity: alpha J_lo + (1-alpha) J_hi against e^{rT} x0 + B_h(0)
    for row, h in enumerate((1, 0)):
        value, se = _alpha_mix(lo[row], hi[row], params)
        target = value_function(0.0, params.x0, h, solution)
        diff = value - target
        checks.append(CheckResult(
            f"value_identity_h{h}", abs(diff) <= 3 * se,
            f"|alphaJ_lo+alpha_hat*J_hi - V| = {abs(diff):.3e} vs 3*SE = {3 * se:.3e}",
        ))

    # default frequency against the exponential law
    frac = float(np.mean(~np.isnan(default_time)))
    p_def = 1.0 - math.exp(-params.hP * params.T)
    se = math.sqrt(max(p_def * (1 - p_def), 1e-300) / default_time.size)
    checks.append(CheckResult(
        "default_frequency", abs(frac - p_def) <= 3 * se,
        f"|{frac:.5f} - {p_def:.5f}| vs 3*SE = {3 * se:.3e}",
    ))
    return checks


def _deterministic_checks(params: ModelParams, claims: ClaimModelSpec,
                          numerics: NumericsConfig, measure, solution,
                          dist) -> list[CheckResult]:
    """Every line of the report that reads no Monte Carlo sample, in report order."""
    checks: list[CheckResult] = []
    # --- algebraic distortion identities ------------------------------------
    rng = np.random.default_rng(numerics.seed)
    ts = rng.uniform(0.0, params.T, 10_000)
    zs = rng.uniform(measure.nodes[0], measure.nodes[-1], 10_000)
    sign_err = max(
        float(np.max(np.abs(dist.hi.phi1(ts) + dist.lo.phi1(ts)))),
        float(np.max(np.abs(dist.hi.phi2(ts) + dist.lo.phi2(ts)))),
    )
    # 1 - phi3 = exp(clip(x)) read off the tilt exponent: on the hi side
    # 1 - phi3 itself would cancel to about eps e^x
    lo_factor, hi_factor = (np.exp(np.clip(side.exponent(zs), -side.exp_cap, side.exp_cap))
                            for side in (dist.lo, dist.hi))
    prod_err = float(np.max(np.abs(lo_factor * hi_factor - 1.0)))
    checks.append(CheckResult(
        "distortion_sign_identity", sign_err <= 1e-12,
        f"max |phi_hi + phi_lo| = {sign_err:.3e} (tol 1e-12)",
    ))
    checks.append(CheckResult(
        "distortion_product_identity", prod_err <= 1e-12,
        f"max |(1-phi3_lo)(1-phi3_hi) - 1| = {prod_err:.3e} (tol 1e-12)",
    ))

    # informational: largest distortion magnitudes over the grid (the jump
    # tilt is the same at every t)
    mags = (
        float(np.max(np.abs(dist.lo.phi1(solution.grid)))),
        float(np.max(np.abs(dist.lo.phi2(solution.grid)))),
        float(np.max(np.abs(dist.lo.phi3(0.0, measure.nodes)))),
    )
    checks.append(CheckResult(
        "distortion_magnitudes", True,
        f"max|phi1| = {mags[0]:.3e}, max|phi2| = {mags[1]:.3e}, max|phi3| = {mags[2]:.3e}",
    ))

    # --- root uniqueness: F(t, .) = A(t) f(. A(t)), so one scan of f serves every t
    sign_changes, = scan_foc_sign_changes(0.0, params, measure, 10_000, numerics.exp_cap)
    checks.append(CheckResult(
        "foc_single_sign_change", bool(sign_changes == 1),
        "sign changes of f over one 10^4-point scan of its root bracket, which serves "
        f"every t: {sign_changes}",
    ))

    # --- the solved pi_q is the root: its residual within the solver's bound --
    with warnings.catch_warnings():     # the solve has already reported a saturation
        warnings.simplefilter("ignore", SaturationWarning)
        residual = np.abs(reinsurance_foc(solution.grid, solution.pi_q, params, measure,
                                          numerics.exp_cap))
    foc_bound = (numerics.root_tol * params.eta * measure.moment(1)
                 * params.discount_to_horizon(solution.grid))
    foc_ratio = float(np.max(residual / foc_bound))
    checks.append(CheckResult(
        "foc_residual", foc_ratio <= 1.0,       # NaN fails
        f"max |F(t, pi_q)| = {float(np.max(residual)):.3e}, at most {foc_ratio:.3g} "
        "of root_tol eta A(t) int z nu(dz)",
    ))

    # --- RK4 bond amount against its closed form ------------------------------
    # on the solution grid, or on the fewest steps RK4 is stable on when the
    # bond mode is too fast for that grid
    rk4_steps = max(numerics.time_steps, rk4_stable_steps(params))
    grid = np.linspace(0.0, params.T, rk4_steps + 1)
    pi_p_rk4, _, _, _ = pre_default_system(solution, rk4_steps)
    dev = np.abs(pi_p_rk4 - pi_p_star(grid, params))
    bound = _pi_p_rk4_bound(grid, params)
    checks.append(CheckResult(
        "pi_p_closed_form", bool(np.all(dev <= bound)),
        f"max |pi_p(RK4) - pi_p closed form| = {float(np.max(dev)):.3e}, "
        f"at most {float(np.max(dev / np.maximum(bound, np.finfo(float).tiny))):.3g} "
        "of the RK4 error bound"
        + ("" if rk4_steps == numerics.time_steps
           else f" on {rk4_steps} steps (the stable minimum)"),
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
        ("sigma2", 0.1, 0.5, "pi_s0", _dpi_s0_dsigma2),
        ("delta", delta_lo, max(0.05, 2 * delta_lo), "pi_p0", _dpi_p0_ddelta),
        ("zeta", min(0.05, zeta_hi / 20), zeta_hi, "pi_p0", _dpi_p0_dzeta),
        ("alpha", 0.5, 1.0, "pi_p0", "inc"),
        ("hP", min(2e-4, hP_hi / 25), hP_hi, "pi_p0", "dec"),
    ]
    # one lane batch per quantity
    results = _run_sweeps(params, claims, numerics, [
        SweepSpec.from_range(param, lo, hi, 20, quantity)
        for param, lo, hi, quantity, _ in directions])
    for (param, _, _, quantity, want), result in zip(directions, results):
        values = result.ok_values()
        if values.size < 2:
            # a sweep whose points the model rejects says nothing about monotonicity
            checks.append(CheckResult(
                f"monotone_{quantity}_vs_{param}", False,
                f"only {values.size} of {len(result.rows)} points solved; need at least 2",
            ))
            continue
        if callable(want):
            # these quantities are not monotone on the whole valid domain: each
            # step takes the analytic derivative's sign at its swept values
            steps, want = _step_signs(want(params, np.array(
                [row.value for row in result.rows if row.status == "ok"])))
        else:
            steps = 1.0 if want == "inc" else -1.0
        ok = _monotone(values, steps)
        checks.append(CheckResult(
            f"monotone_{quantity}_vs_{param}", ok,
            f"{'non' if not ok else ''}monotone ({want}) over {values.size} points, "
            f"range [{values[0]:.6g}, {values[-1]:.6g}]",
        ))
        if (param, quantity) == ("alpha", "pi_p0"):
            # pi_p_star does not read alpha: the sweep is constant to rounding
            dev = float(np.max(np.abs(values - values[0])))
            tol = 4.0 * float(np.spacing(np.max(np.abs(values))))
            checks.append(CheckResult(
                "invariant_pi_p0_vs_alpha", dev <= tol,     # NaN fails
                f"max |pi_p0 - pi_p0 at the first point| = {dev:.3e} over {values.size} "
                f"points vs 4 ulp of max|pi_p0| = {tol:.3e}",
            ))
    checks.append(CheckResult(
        "monotone_pi_q_vs_t", _monotone(solution.pi_q, 1.0),
        f"pi_q over the time grid, range [{solution.pi_q[0]:.6g}, {solution.pi_q[-1]:.6g}]",
    ))

    # sign conditions of the stock strategy: pi_s = s0 e^{-r(T-t)} + s1, so
    # d pi_s/dt = r s0 e^{-r(T-t)} has the sign of s0; s1 is linear in sigma1,
    # so its slope in sigma1 is s1 at sigma1 = 1
    def stock(**values: float) -> tuple[float, float]:
        p = params
        for key, value in values.items():
            p = replace_param(p, claims, numerics, key, value)[0]
        return _stock_coefficients(p)
    sign_t = stock(mu=params.r + 0.05)[0] > 0 and stock(mu=params.r - 0.02)[0] < 0
    sign_s1 = stock(rho=-0.5, sigma1=1.0)[1] > 0 and stock(rho=0.5, sigma1=1.0)[1] < 0
    checks.append(CheckResult(
        "pi_s_sign_conditions", sign_t and sign_s1,
        "d pi_s/dt sign follows sign(mu - r); d pi_s/d sigma1 sign follows -sign(rho)",
    ))

    return checks
