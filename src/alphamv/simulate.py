"""Monte Carlo engine for the controlled wealth process.

Samples the wealth SDE under the reference measure or under either extreme
distorted measure, and assembles the mean-variance-plus-penalty objective.
This is the independent oracle for the solver's value coefficients: the
solver integrates backward equations, the simulator samples the forward
dynamics, and the two must meet within Monte Carlo error.

Sampling is exact given the jumps (Glasserman, *Monte Carlo Methods in
Financial Engineering*, 2003, ch. 3).  Strategies and distortions depend
only on time, so the wealth SDE is linear with deterministic coefficients:

    X(T) = e^{r(T-t0)} x0 + C_drift(T) + C_bond(min(tau, T)) + sqrt(V(T)) z
           - sum_i e^{r(T-tau_i)} pi_q(tau_i) Z_i - e^{r(T-tau)} zeta pi_p(tau)

with one normal z per path for both Brownian drivers.  C_drift, C_bond and V
are trapezoid integrals, on the ``dt`` grid, of the drift, the pre-default
bond drift and the variance rate, discounted to T.  The default time is
drawn by inversion.

The jump tilt ``1 - phi3 = exp(a z + b z^2)`` is carried as its
coefficients.  When they do not depend on t (the reference measure and both
equilibrium sides, since ``pi_q(t) A(t) = u*``), the distorted claims are a
homogeneous compound Poisson process: a Poisson(Lambda (T - t0)) count per
path with ``Lambda = int (1 - phi3) nu``, and sizes drawn once, exactly, from
the tilted size law (for truncated-normal sizes, again a truncated normal).
For a strategy that carries ``u_star`` the discounted amount of a claim is
``u* Z``, so X(T) needs no claim times; they are drawn, uniform on
[t0, T), only for a strategy without ``u_star`` or for recorded paths.  A
time-varying tilt (the extremal measures of a perturbed strategy) needs
thinning (Lewis & Shedler, *Naval Research Logistics Quarterly* 26, 1979):
proposals at the maximal rate are kept with the intensity tabulated per
``dt`` step, and each kept claim's size is drawn from the law tilted at its
step.

Reproducibility: paths are partitioned into fixed-size blocks and each block
draws from its own ``SeedSequence(seed, spawn_key=(block,))`` stream, so
results are bit-identical for a given (config, seed) regardless of how blocks
would be scheduled across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import ModelParams
from .errors import NumericalError, ValidationError
from .levy import ClaimMeasure, sample_truncated_sizes
from .solver import DistortionFunctions, DistortionSide, penalty_rate

__all__ = [
    "ConstantStrategy",
    "WealthPath",
    "ObjectiveEstimate",
    "simulate_wealth",
    "simulate_terminal",
    "estimate_objective",
    "objective_from_terminal",
    "alpha_robust_value",
    "bond_price_path",
    "dump_paths_csv",
]

BLOCK_SIZE = 65536
_PATH_STORAGE_LIMIT = 20_000_000  # floats; guards accidental full-path runs
_RECORD_FLOATS = 1 << 20  # work-buffer size when recording trajectories


@dataclass(frozen=True)
class ConstantStrategy:
    """Time-constant strategy override (pi_q must be nonnegative)."""

    pi_q: float = 0.0
    pi_s: float = 0.0
    pi_p: float = 0.0

    def __post_init__(self) -> None:
        if self.pi_q < 0:
            raise ValidationError("pi_q<0", "reinsurance exposure must satisfy pi_q >= 0")

    def pi_q_at(self, t):
        return np.broadcast_to(self.pi_q, np.shape(t)).copy() if np.ndim(t) else self.pi_q

    def pi_s_at(self, t):
        return np.broadcast_to(self.pi_s, np.shape(t)).copy() if np.ndim(t) else self.pi_s

    def pi_p_at(self, t):
        return np.broadcast_to(self.pi_p, np.shape(t)).copy() if np.ndim(t) else self.pi_p


@dataclass(frozen=True)
class WealthPath:
    """One simulated trajectory with jump and default bookkeeping.

    ``default_state`` is H(s_k); it jumps 0 -> 1 at most once and stays there.
    After default the bond terms contribute nothing (0/0 = 0 convention).
    ``claim_log`` holds (arrival time, raw claim size) pairs.
    """

    times: np.ndarray
    wealth: np.ndarray
    default_state: np.ndarray
    default_time: Optional[float]
    claim_log: list

    def __post_init__(self) -> None:
        h = np.asarray(self.default_state)
        if np.any(np.diff(h.astype(int)) < 0):
            raise ValidationError("H_monotone", "default indicator must be nondecreasing")


@dataclass(frozen=True)
class ObjectiveEstimate:
    """Monte Carlo estimate of one side of the robust objective."""

    mean: float
    variance: float
    penalty: float       # integral of the penalty rate over [t, T] (>= 0)
    j_value: float       # mean - gamma/2 variance + sign * penalty
    std_error: float     # delta-method standard error of j_value
    n_paths: int


def _cumtrapz(f: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid integral on a uniform grid; entry k covers [t0, t_k]."""
    out = np.zeros_like(f)
    np.cumsum(0.5 * h * (f[1:] + f[:-1]), out=out[1:])
    return out


class _RunTables:
    """Per-run deterministic tables shared by all blocks.

    ``c_drift``, ``c_bond`` and ``var`` integrate the drift, the pre-default
    bond drift and the variance rate, discounted to T, from t0 to each grid time.
    """

    def __init__(self, strategy, side: Optional[DistortionSide],
                 params: ModelParams, measure: ClaimMeasure,
                 t0: float, dt: float):
        horizon = params.T - t0
        n_steps = max(1, int(round(horizon / dt)))
        self.dt = horizon / n_steps
        self.n_steps = n_steps
        self.times = times = t0 + self.dt * np.arange(n_steps + 1)
        mids = times[:-1] + 0.5 * self.dt

        pi_q = np.asarray(strategy.pi_q_at(times), dtype=float)
        pi_s = np.asarray(strategy.pi_s_at(times), dtype=float)
        pi_p = np.asarray(strategy.pi_p_at(times), dtype=float)
        if np.any(pi_q < 0):
            raise ValidationError("pi_q<0", "strategy exposure must satisfy pi_q >= 0")
        self.strategy = strategy

        m1 = measure.moment(1)
        drift = ((params.mu - params.r) * pi_s
                 + (params.theta - params.eta + (1.0 + params.eta) * pi_q) * m1)
        if side is not None:
            drift = drift - ((params.sigma1 + pi_s * params.sigma2 * params.rho)
                             * np.asarray(side.phi1(times), dtype=float)
                             + pi_s * params.sigma2 * params.rho_hat
                             * np.asarray(side.phi2(times), dtype=float))
        v1 = params.sigma1 + pi_s * params.sigma2 * params.rho
        v2 = pi_s * params.sigma2 * params.rho_hat
        self.growth = np.exp(params.r * (times[-1] - times))   # e^{r(T-t)}
        self.c_drift = _cumtrapz(self.growth * drift, self.dt)
        # pre-default bond drift pi_p * delta: the (1 - Delta) delta price drift
        # plus the zeta hP compensator of the default martingale term
        self.c_bond = _cumtrapz(self.growth * params.delta * pi_p, self.dt)
        self.var = _cumtrapz(self.growth ** 2 * (v1 * v1 + v2 * v2), self.dt)

        # distorted claim measure: 1 - phi3 = exp(a z + b z^2), intensity
        # int (1 - phi3) nu.  The coefficients and the intensity are scalars
        # when the tilt does not depend on t (the reference measure and every
        # equilibrium side), else one per step, at the step midpoints.
        self.tilt = (np.zeros(()), np.zeros(()))
        self.claim_intensity = np.asarray(measure.spec.lam, dtype=float)
        if side is not None:
            self.tilt = tuple(np.asarray(c, dtype=float) for c in side.tilt(mids))
            a, b = (c[..., None] for c in self.tilt)
            expo = a * measure.nodes + b * measure.nodes ** 2
            if np.max(np.abs(expo)) > side.exp_cap:
                raise NumericalError(
                    f"jump-tilt exponent reaches exp_cap={side.exp_cap:g} on the claim "
                    "quadrature nodes; the distorted size law is not an exact tilt there")
            self.claim_intensity = np.exp(expo) @ measure.weights
        # with the strategy's u* the discounted amount of a claim Z is u* Z
        self.u_star = getattr(strategy, "u_star", None)


def _simulate_block(rng: np.random.Generator, n_block: int, tables: _RunTables,
                    params: ModelParams, measure: ClaimMeasure,
                    x0: float, h0: int, wealth: Optional[np.ndarray] = None):
    """Sample one block of exact terminal wealths, with their bookkeeping.

    Draw order for a constant tilt: default times, claim counts, sizes, one
    terminal normal per path, claim times (only when the amounts or the
    recording read them), and only when ``wealth`` (a block x grid view to
    fill) is given the bridge increments.  A time-varying tilt thins: default
    times, proposal counts, proposal times, thinning uniforms, sizes, the
    terminal normal, the bridge increments.  Either way recording leaves the
    terminal sample unchanged bit for bit.
    """
    times = tables.times
    t0, T = times[0], times[-1]
    horizon = T - t0
    n_steps = tables.n_steps
    r = params.r

    # default time by inversion, once per path (undistorted: phi does not act
    # on H); h0 = 1 means the bond is already gone: no bond drift, no lump
    tau = np.full(n_block, t0 if h0 == 1 else np.inf)
    default_time = np.full(n_block, np.nan)
    jump = np.zeros(n_block)
    if h0 == 0 and params.hP > 0:
        tau = t0 + rng.exponential(1.0 / params.hP, size=n_block)
        hit = tau <= T
        default_time[hit] = tau[hit]
        jump[hit] = params.zeta * np.exp(r * (T - tau[hit])) \
            * np.asarray(tables.strategy.pi_p_at(tau[hit]), dtype=float)
    tau = np.minimum(tau, T)

    claim_time = None
    if tables.claim_intensity.ndim == 0:
        # homogeneous compound Poisson: the counts need no claim times
        counts = rng.poisson(float(tables.claim_intensity) * horizon, size=n_block)
        claim_path = np.repeat(np.arange(n_block), counts)
        tilt = tables.tilt
    else:
        # homogeneous Poisson at the maximal rate, thinned to the intensity of
        # each claim's step
        lam_max = float(np.max(tables.claim_intensity)) * (1.0 + 1e-12)
        counts = rng.poisson(lam_max * horizon, size=n_block)
        total = int(counts.sum())
        claim_path = np.repeat(np.arange(n_block), counts)
        claim_time = t0 + horizon * rng.random(total)
        keep_u = rng.random(total)
        step_idx = np.minimum((claim_time - t0) / tables.dt, n_steps - 1).astype(np.int64)
        keep = keep_u < tables.claim_intensity[step_idx] / lam_max
        claim_path = claim_path[keep]
        claim_time = claim_time[keep]
        step_idx = step_idx[keep]
        counts = np.bincount(claim_path, minlength=n_block)
        tilt = tuple(c if c.ndim == 0 else c[step_idx] for c in tables.tilt)

    # sizes: one exact draw per claim from the size law tilted at its time
    sizes = sample_truncated_sizes(measure.spec, claim_path.size, rng, *tilt)
    z = rng.standard_normal(n_block)
    u_star = tables.u_star
    if claim_time is None and (u_star is None or wealth is not None):
        claim_time = t0 + horizon * rng.random(claim_path.size)

    # claims discounted to T from their own arrival times: u* Z for a
    # strategy with pi_q(t) e^{r(T-t)} = u*
    if u_star is None:
        amounts = np.exp(r * (T - claim_time)) \
            * np.asarray(tables.strategy.pi_q_at(claim_time), dtype=float) * sizes
    else:
        amounts = u_star * sizes
    x_terminal = (tables.growth[0] * x0 + tables.c_drift[-1]
                  + np.interp(tau, times, tables.c_bond) + math.sqrt(tables.var[-1]) * z
                  - np.bincount(claim_path, weights=amounts, minlength=n_block) - jump)
    if wealth is not None:
        _record_block(rng, wealth, tables, x0, z, tau, jump, claim_path, claim_time, amounts)
        wealth[:, -1] = x_terminal
    return {"x_terminal": x_terminal, "default_time": default_time,
            "claim_count": counts,
            "claim_time": claim_time, "claim_size": sizes}


def _record_block(rng, wealth, tables, x0, z, tau, jump, claim_path, claim_time, amounts):
    """Fill ``wealth`` (block x grid) with X(t_k), in row chunks of bounded size.

    The Gaussian part is a bridge pinned to the terminal normal ``z``,
    ``G(t_k) = B_k - V(t_k)/V(T) (B_n - sqrt(V(T)) z)`` with ``B`` an
    independent increment path; claims, default lump and bond cut-off count
    from the first grid time at or after they occur.
    """
    times, var, n_steps = tables.times, tables.var, tables.n_steps
    pin_rate = var[1:] / var[-1] if var[-1] > 0 else np.zeros(n_steps)
    claim_col = np.clip(np.searchsorted(times, claim_time), 1, n_steps) - 1
    rows = max(1, _RECORD_FLOATS // n_steps)
    for lo in range(0, wealth.shape[0], rows):
        hi = min(lo + rows, wealth.shape[0])
        body, t_tau = wealth[lo:hi, 1:], np.minimum(times[1:], tau[lo:hi, None])
        buf = rng.standard_normal(body.shape)   # bridge increments, drawn last
        buf *= np.sqrt(np.diff(var))
        pin = buf.sum(axis=1) - math.sqrt(var[-1]) * z[lo:hi]   # B_n - G(T)
        c = slice(*np.searchsorted(claim_path, (lo, hi)))   # claim_path is sorted
        np.subtract.at(buf, (claim_path[c] - lo, claim_col[c]), amounts[c])
        np.cumsum(buf, axis=1, out=body)
        body -= np.multiply.outer(pin, pin_rate, out=buf)
        body += tables.growth[0] * x0 + tables.c_drift[1:]
        body += np.interp(t_tau, times, tables.c_bond)
        body -= (t_tau == tau[lo:hi, None]) * jump[lo:hi, None]
        body /= tables.growth[1:]
    wealth[:, 0] = x0


def _run_blocks(strategy, side, params, measure, n_paths, dt, seed,
                t0, x0, h0, record=False):
    if n_paths < 1:
        raise ValidationError("n_paths<1", "need at least one path")
    if dt > (params.T - t0) / 10.0:
        raise ValidationError("dt_coarse", f"step must satisfy dt <= (T - t)/10, got dt={dt}")
    if h0 not in (0, 1):
        raise ValidationError("h_range", f"default state must be 0 or 1, got {h0}")
    tables = _RunTables(strategy, side, params, measure, t0, dt)
    wealth = np.empty((n_paths, tables.n_steps + 1)) if record else None
    blocks = []
    for block_idx in range(0, -(-n_paths // BLOCK_SIZE)):
        lo = block_idx * BLOCK_SIZE
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block_idx,)))
        blocks.append(_simulate_block(rng, min(BLOCK_SIZE, n_paths - lo), tables, params, measure,
                                      x0, h0, wealth[lo:lo + BLOCK_SIZE] if record else None))
    keys = ("x_terminal", "default_time", "claim_count")
    keys += ("claim_time", "claim_size") if record else ()
    merged = {key: np.concatenate([b[key] for b in blocks]) for key in keys}
    return tables, merged, wealth


def simulate_terminal(strategy, distortion: Optional[DistortionSide],
                      params: ModelParams, measure: ClaimMeasure,
                      n_paths: int, dt: float, seed: int,
                      t0: float = 0.0, x0: Optional[float] = None, h0: int = 1):
    """Terminal wealth sample without storing trajectories.

    Returns (x_terminal, default_time, claim_count) arrays of length n_paths;
    default_time is NaN for paths that do not default before T.  X(T) is
    exact given the jumps; ``dt`` sets the grid of the trapezoid integrals
    and, for a time-varying tilt, of the claim-thinning table.  Per path the
    draws are the default time, the claims, then one terminal normal.
    """
    x0 = params.x0 if x0 is None else x0
    _, merged, _ = _run_blocks(strategy, distortion, params, measure,
                               n_paths, dt, seed, t0, x0, h0)
    return merged["x_terminal"], merged["default_time"], merged["claim_count"]


def simulate_wealth(strategy, distortion: Optional[DistortionSide],
                    params: ModelParams, measure: ClaimMeasure,
                    n_paths: int, dt: float, seed: int,
                    t0: float = 0.0, x0: Optional[float] = None, h0: int = 1) -> list[WealthPath]:
    """Simulate and materialize full trajectories (small path counts only).

    Trajectories are recorded on the ``dt`` grid.  The terminal draws come
    first and match :func:`simulate_terminal` bit for bit; the Gaussian
    bridge increments between grid times are drawn after them.
    """
    x0 = params.x0 if x0 is None else x0
    if n_paths * (max(1, int(round((params.T - t0) / dt))) + 1) > _PATH_STORAGE_LIMIT:
        raise ValidationError(
            "path_storage",
            "trajectory storage would exceed the safety limit; "
            "use simulate_terminal for large runs",
        )
    tables, merged, wealth = _run_blocks(strategy, distortion, params, measure,
                                         n_paths, dt, seed, t0, x0, h0, record=True)
    times, tau, counts = tables.times, merged["default_time"], merged["claim_count"]
    # claims come grouped by path; order each group by time
    order = np.lexsort((merged["claim_size"], merged["claim_time"],
                        np.repeat(np.arange(n_paths), counts)))
    claims = list(zip(merged["claim_time"][order].tolist(), merged["claim_size"][order].tolist()))
    bounds = np.concatenate(([0], np.cumsum(counts)))
    states = ((times >= tau[:, None]) | (h0 == 1)).astype(np.int8)
    return [WealthPath(times=times, wealth=wealth[i], default_state=states[i],
                       default_time=None if math.isnan(tau[i]) else float(tau[i]),
                       claim_log=claims[bounds[i]:bounds[i + 1]])
            for i in range(n_paths)]


def _integrate_penalty(side: DistortionSide, params: ModelParams,
                       measure: ClaimMeasure, t0: float, n_intervals: int = 2000) -> float:
    """Integral of the penalty rate over [t0, T].

    The drift terms phi1^2/(2 beta1) + phi2^2/(2 beta2) are integrated by
    composite Simpson.  A constant jump tilt (the equilibrium sides) has a
    constant entropy rate: it is evaluated once on the node vector and
    multiplied by T - t0.  A time-varying tilt is tabulated with the drift
    terms on the Simpson nodes.
    """
    ts = np.linspace(t0, params.T, 2 * n_intervals + 1)
    phi1 = np.asarray(side.phi1(ts), dtype=float)
    phi2 = np.asarray(side.phi2(ts), dtype=float)
    jump = 0.0
    if all(np.ndim(c) == 0 for c in side.tilt(ts)):
        jump = penalty_rate(0.0, 0.0, side.phi3(t0, measure.nodes), params, measure) \
            * (params.T - t0)
        phi3 = np.zeros_like(measure.nodes)
    else:
        phi3 = np.asarray(side.phi3(ts[:, None], measure.nodes[None, :]), dtype=float)
    rates = penalty_rate(phi1, phi2, phi3, params, measure)
    h = (params.T - t0) / (2 * n_intervals)
    return float(h / 3.0 * (rates[0] + rates[-1]
                            + 4.0 * rates[1:-1:2].sum() + 2.0 * rates[2:-1:2].sum()) + jump)


def objective_from_terminal(x_T: np.ndarray, distortion: Optional[DistortionSide],
                            params: ModelParams, measure: ClaimMeasure,
                            t: float = 0.0) -> ObjectiveEstimate:
    """Assemble the objective from an existing terminal-wealth sample.

    The penalty integral is deterministic (the distortions are deterministic
    functions) and enters with the distortion side's sign; the standard error
    of the mean-variance part comes from the delta method over the first two
    sample moments.
    """
    n = x_T.size
    m1 = float(np.mean(x_T))
    m2 = float(np.mean(x_T ** 2))
    m3 = float(np.mean(x_T ** 3))
    m4 = float(np.mean(x_T ** 4))
    variance = (m2 - m1 * m1) * n / (n - 1)
    if distortion is None:
        penalty, sign = 0.0, 0
    else:
        penalty = _integrate_penalty(distortion, params, measure, t)
        sign = distortion.sign
    j_value = m1 - 0.5 * params.gamma * variance + sign * penalty
    grad = np.array([1.0 + params.gamma * m1, -0.5 * params.gamma])
    cov = np.array([
        [m2 - m1 * m1, m3 - m1 * m2],
        [m3 - m1 * m2, m4 - m2 * m2],
    ]) / n
    # the quadratic form can round to -0 for degenerate samples
    std_error = math.sqrt(max(0.0, float(grad @ cov @ grad)))
    return ObjectiveEstimate(mean=m1, variance=variance, penalty=penalty,
                             j_value=j_value, std_error=std_error, n_paths=n)


def estimate_objective(strategy, distortion: Optional[DistortionSide],
                       params: ModelParams, measure: ClaimMeasure,
                       t: float, x: float, h: int,
                       n_paths: int, dt: float, seed: int) -> ObjectiveEstimate:
    """Mean-variance-plus-penalty objective under one (possibly distorted) measure."""
    if n_paths < 100:
        raise ValidationError("paths too few", f"paths too few: need n_paths >= 100, got {n_paths}")
    x_T, _, _ = simulate_terminal(strategy, distortion, params, measure,
                                  n_paths, dt, seed, t0=t, x0=x, h0=h)
    return objective_from_terminal(x_T, distortion, params, measure, t)


def alpha_robust_value(strategy, dist: DistortionFunctions,
                       params: ModelParams, measure: ClaimMeasure,
                       t: float, x: float, h: int,
                       n_paths: int, dt: float, seed: int):
    """alpha J_lo + (1 - alpha) J_hi with independent samples per side.

    Returns (value, std_error, estimate_lo, estimate_hi).
    """
    est_lo = estimate_objective(strategy, dist.lo, params, measure, t, x, h,
                                n_paths, dt, seed)
    est_hi = estimate_objective(strategy, dist.hi, params, measure, t, x, h,
                                n_paths, dt, seed + 1)
    value = params.alpha * est_lo.j_value + params.alpha_hat * est_hi.j_value
    std_error = math.hypot(params.alpha * est_lo.std_error,
                           params.alpha_hat * est_hi.std_error)
    return value, std_error, est_lo, est_hi


def bond_price_path(times, default_time: Optional[float], params: ModelParams) -> np.ndarray:
    """Defaultable-bond price along a path timing (exact piecewise formula).

    Pre-default the price accrues at r + delta toward par at T1; at default it
    drops to the recovery fraction (1 - zeta) of its pre-default value and
    accrues at the risk-free rate afterwards.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times > params.T1):
        raise ValidationError("t>T1", "bond prices are defined up to maturity T1")
    pre = np.exp(-(params.r + params.delta) * (params.T1 - times))
    if default_time is None or math.isnan(default_time):
        return pre
    tau = float(default_time)
    post = (1.0 - params.zeta) * math.exp(-(params.r + params.delta) * (params.T1 - tau)) \
        * np.exp(params.r * (times - tau))
    return np.where(times < tau, pre, post)


def dump_paths_csv(paths: Sequence[WealthPath], out_path) -> None:
    """Write one CSV row per (path, grid time): path_id,time,wealth,default_state."""
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("path_id,time,wealth,default_state\n")
        for pid, path in enumerate(paths):
            for t, w, h in zip(path.times, path.wealth, path.default_state):
                fh.write(f"{pid},{t:.17g},{w:.17g},{int(h)}\n")
