"""Monte Carlo engine for the controlled wealth process.

Simulates the wealth SDE under the reference measure or under either extreme
distorted measure, and assembles the mean-variance-plus-penalty objective.
This is the independent oracle for the solver's value coefficients: the
solver integrates backward equations, the simulator steps the forward
dynamics, and the two must meet within Monte Carlo error.

Discretization: Euler-Maruyama for the diffusion part; compound-Poisson
claims are sampled exactly per step (under a distorted measure the claim
measure is (1 - phi3) nu: intensity by thinning, sizes by rejection with a
round cap) and applied at the step midpoint; the default time is drawn once
per path by inversion.  The two Brownian drivers enter only through the wealth equation,
so their combined increment is drawn as a single normal with the aggregated
volatility (identical in law, half the random numbers).

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
_MAX_SIZE_ROUNDS = 1000  # distorted-size rejection rounds before giving up


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


class _RunTables:
    """Per-run deterministic tables shared by all blocks."""

    def __init__(self, strategy, side: Optional[DistortionSide],
                 params: ModelParams, measure: ClaimMeasure,
                 t0: float, dt: float):
        horizon = params.T - t0
        n_steps = max(1, int(round(horizon / dt)))
        self.dt = horizon / n_steps
        self.n_steps = n_steps
        self.times = t0 + self.dt * np.arange(n_steps + 1)
        lefts = self.times[:-1]
        mids = lefts + 0.5 * self.dt
        self.mids = mids

        pi_q_left = np.asarray(strategy.pi_q_at(lefts), dtype=float)
        pi_s_left = np.asarray(strategy.pi_s_at(lefts), dtype=float)
        pi_p_left = np.asarray(strategy.pi_p_at(lefts), dtype=float)
        self.pi_q_mid = np.asarray(strategy.pi_q_at(mids), dtype=float)
        if np.any(pi_q_left < 0) or np.any(self.pi_q_mid < 0):
            raise ValidationError("pi_q<0", "strategy exposure must satisfy pi_q >= 0")
        self.strategy = strategy

        m1 = measure.moment(1)
        drift = ((params.mu - params.r) * pi_s_left
                 + (params.theta - params.eta + (1.0 + params.eta) * pi_q_left) * m1)
        if side is not None:
            drift = drift - ((params.sigma1 + pi_s_left * params.sigma2 * params.rho)
                             * np.asarray(side.phi1(lefts), dtype=float)
                             + pi_s_left * params.sigma2 * params.rho_hat
                             * np.asarray(side.phi2(lefts), dtype=float))
        self.base_drift = drift
        # pre-default bond drift pi_p * delta: the (1 - Delta) delta price drift
        # plus the zeta hP compensator of the default martingale term
        self.bond_drift = pi_p_left * params.delta
        v1 = params.sigma1 + pi_s_left * params.sigma2 * params.rho
        v2 = pi_s_left * params.sigma2 * params.rho_hat
        self.vol = np.sqrt(v1 * v1 + v2 * v2)

        # distorted claim measure per step (evaluated at step midpoints):
        # intensity int (1 - phi3) nu and envelope sup_z (1 - phi3)
        if side is not None:
            tilt = 1.0 - np.asarray(side.phi3(mids[:, None], measure.nodes[None, :]), dtype=float)
            self.claim_intensity = tilt @ measure.weights
            self.claim_envelope = np.max(tilt, axis=1)
        else:
            self.claim_intensity = np.full(n_steps, measure.spec.lam)
            self.claim_envelope = np.ones(n_steps)
        self.lam_max = float(np.max(self.claim_intensity)) * (1.0 + 1e-12)
        self.side = side


def _simulate_block(rng: np.random.Generator, n_block: int, tables: _RunTables,
                    params: ModelParams, measure: ClaimMeasure,
                    x0: float, h0: int, record_times: Optional[np.ndarray]):
    """Evolve one block of paths; returns terminal wealth and bookkeeping.

    The draw order (defaults, claim counts, claim times, thinning, sizes,
    then one normal per step) is fixed so identical seeds reproduce identical
    paths whether or not trajectories are recorded.
    """
    dt = tables.dt
    t0 = tables.times[0]
    horizon = tables.times[-1] - t0
    n_steps = tables.n_steps

    # default times by inversion, once per path (undistorted: phi does not act on H)
    if h0 == 1:
        # already defaulted: bond terms contribute nothing and no lump occurs
        default_step = np.full(n_block, -1, dtype=np.int64)
        pi_p_at_tau = np.zeros(n_block)
        default_time = np.full(n_block, np.nan)
    else:
        if params.hP > 0:
            tau = t0 + rng.exponential(1.0 / params.hP, size=n_block)
        else:
            tau = np.full(n_block, np.inf)
        default_time = np.where(tau <= tables.times[-1], tau, np.nan)
        default_step = np.where(tau <= tables.times[-1],
                                np.minimum((tau - t0) / dt, n_steps - 1).astype(np.int64),
                                n_steps + 1)
        pi_p_at_tau = np.asarray(tables.strategy.pi_p_at(np.where(np.isnan(default_time), t0, default_time)),
                                 dtype=float)

    # claim schedule: homogeneous Poisson at the envelope rate, thinned to the
    # (possibly time-dependent) distorted intensity
    counts = rng.poisson(tables.lam_max * horizon, size=n_block)
    total = int(counts.sum())
    claim_path = np.repeat(np.arange(n_block), counts)
    claim_time = t0 + horizon * rng.random(total)
    keep_u = rng.random(total)
    step_idx = np.minimum((claim_time - t0) / dt, n_steps - 1).astype(np.int64)
    keep = keep_u < tables.claim_intensity[step_idx] / tables.lam_max
    claim_path = claim_path[keep]
    claim_time = claim_time[keep]
    step_idx = step_idx[keep]

    # sizes: propose from the base claim distribution; under a distortion,
    # accept with probability (1 - phi3(t, z)) / envelope(step)
    n_claims = claim_path.size
    sizes = sample_truncated_sizes(measure.spec, n_claims, rng)
    if tables.side is not None and n_claims:
        pending = np.arange(n_claims)
        proposed = 0
        for _ in range(_MAX_SIZE_ROUNDS):
            proposed += pending.size
            t_mid = tables.mids[step_idx[pending]]
            tilt = 1.0 - np.asarray(tables.side.phi3(t_mid, sizes[pending]), dtype=float)
            accept = rng.random(pending.size) < tilt / tables.claim_envelope[step_idx[pending]]
            pending = pending[~accept]
            if not pending.size:
                break
            sizes[pending] = sample_truncated_sizes(measure.spec, pending.size, rng)
        else:
            raise NumericalError(
                f"distorted claim-size rejection left {pending.size} of {n_claims} sizes "
                f"unaccepted after {_MAX_SIZE_ROUNDS} rounds (acceptance ratio "
                f"{(n_claims - pending.size) / proposed:.3g})"
            )

    amounts = tables.pi_q_mid[step_idx] * sizes
    order = np.argsort(step_idx, kind="stable")
    claim_path_s = claim_path[order]
    amounts_s = amounts[order]
    claim_starts = np.searchsorted(step_idx[order], np.arange(n_steps + 1))

    default_order = np.argsort(default_step, kind="stable")
    default_starts = np.searchsorted(default_step[default_order], np.arange(n_steps + 1))

    record = record_times is not None
    if record:
        rec_idx = np.searchsorted(tables.times, record_times)
        wealth_rec = np.empty((n_block, record_times.size))
        rec_pos = 0

    X = np.full(n_block, float(x0))
    sqrt_dt = math.sqrt(dt)
    r = params.r
    zeta = params.zeta
    for k in range(n_steps):
        if record and rec_pos < record_times.size and rec_idx[rec_pos] == k:
            wealth_rec[:, rec_pos] = X
            rec_pos += 1
        z = rng.standard_normal(n_block)
        bond_active = default_step > k
        X += dt * (r * X + tables.base_drift[k] + tables.bond_drift[k] * bond_active) \
            + tables.vol[k] * sqrt_dt * z
        lo, hi = claim_starts[k], claim_starts[k + 1]
        if hi > lo:
            np.subtract.at(X, claim_path_s[lo:hi], amounts_s[lo:hi])
        lo, hi = default_starts[k], default_starts[k + 1]
        if hi > lo:
            idx = default_order[lo:hi]
            X[idx] -= zeta * pi_p_at_tau[idx]
    if record:
        while rec_pos < record_times.size:
            wealth_rec[:, rec_pos] = X
            rec_pos += 1

    out = {
        "x_terminal": X,
        "default_time": default_time,
        "claim_count": np.bincount(claim_path, minlength=n_block),
    }
    if record:
        out["wealth_rec"] = wealth_rec
        out["claim_path"] = claim_path
        out["claim_time"] = claim_time
        out["claim_size"] = sizes
    return out


def _run_blocks(strategy, side, params, measure, n_paths, dt, seed,
                t0, x0, h0, record_times=None):
    if n_paths < 1:
        raise ValidationError("n_paths<1", "need at least one path")
    if dt > (params.T - t0) / 10.0:
        raise ValidationError("dt_coarse", f"step must satisfy dt <= (T - t)/10, got dt={dt}")
    if h0 not in (0, 1):
        raise ValidationError("h_range", f"default state must be 0 or 1, got {h0}")
    tables = _RunTables(strategy, side, params, measure, t0, dt)
    blocks = []
    for block_idx in range(0, -(-n_paths // BLOCK_SIZE)):
        n_block = min(BLOCK_SIZE, n_paths - block_idx * BLOCK_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block_idx,)))
        blocks.append(_simulate_block(rng, n_block, tables, params, measure,
                                      x0, h0, record_times))
    merged = {key: np.concatenate([b[key] for b in blocks])
              for key in ("x_terminal", "default_time", "claim_count")}
    if record_times is not None:
        merged["wealth_rec"] = np.concatenate([b["wealth_rec"] for b in blocks], axis=0)
        offsets = np.cumsum([0] + [b["x_terminal"].size for b in blocks[:-1]])
        merged["claims"] = [
            (b["claim_path"] + off, b["claim_time"], b["claim_size"])
            for b, off in zip(blocks, offsets)
        ]
    return tables, merged


def simulate_terminal(strategy, distortion: Optional[DistortionSide],
                      params: ModelParams, measure: ClaimMeasure,
                      n_paths: int, dt: float, seed: int,
                      t0: float = 0.0, x0: Optional[float] = None, h0: int = 1):
    """Terminal wealth sample without storing trajectories.

    Returns (x_terminal, default_time, claim_count) arrays of length n_paths;
    default_time is NaN for paths that do not default before T.
    """
    x0 = params.x0 if x0 is None else x0
    _, merged = _run_blocks(strategy, distortion, params, measure,
                            n_paths, dt, seed, t0, x0, h0)
    return merged["x_terminal"], merged["default_time"], merged["claim_count"]


def simulate_wealth(strategy, distortion: Optional[DistortionSide],
                    params: ModelParams, measure: ClaimMeasure,
                    n_paths: int, dt: float, seed: int,
                    t0: float = 0.0, x0: Optional[float] = None, h0: int = 1) -> list[WealthPath]:
    """Simulate and materialize full trajectories (small path counts only).

    For large-sample statistics use :func:`simulate_terminal`, which runs the
    identical dynamics without the memory footprint.
    """
    x0 = params.x0 if x0 is None else x0
    tables = _RunTables(strategy, distortion, params, measure, t0, dt)
    if n_paths * (tables.n_steps + 1) > _PATH_STORAGE_LIMIT:
        raise ValidationError(
            "path_storage",
            "trajectory storage would exceed the safety limit; "
            "use simulate_terminal for large runs",
        )
    tables, merged = _run_blocks(strategy, distortion, params, measure,
                                 n_paths, dt, seed, t0, x0, h0,
                                 record_times=tables.times)
    times = tables.times
    claim_logs: list[list] = [[] for _ in range(n_paths)]
    for path_ids, c_times, c_sizes in merged["claims"]:
        for pid, ct, cz in zip(path_ids, c_times, c_sizes):
            claim_logs[int(pid)].append((float(ct), float(cz)))
    paths = []
    for i in range(n_paths):
        tau = merged["default_time"][i]
        if math.isnan(tau):
            h = np.full(times.size, 1 if h0 == 1 else 0, dtype=np.int8)
            tau_out = None
        else:
            h = (times >= tau).astype(np.int8)
            tau_out = float(tau)
        claim_logs[i].sort()
        paths.append(WealthPath(
            times=times, wealth=merged["wealth_rec"][i],
            default_state=h, default_time=tau_out, claim_log=claim_logs[i],
        ))
    return paths


def _integrate_penalty(side: DistortionSide, params: ModelParams,
                       measure: ClaimMeasure, t0: float, n_intervals: int = 2000) -> float:
    """Composite-Simpson integral of the penalty rate over [t0, T]."""
    ts = np.linspace(t0, params.T, 2 * n_intervals + 1)
    phi1 = np.asarray(side.phi1(ts), dtype=float)
    phi2 = np.asarray(side.phi2(ts), dtype=float)
    phi3 = np.asarray(side.phi3(ts[:, None], measure.nodes[None, :]), dtype=float)
    rates = penalty_rate(phi1, phi2, phi3, params, measure)
    h = (params.T - t0) / (2 * n_intervals)
    return float(h / 3.0 * (rates[0] + rates[-1]
                            + 4.0 * rates[1:-1:2].sum() + 2.0 * rates[2:-1:2].sum()))


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
