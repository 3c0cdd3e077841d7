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
integrate the drift, the pre-default bond drift and the variance rate,
discounted to T, from t0 to each time of the ``dt`` grid by one rule: the
4-node Gauss-Legendre rule on each grid interval (composite Gauss-Legendre,
Davis & Rabinowitz, *Methods of Numerical Integration*, 1984), read from
``levy._gauss_legendre`` as the claim quadrature's rule is.  On a mode
``e^{-k t}`` of the rates, over an interval of width h, its relative error
is 5e-10, 7e-7, 1e-4 and 7e-3 at kh = 1, 2.5, 5 and 10, so a bond mode
``k = delta/zeta`` whose boundary layer at T is one step wide is still
integrated to well below Monte Carlo error for kh up to about 3.  The penalty integral takes the same rule on a
fixed grid of its own.  The default time is drawn by inversion.

The jump tilt ``1 - phi3 = exp(a z + b z^2)`` is carried as its two
constant coefficients (none for the reference measure; for both extremal
sides of a strategy with ``pi_q(t) A(t) = u*``, ``+-beta3 E(u*, z)``), so
the distorted claims are a homogeneous compound Poisson process: a
Poisson(Lambda (T - t0)) count per path with ``Lambda = int (1 - phi3) nu``,
and sizes drawn exactly from the tilted size law (for truncated-normal
sizes, again a truncated normal).  For a strategy that carries ``coeffs``
the discounted amount of a claim is ``u* Z``, so X(T) needs no claim times;
they are drawn, uniform on [t0, T), only for a strategy without ``coeffs``
or for recorded paths.  Claims come grouped by path, so a path's claim total
is the sum of one contiguous segment of the per-claim amounts (with
``coeffs``, ``u*`` times the segment sum of the sizes); the per-claim path
index is built only for recorded paths, which place each claim on the grid.
Without recording, a strategy with ``coeffs`` takes its sizes per chunk of
whole paths, at most 131,064 sizes (1 MiB), each summed into its paths'
totals before the next is drawn, so a terminal run holds O(paths) floats
and one chunk of claims, not O(claims).  The chunks of a block are drawn
into one buffer allocated once (chunks 8 times smaller cost 8 times the
GIL round trips of the generator's numpy calls while verify's two sides
sample on two threads, and 2 MiB chunks measured slower): only the chunks
of a law that redraws, each a copy held from its first round to the redraw
round that clears it, and the whole block under Robert's tail sampler,
hold more (see ``levy._normal_above_zero``).  The chunks draw in the order of one size
draw per block: the first round for all the block's claims, then the
redraw rounds in index order, so the sample is the same bit for bit.

Both default states read one set of draws.  Before default (h0 = 0) a path
draws, in this order, its default time, its claim count, its claim sizes and
one terminal normal.  After default (h0 = 1) the bond is already gone: the
same sum without ``C_bond(min(tau, T))`` and without the default lump, so a
run from h0 = 1 alone draws no default times.  A run asked for both states
draws once, in the h0 = 0 order, and reads both off those draws (common
random numbers, Glasserman 2003, sec. 4.2); its h0 = 0 row is the h0 = 0 run
at the same seed, bit for bit.

A strategy solved by the solver (one with ``coeffs``) carries its own
model, and so does every distortion side, which is a solved strategy and a
sign: a run or an objective given one with other parameters or another
measure object raises a ValidationError (tag ``inputs``), as does a run of
one whose ``pi_q(t) e^{r(T-t)}`` is not its ``u*`` (see :func:`_u_star`), and
:func:`alpha_robust_value` reads the parameters and measure from its sides.
Other strategies, such as :class:`ConstantStrategy`, take the parameters and
measure they are given.

Reproducibility: paths are partitioned into fixed-size blocks and each block
draws from its own ``SeedSequence(seed, spawn_key=(block,))`` stream, so
results are bit-identical for a given (config, seed, states) regardless of
how blocks would be scheduled across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._csvtext import csv_text, write_file
from .config import ModelParams, _require_finite, _require_integer
from .errors import NumericalError, ValidationError
from .levy import (ClaimMeasure, _gauss_legendre, sample_truncated_sizes,
                   stream_truncated_sizes)
from .solver import (DistortionFunctions, DistortionSide, _check_times, _default_states,
                     _solved_coeffs, penalty_rate)

__all__ = [
    "ConstantStrategy",
    "WealthPath",
    "ObjectiveEstimate",
    "simulate_wealth",
    "simulate_terminal",
    "objective_from_terminal",
    "alpha_robust_value",
    "bond_price_path",
    "dump_paths_csv",
]

BLOCK_SIZE = 65536
_PATH_STORAGE_LIMIT = 20_000_000  # floats; guards accidental full-path runs
_RECORD_FLOATS = 1 << 20  # work-buffer size when recording trajectories
_PENALTY_PANELS = 250      # intervals of the penalty's grid; its rate has modes r and 2r only


@dataclass(frozen=True)
class ConstantStrategy:
    """Time-constant strategy override; every amount finite, pi_q nonnegative."""

    pi_q: float = 0.0
    pi_s: float = 0.0
    pi_p: float = 0.0

    def __post_init__(self) -> None:
        for name in ("pi_q", "pi_s", "pi_p"):
            _require_finite(name, getattr(self, name))
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


def _panel_rule(times: np.ndarray):
    """``(nodes, cumulative)``: the 4-node Gauss-Legendre rule on each interval of ``times``.

    ``nodes`` holds the four nodes of every interval, interval by interval,
    all inside (times[0], times[-1]); ``cumulative(rates)``, given a rate at
    each node, returns its integral from ``times[0]`` to every grid time (0
    at ``times[0]``).
    """
    x, w = _gauss_legendre(4)
    half = 0.5 * np.diff(times)
    nodes = (times[:-1, None] + half[:, None] * (1.0 + x)).ravel()
    return nodes, lambda rates: np.concatenate(
        ([0.0], np.cumsum(half * (np.reshape(rates, (-1, x.size)) @ w))))


def _u_star(strategy, discounted_pi_q: np.ndarray) -> Optional[float]:
    """The ``u*`` of a solved strategy (None without ``coeffs``), checked against its ``pi_q``.

    ``discounted_pi_q`` is ``pi_q(t) e^{r(T-t)}`` at the run's nodes.  The
    claims of a solved strategy cost ``u* Z`` at T, and its sides tilt at
    ``u*``, so ``pi_q(t) A(t)`` must be ``u*``: up to the rounding of
    ``fl(fl(u*/A) A)``, two roundings of at most 2^-53 relative, within
    ``2 eps u*``.  ValidationError (tag ``inputs``) otherwise.
    """
    if not hasattr(strategy, "coeffs"):
        return None
    u_star = strategy.coeffs.u_star
    gap = float(np.max(np.abs(discounted_pi_q - u_star)))
    if not gap <= 2.0 * np.finfo(float).eps * u_star:
        raise ValidationError("inputs", f"pi_q(t) e^{{r(T-t)}} of {type(strategy).__name__} "
                              f"is off its coeffs' u*={u_star!r} by {gap:.3e}: a solved "
                              "strategy's claims and tilt read u*")
    return u_star


class _RunTables:
    """Per-run deterministic tables shared by all blocks.

    ``c_drift``, ``c_bond`` and ``var`` integrate the drift, the pre-default
    bond drift and the variance rate, discounted to T, from t0 to each grid
    time, by :func:`_panel_rule` on the grid's intervals.
    """

    def __init__(self, strategy, side: Optional[DistortionSide],
                 params: ModelParams, measure: ClaimMeasure,
                 t0: float, dt: float):
        horizon = params.T - t0
        n_steps = max(1, int(round(horizon / dt)))
        self.dt = horizon / n_steps
        self.n_steps = n_steps
        self.times = times = t0 + self.dt * np.arange(n_steps + 1)
        times[-1] = params.T        # the sum can overshoot T by an ulp
        nodes, cumulative = _panel_rule(times)

        pi_q = np.asarray(strategy.pi_q_at(nodes), dtype=float)
        pi_s = np.asarray(strategy.pi_s_at(nodes), dtype=float)
        pi_p = np.asarray(strategy.pi_p_at(nodes), dtype=float)
        if np.any(pi_q < 0):
            raise ValidationError("pi_q<0", "strategy exposure must satisfy pi_q >= 0")
        self.strategy = strategy
        growth = params.discount_to_horizon(nodes)      # e^{r(T-s)} at the nodes
        self.u_star = _u_star(strategy, pi_q * growth)
        if side is not None and side.strategy is not strategy:
            _u_star(side.strategy, np.asarray(side.strategy.pi_q_at(nodes), dtype=float) * growth)

        m1 = measure.moment(1)
        drift = ((params.mu - params.r) * pi_s
                 + (params.theta - params.eta + (1.0 + params.eta) * pi_q) * m1)
        if side is not None:
            drift = drift - ((params.sigma1 + pi_s * params.sigma2 * params.rho)
                             * np.asarray(side.phi1(nodes), dtype=float)
                             + pi_s * params.sigma2 * params.rho_hat
                             * np.asarray(side.phi2(nodes), dtype=float))
        v1 = params.sigma1 + pi_s * params.sigma2 * params.rho
        v2 = pi_s * params.sigma2 * params.rho_hat
        self.growth = params.discount_to_horizon(times)  # e^{r(T-t)} on the grid
        self.c_drift = cumulative(growth * drift)
        # pre-default bond drift pi_p * delta: the (1 - Delta) delta price drift
        # plus the zeta hP compensator of the default martingale term
        self.c_bond = cumulative(growth * params.delta * pi_p)
        self.var = cumulative(growth ** 2 * (v1 * v1 + v2 * v2))

        # distorted claim measure: 1 - phi3 = exp(a z + b z^2), intensity
        # int (1 - phi3) nu, both constant in t
        self.tilt = (0.0, 0.0)
        self.claim_intensity = float(measure.spec.lam)
        if side is not None:
            self.tilt = side.tilt
            expo = side.exponent(measure.nodes)
            if np.max(np.abs(expo)) > side.exp_cap:
                raise NumericalError(
                    f"jump-tilt exponent reaches exp_cap={side.exp_cap:g} on the claim "
                    "quadrature nodes; the distorted size law is not an exact tilt there")
            self.claim_intensity = float(np.exp(expo) @ measure.weights)


def _path_totals(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-path sums of ``values``, which come grouped by path, ``counts[i]`` each.

    Each path's entries are one contiguous segment, so one ``np.add.reduceat``
    over the segment starts of the paths with entries sums them all; a path
    with no entries gets exactly 0.  Where every path has entries, that one
    call over all the starts is the result.
    """
    starts = np.cumsum(counts) - counts
    if counts.all():
        return np.add.reduceat(values, starts)
    filled = counts > 0
    totals = np.zeros(counts.size, dtype=values.dtype)
    totals[filled] = np.add.reduceat(values, starts[filled])
    return totals


def _simulate_block(rng: np.random.Generator, tables: _RunTables, params: ModelParams,
                    measure: ClaimMeasure, x0: float, states: tuple[int, ...],
                    x_terminal: np.ndarray, default_time: np.ndarray, counts: np.ndarray,
                    wealth: Optional[np.ndarray] = None):
    """Sample one block of exact terminal wealths into its slices of the run's outputs.

    ``x_terminal`` (one row per state in ``states``, all read off one set of
    draws), ``default_time`` (NaN on entry) and ``counts`` are the block's
    views, filled here.  Draw order: default times (only when state 0 is
    asked for), claim counts, sizes (the first-round draws of all of them,
    then the redraw rounds in index order), one terminal normal per path,
    claim times (only when the amounts or the recording read them), and
    only when ``wealth`` (a block x grid view to fill, one state only) is
    given the bridge increments.  So recording leaves the terminal sample
    unchanged bit for bit.

    Claims come grouped by path, so each path's claim total is the sum of one
    segment of the per-claim arrays (:func:`_path_totals`).  For a strategy
    with ``coeffs`` it is ``u*`` times the segment sum of the sizes, and
    unless the run records, the sizes come in chunks of whole paths of at
    most 1 MiB, all drawn into one buffer (:func:`levy.stream_truncated_sizes`),
    each reduced to its paths' totals before the next overwrites it: no
    per-claim array outlives its chunk but a chunk held for a redraw round.  Other
    runs read each claim and draw the block's sizes at once.  Returns the
    block's ``(claim_time, claim_size)`` when ``wealth`` is recorded, whose
    per-claim path index is built only then; None otherwise.
    """
    n_block = counts.size
    times = tables.times
    t0, T = times[0], times[-1]
    horizon = T - t0
    r = params.r

    # default time by inversion, once per path (undistorted: phi does not act
    # on H); h0 = 1 alone means the bond is already gone at t0
    tau = np.full(n_block, np.inf if 0 in states else t0)
    jump = np.zeros(n_block)
    if 0 in states and params.hP > 0:
        tau = t0 + rng.exponential(1.0 / params.hP, size=n_block)
        hit = tau <= T
        default_time[hit] = tau[hit]
        jump[hit] = params.zeta * np.exp(r * (T - tau[hit])) \
            * np.asarray(tables.strategy.pi_p_at(tau[hit]), dtype=float)
    tau = np.minimum(tau, T)

    # homogeneous compound Poisson: the counts need no claim times, and each
    # size is one exact draw from the tilted size law
    counts[:] = rng.poisson(tables.claim_intensity * horizon, size=n_block)
    u_star = tables.u_star
    if u_star is not None and wealth is None:
        claim_totals = np.empty(n_block)
        for lo, hi, sizes in stream_truncated_sizes(measure.spec, counts, rng, *tables.tilt):
            claim_totals[lo:hi] = _path_totals(sizes, counts[lo:hi])
        claim_totals *= u_star
        z = rng.standard_normal(n_block)
    else:
        sizes = sample_truncated_sizes(measure.spec, int(counts.sum()), rng, *tables.tilt)
        z = rng.standard_normal(n_block)
        claim_time = t0 + horizon * rng.random(sizes.size)
        # claims discounted to T from their own arrival times: u* Z for a
        # strategy with pi_q(t) e^{r(T-t)} = u*
        if u_star is None:
            amounts = np.exp(r * (T - claim_time)) \
                * np.asarray(tables.strategy.pi_q_at(claim_time), dtype=float) * sizes
            claim_totals = _path_totals(amounts, counts)
        else:
            amounts = u_star * sizes
            claim_totals = u_star * _path_totals(sizes, counts)
    start = tables.growth[0] * x0 + tables.c_drift[-1]
    gauss = math.sqrt(tables.var[-1]) * z
    for row, h in zip(x_terminal, states):
        # h0 = 1: the bond is already gone, so no bond drift and no lump
        bond, lump = (np.interp(tau, times, tables.c_bond), jump) if h == 0 else (0.0, 0.0)
        row[:] = start + bond + gauss - claim_totals - lump
    if wealth is None:
        return None
    claim_path = np.repeat(np.arange(n_block), counts)
    _record_block(rng, wealth, tables, x0, z, tau, jump, claim_path, claim_time, amounts)
    wealth[:, -1] = x_terminal[0]
    return claim_time, sizes


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


def _check_start(t0, T) -> None:
    """ValidationError (tag ``t_range``) unless the start time lies in [0, T); NaN fails too."""
    if not 0.0 <= t0 < T:
        raise ValidationError("t_range", f"start time must lie in [0, {T}), got t0={t0}")


def _run_blocks(strategy, side, params, measure, n_paths, dt, seed,
                t0, x0, states, record=False):
    """Check a run's inputs and sample its blocks: ``(tables, merged, wealth)``.

    ``merged`` holds ``x_terminal`` (states x paths), ``default_time`` and
    ``claim_count``, allocated once, each block writing its own slice from
    its own stream in the order of :func:`_simulate_block` (the sizes: first
    round for all of the block's claims, then the redraw rounds in index
    order); with ``record`` also the per-claim ``claim_time`` and
    ``claim_size``, and ``wealth`` (paths x grid), else None.  Without
    ``record``, a run of a strategy with ``coeffs`` holds O(paths) floats
    and one chunk of claims at a time, but for the held chunks of a law
    that redraws (see :func:`levy._normal_above_zero`).
    """
    for solved in (strategy, side):
        if hasattr(solved, "coeffs"):
            _solved_coeffs(solved, params, measure)
    n_paths = _require_integer("n_paths", n_paths)
    if n_paths < 1:
        raise ValidationError("n_paths<1", "need at least one path")
    seed = _require_integer("seed", seed)
    if seed < 0:
        raise ValidationError("seed<0", f"seed must be >= 0, got {seed}")
    _check_start(t0, params.T)          # before any grid sizing
    _require_finite("x0", x0)
    if not 0.0 < dt <= (params.T - t0) / 10.0:
        tag = "nonfinite:dt" if not math.isfinite(dt) else "dt<=0" if dt <= 0.0 else "dt_coarse"
        raise ValidationError(tag, f"step must satisfy 0 < dt <= (T - t)/10, got dt={dt}")
    if record and n_paths * (max(1, int(round((params.T - t0) / dt))) + 1) > _PATH_STORAGE_LIMIT:
        raise ValidationError("path_storage", "trajectory storage would exceed the safety limit; "
                              "use simulate_terminal for large runs")
    tables = _RunTables(strategy, side, params, measure, t0, dt)
    claims = min(n_paths, BLOCK_SIZE) * tables.claim_intensity * (params.T - t0)
    if not claims < 2.0 ** 62:      # Poisson's range and the int64 claim total
        raise NumericalError(f"expected claim count {claims:g} of a block of paths is not "
                             "below 2^62, the claim sampler's range: lambda is too large")
    wealth = np.empty((n_paths, tables.n_steps + 1)) if record else None
    merged = {"x_terminal": np.empty((len(states), n_paths)),
              "default_time": np.full(n_paths, np.nan),
              "claim_count": np.empty(n_paths, dtype=np.int64)}
    recorded = []
    for block_idx in range(0, -(-n_paths // BLOCK_SIZE)):
        block = slice(block_idx * BLOCK_SIZE, (block_idx + 1) * BLOCK_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block_idx,)))
        recorded.append(_simulate_block(rng, tables, params, measure, x0, states,
                                        merged["x_terminal"][:, block],
                                        merged["default_time"][block], merged["claim_count"][block],
                                        wealth[block] if record else None))
    if record:
        merged["claim_time"], merged["claim_size"] = (np.concatenate(c) for c in zip(*recorded))
    return tables, merged, wealth


def simulate_terminal(strategy, distortion: Optional[DistortionSide],
                      params: ModelParams, measure: ClaimMeasure,
                      n_paths: int, dt: float, seed: int,
                      t0: float = 0.0, x0: Optional[float] = None,
                      h0: int | tuple[int, ...] = 1):
    """Terminal wealth sample without storing trajectories.

    Returns (x_terminal, default_time, claim_count); default_time is NaN for
    paths that do not default before T.  X(T) is exact given the jumps;
    ``dt`` sets the grid on whose intervals the Gauss-Legendre rule of the
    module docstring integrates the drift, bond drift and variance rates
    (relative error per interval 7e-7 at kh = 2.5 on a mode of rate k).
    Per path the draws are the default time (from h0 = 0 only), the claims,
    then one terminal normal.

    ``h0`` is one default state, 0 or 1, and ``x_terminal`` has length
    n_paths; or a tuple of states such as ``(1, 0)``, and ``x_terminal`` has
    one row per state in that order, all read off one set of draws in the
    h0 = 0 order.  Its h0 = 0 row, ``default_time`` and ``claim_count`` are
    then those of ``h0=0`` at the same seed bit for bit; its h0 = 1 row has
    the h0 = 1 law but not the draws of ``h0=1`` alone, and is correlated
    with the h0 = 0 row.  ValidationError (tag ``h_range``) for any other
    ``h0``, (tag ``nonfinite:x0``) for a non-finite ``x0``, and (tags
    ``noninteger:seed``, ``nonfinite:seed``, ``seed<0``) unless ``seed`` is
    an integer >= 0.  A ``strategy`` with ``coeffs`` (an equilibrium
    solution) and a ``distortion`` side, whose solved strategy carries them,
    run only with their own parameters and measure object, and with a
    ``pi_q`` of ``u* e^{-r(T-t)}``: ValidationError (tag ``inputs``)
    otherwise.  NumericalError before any draw where the
    expected claim count of a block of paths is not below ``2^62``, the
    range of the Poisson sampler and of the int64 claim total.
    """
    states = _default_states(h0)
    x0 = params.x0 if x0 is None else x0
    _, merged, _ = _run_blocks(strategy, distortion, params, measure,
                               n_paths, dt, seed, t0, x0, states)
    x_terminal = merged["x_terminal"]
    return (x_terminal if isinstance(h0, tuple) else x_terminal[0],
            merged["default_time"], merged["claim_count"])


def simulate_wealth(strategy, distortion: Optional[DistortionSide],
                    params: ModelParams, measure: ClaimMeasure,
                    n_paths: int, dt: float, seed: int,
                    t0: float = 0.0, x0: Optional[float] = None, h0: int = 1) -> list[WealthPath]:
    """Simulate and materialize full trajectories (small path counts only).

    Trajectories are recorded on the ``dt`` grid.  The terminal draws come
    first and match :func:`simulate_terminal` bit for bit; the Gaussian
    bridge increments between grid times are drawn after them.  ``h0`` is
    one default state, 0 or 1; ValidationError (tag ``h_range``) otherwise.
    The inputs are checked as in :func:`simulate_terminal`: a strategy with
    ``coeffs`` and a side take only their own parameters and measure (tag
    ``inputs``).
    """
    states = _default_states(h0, pair=False)
    x0 = params.x0 if x0 is None else x0
    tables, merged, wealth = _run_blocks(strategy, distortion, params, measure,
                                         n_paths, dt, seed, t0, x0, states, record=True)
    times, tau, counts = tables.times, merged["default_time"], merged["claim_count"]
    # claims come grouped by path; order each group by time
    order = np.lexsort((merged["claim_size"], merged["claim_time"],
                        np.repeat(np.arange(tau.size), counts)))
    claims = list(zip(merged["claim_time"][order].tolist(), merged["claim_size"][order].tolist()))
    bounds = np.concatenate(([0], np.cumsum(counts)))
    default_state = ((times >= tau[:, None]) | (h0 == 1)).astype(np.int8)
    return [WealthPath(times=times, wealth=wealth[i], default_state=default_state[i],
                       default_time=None if math.isnan(tau[i]) else float(tau[i]),
                       claim_log=claims[bounds[i]:bounds[i + 1]])
            for i in range(tau.size)]


def _integrate_penalty(side: DistortionSide, params: ModelParams,
                       measure: ClaimMeasure, t0: float) -> float:
    """Integral of the penalty rate over [t0, T].

    The whole rate, the drift terms phi1^2/(2 beta1) + phi2^2/(2 beta2) and
    the jump tilt's entropy, is taken at the nodes of :func:`_panel_rule` on
    ``_PENALTY_PANELS`` equal intervals of [t0, T]; the tilt does not depend
    on t, so its entropy is read off one row of phi3.  The drift terms are
    quadratics in ``e^{r(T-t)}``, modes of rate at most 2r, so the rule's
    error per interval is that of kh = 2r (T - t0)/``_PENALTY_PANELS``,
    5e-10 relative at kh = 1 and far below it on any usual horizon.
    """
    nodes, cumulative = _panel_rule(np.linspace(t0, params.T, _PENALTY_PANELS + 1))
    rates = penalty_rate(side.phi1(nodes), side.phi2(nodes), side.phi3(t0, measure.nodes),
                         params, measure)
    return float(cumulative(rates)[-1])


def objective_from_terminal(x_T: np.ndarray, distortion: Optional[DistortionSide],
                            params: ModelParams, measure: ClaimMeasure,
                            t: float = 0.0) -> ObjectiveEstimate:
    """Assemble the objective from an existing terminal-wealth sample.

    The penalty integral is deterministic (the distortions are deterministic
    functions) and enters with the distortion side's sign; the standard error
    of the mean-variance part comes from the delta method over the first two
    sample moments.  Written in the central moments ``c_k`` about the sample
    mean, its variance is ``(c2 - gamma c3 + (gamma^2/4)(c4 - c2^2)) / n``;
    central moments do not overflow where raw powers of a large wealth would.
    ``x_T`` is any array-like of floats.  ValidationError (tag ``ndim:x_T``)
    unless it is 1-D (score each row of a sample of several default states
    on its own), (tag ``paths too few``) for fewer than 2 terminal values,
    (tag ``nonfinite:x_T``) for a sample whose mean is not finite (a
    non-finite value, or a sum that overflows), (tag ``t_range``) for a
    start time ``t`` outside [0, T), and (tag ``inputs``) for a
    ``distortion`` whose ``coeffs`` hold other parameters or another measure
    object.
    """
    if distortion is not None:
        _solved_coeffs(distortion, params, measure)
    _check_start(t, params.T)
    x_T = np.asarray(x_T, dtype=float)
    if x_T.ndim != 1:
        raise ValidationError("ndim:x_T", f"terminal wealth sample must be 1-D, got shape "
                              f"{x_T.shape}: score one default state at a time")
    n = x_T.size
    if n < 2:
        raise ValidationError("paths too few", f"paths too few: need 2 terminal values, got {n}")
    if distortion is None:
        penalty, sign = 0.0, 0
    else:
        penalty = _integrate_penalty(distortion, params, measure, t)
        sign = distortion.sign
    return _score(x_T, penalty, sign, params.gamma)


def _score(x_T: np.ndarray, penalty: float, sign: int, gamma: float) -> ObjectiveEstimate:
    """The :class:`ObjectiveEstimate` of a 1-D sample of at least 2 floats.

    ``penalty`` is the side's penalty integral, entering with ``sign``.
    ValidationError (tag ``nonfinite:x_T``) for a sample whose mean is not
    finite.
    """
    n = x_T.size
    with np.errstate(over="ignore", invalid="ignore"):     # raised below, with its tag
        m1 = float(np.mean(x_T))
    if not math.isfinite(m1):
        raise ValidationError("nonfinite:x_T", f"terminal wealth sample has mean {m1}: "
                              "every value must be finite")
    dev = x_T - m1
    dev2 = dev * dev
    c2 = float(np.mean(dev2))
    c3 = float(np.mean(dev2 * dev))
    c4 = float(np.mean(dev2 * dev2))
    variance = c2 * n / (n - 1)
    j_value = m1 - 0.5 * gamma * variance + sign * penalty
    # the delta-method variance can round to -0 for degenerate samples
    std_error = math.sqrt(max(0.0, c2 - gamma * c3 + 0.25 * gamma * gamma * (c4 - c2 * c2)) / n)
    return ObjectiveEstimate(mean=m1, variance=variance, penalty=penalty,
                             j_value=j_value, std_error=std_error, n_paths=n)


def _alpha_mix(est_lo: ObjectiveEstimate, est_hi: ObjectiveEstimate,
               params: ModelParams) -> tuple[float, float]:
    """``(alpha J_lo + alpha_hat J_hi, its standard error)`` of two independent estimates."""
    a, a_hat = params.alpha, params.alpha_hat
    return (a * est_lo.j_value + a_hat * est_hi.j_value,
            math.hypot(a * est_lo.std_error, a_hat * est_hi.std_error))


def alpha_robust_value(strategy, dist: DistortionFunctions, t: float, x: float, h: int,
                       n_paths: int, dt: float, seed: int):
    """alpha J_lo + (1 - alpha) J_hi with independent samples per side.

    The parameters and the measure are those of ``dist.lo.coeffs``, the
    model the sides were solved with.  Each side's objective is
    :func:`objective_from_terminal` of its own :func:`simulate_terminal`
    sample, the lo side from ``seed`` and the hi side from ``seed + 1``.
    Returns (value, std_error, estimate_lo, estimate_hi); ValidationError
    for fewer than 100 paths, and (tag ``inputs``) for a ``strategy`` with
    ``coeffs`` or a hi side solved on another model than the lo side's.
    """
    if n_paths < 100:
        raise ValidationError("paths too few", f"paths too few: need n_paths >= 100, got {n_paths}")
    params, measure = dist.lo.coeffs.params, dist.lo.coeffs.measure
    est_lo, est_hi = (
        objective_from_terminal(simulate_terminal(strategy, side, params, measure, n_paths, dt,
                                                  seed + i, t0=t, x0=x, h0=h)[0],
                                side, params, measure, t)
        for i, side in enumerate((dist.lo, dist.hi)))
    return (*_alpha_mix(est_lo, est_hi, params), est_lo, est_hi)


def bond_price_path(times, default_time: Optional[float], params: ModelParams) -> np.ndarray:
    """Defaultable-bond price along a path timing (exact piecewise formula).

    Pre-default the price accrues at r + delta toward par at T1; at default it
    drops to the recovery fraction (1 - zeta) of its pre-default value and
    accrues at the risk-free rate afterwards.  A default time of None, NaN or
    past T1 (``inf`` included) means no default.  ValidationError (tag
    ``t_range``) for a time outside [0, T1] or NaN, and for a default time
    below 0.
    """
    times = np.asarray(times, dtype=float)
    _check_times(times, params.T1)
    if default_time is not None and default_time < 0.0:
        raise ValidationError("t_range", f"default time must be >= 0, got {default_time}")
    pre = np.exp(-(params.r + params.delta) * (params.T1 - times))
    if default_time is None or not default_time <= params.T1:
        return pre
    tau = float(default_time)
    post = (1.0 - params.zeta) * math.exp(-(params.r + params.delta) * (params.T1 - tau)) \
        * np.exp(params.r * (times - tau))
    return np.where(times < tau, pre, post)


def dump_paths_csv(paths: Sequence[WealthPath], out_path) -> None:
    """Write one CSV row per (path, grid time): path_id,time,wealth,default_state.

    Times and wealth are ``'%.17g'``; the path index and the state are
    integers, which ``'%.17g'`` of their float writes as the same text.
    Written in place by :func:`~alphamv._csvtext.write_file`.
    """
    rows = [np.column_stack((np.full(len(path.times), pid), path.times, path.wealth,
                             np.asarray(path.default_state, int)))
            for pid, path in enumerate(paths)]
    table = np.concatenate(rows) if rows else np.empty((0, 4))
    write_file(out_path, b"path_id,time,wealth,default_state\n", csv_text(table))
