"""Equilibrium strategies, value coefficients, and probability distortions.

The solution has two default states.  Post-default, the reinsurance exposure
solves a scalar integral equation and the stock amount is in closed form; the
value intercepts are plain time integrals.  The integral equation depends on
time only through ``A(t)``, so its root is ``pi_q(t) = u* e^{-r(T-t)}`` with
one scalar ``u*``, the same in both default states.  Pre-default, the bond
amount is eliminated algebraically from its first-order condition at every
instant, which couples the two mean intercepts.

The intercepts solve linear ODEs, integrated backward by RK4 over all steps
at once: Simpson sums for the post-default ones, and affine recurrences
``y_k = m_k y_{k+1} + c_k`` for the scalar modes of the pre-default ones
(rates ``delta/zeta`` and hP); see :func:`_solve_coefficients`.

Time convention: ``tau = T - t`` and ``A(t) = e^{r tau}`` is the accumulation
factor to the horizon.  The claim integrals see the strategy only through
``u = pi_q(t) A(t)``, in the recurring jump-exponent body

    E(u, z) = u z + (gamma/2) u^2 z^2,

and every distorted integrand carries ``exp(+-beta3 E)``.  At the equilibrium
``u = u*`` at every t, so the backward system evaluates its claim integrals
once, on the node vector at ``u*``, and never on a times x nodes grid.  The
root ``u*`` itself is a scalar safeguarded Newton on node vectors, and the
``root_tol`` check of the residual ``F(t, pi_q(t))`` at every requested time
reads it as ``A(t) f(u)`` from a few scalar evaluations of f.  Exponent
arguments are saturated at ``+-exp_cap`` before exponentiation (a warning,
not an error); bracket expansion keeps actual roots well below saturation
territory.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .config import ModelParams, NumericsConfig
from .errors import NumericalError, SaturationWarning, ValidationError
from .levy import ClaimMeasure

__all__ = [
    "ValueCoefficients",
    "EquilibriumSolution",
    "DistortionFunctions",
    "DistortionSide",
    "pi_s_star",
    "pi_p_star",
    "reinsurance_foc",
    "bracket_pi_q",
    "solve_pi_q_star",
    "solve_pi_q_grid",
    "scan_foc_sign_changes",
    "pre_default_system",
    "solve_equilibrium",
    "reference_mean_intercepts",
    "distortions",
    "strategy_distortions",
    "value_function",
    "penalty_rate",
]

DEFAULT_EXP_CAP = 700.0
DEFAULT_ROOT_TOL = 1e-10

_MAX_DOUBLINGS = 60
# The largest upper bracket bracket_pi_q tests; a root beyond it is its error.
_BRACKET_LIMIT = 2.0 ** (_MAX_DOUBLINGS - 1)
# Safeguarded Newton on u*: stop below this relative step.  The iterate bound
# counts Newton and bisection steps together; bisection alone shrinks a bracket
# of width u* to this tolerance in 47 steps.
_ROOT_RTOL = 1e-14
_MAX_ROOT_ITERS = 100
# Work-buffer size of the float32 sign scan's row chunks.  glibc may serve a
# block of 128 KiB or more (its initial mmap threshold) from fresh pages, whose
# faults cost more than the arithmetic on them.
_CHUNK_BYTES = 1 << 16


# ---------------------------------------------------------------------------
# closed-form stock strategy
# ---------------------------------------------------------------------------

def _stock_denominator(params: ModelParams) -> float:
    # gamma + (2 alpha - 1)(beta1 rho^2 + beta2 rho_hat^2) > 0 for alpha >= 1/2
    two_a = 2.0 * params.alpha - 1.0
    return params.gamma + two_a * (params.beta1 * params.rho ** 2
                                   + params.beta2 * params.rho_hat ** 2)


def pi_s_star(t, params: ModelParams):
    """Equilibrium stock amount; identical pre- and post-default.

    Vectorized over t; returns a scalar for scalar input.
    """
    t = np.asarray(t, dtype=float)
    two_a = 2.0 * params.alpha - 1.0
    numer = ((params.mu - params.r) * np.exp(-params.r * (params.T - t))
             - params.sigma1 * params.sigma2 * params.rho * (params.gamma + two_a * params.beta1))
    value = numer / (params.sigma2 ** 2 * _stock_denominator(params))
    return value if value.ndim else float(value)


def _check_bond_demand(params: ModelParams) -> None:
    if params.hP == 0.0 or params.zeta == 0.0:
        raise NumericalError(
            "defaultable-bond demand unbounded: the bond first-order condition has no "
            f"finite root for hP={params.hP}, zeta={params.zeta}"
        )


def pi_p_star(t, params: ModelParams):
    """Equilibrium pre-default bond amount in closed form.

    pi_p depends on the mean intercepts only through the gap
    ``D = alpha (b1_lo - b0_lo) + alpha_hat (b1_hi - b0_hi)``, which solves
    ``D' = k D + c`` from ``D(T) = 0``, with ``k = delta/zeta``,
    ``c = n0^2 / (gamma zeta^2 hP)`` and ``n0 = delta - zeta hP``.  So
    ``D = (c/k) expm1(-k tau)`` and

        pi_p = (n0 + gamma zeta hP D) / (gamma zeta^2 hP A)
             = n0 (zeta hP + n0 e^{-k tau}) / (gamma delta zeta^2 hP A).

    The second form is the first with ``gamma zeta hP c / k = n0^2 / delta``
    substituted; its numerator is a sum of nonnegative terms, so it does not
    cancel when ``n0`` is close to ``delta`` (small zeta hP / delta), where the
    first loses digits.  Neither alpha, the betas nor the claim law enters it,
    and it is exactly 0 at the fair spread ``delta = zeta hP``.  The backward
    RK4 sweep of :func:`solve_equilibrium` computes the same column by the
    independent route.  NumericalError for hP = 0 or zeta = 0 (no finite bond
    demand).  Vectorized over t; returns a scalar for scalar input.
    """
    _check_bond_demand(params)
    t = np.asarray(t, dtype=float)
    n0, zeta, hP = params.bond_excess_drift, params.zeta, params.hP
    decay = np.exp(-params.h_q * (params.T - t))
    value = n0 * (zeta * hP + n0 * decay) / (
        params.gamma * params.delta * zeta ** 2 * hP * params.discount_to_horizon(t))
    return value if value.ndim else float(value)


# ---------------------------------------------------------------------------
# reinsurance first-order condition and root solve
# ---------------------------------------------------------------------------

def _clip_exponent(x: np.ndarray, exp_cap: float) -> np.ndarray:
    if np.max(np.abs(x), initial=0.0) > exp_cap:
        warnings.warn(
            f"exponent saturated at +-{exp_cap:g} during claim-integral evaluation",
            SaturationWarning, stacklevel=3,
        )
        x = np.clip(x, -exp_cap, exp_cap)
    return x


def _foc_values(A, pi, params: ModelParams, measure: ClaimMeasure, exp_cap: float):
    """F(t, pi) for broadcastable A and pi arrays; a node axis is appended."""
    A = np.asarray(A, dtype=float)[..., None]
    pi = np.asarray(pi, dtype=float)[..., None]
    z = measure.nodes
    w = measure.weights
    zA = z * A
    zA2 = zA * zA
    G = zA + params.gamma * pi * zA2
    E = pi * zA + 0.5 * params.gamma * pi * pi * zA2
    ep = np.exp(_clip_exponent(params.beta3 * E, exp_cap))
    em = 1.0 / ep  # symmetric clipping makes exp(-clip(x)) the exact reciprocal
    mix = params.alpha * ep + params.alpha_hat * em
    return ((1.0 + params.eta) * zA - G * mix) @ w


def reinsurance_foc(t, pi_q, params: ModelParams, measure: ClaimMeasure,
                    exp_cap: float = DEFAULT_EXP_CAP):
    """Residual of the reinsurance first-order condition.

    Positive at pi_q = 0 (equals eta * e^{r(T-t)} * int z nu(dz) there) and
    strictly decreasing in pi_q for alpha >= 1/2, so the root is unique.
    Broadcasts over t and pi_q.
    """
    if np.any(np.asarray(pi_q) < 0):
        raise ValidationError("pi_q<0", "reinsurance exposure must satisfy pi_q >= 0")
    A = params.discount_to_horizon(t)
    F = _foc_values(A, pi_q, params, measure, exp_cap)
    return F if F.ndim else float(F)


def bracket_pi_q(t, params: ModelParams, measure: ClaimMeasure,
                 exp_cap: float = DEFAULT_EXP_CAP):
    """Upper bracket endpoint: smallest power-of-two hi with F(t, hi) < 0.

    Vectorized over t; returns a scalar for scalar input.
    """
    A = np.asarray(params.discount_to_horizon(t), dtype=float)
    hi = np.ones_like(A)
    for _ in range(_MAX_DOUBLINGS):
        open_mask = _foc_values(A, hi, params, measure, exp_cap) >= 0
        if not np.any(open_mask):
            return hi if hi.ndim else float(hi)
        hi[open_mask] *= 2.0
    first_bad = float(np.min(np.asarray(t, dtype=float)[open_mask]))
    raise NumericalError(
        f"bracket expansion for pi_q failed after {_MAX_DOUBLINGS} doublings at "
        f"t={first_bad:g}: pathological parameters"
    )


def _scalar_foc(params: ModelParams, measure: ClaimMeasure, exp_cap: float):
    """``u -> (f(u), f'(u))`` with ``f(u) = F(T, u)``, the FOC at A = 1.

    Scalar in u: the node vectors z, z^2 and w are built once here, and each
    call makes a handful of operations on them, not a broadcast table.  With
    ``G = dE/du = z + gamma u z^2``, ``E = u (z + G) / 2``.
    """
    z = measure.nodes
    z2 = z * z
    w = measure.weights
    gamma, beta3 = params.gamma, params.beta3
    alpha, alpha_hat = params.alpha, params.alpha_hat
    premium = (1.0 + params.eta) * z
    curvature = gamma * z2 * w

    def foc(u: float):
        G = z + (gamma * u) * z2
        ep = np.exp(_clip_exponent((0.5 * beta3 * u) * (z + G), exp_cap))
        up, down = alpha * ep, alpha_hat / ep
        mix = up + down
        value = float((premium - G * mix) @ w)
        slope = -float(curvature @ mix) - beta3 * float((G * (up - down)) @ (G * w))
        return value, slope

    return foc


def _newton_root(foc, u: float, hi: float, first=None) -> float:
    """Root of the decreasing ``foc`` on ``[0, hi]``: safeguarded Newton from u.

    ``first`` is ``foc(u)`` when the caller has already evaluated it.

    Every iterate tightens the bracket by the sign of f.  A Newton step is
    replaced by bisection when it leaves the bracket, when the slope
    overflowed, or when it is more than half the previous step.  f is concave
    (``G mix`` is a product of positive, increasing, convex functions of u),
    so Newton from above the root descends monotonically; but where
    ``beta3 E`` is steep it gains only about one unit of ``beta3 E`` per
    step, hundreds of steps under exponent clipping.  Stops when a step falls
    below ``_ROOT_RTOL`` of u; NumericalError after ``_MAX_ROOT_ITERS``.
    """
    lo, step = 0.0, math.inf
    for _ in range(_MAX_ROOT_ITERS):
        value, slope = first or foc(u)
        first = None
        if value > 0:
            lo = u
        elif value < 0:
            hi = u
        elif value == 0:
            return u
        new = u - value / slope
        # NaNs fail the comparisons; an overflowed slope would stall at u
        if not (math.isfinite(slope) and lo <= new <= hi and abs(new - u) <= 0.5 * step):
            new = 0.5 * (lo + hi)
        step = abs(new - u)
        if step <= _ROOT_RTOL * u:
            return new
        u = new
    raise NumericalError(
        f"pi_q root did not converge in {_MAX_ROOT_ITERS} safeguarded Newton steps "
        f"(bracket [{lo:g}, {hi:g}])"
    )


def _identity_residuals(pi_q: np.ndarray, A: np.ndarray, foc) -> np.ndarray:
    """``F(t, pi_q(t))`` for 1-d columns, as ``A(t) f(pi_q(t) A(t))``.

    f is evaluated once per distinct value of ``pi_q A``: for ``pi_q = u*/A``
    rounding leaves a few, not one per time.
    """
    u, where = np.unique(pi_q * A, return_inverse=True)
    return A * np.array([foc(v)[0] for v in u.tolist()])[where]


def solve_pi_q_grid(times, params: ModelParams, measure: ClaimMeasure,
                    root_tol: float = DEFAULT_ROOT_TOL,
                    exp_cap: float = DEFAULT_EXP_CAP) -> np.ndarray:
    """Unique equilibrium reinsurance exposure at every time (any default state).

    Time enters the first-order condition only through ``A(t)``: with
    ``u = pi_q A(t)``, ``F(t, pi_q) = A(t) f(u)`` where ``f`` does not depend
    on t.  So one scalar root ``u*`` of ``f`` gives ``pi_q(t) = u* / A(t)``.
    It is found by safeguarded Newton (:func:`_newton_root`) from the
    ``beta3 -> 0`` root ``u0 = eta m1 / (gamma m2)``.  For alpha >= 1/2,
    ``alpha e^x + alpha_hat e^-x >= 1`` gives ``f(u0) <= 0``, so ``[0, u0]``
    brackets ``u*``.  Only when the computed ``f(u0)`` is positive (rounding
    near ``beta3 = 0``) or ``u0`` lies beyond the doubling range is the
    bracket expanded at t = T by :func:`bracket_pi_q`, whose "bracket" error
    then stands.  The residual is still checked at every requested time,
    through the same identity (:func:`_identity_residuals`).
    NumericalError unless each is at most ``root_tol`` relative to the
    natural scale ``eta e^{r(T-t)} int z nu(dz)``; a NaN residual fails.
    """
    times = np.asarray(times, dtype=float)
    A = params.discount_to_horizon(times)
    m1 = measure.moment(1)
    foc = _scalar_foc(params, measure, exp_cap)
    u0 = params.eta * m1 / (params.gamma * measure.moment(2))
    first = foc(u0) if u0 <= _BRACKET_LIMIT else None
    if first is not None and first[0] <= 0:
        hi = u0
    else:
        hi = bracket_pi_q(params.T, params, measure, exp_cap)
        if u0 > hi:
            u0, first = hi, None
    u_star = _newton_root(foc, u0, hi, first)
    root = u_star / A
    flat_A = np.reshape(A, -1)
    residual = _identity_residuals(np.reshape(root, -1), flat_A, foc)
    if not np.all(np.abs(residual) <= root_tol * params.eta * m1 * flat_A):
        raise NumericalError("pi_q roots did not reach the configured tolerance")
    return root


def solve_pi_q_star(t: float, params: ModelParams, measure: ClaimMeasure,
                    root_tol: float = DEFAULT_ROOT_TOL,
                    exp_cap: float = DEFAULT_EXP_CAP) -> float:
    """:func:`solve_pi_q_grid` at the single time t."""
    return float(solve_pi_q_grid(t, params, measure, root_tol, exp_cap))


def _foc_f32(u: np.ndarray, params: ModelParams, measure: ClaimMeasure,
             exp_cap: float) -> np.ndarray:
    """f(u) = F(t, u/A(t)) / A(t) in float32, in row chunks of bounded size.

    float32 ``exp`` overflows above ~88.7, far below the default ``exp_cap``, so
    each exponent is also capped where ``e^x (1 + G/A)`` stays below
    ``float32 max / (2 max(1, lambda))``: the weighted sum over the nodes
    stays finite.  A term capped there outweighs the premium term by many
    orders of magnitude, so f keeps its sign.
    """
    c = measure.nodes.astype(np.float32)                              # z
    d = (0.5 * params.gamma * measure.nodes ** 2).astype(np.float32)  # (gamma/2) z^2
    w = measure.weights.astype(np.float32)
    alpha, alpha_hat = np.float32(params.alpha), np.float32(params.alpha_hat)
    headroom = np.float32(math.log(float(np.finfo(np.float32).max)
                                   / (2.0 * max(1.0, float(measure.weights.sum())))))
    out = np.empty(u.size, np.float32)
    rows = max(1, _CHUNK_BYTES // (4 * c.size))
    for lo in range(0, u.size, rows):
        uc = u[lo:lo + rows].astype(np.float32)[:, None]
        g = c + (2.0 * uc) * d                                        # G / A
        x = uc * c
        x += (uc * uc) * d                                            # E
        x *= np.float32(params.beta3)
        np.minimum(x, np.float32(exp_cap), out=x)
        np.minimum(x, headroom - np.log1p(g), out=x)
        np.exp(x, out=x)                                              # e^{b3 E}
        mix = alpha * x + alpha_hat / x
        mix *= g
        out[lo:lo + rows] = np.float32(1.0 + params.eta) * (c @ w) - mix @ w
    return out


def scan_foc_sign_changes(times, params: ModelParams, measure: ClaimMeasure,
                          n_points: int = 10_000,
                          exp_cap: float = DEFAULT_EXP_CAP) -> np.ndarray:
    """Sign changes of F(t, .) on [0, bracket(t)] over uniform scans, per time.

    ``F(t, pi) = A f(pi A)``, so the sign pattern at t is that of the one
    function f on ``[0, A(t) bracket(t)]``.  f is scanned once, in float32,
    on a uniform grid over ``[0, max_t A bracket]`` whose spacing is at most
    that of an ``n_points`` scan at every t; a cumulative sum counts the
    changes up to each t's last grid point, and each t's endpoint is
    evaluated itself.  Zeros are skipped.  Between neighboring scan points f
    moves by O(spacing) times its O(1) slope, orders of magnitude above
    float32 rounding, so the sign pattern is exact.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    ends = params.discount_to_horizon(times) * bracket_pi_q(times, params, measure, exp_cap)
    spacing = float(np.min(ends)) / (n_points - 1)
    grid = spacing * np.arange(int(math.ceil(float(np.max(ends)) / spacing)) + 1)
    signs = np.sign(_foc_f32(grid, params, measure, exp_cap))
    # carry the last nonzero sign over zeros, then count changes cumulatively
    held = signs[np.maximum.accumulate(np.where(signs != 0, np.arange(signs.size), 0))]
    changes = np.concatenate(([0], np.cumsum((held[1:] != held[:-1]) & (held[:-1] != 0))))
    last = np.searchsorted(grid, ends, side="right") - 1
    end_signs = np.sign(_foc_f32(ends, params, measure, exp_cap))
    tail = (end_signs != 0) & (held[last] != 0) & (end_signs != held[last])
    return changes[last] + tail


# ---------------------------------------------------------------------------
# coefficient system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueCoefficients:
    """Time-grid coefficients of the affine value and mean functions.

    ``value = A(t) x + B_h(t)`` and the distorted means are
    ``A(t) x + b_h(t)`` with A(t) = e^{r(T-t)}.  All intercepts vanish at T.
    """

    grid: np.ndarray
    A: np.ndarray
    B1: np.ndarray
    B0: np.ndarray
    b1_lo: np.ndarray
    b1_hi: np.ndarray
    b0_lo: np.ndarray
    b0_hi: np.ndarray
    r: float
    T: float


@dataclass(frozen=True)
class EquilibriumSolution:
    """Equilibrium strategies and value coefficients on a uniform time grid.

    ``pi_q`` and ``pi_s`` are the same functions in both default states;
    ``pi_p`` is the pre-default bond amount (identically 0 after default).
    ``fine_grid``/``fine_pi_q``/``fine_pi_s`` hold the half-step refinement
    used internally by the backward integrator; interpolation helpers use it.
    ``u_star`` is the scalar root with ``pi_q(t) = u_star e^{-r(T-t)}``, so
    :meth:`pi_q_at` is exact at every t.
    """

    grid: np.ndarray
    pi_q: np.ndarray
    pi_s: np.ndarray
    pi_p: np.ndarray
    coeffs: ValueCoefficients
    fine_grid: np.ndarray = field(repr=False, default=None)
    fine_pi_q: np.ndarray = field(repr=False, default=None)
    fine_pi_s: np.ndarray = field(repr=False, default=None)
    u_star: float = None

    def __post_init__(self) -> None:
        if np.any(self.pi_q < 0):
            raise ValidationError("pi_q<0", "equilibrium reinsurance exposure must be nonnegative")

    def _checked_u_star(self) -> float:
        """``u_star``; ValidationError when the solution was built without it."""
        if self.u_star is None:
            raise ValidationError(
                "u_star", "EquilibriumSolution.u_star is not set: pi_q(t) = u_star "
                "e^{-r(T-t)} needs it (solve_equilibrium sets it)")
        return self.u_star

    def pi_q_at(self, t):
        c = self.coeffs
        return self._checked_u_star() / np.exp(c.r * (c.T - np.asarray(t, dtype=float)))

    def pi_s_at(self, t):
        return np.interp(t, self.fine_grid, self.fine_pi_s)

    def pi_p_at(self, t):
        return np.interp(t, self.grid, self.pi_p)


class _NodeTables:
    """Ingredients of the coefficient integrands on a fine time grid.

    Everything that does not depend on the integrated state is precomputed
    here.  The distorted claim integrals I+- and the entropy jump term KB of
    the B equations see the reinsurance exposure only through
    ``u = pi_q A``, which is ``u_star`` at every t; they are scalars,
    evaluated once on the node vector at ``u_star``.  The strategies and the
    integrands ``fB1``, ``f1_lo``, ``f1_hi`` are columns on the fine grid.
    """

    def __init__(self, times: np.ndarray, params: ModelParams, measure: ClaimMeasure,
                 betas: tuple[float, float, float],
                 u_star: float, pi_s: np.ndarray,
                 exp_cap: float):
        b1, b2, b3 = betas
        self.times = times
        A = params.discount_to_horizon(times)
        self.A = A
        self.u_star = u_star
        self.pi_q = pi_q = u_star / A
        self.pi_s = pi_s
        m1 = measure.moment(1)

        z = measure.nodes
        w = measure.weights
        uz = u_star * z
        E = uz + 0.5 * params.gamma * uz ** 2
        x = _clip_exponent(b3 * E, exp_cap)
        ep1 = np.expm1(x)                   # e^{+b3 E} - 1 without cancellation
        em1 = np.expm1(-x)
        self.I_plus = (z * (ep1 + 1.0)) @ w     # int z e^{+b3 E} nu(dz)
        self.I_minus = (z * (em1 + 1.0)) @ w
        if b3 > 0:
            # (alpha/b3) int (1 - e^{+b3 E}) nu - (alpha_hat/b3) int (1 - e^{-b3 E}) nu
            self.KB = (params.alpha_hat / b3) * (em1 @ w) - (params.alpha / b3) * (ep1 @ w)
        else:
            self.KB = -(E @ w)              # b3 -> 0 limit of the same term
        two_a = 2.0 * params.alpha - 1.0
        drift_q = params.theta - params.eta + (1.0 + params.eta) * pi_q
        s1, s2, rho = params.sigma1, params.sigma2, params.rho
        sharpe_num = (params.mu - params.r
                      - s1 * s2 * rho * (params.gamma + two_a * b1) * A)
        cross = b1 * rho ** 2 + b2 * params.rho_hat ** 2
        sharpe = sharpe_num ** 2 / (2.0 * s2 ** 2 * (params.gamma + two_a * cross))

        common = drift_q * A * m1
        A2 = A * A
        # time integrands of the three post-default coefficients
        self.fB1 = (common
                    - 0.5 * params.gamma * s1 ** 2 * A2
                    - 0.5 * two_a * b1 * s1 ** 2 * A2
                    + sharpe + self.KB)
        lin_lo = (params.mu - params.r) * A - 2.0 * b1 * s1 * s2 * rho * A2
        lin_hi = (params.mu - params.r) * A + 2.0 * b1 * s1 * s2 * rho * A2
        quad = s2 ** 2 * A2 * cross
        self.f1_lo = (common - b1 * s1 ** 2 * A2 + lin_lo * pi_s
                      - quad * pi_s ** 2 - u_star * self.I_plus)
        self.f1_hi = (common + b1 * s1 ** 2 * A2 + lin_hi * pi_s
                      + quad * pi_s ** 2 - u_star * self.I_minus)


def _make_fine_grid(grid: np.ndarray) -> np.ndarray:
    """Half-step refinement whose even entries are exactly the input grid."""
    fine = np.empty(2 * (grid.size - 1) + 1)
    fine[0::2] = grid
    fine[1::2] = 0.5 * (grid[:-1] + grid[1:])
    return fine


def _validate_uniform_grid(grid: np.ndarray, T: float) -> None:
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("grid", "time grid must hold at least two points")
    steps = np.diff(grid)
    if grid[0] != 0.0 or abs(grid[-1] - T) > 1e-12 or np.any(steps <= 0) \
            or np.max(steps) - np.min(steps) > 1e-9 * np.max(steps):
        raise ValidationError("grid", "time grid must be uniform over [0, T]")


def _pre_default_pi_p(gap, A, params: ModelParams):
    """Bond amount from its first-order condition, for scalars or arrays.

    ``gap`` is ``alpha (b1_lo - b0_lo) + alpha_hat (b1_hi - b0_hi)``, the
    only way the mean intercepts enter.
    """
    num = params.bond_excess_drift + params.gamma * params.zeta * params.hP * gap
    return num / (params.gamma * params.zeta ** 2 * params.hP * A)


# RK4 applied to y' = lam y with lam h real and negative is stable while
# lam |h| <= this limit, the real root of 1 + x/2 + x^2/6 + x^3/24 (where the
# step factor climbs back to 1).
_RK4_STABILITY_LIMIT = 2.785293563405282


def _stage_rows(values: np.ndarray) -> np.ndarray:
    """Fine-grid values at the four RK4 stage times of every backward step.

    Step k runs from grid[k+1] (fine index 2k+2) to grid[k] (fine index 2k);
    stages 2 and 3 share the midpoint.  Shape (4, steps).
    """
    return np.stack((values[2::2], values[1::2], values[1::2], values[:-2:2]))


def _rk4_quadrature(f: np.ndarray, h: np.ndarray):
    """RK4 of y' = -f(t) backward from y(T) = 0: grid values and stage values.

    ``f`` holds the integrand at the four stages of every step, shape
    (4, steps).  With no y on the right-hand side each step is a Simpson
    increment; the increments are summed in the order a step-by-step loop
    adds them.
    """
    k = -f
    step = h / 6.0 * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
    y = np.append(np.cumsum(step[::-1])[::-1], 0.0)
    start = y[1:]
    return y, np.stack((start, start + 0.5 * h * k[0], start + 0.5 * h * k[1],
                        start + h * k[2]))


def _rk4_linear_mode(rate: float, h: np.ndarray, g: np.ndarray):
    """RK4 of the scalar mode y' = rate y - g backward from y(T) = 0.

    ``g`` holds the forcing at the four stages of every step, shape (4, steps).
    One step is the affine map y_k = m_k y_{k+1} + c_k, with m the RK4
    polynomial 1 + x + x^2/2 + x^3/6 + x^4/24 of x = rate h; this recurrence
    is the only per-step Python.  It runs as y += (m - 1) y + c, because a
    stored m is rounded to 1e-16 absolute, about 1e-11 of m - 1 for a slow
    mode, and that error would repeat in every step.  Powers of m are not
    used: m^-k overflows for a fast mode.  Returns grid values and stage
    values.
    """
    x = rate * h
    m_minus_1 = x * (1.0 + x * (0.5 + x * (1.0 / 6.0 + x / 24.0)))
    c = -h / 6.0 * (g[0] * (1.0 + x * (1.0 + x * (0.5 + 0.25 * x)))
                    + g[1] * (2.0 + x * (1.0 + 0.5 * x))
                    + g[2] * (2.0 + x) + g[3])
    ys = [0.0] * (h.size + 1)
    y = 0.0
    e_list, c_list = m_minus_1.tolist(), c.tolist()
    for k in range(h.size - 1, -1, -1):
        y += e_list[k] * y + c_list[k]
        ys[k] = y
    y = np.array(ys)
    start = y[1:]
    y2 = start + 0.5 * h * (rate * start - g[0])
    y3 = start + 0.5 * h * (rate * y2 - g[1])
    return y, np.stack((start, y2, y3, start + h * (rate * y3 - g[2])))


def _solve_coefficients(params: ModelParams, measure: ClaimMeasure, grid: np.ndarray,
                        betas: Optional[tuple[float, float, float]] = None,
                        strategy: Optional[tuple[float, np.ndarray, np.ndarray]] = None,
                        root_tol: float = DEFAULT_ROOT_TOL,
                        exp_cap: float = DEFAULT_EXP_CAP):
    """Backward RK4 sweep of the coefficient system on ``grid``.

    ``strategy`` optionally pins (u*, pi_s, pi_p) instead of recomputing
    them: the reinsurance exposure ``pi_q = u* e^{-r(T-t)}`` by its scalar
    ``u*``, pi_s and pi_p on the fine grid.  With ``betas`` overridden this
    evaluates the mean intercepts of a fixed strategy under a different
    ambiguity level (the beta = 0 case is the reference measure).  When pi_p
    is not pinned it is eliminated algebraically inside every integrator
    stage.

    The six intercepts are one RK4 integration on the half-step fine grid,
    computed column-wise over all steps rather than step by step:

    - B1, b1_lo, b1_hi have right-hand sides free of the state, so every
      step is a Simpson increment and the columns are cumulative sums.
    - With pi_p eliminated, ``bond + hP lump = (delta - zeta hP) pi_p A`` is
      affine in ``b1 - b0`` with no A in it, so (b0_lo, b0_hi) decouples into
      the scalar modes ``u = alpha b0_lo + alpha_hat b0_hi`` (rate
      ``delta/zeta``) and ``v = b0_lo - b0_hi`` (rate hP), mapped back by
      ``b0_lo = u + alpha_hat v`` and ``b0_hi = u - alpha v``.  u is carried
      as the gap ``D = alpha b1_lo + alpha_hat b1_hi - u``, whose forcing is
      constant; pi_p depends on the intercepts only through D, so it is
      exactly 0 at the fair spread ``delta = zeta hP``.  With pi_p pinned,
      b0_lo and b0_hi are each a mode of rate hP.
    - B0 is a mode of rate hP forced by the stage values of the others.

    RK4 commutes with this linear change of variables, so this is the RK4
    solution of the coupled system.  A mode runs as the affine recurrence of
    :func:`_rk4_linear_mode`.

    Returns (tables, states, pi_p): states has shape (len(grid), 6) with
    columns (B1, b1_lo, b1_hi, B0, b0_lo, b0_hi), and pi_p is the bond amount
    on ``grid``.  Raises NumericalError for hP = 0 or zeta = 0 (no finite
    bond demand), for a step past RK4's stability limit on the fastest mode,
    and for non-finite coefficients.
    """
    grid = np.asarray(grid, dtype=float)
    _validate_uniform_grid(grid, params.T)
    _check_bond_demand(params)
    pi_p_pinned = None if strategy is None else strategy[2]
    hP, zeta, delta = params.hP, params.zeta, params.delta
    h = grid[:-1] - grid[1:]            # negative: the sweep runs from T back to 0
    rate = hP if pi_p_pinned is not None else params.h_q   # fastest mode (h_q >= hP)
    step = float(np.max(-h))
    if rate * step > _RK4_STABILITY_LIMIT:
        raise NumericalError(
            f"backward RK4 sweep unstable: rate {rate:g} times step {step:g} exceeds the "
            f"RK4 stability limit {_RK4_STABILITY_LIMIT:.4f}; use time_steps >= "
            f"{math.ceil(rate * params.T / _RK4_STABILITY_LIMIT)}"
        )
    fine = _make_fine_grid(grid)
    if betas is None:
        betas = (params.beta1, params.beta2, params.beta3)
    if strategy is None:
        pi_q = solve_pi_q_grid(fine, params, measure, root_tol, exp_cap)
        # pi_q A = u* at every t; at the grid's end A = 1, so this is u* itself
        u_star = float(pi_q[-1] * params.discount_to_horizon(fine[-1]))
        pi_s = np.asarray(pi_s_star(fine, params), dtype=float)
    else:
        u_star, pi_s, _ = strategy
    tables = _NodeTables(fine, params, measure, betas, u_star, pi_s, exp_cap)

    a, ah, gamma = params.alpha, params.alpha_hat, params.gamma
    A = _stage_rows(tables.A)
    fB1, f1lo, f1hi = (_stage_rows(f) for f in (tables.fB1, tables.f1_lo, tables.f1_hi))
    B1, B1_st = _rk4_quadrature(fB1, h)
    b1_lo, lo_st = _rk4_quadrature(f1lo, h)
    b1_hi, hi_st = _rk4_quadrature(f1hi, h)
    if pi_p_pinned is None:
        # the gap D = w - u, w = alpha b1_lo + alpha_hat b1_hi, solves
        # D' = (delta/zeta) D + n0^2 / (gamma zeta^2 hP)
        n0 = params.bond_excess_drift
        gap, gap_st = _rk4_linear_mode(
            rate, h, np.full((4, h.size), -n0 * n0 / (gamma * zeta ** 2 * hP)))
        v, v_st = _rk4_linear_mode(hP, h, f1lo - f1hi + hP * (lo_st - hi_st))
        u, u_st = a * b1_lo + ah * b1_hi - gap, a * lo_st + ah * hi_st - gap_st
        b0_lo, lo0_st = u + ah * v, u_st + ah * v_st
        b0_hi, hi0_st = u - a * v, u_st - a * v_st
        pi_p_st = _pre_default_pi_p(gap_st, A, params)
        pi_p = _pre_default_pi_p(gap, tables.A[0::2], params)
    else:
        pi_p_st = _stage_rows(pi_p_pinned)
        pi_p = pi_p_pinned[0::2]
        excess = params.bond_excess_drift * pi_p_st * A     # bond + hP lump
        b0_lo, lo0_st = _rk4_linear_mode(hP, h, f1lo + hP * lo_st + excess)
        b0_hi, hi0_st = _rk4_linear_mode(hP, h, f1hi + hP * hi_st + excess)
    bond = pi_p_st * delta * A
    lump = -zeta * pi_p_st * A
    g_B0 = (fB1 + bond + hP * (lump + B1_st)
            - 0.5 * a * gamma * hP * (lump + lo_st - lo0_st) ** 2
            - 0.5 * ah * gamma * hP * (lump + hi_st - hi0_st) ** 2)
    B0, _ = _rk4_linear_mode(hP, h, g_B0)
    states = np.column_stack((B1, b1_lo, b1_hi, B0, b0_lo, b0_hi))
    if not np.all(np.isfinite(states)):
        raise NumericalError("backward sweep produced non-finite value coefficients")
    return tables, states, pi_p


def pre_default_system(params: ModelParams, measure: ClaimMeasure, grid,
                       root_tol: float = DEFAULT_ROOT_TOL,
                       exp_cap: float = DEFAULT_EXP_CAP):
    """pi_p, B0, b0_lo, b0_hi on ``grid``; see :func:`_solve_coefficients`."""
    _, states, pi_p = _solve_coefficients(params, measure, grid,
                                          root_tol=root_tol, exp_cap=exp_cap)
    return pi_p, states[:, 3], states[:, 4], states[:, 5]


def solve_equilibrium(params: ModelParams, measure: ClaimMeasure,
                      numerics: NumericsConfig) -> EquilibriumSolution:
    """Full equilibrium: strategies and value coefficients on a uniform grid."""
    grid = np.linspace(0.0, params.T, numerics.time_steps + 1)
    tables, states, pi_p = _solve_coefficients(
        params, measure, grid, root_tol=numerics.root_tol, exp_cap=numerics.exp_cap,
    )
    coeffs = ValueCoefficients(
        grid=grid, A=tables.A[0::2],
        B1=states[:, 0], B0=states[:, 3],
        b1_lo=states[:, 1], b1_hi=states[:, 2],
        b0_lo=states[:, 4], b0_hi=states[:, 5],
        r=params.r, T=params.T,
    )
    return EquilibriumSolution(
        grid=grid,
        pi_q=tables.pi_q[0::2], pi_s=tables.pi_s[0::2], pi_p=pi_p,
        coeffs=coeffs,
        fine_grid=tables.times, fine_pi_q=tables.pi_q, fine_pi_s=tables.pi_s,
        u_star=tables.u_star,
    )


def reference_mean_intercepts(params: ModelParams, measure: ClaimMeasure,
                              solution: EquilibriumSolution,
                              exp_cap: float = DEFAULT_EXP_CAP):
    """Mean intercepts of the equilibrium strategy under the reference measure.

    Evaluates the same backward system with every ambiguity level set to zero
    while keeping the strategy fixed, so ``E[X(T) | X(t)=x, H(t)=h]`` equals
    ``e^{r(T-t)} x + b_ref_h(t)``.  Returns (b1_ref, b0_ref) on the solution
    grid.
    """
    pi_p_fine = np.interp(solution.fine_grid, solution.grid, solution.pi_p)
    _, states, _ = _solve_coefficients(
        params, measure, solution.grid,
        betas=(0.0, 0.0, 0.0),
        strategy=(solution._checked_u_star(), solution.fine_pi_s, pi_p_fine),
        exp_cap=exp_cap,
    )
    return states[:, 1], states[:, 4]


# ---------------------------------------------------------------------------
# value function, distortions, penalty
# ---------------------------------------------------------------------------

def value_function(t, x, h: int, coeffs: ValueCoefficients):
    """Equilibrium value e^{r(T-t)} x + B_h(t), with B interpolated linearly."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr > coeffs.T):
        raise ValidationError("t_range", f"time must lie in [0, {coeffs.T}], got {t}")
    if h not in (0, 1):
        raise ValidationError("h_range", f"default state must be 0 or 1, got {h}")
    B = coeffs.B1 if h == 1 else coeffs.B0
    value = np.exp(coeffs.r * (coeffs.T - t_arr)) * np.asarray(x, dtype=float) \
        + np.interp(t_arr, coeffs.grid, B)
    return value if value.ndim else float(value)


@dataclass(frozen=True)
class DistortionSide:
    """One extreme measure: drift shifts phi1, phi2 and jump tilt phi3.

    The jump tilt is stored as exponent coefficients: ``tilt(t)`` returns
    ``(a(t), b(t))`` with ``1 - phi3(t, z) = exp(clip(a z + b z^2))``, scalars
    when they do not depend on t.  :meth:`phi3` is derived from them, so the
    claim sampler and the distortion identities read the same tilt.

    ``sign`` is +1 for the ambiguity-averse (infimum) measure, whose penalty
    enters the objective with a plus sign, and -1 for the ambiguity-seeking
    (supremum) measure.
    """

    phi1: Callable[[np.ndarray], np.ndarray]
    phi2: Callable[[np.ndarray], np.ndarray]
    tilt: Callable[[np.ndarray], tuple]
    sign: int
    exp_cap: float = DEFAULT_EXP_CAP

    def phi3(self, t, z):
        a, b = self.tilt(np.asarray(t, dtype=float))
        z = np.asarray(z, dtype=float)
        x = np.clip(a * z + b * z * z, -self.exp_cap, self.exp_cap)
        return -np.expm1(np.broadcast_to(x, np.broadcast_shapes(np.shape(t), x.shape)))


@dataclass(frozen=True)
class DistortionFunctions:
    """The extremal distortions of a strategy: the averse and seeking sides.

    phi1/phi2 are deterministic functions of t, phi3 of (t, z); the hi
    functions are the sign-flipped (i = 1, 2) and reciprocal-exponential
    (i = 3) counterparts of the lo functions.
    """

    lo: DistortionSide
    hi: DistortionSide

    phi1_lo = property(lambda self: self.lo.phi1)
    phi2_lo = property(lambda self: self.lo.phi2)
    phi3_lo = property(lambda self: self.lo.phi3)
    phi1_hi = property(lambda self: self.hi.phi1)
    phi2_hi = property(lambda self: self.hi.phi2)
    phi3_hi = property(lambda self: self.hi.phi3)


def _extremal_pair(times, pi_s_values, tilt_lo, params: ModelParams,
                   exp_cap: float) -> DistortionFunctions:
    """Both sides from the stock amount on ``times`` and the lo jump tilt."""
    pi_s_values = np.asarray(pi_s_values, dtype=float)

    def phi1_lo(t):
        return params.beta1 * (params.sigma1 + params.sigma2 * params.rho
                               * np.interp(t, times, pi_s_values)) * params.discount_to_horizon(t)

    def phi2_lo(t):
        return params.beta2 * params.sigma2 * params.rho_hat \
            * np.interp(t, times, pi_s_values) * params.discount_to_horizon(t)

    def tilt_hi(t):
        a, b = tilt_lo(t)
        return -a, -b

    return DistortionFunctions(
        lo=DistortionSide(phi1_lo, phi2_lo, tilt_lo, +1, exp_cap),
        hi=DistortionSide(lambda t: -phi1_lo(t), lambda t: -phi2_lo(t), tilt_hi, -1, exp_cap),
    )


def _tilt_coefficients(u, params: ModelParams):
    """(a, b) of beta3 E = beta3 (u z + (gamma/2) u^2 z^2), u = pi_q A."""
    return params.beta3 * u, 0.5 * params.beta3 * params.gamma * u * u


def strategy_distortions(times: np.ndarray, pi_q_values: np.ndarray,
                         pi_s_values: np.ndarray, params: ModelParams,
                         exp_cap: float = DEFAULT_EXP_CAP) -> DistortionFunctions:
    """Extremal distortions induced by any deterministic strategy.

    The strategy is given by samples on ``times`` and interpolated linearly in
    between; the closed-form first-order conditions in phi hold for arbitrary
    deterministic strategies, not just the equilibrium one.
    """
    times = np.asarray(times, dtype=float)
    pi_q_values = np.asarray(pi_q_values, dtype=float)

    def tilt_lo(t):
        return _tilt_coefficients(np.interp(t, times, pi_q_values)
                                  * params.discount_to_horizon(t), params)

    return _extremal_pair(times, pi_s_values, tilt_lo, params, exp_cap)


def distortions(solution: EquilibriumSolution, params: ModelParams,
                exp_cap: float = DEFAULT_EXP_CAP) -> DistortionFunctions:
    """Extremal distortions of the equilibrium solution (evaluated lazily).

    ``pi_q A = u*`` at every t, so the jump tilt has constant coefficients.
    """
    a, b = _tilt_coefficients(solution._checked_u_star(), params)
    return _extremal_pair(solution.fine_grid, solution.fine_pi_s, lambda t: (a, b),
                          params, exp_cap)


# Below this |phi3| the entropy q log q + phi3 (q = 1 - phi3) is taken from its
# series phi3^2/2 + phi3^3/6 + phi3^4/12 (general term phi3^k / (k(k-1))).  The
# dropped tail is at most |phi3|^3/10 of the value, 1.6e-12 at the cut-off.
# Above it the log1p form loses about 1e-15/|phi3| relative to cancellation,
# at most 4e-12 (checked against 50-digit arithmetic).
_ENTROPY_SERIES_CUTOFF = 2.5e-4


def _jump_entropy(phi3: np.ndarray) -> np.ndarray:
    small = np.abs(phi3) < _ENTROPY_SERIES_CUTOFF
    p = np.where(small, phi3, 0.0)  # keeps the unused series branch from overflowing
    series = p * p * (0.5 + p * (1.0 / 6.0 + p / 12.0))
    return np.where(small, series, (1.0 - phi3) * np.log1p(-phi3) + phi3)


def penalty_rate(phi1: float, phi2: float, phi3_nodes, params: ModelParams,
                 measure: ClaimMeasure):
    """Entropic penalty per unit time for distortion values at one instant.

    ``phi3_nodes`` holds phi3(t, z_i) on the measure's quadrature nodes.
    Raises for phi3 >= 1 anywhere (outside the admissible distortion range).
    Vectorized: phi1/phi2 may be arrays if phi3_nodes carries a matching
    leading axis.
    """
    phi3 = np.asarray(phi3_nodes, dtype=float)
    if np.any(phi3 >= 1.0):
        raise ValidationError("phi3>=1", "jump distortion must satisfy phi3 < 1 everywhere")
    entropy = _jump_entropy(phi3) @ measure.weights
    rate = (np.asarray(phi1, dtype=float) ** 2 / (2.0 * params.beta1)
            + np.asarray(phi2, dtype=float) ** 2 / (2.0 * params.beta2)
            + entropy / params.beta3)
    return rate if rate.ndim else float(rate)
