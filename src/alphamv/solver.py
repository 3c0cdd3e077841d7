"""Equilibrium strategies, value coefficients, and probability distortions.

The solution has two default states.  Post-default, the reinsurance exposure
solves a scalar integral equation and the stock amount is in closed form; the
value intercepts are plain time integrals.  The integral equation depends on
time only through ``A(t)``, so its root is ``pi_q(t) = u* e^{-r(T-t)}`` with
one scalar ``u*``, the same in both default states.  Pre-default, the bond
amount is eliminated algebraically from its first-order condition at every
instant, which couples the two mean intercepts.

The intercepts solve linear ODEs, and :func:`solve_equilibrium` takes them in
closed form (:func:`_value_intercepts`): with ``pi_q A = u*`` and ``pi_s A``
affine in A, the post-default integrands are quadratics in A; with pi_p at
its first-order condition, the pre-default ones add the bond-gap mode of
rate ``delta/zeta`` and the default mode of rate hP, all through ``expm1``.
Classical RK4 on the same system stays as the independent route, in
:func:`pre_default_system` only.

Time convention: ``tau = T - t`` and ``A(t) = e^{r tau}`` is the accumulation
factor to the horizon.  The claim integrals see the strategy only through
``u = pi_q(t) A(t)``, in the recurring jump-exponent body

    E(u, z) = u z + (gamma/2) u^2 z^2,

and every distorted integrand carries ``exp(+-beta3 E)``.  At the equilibrium
``u = u*`` at every t, so the intercept equations evaluate their claim
integrals once, on the node row at ``u*``, and never on a times x nodes
grid.

A lane is one parameter set with its claim row, a row of
:class:`~alphamv.levy.ClaimTables` (probability weights, lambda in its spec);
a lane call takes one row per lane and one float ``root_tol`` and ``exp_cap``.
The first-order condition is lambda times a lambda-free function, and has
one float64 evaluator, of ``f`` and ``f'`` from tilted claim moments
(:class:`_FocLanes`); the intercepts have one, :func:`_value_intercepts`.
A sweep solves all its points as lanes of one safeguarded Newton, which
masks out each lane once it converges, and takes their intercepts in one
call; a solve is a single lane of each, on the one-row table that its
:class:`~alphamv.levy.ClaimMeasure` is a view of.  The bracket ends at the
edge where Assumption 3.1 fails.
The ``root_tol`` check of the residual ``F(t, pi_q(t))`` at every requested
time reads it as ``A(t) f(u)``, and so do :func:`reinsurance_foc` and the
sign scan of :func:`scan_foc_sign_changes`.
Exponent arguments are saturated at ``+-exp_cap`` before exponentiation:
Newton's probe iterates clip silently, and a saturation at a returned root
warns (SaturationWarning, not an error), once per root call; the claim
integrals of the intercepts and the distortions clip at the same cap silently.

A solve is one record, the :class:`EquilibriumSolution`, which holds only
its inputs: its grid and the one copy of the model, the parameters, the
claim measure, ``u*`` and ``exp_cap``, none of them optional.  The six
value intercepts on the grid are built from them when the record is, by
the closed form that :func:`value_function` evaluates at any t, and the
strategy columns are the closed forms at ``u*``; so a record cannot carry
columns of another grid or model.  What is built from a solve holds it and
derives the rest: a :class:`DistortionSide` is a solved strategy and a
sign, its drift shifts, jump tilt and cap all read from the solve.  The
calls made with a solution or a side (:func:`distortions`,
:func:`reference_mean_intercepts`, and the simulator's runs and objective)
raise a ValidationError (tag ``inputs``) when handed other parameters or
another measure object.  The strategy's closed forms and the side's
distortions take a t in [0, T] only (tag ``t_range``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .config import (NUMERICS_DEFAULTS, ModelParams, NumericsConfig, _require_integer,
                     _require_positive)
from .errors import NumericalError, SaturationWarning, ValidationError
from .levy import ClaimMeasure, ClaimTables, _lane_dot, _per_lane, tilt_limit

__all__ = [
    "EquilibriumSolution",
    "DistortionFunctions",
    "DistortionSide",
    "pi_s_star",
    "pi_p_star",
    "reinsurance_foc",
    "solve_pi_q_star",
    "solve_pi_q_grid",
    "solve_pi_q_lanes",
    "scan_foc_sign_changes",
    "pre_default_system",
    "rk4_stable_steps",
    "solve_equilibrium",
    "reference_mean_intercepts",
    "distortions",
    "value_function",
    "penalty_rate",
]

DEFAULT_EXP_CAP = NUMERICS_DEFAULTS["exp_cap"]
DEFAULT_ROOT_TOL = NUMERICS_DEFAULTS["root_tol"]

# The largest beta3 -> 0 root u0 accepted; beyond it the root is a "bracket" error.
_BRACKET_LIMIT = 2.0 ** 59
# Safeguarded Newton on u*: stop below this relative step.  The iterate bound
# counts Newton and bisection steps together; bisection alone shrinks a bracket
# of width u* to this tolerance in 47 steps.
_ROOT_RTOL = 1e-14
_MAX_ROOT_ITERS = 100
# Work-table size of the sign scan's row chunks.  glibc may serve a block of
# 128 KiB or more (its initial mmap threshold) from fresh pages, whose faults
# cost more than the arithmetic on them.
_CHUNK_BYTES = 1 << 16


# ---------------------------------------------------------------------------
# closed-form stock strategy
# ---------------------------------------------------------------------------

def _stock_coefficients(params: ModelParams) -> tuple[float, float]:
    """``(s0, s1)`` with ``pi_s_star(t) A(t) = s0 + s1 A(t)``.

    NumericalError unless both are finite: the stock formulas divide by
    ``sigma2^2 (gamma + (2 alpha - 1)(beta1 rho^2 + beta2 rho_hat^2))``, which
    underflows to 0 for tiny sigma2.  Checked in Python floats, which do not
    warn.
    """
    two_a = 2.0 * params.alpha - 1.0
    # gamma + (2 alpha - 1)(beta1 rho^2 + beta2 rho_hat^2) > 0 for alpha >= 1/2
    scale = params.sigma2 ** 2 * (params.gamma + two_a * (params.beta1 * params.rho ** 2
                                                          + params.beta2 * params.rho_hat ** 2))
    if scale != 0.0:
        s0 = (params.mu - params.r) / scale
        s1 = -params.sigma1 * params.sigma2 * params.rho \
            * (params.gamma + two_a * params.beta1) / scale
        if math.isfinite(s0) and math.isfinite(s1):
            return s0, s1
    raise NumericalError(
        "stock demand out of floating-point range: sigma2^2 (gamma + (2 alpha - 1)"
        f"(beta1 rho^2 + beta2 rho_hat^2)) = {scale:g} for sigma2={params.sigma2:g}"
    )


def pi_s_star(t, params: ModelParams):
    """Equilibrium stock amount ``s0 e^{-r(T-t)} + s1``; identical pre- and post-default.

    ``(s0, s1)`` are :func:`_stock_coefficients`, whose NumericalError this
    raises where the stock demand is out of floating-point range.  The
    discount multiplies, so it underflows silently for a huge ``r (T - t)``
    rather than overflow.  ValidationError (tag ``t_range``) for a t outside
    [0, T] or NaN.  Vectorized over t; returns a scalar for scalar input.
    """
    _check_times(t, params.T)
    s0, s1 = _stock_coefficients(params)
    value = s0 * np.exp(-params.r * (params.T - np.asarray(t, dtype=float))) + s1
    return value if value.ndim else float(value)


def _check_bond_demand(params: ModelParams) -> None:
    """NumericalError unless the bond demand is a finite floating-point number.

    Every bond formula divides by ``gamma zeta^2 hP`` (times delta in
    :func:`pi_p_star`), which is 0 for hP = 0 or zeta = 0 and underflows to 0
    for tiny zeta; ``pi_p(T) = n0 / (gamma zeta^2 hP)`` and the bond mode's
    decay over the horizon, ``(delta/zeta) T``, must be finite.  Checked in
    Python floats, which do not warn, before any array arithmetic can.
    """
    zeta, hP = params.zeta, params.hP
    if hP == 0.0 or zeta == 0.0:
        raise NumericalError(
            "defaultable-bond demand unbounded: the bond first-order condition has no "
            f"finite root for hP={hP}, zeta={zeta}"
        )
    scale = params.gamma * zeta ** 2 * hP          # as the bond formulas round it
    if (scale == 0.0 or params.gamma * params.delta * zeta ** 2 * hP == 0.0
            or not math.isfinite(params.bond_excess_drift / scale)
            or not math.isfinite(params.h_q * params.T)):
        raise NumericalError(
            "defaultable-bond demand out of floating-point range: gamma zeta^2 hP = "
            f"{scale:g} and delta/zeta = {params.h_q:g} for zeta={zeta:g}, hP={hP:g}"
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
    and it is exactly 0 at the fair spread ``delta = zeta hP``.  The RK4 sweep
    of :func:`pre_default_system` computes the same column by the independent
    route.  NumericalError for hP = 0 or zeta = 0 (no finite bond demand),
    and ValidationError (tag ``t_range``) for a t outside [0, T] or NaN.
    Vectorized over t; returns a scalar for scalar input.
    """
    t = np.asarray(t, dtype=float)
    _check_times(t, params.T)
    _check_bond_demand(params)
    n0, zeta, hP = params.bond_excess_drift, params.zeta, params.hP
    decay = np.exp(-params.h_q * (params.T - t))
    value = n0 * (zeta * hP + n0 * decay) / (
        params.gamma * params.delta * zeta ** 2 * hP * params.discount_to_horizon(t))
    return value if value.ndim else float(value)


# ---------------------------------------------------------------------------
# reinsurance first-order condition and root solve
# ---------------------------------------------------------------------------

def _check_times(t, T) -> None:
    """ValidationError (tag ``t_range``) unless every t lies in [0, T]; NaN fails too."""
    if isinstance(t, float) and 0.0 <= t <= T:
        return          # a scalar in range skips numpy's per-call cost
    t = np.asarray(t, dtype=float)
    inside = (t >= 0.0) & (t <= T)
    if not inside.all():
        t_out, T_out = (float(np.broadcast_to(v, inside.shape)[~inside][0]) for v in (t, T))
        raise ValidationError("t_range", f"time must lie in [0, {T_out}], got {t_out}")


def _warn_saturated(exp_cap: float, stacklevel: int) -> None:
    warnings.warn(
        f"exponent saturated at +-{exp_cap:g} during claim-integral evaluation",
        SaturationWarning, stacklevel=stacklevel + 1,
    )


class _FocLanes(NamedTuple):
    """The first-order condition at ``A = 1`` per unit claim intensity, over lanes.

    ``f(u) = F(T, u) / lambda``.  A lane is one parameter set with its claim
    row: the tables have one row per lane, row l belongs to lane l, and
    ``exp_cap`` is one float for all.  The weights are the probability
    weights of :class:`~alphamv.levy.ClaimTables`, so f does not depend on
    lambda.  f and f' are sums of the tilted moments ``M+-_k = sum_i p_i
    z_i^k e^{+-x_i}`` of ``x = beta3 E(u, z) = a z + b z^2``, ``a = beta3
    u``, ``b = a gamma u / 2`` (as in :meth:`DistortionSide.exponent`):

        f  = (1 + eta) m1 - sum_+- alpha_+- (M+-_1 + gamma u M+-_2),
        f' = -gamma sum_+- alpha_+- M+-_2
             - beta3 sum_+- (+-alpha_+-) (M+-_2 + 2 gamma u M+-_3 + (gamma u)^2 M+-_4)

    with ``alpha_+ = alpha``, ``alpha_- = alpha_hat``.  An evaluation is one
    exponential per node and two products with ``powers``, the table of
    ``p z^k``: one with ``e^{x}`` and one with its reciprocal ``e^{-x}``.
    """

    z12: np.ndarray         # z and z^2, (rows, 2, nodes)
    z_max: np.ndarray       # (rows,): the row's largest node
    powers: np.ndarray      # p z^k for k = 1..4, (rows, 4, nodes)
    gamma: np.ndarray       # (rows,)
    beta3: np.ndarray
    alpha: np.ndarray
    alpha_hat: np.ndarray
    premium: np.ndarray     # (1 + eta) m1, (rows,)
    exp_cap: float

    @classmethod
    def stack(cls, params: Sequence[ModelParams], tables: ClaimTables,
              exp_cap: float) -> "_FocLanes":
        """Lanes of ``params[l]`` with row l of ``tables``, all at the one float ``exp_cap``."""
        z, p = tables.nodes, tables.probs
        gamma, beta3, alpha, alpha_hat, eta = np.array(
            [(q.gamma, q.beta3, q.alpha, q.alpha_hat, q.eta) for q in params]).T
        z2 = z * z
        powers = np.array([z, z2, z2 * z, z2 * z2]) * p
        return cls(np.array([z, z2]).transpose(1, 0, 2), z.max(axis=1),
                   powers.transpose(1, 0, 2), gamma, beta3, alpha, alpha_hat,
                   (1.0 + eta) * _lane_dot(z, p[:, :, None]), float(exp_cap))

    def take(self, lanes) -> "_FocLanes":
        """The lanes selected by an index array, in that order."""
        return self._make(a if isinstance(a, float) else a[lanes] for a in self)

    def __call__(self, u: np.ndarray, slope: bool = True):
        """``(f, f')`` at ``u``, or ``(f, saturated)`` without ``slope``.

        ``u`` has one entry per lane: x is taken node by node and each
        lane's moments are one BLAS call, the same at any lane count.  Or
        it has many entries on a one-row table: x and the moments are
        matrix products.  x clips at ``exp_cap``; ``saturated`` flags the
        entries whose x at the row's largest node ``z_max`` exceeds it: x is
        nondecreasing in z for ``u >= 0``, so that is its largest value in
        any node order (to the last bit of a matrix product).  This never
        warns.
        """
        gu = self.gamma * u
        a = self.beta3 * u
        b = 0.5 * a * gu
        powers = self.powers[:, :4 if slope else 2]
        if len(u) == len(powers):
            x = a[:, None] * self.z12[:, 0] + b[:, None] * self.z12[:, 1]

            def moments(e):
                return (powers @ e[:, :, None])[:, :, 0].T
        else:
            x = np.array([a, b]).T @ self.z12[0]

            def moments(e):
                return powers[0] @ e.T
        e = np.exp(np.minimum(x, self.exp_cap, out=x), out=x)
        up = self.alpha * moments(e)
        down = self.alpha_hat * moments(np.reciprocal(e, out=e))
        mix = up + down         # sum_+- alpha_+- M+-_k
        value = self.premium - (mix[0] + gu * mix[1])
        if not slope:
            return value, a * self.z_max + b * (self.z_max * self.z_max) > self.exp_cap
        tilt = up - down        # sum_+- (+-alpha_+-) M+-_k
        tilt_g2 = tilt[1] + gu * (2.0 * tilt[2] + gu * tilt[3])    # G^2 = (z + gamma u z^2)^2
        return value, -self.gamma * mix[1] - self.beta3 * tilt_g2


def reinsurance_foc(t, pi_q, params: ModelParams, measure: ClaimMeasure,
                    exp_cap: float = DEFAULT_EXP_CAP):
    """Residual of the reinsurance first-order condition.

    Positive at pi_q = 0 (equals eta * e^{r(T-t)} * int z nu(dz) there) and
    strictly decreasing in pi_q for alpha >= 1/2, so the root is unique.
    Evaluated as ``lambda A(t) f(pi_q A(t))`` (see :class:`_FocLanes`); warns
    SaturationWarning when any exponent is clipped.  Broadcasts over t and
    pi_q.  ValidationError for a t outside [0, T] (tag ``t_range``), a
    non-finite or negative pi_q, or an ``exp_cap`` not finite and > 0.
    """
    exp_cap = _require_positive("exp_cap", float(exp_cap))
    pi_q = np.asarray(pi_q, dtype=float)
    if not np.isfinite(pi_q).all():
        raise ValidationError("nonfinite:pi_q", "reinsurance exposure pi_q must be finite")
    if np.any(pi_q < 0):
        raise ValidationError("pi_q<0", "reinsurance exposure must satisfy pi_q >= 0")
    t = np.asarray(t, dtype=float)
    _check_times(t, params.T)
    A = params.discount_to_horizon(t)
    A, u = np.broadcast_arrays(A, pi_q * A)
    f, saturated = _FocLanes.stack([params], measure.tables, exp_cap)(u.ravel(), slope=False)
    if saturated.any():
        _warn_saturated(exp_cap, stacklevel=2)
    F = (measure.spec.lam * A) * f.reshape(A.shape)
    return F if F.ndim else float(F)


def _bracket_error(u0: float) -> NumericalError:
    why = "exceeds 2^59" if math.isfinite(u0) else "is not finite"
    return NumericalError(
        f"pi_q bracket [0, 2 u0] out of range: u0 = eta m1 / (gamma m2) = {u0:g} "
        f"{why}: pathological parameters"
    )


def _root_start(params: ModelParams, limit: float, m1: float,
                m2: float) -> tuple[float, float]:
    """``(u0, u_c)``, the ``beta3 -> 0`` root and the integrability edge: ``u* < min(2 u0, u_c)``.

    For alpha >= 1/2, ``alpha e^x + alpha_hat e^-x >= 1`` at ``x = beta3 E
    >= 0`` (also after clipping), so ``f(u) <= eta m1 - gamma m2 u``, which is
    ``-eta m1 < 0`` at ``2 u0 = 2 eta m1 / (gamma m2)``.  The tilt ``exp(beta3
    E)`` has ``b = beta3 gamma u^2 / 2``, which reaches ``limit``, the claim
    law's :func:`~alphamv.levy.tilt_limit`, at ``u_c = 1/(sigmaZ sqrt(beta3
    gamma))`` (inf for a table or an underflowed ``beta3 gamma``); past it
    Assumption 3.1 fails.  ``m1``, ``m2`` are the caller's moments ``sum_i
    p_i z_i^k`` of the probability weights, floats.  NumericalError
    ("bracket") when u0 is not finite (all weights 0: ``m2 = 0``) or exceeds
    2^59.
    """
    try:
        u0 = params.eta * m1 / (params.gamma * m2)
    except ZeroDivisionError:
        u0 = math.nan
    if not u0 <= _BRACKET_LIMIT:
        raise _bracket_error(u0)
    curvature = params.beta3 * params.gamma
    return u0, math.sqrt(2.0 * limit / curvature) if curvature > 0 else math.inf


def _newton_root(foc: _FocLanes, u: np.ndarray, hi: np.ndarray,
                 failures: dict) -> np.ndarray:
    """Root of the decreasing f of every lane on ``[0, hi]``: safeguarded Newton from u.

    Every iteration evaluates f and f' for all running lanes at once; each
    lane then keeps its own bracket, tightened by the sign of f at every
    iterate.  A lane's Newton step is replaced by bisection when it leaves
    the bracket, when the slope overflowed, or when it is more than half the
    lane's previous step.  f is concave (``G mix`` is a product of positive,
    increasing, convex functions of u), so Newton from above the root
    descends monotonically; but where ``beta3 E`` is steep it gains only
    about one unit of ``beta3 E`` per step, hundreds of steps under exponent
    clipping.  A lane stops when its step falls below ``_ROOT_RTOL`` of u and
    is masked out of the evaluations from then on.  A lane still running
    after ``_MAX_ROOT_ITERS`` is NaN in the result, and ``failures`` maps its
    index to a NumericalError.  Probe iterates saturate or overflow silently.
    """
    root = np.full(len(u), np.nan)
    # per running lane: (index, iterate, bracket low, bracket high, last step)
    running = [(lane, x, 0.0, h, math.inf)
               for lane, (x, h) in enumerate(zip(u.tolist(), hi.tolist()))]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ROOT_ITERS):
            if not running:
                return root
            u = np.array([state[1] for state in running])
            value, slope = foc(u)
            newton = (u - value / slope).tolist()
            kept, rows = [], []
            for row, ((lane, x, lo, hi, step), f, df, new) in enumerate(
                    zip(running, value.tolist(), slope.tolist(), newton)):
                if f > 0:
                    lo = x
                elif f < 0:
                    hi = x
                elif f == 0:
                    root[lane] = x
                    continue
                # NaNs fail the comparisons; an overflowed slope would stall at x
                if not (math.isfinite(df) and lo <= new <= hi and abs(new - x) <= 0.5 * step):
                    new = 0.5 * (lo + hi)
                step = abs(new - x)
                if step <= _ROOT_RTOL * x:
                    root[lane] = new
                    continue
                kept.append((lane, new, lo, hi, step))
                rows.append(row)
            if kept and len(kept) < len(running):
                foc = foc.take(np.array(rows))
            running = kept
    for lane, _, lo, hi, _ in running:
        failures[lane] = NumericalError(
            f"pi_q root did not converge in {_MAX_ROOT_ITERS} safeguarded Newton steps "
            f"(bracket [{lo:g}, {hi:g}])"
        )
    return root


def _identity_residuals(pi_q: np.ndarray, A: np.ndarray, foc: _FocLanes):
    """``F(t, pi_q(t))`` on (lanes, times) tables as ``A(t) f(pi_q(t) A(t))``.

    f is evaluated once per distinct value of ``pi_q A`` in a lane: for
    ``pi_q = u*/A`` rounding leaves a few, not one per time.  Also returns
    which lanes saturated an exponent at those values.
    """
    u = pi_q * A
    lanes, times = u.shape
    if not u.size:
        return u, np.zeros(lanes, dtype=bool)
    # each lane's values sorted, lane after lane, in one flat order
    order = (np.argsort(u, axis=1) + np.arange(0, u.size, times)[:, None]).reshape(-1)
    sorted_u = u.reshape(-1)[order]
    first = np.empty(u.size, dtype=bool)
    np.not_equal(sorted_u[1:], sorted_u[:-1], out=first[1:])
    first[::times] = True
    lane = first.nonzero()[0] // times
    f, saturated = foc.take(lane)(sorted_u[first], slope=False)
    F = np.empty(u.size)
    F[order] = f[np.cumsum(first) - 1]
    hit = np.zeros(lanes, dtype=bool)
    hit[lane[saturated]] = True
    return A * F.reshape(u.shape), hit


def _check_lanes(params: Sequence[ModelParams], tables: ClaimTables) -> None:
    """ValidationError (tag ``lanes``) unless ``tables`` has one row per lane."""
    if len(tables.specs) != len(params):
        raise ValidationError("lanes", f"got {len(tables.specs)} rows for {len(params)} lanes")


def solve_pi_q_lanes(times, params: Sequence[ModelParams], tables: ClaimTables,
                     root_tol: float = DEFAULT_ROOT_TOL, exp_cap: float = DEFAULT_EXP_CAP):
    """Equilibrium reinsurance exposure at ``times`` for many parameter sets at once.

    Lane l is ``params[l]`` with row l of ``tables`` (tag ``lanes`` unless
    one row per lane).  ``times`` is one sequence for every lane or a
    (lanes, times) table (tag ``lanes`` for another row count); ``root_tol`` and ``exp_cap`` are one float each for
    the call (a per-lane sequence raises TypeError).  Each lane's ``u*``
    comes from :func:`_newton_root`, all lanes in one masked iteration, on
    the bracket ``[0, min(2 u0, u_c)]`` of :func:`_root_start` from ``min(u0,
    u_c)``; ``f(u0) <= 0`` as well, so the first iterate tightens it to ``[0,
    u0]`` (up to rounding near ``beta3 = 0``).  Where ``f(u_c) >= 0`` no
    root lies below the edge, and the lane gets the Assumption 3.1 error.
    Then ``pi_q(t) = u* / A(t)``, and its residual is checked at every time
    through :func:`_identity_residuals`: at most ``root_tol`` relative to the
    natural scale ``eta e^{r(T-t)} int z nu(dz)``, both per unit claim
    intensity; a NaN residual fails.

    Returns ``(pi_q, errors)``: pi_q has shape (lanes, times) and NaN rows
    where ``errors[l]`` holds the lane's NumericalError (bracket, Assumption
    3.1, Newton or residual), else None; no lanes give (0, times) and ``[]``.
    Warns SaturationWarning once, at ``exp_cap``, when an exponent saturates
    at a returned root.  ValidationError for a time outside a lane's [0, T]
    (tag ``t_range``) or a ``root_tol`` or ``exp_cap`` not finite and > 0.
    """
    root_tol = _require_positive("root_tol", float(root_tol))
    exp_cap = _require_positive("exp_cap", float(exp_cap))
    t = np.asarray(times, dtype=float)
    t = t if t.ndim == 2 else t.reshape(-1)
    _check_lanes(params, tables)
    n = len(params)
    if t.ndim == 2 and len(t) != n:
        raise ValidationError("lanes", f"got {len(t)} rows of times for {n} lanes")
    if not n:
        return np.empty((0, t.shape[-1])), []
    eta, r, T = np.array([(p.eta, p.r, p.T) for p in params]).T
    _check_times(t, T[:, None])
    foc = _FocLanes.stack(params, tables, exp_cap)
    m1, m2 = _lane_dot(np.moveaxis(foc.z12, 1, 0), tables.probs[:, :, None])
    scale = root_tol * eta * m1                 # residual bound at A = 1, per lane
    u0, u_c, errors = np.full(n, np.nan), np.full(n, np.inf), [None] * n
    for lane, args in enumerate(zip(params, map(tilt_limit, tables.specs),
                                    m1.tolist(), m2.tolist())):
        try:
            u0[lane], u_c[lane] = _root_start(*args)
        except NumericalError as exc:
            errors[lane] = exc
    cut = (u_c <= u0).nonzero()[0]      # a NaN u0 (bracket error) compares False
    if cut.size:
        for lane, f in zip(cut.tolist(), foc.take(cut)(u_c[cut], slope=False)[0].tolist()):
            if not f < 0:
                u0[lane], errors[lane] = np.nan, NumericalError(
                    "Assumption 3.1 fails: the claim integrals under exp(beta3 E(u, z)) "
                    f"diverge for u = pi_q e^{{r(T-t)}} >= u_c = 1/(sigmaZ sqrt(beta3 gamma)) "
                    f"= {u_c[lane]:g}, and f(u_c) = {f:g} >= 0: no pi_q root below the edge")
    failures = {}
    u_star = np.full(n, np.nan)
    live = np.isfinite(u0).nonzero()[0]
    if live.size:
        u_star[live] = _newton_root(foc if live.size == n else foc.take(live),
                                    np.minimum(u0, u_c)[live],
                                    np.minimum(2.0 * u0, u_c)[live], failures)
    for k, error in failures.items():
        errors[live[k]] = error
    A = np.exp(r[:, None] * (T[:, None] - t))
    pi_q = u_star[:, None] / A
    live = np.isfinite(u_star).nonzero()[0]
    if live.size < n:
        foc, A, scale = foc.take(live), A[live], scale[live]
    residual, saturated = _identity_residuals(pi_q[live], A, foc)
    within = np.abs(residual) <= scale[:, None] * A
    for k in (~within.all(axis=1)).nonzero()[0].tolist():
        errors[live[k]] = NumericalError("pi_q roots did not reach the configured tolerance")
        pi_q[live[k]] = np.nan
    if saturated.any():
        _warn_saturated(exp_cap, stacklevel=2)
    return pi_q, errors


def solve_pi_q_grid(times, params: ModelParams, measure: ClaimMeasure,
                    root_tol: float = DEFAULT_ROOT_TOL,
                    exp_cap: float = DEFAULT_EXP_CAP) -> np.ndarray:
    """Unique equilibrium reinsurance exposure at every time (any default state).

    Time enters the first-order condition only through ``A(t)``: with
    ``u = pi_q A(t)``, ``F(t, pi_q) = A(t) f(u)`` where ``f`` does not depend
    on t.  So one scalar root ``u*`` of ``f`` gives ``pi_q(t) = u* / A(t)``:
    :func:`solve_pi_q_lanes` with one lane.  Raises its NumericalError
    (bracket, Newton, or a residual above ``root_tol`` at some time).
    """
    times = np.asarray(times, dtype=float)
    pi_q, errors = solve_pi_q_lanes(times.reshape(-1), [params], measure.tables, root_tol,
                                    exp_cap)
    if errors[0] is not None:
        raise errors[0]
    return pi_q[0].reshape(times.shape)


def solve_pi_q_star(t: float, params: ModelParams, measure: ClaimMeasure,
                    root_tol: float = DEFAULT_ROOT_TOL,
                    exp_cap: float = DEFAULT_EXP_CAP) -> float:
    """:func:`solve_pi_q_grid` at the single time t."""
    return float(solve_pi_q_grid(t, params, measure, root_tol, exp_cap))


def scan_foc_sign_changes(times, params: ModelParams, measure: ClaimMeasure,
                          n_points: int = 10_000,
                          exp_cap: float = DEFAULT_EXP_CAP) -> np.ndarray:
    """Sign changes of F(t, .) over an ``n_points`` scan of its root bracket, per time.

    ``F(t, pi) = A f(pi A)`` and the bracket ``[0, min(2 u0, u_c) / A]`` of
    :func:`_root_start` scales as ``1/A``, so the scan at every t is the same
    scan of the one function f on ``[0, min(2 u0, u_c)]``: once, by
    :class:`_FocLanes` in row chunks of ``_CHUNK_BYTES``, and its count is
    returned for every time.  Zeros are skipped.  ``f(2 u0) <= -eta m1``
    keeps the end of the scan clear of the root, unless u_c cuts it.  x
    clips at ``min(exp_cap, 300)``, above which ``e^{-x} p z^k`` nears the
    slow subnormal range.  That keeps every sign: clipping only raises f
    (``alpha >= alpha_hat``), and a clipped node's term ``alpha e^300 p_i
    G_i`` alone outweighs the premium ``(1 + eta) m1`` unless the node
    holds under about e^-299 of the mean claim.  ValidationError for a time
    outside [0, T] (tag ``t_range``), an ``n_points`` that is not an integer
    >= 2, or an ``exp_cap`` that is not finite and positive.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    _check_times(times, params.T)
    n_points = _require_integer("n_points", n_points)
    if n_points < 2:
        raise ValidationError("n_points<2", f"the scan needs n_points >= 2, got {n_points}")
    exp_cap = _require_positive("exp_cap", float(exp_cap))
    z, p = measure.nodes, measure.probs
    u0, u_c = _root_start(params, tilt_limit(measure.spec), float(p @ z), float(p @ z ** 2))
    foc = _FocLanes.stack([params], measure.tables, min(exp_cap, 300.0))
    u = np.linspace(0.0, min(2.0 * u0, u_c), n_points)
    rows = max(1, _CHUNK_BYTES // (8 * z.size))
    signs = np.sign(np.concatenate([foc(u[lo:lo + rows], slope=False)[0]
                                    for lo in range(0, n_points, rows)]))
    signs = signs[signs != 0]
    return np.full(times.shape, np.count_nonzero(signs[1:] != signs[:-1]))


# ---------------------------------------------------------------------------
# coefficient system
# ---------------------------------------------------------------------------

def _coeffs(strategy) -> EquilibriumSolution:
    """The solve ``strategy`` carries as ``coeffs``; ValidationError (tag ``u_star``) if none."""
    coeffs = getattr(strategy, "coeffs", None)
    if coeffs is None:
        raise ValidationError("u_star", f"{type(strategy).__name__} has no coeffs with u_star: "
                              "pi_q(t) = u_star e^{-r(T-t)} (solve_equilibrium sets it)")
    return coeffs


def _solved_coeffs(strategy, params: ModelParams, measure=None) -> EquilibriumSolution:
    """The :func:`_coeffs` of ``strategy``, checked against the caller's copies.

    ValidationError (tag ``inputs``) when ``params`` differs from
    ``coeffs.params`` or a given ``measure`` is not the object
    ``coeffs.measure``.  A measure is compared by identity: ``==`` of two
    measures compares their arrays.
    """
    coeffs = _coeffs(strategy)
    if params != coeffs.params or (measure is not None and measure is not coeffs.measure):
        raise ValidationError("inputs", f"{'params' if params != coeffs.params else 'measure'} "
                              "is not the solution's own: calls after the solve take its coeffs")
    return coeffs


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    """One solve: its inputs, and the equilibrium strategy and value intercepts they give.

    The fields are the one copy of the solve's inputs: ``grid``, a time grid
    in [0, T], and ``params``, ``measure``, ``u_star`` and ``exp_cap``, those
    of the closed form :func:`_value_intercepts` (one lane at one cap).  A
    call given this solution with other parameters or another measure
    raises (tag ``inputs``).  Everything else is derived from them.
    ``value = A(t) x + B_h(t)`` and the distorted means are ``A(t) x +
    b_h(t)``, with ``A = params.discount_to_horizon``; the six intercept
    columns ``B1, b1_lo, b1_hi, B0, b0_lo, b0_hi`` are those functions on
    ``grid``, built once when the record is, and vanish at T; they are not
    init fields, so no record holds columns of another grid or model, and
    ``dataclasses.replace`` of an input rebuilds them.  :func:`value_function`
    and :func:`reference_mean_intercepts` evaluate the same closed form at
    other times.  ``pi_q(t) = u_star e^{-r(T-t)}``, and the strategy at any
    t in [0, T] (tag ``t_range`` otherwise) is :meth:`pi_q_at` and the
    closed forms :meth:`pi_s_at` and :meth:`pi_p_at`; the columns ``pi_q``,
    ``pi_s`` and ``pi_p`` are them on the grid, evaluated at each read.
    ``pi_q`` and ``pi_s`` are the same functions in both default states;
    ``pi_p`` is the pre-default bond amount (identically 0 after default).
    ``coeffs`` is the solution itself: a solved strategy is one with
    ``coeffs``.  Records compare and hash by identity, as measures are
    compared: ``==`` of their array fields has no single truth value.

    ValidationError (tag ``u_star``) unless ``u_star`` is a finite float >=
    0, (tags ``nonfinite:exp_cap``, ``exp_cap<=0``) unless ``exp_cap`` is
    finite and > 0, and (tag ``t_range``) for a grid time outside [0, T] or
    NaN; NumericalError where the intercepts have none (see
    :func:`_value_intercepts`).
    """

    grid: np.ndarray
    params: ModelParams = field(repr=False)
    measure: ClaimMeasure = field(repr=False)
    u_star: float
    exp_cap: float
    B1: np.ndarray = field(init=False)
    b1_lo: np.ndarray = field(init=False)
    b1_hi: np.ndarray = field(init=False)
    B0: np.ndarray = field(init=False)
    b0_lo: np.ndarray = field(init=False)
    b0_hi: np.ndarray = field(init=False)
    coeffs = property(lambda self: self)
    pi_q = property(lambda self: self.pi_q_at(self.grid))
    pi_s = property(lambda self: self.pi_s_at(self.grid))
    pi_p = property(lambda self: self.pi_p_at(self.grid))

    def __post_init__(self) -> None:
        if not (isinstance(self.u_star, float) and 0.0 <= self.u_star < math.inf):
            raise ValidationError("u_star", f"u_star must be a float in [0, inf), got {self.u_star!r}")
        _require_positive("exp_cap", self.exp_cap)
        for name, column in zip(("B1", "b1_lo", "b1_hi", "B0", "b0_lo", "b0_hi"),
                                self._intercepts_at(self.grid)):
            object.__setattr__(self, name, column)

    def _intercepts_at(self, t, reference: bool = False) -> list:
        """``(B1, b1_lo, b1_hi, B0, b0_lo, b0_hi)`` at times t, each of t's shape.

        :func:`_value_intercepts` at this solve's inputs (``reference`` is
        passed on); raises its lane's NumericalError, and ValidationError
        (tag ``t_range``) for a t outside [0, T] or NaN.
        """
        t = np.asarray(t, dtype=float)
        _check_times(t, self.params.T)
        columns, errors = _value_intercepts(t, [self.params], self.measure.tables,
                                            [self.u_star], self.exp_cap, reference)
        if errors[0] is not None:
            raise errors[0]
        return [column.reshape(t.shape) for column in columns]

    def pi_q_at(self, t):
        _check_times(t, self.params.T)
        return self.u_star / self.params.discount_to_horizon(t)

    def pi_s_at(self, t):
        return pi_s_star(t, self.params)

    def pi_p_at(self, t):
        return pi_p_star(t, self.params)


def _claim_integrals(u_star, beta3, params: Sequence[ModelParams], tables: ClaimTables,
                     exp_cap: float) -> list:
    """``(m1, I+, I-, KB)`` of every lane: the claim integrals of the intercept equations.

    ``m1 = int z nu(dz)``, ``I+- = int z e^{+-beta3 E} nu(dz)`` and the
    entropy jump term ``KB = (alpha_hat int (e^{-beta3 E} - 1) nu - alpha int
    (e^{beta3 E} - 1) nu) / beta3`` of the B equations, at ``u = u_star[l]``.
    They see the reinsurance exposure only through ``u = pi_q A``, which is
    ``u*`` at every t, so each is taken once, on the lane's row of
    ``tables``: on its probability weights, then times its spec's lambda.
    KB takes its ``beta3 -> 0`` limit ``-int E nu`` where ``alpha/beta3`` or
    ``alpha_hat/beta3`` is not finite (beta3 = 0, or subnormal: the error is
    then ``O(beta3 E)``, below rounding).  ``beta3`` has one value per lane
    (a parameter set with its claim row), ``exp_cap`` is one float for all;
    exponents are clipped there silently (the root solve reports saturation
    at u*).  Returns one tuple of Python floats per lane.
    """
    cap = _require_positive("exp_cap", float(exp_cap))
    u, half_gamma, b3 = _per_lane(
        list(zip(u_star, (0.5 * p.gamma for p in params), beta3)), 3)
    z = tables.nodes
    uz = u * z
    E = uz + half_gamma * uz ** 2
    x = b3 * E
    np.minimum(np.maximum(x, -cap, out=x), cap, out=x)
    # the integrands z, z e^{+-b3 E}, e^{+-b3 E} - 1 (expm1: no cancellation) and E
    table = np.empty((6,) + E.shape)
    table[0], table[5] = z, E
    ep1, em1 = np.expm1(x, out=table[3]), np.expm1(-x, out=table[4])
    np.multiply(z, ep1 + 1.0, out=table[1])
    np.multiply(z, em1 + 1.0, out=table[2])
    lam = np.array([spec.lam for spec in tables.specs], dtype=float)
    integrals = (lam * _lane_dot(table, tables.probs[:, :, None])).tolist()
    rows = []
    for p, b, m1, I_plus, I_minus, J_plus, J_minus, J_E in zip(params, beta3, *integrals):
        ratio, ratio_hat = (p.alpha / b, p.alpha_hat / b) if b > 0 else (math.inf, math.inf)
        tilted = math.isfinite(ratio) and math.isfinite(ratio_hat)
        rows.append((m1, I_plus, I_minus, ratio_hat * J_minus - ratio * J_plus if tilted else -J_E))
    return rows


def _integrands(params: Sequence[ModelParams], tables: ClaimTables, u_star, exp_cap,
                reference: bool = False):
    """Integrands of every lane's post-default intercepts as quadratics in ``A = e^{r(T-t)}``.

    ``B1' = -fB1``, ``b1_lo' = -f1_lo`` and ``b1_hi' = -f1_hi`` in t.  The
    strategy enters through ``pi_q A = u*``, a constant, and ``pi_s A = s0 +
    s1 A`` with ``(s0, s1)`` the lane's :func:`_stock_coefficients`, so each
    integrand is ``c0 + c1 A + c2 A^2``.  Lane l is ``params[l]`` with row l
    of ``tables`` (one row per lane) and root ``u_star[l]``.  The means are
    taken under each lane's own extremal measures, or with ``reference``
    under the reference measure: the same strategy with every ambiguity
    level zero in the integrands (``beta3 = 0`` in the claim integrals,
    ``b1 = b2 = 0`` in the drift terms).  The claim integrals of all lanes
    are one pass over the tables (:func:`_claim_integrals`); the scalar
    terms of each lane are Python floats, as in the strategies' closed
    forms.

    Returns ``(integrands, errors)``: ``integrands[l]`` holds lane l's
    triples ``(c0, c1, c2)`` of fB1, f1_lo, f1_hi, and ``errors[l]`` is the
    lane's stock-demand NumericalError (its integrands None), else None.
    """
    n = len(params)
    beta3 = [0.0] * n if reference else [p.beta3 for p in params]
    claims = _claim_integrals(u_star, beta3, params, tables, exp_cap)
    integrands, errors = [None] * n, [None] * n
    for lane, (p, u, (m1, I_plus, I_minus, KB)) in enumerate(
            zip(params, np.asarray(u_star, dtype=float).tolist(), claims)):
        b1, b2 = (0.0, 0.0) if reference else (p.beta1, p.beta2)
        try:
            p0, p1 = _stock_coefficients(p)
        except NumericalError as exc:
            errors[lane] = exc
            continue
        two_a = 2.0 * p.alpha - 1.0
        s1, s2, rho = p.sigma1, p.sigma2, p.rho
        excess = p.mu - p.r
        # the common term drift_q A m1, drift_q = theta - eta + (1 + eta) pi_q
        k0, k1 = (1.0 + p.eta) * u * m1, (p.theta - p.eta) * m1
        # fB1 = common - (gamma + 2a b1) s1^2 A^2 / 2 + (excess - q A)^2 / g + KB,
        # the middle term being the squared Sharpe ratio of the stock
        q = s1 * s2 * rho * (p.gamma + two_a * b1)
        cross = b1 * rho ** 2 + b2 * p.rho_hat ** 2
        g = 2.0 * s2 ** 2 * (p.gamma + two_a * cross)
        fB1 = (k0 + excess ** 2 / g + KB, k1 - 2.0 * excess * q / g,
               q * q / g - 0.5 * (p.gamma + two_a * b1) * s1 ** 2)
        # f1_lo, f1_hi = common -+ b1 s1^2 A^2 + (excess -+ e A) pi_s A
        #                -+ quad (pi_s A)^2 - u* I+-, with e = 2 b1 s1 s2 rho and
        # quad = s2^2 cross: a part shared by both sides and one that flips sign
        e = 2.0 * b1 * s1 * s2 * rho
        quad = s2 ** 2 * cross
        flip = (quad * p0 * p0, e * p0 + 2.0 * quad * p0 * p1,
                b1 * s1 ** 2 + e * p1 + quad * p1 * p1)
        c0, c1 = k0 + excess * p0, k1 + excess * p1
        integrands[lane] = (fB1, (c0 - u * I_plus - flip[0], c1 - flip[1], -flip[2]),
                            (c0 - u * I_minus + flip[0], c1 + flip[1], flip[2]))
    return integrands, errors


def _value_intercepts(t, params: Sequence[ModelParams], tables: ClaimTables, u_star,
                      exp_cap: float, reference: bool = False):
    """The intercepts ``(B1, b1_lo, b1_hi, B0, b0_lo, b0_hi)`` of every lane at times t in closed form.

    Lane l is ``params[l]`` with row l of ``tables`` (tag ``lanes`` unless one
    row per lane) and root ``u_star[l]``; ``exp_cap`` is one float for all.
    In ``tau = T - t``, with ``A = e^{r tau}``, every intercept vanishes at
    tau = 0.  The post-default ones integrate the quadratics in A of
    :func:`_integrands` (``reference`` is passed on to it):
    ``int_0^tau A^j ds = expm1(j r tau) / (j r)``.  Pre-default, with pi_p
    at its first-order condition, write ``n0 = delta - zeta hP``, ``c =
    n0^2 / (gamma zeta^2 hP)`` and ``k = delta/zeta``:

    - the mean gap ``b1_side - b0_side`` solves ``dG/dtau = -k G - c`` on
      both sides, so it is the ``D = (c/k) expm1(-k tau)`` of
      :func:`pi_p_star` and ``b0_side = b1_side - D``;
    - the default jump of the mean, ``-zeta pi_p A + b1 - b0``, is the
      constant ``-n0 / (gamma zeta hP)``, so ``M = B1 - B0`` solves
      ``dM/dtau = -hP M + c (n0/delta - 1/2) - c (n0/delta) e^{-k tau}``:

          B0 = B1 + c [(1/2 - n0/delta) tau phi1(-hP tau)
                       + (n0/delta) tau e^{-hP tau} phi1(-n0 tau / zeta)]

      with ``phi1(x) = expm1(x)/x``.  Since ``(n0/delta) tau phi1(-n0 tau /
      zeta) = -expm1(-n0 tau / zeta) / k``, both terms are ``expm1`` over a
      positive rate, with no 0/0 at the fair spread ``n0 = 0``.

    Every term is bounded for any decay rate, so there is no stability
    limit.  Returns ``(columns, errors)``: the six columns, each a (lanes,
    times) table over the flattened t, and ``errors[l]`` is lane l's
    NumericalError, else None: hP = 0 or zeta = 0 (no finite bond demand),
    a stock demand out of range, or non-finite values.  A failing lane's
    rows are NaN or not intercepts.
    """
    _check_lanes(params, tables)
    t = np.asarray(t, dtype=float).reshape(-1)
    integrands, errors = _integrands(params, tables, u_star, exp_cap, reference)
    block = []          # per lane: T, r, n0, zeta, hP, k, c, 1/2 - n0/delta, the integrands
    for lane, p in enumerate(params):
        try:
            _check_bond_demand(p)
        except NumericalError as exc:
            errors[lane] = exc      # reported before any other error of the lane
        if errors[lane] is None:
            n0, zeta, hP = p.bond_excess_drift, p.zeta, p.hP
            block.append((p.T, p.r, n0, zeta, hP, p.h_q, n0 * n0 / (p.gamma * zeta ** 2 * hP),
                          0.5 - n0 / p.delta, *(c for triple in integrands[lane] for c in triple)))
    ok = [lane for lane, error in enumerate(errors) if error is None]
    T, r, n0, zeta, hP, k, c, half, *quadratics = _per_lane(block, 17)
    tau = T - t
    powers = (tau, np.expm1(r * tau) / r, np.expm1(2.0 * r * tau) / (2.0 * r))
    B1, b1_lo, b1_hi = (c0 * powers[0] + c1 * powers[1] + c2 * powers[2]
                        for c0, c1, c2 in zip(*[iter(quadratics)] * 3))
    with np.errstate(over="ignore", invalid="ignore"):    # caught by the check below
        D = (c / k) * np.expm1(-k * tau)
        decay = -hP * tau
        B0 = B1 - c * (half * np.expm1(decay) / hP
                       + np.exp(decay) * np.expm1(-n0 * tau / zeta) / k)
        columns = [col.reshape(len(ok), t.size)
                   for col in (B1, b1_lo, b1_hi, B0, b1_lo - D, b1_hi - D)]
    finite = np.logical_and.reduce([np.isfinite(col).all(axis=1) for col in columns])
    for row in (~finite).nonzero()[0].tolist():
        errors[ok[row]] = NumericalError("closed-form value coefficients are not finite")
    if len(ok) < len(params):
        full = np.full((6, len(params), t.size), np.nan)
        full[:, ok] = columns
        columns = list(full)
    return columns, errors


# RK4 applied to y' = lam y with lam h real and negative is stable while
# lam |h| <= this limit, the real root of 1 + x/2 + x^2/6 + x^3/24 (where the
# step factor climbs back to 1).
_RK4_STABILITY_LIMIT = 2.785293563405282


def rk4_stable_steps(params: ModelParams) -> int:
    """Fewest uniform steps over [0, T] that keep RK4 stable on the bond mode.

    The fastest mode of :func:`pre_default_system` decays at rate
    ``delta/zeta``; RK4 is stable on it while rate times step stays within
    its stability limit.  NumericalError where :func:`_check_bond_demand`
    finds no finite bond demand.
    """
    _check_bond_demand(params)
    return math.ceil(params.h_q * params.T / _RK4_STABILITY_LIMIT)


def pre_default_system(solution: EquilibriumSolution, steps: int):
    """pi_p, B0, b0_lo, b0_hi of ``solution`` by classical RK4: the independent route.

    The grid is ``steps`` uniform steps over [0, T].  The parameters, the
    claim measure, the root u* and ``exp_cap`` are those ``solution`` was
    solved with.  The intercept equations step backward from zero at T, one
    right-hand-side call per stage, with the bond amount eliminated from its
    first-order condition at every stage: ``pi_p = (n0 + gamma zeta hP gap) /
    (gamma zeta^2 hP A)`` with ``gap = alpha G_lo + alpha_hat G_hi`` and
    ``G_side = b1_side - b0_side``.  The state is ``(B1, b1_lo, b1_hi, B0,
    G_lo, G_hi)``: carrying the gaps rather than b0 keeps pi_p free of the
    cancellation ``b1 - b0`` (and exactly 0 at the fair spread ``delta = zeta
    hP``), and RK4 commutes with that linear change of variables.  Only u*
    and the integrands of :func:`_integrands` are shared with the closed form
    of :func:`solve_equilibrium`, which this converges to at order 4.
    A solution exists only where its closed form does, so its bond and
    stock demands are finite.  NumericalError for fewer steps than
    :func:`rk4_stable_steps` (RK4's stability limit on the fastest mode,
    rate ``delta/zeta``) and for non-finite values; ValidationError for a
    ``steps`` that is not a finite integer.
    """
    steps = _require_integer("steps", steps)
    params = solution.params
    stable = rk4_stable_steps(params)
    if steps < stable:
        raise NumericalError(
            f"backward RK4 sweep unstable: rate {params.h_q:g} times step "
            f"{params.T / steps if steps else math.inf:g} exceeds the RK4 "
            f"stability limit {_RK4_STABILITY_LIMIT:.4f}; use time_steps >= {stable}"
        )
    grid = np.linspace(0.0, params.T, steps + 1)
    integrands = _integrands([params], solution.measure.tables,
                             [solution.u_star], solution.exp_cap)[0][0]

    def stages(times):
        # (A, fB1, f1_lo, f1_hi) at each time
        A = params.discount_to_horizon(times)
        return list(zip(A.tolist(), *((c0 + A * (c1 + A * c2)).tolist()
                                      for c0, c1, c2 in integrands)))

    at_grid, at_mid = stages(grid), stages(0.5 * (grid[:-1] + grid[1:]))
    hP, zeta, delta = params.hP, params.zeta, params.delta
    a, ah, gamma = params.alpha, params.alpha_hat, params.gamma
    n0, bond_scale = params.bond_excess_drift, gamma * zeta ** 2 * hP

    def rhs(stage, y):
        A, fB1, f1lo, f1hi = stage
        B1, _, _, B0, g_lo, g_hi = y
        pi_p = (n0 + gamma * zeta * hP * (a * g_lo + ah * g_hi)) / (bond_scale * A)
        bond = pi_p * delta * A
        lump = -zeta * pi_p * A
        fB0 = (fB1 + bond + hP * (lump + B1)
               - 0.5 * a * gamma * hP * (lump + g_lo) ** 2
               - 0.5 * ah * gamma * hP * (lump + g_hi) ** 2)
        excess = bond + hP * lump
        return (-fB1, -f1lo, -f1hi, hP * B0 - fB0, hP * g_lo + excess, hP * g_hi + excess)

    n = grid.size
    states = [[0.0] * 6 for _ in range(n)]
    y = states[-1]
    times = grid.tolist()
    for k in range(n - 2, -1, -1):
        h = times[k] - times[k + 1]
        k1 = rhs(at_grid[k + 1], y)
        k2 = rhs(at_mid[k], [yj + 0.5 * h * kj for yj, kj in zip(y, k1)])
        k3 = rhs(at_mid[k], [yj + 0.5 * h * kj for yj, kj in zip(y, k2)])
        k4 = rhs(at_grid[k], [yj + h * kj for yj, kj in zip(y, k3)])
        y = [yj + h / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
             for yj, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)]
        states[k] = y
    y = np.array(states)
    if not np.all(np.isfinite(y)):
        raise NumericalError("backward RK4 sweep produced non-finite value coefficients")
    gap = a * y[:, 4] + ah * y[:, 5]
    pi_p = (n0 + gamma * zeta * hP * gap) / (bond_scale * params.discount_to_horizon(grid))
    return pi_p, y[:, 3], y[:, 1] - y[:, 4], y[:, 2] - y[:, 5]


def solve_equilibrium(params: ModelParams, measure: ClaimMeasure,
                      numerics: NumericsConfig) -> EquilibriumSolution:
    """Full equilibrium: strategies and value coefficients on a uniform grid.

    One root u* (:func:`solve_pi_q_grid`, whose residual check covers every
    grid time), then the :class:`EquilibriumSolution` of the grid, the
    inputs and u*, which builds its intercept columns from them.
    ``time_steps`` sets only the output grid.  NumericalError for hP = 0 or
    zeta = 0 (no finite bond demand), a failed root, or non-finite
    coefficients.
    """
    grid = np.linspace(0.0, params.T, numerics.time_steps + 1)
    pi_q = solve_pi_q_grid(grid, params, measure, numerics.root_tol, numerics.exp_cap)
    # pi_q A = u* and A(T) = 1
    return EquilibriumSolution(grid, params, measure, float(pi_q[-1]), numerics.exp_cap)


def reference_mean_intercepts(params: ModelParams, measure: ClaimMeasure,
                              solution: EquilibriumSolution,
                              exp_cap: float = DEFAULT_EXP_CAP):
    """Mean intercepts of the equilibrium strategy under the reference measure.

    The solve's closed form (:meth:`EquilibriumSolution._intercepts_at`)
    with ``reference``: every ambiguity level zero while the strategy of
    ``solution`` stays fixed, so ``E[X(T) | X(t)=x, H(t)=h]`` equals
    ``e^{r(T-t)} x + b_ref_h(t)``.  The
    bond amount does not depend on the betas, so ``b0_ref = b1_ref - D``
    still holds.  The parameters, the measure and u* are those of the solve
    ``solution`` carries as ``coeffs``: ValidationError (tag ``inputs``) when
    ``params`` differs from them or ``measure`` is another object, and (tag
    ``u_star``) for a strategy without ``coeffs``.  ``exp_cap`` is validated
    but has no effect: with every ambiguity level zero no exponent enters.
    Returns (b1_ref, b0_ref) on the solution grid.
    """
    coeffs = _solved_coeffs(solution, params, measure)
    _require_positive("exp_cap", float(exp_cap))
    columns = coeffs._intercepts_at(solution.grid, reference=True)
    return columns[1], columns[4]


# ---------------------------------------------------------------------------
# value function, distortions, penalty
# ---------------------------------------------------------------------------

def _default_states(h0, pair: bool = True) -> tuple[int, ...]:
    """The default states ``h0`` asks for, in its order.

    ``h0`` is 0, 1 or, where ``pair`` allows it, a non-empty tuple of
    distinct states; anything else, a float or a bool included, raises
    ValidationError (tag ``h_range``).
    """
    states = h0 if pair and isinstance(h0, tuple) else (h0,)
    if not (states and all(isinstance(h, (int, np.integer)) and not isinstance(h, bool)
                           and h in (0, 1) for h in states)
            and len(set(states)) == len(states)):
        want = "0, 1 or a tuple of distinct states" if pair else "0 or 1"
        raise ValidationError("h_range", f"default state must be {want}, got {h0!r}")
    return tuple(int(h) for h in states)


def value_function(t, x, h: int, solution: EquilibriumSolution):
    """Equilibrium value e^{r(T-t)} x + B_h(t) at any t in [0, T].

    B_h is the closed form of the solve that ``solution`` carries as
    ``coeffs`` (the solution itself), the one its ``B1``/``B0`` columns are
    built from (:meth:`EquilibriumSolution._intercepts_at`), so it is exact
    between grid points and equals those columns on the grid.  ``h`` is one
    :func:`_default_states`; ValidationError (tag ``nonfinite:x``) for a
    non-finite wealth, (tag ``t_range``) for a t outside [0, T] or NaN, and
    (tag ``u_star``) for a strategy without ``coeffs``.
    """
    coeffs = _coeffs(solution)
    h, = _default_states(h, pair=False)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValidationError("nonfinite:x", f"wealth x must be finite, got {x}")
    t = np.asarray(t, dtype=float)
    B1, _, _, B0, _, _ = coeffs._intercepts_at(t)
    value = coeffs.params.discount_to_horizon(t) * x + (B1 if h == 1 else B0)
    return value if value.ndim else float(value)


@dataclass(frozen=True)
class DistortionSide:
    """One extreme measure of a strategy: drift shifts phi1, phi2 and jump tilt phi3.

    A side is its ``strategy`` and its ``sign``; all else is derived from
    them, read from ``coeffs``, the strategy's own (ValidationError, tag
    ``u_star``, for a strategy without ``coeffs``).  ``sign`` is +1 for the
    ambiguity-averse (infimum) measure, whose penalty enters the objective
    with a plus sign, and -1 for the ambiguity-seeking (supremum) measure;
    ValidationError (tag ``sign``) for anything but the int +1 or -1.  The
    extremal distortions are the first-order conditions of the inner inf or
    sup at the strategy:

        phi1(t) = sign beta1 (sigma1 + sigma2 rho pi_s(t)) A(t),
        phi2(t) = sign beta2 sigma2 rho_hat pi_s(t) A(t),

    with ``pi_s`` the strategy's ``pi_s_at``, and with ``pi_q A = u*`` the
    jump tilt is the constant pair ``tilt = sign (beta3 u*, beta3 gamma
    u*^2 / 2)`` of exponent coefficients: ``1 - phi3(t, z) = exp(clip(x))``
    with the tilt exponent ``x = sign beta3 E(u*, z)`` of :meth:`exponent`,
    clipped at ``exp_cap``, the solve's.  :meth:`phi3`, the claim sampler's
    intensity and the distortion identities all read that one exponent.  A
    simulation given the side with other parameters or another measure
    raises (tag ``inputs``).
    """

    strategy: object = field(repr=False)
    sign: int
    coeffs = property(lambda self: self.strategy.coeffs)
    exp_cap = property(lambda self: self.coeffs.exp_cap)

    def __post_init__(self) -> None:
        if not (type(self.sign) is int and self.sign in (1, -1)):
            raise ValidationError("sign", f"side sign must be the int +1 or -1, got {self.sign!r}")
        _coeffs(self.strategy)

    @property
    def tilt(self) -> tuple[float, float]:
        p, u = self.coeffs.params, self.coeffs.u_star
        return self.sign * (p.beta3 * u), self.sign * (0.5 * p.beta3 * p.gamma * u * u)

    def phi1(self, t):
        p = self.coeffs.params
        return self.sign * p.beta1 * (p.sigma1 + p.sigma2 * p.rho * self.strategy.pi_s_at(t)) \
            * p.discount_to_horizon(t)

    def phi2(self, t):
        p = self.coeffs.params
        return self.sign * p.beta2 * p.sigma2 * p.rho_hat * self.strategy.pi_s_at(t) \
            * p.discount_to_horizon(t)

    def exponent(self, z):
        """The tilt exponent ``a z + b z^2`` at z, before clipping at ``+-exp_cap``."""
        a, b = self.tilt
        z = np.asarray(z, dtype=float)
        return a * z + b * z * z

    def phi3(self, t, z):
        """phi3 on the broadcast shape of t and z; the tilt itself does not depend on t.

        ValidationError (tag ``t_range``) for a t outside [0, T] or NaN, as
        for :meth:`phi1` and :meth:`phi2`, and (tag ``nonfinite:z``) for a
        NaN or infinite z.
        """
        _check_times(t, self.coeffs.params.T)
        z = np.asarray(z, dtype=float)
        if not np.isfinite(z).all():
            raise ValidationError("nonfinite:z", "claim sizes z must be finite")
        x = np.clip(self.exponent(z), -self.exp_cap, self.exp_cap)
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


def distortions(solution, params: ModelParams) -> DistortionFunctions:
    """Extremal distortions of a strategy with ``pi_q A = u*``: two :class:`DistortionSide`.

    ``solution`` is any strategy with ``pi_s_at`` and ``coeffs``: the
    equilibrium, or the equilibrium with other stock or bond amounts.  The
    first-order conditions in phi hold for any deterministic strategy, so
    each side is the strategy and a sign, and reads everything else from
    it.  ValidationError (tag ``inputs``) when ``params`` differs from
    ``coeffs.params``, and (tag ``u_star``) for a strategy without
    ``coeffs``.
    """
    _solved_coeffs(solution, params)
    return DistortionFunctions(DistortionSide(solution, +1), DistortionSide(solution, -1))


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

    ``phi3_nodes`` holds phi3(t, z_i) on the measure's quadrature nodes:
    its last axis has one entry per node (tag ``nodes`` otherwise).
    Vectorized: phi1/phi2 may be arrays if phi3_nodes carries a matching
    leading axis.  Before any arithmetic, ValidationError (tag ``phi3>=1``)
    for phi3 >= 1 anywhere (outside the admissible distortion range), and
    (tags ``nonfinite:phi1``, ``nonfinite:phi2``, ``nonfinite:phi3``) for a
    NaN or infinite value.
    """
    phi1, phi2, phi3 = (np.asarray(phi, dtype=float) for phi in (phi1, phi2, phi3_nodes))
    if np.any(phi3 >= 1.0):
        raise ValidationError("phi3>=1", "jump distortion must satisfy phi3 < 1 everywhere")
    for name, phi in (("phi1", phi1), ("phi2", phi2), ("phi3", phi3)):
        if not np.isfinite(phi).all():
            raise ValidationError(f"nonfinite:{name}", f"{name} must be finite everywhere")
    if phi3.shape[-1:] != measure.weights.shape:
        raise ValidationError("nodes", f"phi3 must hold one value per node of the measure's "
                              f"{measure.weights.size}, got shape {phi3.shape}")
    entropy = _jump_entropy(phi3) @ measure.weights
    rate = (phi1 ** 2 / (2.0 * params.beta1)
            + phi2 ** 2 / (2.0 * params.beta2)
            + entropy / params.beta3)
    return rate if rate.ndim else float(rate)
