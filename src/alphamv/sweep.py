"""Parameter sweeps over the equilibrium solution, and CSV writers.

A sweep evaluates one quantity at every parameter value, at t = 0 unless
overridden, each from the cheapest exact route: ``pi_s0`` and ``pi_p0`` from
their closed forms (no claim measure, no root, no backward sweep), ``pi_q0``
from one batched root per sweep (every point is a lane of
:func:`~alphamv.solver.solve_pi_q_lanes`), and the value intercepts ``B0_0``
and ``B1_0`` from a full solve per point.  The claim measure is built once
per sweep unless the swept key changes it.  Parameter values that violate a
model invariant, and points whose root fails, are reported and skipped,
never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import (ALL_KEYS, ClaimModelSpec, ModelParams, NumericsConfig,
                     replace_param)
from .errors import NumericalError, ValidationError
from .levy import ClaimMeasure, build_measure
from .solver import (EquilibriumSolution, _value_intercepts, pi_p_star, pi_s_star,
                     solve_pi_q_lanes, solve_pi_q_star)

__all__ = [
    "QUANTITIES",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "evaluate_quantity",
    "run_sweep",
    "write_solve_csv",
    "write_sweep_csv",
]

QUANTITIES = ("pi_q0", "pi_s0", "pi_p0", "B0_0", "B1_0")
# config keys that change the claim measure
_MEASURE_KEYS = ("lambda", "muZ", "sigmaZ", "quad_nodes")


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter, the values to visit, and the reported quantity."""

    param: str
    values: tuple[float, ...]
    quantity: str
    t: Optional[float] = None   # evaluation time; None means t = 0

    def __post_init__(self) -> None:
        if self.param not in ALL_KEYS:
            raise ValidationError("unknown_param", f"unknown parameter name {self.param!r}")
        if self.quantity not in QUANTITIES:
            raise ValidationError("unknown_quantity",
                                  f"quantity must be one of {QUANTITIES}, got {self.quantity!r}")
        if len(self.values) < 2:
            raise ValidationError("count<2", "a sweep needs at least two parameter values")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @classmethod
    def from_range(cls, param: str, lo: float, hi: float, count: int,
                   quantity: str, t: Optional[float] = None) -> "SweepSpec":
        if count < 2:
            raise ValidationError("count<2", f"a sweep needs count >= 2, got {count}")
        return cls(param=param, values=tuple(np.linspace(lo, hi, count)),
                   quantity=quantity, t=t)


@dataclass(frozen=True)
class SweepRow:
    value: float
    quantity: Optional[float]
    status: str


@dataclass(frozen=True)
class SweepResult:
    param: str
    quantity: str
    rows: tuple[SweepRow, ...]

    def ok_values(self) -> np.ndarray:
        return np.array([row.quantity for row in self.rows if row.status == "ok"])


def _check_time(t: float, params: ModelParams) -> None:
    if not 0.0 <= t <= params.T:
        raise ValidationError("t_range", f"evaluation time must lie in [0, T], got t={t}")


def evaluate_quantity(params: ModelParams, claims: ClaimModelSpec,
                      numerics: NumericsConfig, quantity: str, t: float,
                      measure: Optional[ClaimMeasure] = None) -> float:
    """One output quantity of the solved model at time t.

    pi_s0 and pi_p0 are closed forms, pi_q0 needs one scalar root, and the
    value intercepts are closed forms at that root ``u* = pi_q(T)``.
    ``measure`` is the claim measure of ``claims`` when the caller has it
    already.
    """
    _check_time(t, params)
    if quantity == "pi_s0":
        return float(pi_s_star(t, params))
    if quantity == "pi_p0":
        return float(pi_p_star(t, params))
    if measure is None:
        measure = build_measure(claims, numerics.quad_nodes)
    if quantity == "pi_q0":
        return solve_pi_q_star(t, params, measure, numerics.root_tol, numerics.exp_cap)
    u_star = solve_pi_q_star(params.T, params, measure, numerics.root_tol, numerics.exp_cap)
    B1, _, _, B0, _, _ = _value_intercepts(t, params, measure, u_star, numerics.exp_cap)
    if quantity == "B0_0":
        return float(B0)
    if quantity == "B1_0":
        return float(B1)
    raise ValidationError("unknown_quantity", f"unknown quantity {quantity!r}")


def _shared_measure(claims: ClaimModelSpec, numerics: NumericsConfig,
                    spec: SweepSpec) -> Optional[ClaimMeasure]:
    """The claim measure of every point; None when the swept key changes it,
    the quantity needs none, or it cannot be built (each point then reports why)."""
    if spec.param in _MEASURE_KEYS or spec.quantity in ("pi_s0", "pi_p0"):
        return None
    try:
        return build_measure(claims, numerics.quad_nodes)
    except (ValidationError, NumericalError):
        return None


def _solve_pi_q_points(points: dict, t: float, outcomes: list) -> None:
    """pi_q(t) at every point ``{row: (params, measure, numerics)}`` into ``outcomes``.

    One :func:`solve_pi_q_lanes` call per node count; a lane that fails
    leaves its NumericalError in its row.
    """
    groups: dict[int, list[int]] = {}
    for row, (_, measure, _) in points.items():
        groups.setdefault(measure.nodes.size, []).append(row)
    for rows in groups.values():
        params, measures, numerics = zip(*(points[row] for row in rows))
        pi_q, errors = solve_pi_q_lanes(t, params, measures,
                                        [n.root_tol for n in numerics],
                                        [n.exp_cap for n in numerics])
        for row, value, error in zip(rows, pi_q[:, 0].tolist(), errors):
            outcomes[row] = value if error is None else error


def run_sweep(params: ModelParams, claims: ClaimModelSpec, numerics: NumericsConfig,
              spec: SweepSpec) -> SweepResult:
    """Sweep one parameter; rows come back sorted by parameter value.

    Every value goes through :func:`replace_param`, so invalid ones are
    skipped with their invariant's tag.  pi_q0 solves all valid points at
    once; the other quantities go point by point through
    :func:`evaluate_quantity`.
    """
    t = 0.0 if spec.t is None else spec.t
    values = sorted(spec.values)
    shared = _shared_measure(claims, numerics, spec)
    outcomes: list = [None] * len(values)    # the quantity, or the error that skipped it
    lanes = {}
    for row, value in enumerate(values):
        try:
            p2, c2, n2 = replace_param(params, claims, numerics, spec.param, value)
            if spec.quantity != "pi_q0":
                outcomes[row] = evaluate_quantity(p2, c2, n2, spec.quantity, t, shared)
                continue
            _check_time(t, p2)
            measure = shared if shared is not None else build_measure(c2, n2.quad_nodes)
            lanes[row] = (p2, measure, n2)
        except (ValidationError, NumericalError) as exc:
            outcomes[row] = exc
    if lanes:
        _solve_pi_q_points(lanes, t, outcomes)
    return SweepResult(param=spec.param, quantity=spec.quantity,
                       rows=tuple(map(_row, values, outcomes)))


def _row(value: float, outcome) -> SweepRow:
    if isinstance(outcome, ValidationError):
        return SweepRow(value=value, quantity=None, status=f"skipped:{outcome.tag}")
    if isinstance(outcome, NumericalError):
        return SweepRow(value=value, quantity=None, status=f"skipped:numerical ({outcome})")
    return SweepRow(value=value, quantity=outcome, status="ok")


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_solve_csv(out_path, solution: EquilibriumSolution) -> None:
    """Full solution table, one row per grid point, 17 significant digits."""
    c = solution.coeffs
    table = np.column_stack((solution.grid, solution.pi_q, solution.pi_s, solution.pi_p,
                             c.B1, c.B0, c.b1_lo, c.b1_hi, c.b0_lo, c.b0_hi))
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"   # same text as _fmt per value
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("t,pi_q,pi_s,pi_p,B1,B0,b1_lo,b1_hi,b0_lo,b0_hi\n")
        fh.write((row * table.shape[0]) % tuple(table.ravel().tolist()))


def write_sweep_csv(out_path, result: SweepResult) -> None:
    """Sweep table: parameter value, quantity (empty when skipped), status."""
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(f"{result.param},{result.quantity},status\n")
        for row in result.rows:
            q = _fmt(row.quantity) if row.quantity is not None else ""
            fh.write(f"{_fmt(row.value)},{q},{row.status}\n")
