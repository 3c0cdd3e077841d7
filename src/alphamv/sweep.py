"""Parameter sweeps over the equilibrium solution, and CSV writers.

A sweep evaluates one quantity at every parameter value, at t = 0 unless
overridden, each from the cheapest exact route: ``pi_s0`` and ``pi_p0`` from
their closed forms (no claim measure, no root, no backward sweep), ``pi_q0``
from one scalar root, and the value intercepts ``B0_0`` and ``B1_0`` from a
full solve.  Parameter values that violate a model invariant are reported and
skipped, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import (ALL_KEYS, ClaimModelSpec, ModelParams, NumericsConfig,
                     replace_param)
from .errors import NumericalError, ValidationError
from .levy import build_measure
from .solver import (EquilibriumSolution, pi_p_star, pi_s_star,
                     solve_equilibrium, solve_pi_q_star)

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


def evaluate_quantity(params: ModelParams, claims: ClaimModelSpec,
                      numerics: NumericsConfig, quantity: str, t: float) -> float:
    """One output quantity of the solved model at time t.

    pi_s0 and pi_p0 are closed forms, pi_q0 needs one scalar root, and the
    value intercepts require the full coupled backward system.
    """
    if not 0.0 <= t <= params.T:
        raise ValidationError("t_range", f"evaluation time must lie in [0, T], got t={t}")
    if quantity == "pi_s0":
        return float(pi_s_star(t, params))
    if quantity == "pi_p0":
        return float(pi_p_star(t, params))
    measure = build_measure(claims, numerics.quad_nodes)
    if quantity == "pi_q0":
        return solve_pi_q_star(t, params, measure, numerics.root_tol, numerics.exp_cap)
    solution = solve_equilibrium(params, measure, numerics)
    if quantity == "B0_0":
        return float(np.interp(t, solution.grid, solution.coeffs.B0))
    if quantity == "B1_0":
        return float(np.interp(t, solution.grid, solution.coeffs.B1))
    raise ValidationError("unknown_quantity", f"unknown quantity {quantity!r}")


def run_sweep(params: ModelParams, claims: ClaimModelSpec, numerics: NumericsConfig,
              spec: SweepSpec) -> SweepResult:
    """Sweep one parameter; rows come back sorted by parameter value."""
    rows = []
    for value in sorted(spec.values):
        try:
            p2, c2, n2 = replace_param(params, claims, numerics, spec.param, value)
            t_eval = 0.0 if spec.t is None else spec.t
            q = evaluate_quantity(p2, c2, n2, spec.quantity, t_eval)
            rows.append(SweepRow(value=value, quantity=q, status="ok"))
        except ValidationError as exc:
            rows.append(SweepRow(value=value, quantity=None, status=f"skipped:{exc.tag}"))
        except NumericalError as exc:
            rows.append(SweepRow(value=value, quantity=None, status=f"skipped:numerical ({exc})"))
    return SweepResult(param=spec.param, quantity=spec.quantity, rows=tuple(rows))


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
