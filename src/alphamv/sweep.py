"""Parameter sweeps over the equilibrium solution, and CSV writers.

A sweep evaluates one quantity at every parameter value, at t = 0 unless
overridden, each from the cheapest exact route: ``pi_s0`` and ``pi_p0`` from
their closed forms (no claim measure, no root), and ``pi_q0``, ``B0_0`` and
``B1_0`` with every point a lane, a parameter set with its claim row.  Lanes
are grouped by ``(quad_nodes, root_tol, exp_cap)``, so once per sweep unless
the swept key is one of those, and each group makes one
:func:`~alphamv.levy.build_claim_tables` call (one row per distinct claims
record, taken once per lane, so built once unless the swept key belongs to
the claim law), then, at its one ``root_tol`` and ``exp_cap``, one
:func:`~alphamv.solver.solve_pi_q_lanes` call for the roots and one
:func:`~alphamv.solver._value_intercepts` call for the intercepts.
Parameter values that violate a model invariant, and points whose measure or
root fails, are reported and skipped, never silently dropped.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._csvtext import csv_text
from .config import (ALL_KEYS, ClaimModelSpec, ModelParams, NumericsConfig,
                     _require_integer, replace_param)
from .errors import NumericalError, ValidationError
from .levy import build_claim_tables
from .solver import (EquilibriumSolution, _check_times, _value_intercepts, pi_p_star,
                     pi_s_star, solve_pi_q_lanes)

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
        count = _require_integer("count", count)
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
    """One output quantity of the solved model at time t: a one-point sweep.

    The point goes through :func:`_evaluate_points`; the ValidationError or
    NumericalError that would skip it in a sweep is raised instead.
    """
    outcome, = _evaluate_points([(params, claims, numerics)], quantity, t)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _evaluate_points(points: list, quantity: str, t: float) -> list:
    """The quantity at time t for every point, or the error that skips it.

    A point is a ``(params, claims, numerics)`` triple, or the error that
    already skipped it, which stays its outcome.  pi_s0 and pi_p0 are closed
    forms.  The others need the root u*, and the points are lanes grouped by
    ``(quad_nodes, root_tol, exp_cap)``, the numerics of the lane calls.
    Per group, one :func:`build_claim_tables` call builds one table row per
    distinct claims record, taken once per lane, one :func:`solve_pi_q_lanes`
    call takes every root (at t for pi_q0, at each lane's own T, where ``A =
    1``, for the intercepts), and one :func:`_value_intercepts` call takes
    every lane's intercepts at its u*.
    """
    if quantity not in QUANTITIES:
        raise ValidationError("unknown_quantity", f"unknown quantity {quantity!r}")
    outcomes = list(points)
    groups: dict = {}       # (quad_nodes, root_tol, exp_cap) -> [(row, params, claims)]
    for row, point in enumerate(points):
        if isinstance(point, Exception):
            continue
        params, claims, numerics = point
        try:
            if quantity in ("pi_s0", "pi_p0"):      # each checks t itself
                closed_form = pi_s_star if quantity == "pi_s0" else pi_p_star
                outcomes[row] = float(closed_form(t, params))
                continue
            _check_times(t, params.T)
        except (ValidationError, NumericalError) as exc:
            outcomes[row] = exc
            continue
        key = (numerics.quad_nodes, numerics.root_tol, numerics.exp_cap)
        groups.setdefault(key, []).append((row, params, claims))
    for (quad_nodes, root_tol, exp_cap), group in groups.items():
        lanes, tables = _claim_lanes(group, quad_nodes, outcomes)
        if not lanes:
            continue
        rows, params, _ = zip(*lanes)
        root_times = [[t] if quantity == "pi_q0" else [p.T] for p in params]
        pi_q, errors = solve_pi_q_lanes(root_times, params, tables, root_tol, exp_cap)
        values = pi_q[:, 0]
        solved = [lane for lane, error in enumerate(errors) if error is None]
        if quantity != "pi_q0" and solved:
            columns, intercept_errors = _value_intercepts(
                t, [params[lane] for lane in solved], tables.take(solved), values[solved], exp_cap)
            values[solved] = columns[3 if quantity == "B0_0" else 0][:, 0]
            for lane, error in zip(solved, intercept_errors):
                errors[lane] = error
        for row, value, error in zip(rows, values.tolist(), errors):
            outcomes[row] = value if error is None else error
    return outcomes


def _claim_lanes(group: list, quad_nodes: int, outcomes: list):
    """The lanes of ``group`` whose claim measure builds, and their claim tables.

    One :func:`build_claim_tables` call on the group's distinct claims
    records, then one row per lane taken from it, so a group that shares one
    record builds it once.  A lane whose measure fails gets the error as its
    outcome and leaves the group.
    """
    index: dict = {}        # id(claims) -> table row
    for _, _, claims in group:
        index.setdefault(id(claims), (len(index), claims))
    tables, errors = build_claim_tables([claims for _, claims in index.values()], quad_nodes)
    lanes, rows = [], []
    for lane in group:
        row = index[id(lane[2])][0]
        if errors[row] is None:
            lanes.append(lane)
            rows.append(row)
        else:
            outcomes[lane[0]] = errors[row]
    return lanes, tables.take(rows)


def run_sweep(params: ModelParams, claims: ClaimModelSpec, numerics: NumericsConfig,
              spec: SweepSpec) -> SweepResult:
    """Sweep one parameter; rows come back sorted by parameter value.

    The one-spec case of :func:`_run_sweeps`.
    """
    result, = _run_sweeps(params, claims, numerics, [spec])
    return result


def _run_sweeps(params: ModelParams, claims: ClaimModelSpec, numerics: NumericsConfig,
                specs) -> list[SweepResult]:
    """One :class:`SweepResult` per spec, in order, the specs of one quantity and time one batch.

    Every value goes through :func:`replace_param`, so invalid ones are
    skipped with their invariant's tag; then the points of all the specs of
    one quantity and evaluation time go through one :func:`_evaluate_points`
    call.  Each row is that of its spec swept alone, bit for bit: a lane's
    Newton iterates, dot products and residual check do not read the other
    lanes.
    """
    values = [sorted(spec.values) for spec in specs]
    points = []
    for spec, spec_values in zip(specs, values):
        points.append([])
        for value in spec_values:
            try:
                points[-1].append(replace_param(params, claims, numerics, spec.param, value))
            except (ValidationError, NumericalError) as exc:
                points[-1].append(exc)
    batches: dict = {}      # (quantity, t) -> indices of its specs
    for k, spec in enumerate(specs):
        batches.setdefault((spec.quantity, 0.0 if spec.t is None else spec.t), []).append(k)
    outcomes = [None] * len(specs)
    for (quantity, t), members in batches.items():
        batch = iter(_evaluate_points([p for k in members for p in points[k]], quantity, t))
        for k in members:
            outcomes[k] = [next(batch) for _ in points[k]]
    return [SweepResult(param=spec.param, quantity=spec.quantity,
                        rows=tuple(map(_row, spec_values, spec_outcomes)))
            for spec, spec_values, spec_outcomes in zip(specs, values, outcomes)]


def _row(value: float, outcome) -> SweepRow:
    if isinstance(outcome, ValidationError):
        return SweepRow(value=value, quantity=None, status=f"skipped:{outcome.tag}")
    if isinstance(outcome, NumericalError):
        return SweepRow(value=value, quantity=None, status=f"skipped:numerical ({outcome})")
    return SweepRow(value=value, quantity=outcome, status="ok")


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_solve_csv(out_path, solution: EquilibriumSolution) -> None:
    """Full solution table, one row per grid point, ``'%.17g'`` per value."""
    table = np.column_stack((solution.grid, solution.pi_q, solution.pi_s, solution.pi_p,
                             solution.B1, solution.B0, solution.b1_lo, solution.b1_hi,
                             solution.b0_lo, solution.b0_hi))
    with open(out_path, "wb") as fh:
        fh.write(b"t,pi_q,pi_s,pi_p,B1,B0,b1_lo,b1_hi,b0_lo,b0_hi\n")
        fh.write(csv_text(table))


def write_sweep_csv(out_path, result: SweepResult) -> None:
    """Sweep table: parameter value, quantity (empty when skipped), status.

    A status holding a comma (a bracket error's ``[0, 2 u0]``) is quoted.
    """
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow((result.param, result.quantity, "status"))
        writer.writerows((_fmt(row.value), "" if row.quantity is None else _fmt(row.quantity),
                          row.status) for row in result.rows)
