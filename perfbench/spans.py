"""In-memory span recorder installed around the program's public functions.

The program is not edited: ``Tracer.install`` replaces each traced function
at every import site inside the ``alphamv`` package (every module attribute
bound to the original function object), so calls made through
``alphamv.sweep.solve_equilibrium``, ``alphamv.verify.run_sweep`` and the
like all record a span.  ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, counters]``; ``parent`` is the index
of the enclosing span (-1 at top level).  Spans stay in memory until
``summarize`` turns them into per-layer metrics at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
from time import perf_counter

import numpy as np


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _terminal_counts(fn, args, kwargs, result):
    params, dt, t0 = (_arg(fn, args, kwargs, k) for k in ("params", "dt", "t0"))
    x_terminal, default_time, claim_count = result
    n_steps = max(1, int(round((params.T - t0) / dt)))   # as the simulator grids it
    return {"path_steps": x_terminal.size * n_steps, "claims": int(claim_count.sum()),
            "defaults": int((~np.isnan(default_time)).sum())}


def _file_bytes(arg_name):
    def count(fn, args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(fn, args, kwargs, arg_name))}
    return count


def _sweep_counts(fn, args, kwargs, result):
    return {"points": len(result.rows),
            "skipped": sum(row.status != "ok" for row in result.rows)}


# (defining module, function, span name, counter or None)
TARGETS = (
    ("alphamv.config", "load_config", "config.load_config", None),
    ("alphamv.config", "replace_param", "config.replace_param", None),
    ("alphamv.levy", "build_measure", "levy.build_measure", None),
    ("alphamv.levy", "sample_truncated_sizes", "levy.size_draw",
     lambda fn, a, k, r: {"sizes": int(r.size)}),
    ("alphamv.solver", "solve_pi_q_grid", "solver.pi_q_grid",
     lambda fn, a, k, r: {"roots": int(r.size)}),
    ("alphamv.solver", "solve_equilibrium", "solver.solve_equilibrium", None),
    ("alphamv.solver", "reference_mean_intercepts", "solver.reference_intercepts", None),
    ("alphamv.solver", "solve_pi_q_star", "solver.pi_q_star", None),
    ("alphamv.solver", "scan_foc_sign_changes", "solver.foc_scan", None),
    ("alphamv.simulate", "simulate_terminal", "simulate.terminal", _terminal_counts),
    ("alphamv.simulate", "objective_from_terminal", "simulate.objective", None),
    ("alphamv.sweep", "run_sweep", "sweep.run_sweep", _sweep_counts),
    ("alphamv.sweep", "evaluate_quantity", "sweep.evaluate_quantity", None),
    ("alphamv.sweep", "write_sweep_csv", "sweep.write_csv", _file_bytes("out_path")),
    ("alphamv.sweep", "write_solve_csv", "sweep.write_csv", _file_bytes("out_path")),
    ("alphamv.verify", "run_verification", "verify.run", None),
    ("alphamv.cli", "main", "cli.main", None),
)

ITEM = "bench.item"   # span the benchmark opens around each workload item


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def open(self, name: str) -> list:
        rec = [name, perf_counter(), math.nan, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if counter is not None:
                rec[4] = counter(fn, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "alphamv" or key.startswith("alphamv.")) and m is not None]
        for module_name, func, name, counter in TARGETS:
            original = getattr(sys.modules[module_name], func)
            wrapper = self._wrap(original, name, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _ancestor(spans, i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return p
        p = spans[p][3]
    return -1


def summarize(spans: list[list], n_passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass: calls, self/inclusive times, counts.

    Self time is a span's duration minus the durations of its direct
    children; spans nest and run on one thread, so children never overlap.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls, incl, self_t, counts = {}, {}, {}, {}
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur[i]
        self_t[name] = self_t.get(name, 0.0) + dur[i] - child[i]
        for key, value in (s[4] or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    def per(value):
        return value / n_passes

    def c(name):
        return per(calls.get(name, 0))

    def st(name):
        return per(self_t.get(name, 0.0))

    def it(name):
        return per(incl.get(name, 0.0))

    def n(key):
        return per(counts.get(key, 0))

    def ratio(a, b):
        return a / b if b else 0.0

    # solves and simulator time that run inside sweeps / verify
    sweep_solves = sum(1 for i, s in enumerate(spans)
                       if s[0] == "solver.solve_equilibrium"
                       and _ancestor(spans, i, "sweep.run_sweep") >= 0)
    verify_mc = sum(dur[i] for i, s in enumerate(spans)
                    if s[0] in ("simulate.terminal", "simulate.objective")
                    and _ancestor(spans, i, "verify.run") >= 0)
    verify_sweep = sum(dur[i] for i, s in enumerate(spans)
                       if s[0] == "sweep.run_sweep" and _ancestor(spans, i, "verify.run") >= 0)
    # item time not covered by any program span (benchmark glue plus wrapper cost)
    unattributed = sum(dur[i] - child[i] for i, s in enumerate(spans) if s[0] == ITEM)
    sim_claims = counts.get("simulate.terminal.claims", 0)

    return {
        "config.load_config_s": st("config.load_config"),
        "config.replace_param_calls": c("config.replace_param"),
        "config.replace_param_s": st("config.replace_param"),
        "levy.build_measure_calls": c("levy.build_measure"),
        "levy.build_measure_s": st("levy.build_measure"),
        "levy.size_draw_calls": c("levy.size_draw"),
        "levy.sizes_drawn": n("levy.size_draw.sizes"),
        "levy.size_accept_ratio": ratio(sim_claims, counts.get("levy.size_draw.sizes", 0)),
        "levy.size_draw_s": st("levy.size_draw"),
        "solver.pi_q_grid_calls": c("solver.pi_q_grid"),
        "solver.pi_q_grid_roots": n("solver.pi_q_grid.roots"),
        "solver.pi_q_grid_s": st("solver.pi_q_grid"),
        "solver.backward_self_s": st("solver.solve_equilibrium"),
        "solver.solve_equilibrium_calls": c("solver.solve_equilibrium"),
        "solver.solve_equilibrium_s": it("solver.solve_equilibrium"),
        "solver.reference_intercepts_s": st("solver.reference_intercepts"),
        "solver.pi_q_star_calls": c("solver.pi_q_star"),
        "solver.pi_q_star_s": st("solver.pi_q_star"),
        "solver.foc_scan_s": st("solver.foc_scan"),
        "simulate.terminal_calls": c("simulate.terminal"),
        "simulate.terminal_s": st("simulate.terminal"),
        "simulate.path_steps": n("simulate.terminal.path_steps"),
        "simulate.path_steps_per_s": ratio(counts.get("simulate.terminal.path_steps", 0),
                                           incl.get("simulate.terminal", 0.0)),
        "simulate.claims": per(sim_claims),
        "simulate.defaults": n("simulate.terminal.defaults"),
        "simulate.objective_s": st("simulate.objective"),
        "sweep.run_sweep_calls": c("sweep.run_sweep"),
        "sweep.run_sweep_s": it("sweep.run_sweep"),
        "sweep.points": n("sweep.run_sweep.points"),
        "sweep.points_skipped": n("sweep.run_sweep.skipped"),
        "sweep.evaluate_quantity_s": st("sweep.evaluate_quantity"),
        "sweep.solves_per_point": ratio(sweep_solves, counts.get("sweep.run_sweep.points", 0)),
        "sweep.write_csv_s": st("sweep.write_csv"),
        "sweep.csv_bytes": n("sweep.write_csv.bytes"),
        "verify.run_s": it("verify.run"),
        "verify.self_s": st("verify.run"),
        "verify.mc_share": ratio(verify_mc, incl.get("verify.run", 0.0)),
        "verify.sweep_share": ratio(verify_sweep, incl.get("verify.run", 0.0)),
        "cli.self_s": st("cli.main"),
        "trace.spans": per(len(spans)),
        "trace.unattributed_s": per(unattributed),
    }
