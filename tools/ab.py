"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage: ``python tools/ab.py PARENT CHANGE --workload W --seed S --pairs N
--seconds T``

PARENT and CHANGE are the roots of two checkouts.  Each pair runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` once
in each, from the checkout's root, odd pairs (1, 3, ...) the parent first and
even pairs the change first, so drift of the machine falls on both sides.
The last line of a run's standard output is its JSON result; a run that
prints none stops the comparison.  The children run without ``PYTHONPATH``,
so each imports the program from its own ``src/``; nothing is written in
either checkout beyond what ``run.py`` itself writes and removes.

Prints one JSON object, the per-workload record of the ``BENCH_*.json``
files: the pair count, whether every run was correct, the failed operations
summed over all runs, each run's ``correct`` and ``failed``, and for each
end-to-end metric of the change's ``BENCHMARK.json`` the two medians and
inclusive quartiles, ``rel_change`` (change median over parent median, less
1), ``change_wins`` (the pairs in which the change reads better by the
metric's ``better``), ``gap_exceeds_parent_iqr`` (the medians lie further
apart than the parent's quartiles) and ``worse_than_bound`` (the change's
median is worse than the parent's by more than the metric's ``bound``, a
fraction of the parent's).  ``any_worse_than_bound`` collects the last over
the metrics.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def last_json(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a run's standard output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """The per-workload record of ``(parent, change)`` run results, pair by pair.

    ``end_to_end`` is ``BENCHMARK.json``'s list of metrics, each with its
    ``name``, ``better`` (``lower`` or ``higher``) and ``bound``.
    """
    runs = [{side: {"correct": result["correct"], "failed": result["failed"]}
             for side, result in zip(SIDES, pair)} for pair in pairs]
    record = {
        "pairs": len(pairs),
        "all_correct": all(run[side]["correct"] for run in runs for side in SIDES),
        "failed": sum(run[side]["failed"] for run in runs for side in SIDES),
        "runs": runs,
    }
    any_worse = False
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        values = {side: [pair[i]["metrics"][name]["value"] for pair in pairs]
                  for i, side in enumerate(SIDES)}
        (p1, parent, p3), (c1, change, c3) = (_quartiles(values[side]) for side in SIDES)
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        worse = sign * (change - parent) > metric["bound"] * abs(parent)
        any_worse |= worse
        record[name] = {
            "parent_median": round(parent, 6),
            "parent_q1_q3": [round(p1, 6), round(p3, 6)],
            "change_median": round(change, 6),
            "change_q1_q3": [round(c1, 6), round(c3, 6)],
            "rel_change": round(change / parent - 1.0, 4) if parent else None,
            "change_wins": f"{wins}/{len(pairs)}",
            "gap_exceeds_parent_iqr": abs(change - parent) > p3 - p1,
            "worse_than_bound": worse,
        }
    record["any_worse_than_bound"] = any_worse
    return record


def _run(checkout: Path, args) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    try:
        return last_json(done.stdout)
    except ValueError as error:
        sys.exit(f"{checkout}: exit code {done.returncode}, no JSON result ({error})\n"
                 f"{done.stderr[-2000:]}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    end_to_end = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for k in range(1, args.pairs + 1):
        order = SIDES if k % 2 else SIDES[::-1]
        result = {side: _run(checkouts[side], args) for side in order}
        pairs.append((result["parent"], result["change"]))
        wall = {side: result[side]["metrics"]["wall_s"]["value"] for side in SIDES}
        print(f"pair {k}/{args.pairs}: wall_s parent {wall['parent']:.6g} "
              f"change {wall['change']:.6g}", file=sys.stderr, flush=True)
    print(json.dumps(summarize(pairs, end_to_end), indent=1))


if __name__ == "__main__":
    main()
