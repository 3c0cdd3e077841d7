"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload solve --seeds 1-10 --seconds 20 [--trace 1]

For every metric: the median over the runs and the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median.  Runs go one after another, each in its own process.  With
``--json FILE`` the per-run results are also written to FILE.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds, help="e.g. 1-10")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", args.seconds,
                               "--trace", args.trace],
                              capture_output=True, text=True, timeout=900)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "elapsed_s": elapsed, **result})
        print(f"seed {seed}: {elapsed:.1f} s, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")

    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        spread = _spread(values, med)
        print(f"{name:32s} median {med:12.6g} {runs[0]['metrics'][name]['unit']:6s} "
              f"IQR/median {spread:.4f}")
    return 0


def _spread(values, med) -> float:
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


if __name__ == "__main__":
    sys.exit(main())
