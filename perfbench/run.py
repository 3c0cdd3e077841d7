"""alphamv benchmark: run one seeded workload, time it, check it, print JSON.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Workloads are ``solve``, ``sweep`` and ``verify`` (see README.md in this
directory).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run.  End-to-end times are scaled to a
reference machine speed (calibrate.py).  The program under test is imported
from ``src/`` of the checkout and never edited; the benchmark refuses to run
(exit code 2, no result) when those sources are missing.
"""

import os

# single-threaded baseline: pin BLAS threads before numpy is first imported
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("solve", "sweep", "verify")
# Passes over a workload's items repeat until --seconds have gone by, and at
# least MIN_PASSES times; a traced run alternates untraced and traced passes
# and makes at least MIN_PASSES of each.
MIN_PASSES = 2
SETUP_PROBES = 5
TAIL_BEYOND = 10

# glibc's malloc serves blocks above its mmap threshold (128 KiB at start)
# from fresh pages and raises the threshold as the process frees large blocks.
# Whether a later block then comes from fresh pages depends on everything the
# process did before: with that rule, the base-size solves of one seed ran at
# one of two levels 1.5x apart, set by the configs solved earlier in the run.
# The benchmark process fixes the threshold at its starting value, so every
# block above 128 KiB is a fresh mapping, as in a fresh process; on the
# reference machine a base-size solve then takes 300-340 ms against 250-300 ms
# with the moving threshold, and more than half of it is page faults.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 128 * 1024


def _fix_malloc() -> str:
    try:
        fixed = ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    except (OSError, AttributeError):    # not glibc
        fixed = False
    return f"mmap threshold fixed at {MMAP_THRESHOLD}" if fixed else "default"


MALLOC = _fix_malloc()

# A fresh interpreter doing the set-up a user pays before the first call:
# import, config load and measure build.
PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import alphamv
t1 = time.perf_counter()
params, claims, numerics = alphamv.load_config(sys.argv[2])
t2 = time.perf_counter()
alphamv.build_measure(claims, numerics.quad_nodes)
t3 = time.perf_counter()
print(json.dumps({"file": alphamv.__file__, "import_s": t1 - t0,
                  "load_config_s": t2 - t1, "build_measure_s": t3 - t2}))
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _machine(numpy, scipy) -> dict:
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "env": PINNED_ENV, "malloc": MALLOC}


def _setup_probe(config: Path, clock) -> tuple[float, dict]:
    """(seconds, probe readout) of one fresh-interpreter set-up."""
    proc, seconds = clock.time(lambda: subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), str(config)],
        capture_output=True, text=True, timeout=120, check=True))
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(info["file"]).resolve().parent != SRC / "alphamv":
        raise RuntimeError(f"set-up probe imported alphamv from {info['file']}")
    return seconds, info


def _tail(samples: list) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct, n).

    When that percentile would lie below the median (fewer than
    2 * TAIL_BEYOND samples), the maximum (pct 100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _run(args, workdir: Path, metric_defs: dict) -> dict:
    import numpy
    import scipy

    import alphamv
    import calibrate
    import inputs
    import spans
    import workloads

    print("machine: " + json.dumps(_machine(numpy, scipy)))
    specs = inputs.make_inputs(args.workload, args.seed, workdir, ROOT, alphamv)
    readouts = workloads.Readouts()
    items = workloads.build_items(args.workload, specs, workdir, HERE / "reference", readouts)

    clock = calibrate.Clock()
    probes = [_setup_probe(specs[0]["config"], clock) for _ in range(SETUP_PROBES)]

    attempted = failed = 0

    tracer = spans.Tracer()

    def run_item(item, traced=False):
        rec = tracer.open(spans.ITEM) if traced else None
        try:
            return True, item.run()
        except Exception:  # a failing item is counted, reported and the run goes on
            return False, traceback.format_exc()
        finally:
            if traced:
                tracer.close(rec)

    def check(item, ok, out):
        nonlocal attempted, failed
        attempted += 1
        problems = item.check(out) if ok else [out.strip().splitlines()[-1]]
        if problems:
            failed += 1
            print(f"FAIL {item.name}: {'; '.join(problems)}")

    check(items[0], *run_item(items[0]))          # warm-up, untimed

    latencies = {False: {item.name: [] for item in items},
                 True: {item.name: [] for item in items}}
    n_passes = 0
    min_passes = 2 * MIN_PASSES if args.trace else MIN_PASSES
    t_start = perf_counter()
    while n_passes < min_passes or perf_counter() - t_start < args.seconds:
        traced = bool(args.trace) and n_passes % 2 == 1
        if traced:
            tracer.install()
        results = []
        for item in items:
            result, seconds = clock.time(lambda: run_item(item, traced))
            results.append(result)
            latencies[traced][item.name].append(seconds)
        if traced:
            tracer.uninstall()
        n_passes += 1
        for item, (ok, out) in zip(items, results):
            check(item, ok, out)

    # Each item's latency is its median over the run's passes, scaled to the
    # reference machine speed (calibrate.py); one pass is the sum of those.
    scale = clock.scale()

    def item_medians(per_item):
        return [scale * statistics.median(v) for v in per_item.values()]

    samples = item_medians(latencies[False])
    wall = sum(samples)
    print(f"workload {args.workload}: seed {args.seed}, {len(items)} items x {n_passes} passes, "
          f"{attempted} operations, {failed} failed (fail_frac {failed / attempted:.4g})")
    print(f"machine slowdown {1 / scale:.4f} (median of {len(clock.kernels)} calibration "
          f"kernels / {calibrate.REFERENCE_S:g} s); unscaled pass {wall / scale:.4f} s")
    if args.trace:
        metrics = spans.summarize(tracer.spans, n_passes // 2)
        verify_last = readouts.verify_checks.values()
        metrics.update({
            "cli.import_s": statistics.median(info["import_s"] for _, info in probes),
            "solver.max_root_residual": readouts.max_root_residual,
            "solver.max_rel_dev_ref": readouts.max_rel_dev_ref,
            "verify.checks": sum(v[0] for v in verify_last),
            "verify.checks_failed_3se": sum(v[1] for v in verify_last),
            "verify.max_abs_z": max((v[2] for v in verify_last), default=0.0),
            "trace.overhead_s": sum(item_medians(latencies[True])) - wall,
        })
        defs = metric_defs["per_layer"]
    else:
        tail, pct, n = _tail(samples)
        print(f"item_ms_tail is p{pct:.1f} of {n} item latencies (medians over passes) "
              f"({TAIL_BEYOND if pct < 100 else 0} beyond it); work unit: "
              f"{workloads.UNITS[args.workload]}")
        metrics = {
            "setup_s": scale * statistics.median(probe_s for probe_s, _ in probes),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "item_ms_p50": 1e3 * statistics.median(samples),
            "item_ms_tail": 1e3 * tail,
            "work_per_s": sum(item.units for item in items) / wall,
        }
        defs = metric_defs["end_to_end"]
    units = {d["name"]: d["unit"] for d in defs}
    if set(units) != set(metrics):
        raise RuntimeError(f"metric set differs from metrics.json: {set(units) ^ set(metrics)}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                        for name in units}}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "alphamv" / "__init__.py").is_file():
        print(f"error: no alphamv sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import alphamv
    if Path(alphamv.__file__).resolve().parent != SRC / "alphamv":
        print(f"error: imported alphamv from {alphamv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    metric_defs = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = _run(args, workdir, metric_defs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass   # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
