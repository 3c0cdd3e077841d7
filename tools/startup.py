"""Time what a fresh interpreter pays to start the package's entry points.

Usage: ``python tools/startup.py [--runs N]`` (default 15)

Five commands, each in a fresh interpreter:

- ``pass``: ``python -c pass``, the interpreter alone;
- ``numpy``: ``python -c "import numpy"``;
- ``alphamv``: ``python -c "import alphamv"``;
- ``setup``: the benchmark's set-up path, ``import alphamv``, ``load_config``
  and ``build_measure`` on ``demos/configs/base.cfg``;
- ``cli_solve``: ``python -m alphamv.cli solve`` on ``base.cfg``.

Each command runs against two temporary copies of ``src/`` (the one beside
this script): ``no_bytecode`` has no ``__pycache__``, so every run compiles
the package from source; ``bytecode`` is compiled before the first run.
Numpy and the standard library read their installed bytecode in both.  The
children run with ``PYTHONDONTWRITEBYTECODE=1``, without
``PYTHONPYCACHEPREFIX`` (which would recompile numpy and the standard
library), with BLAS pinned to one thread as the benchmark pins it, and in a
temporary working directory, so nothing is written inside the checkout.
Rounds run every (copy, command) pair once, so drift of the machine spreads
over all of them.

Prints one JSON object: the run count, the interpreter and numpy versions,
and for each copy and command the median and quartiles of the wall time of
a run in milliseconds, process creation included.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "demos" / "configs" / "base.cfg"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP = ("import sys, alphamv; params, claims, numerics = alphamv.load_config(sys.argv[1]); "
         "alphamv.build_measure(claims, numerics.quad_nodes)")
COMMANDS = {
    "pass": ["-c", "pass"],
    "numpy": ["-c", "import numpy"],
    "alphamv": ["-c", "import alphamv"],
    "setup": ["-c", SETUP, str(CONFIG)],
    "cli_solve": ["-m", "alphamv.cli", "solve", "--config", str(CONFIG), "--out", "solve.csv"],
}


def _env(src: Path) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPYCACHEPREFIX"}
    return {**env, **PINNED_ENV, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}


def _copy_src(dest: Path, compiled: bool) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if compiled:
        env = _env(src)
        del env["PYTHONDONTWRITEBYTECODE"]
        subprocess.run([sys.executable, "-c", "import compileall, sys; "
                        "sys.exit(not compileall.compile_dir(sys.argv[1], quiet=1))", str(src)],
                       env=env, check=True)
    return src


def _quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2)}


def measure(runs: int) -> dict:
    """Wall milliseconds of ``runs`` fresh interpreters per copy and command."""
    with tempfile.TemporaryDirectory(prefix="alphamv-startup-") as tmp:
        tmp = Path(tmp)
        envs = {name: _env(_copy_src(tmp / name, compiled))
                for name, compiled in (("no_bytecode", False), ("bytecode", True))}
        samples = {name: {command: [] for command in COMMANDS} for name in envs}
        for _ in range(runs):
            for name, env in envs.items():
                for command, args in COMMANDS.items():
                    t0 = perf_counter()
                    subprocess.run([sys.executable, *args], env=env, cwd=tmp, check=True,
                                   stdout=subprocess.DEVNULL)
                    samples[name][command].append(1e3 * (perf_counter() - t0))
    return {"runs": runs, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "env": PINNED_ENV,
            "ms": {name: {command: _quartiles(times) for command, times in by_command.items()}
                   for name, by_command in samples.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=15, help="fresh interpreters per command")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    print(json.dumps(measure(args.runs), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
