"""The documented demos reproduce the committed outputs under demos/output."""

import csv
import os
import pathlib
import re
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ("01_equilibrium_solution.py", "02_figure_sweeps.py", "04_paths_and_bond.py")
EXACT_COLUMNS = {"path_id", "default_state", "status"}
ATOL, RTOL = 1e-10, 1e-8


def _mismatches(got_path, want_path):
    with open(got_path, newline="") as fh:
        got = list(csv.reader(fh))
    with open(want_path, newline="") as fh:
        want = list(csv.reader(fh))
    if got[:1] != want[:1] or len(got) != len(want):
        return [f"header or row count: {got[:1]} x {len(got)} != {want[:1]} x {len(want)}"]
    header = want[0]
    bad = []
    for lineno, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), start=2):
        for column, g, w in zip(header, got_row, want_row, strict=True):
            if column in EXACT_COLUMNS:
                same = g == w
            else:
                same = abs(float(g) - float(w)) <= ATOL + RTOL * abs(float(w))
            if not same:
                bad.append(f"line {lineno} {column}: {g} != {w}")
    return bad


def test_demos_rewrite_their_committed_outputs(tmp_path):
    shutil.copytree(ROOT / "demos", tmp_path / "demos", ignore=shutil.ignore_patterns("output"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    for demo in DEMOS:
        subprocess.run([sys.executable, str(tmp_path / "demos" / demo)], env=env, cwd=tmp_path,
                       check=True, capture_output=True)
    written = sorted(p.name for p in (tmp_path / "demos" / "output").iterdir())
    assert written == sorted(p.name for p in (ROOT / "demos" / "output").iterdir())
    bad = {name: _mismatches(tmp_path / "demos" / "output" / name, ROOT / "demos" / "output" / name)
           for name in written}
    assert {name: lines[:3] for name, lines in bad.items() if lines} == {}


def test_monte_carlo_demo_meets_the_closed_form_value():
    # demo 03 writes no output file; it prints each default state's
    # alpha-weighted Monte Carlo value against the closed form, in standard errors
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(ROOT / "demos" / "03_monte_carlo_verification.py")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    distances = [float(se) for se in re.findall(
        r"closed-form equilibrium value: .*, ([0-9.]+) SE\)", run.stdout)]
    assert len(distances) == 2 and max(distances) <= 3.0, run.stdout
