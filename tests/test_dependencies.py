"""Run-time dependency footprint of the installed package."""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import alphamv

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _fresh_import_loads(roots):
    # a fresh interpreter, so modules imported by the test suite do not count
    code = ("import sys, alphamv, alphamv.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {tuple(roots)!r}))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_import_loads_no_scipy():
    # mpmath and sympy serve as test-time oracles only
    assert _fresh_import_loads(("scipy", "mpmath", "sympy")) == "[]"


def test_import_loads_no_thread_pool():
    # concurrent.futures adds about 5 ms to the import; verify imports it when it runs
    assert _fresh_import_loads(("concurrent",)) == "[]"


def test_traced_and_exported_names_resolve():
    # perfbench/spans.py wraps its TARGETS by name, so a renamed or deleted
    # function would otherwise fail only under `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = [(module, name) for module, name, *_ in spans.TARGETS
                  if not callable(getattr(importlib.import_module(module), name, None))]
    assert unresolved == []
    assert [name for name in alphamv.__all__ if not hasattr(alphamv, name)] == []
