"""Run-time dependency footprint of the installed package, and the names the benchmark uses."""

import ast
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


def _package_chains(tree):
    """Attribute chains read off the package: ``amv.x.y``, ``self.amv.x``, ``alphamv.x``."""
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
            if names[-1] == "amv" and len(names) > 1:
                yield tuple(reversed(names[:-1]))
                break
        else:
            if isinstance(node, ast.Name) and node.id in ("amv", "alphamv") and names:
                yield tuple(reversed(names))


def test_benchmark_attribute_chains_resolve():
    # perfbench calls the program through `amv.<name>` chains (and a probe
    # script held in a string); a deleted or renamed public name must fail
    # here, not only in a benchmark run.  Docstrings are not code.
    import alphamv.cli  # noqa: F401  (the package does not import its CLI itself)
    chains = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        chains.update(_package_chains(tree))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str) and "import alphamv" in node.value.value):
                chains.update(_package_chains(ast.parse(node.value.value)))
    assert {("build_measure",), ("solve_equilibrium",), ("cli", "main")} <= chains

    def resolves(chain):
        obj = alphamv
        for name in chain:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True

    assert sorted(chain for chain in chains if not resolves(chain)) == []
