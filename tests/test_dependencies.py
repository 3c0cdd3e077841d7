"""Run-time dependency footprint of the installed package, and the names the benchmark uses."""

import ast
import functools
import importlib
import importlib.util
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

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


def _spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _perfbench_trees():
    """Syntax trees of perfbench's modules and of the probe scripts they hold in strings."""
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        yield tree
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str) and "import alphamv" in node.value.value):
                yield ast.parse(node.value.value)


def test_traced_and_exported_names_resolve():
    # perfbench/spans.py wraps its TARGETS by name, so a renamed or deleted
    # function would otherwise fail only under `perfbench/run.py --trace 1`
    spans = _spans()
    unresolved = [(module, name) for module, name, *_ in spans.TARGETS
                  if not callable(getattr(importlib.import_module(module), name, None))]
    assert unresolved == []
    assert [name for name in alphamv.__all__ if not hasattr(alphamv, name)] == []


def _imported_top_level_names(trees):
    """Top-level module names the trees import, ``pytest.importorskip`` included."""
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield node.module.split(".")[0]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "importorskip"):
                yield node.args[0].value.split(".")[0]


def test_readme_class_names_resolve():
    # every backticked CamelCase name in the README is a public name of the
    # package, so a type that goes cannot stay named there; snake_case
    # backticks also name check lines and config keys, so they are not read
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"`([A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+)`", text))
    assert len(names) >= 10
    assert sorted(name for name in names if not hasattr(alphamv, name)) == []


def test_test_extra_lists_the_packages_tests_and_benchmark_import():
    # the test extra must install every third-party package that a test or
    # perfbench imports, and nothing else; numpy comes with the package itself
    tomllib = pytest.importorskip("tomllib")            # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]

    def names(requirements):
        return {re.split(r"[<>=!~;\[ ]", requirement, maxsplit=1)[0]
                for requirement in requirements}

    test_paths = sorted((ROOT / "tests").glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in test_paths]
    local = {"alphamv", *(path.stem for path in test_paths),
             *(path.stem for path in (ROOT / "perfbench").glob("*.py"))}
    imported = set(_imported_top_level_names([*trees, *_perfbench_trees()]))
    third_party = imported - local - set(sys.stdlib_module_names)
    assert names(project["optional-dependencies"]["test"]) == \
        third_party - names(project["dependencies"])


def _chain(node):
    """The chain ``node`` reads off the package (``amv.x.y``, ``self.amv.x``, ``alphamv.x``)."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
        if names[-1] == "amv" and len(names) > 1:
            return tuple(reversed(names[:-1]))
    if isinstance(node, ast.Name) and node.id in ("amv", "alphamv") and names:
        return tuple(reversed(names))
    return None


def _package_chains(tree):
    """Every attribute chain read off the package, prefixes included."""
    return filter(None, map(_chain, ast.walk(tree)))


def test_benchmark_attribute_chains_resolve():
    # perfbench calls the program through `amv.<name>` chains (and a probe
    # script held in a string); a deleted or renamed public name must fail
    # here, not only in a benchmark run.  Docstrings are not code.
    import alphamv.cli  # noqa: F401  (the package does not import its CLI itself)
    chains = {chain for tree in _perfbench_trees() for chain in _package_chains(tree)}
    assert {("build_measure",), ("solve_equilibrium",), ("cli", "main")} <= chains

    def resolves(chain):
        obj = alphamv
        for name in chain:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True

    assert sorted(chain for chain in chains if not resolves(chain)) == []


def test_benchmark_record_reads_and_bound_arguments_resolve(tmp_path):
    # perfbench reads fields off the records it holds (``numerics.mc_paths``,
    # ``c.b0_hi`` with ``c = solution.coeffs``) and spans.py binds argument
    # names of traced calls; on real objects from base.cfg a renamed field
    # or parameter must fail here, not only in a benchmark run
    params, claims, numerics = alphamv.load_config(ROOT / "demos" / "configs" / "base.cfg")
    measure = alphamv.build_measure(claims, numerics.quad_nodes)
    solution = alphamv.solve_equilibrium(params, measure, numerics)
    result = alphamv.run_sweep(params, claims, numerics,
                               alphamv.SweepSpec.from_range("alpha", 0.6, 0.9, 2, "pi_q0"))
    held = {"numerics": numerics, "params": params, "solution": solution,
            "c": solution.coeffs, "measure": measure, "result": result, "row": result.rows[0]}
    reads = {(node.value.id, node.attr) for tree in _perfbench_trees() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in held}
    assert {("numerics", "mc_paths"), ("params", "discount_to_horizon"), ("c", "b0_hi"),
            ("measure", "moment"), ("row", "status")} <= reads
    assert sorted((name, attr) for name, attr in reads if not hasattr(held[name], attr)) == []

    counters = {func: counter for _, func, _, counter in _spans().TARGETS}
    args = (solution, None, params, measure)
    kwargs = dict(n_paths=10, dt=0.05, seed=1)
    x_terminal = alphamv.simulate_terminal(*args, **kwargs)
    assert counters["simulate_terminal"](alphamv.simulate_terminal, args, kwargs,
                                         x_terminal)["path_steps"] == 10 * 200
    assert counters["run_sweep"](alphamv.run_sweep, (), {}, result) == {"points": 2, "skipped": 0}
    out = tmp_path / "out.csv"
    for writer, record in ((alphamv.write_solve_csv, solution), (alphamv.write_sweep_csv, result)):
        writer(out, record)
        assert counters[writer.__name__](writer, (out, record), {}, None) == {
            "bytes": out.stat().st_size}


def test_benchmark_calls_bind_to_the_signatures():
    # a call can resolve and still not fit: dropping ``exp_cap`` from
    # reference_mean_intercepts, which perfbench passes positionally, would
    # otherwise fail only in a benchmark run
    import alphamv.cli  # noqa: F401  (the package does not import its CLI itself)
    calls = [(chain, node) for tree in _perfbench_trees() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and (chain := _chain(node.func))]
    assert {("reference_mean_intercepts",), ("cli", "main")} <= {chain for chain, _ in calls}

    def binds(call, signature):
        keywords = dict.fromkeys(kw.arg for kw in call.keywords if kw.arg is not None)
        bind = signature.bind_partial if len(keywords) < len(call.keywords) else signature.bind
        positional = sum(not isinstance(arg, ast.Starred) for arg in call.args)
        # a starred argument stands for any number of positional ones
        spread = len(signature.parameters) if positional < len(call.args) else 0
        for count in range(positional, positional + spread + 1):
            try:
                bind(*[None] * count, **keywords)
                return True
            except TypeError:
                pass
        return False

    unbound = [(".".join(chain), call.lineno) for chain, call in calls
               if not binds(call, inspect.signature(functools.reduce(getattr, chain, alphamv)))]
    assert unbound == []
