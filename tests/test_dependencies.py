"""Run-time dependency footprint of the installed package, and the names the benchmark uses."""

import ast
import functools
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import alphamv

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _fresh_import_loads(roots, code="import alphamv, alphamv.cli"):
    """The modules under ``roots`` that running ``code`` loads in a fresh interpreter."""
    # a fresh interpreter, so modules imported by the test suite do not count
    code = (f"import sys; {code}; "
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
    # concurrent.futures adds 6-8 ms to the CLI's import; verify imports it when it runs
    assert _fresh_import_loads(("concurrent",)) == "[]"


def test_bare_import_loads_no_submodule_and_no_numpy():
    # each public name resolves on first use, so the namespace alone loads nothing
    assert _fresh_import_loads(("alphamv", "numpy"), "import alphamv") == "['alphamv']"


_SETUP = ("import alphamv; params, claims, numerics = alphamv.load_config("
          f"{str(ROOT / 'demos' / 'configs' / 'base.cfg')!r}); "
          "alphamv.build_measure(claims, numerics.quad_nodes)")
_ALL_MODULES = ["alphamv", *sorted(f"alphamv.{path.stem}" for path in (SRC / "alphamv").glob("*.py")
                                   if path.stem != "__init__")]


@pytest.mark.parametrize("code, loaded", [
    # the benchmark's set-up path loads only what its two calls need
    (_SETUP, ["alphamv", "alphamv.config", "alphamv.errors", "alphamv.levy"]),
    # a submodule resolves as an attribute after a bare import
    ("import alphamv; alphamv.solver",
     ["alphamv", "alphamv.config", "alphamv.errors", "alphamv.levy", "alphamv.solver"]),
    # perfbench's Tracer.install looks up every traced module in sys.modules
    # after `import alphamv.cli`, so the CLI must load all of them
    ("import alphamv.cli", _ALL_MODULES),
], ids=["setup", "submodule", "cli"])
def test_a_call_loads_only_the_modules_it_uses(code, loaded):
    assert _fresh_import_loads(("alphamv",), code) == repr(loaded)


def test_public_names_resolve_to_their_defining_modules(monkeypatch):
    public = [name for name in alphamv.__all__ if name != "__version__"]
    for name in public:
        obj = getattr(alphamv, name)
        home = importlib.import_module(f"alphamv.{alphamv._HOMES[name]}")
        assert getattr(home, name) is obj, name
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name
    assert "solve_equilibrium" not in vars(alphamv)     # read through, never copied

    namespace = {}
    exec("from alphamv import *", namespace)
    assert all(namespace[name] is getattr(alphamv, name) for name in alphamv.__all__)
    assert set(alphamv.__all__) <= set(dir(alphamv))

    with pytest.raises(AttributeError, match="'no_such_name'"):
        alphamv.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from alphamv import no_such_name  # noqa: F401

    # a rebinding in the defining module (monkeypatch, perfbench's tracer) shows through
    def stand_in(*args, **kwargs):
        return None
    monkeypatch.setattr(alphamv.solver, "solve_equilibrium", stand_in)
    assert alphamv.solve_equilibrium is stand_in
    monkeypatch.undo()
    assert alphamv.solve_equilibrium is alphamv.solver.solve_equilibrium is not stand_in


def test_startup_tool_reports_every_command():
    # one fresh interpreter per copy and command: the report's shape, not its times
    def checkout_files():
        return {path for part in ("src", "tools", "demos") for path in (ROOT / part).rglob("*")}

    before = checkout_files()
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "startup.py"), "--runs", "1"],
                         check=True, capture_output=True, text=True, timeout=60).stdout
    report = json.loads(out)
    assert report["runs"] == 1
    assert list(report["ms"]) == ["no_bytecode", "bytecode"]
    for by_command in report["ms"].values():
        assert list(by_command) == ["pass", "numpy", "alphamv", "setup", "cli_solve"]
        for stats in by_command.values():
            assert list(stats) == ["median", "q1", "q3"]
            assert 0 < stats["q1"] == stats["median"] == stats["q3"]
    assert checkout_files() == before       # its copies, bytecode and CSV live elsewhere


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
