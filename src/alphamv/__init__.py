"""alphamv: equilibrium reinsurance-investment strategies for an alpha-maxmin
mean-variance insurer in a market with a defaultable bond.

The package solves the time-consistent (game-theoretic) strategies in closed
or implicitly-defined form, evaluates the associated value functions and
extremal probability distortions, and verifies everything against an
independent Monte Carlo simulation of the controlled wealth process.

``import alphamv`` loads this file alone, not numpy.  Each public name is
resolved on first use by importing the module that defines it (PEP 562, the
mechanism of Scientific Python's SPEC 1), so a call loads only what it needs:
``load_config`` and ``build_measure`` load ``config``, ``errors`` and
``levy``; ``solve_equilibrium`` adds ``solver``; the simulator, sweeps and
verifier load when first named.  The name is read off its defining module on
every access and never copied here, so a rebinding of
``alphamv.solver.solve_equilibrium`` is seen through
``alphamv.solve_equilibrium``.  Submodules such as ``alphamv.solver`` resolve
the same way; ``alphamv.cli`` imports every module it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {name: home for home, names in {
    "config": ("ModelParams", "ClaimModelSpec", "NumericsConfig", "load_config", "save_config"),
    "errors": ("ConfigError", "ValidationError", "NumericalError", "SaturationWarning"),
    "levy": ("ClaimMeasure", "ClaimTables", "build_claim_tables", "build_measure"),
    "solver": ("EquilibriumSolution", "DistortionFunctions", "DistortionSide",
               "pi_s_star", "pi_p_star", "reinsurance_foc", "solve_pi_q_star",
               "solve_pi_q_grid", "solve_pi_q_lanes", "pre_default_system",
               "solve_equilibrium", "reference_mean_intercepts", "distortions",
               "value_function", "penalty_rate"),
    "simulate": ("ConstantStrategy", "WealthPath", "ObjectiveEstimate", "simulate_wealth",
                 "simulate_terminal", "objective_from_terminal", "alpha_robust_value",
                 "bond_price_path", "dump_paths_csv"),
    "sweep": ("SweepSpec", "SweepRow", "SweepResult", "QUANTITIES", "evaluate_quantity",
              "run_sweep", "write_solve_csv", "write_sweep_csv"),
    "verify": ("CheckResult", "VerificationReport", "run_verification"),
}.items() for name in names}

_SUBMODULES = {*_HOMES.values(), "_csvtext"}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    if name in _HOMES:
        return getattr(importlib.import_module("." + _HOMES[name], __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
