"""alphamv: equilibrium reinsurance-investment strategies for an alpha-maxmin
mean-variance insurer in a market with a defaultable bond.

The package solves the time-consistent (game-theoretic) strategies in closed
or implicitly-defined form, evaluates the associated value functions and
extremal probability distortions, and verifies everything against an
independent Monte Carlo simulation of the controlled wealth process.
"""

from .config import (ClaimModelSpec, ModelParams, NumericsConfig, load_config,
                     save_config)
from .errors import ConfigError, NumericalError, SaturationWarning, ValidationError
from .levy import ClaimMeasure, ClaimTables, build_claim_tables, build_measure
from .simulate import (ConstantStrategy, ObjectiveEstimate, WealthPath,
                       alpha_robust_value, bond_price_path, dump_paths_csv,
                       objective_from_terminal, simulate_terminal, simulate_wealth)
from .solver import (DistortionFunctions, DistortionSide, EquilibriumSolution,
                     distortions, penalty_rate, pi_p_star, pi_s_star,
                     pre_default_system, reference_mean_intercepts, reinsurance_foc,
                     solve_equilibrium, solve_pi_q_grid, solve_pi_q_lanes,
                     solve_pi_q_star, value_function)
from .sweep import (QUANTITIES, SweepResult, SweepRow, SweepSpec,
                    evaluate_quantity, run_sweep, write_solve_csv,
                    write_sweep_csv)
from .verify import CheckResult, VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "ClaimModelSpec", "NumericsConfig", "load_config", "save_config",
    "ConfigError", "ValidationError", "NumericalError", "SaturationWarning",
    "ClaimMeasure", "ClaimTables", "build_claim_tables", "build_measure",
    "EquilibriumSolution", "DistortionFunctions", "DistortionSide",
    "pi_s_star", "pi_p_star", "reinsurance_foc", "solve_pi_q_star",
    "solve_pi_q_grid", "solve_pi_q_lanes",
    "pre_default_system", "solve_equilibrium", "reference_mean_intercepts", "distortions",
    "value_function", "penalty_rate",
    "ConstantStrategy", "WealthPath", "ObjectiveEstimate",
    "simulate_wealth", "simulate_terminal", "objective_from_terminal", "alpha_robust_value",
    "bond_price_path", "dump_paths_csv",
    "SweepSpec", "SweepRow", "SweepResult", "QUANTITIES",
    "evaluate_quantity", "run_sweep", "write_solve_csv", "write_sweep_csv",
    "CheckResult", "VerificationReport", "run_verification",
    "__version__",
]
