"""Check the backward solver against the forward simulator, end to end.

Nothing here reuses the solver's arithmetic: the simulator samples the
wealth at T from its exact law given the claims and the default time, under
the worst- and best-case measures, and assembles
mean - (gamma/2) variance +- penalty from the sample.  If the closed-form
coefficients are right, alpha J_lo + (1 - alpha) J_hi lands within Monte
Carlo noise of e^{rT} x0 + B_h(0).

This demo runs at one tenth of the acceptance scale so it finishes in a few
seconds; `alphamv verify --config demos/configs/base.cfg` runs the full
suite at the configured scale.

Run:  python demos/03_monte_carlo_verification.py
"""

import dataclasses
import pathlib

from alphamv import (alpha_robust_value, build_measure, distortions,
                     load_config, solve_equilibrium, value_function)

HERE = pathlib.Path(__file__).parent

params, claims, numerics = load_config(HERE / "configs" / "base.cfg")
numerics = dataclasses.replace(numerics, mc_paths=20_000, mc_dt=5e-3)
measure = build_measure(claims, numerics.quad_nodes)
solution = solve_equilibrium(params, measure, numerics)
dist = distortions(solution, params)

print(f"{numerics.mc_paths} paths, dt = {numerics.mc_dt}")
for h, label in ((1, "post-default"), (0, "pre-default")):
    value, se, est_lo, est_hi = alpha_robust_value(
        solution, dist, 0.0, params.x0, h,
        numerics.mc_paths, numerics.mc_dt, numerics.seed)
    target = value_function(0.0, params.x0, h, solution)
    print(f"\n{label} (h={h}):")
    print(f"  worst-case side: mean {est_lo.mean:+.4f}, variance {est_lo.variance:.4f}, "
          f"penalty {est_lo.penalty:+.4f} -> J_lo {est_lo.j_value:+.4f}")
    print(f"  best-case side:  mean {est_hi.mean:+.4f}, variance {est_hi.variance:.4f}, "
          f"penalty {-est_hi.penalty:+.4f} -> J_hi {est_hi.j_value:+.4f}")
    print(f"  alpha-weighted Monte Carlo value: {value:+.5f} +- {se:.5f}")
    print(f"  closed-form equilibrium value:    {target:+.5f}   "
          f"(|diff| = {abs(value - target):.5f}, {abs(value - target) / se:.2f} SE)")
