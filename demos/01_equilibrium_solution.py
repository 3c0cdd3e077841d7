"""Solve the equilibrium and walk through what comes out.

The model has three controls: the retained insurance exposure pi_q, the
dollar amount in the stock pi_s, and the dollar amount in the defaultable
bond pi_p (pre-default only).  The insurer weighs a worst-case and a
best-case probability model with weights alpha and 1 - alpha on top of a
mean-variance objective, so every output below already prices in ambiguity.

Run:  python demos/01_equilibrium_solution.py
"""

import pathlib


from alphamv import (build_measure, load_config, solve_equilibrium,
                     value_function, write_solve_csv)

HERE = pathlib.Path(__file__).parent

params, claims, numerics = load_config(HERE / "configs" / "base.cfg")
measure = build_measure(claims, numerics.quad_nodes)
solution = solve_equilibrium(params, measure, numerics)

print("Equilibrium at selected times (T = %.0f years):" % params.T)
print(f"{'t':>5} {'pi_q':>9} {'pi_s':>9} {'pi_p':>9}")
for t in (0.0, 2.5, 5.0, 7.5, 10.0):
    k = int(round(t / params.T * (len(solution.grid) - 1)))
    print(f"{t:5.1f} {solution.pi_q[k]:9.4f} {solution.pi_s[k]:9.4f} {solution.pi_p[k]:9.4f}")

print()
print("The retained exposure grows with t: near the horizon there is less")
print("time for claims to hurt the variance, so the insurer keeps more risk.")
print("The stock amount follows its closed form; the bond amount is large")
print("because the default intensity is small relative to the credit spread.")
print()

for h, label in ((0, "pre-default"), (1, "post-default")):
    v = value_function(0.0, params.x0, h, solution)
    print(f"value at (t=0, x0={params.x0}, {label}): {v:+.5f}")
print()
print("The pre-default value is higher: access to the bond's excess drift is")
print("worth more than the default risk it carries at these parameters.")

out = HERE / "output"
out.mkdir(exist_ok=True)
write_solve_csv(out / "equilibrium.csv", solution)
print(f"\nfull table written to {out / 'equilibrium.csv'}")
