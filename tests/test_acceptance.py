"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``criterion N PASS/FAIL`` line (run with ``-s`` to see
them live).  The Monte Carlo criteria run at full scale: 2e5 paths at
dt = 1e-3, shared across criteria through a module-scoped fixture.
"""

import dataclasses
import filecmp
import math
import time

import numpy as np
import pytest

from alphamv.cli import main
from alphamv.levy import build_measure
from alphamv.simulate import (dump_paths_csv, objective_from_terminal,
                              simulate_terminal, simulate_wealth)
from alphamv.solver import (distortions, pi_s_star, pre_default_system,
                            reinsurance_foc, scan_foc_sign_changes,
                            solve_pi_q_grid, solve_pi_q_star, value_function)
from alphamv.sweep import SweepSpec, run_sweep

from conftest import write_config

MC_PATHS = 200_000
MC_DT = 1e-3
MC_SEED = 42


def report(criterion: int, name: str, ok: bool, detail: str):
    print(f"criterion {criterion} {'PASS' if ok else 'FAIL'} [{name}]: {detail}")
    assert ok, f"criterion {criterion} [{name}]: {detail}"


@pytest.fixture(scope="module")
def dist(base_solution, base_params):
    return distortions(base_solution, base_params)


@pytest.fixture(scope="module")
def mc_runs(base_params, base_measure, base_solution, dist):
    """Full-scale distorted runs: {(side, h): (x_T, default_time, seconds)}."""
    runs = {}
    for i, (side, tag) in enumerate(((dist.lo, "lo"), (dist.hi, "hi"))):
        for h in (1, 0):
            start = time.perf_counter()
            x_T, default_time, _ = simulate_terminal(
                base_solution, side, base_params, base_measure,
                n_paths=MC_PATHS, dt=MC_DT, seed=MC_SEED + i + 10 * h,
                x0=base_params.x0, h0=h)
            runs[(tag, h)] = (x_T, default_time, time.perf_counter() - start)
    return runs


def test_criterion_1_closed_form_limit_oracle(base_params, base_measure):
    params = dataclasses.replace(base_params, beta3=1e-8)
    m1, m2 = base_measure.moment(1), base_measure.moment(2)
    start = time.perf_counter()
    worst = 0.0
    for t in np.linspace(0.0, params.T, 11):
        root = solve_pi_q_star(float(t), params, base_measure)
        limit = params.eta * m1 * math.exp(-params.r * (params.T - t)) / (params.gamma * m2)
        worst = max(worst, abs(root - limit) / limit)
    elapsed = time.perf_counter() - start
    report(1, "beta3->0 analytic limit", worst <= 1e-4 and elapsed < 1.0,
           f"max rel err = {worst:.3e} (tol 1e-4), elapsed = {elapsed:.2f}s (< 1s)")


def test_criterion_2_root_correctness(base_params, base_measure, base_solution):
    start = time.perf_counter()
    grid = base_solution.grid
    scale = base_params.eta * np.exp(base_params.r * (base_params.T - grid)) \
        * base_measure.moment(1)
    residuals = np.abs(reinsurance_foc(grid, base_solution.pi_q, base_params, base_measure))
    residual_ok = bool(np.all(residuals <= 1e-9 * scale))

    # 1e4-point scan of F(t, .) on [0, bracket] at every grid t
    counts = scan_foc_sign_changes(grid, base_params, base_measure, 10_000)
    bad_counts = int(np.count_nonzero(counts != 1))
    elapsed = time.perf_counter() - start
    report(2, "FOC residuals and single sign change",
           residual_ok and bad_counts == 0 and elapsed < 10.0,
           f"max |F|/scale = {np.max(residuals / scale):.3e} (tol 1e-9), "
           f"times with != 1 sign change: {bad_counts}, elapsed = {elapsed:.1f}s (< 10s)")


def test_criterion_3_default_state_identity(base_params, base_claims, base_numerics,
                                            base_solution):
    # the post- and pre-default branches are computed by two independent runs
    measure_a = build_measure(base_claims, base_numerics.quad_nodes)
    measure_b = build_measure(base_claims, base_numerics.quad_nodes)
    post = solve_pi_q_grid(base_solution.grid, base_params, measure_a)
    pre = solve_pi_q_grid(base_solution.grid, base_params, measure_b)
    pi_q_equal = np.array_equal(post, pre)
    pi_s_equal = np.array_equal(np.asarray(pi_s_star(base_solution.grid, base_params)),
                                np.asarray(pi_s_star(base_solution.grid.copy(), base_params)))
    gap = float(np.max(np.abs(post - pre))) if post.shape == pre.shape else math.inf
    report(3, "pre/post-default strategy identity", pi_q_equal and pi_s_equal,
           f"max |pi_q(h=0) - pi_q(h=1)| = {gap:.1e} (exact), pi_s identical: {pi_s_equal}")


def test_criterion_4_hand_evaluated_closed_forms(base_params, base_measure, base_solution):
    p = base_params
    # independent hand arithmetic of the terminal stock amount:
    # (0.05*1 + 0.025 + 0.03) / (0.04 * (0.5 + 0.6*2.5)) = 0.105 / 0.08
    pi_s_T = float(pi_s_star(p.T, p))
    pi_s_ok = abs(pi_s_T - 1.3125) <= 1e-12
    # terminal algebraic solve of the bond first-order condition with zero
    # intercept differences: (delta - zeta hP) / (gamma zeta^2 hP) = 36.0
    hand_pi_p = (p.delta - p.zeta * p.hP) / (p.gamma * p.zeta ** 2 * p.hP)
    pi_p_T = float(base_solution.pi_p[-1])
    pi_p_ok = abs(pi_p_T - hand_pi_p) <= 1e-12 * abs(hand_pi_p)
    report(4, "hand-evaluated closed forms", pi_s_ok and pi_p_ok,
           f"pi_s*(T) = {pi_s_T!r} vs 1.3125; pi_p*(T) = {pi_p_T!r} vs {hand_pi_p!r}")


def test_criterion_5_monte_carlo_value_oracle(base_params, base_measure, base_solution,
                                              dist, mc_runs):
    p = base_params
    for h in (1, 0):
        est_lo = objective_from_terminal(mc_runs[("lo", h)][0], dist.lo, p, base_measure)
        est_hi = objective_from_terminal(mc_runs[("hi", h)][0], dist.hi, p, base_measure)
        value = p.alpha * est_lo.j_value + p.alpha_hat * est_hi.j_value
        se = math.hypot(p.alpha * est_lo.std_error, p.alpha_hat * est_hi.std_error)
        target = value_function(0.0, p.x0, h, base_solution.coeffs)
        runtime = mc_runs[("lo", h)][2] + mc_runs[("hi", h)][2]
        ok = abs(value - target) <= 3 * se and runtime < 120.0
        report(5, f"alpha-robust value vs B_{h}(0)", ok,
               f"h={h}: |{value:.5f} - {target:.5f}| = {abs(value - target):.2e} "
               f"vs 3*SE = {3 * se:.2e}, runtime = {runtime:.0f}s (< 120s)")


def test_criterion_6_g_intercept_oracle(base_params, base_solution, mc_runs):
    p = base_params
    erT = math.exp(p.r * p.T)
    for h, b in ((1, base_solution.coeffs.b1_lo[0]), (0, base_solution.coeffs.b0_lo[0])):
        x_T = mc_runs[("lo", h)][0]
        target = erT * p.x0 + b
        se = float(x_T.std(ddof=1) / math.sqrt(x_T.size))
        diff = abs(float(x_T.mean()) - target)
        report(6, f"worst-case mean vs b_lo (h={h})", diff <= 3 * se,
               f"|{x_T.mean():.5f} - {target:.5f}| = {diff:.2e} vs 3*SE = {3 * se:.2e}")


def test_criterion_7_distortion_identities(base_params, dist, base_measure):
    rng = np.random.default_rng(2024)
    ts = rng.uniform(0.0, base_params.T, 10_000)
    zs = rng.uniform(float(base_measure.nodes[0]), float(base_measure.nodes[-1]), 10_000)
    sign_err = max(float(np.max(np.abs(dist.hi.phi1(ts) + dist.lo.phi1(ts)))),
                   float(np.max(np.abs(dist.hi.phi2(ts) + dist.lo.phi2(ts)))))
    prod_err = float(np.max(np.abs(
        (1.0 - dist.lo.phi3(ts, zs)) * (1.0 - dist.hi.phi3(ts, zs)) - 1.0)))
    report(7, "distortion sign/product identities",
           sign_err <= 1e-12 and prod_err <= 1e-12,
           f"max |phi_hi + phi_lo| = {sign_err:.2e}, "
           f"max |(1-phi3_lo)(1-phi3_hi) - 1| = {prod_err:.2e} (tol 1e-12)")


def test_criterion_8_directional_suite(base_params, base_claims, base_numerics,
                                       base_solution):
    start = time.perf_counter()
    directions = [
        ("alpha", 0.5, 1.0, "pi_q0", "dec"),
        ("beta3", 0.01, 1.0, "pi_q0", "dec"),
        ("gamma", 0.1, 2.0, "pi_q0", "dec"),
        ("mu", 0.06, 0.2, "pi_s0", "inc"),
        ("sigma2", 0.1, 0.5, "pi_s0", "dec"),
        ("delta", base_params.zeta * base_params.hP, 0.05, "pi_p0", "inc"),
        ("zeta", 0.05, 1.0, "pi_p0", "dec"),
        ("alpha", 0.5, 1.0, "pi_p0", "inc"),
        ("hP", 0.0002, 0.005, "pi_p0", "dec"),
    ]
    failures = []
    for param, lo, hi, quantity, want in directions:
        spec = SweepSpec.from_range(param, lo, hi, 20, quantity)
        values = run_sweep(base_params, base_claims, base_numerics, spec).ok_values()
        tol = 1e-10 * max(1.0, float(np.max(np.abs(values))))
        diffs = np.diff(values)
        mono = np.all(diffs >= -tol) if want == "inc" else np.all(diffs <= tol)
        if values.size != 20 or not mono:
            failures.append(f"{quantity} vs {param}")
    # pi_q increases along the time grid
    if not np.all(np.diff(base_solution.pi_q) >= -1e-12):
        failures.append("pi_q vs t")
    # sign conditions of the stock strategy
    p = base_params
    eps = 1e-6
    for mu, want_sign in ((p.r + 0.05, 1.0), (p.r - 0.02, -1.0)):
        pm = dataclasses.replace(p, mu=mu)
        slope = (pi_s_star(eps, pm) - pi_s_star(0.0, pm)) / eps
        if not slope * want_sign > 0:
            failures.append(f"dpi_s/dt at mu={mu}")
    for rho, want_sign in ((-0.5, 1.0), (0.5, -1.0)):
        pr = dataclasses.replace(p, rho=rho)
        prb = dataclasses.replace(pr, sigma1=p.sigma1 + eps)
        slope = (pi_s_star(0.0, prb) - pi_s_star(0.0, pr)) / eps
        if not slope * want_sign > 0:
            failures.append(f"dpi_s/dsigma1 at rho={rho}")
    elapsed = time.perf_counter() - start
    report(8, "directional suite (figures 1-6)",
           not failures and elapsed < 60.0,
           f"failures: {failures or 'none'}, elapsed = {elapsed:.0f}s (< 60s)")


def test_criterion_9_numerical_order_checks(base_params, base_claims, base_solution,
                                            mc_runs):
    # RK4: observed convergence order of B0(0) under grid halving
    values = {}
    for m in (40, 80, 160):
        _, B0, _, _ = pre_default_system(base_solution, m)
        values[m] = B0[0]
    order = math.log2(abs(values[40] - values[80]) / abs(values[80] - values[160]))

    # quadrature: node doubling moves the first three moments below 1e-12
    m64 = build_measure(base_claims, 64)
    m128 = build_measure(base_claims, 128)
    quad_drift = max(abs(m128.moment(k) - m64.moment(k)) / abs(m64.moment(k))
                     for k in range(3))

    # default frequency against 1 - e^{-hP T}
    default_time = mc_runs[("lo", 0)][1]
    frac = float(np.mean(~np.isnan(default_time)))
    p_def = 1.0 - math.exp(-base_params.hP * base_params.T)
    se = math.sqrt(p_def * (1.0 - p_def) / default_time.size)
    freq_ok = abs(frac - p_def) <= 3 * se

    report(9, "RK4 order, quadrature stability, default law",
           order >= 3.5 and quad_drift <= 1e-12 and freq_ok,
           f"observed order = {order:.2f} (>= 3.5), moment drift = {quad_drift:.2e} "
           f"(tol 1e-12), |default freq - {p_def:.5f}| = {abs(frac - p_def):.2e} "
           f"vs 3*SE = {3 * se:.2e}")


def test_criterion_10_determinism(tmp_path, base_params, base_measure, base_solution):
    cfg = write_config(tmp_path / "base.cfg", numerics_overrides={"time_steps": 300})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(b)]) == 0
    solve_same = filecmp.cmp(a, b, shallow=False)

    sa, sb = tmp_path / "sa.csv", tmp_path / "sb.csv"
    sweep_args = ["sweep", "--config", str(cfg), "--param", "alpha",
                  "--from", "0.5", "--to", "1.0", "--points", "7",
                  "--quantity", "pi_p0"]
    assert main(sweep_args + ["--out", str(sa)]) == 0
    assert main(sweep_args + ["--out", str(sb)]) == 0
    sweep_same = filecmp.cmp(sa, sb, shallow=False)

    pa, pb = tmp_path / "pa.csv", tmp_path / "pb.csv"
    for out in (pa, pb):
        paths = simulate_wealth(base_solution, None, base_params, base_measure,
                                n_paths=20, dt=0.05, seed=MC_SEED, h0=0)
        dump_paths_csv(paths, out)
    paths_same = filecmp.cmp(pa, pb, shallow=False)

    report(10, "byte-identical CSVs under identical seeds",
           solve_same and sweep_same and paths_same,
           f"solve: {solve_same}, sweep: {sweep_same}, path dump: {paths_same}")
