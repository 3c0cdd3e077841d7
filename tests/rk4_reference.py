"""Step-by-step RK4 sweep of the backward coefficient system.

The solver computes the same RK4 solution column-wise over all steps (Simpson
sums and scalar affine recurrences).  This is the direct form it is checked
against: one right-hand-side call per stage, the state held in a Python list.
"""

from alphamv.solver import _pre_default_pi_p


def reference_states(params, tables, grid, pi_p_pinned=None):
    """States (B1, b1_lo, b1_hi, B0, b0_lo, b0_hi) on ``grid``, one row per time.

    ``tables`` are the solver's node tables on the half-step fine grid;
    ``pi_p_pinned`` pins the bond amount on that grid, otherwise it is
    eliminated from the state at every stage.
    """
    hP, zeta, delta = params.hP, params.zeta, params.delta
    a, ah, gamma = params.alpha, params.alpha_hat, params.gamma
    A = tables.A
    fB1, f1lo, f1hi = tables.fB1, tables.f1_lo, tables.f1_hi

    def rhs(i, y):
        Ai = A[i]
        if pi_p_pinned is not None:
            pi_p = pi_p_pinned[i]
        else:
            pi_p = _pre_default_pi_p(a * (y[1] - y[4]) + ah * (y[2] - y[5]), Ai, params)
        bond = pi_p * delta * Ai
        lump = -zeta * pi_p * Ai
        f0lo = f1lo[i] + bond + hP * (lump + y[1])
        f0hi = f1hi[i] + bond + hP * (lump + y[2])
        fB0 = (fB1[i] + bond + hP * (lump + y[0])
               - 0.5 * a * gamma * hP * (lump + y[1] - y[4]) ** 2
               - 0.5 * ah * gamma * hP * (lump + y[2] - y[5]) ** 2)
        return (-fB1[i], -f1lo[i], -f1hi[i],
                hP * y[3] - fB0, hP * y[4] - f0lo, hP * y[5] - f0hi)

    n = len(grid)
    states = [[0.0] * 6 for _ in range(n)]
    y = [0.0] * 6  # terminal condition: every intercept vanishes at T
    for k in range(n - 2, -1, -1):
        h = grid[k] - grid[k + 1]
        i_hi, i_mid, i_lo = 2 * k + 2, 2 * k + 1, 2 * k
        k1 = rhs(i_hi, y)
        k2 = rhs(i_mid, [y[j] + 0.5 * h * k1[j] for j in range(6)])
        k3 = rhs(i_mid, [y[j] + 0.5 * h * k2[j] for j in range(6)])
        k4 = rhs(i_lo, [y[j] + h * k3[j] for j in range(6)])
        y = [y[j] + h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]) for j in range(6)]
        states[k] = y
    return states
