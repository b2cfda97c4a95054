"""Maximizing graph variance over the probability simplex.

The variance (1/2) f^T Omega f of a node distribution is maximized at a
distribution that, restricted to its support, is exactly the curvature
vector of that support, with optimal value the support's squared radius.
For unsigned graphs nodes of negative whole-graph curvature never make
the cut; signed graphs break that intuition, and the search at the end
finds a certified counterexample.
"""

import numpy as np

from resgeo import (
    characterize,
    find_negative_curvature_support_instance,
    random_class_q,
    resistance_matrix_q,
    SignedLaplacianQ,
    solve_maxvar,
    solve_maxvar_exact,
    subset_curvature_radius,
    variance,
    verify_kkt,
)

np.set_printoptions(precision=4, suppress=True)


def banner(text):
    print(f"\n=== {text} ===")


banner("a path drops its middle node")
path = SignedLaplacianQ(np.array([
    [1.0, -1.0, 0.0],
    [-1.0, 2.0, -1.0],
    [0.0, -1.0, 1.0],
]))
omega = resistance_matrix_q(path)
sol = solve_maxvar(omega)
print("f*      =", sol.f)
print("support =", sol.support, " value =", sol.value)
print("uniform for comparison:", variance(omega, np.full(3, 1 / 3)))

banner("certificates")
kkt = verify_kkt(omega.omega, sol.f)
print("gradient flat on support, no larger off it:", kkt.ok,
      f"(residual {kkt.residual:.2e})")
rep = characterize(sol, path)
print("f* equals the support's curvature vector:",
      rep.curvature_residual)
print("value equals the support's squared radius:",
      rep.value_residual)

banner("enumeration agrees with the active-set solver")
rng = np.random.default_rng(29)
q = random_class_q(7, rng, ensure_signed=True)
om = resistance_matrix_q(q)
exact = solve_maxvar_exact(om)
iterative = solve_maxvar(om)
print("supports:", exact.support, "vs", iterative.support)
print("values:  ", exact.value, "vs", iterative.value)

banner("negative curvature inside an optimal support")
found = find_negative_curvature_support_instance(5, seed=0)
whole = subset_curvature_radius(resistance_matrix_q(found.q), range(5))
print(f"found after {found.attempts_used} random signed draws")
print("whole-graph curvature:", whole.p)
print("optimal support:      ", found.solution.support)
print(f"node {found.node} sits in the support with curvature "
      f"{found.curvature_value:.4f} < 0")
