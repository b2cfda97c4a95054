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
    curvature_radius_q,
    random_class_q,
    resistance_matrix_q,
    SignedLaplacianQ,
    solve_maxvar,
    solve_maxvar_exact,
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
# draw signed Laplacians until an optimal support holds a node whose
# whole-graph curvature is negative
rng = np.random.default_rng(0)
for attempt in range(1, 1001):
    q = random_class_q(5, rng, ensure_signed=True)
    whole = curvature_radius_q(q).p
    sol = solve_maxvar_exact(resistance_matrix_q(q))
    negative = [int(i) for i in sol.support if whole[i] < -1e-10]
    if negative:
        break
else:
    raise SystemExit("no draw put negative curvature in its optimal support")
print(f"found after {attempt} random signed draws")
print("whole-graph curvature:", whole)
print("optimal support:      ", sol.support)
print(f"node {negative[0]} sits in the support with curvature "
      f"{whole[negative[0]]:.4f} < 0")
