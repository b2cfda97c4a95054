"""Resistance curvature and radius, and the identity that ties them.

The undirecting map sends a strongly connected weight-balanced digraph to
a possibly signed undirected Laplacian with identical resistances.  The
bordered resistance matrix then satisfies one linear identity whose
blocks are the curvature vector p (summing to 1) and the squared radius
sigma^2; everything else in this demo is a corollary of that identity.
"""

import numpy as np

from resgeo import (
    check_commutativity,
    check_noncommutativity,
    curvature_radius_q,
    curvature_radius_sc,
    curvature_radius_scwb,
    kron_reduce,
    laplacian_from_edges,
    reduce_curvature_radius,
    resistance_matrix_sc,
    resistance_matrix_scwb,
    subset_curvature_radius,
    undirect,
    verify_fiedler_bapat,
    wb_transform,
    weight_balance,
)

np.set_printoptions(precision=4, suppress=True)


def banner(text):
    print(f"\n=== {text} ===")


lap = laplacian_from_edges(4, [
    (0, 1, 1.0), (0, 2, 2.0), (1, 3, 1.0), (2, 3, 2.0), (3, 0, 3.0),
])

banner("undirecting a balanced digraph")
q = undirect(lap)
print(q.matrix)
print("note the positive coupling between nodes 2 and 3:",
      q.matrix[1, 2])

banner("curvature vector and resistance radius")
cr = curvature_radius_scwb(lap)
omega = resistance_matrix_scwb(lap).omega
print("p       =", cr.p)
print("sigma^2 =", cr.sigma2)
print("sum p   =", cr.p.sum())
print("Omega p - 2 sigma^2 1:", np.abs(omega @ cr.p - 2 * cr.sigma2).max())

banner("the bordered identity")
fb = verify_fiedler_bapat(lap)
print("residual of the (n+1) x (n+1) product:", fb.residual)
print("holds for signed Laplacians as well:",
      verify_fiedler_bapat(q).residual)

banner("what commutes with reduction, and what does not")
com = check_commutativity(lap, [0, 1, 3])
print("undirect then reduce vs reduce then undirect:", com.residual)
non = check_noncommutativity(lap, [0, 1, 3])
print("symmetrized pseudoinverse vs reduction:      ", non.difference,
      " (genuinely different)")

banner("curvature after reduction, two ways")
reduced = reduce_curvature_radius(lap, [0, 1, 3])
direct = curvature_radius_scwb(kron_reduce(lap, [0, 1, 3]).reduced)
print("update formula:", reduced.p, reduced.sigma2)
print("from scratch:  ", direct.p, direct.sigma2)

banner("the radius as a set function")
# a pair's squared radius is a quarter of its resistance, and the radius
# grows with the set
for subset in ([1, 2], [0, 1, 2], [0, 1, 2, 3]):
    sigma2 = subset_curvature_radius(omega, subset).sigma2
    print(f"sigma^2({subset}) = {sigma2:.4f}")
print(f"Omega[1, 2] / 4  = {omega[1, 2] / 4:.4f}")

banner("unbalanced graphs, through the balancing vector")
two = laplacian_from_edges(2, [(0, 1, 2.0), (1, 0, 1.0)])
sc = curvature_radius_sc(two)
print("directed pair:", sc.p, sc.sigma2)
wb = weight_balance(two)
transported = wb_transform(sc, wb.m, resistance_matrix_sc(two))
balanced = curvature_radius_scwb(wb.balanced)
print("transported:  ", transported.p, transported.sigma2)
print("recomputed:   ", balanced.p, balanced.sigma2)

banner("signed Laplacians")
cq = curvature_radius_q(q)
print("p =", cq.p, " sigma^2 =", cq.sigma2)
