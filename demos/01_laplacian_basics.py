"""Directed Laplacians: construction, structure checks, weight balancing.

Walks through the two input routes (edge lists and matrices), the two
structural predicates that drive everything else (strong connectivity and
weight balance), and the balancing map that upgrades one to the other.
"""

import numpy as np

from resgeo import (
    DirectedLaplacian,
    laplacian_from_edges,
    pseudoinverse,
    weight_balance,
)

np.set_printoptions(precision=4, suppress=True)


def banner(text):
    print(f"\n=== {text} ===")


banner("a digraph from weighted edges")
# 1 -> 2 -> 4 -> 1 and 1 -> 3 -> 4, with the return edge carrying weight 3
lap = laplacian_from_edges(4, [
    (0, 1, 1.0), (0, 2, 2.0), (1, 3, 1.0), (2, 3, 2.0), (3, 0, 3.0),
])
print(lap.matrix)
print("strongly connected:", lap.strongly_connected)
print("weight balanced:   ", lap.weight_balanced)
print("row sums:          ", lap.matrix.sum(axis=1))
print("column sums:       ", lap.matrix.sum(axis=0))

banner("the same matrix handed in directly")
direct = DirectedLaplacian(lap.matrix)
print("round trip equal:", np.array_equal(direct.matrix, lap.matrix))

banner("an unbalanced two-node graph")
two = DirectedLaplacian(np.array([[2.0, -2.0], [-1.0, 1.0]]))
print(two.matrix)
print("strongly connected:", two.strongly_connected)
print("weight balanced:   ", two.weight_balanced)

banner("weight balancing")
# a positive diagonal rescaling M makes M L weight balanced; the balancing
# vector is normalized to mean 1 so balanced graphs return m = 1
wb = weight_balance(two)
print("m =", wb.m)
print("balanced Laplacian:\n", wb.balanced.matrix)
print("balanced column sums:", wb.balanced.matrix.sum(axis=0))

already = weight_balance(lap)
print("balancing a balanced graph: m =", already.m)

banner("pseudoinverse via a rank-one shift")
# for balanced graphs L + (gamma/n) 1 1^T is invertible and its inverse
# differs from the pseudoinverse by a known rank-one term, for any gamma
ones = np.full((lap.n, lap.n), 1.0 / lap.n)
for gamma in (1.0, -5.0):
    shifted = np.linalg.inv(lap.matrix + gamma * ones) - ones / gamma
    gap = np.abs(shifted - pseudoinverse(lap.matrix)).max()
    print(f"gamma = {gamma:+.0f}: agreement with the SVD route {gap:.2e}")
