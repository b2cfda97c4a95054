"""Strong connectivity and kept-set reachability against a brute-force closure.

The reference is Warshall's transitive closure on the boolean edge
pattern, written here independently of the package's graph search.
"""

import re

import numpy as np
import pytest

from resgeo.errors import StructureError, ValidationError
from resgeo.graph import DirectedLaplacian, is_reachable_subset
from resgeo.kron import kron_reduce


def warshall(adjacency):
    """``reach[i, j]``: node ``i`` has a directed path to ``j`` (or ``i == j``)."""
    n = adjacency.shape[0]
    reach = (adjacency != 0.0) | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    return reach


def laplacian(adjacency):
    lap = -adjacency
    np.fill_diagonal(lap, adjacency.sum(axis=1))
    return DirectedLaplacian(lap)


def weights(rng, mask):
    return np.where(mask, rng.uniform(0.5, 2.0, mask.shape), 0.0)


def random_digraph(n, rng):
    # Densities straddle the strong-connectivity threshold ~log(n)/n.
    mask = rng.random((n, n)) < rng.uniform(0.0, 1.5 * np.log(n + 1) / n)
    np.fill_diagonal(mask, False)
    return weights(rng, mask)


def random_dag(n, rng):
    mask = np.triu(rng.random((n, n)) < 0.5, k=1)
    order = rng.permutation(n)
    return weights(rng, mask)[np.ix_(order, order)]


def cycle(order, rng, n):
    adjacency = np.zeros((n, n))
    adjacency[order, np.roll(order, -1)] = rng.uniform(0.5, 2.0, order.size)
    return adjacency


def two_sccs(n, rng):
    """Two directed cycles joined by a single edge from the first to the second."""
    order = rng.permutation(n)
    split = int(rng.integers(1, n))
    adjacency = (cycle(order[:split], rng, n) if split > 1 else np.zeros((n, n)))
    if n - split > 1:
        adjacency += cycle(order[split:], rng, n)
    adjacency[order[int(rng.integers(0, split))],
              order[int(rng.integers(split, n))]] = 1.0
    return adjacency


FAMILIES = {
    "random": random_digraph,
    "dag": random_dag,
    "two_sccs": two_sccs,
    "cycle": lambda n, rng: cycle(rng.permutation(n), rng, n),
}


def check_against_closure(adjacency, rng, subsets):
    n = adjacency.shape[0]
    lap = laplacian(adjacency)
    reach = warshall(adjacency)
    assert lap.strongly_connected == bool(reach.all())
    for _ in range(subsets):
        kept = np.sort(rng.choice(n, int(rng.integers(2, n + 1)), replace=False))
        unreachable = [u for u in range(n) if not reach[u, kept].any()]
        assert is_reachable_subset(lap, kept) == (not unreachable)
        if unreachable:
            message = f"nodes {unreachable} have no directed path into the kept set"
            with pytest.raises(StructureError, match=re.escape(message)):
                kron_reduce(lap, kept)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", [1, 2, 3, 12, 300])
def test_reachability_matches_warshall(family, n):
    rng = np.random.default_rng([n, len(family)])
    if n == 1:
        # Every graph of the package has at least two nodes.
        with pytest.raises(ValidationError, match="at least two points"):
            laplacian(np.zeros((1, 1)))
        return
    draws = 6 if n == 300 else 40
    for _ in range(draws):
        check_against_closure(FAMILIES[family](n, rng), rng, subsets=4)


def test_reachability_on_long_cycle():
    n = 800
    rng = np.random.default_rng(800)
    adjacency = cycle(rng.permutation(n), rng, n)
    assert laplacian(adjacency).strongly_connected
    check_against_closure(adjacency, rng, subsets=2)
    # Dropping one edge leaves a directed path: not strongly connected, and
    # the nodes past the last kept one along the path cannot reach it.
    src, dst = np.nonzero(adjacency)
    adjacency[src[0], dst[0]] = 0.0
    check_against_closure(adjacency, rng, subsets=4)
