import json

import numpy as np
import pytest

from resgeo.cli import main
from resgeo.errors import (
    DegenerateBlockError,
    StructureError,
    ValidationError,
)
from resgeo.generators import random_class_q, random_keep, random_scwb_laplacian
from resgeo.graph import DirectedLaplacian, laplacian_from_edges
from resgeo.kron import kron_reduce, kron_reduce_q
from resgeo.linalg import schur_complement
from resgeo.resistance import effective_resistance_directed
from resgeo.verify import _gth_kron

SHOWCASE = DirectedLaplacian(np.array([
    [3.0, -1.0, -2.0, 0.0],
    [0.0, 1.0, 0.0, -1.0],
    [0.0, 0.0, 2.0, -2.0],
    [-3.0, 0.0, 0.0, 3.0],
]))


def test_showcase_reduction_eliminating_node_2():
    result = kron_reduce(SHOWCASE, [0, 1, 3])
    expected = np.array([
        [3.0, -1.0, -2.0],
        [0.0, 1.0, -1.0],
        [-3.0, 0.0, 3.0],
    ])
    assert np.abs(result.reduced.matrix - expected).max() < 1e-12
    assert result.kept.tolist() == [0, 1, 3]
    assert result.preserved.row_sums_zero
    assert result.preserved.offdiag_nonpos
    assert result.preserved.weight_balanced
    assert result.preserved.strongly_connected


def test_directed_cycle_reduces_to_single_edge():
    cycle = laplacian_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    result = kron_reduce(cycle, [0, 1])
    assert np.abs(result.reduced.matrix - np.array([[1.0, -1.0], [-1.0, 1.0]])).max() < 1e-12


def test_path_reduces_to_halved_edge():
    # unit path 1 - 2 - 3, keeping the endpoints: two unit edges in series
    path = laplacian_from_edges(
        3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]
    )
    result = kron_reduce(path, [0, 2])
    assert np.abs(result.reduced.matrix - 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])).max() < 1e-12


def test_block_equals_repeated_single_eliminations():
    rng = np.random.default_rng(42)
    lap = random_scwb_laplacian(8, rng)
    keep = [1, 4, 6]
    block = kron_reduce(lap, keep).reduced.matrix
    step = lap
    for node in (7, 5, 3, 2, 0):
        remaining = [i for i in range(step.n) if i != node]
        step = kron_reduce(step, remaining).reduced
    assert np.abs(block - step.matrix).max() < 1e-9


def test_unreachable_keep_rejected():
    dag = laplacian_from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    with pytest.raises(StructureError, match="2"):
        kron_reduce(dag, [0, 1])  # node 2 is a sink, nothing reaches back
    kron_reduce(dag, [1, 2])  # eliminating the source is fine


def _leaky_cycle(weight):
    """Unit 4-cycle on nodes 0..3 whose only edge out, 3 -> 4, has the given
    weight; nodes 4 and 5 form a unit 2-cycle and 4 feeds the big cycle."""
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0),
             (3, 4, weight), (4, 5, 1.0), (5, 4, 1.0), (4, 0, 1.0)]
    return laplacian_from_edges(6, edges)


def test_near_singular_elimination_is_refused():
    # Eliminating the 4-cycle leaves a nonsingular M-matrix block with
    # kappa_2 about 8e14, above the 1e12 gate: the solve-based bound
    # refuses it as the SVD did.
    lap = _leaky_cycle(1e-14)
    block = lap.matrix[:4, :4]
    assert np.linalg.cond(block) > 1e14
    with pytest.raises(DegenerateBlockError):
        kron_reduce(lap, [4, 5])
    with pytest.raises(DegenerateBlockError):
        effective_resistance_directed(lap, 4, 5)
    # The same graph with a unit leak reduces.
    assert kron_reduce(_leaky_cycle(1.0), [4, 5]).preserved.row_sums_zero


def _spread_weight_draw(seed):
    """A Hamiltonian cycle plus 2n random edges on n in [6, 60) nodes, with
    weights 10^U(-4, 4), and a random third of the nodes to keep."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 60))
    adjacency = np.zeros((n, n))
    order = rng.permutation(n)
    adjacency[order, np.roll(order, -1)] = 1.0
    for _ in range(2 * n):
        i, j = rng.integers(0, n, 2)
        if i != j:
            adjacency[i, j] = 1.0
    adjacency *= 10.0 ** rng.uniform(-4, 4, size=(n, n))
    keep = np.sort(rng.choice(n, size=max(2, n // 3), replace=False))
    return adjacency, keep


def _spread_weight_laplacian(seed):
    adjacency, keep = _spread_weight_draw(seed)
    edges = [(i, j, adjacency[i, j]) for i, j in zip(*np.nonzero(adjacency))]
    return laplacian_from_edges(len(adjacency), edges), edges, keep


def test_spread_weights_reduce_and_match_gth(tmp_path, capsys):
    # Seed 157 (n = 8, keeping 2 nodes): the raw Schur complement's rows sum
    # to 6.9e-8 of its scale.  The reduced Laplacian is built from its
    # off-diagonal entries, so it reduces, and the CLI reports it.
    lap, edges, keep = _spread_weight_laplacian(157)
    kron_reduce(lap, keep)
    path = tmp_path / "spread.edges"
    path.write_text("".join(f"{i + 1} {j + 1} {w:.17g}\n" for i, j, w in edges))
    code = main(["kron", str(path), "--keep", ",".join(str(k + 1) for k in keep)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0, report
    assert report["outputs"]["preserved"]["strongly_connected"]
    # Over the whole population only seed 27's eliminated block is refused,
    # by the condition gate; every other draw agrees with GTH elimination.
    refused = []
    for seed in range(300):
        lap, _, keep = _spread_weight_laplacian(seed)
        try:
            reduced = kron_reduce(lap, keep).reduced.matrix
        except DegenerateBlockError:
            refused.append(seed)
            continue
        gth = _gth_kron(lap, keep)
        assert np.abs(reduced - gth).max() <= 1e-9 * np.abs(gth).max(), seed
    assert refused == [27]


def test_keep_needs_two_nodes():
    with pytest.raises(ValidationError):
        kron_reduce(SHOWCASE, [1])


def test_keep_full_set_is_identity():
    result = kron_reduce(SHOWCASE, range(4))
    assert np.abs(result.reduced.matrix - SHOWCASE.matrix).max() == 0.0


def test_reduction_is_schur_complement():
    keep = [0, 1, 3]
    expected = schur_complement(SHOWCASE.matrix, keep)
    assert np.abs(kron_reduce(SHOWCASE, keep).reduced.matrix - expected).max() < 1e-12


def test_class_q_reduction_stays_in_class():
    rng = np.random.default_rng(3)
    for _ in range(10):
        q = random_class_q(6, rng, ensure_signed=True)
        keep = random_keep(6, rng)
        reduced = kron_reduce_q(q, keep)
        assert reduced.n == len(keep)
        w = np.linalg.eigvalsh(reduced.matrix)
        assert w[0] > -1e-9 * max(1.0, np.abs(reduced.matrix).max())
        assert np.abs(reduced.matrix @ np.ones(reduced.n)).max() < 1e-8
