from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resgeo import graph
from resgeo.errors import NumericError, StructureError, ValidationError
from resgeo.generators import random_sc_laplacian, random_scwb_laplacian
from resgeo.graph import (
    DirectedLaplacian,
    SignedLaplacianQ,
    _classify_q,
    is_reachable_subset,
    laplacian_from_edges,
    sym_pinv,
    weight_balance,
)
from resgeo.kron import kron_reduce

SHOWCASE = np.array([
    [3.0, -1.0, -2.0, 0.0],
    [0.0, 1.0, 0.0, -1.0],
    [0.0, 0.0, 2.0, -2.0],
    [-3.0, 0.0, 0.0, 3.0],
])

TWO_NODE = np.array([[2.0, -2.0], [-1.0, 1.0]])

# edges 1->2, 1->3, 2->3: acyclic, so never strongly connected
DAG = laplacian_from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def test_showcase_is_scwb():
    lap = DirectedLaplacian(SHOWCASE)
    assert lap.strongly_connected
    assert lap.weight_balanced


def test_two_node_sc_not_wb():
    lap = DirectedLaplacian(TWO_NODE)
    assert lap.strongly_connected
    assert not lap.weight_balanced


def test_dag_not_sc():
    assert not DAG.strongly_connected


def test_diagonal_recomputed():
    m = SHOWCASE.copy()
    m[0, 0] = 99.0  # row sum off by 96, but within no tolerance
    with pytest.raises(ValidationError):
        DirectedLaplacian(m)
    m[0, 0] = 3.0 + 5e-13  # tiny row-sum slack is absorbed into the diagonal
    lap = DirectedLaplacian(m)
    assert lap.matrix[0, 0] == 3.0


def test_positive_offdiagonal_rejected_with_position():
    m = SHOWCASE.copy()
    m[1, 2] = 0.5
    with pytest.raises(ValidationError, match=r"\(1, 2\)"):
        DirectedLaplacian(m)


def test_matrix_is_write_locked():
    lap = DirectedLaplacian(SHOWCASE)
    with pytest.raises(ValueError):
        lap.matrix[0, 0] = 0.0


def _edges_by_loop(n, edges):
    """The edge builder one edge at a time: the reference that the array
    checks and the accumulation of ``laplacian_from_edges`` must match."""
    adjacency = np.zeros((n, n))
    for k, (src, dst, weight) in enumerate(edges):
        src, dst, weight = int(src), int(dst), float(weight)
        if not (0 <= src < n and 0 <= dst < n):
            raise ValidationError(
                f"edge {k}: endpoints ({src}, {dst}) outside [0, {n - 1}]"
            )
        if src == dst:
            raise ValidationError(f"edge {k}: self-loop at node {src}")
        if not weight > 0.0:
            raise ValidationError(
                f"edge {k}: weight {weight} must be positive"
            )
        adjacency[src, dst] += weight
    lap = -adjacency
    np.fill_diagonal(lap, adjacency.sum(axis=1))
    return lap


def test_from_edges_accumulates_duplicates():
    lap = laplacian_from_edges(2, [(0, 1, 1.0), (0, 1, 2.0), (1, 0, 1.0)])
    assert lap.matrix[0, 1] == -3.0
    assert lap.matrix[0, 0] == 3.0


def test_duplicate_edges_sum_like_the_loop_bit_for_bit():
    # 400 edges over 4 nodes, weights over eight decades: every pair is
    # hit many times, so the order of the sums shows in the last bits.
    rng = np.random.default_rng(5)
    ends = rng.integers(0, 4, size=(400, 2))
    ends = ends[ends[:, 0] != ends[:, 1]]
    edges = [(int(s), int(d), 10.0 ** rng.uniform(-4, 4)) for s, d in ends]
    got = laplacian_from_edges(4, edges).matrix
    assert got.tobytes() == _edges_by_loop(4, edges).tobytes()


MALFORMED_EDGES = {
    "dst_out_of_range": (2, [(0, 5, 1.0)]),
    "src_negative": (3, [(0, 1, 1.0), (-1, 2, 1.0)]),
    "self_loop_first": (2, [(0, 0, 1.0)]),
    "self_loop": (2, [(0, 1, 1.0), (1, 1, 1.0)]),
    "zero_weight": (2, [(0, 1, 0.0)]),
    "negative_zero_weight": (2, [(1, 0, -0.0)]),
    "negative_weight": (2, [(0, 1, 1.0), (0, 1, -2.0)]),
    "nan_weight": (3, [(0, 1, 1.0), (1, 2, float("nan"))]),
    # several bad edges: the first one is reported, by its first failed
    # check in the order range, self-loop, weight
    "range_before_loop": (3, [(0, 1, 1.0), (4, 4, 1.0), (0, 0, 1.0)]),
    "range_before_weight": (3, [(1, 7, -1.0), (0, 0, 1.0)]),
    "loop_before_weight": (3, [(2, 2, 0.0), (0, 9, 1.0)]),
    "weight_before_later_range": (3, [(0, 1, -3.5), (0, 9, 1.0)]),
}


def test_from_edges_rejects_bad_entries():
    for name, (n, edges) in MALFORMED_EDGES.items():
        with pytest.raises(ValidationError) as expected:
            _edges_by_loop(n, edges)
        for given in (edges, np.array(edges)):
            with pytest.raises(ValidationError) as got:
                laplacian_from_edges(n, given)
            assert str(got.value) == str(expected.value), name


@pytest.mark.parametrize("edges", [
    [(0, 1, 1.0), (0.5, 1, 1.0)],
    [(0, 1.25, 1.0)],
    [(float("nan"), 1, 1.0)],
    [(0, float("inf"), 1.0)],
])
def test_from_edges_rejects_non_integer_endpoints(edges):
    # int() used to truncate 0.5 to node 0 and build a graph
    with pytest.raises(ValidationError, match="must be integers"):
        laplacian_from_edges(2, edges)


def test_from_edges_takes_integral_floats_and_no_edges():
    assert np.array_equal(laplacian_from_edges(2, [(0.0, 1.0, 2.0)]).matrix,
                          [[2.0, -2.0], [0.0, 0.0]])
    assert np.array_equal(laplacian_from_edges(2, []).matrix, np.zeros((2, 2)))
    with pytest.raises(ValidationError, match="triples"):
        laplacian_from_edges(2, [(0, 1)])


def test_weight_balance_two_node():
    lap = DirectedLaplacian(TWO_NODE)
    wb = weight_balance(lap)
    assert np.abs(wb.m - np.array([2.0 / 3.0, 4.0 / 3.0])).max() < 1e-12
    assert wb.balanced.weight_balanced
    assert np.abs(wb.balanced.matrix - wb.m[:, None] * TWO_NODE).max() < 1e-12


def test_weight_balance_of_balanced_is_identity():
    lap = DirectedLaplacian(SHOWCASE)
    wb = weight_balance(lap)
    assert np.abs(wb.m - 1.0).max() < 1e-10


def test_weight_balance_requires_sc():
    with pytest.raises(StructureError):
        weight_balance(DAG)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_weight_balance_random_sc(seed, n):
    lap = random_sc_laplacian(n, np.random.default_rng(seed))
    wb = weight_balance(lap)
    assert wb.m.min() > 0.0
    assert np.abs(wb.balanced.matrix.sum(axis=0)).max() < 1e-9
    assert wb.balanced.strongly_connected


def test_sym_pinv_requires_sc():
    with pytest.raises(StructureError):
        sym_pinv(DAG)


def test_sym_pinv_is_symmetric_psd_with_ones_kernel():
    lap = DirectedLaplacian(SHOWCASE)
    k = sym_pinv(lap)
    assert np.abs(k - k.T).max() < 1e-12
    w = np.linalg.eigvalsh(k)
    assert w.min() > -1e-10
    assert np.abs(k @ np.ones(4)).max() < 1e-10


def test_reachability():
    # eliminating node 1 is fine ({2, 3} kept: 1 reaches 3); eliminating the
    # sink node 3 is not, nothing leaves it
    assert is_reachable_subset(DAG, [1, 2])
    assert not is_reachable_subset(DAG, [0, 1])


def test_class_q_accepts_signed_instance():
    q = np.array([
        [1.0, -2.0, 1.0],
        [-2.0, 5.0, -3.0],
        [1.0, -3.0, 2.0],
    ])
    failure, _, checked = _classify_q(q)
    assert failure is None, failure
    assert checked[0][0, 2] == 1.0  # genuinely signed
    lap = SignedLaplacianQ(q)
    assert lap.n == 3


def test_class_q_rejections():
    asym = np.array([[1.0, -1.0], [0.0, 0.0]])
    failure, details, checked = _classify_q(asym)
    assert failure.startswith("asymmetric") and checked is None
    assert details == {"asymmetry": 1.0}

    # indefinite: signed triangle with a dominant positive off-diagonal
    indef = np.array([
        [-1.0, 2.0, -1.0],
        [2.0, -1.0, -1.0],
        [-1.0, -1.0, 2.0],
    ])
    failure, details, checked = _classify_q(indef)
    assert "semidefinite" in failure and checked is None
    assert details["eigenvalue_min"] < 0.0

    # two components: kernel dimension 2
    disconnected = np.array([
        [1.0, -1.0, 0.0, 0.0],
        [-1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, -2.0],
        [0.0, 0.0, -2.0, 2.0],
    ])
    failure, details, checked = _classify_q(disconnected)
    assert failure.startswith("kernel has dimension 2") and checked is None
    assert details["kernel_dimension"] == 2

    with pytest.raises(ValidationError):
        SignedLaplacianQ(disconnected)


def test_class_q_needs_positive_diagonal():
    # A one-node matrix fails on size before any class check.  From two
    # nodes on, a PSD matrix with kernel span(1) has Q_ii = e_i^T Q e_i > 0,
    # so the diagonal check passes, and its detail reports the smallest.
    failure, details, checked = _classify_q(np.zeros((1, 1)))
    assert "at least two points" in failure and checked is None
    assert details == {}
    failure, details, _ = _classify_q(np.array([[2.0, -2.0], [-2.0, 2.0]]))
    assert failure is None and details["diagonal_min"] == 2.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_random_scwb_contract(seed, n):
    lap = random_scwb_laplacian(n, np.random.default_rng(seed))
    assert lap.strongly_connected
    assert lap.weight_balanced
    off = lap.matrix.copy()
    np.fill_diagonal(off, 0.0)
    assert off.max() <= 0.0


@pytest.fixture
def builds(monkeypatch):
    """Calls of ``graph._laplacian``, of ``graph._reached`` and of the public
    ``DirectedLaplacian`` constructor."""
    counts = Counter()

    def counter(name, call):
        def counted(*args):
            counts[name] += 1
            return call(*args)
        return counted
    monkeypatch.setattr(graph, "_laplacian", counter("laplacian", graph._laplacian))
    monkeypatch.setattr(graph, "_reached", counter("closure", graph._reached))
    monkeypatch.setattr(DirectedLaplacian, "__init__",
                        counter("constructor", DirectedLaplacian.__init__))
    return counts


def _sc(seed):
    return random_sc_laplacian(12, np.random.default_rng(seed))


@pytest.mark.parametrize("build, graphs", [
    (lambda: _sc(1), 1),
    (lambda: random_scwb_laplacian(12, np.random.default_rng(2)), 1),
    (lambda: weight_balance(_sc(3)).balanced, 2),
    (lambda: kron_reduce(_sc(4), [0, 3, 5, 8]).reduced, 2),
], ids=["random_sc", "random_scwb", "weight_balance", "kron_reduce"])
def test_library_builders_form_each_laplacian_once(builds, build, graphs):
    # One Laplacian formed per graph, no public constructor, and no closure
    # of graph._reached: each builder hands over the strong connectivity it
    # guarantees.  (Kron's precondition closure is the kron module's.)
    built = build()
    assert builds == Counter(laplacian=graphs)
    checked = DirectedLaplacian(built.matrix)
    assert np.array_equal(checked.matrix, built.matrix)
    assert (built.strongly_connected, built.weight_balanced) == (
        checked.strongly_connected, checked.weight_balanced)
    assert built.strongly_connected


def test_kron_reduce_computes_the_flag_of_a_disconnected_input(builds):
    # Node 0 is a sink: nothing leaves it, so the graph is not strongly
    # connected, and neither is its reduction onto {0, 1, 2}.
    lap = DirectedLaplacian(np.array([
        [0.0, 0.0, 0.0, 0.0],
        [-1.0, 2.0, -1.0, 0.0],
        [0.0, -1.0, 2.0, -1.0],
        [0.0, 0.0, -1.0, 1.0],
    ]))
    builds.clear()
    reduced = kron_reduce(lap, [0, 1, 2]).reduced
    assert not reduced.strongly_connected
    assert builds == Counter(laplacian=1, closure=1)
