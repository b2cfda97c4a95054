import numpy as np
import pytest

from resgeo.errors import (
    MetricClassificationError,
    StructureError,
    ValidationError,
)
from resgeo.generators import (
    random_class_q,
    random_sc_laplacian,
    random_unsigned_laplacian,
)
from resgeo.graph import DirectedLaplacian, SignedLaplacianQ, laplacian_from_edges
from resgeo.resistance import (
    ResistanceMatrix,
    classify_metric,
    effective_resistance_directed,
    q_from_distance,
    resistance_matrix_q,
    resistance_matrix_sc,
    resistance_matrix_scwb,
)

TWO_NODE = DirectedLaplacian(np.array([[2.0, -2.0], [-1.0, 1.0]]))

K3 = SignedLaplacianQ(np.array([
    [2.0, -1.0, -1.0],
    [-1.0, 2.0, -1.0],
    [-1.0, -1.0, 2.0],
]))

P3 = SignedLaplacianQ(np.array([
    [1.0, -1.0, 0.0],
    [-1.0, 2.0, -1.0],
    [0.0, -1.0, 1.0],
]))

UNIT_SQUARE = np.array([
    [0.0, 1.0, 2.0, 1.0],
    [1.0, 0.0, 1.0, 2.0],
    [2.0, 1.0, 0.0, 1.0],
    [1.0, 2.0, 1.0, 0.0],
])


def test_directed_pairwise_values():
    assert abs(effective_resistance_directed(TWO_NODE, 0, 1) - 0.5) < 1e-12
    assert abs(effective_resistance_directed(TWO_NODE, 1, 0) - 1.0) < 1e-12


def test_directed_pairwise_on_cycle():
    cycle = laplacian_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    for a in range(3):
        for b in range(3):
            if a != b:
                assert abs(effective_resistance_directed(cycle, a, b) - 1.0) < 1e-12


def test_directed_pairwise_argument_checks():
    with pytest.raises(ValidationError):
        effective_resistance_directed(TWO_NODE, 0, 0)
    with pytest.raises(ValidationError):
        effective_resistance_directed(TWO_NODE, 0, 5)


def test_sc_matrix_two_node():
    rm = resistance_matrix_sc(TWO_NODE)
    assert rm.kind == "directed_sc"
    assert np.abs(rm.omega - np.array([[0.0, 0.5], [1.0, 0.0]])).max() < 1e-12


def test_sc_matrix_matches_pairwise_definition():
    rng = np.random.default_rng(8)
    for _ in range(5):
        lap = random_sc_laplacian(6, rng)
        rm = resistance_matrix_sc(lap)
        for a in range(6):
            for b in range(6):
                if a != b:
                    r = effective_resistance_directed(lap, a, b)
                    assert abs(rm.omega[a, b] - r) < 1e-9


def test_scwb_requires_balance():
    with pytest.raises(StructureError):
        resistance_matrix_scwb(TWO_NODE)


def test_k3_resistances():
    rm = resistance_matrix_q(K3)
    expected = (2.0 / 3.0) * (np.ones((3, 3)) - np.eye(3))
    assert np.abs(rm.omega - expected).max() < 1e-12


def test_p3_resistances():
    rm = resistance_matrix_q(P3)
    expected = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    assert np.abs(rm.omega - expected).max() < 1e-12


def test_resistance_matrix_validations():
    with pytest.raises(ValidationError):
        ResistanceMatrix(np.zeros((2, 2)), kind="mystery")
    with pytest.raises(ValidationError):
        ResistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]), kind="class_q")
    with pytest.raises(ValidationError):
        # symmetric kinds must actually be symmetric
        ResistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]), kind="scwb")
    rm = ResistanceMatrix(np.array([[1e-12, 1.0], [1.0, 0.0]]), kind="class_q")
    assert rm.omega[0, 0] == 0.0
    with pytest.raises(ValueError):
        rm.omega[0, 1] = 5.0


@pytest.mark.parametrize("kind", ["scwb", "class_q"])
def test_symmetric_kinds_are_stored_exactly_symmetric(kind):
    # Within the symmetry tolerance the input is accepted and stored as
    # (m + m^T) / 2; an exactly symmetric input keeps its bits.
    m = np.array([[0.0, 1.0, 2.0], [1.0 + 2e-16, 0.0, 1.0], [2.0, 1.0, 0.0]])
    stored = ResistanceMatrix(m, kind).omega
    assert np.array_equal(stored, stored.T)
    assert np.array_equal(stored, (m + m.T) / 2.0)
    assert np.array_equal(ResistanceMatrix(stored, kind).omega, stored)
    directed = ResistanceMatrix(m, "directed_sc").omega
    assert np.array_equal(directed, m)


def test_classify_unsigned_is_resistance_metric():
    rng = np.random.default_rng(21)
    for _ in range(5):
        q = random_unsigned_laplacian(6, rng)
        label = classify_metric(resistance_matrix_q(q).omega).label
        assert label == "resistance_metric"


def test_classify_signed_is_strict_negative_type():
    rng = np.random.default_rng(22)
    for _ in range(5):
        q = random_class_q(6, rng, ensure_signed=True)
        label = classify_metric(resistance_matrix_q(q).omega).label
        assert label == "strict_negative_type"


def _assert_witness_in_one_perp(w):
    assert abs(w.sum()) < 1e-14
    assert abs(np.linalg.norm(w) - 1.0) < 1e-14


def test_classify_unit_square_negative_type_only():
    result = classify_metric(UNIT_SQUARE)
    assert result.label == "negative_type"
    w = result.witness
    # the witness spans the extra kernel direction of the centered Gram:
    # G w = -1/2 J D w = 0, so D w is constant
    _assert_witness_in_one_perp(w)
    assert np.ptp(UNIT_SQUARE @ w) < 1e-14


@pytest.mark.parametrize("seed", range(3))
def test_negative_type_witness_of_euclidean_points(seed):
    # Squared distances of 12 points in R^3: the Gram matrix has rank 3,
    # so its kernel exceeds span(1) by 8 directions.
    x = np.random.default_rng(seed).normal(size=(12, 3))
    d = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    result = classify_metric(d)
    assert result.label == "negative_type"
    _assert_witness_in_one_perp(result.witness)
    assert np.ptp(d @ result.witness) < 1e-12 * np.abs(d).max()


def test_classify_not_negative_type_with_witness():
    d = np.array([[0.0, 9.0, 1.0], [9.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    result = classify_metric(d)
    assert result.label == "not_negative_type"
    f = result.witness
    _assert_witness_in_one_perp(f)
    assert f @ d @ f > 0.0


def test_classify_rejects_malformed_distance():
    with pytest.raises(ValidationError):
        classify_metric(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValidationError):
        classify_metric(np.array([[1.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("call", [classify_metric, q_from_distance])
def test_distance_matrix_needs_two_points(call, n):
    # No signed Laplacian has fewer than two nodes, so neither a label nor
    # a recovered Q exists.
    with pytest.raises(ValidationError, match="at least two points"):
        call(np.zeros((n, n)))


def test_q_from_distance_round_trip():
    rng = np.random.default_rng(23)
    q = random_class_q(5, rng, ensure_signed=True)
    omega = resistance_matrix_q(q).omega
    recovered = q_from_distance(omega)
    scale = max(1.0, np.abs(q.matrix).max())
    assert np.abs(recovered.matrix - q.matrix).max() < 1e-8 * scale


@pytest.mark.parametrize("seed", range(5))
def test_q_from_distance_round_trip_at_n300(seed):
    # The Gram pseudoinverse is formed on 1-perp, so its rows sum to zero
    # at roundoff in its entries.  From the full n x n eigh they summed to
    # about eps cond, and validation refused 4 or 5 of these 5 draws
    # (depending on the BLAS thread count).
    q = random_class_q(300, np.random.default_rng(seed))
    recovered = q_from_distance(resistance_matrix_q(q).omega)
    scale = max(1.0, np.abs(q.matrix).max())
    assert np.abs(recovered.matrix - q.matrix).max() < 1e-8 * scale


def test_q_from_distance_rejects_weaker_types():
    with pytest.raises(MetricClassificationError) as exc:
        q_from_distance(UNIT_SQUARE)
    assert exc.value.label == "negative_type"
    assert exc.value.witness is not None
