import numpy as np
import pytest

from resgeo.curvature import curvature_radius_sc
from resgeo.errors import (
    MetricClassificationError,
    NumericError,
    StructureError,
    ValidationError,
)
from resgeo.generators import (
    random_class_q,
    random_sc_laplacian,
    random_unsigned_laplacian,
)
from resgeo.graph import (
    DirectedLaplacian,
    SignedLaplacianQ,
    laplacian_from_edges,
    weight_balance,
)
from resgeo.resistance import (
    ResistanceMatrix,
    classify_metric,
    effective_resistance_directed,
    q_from_distance,
    resistance_matrix_q,
    resistance_matrix_sc,
    resistance_matrix_scwb,
)
from resgeo.verify import _gth_censor
from test_curvature import relabeled, spread_draw

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


def _gth_resistance(lap, a, b):
    """``R(a -> b)`` as the reciprocal of the weight ``a -> b`` after GTH
    censoring onto ``{a, b}``, which subtracts nothing."""
    return 1.0 / _gth_censor(lap, [a, b])[0, 1]


@pytest.mark.parametrize("draw, a, b", [
    ((40, 3, 21), 15, 18), ((100, 3, 14), 10, 28), ((100, 3, 17), 67, 99),
    ((100, 3, 38), 29, 89),
])
def test_sc_matrix_matches_gth_on_spread_weights(draw, a, b):
    # Each pair is its draw's worst entry for the former route, the SVD
    # L_s^+ of the balanced graph scaled row-wise by m, which was off by
    # 0.72 to 1.0 relative there (2.7e-7 for 0.61 on the first pair).
    lap = spread_draw(*draw)
    omega = resistance_matrix_sc(lap).omega
    assert abs(omega[a, b] / _gth_resistance(lap, a, b) - 1.0) <= 1e-9


def test_scwb_matrix_matches_gth_on_a_spread_balanced_image():
    # m spreads over decades on this draw; the SVD L_s^+ of its balanced
    # image gave Omega[7, 11] off by 2.0e-6 relative.
    balanced = weight_balance(spread_draw(12, 3, 33)).balanced
    omega = resistance_matrix_scwb(balanced).omega
    for a in range(12):
        for b in range(12):
            if a != b:
                gth = _gth_resistance(balanced, a, b)
                assert abs(omega[a, b] / gth - 1.0) <= 1e-9, (a, b)


def _census_pairs(n, d, s):
    """Every ordered pair at n = 12, else 40 pairs fixed by the draw."""
    if n == 12:
        return [(a, b) for a in range(n) for b in range(n) if a != b]
    rng = np.random.default_rng([n, s, int(10 * d), 7])
    a = rng.integers(0, n, size=40)
    return list(zip(a, (a + rng.integers(1, n, size=40)) % n))


@pytest.mark.large
def test_resistance_census_of_the_spread_population():
    # Every draw and its balanced image, in both labelings, against GTH on
    # the pairs of _census_pairs: right within 1e-9 relative on every
    # pair, refused by the gate, or wrong.
    counts = {kind: {"right": 0, "refused": 0, "wrong": 0}
              for kind in ("directed", "balanced")}
    worst = dict.fromkeys(counts, 0.0)
    curvature_refused = 0
    for n in (12, 40, 100):
        for d in (2, 2.5, 3):
            for s in range(40):
                lap = spread_draw(n, d, s)
                balanced = weight_balance(lap).balanced
                graphs = {"directed": (lap, relabeled(lap, s)[0]),
                          "balanced": (balanced, relabeled(balanced, s)[0])}
                pairs = _census_pairs(n, d, s)
                for kind, labelings in graphs.items():
                    for g in labelings:
                        try:
                            omega = resistance_matrix_sc(g).omega
                        except NumericError:
                            counts[kind]["refused"] += 1
                            continue
                        err = max(abs(omega[a, b] / _gth_resistance(g, a, b)
                                      - 1.0) for a, b in pairs)
                        counts[kind]["right" if err <= 1e-9 else "wrong"] += 1
                        worst[kind] = max(worst[kind], err)
                try:
                    curvature_radius_sc(lap)
                except NumericError:
                    curvature_refused += 1
    print(f"resistance census: {counts}, largest errors "
          f"{worst['directed']:.1e} (directed), {worst['balanced']:.1e} "
          f"(balanced), curvature_radius_sc refused {curvature_refused} "
          "of 360 draws")
    assert counts["directed"]["wrong"] == counts["balanced"]["wrong"] == 0


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
