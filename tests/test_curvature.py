import numpy as np
import pytest

from resgeo.curvature import (
    check_commutativity,
    check_noncommutativity,
    curvature_radius_q,
    curvature_radius_sc,
    curvature_radius_scwb,
    reduce_curvature_radius,
    subset_curvature_radius,
    undirect,
    verify_fiedler_bapat,
    wb_transform,
)
from resgeo import graph
from resgeo.errors import NumericError, StructureError, ValidationError
from resgeo.generators import random_class_q, random_scwb_laplacian
from resgeo.graph import (
    DirectedLaplacian,
    SignedLaplacianQ,
    _shared_kernel,
    weight_balance,
)
from resgeo.linalg import CONSTRUCTION_TOL
from resgeo.resistance import (
    resistance_matrix_q,
    resistance_matrix_sc,
    resistance_matrix_scwb,
)
from resgeo.verify import _gth_balancing

SHOWCASE = DirectedLaplacian(np.array([
    [3.0, -1.0, -2.0, 0.0],
    [0.0, 1.0, 0.0, -1.0],
    [0.0, 0.0, 2.0, -2.0],
    [-3.0, 0.0, 0.0, 3.0],
]))

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


def test_undirect_showcase():
    q = undirect(SHOWCASE)
    expected = np.array([
        [36.0, -6.0, -12.0, -18.0],
        [-6.0, 10.0, 2.0, -6.0],
        [-12.0, 2.0, 22.0, -12.0],
        [-18.0, -6.0, -12.0, 36.0],
    ]) / 9.0
    assert np.abs(q.matrix - expected).max() < 1e-9
    # the map can create positive couplings where the digraph had none
    assert q.matrix[1, 2] > 0.0


def test_undirect_requires_scwb():
    with pytest.raises(StructureError):
        undirect(TWO_NODE)


def test_showcase_curvature_and_radius():
    cr = curvature_radius_scwb(SHOWCASE)
    assert np.abs(cr.p - np.array([0.0, 0.5, 0.5, 0.0])).max() < 1e-12
    assert abs(cr.sigma2 - 0.375) < 1e-12
    assert abs(cr.p.sum() - 1.0) < 1e-12
    omega = resistance_matrix_scwb(SHOWCASE).omega
    assert np.abs(omega @ cr.p - 2.0 * cr.sigma2).max() < 1e-12
    from resgeo.graph import sym_pinv
    assert np.abs(cr.zeta - np.diag(sym_pinv(SHOWCASE))).max() < 1e-14


def test_k3_curvature():
    cr = curvature_radius_q(K3)
    assert np.abs(cr.p - 1.0 / 3.0).max() < 1e-12
    assert abs(cr.sigma2 - 2.0 / 9.0) < 1e-12


def test_fiedler_bapat_identity_holds():
    for source in (SHOWCASE, K3, P3):
        fb = verify_fiedler_bapat(source)
        assert fb.passed, fb.residual
        assert fb.lhs.shape == (source.n + 1, source.n + 1)


def test_fiedler_bapat_random():
    rng = np.random.default_rng(31)
    for _ in range(10):
        lap = random_scwb_laplacian(7, rng)
        assert verify_fiedler_bapat(lap).passed
        q = random_class_q(7, rng)
        assert verify_fiedler_bapat(q).passed


def test_subset_curvature_on_p3_endpoints():
    omega = resistance_matrix_q(P3)
    cr = subset_curvature_radius(omega, [0, 2])
    assert np.abs(cr.p - 0.5).max() < 1e-12
    assert abs(cr.sigma2 - 0.5) < 1e-12


def test_sigma2_subset_values():
    omega = resistance_matrix_scwb(SHOWCASE).omega
    for i in range(4):
        for j in range(i + 1, 4):
            expected = omega[i, j] / 4.0
            sigma2 = subset_curvature_radius(omega, [i, j]).sigma2
            assert abs(sigma2 - expected) < 1e-10
    assert abs(subset_curvature_radius(omega, range(4)).sigma2 - 0.375) < 1e-12


def test_sigma2_subset_rejects_bad_indices():
    # Fractional indices are not truncated to nodes; out-of-range and
    # single-node subsets fail like other bad sets.
    omega = resistance_matrix_scwb(SHOWCASE).omega
    for subset in ([0.5, 2.7], [1.5], [4], [0, 4], [2], [1.0, 1], []):
        with pytest.raises(ValidationError):
            subset_curvature_radius(omega, subset)


def test_sigma2_subset_monotone_on_chain():
    rng = np.random.default_rng(17)
    lap = random_scwb_laplacian(8, rng)
    order = rng.permutation(8)
    omega = resistance_matrix_scwb(lap)
    values = [subset_curvature_radius(omega, sorted(order[:k])).sigma2
              for k in range(2, 9)]
    for small, large in zip(values, values[1:]):
        assert small <= large + 1e-10


def test_reduce_curvature_radius_matches_direct():
    keep = [0, 1, 3]
    reduced = reduce_curvature_radius(SHOWCASE, keep)
    from resgeo.kron import kron_reduce
    direct = curvature_radius_scwb(kron_reduce(SHOWCASE, keep).reduced)
    assert np.abs(reduced.p - direct.p).max() < 1e-10
    assert abs(reduced.sigma2 - direct.sigma2) < 1e-10


def test_sc_curvature_two_node():
    cr = curvature_radius_sc(TWO_NODE)
    assert np.abs(cr.p - np.array([1.0 / 3.0, 2.0 / 3.0])).max() < 1e-12
    assert abs(cr.sigma2 - 1.0 / 6.0) < 1e-12


def test_wb_transform_forward_and_back():
    cr = curvature_radius_sc(TWO_NODE)
    wb = weight_balance(TWO_NODE)
    omega = resistance_matrix_sc(TWO_NODE)
    forward = wb_transform(cr, wb.m, omega)
    assert np.abs(forward.p - 0.5).max() < 1e-12
    assert abs(forward.sigma2 - 3.0 / 16.0) < 1e-12
    direct = curvature_radius_scwb(wb.balanced)
    assert np.abs(forward.p - direct.p).max() < 1e-12
    back = wb_transform(forward, 1.0 / wb.m, omega)
    assert np.abs(back.p - cr.p).max() < 1e-12
    assert abs(back.sigma2 - cr.sigma2) < 1e-12


def test_wb_transform_validations():
    cr = curvature_radius_sc(TWO_NODE)
    omega = resistance_matrix_sc(TWO_NODE)
    with pytest.raises(ValidationError):
        wb_transform(cr, np.array([1.0, -1.0]), omega)
    with pytest.raises(ValidationError):
        wb_transform(cr, np.ones(3), omega)


def test_commutativity_on_scwb():
    check = check_commutativity(SHOWCASE, [0, 1, 3])
    assert check.passed, check.residual


def unbalanced_digraph(n, rng, extra_edges, weights=None):
    """Hamiltonian cycle plus random extra edges.  Weights are uniform on
    [0.5, 2] unless ``weights(rng, size)`` draws them."""
    if weights is None:
        def weights(rng, size):
            return rng.uniform(0.5, 2.0, size=size)
    adjacency = np.zeros((n, n))
    order = rng.permutation(n)
    adjacency[order, np.roll(order, -1)] = weights(rng, n)
    src = rng.integers(0, n, size=extra_edges)
    dst = rng.integers(0, n, size=extra_edges)
    w = weights(rng, extra_edges)
    loop = src == dst
    np.add.at(adjacency, (src[~loop], dst[~loop]), w[~loop])
    lap = -adjacency
    np.fill_diagonal(lap, adjacency.sum(axis=1))
    return DirectedLaplacian(lap)


def test_undirect_symmetrizes_pseudoinverse_roundoff():
    # On this balanced n=300 digraph the SVD pseudoinverse of L_s^+ is
    # asymmetric by about 4e-11, above the 1e-12 symmetry check of the
    # signed class; undirect must hand over an exactly symmetric matrix.
    n = 300
    rng = np.random.default_rng([602, 1])
    balanced = weight_balance(unbalanced_digraph(n, rng, extra_edges=n)).balanced
    q = undirect(balanced)
    assert np.array_equal(q.matrix, q.matrix.T)
    check = check_commutativity(balanced, np.sort(rng.choice(n, n // 2, replace=False)))
    assert check.passed, check.residual


def _uniform_weights(rng, size):
    return rng.uniform(1e-2, 1e2, size=size)


def _log_uniform_weights(rng, size):
    return 10.0 ** rng.uniform(-2.0, 2.0, size=size)


@pytest.mark.parametrize("weights", [_uniform_weights, _log_uniform_weights],
                         ids=["uniform", "log_uniform"])
@pytest.mark.parametrize("n", [2, 3, 12, 60])
def test_sc_curvature_matches_the_balanced_closed_form(n, weights):
    # The gated solve p = Omega^{-1} 1 / s, sigma^2 = 1 / (2 s) against
    # the balanced graph's closed form moved through the corollary
    # Omega_b^{-1} = -K/2 + p_b p_b^T / (2 sigma_b^2) and Omega = diag(m)
    # Omega_b: with u = 1/m and s = p_b . u, p = p_b - sigma_b^2 K u / s
    # and sigma^2 = sigma_b^2 / s.  Log-uniform weights spread m over
    # decades, and kappa_2(Omega) reaches 4e10 on these draws; there the
    # solve is only good to about eps * kappa_2(Omega), which bounds the
    # agreement instead of 1e-10.
    for seed in range(5):
        rng = np.random.default_rng([n, seed])
        lap = unbalanced_digraph(n, rng, extra_edges=n, weights=weights)
        assert lap.strongly_connected and not lap.weight_balanced
        wb = weight_balance(lap)
        pair_b = curvature_radius_scwb(wb.balanced)
        u = 1.0 / wb.m
        s = pair_b.p @ u
        ku = _shared_kernel(wb.balanced) @ (u - u.mean())
        p = pair_b.p - pair_b.sigma2 / s * (ku - ku.mean())
        sigma2 = pair_b.sigma2 / s
        tol = max(1e-10, np.finfo(float).eps
                  * np.linalg.cond(resistance_matrix_sc(lap).omega))
        solved = curvature_radius_sc(lap)
        assert np.abs(solved.p - p).max() <= tol * np.abs(p).max()
        assert abs(solved.sigma2 - sigma2) <= tol * sigma2


def test_sc_curvature_of_a_balanced_graph_matches_the_scwb_pair():
    lap = random_scwb_laplacian(9, np.random.default_rng(4))
    sc, scwb = curvature_radius_sc(lap), curvature_radius_scwb(lap)
    assert np.abs(sc.p - scwb.p).max() <= 1e-10 * np.abs(scwb.p).max()
    assert abs(sc.sigma2 - scwb.sigma2) <= 1e-10 * scwb.sigma2


def test_sc_curvature_refuses_a_nonpositive_ones_form():
    # A strongly connected digraph whose 1^T Omega^{-1} 1 is negative
    # (about -4.19, with kappa_2(Omega) about 3e4) is not a resistance
    # geometry, and the gated solve refuses it.
    adjacency = np.array([[0.0, 0.0, 0.0366, 0.0141],
                          [0.138, 0.0, 4.43, 0.0],
                          [0.0431, 0.0, 0.0, 92.8],
                          [221.0, 812.0, 0.0, 0.0]])
    lap = DirectedLaplacian(np.diag(adjacency.sum(axis=1)) - adjacency)
    omega = resistance_matrix_sc(lap).omega
    assert np.ones(4) @ np.linalg.solve(omega, np.ones(4)) < 0.0
    with pytest.raises(NumericError):
        curvature_radius_sc(lap)


def test_spread_balancing_gives_the_closed_form_pair_and_the_sc_pair():
    # Balancing this digraph spreads m over 3.9e-10..25.  The closed form
    # on the balanced graph (sigma_b^2 about 1.2e7) agrees with the gated
    # solve on its Omega (kappa_2 5.3e8) to about eps * kappa_2.  Its
    # K = (L_s^+)^+ has rows summing to 2e-8, which undirect's signed-class
    # check refuses.  The gated solve on the directed Omega (kappa_2 1.6e11)
    # needs no K: a 60-digit reference gives sigma^2 and the largest entry
    # of p below.
    rng = np.random.default_rng([60, 1, 7])
    lap = unbalanced_digraph(60, rng, extra_edges=60,
                             weights=_log_uniform_weights)
    balanced = weight_balance(lap).balanced
    closed = curvature_radius_scwb(balanced)
    omega = resistance_matrix_sc(balanced).omega
    solved = curvature_radius_sc(balanced)
    tol = np.finfo(float).eps * np.linalg.cond(omega)
    assert np.abs(closed.p - solved.p).max() <= tol * np.abs(solved.p).max()
    assert abs(closed.sigma2 - solved.sigma2) <= tol * solved.sigma2
    with pytest.raises(NumericError):
        undirect(balanced)
    cr = curvature_radius_sc(lap)
    assert abs(cr.sigma2 / 0.0175392872332831 - 1.0) <= 1e-5
    assert abs(cr.p[0] / 1.8348606644550438 - 1.0) <= 1e-5


@pytest.mark.parametrize("n, seed", [(60, [60, 1, 7]), (60, [60, 3]),
                                     (100, [100, 2, 30])])
def test_balancing_matches_gth_on_spread_weights(n, seed):
    # Log-uniform weights spread m over 8 to 11 decades.  GTH elimination
    # subtracts nothing, so it is accurate entrywise and is the reference.
    lap = unbalanced_digraph(n, np.random.default_rng(seed), extra_edges=n,
                             weights=_log_uniform_weights)
    m = weight_balance(lap).m
    assert np.abs(m / _gth_balancing(lap) - 1.0).max() <= 1e-9


def spread_draw(n, d, s):
    """Draw ``s`` of the spread population: a Hamiltonian cycle plus ``n``
    random edges on ``n`` nodes, with weights ``10^U(-d, d)``.  The
    population is n in {12, 40, 100}, d in {2, 2.5, 3} and s = 0..39."""
    def weights(rng, size):
        return 10.0 ** rng.uniform(-d, d, size=size)
    return unbalanced_digraph(n, np.random.default_rng([n, s, int(10 * d)]), n,
                              weights=weights)


def relabeled(lap, s):
    """``lap`` with its nodes permuted by ``default_rng([s, 99])``, and the
    permutation: node ``k`` of the result is node ``perm[k]`` of ``lap``."""
    perm = np.random.default_rng([s, 99]).permutation(lap.n)
    return DirectedLaplacian(lap.matrix[np.ix_(perm, perm)]), perm


@pytest.mark.parametrize("n, d, s", [(12, 2.5, 39), (40, 2.5, 7), (100, 2, 32),
                                     (100, 2, 33), (100, 3, 2), (100, 3, 34)])
def test_balancing_of_spread_weights_is_flagged_balanced(n, d, s):
    # m spreads over 8 to 10 decades on these draws.  Grounded at node 0,
    # whose column is among the lightest, the balanced graph's column 0
    # collected the solve's residuals and failed its own weight_balanced
    # flag, so every closed-form route refused the returned graph.
    lap = spread_draw(n, d, s)
    wb = weight_balance(lap)
    assert wb.balanced.weight_balanced
    assert np.abs(wb.m / _gth_balancing(lap) - 1.0).max() <= 1e-9
    cr = curvature_radius_scwb(wb.balanced)
    assert cr.sigma2 > 0.0


@pytest.mark.parametrize("n, d, s", [(12, 2.5, 39), (12, 3, 33), (40, 2.5, 7),
                                     (40, 2.5, 10)])
def test_balancing_does_not_depend_on_node_labels(n, d, s):
    # Grounded at node 0, m of the relabeled graph differed from the
    # relabeled m by up to 1.7e-3 relative on these draws.
    lap = spread_draw(n, d, s)
    other, perm = relabeled(lap, s)
    m = weight_balance(lap).m
    assert np.abs(weight_balance(other).m / m[perm] - 1.0).max() <= 1e-10


def test_balancing_check_refuses_an_error_on_a_light_column(monkeypatch):
    # Column 0 of this draw's balanced graph has a diagonal entry 8e-9 times
    # the largest entry.  An error of 1e-6 relative in m_0 leaves every
    # column sum below CONSTRUCTION_TOL times the largest entry, which the
    # check accepted when it compared them with that, and the result
    # failed its weight_balanced flag; each column compared with its own
    # diagonal entry refuses it.
    lap = spread_draw(100, 2, 33)
    m = weight_balance(lap).m.copy()
    light = int(np.argmin(m * np.diag(lap.matrix)))
    m[light] *= 1.0 + 1e-6
    planted = m[:, None] * lap.matrix
    assert (np.abs(planted.sum(axis=0)).max()
            <= CONSTRUCTION_TOL * np.abs(planted).max())
    assert not DirectedLaplacian(planted).weight_balanced
    solve = graph._grounded

    def perturbed(lt, k):
        x = solve(lt, k)
        x[light] *= 1.0 + 1e-6
        return x

    monkeypatch.setattr(graph, "_grounded", perturbed)
    with pytest.raises(NumericError, match=f"column {light} "):
        weight_balance(DirectedLaplacian(lap.matrix))


@pytest.mark.large
def test_balancing_census_of_the_spread_population():
    # Every draw in both labelings: none refused, every balanced graph
    # flagged balanced, m within 1e-9 of GTH, and the labelings agree.
    counts = {"draws": 0, "refused": 0, "flagged_unbalanced": 0,
              "off_gth": 0, "label_dependent": 0}
    worst_gth = worst_label = 0.0
    for n in (12, 40, 100):
        for d in (2, 2.5, 3):
            for s in range(40):
                lap = spread_draw(n, d, s)
                other, perm = relabeled(lap, s)
                counts["draws"] += 1
                try:
                    wb, wb_other = weight_balance(lap), weight_balance(other)
                except NumericError:
                    counts["refused"] += 1
                    continue
                counts["flagged_unbalanced"] += not (
                    wb.balanced.weight_balanced
                    and wb_other.balanced.weight_balanced)
                gth = max(np.abs(wb.m / _gth_balancing(lap) - 1.0).max(),
                          np.abs(wb_other.m / _gth_balancing(other) - 1.0).max())
                label = np.abs(wb_other.m / wb.m[perm] - 1.0).max()
                counts["off_gth"] += int(gth > 1e-9)
                counts["label_dependent"] += int(label > 1e-10)
                worst_gth, worst_label = max(worst_gth, gth), max(worst_label, label)
    print(f"balancing census: {counts}, largest gap to GTH {worst_gth:.1e}, "
          f"largest relabeling gap {worst_label:.1e}")
    assert counts == {"draws": 360, "refused": 0, "flagged_unbalanced": 0,
                      "off_gth": 0, "label_dependent": 0}


@pytest.mark.parametrize("matrix", [
    [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 0.0]],
    [[1.0, -1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0],
     [0.0, 0.0, 1.0, -1.0], [0.0, 0.0, -1.0, 1.0]],
], ids=["path", "two_components"])
def test_sc_curvature_rejects_graphs_that_are_not_strongly_connected(matrix):
    lap = DirectedLaplacian(np.array(matrix))
    assert not lap.strongly_connected
    with pytest.raises(StructureError):
        curvature_radius_sc(lap)


def test_noncommutativity_witness():
    witness = check_noncommutativity(SHOWCASE, [0, 1, 3])
    assert witness.difference > 0.1
    assert np.abs(witness.lhs - witness.rhs).max() == witness.difference


def test_curvature_radius_q_subset():
    cr = subset_curvature_radius(resistance_matrix_q(P3), [0, 2])
    assert abs(cr.sigma2 - 0.5) < 1e-12
    full = curvature_radius_q(P3)
    assert full.zeta is not None
    assert abs(full.p.sum() - 1.0) < 1e-12
    # The whole graph takes the closed form; the Omega^{-1} 1 solve over
    # every node is the independent route it must agree with.
    draws = [random_class_q(n, np.random.default_rng([n, seed]))
             for n in (5, 12, 30) for seed in range(3)]
    for q in [P3, K3] + draws:
        closed = curvature_radius_q(q)
        solved = subset_curvature_radius(resistance_matrix_q(q), range(q.n))
        assert np.abs(closed.p - solved.p).max() <= 1e-10 * np.abs(solved.p).max()
        assert abs(closed.sigma2 - solved.sigma2) <= 1e-10 * solved.sigma2
