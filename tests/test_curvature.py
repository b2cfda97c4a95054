import numpy as np
import pytest

from resgeo.curvature import (
    check_commutativity,
    check_noncommutativity,
    curvature_radius_q,
    curvature_radius_sc,
    curvature_radius_scwb,
    reduce_curvature_radius,
    sigma2_subset,
    subset_curvature_radius,
    undirect,
    verify_fiedler_bapat,
    wb_transform,
)
from resgeo.errors import StructureError, ValidationError
from resgeo.generators import random_class_q, random_scwb_laplacian
from resgeo.graph import DirectedLaplacian, SignedLaplacianQ, weight_balance
from resgeo.resistance import (
    resistance_matrix_q,
    resistance_matrix_sc,
    resistance_matrix_scwb,
)

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
    assert sigma2_subset(SHOWCASE, []) == 0.0
    assert sigma2_subset(SHOWCASE, [2]) == 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            expected = omega[i, j] / 4.0
            assert abs(sigma2_subset(SHOWCASE, [i, j]) - expected) < 1e-10
    assert abs(sigma2_subset(SHOWCASE, range(4)) - 0.375) < 1e-12


def test_sigma2_subset_rejects_bad_indices():
    # Fractional indices are not truncated to nodes, as subset curvature
    # rejects them too; out-of-range singletons fail like larger sets.
    for subset in ([0.5, 2.7], [1.5], [4], [0, 4]):
        with pytest.raises(ValidationError):
            sigma2_subset(SHOWCASE, subset)
    assert sigma2_subset(SHOWCASE, [1.0, 1]) == 0.0


def test_sigma2_subset_monotone_on_chain():
    rng = np.random.default_rng(17)
    lap = random_scwb_laplacian(8, rng)
    order = rng.permutation(8)
    values = [sigma2_subset(lap, sorted(order[:k])) for k in range(1, 9)]
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


def unbalanced_digraph(n, rng, extra_edges):
    """Hamiltonian cycle plus random extra edges, weights on [0.5, 2]."""
    adjacency = np.zeros((n, n))
    order = rng.permutation(n)
    adjacency[order, np.roll(order, -1)] = rng.uniform(0.5, 2.0, size=n)
    src = rng.integers(0, n, size=extra_edges)
    dst = rng.integers(0, n, size=extra_edges)
    w = rng.uniform(0.5, 2.0, size=extra_edges)
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


def test_noncommutativity_witness():
    witness = check_noncommutativity(SHOWCASE, [0, 1, 3])
    assert witness.difference > 0.1
    assert np.abs(witness.lhs - witness.rhs).max() == witness.difference


def test_curvature_radius_q_subset():
    cr = curvature_radius_q(P3, subset=[0, 2])
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
        assert np.array_equal(curvature_radius_q(q, subset=range(q.n)).p,
                              closed.p)
        assert np.abs(closed.p - solved.p).max() <= 1e-10 * np.abs(solved.p).max()
        assert abs(closed.sigma2 - solved.sigma2) <= 1e-10 * solved.sigma2
