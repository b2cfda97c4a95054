import numpy as np
import pytest

from resgeo import maxvar
from resgeo.errors import CapacityError, ConvergenceError, ValidationError
from resgeo.generators import random_class_q, random_unsigned_laplacian
from resgeo.graph import SignedLaplacianQ
from resgeo.maxvar import (
    characterize,
    find_negative_curvature_support_instance,
    solve_maxvar,
    solve_maxvar_exact,
    variance,
    verify_kkt,
)
from resgeo.resistance import resistance_matrix_q

SINGLE_EDGE = np.array([[0.0, 1.0], [1.0, 0.0]])

K3_OMEGA = (2.0 / 3.0) * (np.ones((3, 3)) - np.eye(3))

P3_OMEGA = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])

#: The same path with node 0 in the middle: the default start is the node
#: the optimum drops.
P3_MIDDLE_0 = P3_OMEGA[np.ix_([1, 0, 2], [1, 0, 2])]


def test_single_edge():
    for solver in (solve_maxvar, solve_maxvar_exact):
        sol = solver(SINGLE_EDGE)
        assert np.abs(sol.f - 0.5).max() < 1e-12
        assert abs(sol.value - 0.25) < 1e-12
        assert sol.support.tolist() == [0, 1]


def test_triangle_uniform():
    for solver in (solve_maxvar, solve_maxvar_exact):
        sol = solver(K3_OMEGA)
        assert np.abs(sol.f - 1.0 / 3.0).max() < 1e-12
        assert abs(sol.value - 2.0 / 9.0) < 1e-12


def test_path_drops_the_middle_node():
    for omega, support in ((P3_OMEGA, [0, 2]), (P3_MIDDLE_0, [1, 2])):
        for solver in (solve_maxvar, solve_maxvar_exact):
            sol = solver(omega)
            expected = np.zeros(3)
            expected[support] = 0.5
            assert np.abs(sol.f - expected).max() < 1e-12
            assert abs(sol.value - 0.5) < 1e-12
            assert sol.support.tolist() == support
            assert sol.kkt_residual <= 1e-12


def test_gradient_is_flat_at_the_path_optimum():
    f = np.array([0.5, 0.0, 0.5])
    assert np.abs(P3_OMEGA @ f - 1.0).max() < 1e-12
    check = verify_kkt(P3_OMEGA, f)
    assert check.ok
    assert check.support.tolist() == [0, 2]


def test_kkt_flags_suboptimal_points():
    check = verify_kkt(P3_OMEGA, np.array([1.0 / 3.0] * 3))
    assert not check.ok
    assert check.residual > 0.1


def test_variance_evaluation():
    assert abs(variance(P3_OMEGA, [0.5, 0.0, 0.5]) - 0.5) < 1e-12
    with pytest.raises(ValidationError):
        variance(P3_OMEGA, [0.9, 0.0, 0.0])
    with pytest.raises(ValidationError):
        variance(P3_OMEGA, [1.5, -0.5, 0.0])


def test_asymmetric_omega_rejected():
    with pytest.raises(ValidationError):
        solve_maxvar(np.array([[0.0, 0.5], [1.0, 0.0]]))


def test_exact_capacity_cap():
    with pytest.raises(CapacityError):
        solve_maxvar_exact(np.zeros((16, 16)) + SINGLE_EDGE.repeat(8, 0).repeat(8, 1))


def test_solvers_agree_on_random_instances():
    rng = np.random.default_rng(40)
    draws = [random_class_q(7, rng, ensure_signed=True) for _ in range(20)]
    # Trees: the optimum drops every interior node, often several at once.
    draws += [random_unsigned_laplacian(n, rng, extra_edges=0)
              for n in range(3, 10) for _ in range(5)]
    for q in draws:
        omega = resistance_matrix_q(q)
        exact = solve_maxvar_exact(omega)
        iterative = solve_maxvar(omega)
        assert exact.support.tolist() == iterative.support.tolist()
        scale = max(1.0, abs(exact.value))
        assert abs(exact.value - iterative.value) < 1e-8 * scale
        report = characterize(iterative, q)
        assert report.passed, (report.curvature_residual, report.value_residual)


def test_face_solve_cap_raises_with_history(monkeypatch):
    # The triangle needs two face solves from a vertex: {0, 1}, then all.
    monkeypatch.setattr(maxvar, "MAX_FACE_SOLVES", 1)
    with pytest.raises(ConvergenceError) as info:
        solve_maxvar(K3_OMEGA)
    assert len(info.value.history) > 0
    assert info.value.history[-1] > 0.0
    monkeypatch.setattr(maxvar, "MAX_FACE_SOLVES", 2)
    assert solve_maxvar(K3_OMEGA).support.tolist() == [0, 1, 2]


def test_zero_omega_rejected():
    with pytest.raises(ValidationError):
        solve_maxvar(np.zeros((3, 3)))


def test_characterize_against_raw_omega():
    sol = solve_maxvar_exact(P3_OMEGA)
    report = characterize(sol, P3_OMEGA)
    assert report.passed
    assert abs(report.curvature.sigma2 - 0.5) < 1e-12


def test_negative_curvature_search_bounds():
    with pytest.raises(ValidationError):
        find_negative_curvature_support_instance(3)
    with pytest.raises(ValidationError):
        find_negative_curvature_support_instance(13)


def test_negative_curvature_search_finds_witness():
    found = find_negative_curvature_support_instance(4, seed=0, attempts=2000)
    assert found is not None
    assert found.curvature_value < 0.0
    assert found.node in found.solution.support.tolist()
    assert isinstance(found.q, SignedLaplacianQ)
    # re-certify the stored evidence from scratch
    omega = resistance_matrix_q(found.q)
    assert verify_kkt(omega.omega, found.solution.f).ok
