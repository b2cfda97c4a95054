import numpy as np
import pytest

from resgeo import maxvar
from resgeo.errors import CapacityError, ConvergenceError, ValidationError
from resgeo.generators import (
    random_class_q,
    random_sc_laplacian,
    random_scwb_laplacian,
    random_unsigned_laplacian,
)
from resgeo.maxvar import (
    characterize,
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


def _q40():
    rng = np.random.default_rng(3)
    random_scwb_laplacian(40, rng)
    random_sc_laplacian(40, rng)
    return random_class_q(40, rng)


@pytest.mark.parametrize("solver, q", [
    (solve_maxvar, _q40()),
    (solve_maxvar_exact, random_class_q(12, np.random.default_rng(7))),
], ids=["iterative", "exact"])
def test_solvers_do_not_depend_on_the_scale_of_omega(solver, q):
    # Scaling Q by 2^k scales Omega by 2^-k.  A certificate with a floor
    # of 1 at unit scale accepted a wrong support below it (all mass on
    # node 0 for the iterative solver, 7 nodes for the exact one at
    # k = 40), and a fixed face cut refused every face above it (k = -40).
    omega = resistance_matrix_q(q).omega
    expected = solver(omega)
    assert expected.support.size > 1
    for k in (-40, -20, 0, 20, 40):
        scaled = omega * 2.0 ** -k
        sol = solver(scaled)
        assert sol.support.tolist() == expected.support.tolist(), k
        assert np.abs(sol.f - expected.f).max() < 1e-12, k
        assert abs(sol.value * 2.0 ** k - expected.value) < 1e-9 * expected.value
        assert verify_kkt(scaled, sol.f).ok
        assert not verify_kkt(scaled, np.eye(1, q.n)[0]).ok
