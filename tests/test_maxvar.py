import itertools
from math import comb

import numpy as np
import pytest

from resgeo import maxvar
from resgeo.errors import (
    CapacityError,
    ConvergenceError,
    NumericError,
    ValidationError,
)
from resgeo.generators import (
    random_class_q,
    random_sc_laplacian,
    random_scwb_laplacian,
)
from resgeo.graph import SignedLaplacianQ
from resgeo.linalg import INTERIOR_TOL, KKT_TOL
from resgeo.maxvar import (
    MAX_EXACT_NODES,
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
        solve_maxvar_exact(np.ones((16, 16)) - np.eye(16))


def _random_tree(n, rng):
    """A random weighted tree: each node in a random order joins one before
    it, with a weight drawn from [0.5, 2]."""
    adjacency = np.zeros((n, n))
    order = rng.permutation(n)
    for i in range(1, n):
        a, b = order[i], order[int(rng.integers(0, i))]
        adjacency[a, b] = adjacency[b, a] = rng.uniform(0.5, 2.0)
    return SignedLaplacianQ(np.diag(adjacency.sum(axis=1)) - adjacency)


def test_solvers_agree_on_random_instances():
    rng = np.random.default_rng(40)
    draws = [random_class_q(7, rng, ensure_signed=True) for _ in range(20)]
    # Trees: the optimum drops every interior node, often several at once.
    draws += [_random_tree(n, rng) for n in range(3, 10) for _ in range(5)]
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


def test_asymmetry_is_judged_against_the_scale_of_omega():
    # An asymmetry 50 times the largest entry, below the old floor of 1.
    omega = P3_OMEGA * 1e-12
    omega[0, 2] += 1e-10
    with pytest.raises(ValidationError):
        solve_maxvar(omega)


def _reference_exact(omega):
    """Exhaustive enumeration one face at a time, the oracle of the stacked
    solver: supports by decreasing size, each size in combination order,
    the first strictly positive stationary point whose KKT residual
    passes."""
    om = np.asarray(omega, dtype=float)
    n = om.shape[0]
    tol_cert = KKT_TOL * np.abs(om).max()
    for size in range(n, 1, -1):
        for nodes in itertools.combinations(range(n), size):
            nodes = np.array(nodes)
            try:
                x = np.linalg.solve(om[np.ix_(nodes, nodes)], np.ones(size))
            except np.linalg.LinAlgError:
                continue
            total = x.sum()
            if not np.all(np.isfinite(x)) or total <= 0.0:
                continue
            fv = x / total
            if fv.min() <= INTERIOR_TOL:
                continue
            f = np.zeros(n)
            f[nodes] = fv
            g = om @ f
            residual = float(max(0.0, g.max() - g[nodes].min()))
            if residual <= tol_cert:
                return f, nodes, float(0.5 * f @ g), residual
    raise NumericError("no support admits a certified maximizer")


def _assert_bitwise_equal(sol, reference):
    f, support, value, residual = reference
    assert sol.f.tobytes() == f.tobytes()
    assert sol.support.tolist() == support.tolist()
    assert sol.value == value
    assert sol.kkt_residual == residual


@pytest.fixture
def solve_shapes(monkeypatch):
    """The shape of the matrix of every ``np.linalg.solve`` call."""
    shapes = []
    solve = np.linalg.solve

    def counted(a, b):
        shapes.append(np.shape(a))
        return solve(a, b)
    monkeypatch.setattr(np.linalg, "solve", counted)
    return shapes


def test_stacked_exact_solver_matches_the_face_by_face_loop_bitwise():
    rng = np.random.default_rng(41)
    draws = [random_class_q(n, rng) for n in range(2, 13) for _ in range(6)]
    draws += [_random_tree(n, rng) for n in range(3, 10) for _ in range(5)]
    for q in draws:
        omega = resistance_matrix_q(q).omega
        _assert_bitwise_equal(solve_maxvar_exact(omega), _reference_exact(omega))


#: Raw symmetric matrices whose LU meets an exact zero pivot on the faces
#: listed: the first certifies on a face of the stack the singular face is
#: in, the second on a smaller one.
SINGULAR_FACES = {
    "answer_in_the_stack": ([[0, 2, 2, 4, 1], [2, 0, 4, 1, 2], [2, 4, 0, 2, 2],
                             [4, 1, 2, 0, 1], [1, 2, 2, 1, 0]],
                            [(0, 2, 3, 4)]),
    "answer_below_it": ([[0, 4, 1, 4, 2], [4, 0, 1, 4, 2], [1, 1, 0, 4, 2],
                         [4, 4, 4, 0, 1], [2, 2, 2, 1, 0]],
                        [(0, 1, 2, 3), (0, 1, 2, 4)]),
}


@pytest.mark.parametrize("name", sorted(SINGULAR_FACES))
def test_a_singular_face_is_solved_face_by_face(name, solve_shapes):
    omega, singular = SINGULAR_FACES[name]
    omega = np.array(omega, dtype=float)
    for face in singular:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(omega[np.ix_(face, face)], np.ones(len(face)))
    reference = _reference_exact(omega)
    solve_shapes.clear()
    _assert_bitwise_equal(solve_maxvar_exact(omega), reference)
    # The size-4 stack is refused as a whole and then solved one face at a
    # time: one stacked call plus one per face.
    assert solve_shapes.count((5, 4, 4)) == 1
    assert solve_shapes.count((4, 4)) == 5


def test_exact_solver_takes_one_solve_per_support_size(solve_shapes):
    rng = np.random.default_rng(42)
    draws = [random_class_q(n, rng) for n in (5, 9, 12)]
    # Trees certify on their leaves, so the scan runs through many sizes.
    draws += [_random_tree(n, rng) for n in (8, 12)]
    for q in draws:
        omega = resistance_matrix_q(q)
        solve_shapes.clear()
        sol = solve_maxvar_exact(omega)
        sizes = range(q.n, sol.support.size - 1, -1)
        assert solve_shapes == [(comb(q.n, k), k, k) for k in sizes]


def test_exact_solver_meets_the_iterative_one_at_the_cap():
    rng = np.random.default_rng(43)
    for q in (random_class_q(MAX_EXACT_NODES, rng, ensure_signed=True),
              _random_tree(MAX_EXACT_NODES, rng)):
        omega = resistance_matrix_q(q)
        exact, iterative = solve_maxvar_exact(omega), solve_maxvar(omega)
        assert exact.support.tolist() == iterative.support.tolist()
        assert abs(exact.value - iterative.value) < 1e-8 * exact.value


def _random_unsigned_graph(n, rng):
    """A random weighted tree plus n random edges, weights from [0.5, 2]."""
    tree = _random_tree(n, rng).matrix
    adjacency = np.diag(tree.diagonal()) - tree
    for _ in range(n):
        a, b = rng.choice(n, size=2, replace=False)
        adjacency[a, b] = adjacency[b, a] = rng.uniform(0.5, 2.0)
    return SignedLaplacianQ(np.diag(adjacency.sum(axis=1)) - adjacency)


@pytest.mark.large
def test_exact_and_iterative_solvers_census_above_the_verify_sizes():
    # The verify suite compares the two solvers at n <= 12; this takes
    # them up to the exact solver's cap, on signed draws and on unsigned
    # graphs (a random tree plus random extra edges).
    rng = np.random.default_rng(44)
    counts = {}
    for n in (13, 14, 15):
        for kind in ("signed", "unsigned"):
            tally = counts[n, kind] = {"draws": 0, "disagree": 0}
            for _ in range(20):
                if kind == "signed":
                    q = random_class_q(n, rng, ensure_signed=True)
                else:
                    q = _random_unsigned_graph(n, rng)
                omega = resistance_matrix_q(q)
                exact, iterative = solve_maxvar_exact(omega), solve_maxvar(omega)
                tally["draws"] += 1
                tally["disagree"] += int(
                    exact.support.tolist() != iterative.support.tolist()
                    or abs(exact.value - iterative.value) > 1e-8 * exact.value)
    print("maxvar census:", {f"{n}/{kind}": tally
                             for (n, kind), tally in counts.items()})
    assert sum(t["disagree"] for t in counts.values()) == 0
