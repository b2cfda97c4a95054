"""The tolerance policy: every threshold lives in ``linalg``, and no
verdict depends on the units of the weights.

Every construction is homogeneous in the edge weights: scaling ``L`` or
``Q`` by ``c`` scales ``Omega``, ``sigma^2`` and ``L_s^+`` by ``1/c`` and
``K`` by ``c``, and leaves ``p``, ``f*`` and every label unchanged.  A
power of two scales exactly, so each verdict must come out the same.
"""

import ast
import dataclasses
import importlib
import pathlib

import numpy as np
import pytest

import resgeo
from resgeo import curvature, linalg
from resgeo.curvature import (
    CommutativityCheck,
    check_commutativity,
    curvature_radius_sc,
    undirect,
    verify_fiedler_bapat,
)
from resgeo.generators import (
    random_class_q,
    random_sc_laplacian,
    random_scwb_laplacian,
    random_unsigned_laplacian,
)
from resgeo.graph import DirectedLaplacian, SignedLaplacianQ
from resgeo.kron import kron_reduce_q
from resgeo.maxvar import characterize, solve_maxvar
from resgeo.resistance import (
    classify_metric,
    q_from_distance,
    resistance_matrix_q,
    resistance_matrix_sc,
    resistance_matrix_scwb,
)

# ``resgeo.embed`` is also the name of a function the package exports.
embedding = importlib.import_module("resgeo.embed")

SCALES = (-40, -34, -20, 20, 40)
EVEN = range(0, 40, 2)


def _draws():
    rng = np.random.default_rng(3)
    s = random_scwb_laplacian(40, rng)
    u = random_sc_laplacian(40, rng)
    q = random_class_q(40, rng)
    return s, u, q


def _scaled(k):
    s, u, q = _draws()
    c = 2.0 ** k
    return (DirectedLaplacian(s.matrix * c), DirectedLaplacian(u.matrix * c),
            SignedLaplacianQ(q.matrix * c))


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the verdict is the exception type
        return type(exc).__name__
    return None


def _verdicts(s, u, q):
    omega_s = resistance_matrix_scwb(s)
    omega_q = resistance_matrix_q(q)
    return {
        "U weight_balanced": u.weight_balanced,
        "resistance_matrix_sc(U).kind": resistance_matrix_sc(u).kind,
        "fiedler_bapat(S)": verify_fiedler_bapat(s).passed,
        "fiedler_bapat(Q)": verify_fiedler_bapat(q).passed,
        "commutativity(S)": check_commutativity(s, EVEN).passed,
        "classify_metric(S)": classify_metric(omega_s.omega).label,
        "classify_metric(Q)": classify_metric(omega_q.omega).label,
        "characterize(S)": characterize(solve_maxvar(omega_s), s).passed,
        "characterize(Q)": characterize(solve_maxvar(omega_q), q).passed,
        "curvature_radius_sc(U)": _raised(curvature_radius_sc, u),
        "embed(Q)": _raised(embedding.embed, q),
        "verify_angles_geometric(Q)": _raised(
            lambda: embedding.verify_angles_geometric(q, embedding.embed(q))),
        "undirect(S)": _raised(undirect, s),
        "kron_reduce_q(Q)": _raised(kron_reduce_q, q, EVEN),
        "q_from_distance(Omega_Q)": _raised(q_from_distance, omega_q.omega),
    }


@pytest.fixture(scope="module")
def unscaled_verdicts():
    return _verdicts(*_draws())


@pytest.mark.parametrize("k", SCALES)
def test_verdicts_do_not_depend_on_the_scale_of_the_weights(k, unscaled_verdicts):
    assert len(unscaled_verdicts) == 15
    scaled = _verdicts(*_scaled(k))
    changed = {name: (value, scaled[name])
               for name, value in unscaled_verdicts.items()
               if scaled[name] != value}
    assert not changed


def test_unbalanced_graph_scaled_down_keeps_its_directed_resistance():
    # With a floor of 1 on the balance check, U * 2^-34 was flagged weight
    # balanced and got the symmetric closed form, 96% off.
    _, u, _ = _draws()
    small = DirectedLaplacian(u.matrix * 2.0 ** -34)
    assert not small.weight_balanced
    rm = resistance_matrix_sc(small)
    assert rm.kind == "directed_sc"
    expected = 2.0 ** 34 * resistance_matrix_sc(u).omega
    assert np.abs(rm.omega - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("which", ["S", "Q"])
def test_scaled_resistances_are_not_labelled_a_resistance_metric(which):
    # With an absolute bound on the off-diagonal of G^+ = L * 2^-40, the
    # label promised an unsigned Laplacian.
    s, _, q = _scaled(-40)
    omega = (resistance_matrix_scwb(s) if which == "S"
             else resistance_matrix_q(q)).omega
    assert classify_metric(omega).label == "strict_negative_type"


# -- planted errors: each scale-free verdict still rejects a defect -------

def _planted_closed_form(which):
    """``curvature._closed_form`` with a relative error of 1e-6 in one
    entry of ``K``, ``p`` or ``sigma^2``."""
    closed_form = curvature._closed_form

    def planted(source):
        kernel, kernel_pinv, zeta, p, sigma2 = closed_form(source)
        if which == "K":
            kernel = kernel.copy()
            kernel[0, 0] *= 1.0 + 1e-6
        elif which == "p":
            p = p.copy()
            p[np.argmax(np.abs(p))] *= 1.0 + 1e-6
        elif which == "sigma2":
            sigma2 *= 1.0 + 1e-6
        return kernel, kernel_pinv, zeta, p, sigma2
    return planted


@pytest.mark.parametrize("k", [-40, 0, 40])
@pytest.mark.parametrize("which", ["K", "Omega", "p", "sigma2"])
@pytest.mark.parametrize("source", ["S", "Q"])
def test_fiedler_bapat_rejects_a_planted_error(monkeypatch, source, which, k):
    s, _, q = _scaled(k)
    graph = s if source == "S" else q
    assert verify_fiedler_bapat(graph).passed
    if which == "Omega":
        original = curvature._omega_from_kernel

        def planted(kernel_matrix):
            omega = original(kernel_matrix)
            omega[0, 1] *= 1.0 + 1e-6
            return omega
        monkeypatch.setattr(curvature, "_omega_from_kernel", planted)
    else:
        monkeypatch.setattr(curvature, "_closed_form", _planted_closed_form(which))
    fb = verify_fiedler_bapat(graph)
    assert not fb.passed
    assert fb.scaled_residual > 10.0 * linalg.IDENTITY_TOL


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_commutativity_check_rejects_a_planted_error(k):
    s, _, _ = _scaled(k)
    check = check_commutativity(s, EVEN)
    assert check.passed
    rhs = check.rhs.copy()
    rhs[0, 0] *= 1.0 + 1e-6
    planted = CommutativityCheck(lhs=check.lhs, rhs=rhs,
                                 residual=float(np.abs(check.lhs - rhs).max()))
    assert not planted.passed


@pytest.mark.parametrize("k", [-40, 0, 40])
@pytest.mark.parametrize("field", ["f", "value"])
def test_characterization_rejects_a_planted_error(k, field):
    _, _, q = _scaled(k)
    solution = solve_maxvar(resistance_matrix_q(q))
    assert characterize(solution, q).passed
    if field == "f":
        f = solution.f.copy()
        f[np.argmax(f)] *= 1.0 + 1e-6
        planted = dataclasses.replace(solution, f=f)
    else:
        planted = dataclasses.replace(solution, value=solution.value * (1.0 + 1e-6))
    assert not characterize(planted, q).passed


def _unsigned_with_planted_signed_edge():
    """An unsigned Laplacian, and the same with one non-edge turned into a
    signed edge of 1e-6 of the largest weight."""
    lap = random_unsigned_laplacian(12, np.random.default_rng(5)).matrix
    i, j = np.argwhere(lap == 0.0)[0]
    signed = lap.copy()
    signed[i, j] = signed[j, i] = 1e-6 * np.abs(lap).max()
    np.fill_diagonal(signed, 0.0)
    np.fill_diagonal(signed, -signed.sum(axis=1))
    return lap, signed


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_resistance_metric_label_sees_a_planted_signed_edge(k):
    lap, signed = _unsigned_with_planted_signed_edge()
    c = 2.0 ** k
    unsigned_omega = resistance_matrix_q(SignedLaplacianQ(lap * c)).omega
    signed_omega = resistance_matrix_q(SignedLaplacianQ(signed * c)).omega
    assert classify_metric(unsigned_omega).label == "resistance_metric"
    assert classify_metric(signed_omega).label == "strict_negative_type"


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_weight_balance_judges_each_column_by_its_own_weights(k):
    # A heavy 2-cycle on nodes 0 and 1 keeps the graph balanced; then an
    # edge into node 5 gets 1e-6 more weight, which unbalances column 5 by
    # 1e-6 of its own weights but far less than the heavy entries.
    s, _, _ = _draws()
    heavy = s.matrix.copy()
    heavy[[0, 1], [1, 0]] -= 1e4
    heavy[[0, 1], [0, 1]] += 1e4
    i = int(np.flatnonzero(heavy[:, 5] < 0.0)[0])
    planted = heavy.copy()
    extra = 1e-6 * -planted[i, 5]
    planted[i, 5] -= extra
    planted[i, i] += extra
    c = 2.0 ** k
    assert DirectedLaplacian(heavy * c).weight_balanced
    assert not DirectedLaplacian(planted * c).weight_balanced


# -- the policy's structure ------------------------------------------------

PACKAGE = pathlib.Path(resgeo.__file__).parent


def test_scale_has_no_floor():
    assert linalg._scale(np.array([[0.0, -3e-12], [1e-12, 0.0]])) == 3e-12
    assert linalg._scale(np.zeros((2, 2))) == 0.0
    assert linalg._scale(np.zeros((0, 3))) == 0.0


def _is_properties(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "_PROPERTIES" for t in node.targets)


def _small_floats(path, tree, exempt=frozenset()):
    """Float literals in (0, 1e-6) under ``tree``, outside ``exempt``."""
    return [f"{path.name}:{node.lineno} {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < node.value < 1e-6 and id(node) not in exempt]


def test_every_tolerance_is_defined_in_linalg():
    """No module but ``linalg`` holds a float literal in (0, 1e-6) or
    defines a ``*_TOL`` or ``COND_LIMIT`` name; the thresholds of the
    ``verify`` suite (``verify._PROPERTIES``) belong to the suite.  Inside
    ``linalg`` such a literal sits only in a module-level named constant,
    never in a function body.  Docstrings are string constants, so a
    number written in one does not count."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "linalg.py":
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found += _small_floats(path, node)
            continue
        exempt = set()
        if path.name == "verify.py":
            for node in tree.body:
                if _is_properties(node):
                    exempt.update(id(sub) for sub in ast.walk(node))
        found += _small_floats(path, tree, exempt)
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for target in targets:
                name = getattr(target, "id", "")
                if name.endswith("_TOL") or name == "COND_LIMIT":
                    found.append(f"{path.name}:{node.lineno} defines {name}")
    assert not found
