"""Acceptance suite: twelve numbered end-to-end criteria.

Each test prints one pass/fail line (run pytest with ``-s`` to see them as
they go; captured output is shown for failures either way).  Random
instances are drawn with fixed seeds so every run checks the same cases.
"""

import time

import numpy as np
import pytest

from resgeo.curvature import (
    check_commutativity,
    curvature_radius_q,
    curvature_radius_scwb,
    subset_curvature_radius,
    undirect,
    verify_fiedler_bapat,
)
from resgeo.generators import (
    random_class_q,
    random_keep,
    random_sc_laplacian,
    random_scwb_laplacian,
    random_unsigned_laplacian,
)
from resgeo.graph import DirectedLaplacian, SignedLaplacianQ, sym_pinv
from resgeo.kron import kron_reduce
from resgeo.linalg import inertia, pseudoinverse, schur_complement
from resgeo.maxvar import (
    characterize,
    solve_maxvar,
    solve_maxvar_exact,
    verify_kkt,
)
from resgeo.resistance import (
    classify_metric,
    resistance_matrix_q,
    resistance_matrix_sc,
    resistance_matrix_scwb,
)
from resgeo.embed import embed, simplex_geometry, verify_angles_geometric

SHOWCASE = DirectedLaplacian(np.array([
    [3.0, -1.0, -2.0, 0.0],
    [0.0, 1.0, 0.0, -1.0],
    [0.0, 0.0, 2.0, -2.0],
    [-3.0, 0.0, 0.0, 3.0],
]))

P3_OMEGA = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])

UNIT_SQUARE = np.array([
    [0.0, 1.0, 2.0, 1.0],
    [1.0, 0.0, 1.0, 2.0],
    [2.0, 1.0, 0.0, 1.0],
    [1.0, 2.0, 1.0, 0.0],
])


def report(num, label, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {label}{tail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def scwb_suite():
    """200 random SCWB digraphs, 3 <= n <= 25, each with a random keep set."""
    rng = np.random.default_rng(20240823)
    suite = []
    for _ in range(200):
        n = int(rng.integers(3, 26))
        lap = random_scwb_laplacian(n, rng)
        suite.append((lap, random_keep(n, rng)))
    return suite


@pytest.fixture(scope="module")
def q_suite():
    """200 random signed Laplacians, n <= 10, half forced to carry a
    positive off-diagonal coupling."""
    rng = np.random.default_rng(424242)
    suite = []
    for k in range(200):
        n = int(rng.integers(3, 11))
        suite.append(random_class_q(n, rng, ensure_signed=(k % 2 == 0)))
    return suite


def test_criterion_01_undirecting_example():
    expected = np.array([
        [36.0, -6.0, -12.0, -18.0],
        [-6.0, 10.0, 2.0, -6.0],
        [-12.0, 2.0, 22.0, -12.0],
        [-18.0, -6.0, -12.0, 36.0],
    ]) / 9.0
    q = undirect(SHOWCASE)  # warm-up and correctness in one
    residual = float(np.abs(q.matrix - expected).max())
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        undirect(SHOWCASE)
        best = min(best, time.perf_counter() - t0)
    ok = residual <= 1e-9 and best < 1e-3
    report(1, "undirecting map reproduces the 4-node example",
           ok, f"residual {residual:.2e}, best run {best * 1e3:.3f} ms")


def test_criterion_02_order_of_operations_matters():
    keep = [0, 1, 3]
    reduce_after = schur_complement(sym_pinv(SHOWCASE), keep)
    reduce_first = sym_pinv(kron_reduce(SHOWCASE, keep).reduced)
    target_after = np.array([
        [29.0, -27.0, -2.0],
        [-27.0, 54.0, -27.0],
        [-2.0, -27.0, 29.0],
    ]) / 186.0
    target_first = np.array([
        [10.0, -11.0, 1.0],
        [-11.0, 22.0, -11.0],
        [1.0, -11.0, 10.0],
    ]) / 54.0
    r_after = float(np.abs(reduce_after - target_after).max())
    r_first = float(np.abs(reduce_first - target_first).max())
    gap = float(np.abs(reduce_after - reduce_first).max())
    ok = r_after <= 1e-9 and r_first <= 1e-9 and gap > 1e-3
    report(2, "symmetrized pseudoinverse does not commute with reduction",
           ok, f"residuals {r_after:.2e} / {r_first:.2e}, gap {gap:.3f}")


def test_criterion_03_undirect_commutes_with_reduction(scwb_suite):
    start = time.perf_counter()
    worst = check_commutativity(SHOWCASE, [0, 1, 3]).residual
    for lap, keep in scwb_suite:
        worst = max(worst, check_commutativity(lap, keep).residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    report(3, "undirecting commutes with Kron reduction on 200 SCWB draws",
           ok, f"worst residual {worst:.2e}, {elapsed:.1f} s")


def test_criterion_04_block_identity(scwb_suite):
    worst = verify_fiedler_bapat(SHOWCASE).residual
    for lap, _ in scwb_suite:
        worst = max(worst, verify_fiedler_bapat(lap).residual)
    ok = worst <= 1e-8
    report(4, "curvature/radius block identity on the same suite",
           ok, f"worst residual {worst:.2e}")


def test_criterion_05_resistance_survives_reduction():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 13))
        lap = random_sc_laplacian(n, rng)
        keep = random_keep(n, rng)
        before = resistance_matrix_sc(lap).omega[np.ix_(keep, keep)]
        after = resistance_matrix_sc(kron_reduce(lap, keep).reduced).omega
        worst = max(worst, float(np.abs(before - after).max()))
    ok = worst <= 1e-9
    report(5, "effective resistance invariant under reduction (100 SC draws)",
           ok, f"worst residual {worst:.2e}")


def test_criterion_06_resistance_inertia(scwb_suite, q_suite):
    ok = True
    checked = 0
    for lap, _ in scwb_suite:
        sig = inertia(resistance_matrix_scwb(lap).omega)
        ok = ok and (sig.positive, sig.negative, sig.zero) == (1, lap.n - 1, 0)
        checked += 1
    for q in q_suite:
        sig = inertia(resistance_matrix_q(q).omega)
        ok = ok and (sig.positive, sig.negative, sig.zero) == (1, q.n - 1, 0)
        checked += 1
    report(6, "resistance matrices have inertia (1, n-1, 0)",
           ok, f"{checked} instances")


def corollary_worst_residual(lap):
    n = lap.n
    one = np.ones(n)
    kernel = pseudoinverse(sym_pinv(lap))
    cr = curvature_radius_scwb(lap)
    p, s2 = cr.p, cr.sigma2
    om = resistance_matrix_scwb(lap).omega
    om_inv = np.linalg.inv(om)
    oi1 = om_inv @ one
    s = float(one @ oi1)
    residuals = (
        abs(one @ p - 1.0),
        np.abs(om @ p - 2.0 * s2).max(),
        np.abs(om @ kernel + 2.0 * np.eye(n) - 2.0 * np.outer(one, p)).max(),
        np.abs(om_inv + 0.5 * kernel - np.outer(p, p) / (2.0 * s2)).max(),
        np.abs(kernel + 2.0 * om_inv - 2.0 * np.outer(oi1, oi1) / s).max(),
        np.abs(p - oi1 / s).max(),
        abs(s2 - 0.5 / s),
        abs(s2 - 0.5 * float(p @ om @ p)),
    )
    return max(float(r) for r in residuals)


def test_criterion_07_relation_suite(scwb_suite):
    worst = corollary_worst_residual(SHOWCASE)
    for lap, _ in scwb_suite:
        worst = max(worst, corollary_worst_residual(lap))
    ok = worst <= 1e-9
    report(7, "all eight curvature/radius/resistance relations",
           ok, f"worst residual {worst:.2e}")


def test_criterion_08_radius_set_function(scwb_suite):
    rng = np.random.default_rng(88)
    worst_pair = 0.0
    monotone = True
    for lap, _ in scwb_suite[:20]:
        om = resistance_matrix_scwb(lap)
        for i in range(lap.n):
            for j in range(i + 1, lap.n):
                s2 = subset_curvature_radius(om, [i, j]).sigma2
                worst_pair = max(worst_pair, abs(s2 - om.omega[i, j] / 4.0))
        for _ in range(100):
            order = rng.permutation(lap.n)
            k2 = int(rng.integers(2, lap.n + 1))
            k1 = int(rng.integers(2, k2 + 1))
            small = subset_curvature_radius(om, sorted(order[:k1])).sigma2
            large = subset_curvature_radius(om, sorted(order[:k2])).sigma2
            monotone = monotone and small <= large + 1e-10
    ok = worst_pair <= 1e-10 and monotone
    report(8, "subset radius: quarter resistance on pairs, monotone growth",
           ok, f"worst pair residual {worst_pair:.2e}")


def test_criterion_09_variance_maximization(q_suite):
    start = time.perf_counter()
    ok = True
    worst_value = 0.0
    worst_char = 0.0
    for q in q_suite:
        om = resistance_matrix_q(q)
        exact = solve_maxvar_exact(om)
        iterative = solve_maxvar(om)
        ok = ok and exact.support.tolist() == iterative.support.tolist()
        scale = max(1.0, abs(exact.value))
        worst_value = max(worst_value, abs(exact.value - iterative.value) / scale)
        rep = characterize(iterative, q)
        worst_char = max(worst_char, rep.curvature_residual, rep.value_residual)
    sol = solve_maxvar(P3_OMEGA)
    ok = ok and np.abs(sol.f - np.array([0.5, 0.0, 0.5])).max() <= 1e-9
    ok = ok and abs(sol.value - 0.5) <= 1e-9
    elapsed = time.perf_counter() - start
    ok = ok and worst_value <= 1e-8 and worst_char <= 1e-8 and elapsed < 60.0
    report(9, "the two variance maximizers agree and match subset curvature",
           ok, f"value {worst_value:.2e}, characterization {worst_char:.2e}, "
               f"{elapsed:.1f} s")


def _negative_curvature_in_support(n, seed, attempts):
    """The first random signed draw whose exact maximizer's support holds a
    node of negative whole-graph curvature (below -1e-10), as
    ``(q, solution, node, curvature, attempt)``, or ``None``."""
    rng = np.random.default_rng(seed)
    for attempt in range(1, attempts + 1):
        q = random_class_q(n, rng, ensure_signed=True)
        whole = curvature_radius_q(q)
        if whole.p.min() >= -1e-10:
            continue
        solution = solve_maxvar_exact(resistance_matrix_q(q))
        negative = [int(i) for i in solution.support if whole.p[i] < -1e-10]
        if negative:
            node = negative[0]
            return q, solution, node, float(whole.p[node]), attempt
    return None


def test_criterion_10_negative_curvature_in_support():
    ok = True
    details = []
    for n in (4, 5, 6):
        found = _negative_curvature_in_support(n, seed=0, attempts=100_000)
        if found is None:
            ok = False
            details.append(f"n={n}: none")
            continue
        q, solution, node, value, attempts = found
        ok = ok and (
            value < 0.0
            and node in solution.support.tolist()
            and verify_kkt(resistance_matrix_q(q).omega, solution.f).ok
        )
        details.append(f"n={n}: {attempts} tries")
    report(10, "optimal supports can contain negative-curvature nodes",
           ok, "; ".join(details))


def test_criterion_11_simplex_embedding(q_suite):
    worst = 0.0
    obtuse_ok = True
    for q in q_suite:
        emb = embed(q)
        b = emb.coordinates
        om = resistance_matrix_q(q).omega
        diff = b[:, :, None] - b[:, None, :]
        worst = max(worst, float(np.abs((diff ** 2).sum(axis=0) - om).max()))
        geo = simplex_geometry(q, emb)
        dist = np.linalg.norm(b - geo.circumcenter[:, None], axis=0)
        worst = max(worst, float(np.abs(dist - geo.circumradius).max()))
        qp = pseudoinverse(q.matrix)
        worst = max(worst, float(np.abs((b ** 2).sum(axis=0) - np.diag(qp)).max()))
        check = verify_angles_geometric(q, emb)
        worst = max(worst, check.dihedral_deviation, check.vertex_deviation)
        pos = q.matrix > 1e-10
        np.fill_diagonal(pos, False)
        if pos.any():
            obtuse_ok = obtuse_ok and bool((geo.cos_dihedral[pos] < 0.0).all())
    ok = worst <= 1e-9 and obtuse_ok
    report(11, "hyperacute simplex realizes resistances, center and angles",
           ok, f"worst residual {worst:.2e}, obtuse faces {obtuse_ok}")


def test_criterion_12_metric_hierarchy(q_suite):
    ok = True
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(3, 13))
        q = random_unsigned_laplacian(n, rng)
        label = classify_metric(resistance_matrix_q(q).omega).label
        ok = ok and label == "resistance_metric"
    signed_checked = 0
    for q in q_suite:
        off = q.matrix.copy()
        np.fill_diagonal(off, 0.0)
        if off.max() > 1e-6:
            label = classify_metric(resistance_matrix_q(q).omega).label
            ok = ok and label == "strict_negative_type"
            signed_checked += 1
    ok = ok and signed_checked >= 50
    square = classify_metric(UNIT_SQUARE).label
    ok = ok and square == "negative_type"
    report(12, "metric labels: unsigned, signed, and the planar square",
           ok, f"{signed_checked} signed instances, square is {square}")
