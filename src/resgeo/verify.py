"""Randomized property suite behind the ``verify`` subcommand.

Each property draws fresh random instances from :mod:`resgeo.generators`
under one shared seed, exercises an identity or contract end to end, and
reports its worst residual.  The suite is the package's broad-coverage
cross-check: closed forms against independent recomputations, algebraic
routes against each other, and solvers against their certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import curvature as cv
from . import generators as gen
from . import graph as gr
from . import kron as kr
from . import linalg as la
from . import maxvar as mv
from . import resistance as rs
from .embed import embed, simplex_geometry, verify_angles_geometric


@dataclass(frozen=True)
class PropertyResult:
    name: str
    cases: int
    max_residual: float
    threshold: float
    passed: bool


def _size(rng, n_max, lo=3, hi=None):
    """A random node count in ``[lo, hi]``, with ``hi`` capped at ``n_max``."""
    hi = n_max if hi is None else min(hi, n_max)
    lo = min(lo, hi)
    return int(rng.integers(lo, hi + 1))


def _penrose(rng, n_max):
    n = _size(rng, n_max)
    m = rng.normal(size=(n, int(rng.integers(2, n + 2))))
    p = la.pseudoinverse(m)
    return max(
        np.abs(m @ p @ m - m).max(),
        np.abs(p @ m @ p - p).max(),
        np.abs((m @ p) - (m @ p).T).max(),
        np.abs((p @ m) - (p @ m).T).max(),
    )


def _orthogonal(rng, n):
    return np.linalg.qr(rng.normal(size=(n, n)))[0]


def _inertia_congruence(rng, n_max):
    """Sylvester's law of inertia: ``C^T S C`` has the signature of ``S``.

    ``S = V diag(l) V^T`` has each ``|l_i|`` in [1, 2] or 0, and ``C`` has
    singular values in [1, 10].  By Ostrowski's theorem the eigenvalues of
    ``C^T S C`` are ``theta_i l_i`` with ``theta_i`` in [1, 100], so a
    nonzero one is at least 1/200 of the largest, far above ``inertia``'s
    1e-9 zero cut.  An unbounded ``C`` keeps no such margin.
    """
    n = _size(rng, n_max)
    v = _orthogonal(rng, n)
    s = (v * (rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 0.0, 1.0], n))) @ v.T
    s = (s + s.T) / 2.0
    c = (_orthogonal(rng, n) * rng.uniform(1.0, 10.0, n)) @ _orthogonal(rng, n).T
    a = la.inertia(s)
    b = la.inertia(c.T @ s @ c)
    return 0.0 if (a.positive, a.negative, a.zero) == (b.positive, b.negative, b.zero) else 1.0


def _balanced_pinv_commutes(rng, n_max):
    n = _size(rng, n_max)
    lap = gen.random_scwb_laplacian(n, rng)
    pinv = la.pseudoinverse(lap.matrix)
    j = la.centering_projector(n)
    return max(
        np.abs(lap.matrix @ pinv - j).max(),
        np.abs(pinv @ lap.matrix - j).max(),
    )


def _pinv_via_shift(lap, gamma=1.0):
    """``L^+`` of a strongly connected weight-balanced Laplacian through a
    rank-one shift, an independent route to the SVD pseudoinverse: for any
    ``gamma != 0``, ``L^+ = (L + (gamma/n) 11^T)^{-1} - (1/(n gamma)) 11^T``."""
    n = lap.n
    ones = np.full((n, n), 1.0 / n)
    inv = la.solve_conditioned(lap.matrix + gamma * ones, np.eye(n),
                               what="shifted Laplacian")
    return inv - ones / gamma


def _shifted_pinv(rng, n_max):
    n = _size(rng, n_max)
    lap = gen.random_scwb_laplacian(n, rng)
    pinv = la.pseudoinverse(lap.matrix)
    return max(
        np.abs(_pinv_via_shift(lap, gamma) - pinv).max()
        for gamma in (1.0, -1.0, 10.0)
    )


def _gth_censor(lap, keep):
    """Edge weights of ``lap`` with the nodes outside ``keep`` censored, by
    GTH elimination (Grassmann, Taksar & Heyman, Oper. Res. 33, 1985).

    The kept nodes come first, in the given order, and the others are
    censored last first.  Each pivot is the node's outflow to the nodes
    still present, a sum of nonnegative weights, and the update only adds
    nonnegative terms, so no step subtracts.  In the returned weights (in
    that order), the leading ``len(keep)`` block holds the censored graph
    off its diagonal, and column ``k`` above row ``k`` the weights into the
    censored node ``k`` divided by its pivot."""
    order = np.concatenate((keep, np.setdiff1d(np.arange(lap.n), keep)))
    w = -lap.matrix[np.ix_(order, order)]
    np.fill_diagonal(w, 0.0)
    for k in range(lap.n - 1, len(keep) - 1, -1):
        w[:k, k] /= w[k, :k].sum()
        w[:k, :k] += np.outer(w[:k, k], w[k, :k])
    return w


def _gth_balancing(lap):
    """Balancing vector of a strongly connected Laplacian, ``sum(m) = n``:
    :func:`_gth_censor` onto node 0, then back substitution from ``m_0 = 1``
    balances each node against the inflow from the nodes before it."""
    w = _gth_censor(lap, [0])
    m = np.ones(lap.n)
    for k in range(1, lap.n):
        m[k] = m[:k] @ w[:k, k]
    return lap.n * m / m.sum()


def _gth_kron(lap, keep):
    """Kron reduction onto ``keep`` by :func:`_gth_censor`, as a Laplacian."""
    w = _gth_censor(lap, keep)[:len(keep), :len(keep)]
    np.fill_diagonal(w, 0.0)
    return np.diag(w.sum(axis=1)) - w


def _kron_vs_gth(rng, n_max):
    """Off-diagonal gap to GTH, relative to the GTH entry, or to the row's
    diagonal where that entry is 0."""
    n = _size(rng, n_max)
    lap = gen.random_sc_laplacian(n, rng)
    keep = gen.random_keep(n, rng)
    gth = _gth_kron(lap, keep)
    gap = np.abs(kr.kron_reduce(lap, keep).reduced.matrix - gth)
    np.fill_diagonal(gap, 0.0)
    return (gap / np.where(gth != 0.0, np.abs(gth), np.diag(gth)[:, None])).max()


def _weight_balance(rng, n_max):
    n = _size(rng, n_max)
    lap = gen.random_sc_laplacian(n, rng)
    wb = gr.weight_balance(lap)
    residuals = [
        np.abs(wb.m / _gth_balancing(lap) - 1.0).max(),
        abs(wb.m.sum() - n),
        np.abs(wb.balanced.matrix.sum(axis=0)).max(),
        0.0 if wb.m.min() > 0 else 1.0,
        0.0 if wb.balanced.weight_balanced else 1.0,
    ]
    balanced_again = gr.weight_balance(wb.balanced)
    residuals.append(np.abs(balanced_again.m - 1.0).max())
    return max(residuals)


def _undirect_membership(rng, n_max):
    n = _size(rng, n_max)
    lap = gen.random_scwb_laplacian(n, rng)
    q = cv.undirect(lap)
    return 0.0 if gr._classify_q(q.matrix)[0] is None else 1.0


def _kron_preservation(rng, n_max):
    n = _size(rng, n_max, lo=4)
    lap = gen.random_scwb_laplacian(n, rng)
    keep = gen.random_keep(n, rng, size=int(rng.integers(2, n)))
    result = kr.kron_reduce(lap, keep)
    # kron_reduce copies strong connectivity from its input; the closures
    # here check that claim on the float result itself.
    reduced = result.reduced.matrix
    connected = gr._reached(reduced, [0]).all() and gr._reached(reduced.T, [0]).all()
    return 0.0 if connected and result.preserved.weight_balanced else 1.0


def _resistance_invariance(rng, n_max):
    n = _size(rng, n_max, lo=4)
    lap = gen.random_sc_laplacian(n, rng)
    keep = gen.random_keep(n, rng, size=int(rng.integers(2, n)))
    before = rs.resistance_matrix_sc(lap).omega[np.ix_(keep, keep)]
    after = rs.resistance_matrix_sc(kr.kron_reduce(lap, keep).reduced).omega
    return np.abs(before - after).max()


def _pairwise_consistency(rng, n_max):
    n = _size(rng, n_max, hi=8)
    lap = gen.random_sc_laplacian(n, rng)
    omega = rs.resistance_matrix_sc(lap).omega
    worst = 0.0
    for a in range(n):
        for b in range(n):
            if a != b:
                r = rs.effective_resistance_directed(lap, a, b)
                worst = max(worst, abs(r - omega[a, b]))
    return worst


def _omega_inertia(rng, n_max):
    n = _size(rng, n_max)
    if rng.integers(2):
        omega = rs.resistance_matrix_scwb(gen.random_scwb_laplacian(n, rng))
    else:
        omega = rs.resistance_matrix_q(gen.random_class_q(n, rng))
    sig = la.inertia(omega.omega)
    ok = (sig.positive, sig.negative, sig.zero) == (1, n - 1, 0)
    return 0.0 if ok else 1.0


def _sqrt_triangle(rng, n_max):
    n = _size(rng, n_max)
    omega = rs.resistance_matrix_q(gen.random_class_q(n, rng)).omega
    d = np.sqrt(omega)
    # [i, j, k] holds d[i, j] - d[i, k] - d[k, j]
    return max(0.0, float((d[:, :, None] - d[:, None, :] - d.T[None]).max()))


def _fbi(rng, n_max):
    n = _size(rng, n_max)
    if rng.integers(2):
        source = gen.random_scwb_laplacian(n, rng)
    else:
        source = gen.random_class_q(n, rng)
    return cv.verify_fiedler_bapat(source).residual


def _corollary_identities(rng, n_max):
    n = _size(rng, n_max)
    lap = gen.random_scwb_laplacian(n, rng)
    # K from eigh, independent of the SVD route the package keeps
    kernel = la.sym_eig(gr.sym_pinv(lap)).pinv()
    cr = cv.curvature_radius_scwb(lap)
    omega = rs.resistance_matrix_scwb(lap).omega
    p, s2 = cr.p, cr.sigma2
    ones = np.ones(n)
    inv = np.linalg.inv(omega)
    s = ones @ inv @ ones
    return max(
        abs(p.sum() - 1.0),
        np.abs(omega @ p - 2.0 * s2).max(),
        np.abs(omega @ kernel - (-2.0 * np.eye(n) + 2.0 * np.outer(ones, p))).max(),
        np.abs(inv - (-0.5 * kernel + np.outer(p, p) / (2.0 * s2))).max(),
        np.abs(p - inv @ ones / s).max(),
        abs(s2 - 0.5 / s),
        abs(s2 - 0.5 * p @ omega @ p),
        np.abs(kernel - (-2.0 * inv + 2.0 * np.outer(inv @ ones, inv @ ones) / s)).max(),
    )


def _commutativity(rng, n_max):
    n = _size(rng, n_max, lo=4)
    lap = gen.random_scwb_laplacian(n, rng)
    keep = gen.random_keep(n, rng, size=int(rng.integers(2, n)))
    return cv.check_commutativity(lap, keep).residual


def _curvature_reduction(rng, n_max):
    n = _size(rng, n_max, lo=4)
    lap = gen.random_scwb_laplacian(n, rng)
    keep = gen.random_keep(n, rng, size=int(rng.integers(2, n)))
    via_formula = cv.reduce_curvature_radius(lap, keep)
    direct = cv.curvature_radius_scwb(kr.kron_reduce(lap, keep).reduced)
    return max(
        np.abs(via_formula.p - direct.p).max(),
        abs(via_formula.sigma2 - direct.sigma2),
    )


def _sc_curvature(rng, n_max):
    n = _size(rng, n_max)
    balanced = gen.random_scwb_laplacian(n, rng)
    a = cv.curvature_radius_sc(balanced)
    b = cv.curvature_radius_scwb(balanced)
    worst = max(np.abs(a.p - b.p).max(), abs(a.sigma2 - b.sigma2))
    lap = gen.random_sc_laplacian(n, rng)
    wb = gr.weight_balance(lap)
    omega = rs.resistance_matrix_sc(lap)
    transformed = cv.wb_transform(cv.curvature_radius_sc(lap), wb.m, omega)
    target = cv.curvature_radius_scwb(wb.balanced)
    worst = max(worst, np.abs(transformed.p - target.p).max(),
                abs(transformed.sigma2 - target.sigma2))
    back = cv.wb_transform(transformed, 1.0 / wb.m, omega)
    original = cv.curvature_radius_sc(lap)
    return max(worst, np.abs(back.p - original.p).max(),
               abs(back.sigma2 - original.sigma2))


def _radius_subsets(rng, n_max):
    n = _size(rng, n_max)
    lap = gen.random_scwb_laplacian(n, rng)
    omega = rs.resistance_matrix_scwb(lap).omega

    def sigma2(subset):
        return cv.subset_curvature_radius(omega, subset).sigma2

    a, b = rng.choice(n, size=2, replace=False)
    worst = abs(sigma2([a, b]) - omega[a, b] / 4.0)
    chain = list(rng.permutation(n))
    last = 0.0
    for size in range(2, n + 1):
        value = sigma2(chain[:size])
        worst = max(worst, max(0.0, last - value))
        last = value
    return worst


def _maxvar_agreement(rng, n_max):
    n = _size(rng, n_max, hi=10)
    q = gen.random_class_q(n, rng)
    omega = rs.resistance_matrix_q(q)
    exact = mv.solve_maxvar_exact(omega)
    iterative = mv.solve_maxvar(omega)
    worst = abs(exact.value - iterative.value)
    if list(exact.support) != list(iterative.support):
        worst = max(worst, 1.0)
    report = mv.characterize(exact, q)
    worst = max(worst, report.curvature_residual, report.value_residual)
    for _ in range(50):
        f = rng.dirichlet(np.ones(n))
        worst = max(worst, mv.variance(omega, f) - exact.value)
    return worst


def _embedding(rng, n_max):
    n = _size(rng, n_max)
    q = gen.random_class_q(n, rng)
    emb = embed(q)
    b = emb.coordinates
    qd = la.pseudoinverse(q.matrix)
    omega = rs.resistance_matrix_q(q).omega
    gram = b.T @ b
    dist2 = np.add.outer(np.diag(gram), np.diag(gram)) - 2.0 * gram
    np.fill_diagonal(dist2, 0.0)
    geo = simplex_geometry(q, emb)
    center_dist = np.linalg.norm(b - geo.circumcenter[:, None], axis=0)
    j = la.centering_projector(n)
    bp = la.pseudoinverse(b)
    keep = gen.random_keep(n, rng, size=max(2, n - 1)) if n > 2 else np.arange(n)
    reduced = kr.kron_reduce_q(q, keep)
    omega_red = rs.resistance_matrix_q(reduced).omega
    return max(
        np.abs(b.sum(axis=1)).max(),
        np.abs(gram - qd).max(),
        np.abs(dist2 - omega).max(),
        np.abs(center_dist ** 2 - geo.circumradius ** 2).max(),
        np.abs(np.diag(gram) - np.diag(qd)).max(),
        np.abs(bp @ bp.T - q.matrix).max(),
        np.abs(-0.5 * j @ dist2 @ j - qd).max(),
        np.abs(omega_red - omega[np.ix_(keep, keep)]).max(),
    )


def _angles(rng, n_max):
    n = _size(rng, n_max)
    q = gen.random_class_q(n, rng)
    emb = embed(q)
    check = verify_angles_geometric(q, emb)
    if check.skipped:
        return 0.0
    return max(check.dihedral_deviation, check.vertex_deviation)


def _metric_labels(rng, n_max):
    n = _size(rng, n_max)
    unsigned = gen.random_unsigned_laplacian(n, rng)
    label_u = rs.classify_metric(rs.resistance_matrix_q(unsigned).omega).label
    worst = 0.0 if label_u == "resistance_metric" else 1.0
    q = gen.random_class_q(n, rng, ensure_signed=True)
    omega = rs.resistance_matrix_q(q).omega
    label_s = rs.classify_metric(omega).label
    if label_s != "strict_negative_type":
        worst = max(worst, 1.0)
    recovered = rs.q_from_distance(omega)
    relative = np.abs(recovered.matrix - q.matrix).max()
    relative /= la._scale(q.matrix)
    return max(worst, relative)


_PROPERTIES = [
    ("pseudoinverse_penrose", 1e-8, _penrose),
    ("kron_vs_gth", 1e-9, _kron_vs_gth),
    ("inertia_congruence", 0.5, _inertia_congruence),
    ("balanced_pinv_commutes", 1e-9, _balanced_pinv_commutes),
    ("shifted_pinv_agreement", 1e-8, _shifted_pinv),
    ("weight_balance_contract", 1e-8, _weight_balance),
    ("undirect_class_membership", 0.5, _undirect_membership),
    ("kron_structure_preserved", 0.5, _kron_preservation),
    ("kron_resistance_invariance", 1e-9, _resistance_invariance),
    ("resistance_pairwise_consistency", 1e-9, _pairwise_consistency),
    ("resistance_inertia", 0.5, _omega_inertia),
    ("resistance_sqrt_triangle", 1e-10, _sqrt_triangle),
    ("fiedler_bapat_residual", 1e-8, _fbi),
    ("curvature_closed_forms", 1e-8, _corollary_identities),
    ("reduction_commutes_with_undirecting", 1e-8, _commutativity),
    ("curvature_reduction_formula", 1e-8, _curvature_reduction),
    ("sc_curvature_consistency", 1e-8, _sc_curvature),
    ("radius_subset_function", 1e-9, _radius_subsets),
    ("maxvar_exact_vs_iterative", 1e-8, _maxvar_agreement),
    ("embedding_invariants", 1e-8, _embedding),
    ("angle_recomputation", 1e-9, _angles),
    ("metric_classification", 1e-8, _metric_labels),
]


def run_verification(seed=1, cases=50, n_max=12):
    """Run every property ``cases`` times at sizes up to ``n_max``.

    Returns a list of :class:`PropertyResult`, one per property, in a
    fixed order.  ``cases=0`` produces an empty (passing) run.
    """
    n_max = max(3, n_max)
    results = []
    for k, (name, threshold, fn) in enumerate(_PROPERTIES):
        rng = np.random.default_rng([seed, k])
        worst = 0.0
        for _ in range(cases):
            worst = max(worst, float(fn(rng, n_max)))
        results.append(PropertyResult(name=name, cases=cases,
                                      max_residual=worst, threshold=threshold,
                                      passed=worst <= threshold))
    return results
