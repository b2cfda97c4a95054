"""Maximum graph variance over the probability simplex.

The problem: maximize ``(1/2) f^T Omega f`` over distributions ``f`` on
the nodes, where ``Omega`` is a symmetric resistance matrix: a
:class:`~resgeo.resistance.ResistanceMatrix` of a symmetric kind, or a raw
matrix that passes its validation as one.  At an optimum the gradient
``Omega f`` is constant on the support and no larger off it, which is
what :func:`verify_kkt` measures.  The maximizer is the subset curvature
vector of its own support and the optimal value is that subset's squared
resistance radius, so the solvers and the curvature machinery check each
other.

Two solvers are provided.  :func:`solve_maxvar_exact` enumerates supports
(largest first) and certifies the stationary distribution on each face;
it is exponential and capped at 15 nodes.  It solves all faces of one
support size with one stacked ``np.linalg.solve`` and reads them in
combination order; a stack with a singular block is solved face by
face.  :func:`solve_maxvar` is a primal active-set method (Wolfe 1976;
Gaertner 1999): strict negative type makes the variance strictly concave
on the simplex, so a finite run of face solves, adding the node of
largest gradient and dropping nodes that reach zero, ends at the
maximizer.

For unsigned graphs every support node has positive whole-graph
curvature, so greedily discarding negative-curvature nodes is sound; for
signed Laplacians that heuristic fails: an optimal support can contain a
node of negative whole-graph curvature.  Both solvers certify a
maximizer against the largest entry of ``Omega``, so scaling ``Omega``
scales the value and leaves the support and ``f`` as they were.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .curvature import CurvatureRadius, subset_curvature_radius
from .errors import (
    CapacityError,
    ConvergenceError,
    NumericError,
    ValidationError,
)
from .graph import DirectedLaplacian, SignedLaplacianQ
from .linalg import (
    IDENTITY_TOL,
    INTERIOR_TOL,
    KKT_TOL,
    SUM_TOL,
    _scale,
)
from .resistance import (
    _resistance,
    resistance_matrix_q,
    resistance_matrix_scwb,
)

#: Hard cap for exhaustive support enumeration (2^n faces).
MAX_EXACT_NODES = 15

#: Cap on the face solves of :func:`solve_maxvar`.
MAX_FACE_SOLVES = 10000


@dataclass(frozen=True)
class MaxVarSolution:
    """A certified maximizer: distribution, support, value, KKT residual."""

    f: np.ndarray
    support: np.ndarray
    value: float
    kkt_residual: float
    method: str


@dataclass(frozen=True)
class KktCheck:
    """Stationarity report: gradient spread on/off the support."""

    ok: bool
    residual: float
    support: np.ndarray


@dataclass(frozen=True)
class CharacterizationReport:
    """Maximizer versus subset curvature of its support.

    ``curvature_residual`` compares ``f*`` on its support with the subset
    curvature vector; ``value_residual`` compares the optimal variance
    with the subset squared radius.  ``passed`` holds both to
    ``IDENTITY_TOL``: the curvature residual as it is (both vectors are
    distributions), the value residual divided by the subset's
    ``sigma^2``.
    """

    curvature: CurvatureRadius
    curvature_residual: float
    value_residual: float

    @property
    def passed(self) -> bool:
        return max(self.curvature_residual,
                   self.value_residual / self.curvature.sigma2) <= IDENTITY_TOL


def _check_distribution(f, n):
    v = np.asarray(f, dtype=float)
    if v.shape != (n,):
        raise ValidationError(f"distribution must have shape ({n},)")
    if not np.all(np.isfinite(v)):
        raise ValidationError("distribution contains non-finite entries")
    if v.min() < -INTERIOR_TOL:
        raise ValidationError("distribution entries must be nonnegative")
    if abs(v.sum() - 1.0) > SUM_TOL:
        raise ValidationError("distribution must sum to 1")
    return np.clip(v, 0.0, None)


def variance(omega, f) -> float:
    """Graph variance ``(1/2) f^T Omega f`` of a distribution."""
    om = _resistance(omega, symmetric=True).omega
    v = _check_distribution(f, om.shape[0])
    return float(0.5 * v @ om @ v)


def verify_kkt(omega, f) -> KktCheck:
    """Check first-order optimality of ``f`` for the variance problem.

    The residual is ``max_j (Omega f)_j - min_{i in supp f} (Omega f)_i``
    clipped at zero: it vanishes exactly when the gradient is constant on
    the support and no larger elsewhere.  It passes at the solvers'
    ``KKT_TOL`` times the largest entry of ``|Omega|``, with no floor, so
    the verdict does not change when ``Omega`` is scaled.
    """
    om = _resistance(omega, symmetric=True).omega
    v = _check_distribution(f, om.shape[0])
    support = np.flatnonzero(v > INTERIOR_TOL)
    if support.size == 0:
        raise ValidationError("distribution has empty support")
    residual = _kkt_residual(om @ v, support)
    return KktCheck(ok=residual <= KKT_TOL * _scale(om),
                    residual=residual, support=support)


def _kkt_residual(g, support):
    """``max_j g_j - min_{i in support} g_i`` clipped at zero."""
    return float(max(0.0, g.max() - g[support].min()))


def _face_points(om, faces):
    """Normalized solutions of ``Omega[V, V] x = 1`` on a stack of faces.

    ``faces`` is a ``(C, k)`` array, one face ``V`` per row.  Returns the
    faces that have a normalized solution, in their order, and those
    solutions: a face has none when it has fewer than two nodes, its block
    is singular, or its solution is not finite or does not sum to a
    positive value.  Whether a point is interior is left to the caller.
    The stack takes one ``np.linalg.solve``.  numpy refuses a whole stack
    when one of its blocks is singular, and then each face is solved on
    its own.
    """
    if faces.shape[1] < 2:
        return faces[:0], np.zeros((0, faces.shape[1]))
    blocks = om[faces[:, :, None], faces[:, None, :]]
    ones = np.ones(faces.shape + (1,))
    try:
        x = np.linalg.solve(blocks, ones)[:, :, 0]
    except np.linalg.LinAlgError:
        x = np.full(faces.shape, np.nan)
        for c in range(len(faces)):
            try:
                x[c] = np.linalg.solve(blocks[c], ones[c])[:, 0]
            except np.linalg.LinAlgError:
                pass
    total = x.sum(axis=1)
    ok = np.isfinite(x).all(axis=1) & (total > 0.0)
    return faces[ok], x[ok] / total[ok, None]


def _certified(om, nodes, fv, tol_cert, method):
    """The solution with ``fv`` on ``nodes`` if its KKT residual passes."""
    f = np.zeros(om.shape[0])
    f[nodes] = fv
    g = om @ f
    residual = _kkt_residual(g, nodes)
    if residual > tol_cert:
        return None
    return MaxVarSolution(f=f, support=nodes, value=float(0.5 * f @ g),
                          kkt_residual=residual, method=method)


def solve_maxvar_exact(omega) -> MaxVarSolution:
    """Certified maximizer by exhaustive support enumeration.

    Scans supports by decreasing size, solves the stationarity system on
    each face, and returns the first strictly positive stationary
    distribution that passes the KKT check (unique by strict concavity on
    the simplex for strict-negative-type ``Omega``).  The faces of one size
    are solved as one stack, by one ``np.linalg.solve``, and read in
    combination order, so the answer is the one a face-by-face scan
    gives.  numpy refuses a whole stack when one of its blocks is
    singular; that stack is then solved face by face, and the singular
    faces are skipped.

    Raises
    ------
    CapacityError
        Above 15 nodes (enumeration is exponential).
    NumericError
        If no face certifies, which signals an invalid resistance matrix.
    """
    om = _resistance(omega, symmetric=True).omega
    n = om.shape[0]
    if n > MAX_EXACT_NODES:
        raise CapacityError(
            f"exact enumeration is capped at {MAX_EXACT_NODES} nodes, got {n}"
        )
    tol_cert = KKT_TOL * _scale(om)
    for size in range(n, 1, -1):
        faces = np.array(list(itertools.combinations(range(n), size)))
        solved, points = _face_points(om, faces)
        interior = points.min(axis=1) > INTERIOR_TOL
        for nodes, fv in zip(solved[interior], points[interior]):
            solution = _certified(om, nodes, fv, tol_cert, "exact")
            if solution is not None:
                return solution
    raise NumericError(
        "no support admits a certified maximizer; "
        "the matrix is not a valid resistance geometry"
    )


def solve_maxvar(omega) -> MaxVarSolution:
    """Maximizer by a primal active-set method over faces of the simplex.

    Starts from all mass on node 0.  While the KKT check fails, the node of
    largest gradient ``(Omega f)_j`` joins the support and the face is
    solved.  An interior face point is accepted; otherwise ``f`` moves toward
    it until the first entry at or below ``INTERIOR_TOL`` reaches zero, that
    node leaves, and the face is solved again.  Strict concavity makes this
    finite, and ``MAX_FACE_SOLVES`` caps the face solves.  The KKT residual
    is certified at ``KKT_TOL`` times the largest entry of ``|Omega|``.

    Raises
    ------
    ValidationError
        If ``omega`` is not a symmetric resistance matrix.
    NumericError
        If a face cannot be solved (not a valid resistance matrix).
    ConvergenceError
        If ``MAX_FACE_SOLVES`` face solves do not certify; carries the
        residual history.
    """
    om = _resistance(omega, symmetric=True).omega
    n = om.shape[0]
    f = np.eye(1, n)[0]
    nodes = np.array([0])
    tol_cert = KKT_TOL * _scale(om)
    history = []
    solves = 0
    while True:
        # f is zero off the support here, so g and the residual are what
        # _certified would compute for it.
        g = om @ f
        history.append(_kkt_residual(g, nodes))
        if history[-1] <= tol_cert:
            return MaxVarSolution(f=f, support=nodes, value=float(0.5 * f @ g),
                                  kkt_residual=history[-1], method="iterative")
        nodes = np.union1d(nodes, [np.argmax(g)])
        while True:
            if solves == MAX_FACE_SOLVES:
                raise ConvergenceError(
                    f"no certified maximizer within {MAX_FACE_SOLVES} face solves "
                    f"(last residual {history[-1]:.3e})", history=history)
            solves += 1
            solved, points = _face_points(om, nodes[None, :])
            if not len(solved):
                raise NumericError("a face system has no normalized solution; "
                                   "the matrix is not a valid resistance geometry")
            fv = points[0]
            low = np.flatnonzero(fv <= INTERIOR_TOL)
            if low.size == 0:
                break
            # Ratio test: the first low entry to reach zero on the segment
            # from f to the face point leaves the support.  Low entries
            # count as zero, so the step never passes the face point.
            start = f[nodes[low]]
            gap = start - np.minimum(fv[low], 0.0)
            ratio = np.zeros(low.size)
            np.divide(start, gap, out=ratio, where=gap > 0.0)
            drop = low[np.argmin(ratio)]
            f[nodes] += ratio.min() * (fv - f[nodes])
            f[nodes[drop]] = 0.0
            nodes = np.delete(nodes, drop)
        f = np.zeros(n)
        f[nodes] = fv


def characterize(solution: MaxVarSolution, source) -> CharacterizationReport:
    """Compare a maximizer against the curvature of its own support.

    ``source`` may be a signed Laplacian, an SCWB directed Laplacian, or
    the resistance matrix itself: a symmetric
    :class:`~resgeo.resistance.ResistanceMatrix`, read as it is, or a raw
    matrix, validated once as one.  The maximizer restricted to its
    support should be that subset's curvature vector, and the optimal
    variance the subset's squared radius.
    """
    if isinstance(source, SignedLaplacianQ):
        omega = resistance_matrix_q(source)
    elif isinstance(source, DirectedLaplacian):
        omega = resistance_matrix_scwb(source)
    else:
        omega = _resistance(source, symmetric=True)
    cr = subset_curvature_radius(omega, solution.support)
    curvature_residual = float(
        np.abs(solution.f[solution.support] - cr.p).max()
    )
    value_residual = float(abs(solution.value - cr.sigma2))
    return CharacterizationReport(
        curvature=cr,
        curvature_residual=curvature_residual,
        value_residual=value_residual,
    )
