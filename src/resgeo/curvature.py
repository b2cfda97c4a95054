"""Resistance curvature and radius through the Fiedler-Bapat identity.

A connected undirected graph embeds as a simplex whose squared vertex
distances are the effective resistances; Fiedler's block identity ties the
resistance matrix ``Omega`` to the Laplacian, the simplex circumcenter
(barycentric coordinates ``p``, the curvature vector) and circumradius
(``sigma^2``).  The identity generalizes to strongly connected
weight-balanced directed graphs with the pseudoinverse of the symmetrized
pseudoinverse ``(L_s^+)^+`` in the Laplacian slot,

    [[0, 1^T], [1, Omega]] @ [[4 sigma^2, -2 p^T], [-2 p, (L_s^+)^+]]
        = -2 I,

with ``p = (1/2) (L_s^+)^+ zeta + 1/n`` and
``sigma^2 = (1/4) zeta^T (L_s^+)^+ zeta + 1^T zeta / n`` for
``zeta = diag(L_s^+)``, and verbatim to signed Laplacians with ``Q`` in
place of ``(L_s^+)^+``.  The gated solve ``p = Omega^{-1} 1 /
(1^T Omega^{-1} 1)``, ``sigma^2 = 1 / (2 * 1^T Omega^{-1} 1)`` serves
proper subsets (``subset_curvature_radius``) and ``curvature_radius_sc``,
which reads any strongly connected graph's asymmetric resistance matrix
and needs no balanced graph's ``(L_s^+)^+``.

This module also covers how the pair ``(p, sigma^2)`` moves under weight
balancing and under Kron reduction, and the subset radius function
``V -> sigma^2(V)`` read off principal blocks of ``Omega``.

Two commutation facts get executable form here: pseudoinverse-of-
symmetrized-pseudoinverse commutes with Kron reduction
(``check_commutativity``), while the symmetrized pseudoinverse itself does
not (``check_noncommutativity``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .graph import (
    DirectedLaplacian,
    SignedLaplacianQ,
    _classify_q,
    _require,
    _shared_kernel,
    _shared_sym_pinv,
    sym_pinv,
)
from .kron import kron_reduce
from .linalg import (
    IDENTITY_TOL,
    ROUNDOFF_TOL,
    SUM_TOL,
    _scale,
    _schur,
    normalize_indices,
    solve_conditioned,
)
from .resistance import (
    _omega_from_kernel,
    _resistance,
    resistance_matrix_sc,
)


@dataclass(frozen=True)
class CurvatureRadius:
    """Curvature vector ``p`` (sums to one) and squared radius ``sigma2``.

    ``zeta`` carries the diagonal of the kernel matrix (``L_s^+`` or
    ``Q^+``) when the computation route produced it, else ``None``.
    """

    p: np.ndarray
    sigma2: float
    zeta: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1:
            raise ValidationError("curvature vector must be 1-dimensional")
        total = p.sum()
        if abs(total - 1.0) > SUM_TOL * max(1.0, _scale(p)):
            raise ValidationError(
                f"curvature vector must sum to 1, got {total!r}"
            )
        if not self.sigma2 > 0.0:
            raise ValidationError(
                f"squared radius must be positive, got {self.sigma2!r}"
            )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "sigma2", float(self.sigma2))


@dataclass(frozen=True)
class FiedlerBapat:
    """Both blocks of the Fiedler-Bapat identity and their product residual.

    ``lhs @ (-2 * rhs) + 2 I`` should vanish; ``residual`` is its largest
    absolute entry.  ``scaled_residual`` is the largest absolute entry of
    the same residual with ``Omega`` and ``sigma^2`` divided by
    ``c = 2^round(log2 |Omega|_max)`` and ``(L_s^+)^+`` (or ``Q``)
    multiplied by ``c``: every block is then of unit scale, and scaling
    the weights by a power of two leaves it unchanged.  ``passed``
    compares ``scaled_residual`` with ``IDENTITY_TOL``.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    residual: float
    scaled_residual: float

    @property
    def passed(self) -> bool:
        return self.scaled_residual <= IDENTITY_TOL


@dataclass(frozen=True)
class CommutativityCheck:
    """Schur complement of ``(L_s^+)^+`` versus ``((L/e)_s^+)^+``.

    ``residual`` is the largest absolute entry of ``lhs - rhs``; ``passed``
    compares it with ``IDENTITY_TOL`` times the largest entry of ``lhs``.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    residual: float

    @property
    def passed(self) -> bool:
        return self.residual <= IDENTITY_TOL * _scale(self.lhs)


@dataclass(frozen=True)
class NoncommutativityWitness:
    """The two sides of the non-commuting square, with their difference.

    ``lhs`` is the Schur complement of the symmetrized pseudoinverse;
    ``rhs`` is the symmetrized pseudoinverse of the Kron reduction;
    ``difference`` is their max-norm gap.  No pass/fail: for genuinely
    directed graphs the two differ.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    difference: float


def undirect(lap: DirectedLaplacian) -> SignedLaplacianQ:
    """Map an SCWB directed Laplacian to its undirected counterpart.

    Returns ``(L_s^+)^+``, the pseudoinverse of the symmetrized
    pseudoinverse: a symmetric PSD matrix with kernel ``span(1)`` and
    positive diagonal, i.e. the Laplacian of a connected undirected graph
    that shares all resistance geometry with the input.  Edge weights may
    come out negative, which is exactly why the signed class is needed.
    """
    _require(lap, "undirect", balanced=True)
    # Checking K apart from building Q factors it twice where the
    # constructor alone would once; the benchmark's tracer test pins
    # undirect at two eigh calls on a fresh object.
    failure, _, checked = _classify_q(_shared_kernel(lap))
    if failure is not None:
        raise NumericError(
            f"undirected image failed validation ({failure}); "
            "this indicates a numerical breakdown"
        )
    return SignedLaplacianQ(checked[0])


def _closed_form(source):
    """``(kernel, kernel_pinv, zeta, p, sigma2)`` from ``Q`` and ``Q^+``, or
    from the kept ``K`` and ``L_s^+``, by one formula for both classes:
    the closed form with ``K`` multiplied through the centering ``J``.  It
    equals the plain form since ``K 1 = 0``, and it drops the roundoff a
    computed ``K`` or ``Q`` carries along ``1``, which ``K zeta`` adds to
    ``sum(p)``."""
    if isinstance(source, SignedLaplacianQ):
        kernel, kernel_pinv = source.matrix, source.pinv
    elif isinstance(source, DirectedLaplacian):
        _require(source, "the Fiedler-Bapat closed form", balanced=True)
        kernel, kernel_pinv = _shared_kernel(source), _shared_sym_pinv(source)
    else:
        raise ValidationError("expected a DirectedLaplacian or "
                              f"SignedLaplacianQ, got {type(source).__name__}")
    zeta, n = np.diag(kernel_pinv).copy(), source.n
    kz = kernel @ (zeta - zeta.mean())  # J K J zeta
    kz -= kz.mean()
    p, sigma2 = 0.5 * kz + 1.0 / n, float(0.25 * zeta @ kz + zeta.mean())
    return kernel, kernel_pinv, zeta, p, sigma2


def curvature_radius_scwb(lap: DirectedLaplacian) -> CurvatureRadius:
    """Curvature and squared radius of an SCWB graph, closed form."""
    _, _, zeta, p, sigma2 = _closed_form(lap)
    return CurvatureRadius(p=p, sigma2=sigma2, zeta=zeta)


def verify_fiedler_bapat(source) -> FiedlerBapat:
    """Assemble both blocks of the Fiedler-Bapat identity and multiply.

    Accepts an SCWB directed Laplacian or a signed Laplacian.  This is an
    independent check of the closed-form curvature and radius: the block
    product is formed explicitly and compared against ``-2 I``.

    Scaling ``Omega`` and ``sigma^2`` by ``1/c`` and the kernel by ``c``,
    for ``c`` a power of two, is exact: it multiplies the residual's top
    right block by ``c``, its bottom left block by ``1/c``, and leaves the
    diagonal blocks bit for bit.  So one product gives both residuals.
    """
    kernel, kernel_pinv, _, p, sigma2 = _closed_form(source)
    ones = np.ones((1, kernel.shape[0]))
    lhs = np.block([[0.0, ones], [ones.T, _omega_from_kernel(kernel_pinv)]])
    core = np.block([[4.0 * sigma2, -2.0 * p[None, :]],
                     [-2.0 * p[:, None], kernel]])
    # In place: the product is the only (n+1)^2 temporary.
    r = lhs @ core
    r[np.diag_indices_from(r)] += 2.0
    np.abs(r, out=r)
    c = 2.0 ** round(math.log2(_scale(lhs[1:, 1:])))
    corner, diagonal = r[0, 0], r[1:, 1:].max()
    top, left = r[0, 1:].max(), r[1:, 0].max()
    return FiedlerBapat(lhs=lhs, rhs=-0.5 * core,
                        residual=float(max(corner, top, left, diagonal)),
                        scaled_residual=float(max(corner, c * top, left / c,
                                                  diagonal)))


def _solved(omega, what):
    """Gated ``x = Omega^{-1} 1``: ``p = x / 1^T x``, ``sigma2 = 1/(2 1^T x)``."""
    x = solve_conditioned(omega, np.ones(omega.shape[0]), what=what)
    denom = float(x.sum())
    if denom <= 0.0:
        raise NumericError(
            f"1^T Omega^{{-1}} 1 = {denom:.3e} is not positive for the {what}; "
            "it is not a valid resistance geometry"
        )
    return CurvatureRadius(p=x / denom, sigma2=1.0 / (2.0 * denom))


def subset_curvature_radius(omega, subset) -> CurvatureRadius:
    """Curvature and radius of a principal block of a resistance matrix.

    ``p = Omega[V,V]^{-1} 1 / s`` and ``sigma2 = 1 / (2 s)`` with
    ``s = 1^T Omega[V,V]^{-1} 1``; the curvature vector is indexed by the
    subset in ascending order.  Needs at least two nodes.  A raw ``omega``
    is validated as a :class:`~resgeo.resistance.ResistanceMatrix`.
    """
    om = _resistance(omega).omega
    sub = normalize_indices(subset, om.shape[0], min_size=2, name="subset")
    return _solved(om[np.ix_(sub, sub)], "resistance principal block")


def curvature_radius_sc(lap: DirectedLaplacian) -> CurvatureRadius:
    """Curvature and radius of a strongly connected graph.

    Defined through the (generally asymmetric) directed resistance matrix;
    agrees with the closed-form SCWB route whenever the graph happens to
    be weight-balanced.
    """
    return _solved(resistance_matrix_sc(lap).omega, "resistance matrix")


def wb_transform(cr: CurvatureRadius, m, omega) -> CurvatureRadius:
    """Transport curvature/radius along a weight balancing.

    Given the curvature pair of a strongly connected graph, its balancing
    vector ``m`` and its directed resistance matrix ``omega``, returns the
    pair of the balanced graph:

        p'      = Omega^{-1} M Omega p / d,
        sigma'^2 = sigma^2 / d,          d = 1^T Omega^{-1} M Omega p.

    Applying the same map with ``1/m`` (and the same ``omega``) inverts it.
    A raw ``omega`` is validated as a
    :class:`~resgeo.resistance.ResistanceMatrix`.
    """
    om = _resistance(omega).omega
    scaling = np.asarray(m, dtype=float)
    if scaling.ndim != 1 or scaling.size != om.shape[0]:
        raise ValidationError("balancing vector has wrong shape")
    if scaling.min() <= 0.0:
        raise ValidationError("balancing vector must be strictly positive")
    y = solve_conditioned(om, scaling * (om @ cr.p), what="resistance matrix")
    d = float(y.sum())
    if abs(d) <= ROUNDOFF_TOL:
        raise NumericError("degenerate balancing transform (denominator ~ 0)")
    return CurvatureRadius(p=y / d, sigma2=cr.sigma2 / d, zeta=None)


def check_commutativity(lap: DirectedLaplacian, keep) -> CommutativityCheck:
    """Undirecting then reducing versus reducing then undirecting.

    Both routes end at the same matrix: the Schur complement of
    ``(L_s^+)^+`` onto the kept nodes equals ``((L/e)_s^+)^+`` of the
    Kron-reduced graph.  The check passes when their largest difference
    is at most ``IDENTITY_TOL`` times the largest entry of the first.
    Both sides are the ``(L_s^+)^+`` kept on each graph; the reduced graph
    of a balanced one is balanced, and neither is validated as a
    :class:`~resgeo.graph.SignedLaplacianQ`.
    """
    _require(lap, "check_commutativity", balanced=True)
    kept = normalize_indices(keep, lap.n, min_size=2)
    lhs = _schur(_shared_kernel(lap), kept)
    rhs = _shared_kernel(kron_reduce(lap, kept).reduced)
    residual = float(np.abs(lhs - rhs).max())
    return CommutativityCheck(lhs=lhs, rhs=rhs, residual=residual)


def check_noncommutativity(lap: DirectedLaplacian, keep) -> NoncommutativityWitness:
    """The symmetrized pseudoinverse does not commute with reduction.

    Returns the Schur complement of ``L_s^+`` and the symmetrized
    pseudoinverse of the reduced graph side by side.  For undirected
    inputs the two coincide; for genuinely directed graphs they differ.
    """
    kept = normalize_indices(keep, lap.n, min_size=2)
    lhs = _schur(_shared_sym_pinv(lap), kept)
    rhs = sym_pinv(kron_reduce(lap, kept).reduced)
    return NoncommutativityWitness(
        lhs=lhs, rhs=rhs, difference=float(np.abs(lhs - rhs).max())
    )


def reduce_curvature_radius(lap: DirectedLaplacian, keep) -> CurvatureRadius:
    """Curvature and radius of the Kron reduction, without reducing.

    Eliminating the block ``e`` updates the pair by a Schur-type step on
    ``K = (L_s^+)^+``:

        p_red      = p[a] - K[a, e] K[e, e]^{-1} p[e],
        sigma2_red = sigma^2 - p[e]^T K[e, e]^{-1} p[e].

    Matches ``curvature_radius_scwb(kron_reduce(lap, keep).reduced)``.
    """
    kept = normalize_indices(keep, lap.n, min_size=2)
    kernel, _, zeta, p, sigma2 = _closed_form(lap)
    elim = np.setdiff1d(np.arange(lap.n), kept)
    if elim.size == 0:
        return CurvatureRadius(p=p, sigma2=sigma2, zeta=zeta)
    y = solve_conditioned(kernel[np.ix_(elim, elim)], p[elim],
                          what="eliminated block")
    p_red = p[kept] - kernel[np.ix_(kept, elim)] @ y
    sigma2_red = sigma2 - float(p[elim] @ y)
    return CurvatureRadius(p=p_red, sigma2=sigma2_red, zeta=None)


def curvature_radius_q(q: SignedLaplacianQ) -> CurvatureRadius:
    """Curvature and radius of a signed Laplacian, closed form.

    The Fiedler-Bapat closed form in ``Q`` and ``Q^+``, which also reports
    ``zeta = diag(Q^+)``.  A subset's pair is read off the principal block
    of the resistance matrix:
    ``subset_curvature_radius(resistance_matrix_q(q), subset)``.
    """
    _, _, zeta, p, sigma2 = _closed_form(q)
    return CurvatureRadius(p=p, sigma2=sigma2, zeta=zeta)
