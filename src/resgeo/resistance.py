"""Effective resistance and the metric geometry of distance matrices.

For a strongly connected directed graph the resistance between two nodes
is read off the 2x2 Kron reduction onto the pair: ``R(a -> b)`` is the
reciprocal of the reduced diagonal entry at ``a``.  This generalizes the
classical two-point resistance and stays positive, but symmetry is lost
unless the graph is weight-balanced.  In the balanced case the full matrix
has the closed form ``Omega = zeta 1^T + 1 zeta^T - 2 L_s^+`` with
``zeta = diag(L_s^+)``, where ``L_s^+`` is the symmetrized pseudoinverse;
an arbitrary strongly connected graph scales the balanced matrix row-wise
by the balancing vector.  Signed Laplacians get the same closed form with
``Q^+`` in place of ``L_s^+``.

``classify_metric`` places a nonnegative symmetric matrix with zero
diagonal in the negative-type hierarchy through the spectrum of the
centered Gram matrix ``G = -1/2 J D J`` on ``1``-perp, where ``1`` is in its
kernel by construction; distance matrices of strict negative type are
exactly those arising from signed Laplacians, which is what
``q_from_distance`` inverts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    MetricClassificationError,
    NumericError,
    StructureError,
    ValidationError,
)
from .graph import (
    DirectedLaplacian,
    SignedLaplacianQ,
    STRUCTURAL_TOL,
    _shared_sym_pinv,
    weight_balance,
)
from .kron import kron_reduce
from .linalg import _reflected, _scale, as_square, sym_eig

RESISTANCE_KINDS = ("directed_sc", "scwb", "class_q")


@dataclass(frozen=True)
class ResistanceMatrix:
    """Pairwise effective resistances with zero diagonal.

    ``omega[a, b]`` is the resistance from source ``a`` to target ``b``;
    symmetric for kinds ``scwb`` and ``class_q``, generally asymmetric for
    ``directed_sc``.  Off-diagonal entries are strictly positive.
    """

    omega: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in RESISTANCE_KINDS:
            raise ValidationError(f"unknown resistance kind {self.kind!r}")
        m = as_square(self.omega, "omega").copy()
        n = m.shape[0]
        if np.abs(np.diag(m)).max(initial=0.0) > 1e-9 * _scale(m):
            raise ValidationError("resistance matrix must have zero diagonal")
        np.fill_diagonal(m, 0.0)
        off = m + np.diag(np.full(n, np.inf))
        if n > 1 and off.min() <= 0.0:
            raise ValidationError(
                "off-diagonal resistances must be strictly positive"
            )
        if self.kind in ("scwb", "class_q"):
            asym = np.abs(m - m.T).max()
            if asym > 1e-9 * _scale(m):
                raise ValidationError(
                    f"kind {self.kind!r} requires symmetry "
                    f"(deviation {asym:.3e})"
                )
        m.setflags(write=False)
        object.__setattr__(self, "omega", m)

    @property
    def n(self):
        return self.omega.shape[0]


def effective_resistance_directed(lap: DirectedLaplacian, a: int, b: int) -> float:
    """Two-point effective resistance from ``a`` to ``b``.

    Kron-reduces onto ``{a, b}`` and returns the reciprocal of the reduced
    diagonal entry belonging to ``a``.  Requires every other node to have
    a directed path into ``{a, b}`` (guaranteed when the graph is strongly
    connected).
    """
    n = lap.n
    if not (0 <= a < n and 0 <= b < n):
        raise ValidationError(f"nodes ({a}, {b}) outside [0, {n - 1}]")
    if a == b:
        raise ValidationError("effective resistance needs two distinct nodes")
    result = kron_reduce(lap, [a, b])
    pos = 0 if a < b else 1
    diag = result.reduced.matrix[pos, pos]
    if diag <= 0.0:
        raise NumericError(
            f"reduced diagonal entry for node {a} is {diag:.3e}; "
            "resistance is undefined"
        )
    return float(1.0 / diag)


def resistance_matrix_scwb(lap: DirectedLaplacian) -> ResistanceMatrix:
    """Resistance matrix of a strongly connected weight-balanced graph."""
    if not lap.strongly_connected:
        raise StructureError("resistance matrix requires strong connectivity")
    if not lap.weight_balanced:
        raise StructureError(
            "this route requires weight balance; use resistance_matrix_sc"
        )
    return ResistanceMatrix(_omega_from_kernel(_shared_sym_pinv(lap)),
                            kind="scwb")


def resistance_matrix_sc(lap: DirectedLaplacian) -> ResistanceMatrix:
    """Resistance matrix of an arbitrary strongly connected graph.

    Balances the graph first; the directed matrix is the row-wise scaling
    ``diag(m) @ Omega_balanced`` by the balancing vector ``m``.  For an
    already balanced graph this coincides with the symmetric route and the
    symmetric kind is returned.  The balancing and ``L_s^+`` of the balanced
    graph are the ones kept on ``lap``; neither is recomputed.
    """
    if not lap.strongly_connected:
        raise StructureError("resistance matrix requires strong connectivity")
    if lap.weight_balanced:
        return resistance_matrix_scwb(lap)
    balancing = weight_balance(lap)
    omega_wb = _omega_from_kernel(_shared_sym_pinv(balancing.balanced))
    return ResistanceMatrix(balancing.m[:, None] * omega_wb, kind="directed_sc")


def resistance_matrix_q(q: SignedLaplacianQ) -> ResistanceMatrix:
    """Resistance matrix of a signed Laplacian from its stored ``Q^+``."""
    return ResistanceMatrix(_omega_from_kernel(q.pinv), kind="class_q")


def _omega_from_kernel(kernel_matrix):
    """``zeta 1^T + 1 zeta^T - 2 K`` with an exactly zero diagonal."""
    zeta = np.diag(kernel_matrix).copy()
    omega = zeta[None, :] + zeta[:, None] - 2.0 * kernel_matrix
    np.fill_diagonal(omega, 0.0)
    return omega


METRIC_LABELS = (
    "not_negative_type",
    "negative_type",
    "strict_negative_type",
    "resistance_metric",
)


@dataclass(frozen=True)
class MetricClass:
    """Position of a distance matrix in the negative-type hierarchy.

    ``witness`` certifies non-strict labels: a direction of positive Gram
    energy for ``not_negative_type``, or a kernel direction orthogonal to
    the all-ones vector for ``negative_type``.
    """

    label: str
    witness: np.ndarray | None


def classify_metric(distance) -> MetricClass:
    """Classify a squared-distance matrix by its centered Gram spectrum.

    ``distance`` is a symmetric nonnegative matrix with zero diagonal
    (entries are squared distances).  The ``n - 1`` eigenvalues of the
    centered Gram matrix on ``1``-perp count as zero within the fixed
    ``STRUCTURAL_TOL`` times the largest.  The label is
    ``not_negative_type`` if one is negative, ``negative_type`` if one is
    zero (the Gram kernel is larger than ``span(1)``), and otherwise
    ``strict_negative_type``, upgraded to ``resistance_metric`` when the
    Gram pseudoinverse has no off-diagonal entry above ``STRUCTURAL_TOL``
    (an unsigned Laplacian).  Witnesses are unit vectors orthogonal to 1.
    """
    return _classify(distance)[0]


def _classify(distance):
    """:func:`classify_metric` plus the Gram pseudoinverse from its one
    ``eigh`` (``None`` unless the label is strict).

    With the reflector ``H`` of :func:`~resgeo.linalg._reflected`,
    ``H G H = diag(B, 0)`` for the leading ``(n-1) x (n-1)`` block ``B`` of
    ``-1/2 H D H``.  Only ``B`` is factored, and ``G^+ = H diag(B^-1, 0) H``
    has rows summing to zero at roundoff in its entries, not in ``cond(G)``.
    """
    d = as_square(distance, "distance")
    n = d.shape[0]
    scale = _scale(d)
    if np.abs(d - d.T).max(initial=0.0) > 1e-12 * scale:
        raise ValidationError("distance matrix must be symmetric")
    if np.abs(np.diag(d)).max(initial=0.0) > STRUCTURAL_TOL * scale:
        raise ValidationError("distance matrix must have zero diagonal")
    if d.min() < -STRUCTURAL_TOL * scale:
        raise ValidationError("distance matrix must be nonnegative")
    eig = sym_eig(-0.5 * _reflected(d)[:-1, :-1])
    w = eig.values
    thr = STRUCTURAL_TOL * (float(np.abs(w).max()) if w.size else 0.0)
    if w.size and w[-1] <= thr:
        # The smallest eigenvalue is negative, or zero: an extra kernel
        # direction.  H maps its eigenvector, padded with a 0, into 1-perp.
        witness = _reflected(np.append(eig.vectors[:, -1], 0.0))
        label = "not_negative_type" if w[-1] < -thr else "negative_type"
        return MetricClass(label=label, witness=witness), None
    gram_pinv = np.zeros((n, n))
    gram_pinv[:-1, :-1] = eig.pinv()
    gram_pinv = _reflected(gram_pinv)
    gram_pinv = (gram_pinv + gram_pinv.T) / 2.0
    off = gram_pinv - np.diag(np.diag(gram_pinv))
    if off.max(initial=0.0) <= STRUCTURAL_TOL:
        return MetricClass(label="resistance_metric", witness=None), gram_pinv
    return MetricClass(label="strict_negative_type", witness=None), gram_pinv


def q_from_distance(distance) -> SignedLaplacianQ:
    """Recover the signed Laplacian generating a strict-negative-type metric.

    Inverts the resistance-matrix construction: the pseudoinverse of the
    centered Gram matrix of a strict-negative-type squared-distance matrix
    is a signed Laplacian whose resistance matrix is the input.  It is
    formed on ``1``-perp, so its rows sum to zero at roundoff.

    Raises
    ------
    MetricClassificationError
        If the input is not of strict negative type; carries the label and
        witness from classification.
    NumericError
        If the recovered matrix fails the checks of
        :class:`~resgeo.graph.SignedLaplacianQ`.
    """
    mc, q = _classify(distance)
    if mc.label not in ("strict_negative_type", "resistance_metric"):
        raise MetricClassificationError(
            f"distance matrix is {mc.label}; a signed Laplacian exists only "
            "for strict negative type",
            label=mc.label,
            witness=mc.witness,
        )
    try:
        return SignedLaplacianQ(q)
    except ValidationError as exc:
        raise NumericError(f"recovered matrix failed validation ({exc})") from exc
