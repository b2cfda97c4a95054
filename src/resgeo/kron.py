"""Kron reduction: eliminate nodes by Schur complement, keep the geometry.

Reducing a Laplacian onto a kept node set ``alpha`` forms the Schur
complement ``L[a, a] - L[a, e] L[e, e]^{-1} L[e, a]`` over the eliminated
block ``e``.  For strongly connected graphs the result is again a directed
Laplacian on the kept nodes; strong connectivity, weight balance, and
effective resistances between kept nodes are preserved.  The structural
precondition is that every eliminated node has a directed path into the
kept set, which makes the eliminated block invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StructureError, ValidationError
from .graph import (
    DirectedLaplacian,
    SignedLaplacianQ,
    _reached,
    _scale,
    validate_class_q,
)
from .linalg import normalize_indices, schur_complement


@dataclass(frozen=True)
class PreservedFlags:
    """Structural properties checked on the raw reduced matrix."""

    row_sums_zero: bool
    offdiag_nonpos: bool
    weight_balanced: bool
    strongly_connected: bool


@dataclass(frozen=True)
class KronResult:
    """Reduced Laplacian, the kept nodes (ascending), and preserved flags."""

    reduced: DirectedLaplacian
    kept: np.ndarray
    preserved: PreservedFlags


def kron_reduce(lap: DirectedLaplacian, keep) -> KronResult:
    """Reduce a directed Laplacian onto the kept node set.

    Parameters
    ----------
    lap : DirectedLaplacian
        Input graph; need not be strongly connected, but every eliminated
        node must have a directed path into ``keep``.
    keep : iterable of int
        At least two node indices to retain (0-based).

    Returns
    -------
    KronResult
        The reduced Laplacian with rows/columns in ascending kept order,
        plus flags recording which structural properties survived.

    Raises
    ------
    StructureError
        If some eliminated node cannot reach the kept set; the message
        lists the unreachable nodes.
    DegenerateBlockError
        If the eliminated block is numerically singular anyway.
    NumericError
        If the reduced matrix fails the checks of :class:`DirectedLaplacian`;
        for a valid input that is a numerical breakdown.
    """
    kept = normalize_indices(keep, lap.n, min_size=2)
    unreachable = np.flatnonzero(~_reached(lap.matrix.T, kept)).tolist()
    if unreachable:
        raise StructureError(
            f"nodes {unreachable} have no directed path into the kept set "
            f"{kept.tolist()}; Kron reduction is undefined"
        )
    raw = schur_complement(lap.matrix, kept)
    scale = _scale(raw)
    off = raw.copy()
    np.fill_diagonal(off, 0.0)
    row_sums_zero = bool(np.abs(raw.sum(axis=1)).max() <= 1e-10 * scale)
    offdiag_nonpos = bool(off.size == 0 or off.max() <= 1e-12 * scale)
    # Roundoff can leave off-diagonal entries a hair above zero; clamp them
    # so the result parses as a Laplacian.  Anything larger is a real
    # positive entry and construction below will reject it.
    clamped = raw.copy()
    mask = (off > 0.0) & (off <= 1e-12 * scale)
    clamped[mask] = 0.0
    try:
        reduced = DirectedLaplacian(clamped)
    except ValidationError as exc:
        raise NumericError(f"Kron reduction left the directed-Laplacian "
                           f"class ({exc}): a numerical breakdown") from exc
    flags = PreservedFlags(
        row_sums_zero=row_sums_zero,
        offdiag_nonpos=offdiag_nonpos,
        weight_balanced=reduced.weight_balanced,
        strongly_connected=reduced.strongly_connected,
    )
    return KronResult(reduced=reduced, kept=kept, preserved=flags)


def kron_reduce_q(q: SignedLaplacianQ, keep) -> SignedLaplacianQ:
    """Kron reduction within the signed-Laplacian class.

    The class (symmetric PSD, kernel ``span(1)``, positive diagonal) is
    closed under Schur complements onto at least two nodes, so a failed
    revalidation here indicates a numerical breakdown, not a bad input.
    """
    kept = normalize_indices(keep, q.n, min_size=2)
    raw = schur_complement(q.matrix, kept)
    report = validate_class_q(raw)
    if not report.ok:
        raise NumericError(
            "reduced matrix left the signed-Laplacian class "
            f"({report.failure}); this should not happen and indicates a "
            f"numerical breakdown (details: {report.details})"
        )
    return report.laplacian
