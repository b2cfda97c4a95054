"""Kron reduction: eliminate nodes by Schur complement, keep the geometry.

Reducing a Laplacian onto a kept node set ``alpha`` forms the Schur
complement ``L[a, a] - L[a, e] L[e, e]^{-1} L[e, a]`` over the eliminated
block ``e``.  The structural precondition is that every eliminated node
has a directed path into the kept set, which makes the eliminated block a
nonsingular M-matrix.  The result is then again a directed Laplacian on
the kept nodes, and :func:`kron_reduce` builds it as one: the reduced
edge weights are the complement's off-diagonal entries, and the diagonal
is minus their row sums, so the diagonal's cancellation is never
computed.  Strong connectivity, weight balance, and effective resistances
between kept nodes are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StructureError, ValidationError
from .graph import DirectedLaplacian, SignedLaplacianQ, _reached
from .linalg import normalize_indices, schur_complement


@dataclass(frozen=True)
class PreservedFlags:
    """Structural properties of the reduced Laplacian.

    ``row_sums_zero`` and ``offdiag_nonpos`` hold by construction, since
    :func:`kron_reduce` builds the reduced matrix as a directed Laplacian;
    ``weight_balanced`` and ``strongly_connected`` are read off it.
    """

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
        If the eliminated block is numerically singular or ill-conditioned
        anyway.
    """
    kept = normalize_indices(keep, lap.n, min_size=2)
    unreachable = np.flatnonzero(~_reached(lap.matrix.T, kept)).tolist()
    if unreachable:
        raise StructureError(
            f"nodes {unreachable} have no directed path into the kept set "
            f"{kept.tolist()}; Kron reduction is undefined"
        )
    # Every eliminated node reaches the kept set, so L[e, e] is a nonsingular
    # M-matrix, which the gate of _gated_solve certifies from its solves.
    # Then L[e, e]^{-1} >= 0, and with L[a, e], L[e, a] <= 0 the eliminated
    # term L[a, e] L[e, e]^{-1} L[e, a] is >= 0 entrywise: every reduced
    # off-diagonal entry is <= 0 up to the solve's roundoff, which the clamp
    # removes.  Clamping in place keeps the sign of a -0.0 entry.
    off = schur_complement(lap.matrix, kept)
    np.fill_diagonal(off, 0.0)
    off[off > 0.0] = 0.0
    reduced = DirectedLaplacian(off - np.diag(off.sum(axis=1)))
    flags = PreservedFlags(
        row_sums_zero=True,
        offdiag_nonpos=True,
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
    try:
        return SignedLaplacianQ(schur_complement(q.matrix, kept))
    except ValidationError as exc:
        raise NumericError(f"Kron reduction left the signed-Laplacian class "
                           f"({exc}): a numerical breakdown") from exc
