"""Kron reduction: eliminate nodes by Schur complement, keep the geometry.

Reducing a Laplacian onto a kept node set ``alpha`` forms the Schur
complement ``L[a, a] - L[a, e] L[e, e]^{-1} L[e, a]`` over the eliminated
block ``e``.  The structural precondition is that every eliminated node
has a directed path into the kept set, which makes the eliminated block a
nonsingular M-matrix.  Every node of a strongly connected graph has such
a path, so the closure that checks it runs only on a graph not known to
be strongly connected.  The result is then again a directed Laplacian on
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
from .linalg import _schur, normalize_indices


@dataclass(frozen=True)
class PreservedFlags:
    """Structural properties of the reduced Laplacian.

    ``row_sums_zero`` and ``offdiag_nonpos`` hold by construction, since
    :func:`kron_reduce` builds the reduced matrix as a directed Laplacian.
    ``weight_balanced`` is read off the reduced columns.
    ``strongly_connected`` is copied from a strongly connected input,
    because Kron reduction keeps strong connectivity, and is computed by
    the two closures otherwise.
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
        node must have a directed path into ``keep``.  That is checked by
        a closure only when ``lap.strongly_connected`` is false.
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
    if not lap.strongly_connected:
        unreachable = np.flatnonzero(~_reached(lap.matrix.T, kept)).tolist()
        if unreachable:
            raise StructureError(
                f"nodes {unreachable} have no directed path into the kept "
                f"set {kept.tolist()}; Kron reduction is undefined"
            )
    # Every eliminated node reaches the kept set, so L[e, e] is a nonsingular
    # M-matrix, which the gate of _gated_solve certifies from its solves.
    # Then L[e, e]^{-1} >= 0, and with L[a, e], L[e, a] <= 0 the eliminated
    # term L[a, e] L[e, e]^{-1} L[e, a] is >= 0 entrywise: every reduced
    # off-diagonal entry is <= 0 up to the solve's roundoff, which the clamp
    # removes.  Clamping in place keeps the sign of a -0.0 entry.
    off = _schur(lap.matrix, kept)
    np.fill_diagonal(off, 0.0)
    off[off > 0.0] = 0.0
    # Kron reduction keeps strong connectivity, so only an input that is
    # not strongly connected needs its reduced graph's closures.
    reduced = DirectedLaplacian._of(-off, lap.strongly_connected or None)
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
    closed under Schur complements onto at least two nodes.  The Schur
    complement ``S`` is symmetric in exact arithmetic, so ``(S + S^T) / 2``
    is what gets revalidated: the class check's asymmetry bound,
    ``ROUNDOFF_TOL`` times ``|S|_max``, then judges the input and not the
    solve's roundoff.  A failed revalidation indicates a numerical
    breakdown, not a bad input.
    """
    kept = normalize_indices(keep, q.n, min_size=2)
    reduced = _schur(q.matrix, kept)
    try:
        return SignedLaplacianQ((reduced + reduced.T) / 2.0)
    except ValidationError as exc:
        raise NumericError(f"Kron reduction left the signed-Laplacian class "
                           f"({exc}): a numerical breakdown") from exc
