"""Laplacian types and structural predicates for directed and signed graphs.

Two matrix classes anchor the package.  :class:`DirectedLaplacian` holds the
Laplacian of a weighted directed graph: nonpositive off-diagonal entries
(``L[i, j] = -w(i -> j)``) and zero row sums, with the diagonal always
recomputed from the off-diagonal part so the zero-row-sum property is
enforced rather than trusted.  :class:`SignedLaplacianQ` holds a symmetric
Laplacian that is positive semidefinite with kernel exactly ``span(1)`` and
strictly positive diagonal; off-diagonal entries of either sign are allowed.
Matrices of this class arise as pseudoinverses of symmetrized pseudoinverse
Laplacians of strongly connected weight-balanced graphs, and they are the
natural domain for resistance geometry on signed graphs.

Edge existence is decided by exact nonzero weight; no epsilon thresholding
is applied to the sparsity pattern.  Every structural question is one
closure: the set of nodes a directed search from a seed set reaches.  A
graph is strongly connected when the forward and the backward closure of
node 0 each cover every node, and Kron reduction onto a kept set is defined
when the backward closure of that set (the nodes with a path into it)
covers every node.

A :class:`DirectedLaplacian` is immutable, so the factorizations every
directed quantity derives from are computed at most once per object and
kept on it: the balancing that :func:`weight_balance` returns, the
symmetrized pseudoinverse ``L_s^+`` behind :func:`sym_pinv`, and
``K = (L_s^+)^+``, read by the curvature identity and ``undirect``.  The
kept arrays are read-only; :func:`sym_pinv` hands out a writable copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StructureError, ValidationError
from .linalg import (
    COND_LIMIT,
    _scale,
    as_square,
    normalize_indices,
    pseudoinverse,
    sym_eig,
)

#: Fixed tolerance of the structural predicates (weight balance, class
#: membership, metric classification); scale-aware, applied as
#: ``STRUCTURAL_TOL * max(1, |A|_max)`` or relative to a spectrum's peak.
STRUCTURAL_TOL = 1e-9


def _reached(matrix, seeds):
    """Boolean mask of the nodes that directed paths from ``seeds`` reach.

    An edge ``i -> j`` is an exactly nonzero off-diagonal entry
    ``matrix[i, j]`` (diagonal entries are self-loops and change nothing);
    pass ``matrix.T`` to get the nodes with a path into ``seeds`` instead.
    The search goes level by level: each step marks the unseen nodes that
    an edge from the last level's nodes enters, so it takes as many steps
    as the longest shortest path from ``seeds`` (one on a dense graph).
    It stops when a level adds nothing or every node is marked.
    """
    edges = matrix != 0.0
    seen = np.zeros(matrix.shape[0], dtype=bool)
    seen[seeds] = True
    new = seen
    while not seen.all() and new.any():
        new = edges[new].any(axis=0) & ~seen
        seen |= new
    return seen


class DirectedLaplacian:
    """Laplacian of a weighted directed graph without self-loops.

    The stored matrix is read-only; its diagonal equals minus the row sum
    of the off-diagonal part by construction.  Strong connectivity and
    weight balance are computed once at construction and cached: the
    graph is strongly connected when the forward and the backward closure
    of node 0 both cover every node (a single node counts as connected),
    and weight balanced when every column sum vanishes within
    ``STRUCTURAL_TOL`` of the matrix scale.

    Three factorizations are filled in on first use and then shared by
    every function that derives from them: the :class:`WeightBalancing`
    of :func:`weight_balance`, ``L_s^+`` of :func:`sym_pinv` and its
    pseudoinverse ``(L_s^+)^+``.  They sit in private slots, their arrays
    are read-only, and a failed computation is not kept.

    Raises
    ------
    ValidationError
        If an off-diagonal entry is positive or a row sum is nonzero
        beyond ``1e-12`` (relative to the matrix magnitude).
    """

    __slots__ = ("matrix", "n", "strongly_connected", "weight_balanced",
                 "_balancing", "_sym_pinv", "_kernel")

    def __init__(self, matrix):
        m = as_square(matrix, "laplacian").copy()
        n = m.shape[0]
        if n < 1:
            raise ValidationError("laplacian must have at least one node")
        scale = _scale(m)
        rowsum = np.abs(m.sum(axis=1)).max()
        np.fill_diagonal(m, 0.0)
        if m.max() > 0.0:
            i, j = np.unravel_index(np.argmax(m), m.shape)
            raise ValidationError(
                f"off-diagonal entry ({i}, {j}) = {m[i, j]:.6e} is positive; "
                "directed edge weights enter as nonpositive entries"
            )
        if rowsum > 1e-12 * scale:
            raise ValidationError(
                f"row sums deviate from zero by {rowsum:.3e}"
            )
        np.fill_diagonal(m, -m.sum(axis=1))
        m.setflags(write=False)
        self.matrix = m
        self.n = n
        self.strongly_connected = bool(
            _reached(m, [0]).all() and _reached(m.T, [0]).all()
        )
        self.weight_balanced = bool(
            np.abs(m.sum(axis=0)).max() <= STRUCTURAL_TOL * _scale(m)
        )
        self._balancing = self._sym_pinv = self._kernel = None

    def __repr__(self):
        flags = []
        if self.strongly_connected:
            flags.append("SC")
        if self.weight_balanced:
            flags.append("WB")
        tag = ",".join(flags) if flags else "general"
        return f"DirectedLaplacian(n={self.n}, {tag})"


class SignedLaplacianQ:
    """Symmetric signed Laplacian: PSD, kernel exactly ``span(1)``,
    strictly positive diagonal, off-diagonal entries of either sign.

    The diagonal is recomputed from the off-diagonal part so row sums are
    zero by construction.  ``Q`` carries ``eig``, the eigendecomposition
    its validation computed, and ``pinv = Q^+`` formed from it; everything
    derived from ``Q`` reads these, so the embedding's ``B^T B = Q^+``
    holds by construction.  ``matrix``, ``eig`` and ``pinv`` are read-only.
    """

    __slots__ = ("matrix", "n", "eig", "pinv")

    def __init__(self, matrix):
        failure, _, checked = _classify_q(matrix)
        if failure is not None:
            raise ValidationError(f"not a valid signed Laplacian: {failure}")
        cleaned, eig = checked
        pinv = eig.pinv()
        for array in (cleaned, eig.values, eig.vectors, pinv):
            array.setflags(write=False)
        self.matrix, self.eig, self.pinv = cleaned, eig, pinv
        self.n = cleaned.shape[0]

    def __repr__(self):
        off = self.matrix - np.diag(np.diag(self.matrix))
        kind = "signed" if off.size and off.max() > 0 else "unsigned"
        return f"SignedLaplacianQ(n={self.n}, {kind})"


def _classify_q(matrix):
    """Signed-Laplacian class checks, behind ``SignedLaplacianQ``.

    Returns ``(failure, details, checked)``.  ``failure`` is ``None`` on
    success, otherwise the reason string of the first check that fails
    (asymmetry, nonzero row sums, indefiniteness, oversized kernel,
    nonpositive diagonal).  ``details`` holds the residuals behind the
    verdict, and ``checked`` is the pair of the symmetrized matrix with
    recomputed diagonal and its eigendecomposition (``None`` on failure).
    Callers that report a failure rather than raise read it from here.
    """
    try:
        m = as_square(matrix, "matrix")
    except ValidationError as exc:
        return str(exc), {}, None
    n = m.shape[0]
    if n < 1:
        return "matrix must have at least one node", {}, None
    scale = _scale(m)
    details = {}
    asym = float(np.abs(m - m.T).max())
    details["asymmetry"] = asym
    if asym > 1e-12 * scale:
        return f"asymmetric (max deviation {asym:.3e})", details, None
    sym = (m + m.T) / 2.0
    rowsum = float(np.abs(sym.sum(axis=1)).max())
    details["row_sum"] = rowsum
    if rowsum > STRUCTURAL_TOL * scale:
        return f"row sums deviate from zero by {rowsum:.3e}", details, None
    cleaned = sym.copy()
    off = cleaned.copy()
    np.fill_diagonal(off, 0.0)
    np.fill_diagonal(cleaned, -off.sum(axis=1))
    eig = sym_eig(cleaned)
    w = eig.values
    peak = float(np.abs(w).max())
    details["eigenvalue_min"] = float(w[-1])
    if peak == 0.0:
        kernel = n
    else:
        if w[-1] < -STRUCTURAL_TOL * peak:
            return (f"not positive semidefinite (eigenvalue {w[-1]:.3e})",
                    details, None)
        kernel = int(np.sum(np.abs(w) <= STRUCTURAL_TOL * peak))
    details["kernel_dimension"] = kernel
    if kernel != 1:
        return (f"kernel has dimension {kernel}, expected exactly span(1)",
                details, None)
    dmin = float(np.diag(cleaned).min())
    details["diagonal_min"] = dmin
    if dmin <= 0.0:
        return f"diagonal entry {dmin:.3e} is not positive", details, None
    return None, details, (cleaned, eig)


class EdgeError(ValidationError):
    """An edge that :func:`laplacian_from_edges` refuses: ``index`` is its
    position in the list, ``edge`` its ``(src, dst, weight)``, and
    :meth:`fault` names the first check it fails with node ids counted
    from ``first`` (1 for a file's 1-based ids)."""

    def __init__(self, index, edge, n):
        self.index, self.edge, self.n = index, edge, n
        super().__init__(f"edge {index}: {self.fault(0)}")

    def fault(self, first):
        src, dst, w = self.edge
        if not (float(src).is_integer() and float(dst).is_integer()):
            return f"endpoints ({src!r}, {dst!r}) must be integers"
        src, dst = int(src), int(dst)
        if not (0 <= src < self.n and 0 <= dst < self.n):
            return (f"endpoints ({src + first}, {dst + first}) outside "
                    f"[{first}, {self.n - 1 + first}]")
        if src == dst:
            return f"self-loop at node {src + first}"
        return f"weight {w} must be positive"


def laplacian_from_edges(n, edges):
    """Build a :class:`DirectedLaplacian` from ``(src, dst, weight)`` triples.

    ``edges`` is any ``(m, 3)`` array-like.  Endpoints are 0-based node
    indices and must be integers (``2.0`` is one).  Duplicate edges
    accumulate their weights in the order given.

    Raises
    ------
    ValidationError
        On edges that are not triples.
    EdgeError
        On non-integer or out-of-range endpoints, self-loops, or
        nonpositive weights.  It names the first offending edge and the
        first of these checks it fails.
    """
    if n < 1:
        raise ValidationError("node count must be at least 1")
    e = np.asarray(edges, dtype=float)
    if e.size and e.shape[1:] != (3,):
        raise ValidationError(f"edges must be (src, dst, weight) triples, got shape {e.shape}")
    e = e.reshape(-1, 3)
    ends, weight = e[:, :2], e[:, 2]
    integral = (np.isfinite(ends) & (ends == np.floor(ends))).all(axis=1)
    inside = integral & ((ends >= 0) & (ends < n)).all(axis=1)
    bad = ~inside | (ends[:, 0] == ends[:, 1]) | ~(weight > 0.0)
    if bad.any():
        k = int(np.argmax(bad))
        raise EdgeError(k, e[k].tolist(), n)
    adjacency = np.zeros((n, n))
    # add.at applies repeated (src, dst) pairs one after another, so
    # duplicate edges sum in the order given, as a loop of += would.
    np.add.at(adjacency, tuple(ends.T.astype(int)), weight)
    lap = -adjacency
    np.fill_diagonal(lap, adjacency.sum(axis=1))
    return DirectedLaplacian(lap)


@dataclass(frozen=True)
class WeightBalancing:
    """Positive diagonal reweighting that balances a strongly connected graph.

    ``balanced.matrix = diag(m) @ original.matrix`` with ``m`` normalized to
    ``sum(m) = n``; ``m`` is a scaled left null vector of the original
    Laplacian, strictly positive by irreducibility.  ``m`` is read-only:
    the original Laplacian keeps this object and hands it to every caller.
    """

    m: np.ndarray
    balanced: DirectedLaplacian


def weight_balance(lap: DirectedLaplacian) -> WeightBalancing:
    """Balance a strongly connected directed Laplacian by row scaling.

    The balancing is computed once per ``lap`` and kept on it; later calls
    return the same :class:`WeightBalancing`, whose ``balanced`` Laplacian
    in turn keeps its own factorizations.

    ``m`` is the left null vector with ``m_0 = 1`` from one solve with the
    grounded block ``L^T[1:, 1:]``, then scaled to ``sum(m) = n``.

    Raises
    ------
    StructureError
        If the graph is not strongly connected (the left null vector is
        then not unique or not positive).
    NumericError
        If the grounded block is singular, an entry of ``m`` is not
        positive, or a column sum of the balanced Laplacian exceeds
        ``1e-10`` of its magnitude.
    """
    if lap._balancing is None:
        balancing = _balance(lap)
        balancing.m.setflags(write=False)
        lap._balancing = balancing
    return lap._balancing


def _balance(lap):
    if not lap.strongly_connected:
        raise StructureError(
            "weight balancing requires a strongly connected graph"
        )
    n = lap.n
    if n == 1:
        m = np.ones(1)
        return WeightBalancing(m=m, balanced=lap)
    # m^T L = 0 with m_0 = 1 grounds node 0: for a strongly connected graph
    # the remaining block of L^T is a nonsingular M-matrix and the right
    # side is nonnegative, so m > 0 with no rank decision.
    lt = lap.matrix.T
    m = np.ones(n)
    try:
        m[1:] = np.linalg.solve(lt[1:, 1:], -lt[1:, 0])
    except np.linalg.LinAlgError:
        raise NumericError(
            "grounded block of the transposed Laplacian is singular"
        ) from None
    if not m.min() > 0.0:
        raise NumericError(
            "computed left null vector is not strictly positive; "
            f"minimum component {m.min():.3e}"
        )
    m = n * m / m.sum()
    balanced = DirectedLaplacian(m[:, None] * lap.matrix)
    colsum = np.abs(balanced.matrix.sum(axis=0)).max()
    if colsum > 1e-10 * _scale(balanced.matrix):
        raise NumericError(
            f"balancing failed: residual column sum {colsum:.3e}"
        )
    return WeightBalancing(m=m, balanced=balanced)


def is_reachable_subset(lap: DirectedLaplacian, alpha) -> bool:
    """Whether every node outside ``alpha`` has a directed path into it.

    This is the structural precondition for Kron reduction onto ``alpha``:
    eliminated nodes must drain into the kept set.  ``alpha`` needs at
    least two nodes.
    """
    kept = normalize_indices(alpha, lap.n, min_size=2, name="alpha")
    return bool(_reached(lap.matrix.T, kept).all())


def sym_pinv(lap: DirectedLaplacian) -> np.ndarray:
    """Symmetrized pseudoinverse ``(L^+ + (L^+)^T) / 2``.

    For a strongly connected graph this matrix is symmetric PSD with
    kernel exactly ``span(1)``, and its pseudoinverse is again a (possibly
    signed) Laplacian.  Note it differs from the pseudoinverse of the
    symmetric part except in the undirected case.

    The SVD pseudoinverse is taken once per ``lap`` and kept read-only on
    it; each call returns a writable copy, so writing into the result
    changes nothing else.
    """
    return _shared_sym_pinv(lap).copy()


def _shared_sym_pinv(lap):
    """``L_s^+`` of ``lap`` as the read-only array kept on it."""
    if lap._sym_pinv is None:
        if not lap.strongly_connected:
            raise StructureError(
                "symmetrized pseudoinverse geometry requires strong "
                "connectivity"
            )
        p = pseudoinverse(lap.matrix)
        ls = (p + p.T) / 2.0
        ls.setflags(write=False)
        lap._sym_pinv = ls
    return lap._sym_pinv


def _shared_kernel(lap):
    """``K = (L_s^+)^+`` as ``(P + P^T) / 2`` for the SVD pseudoinverse ``P``
    of ``L_s^+``, kept read-only on ``lap``.  Its rows sum to 0 up to about
    ``eps cond(L_s^+)``; past ``eps COND_LIMIT`` it raises NumericError."""
    if lap._kernel is None:
        # SVD, not SymEig.pinv: the benchmark's tracer test pins undirect at
        # two SVDs and two eigh calls on a fresh object (the SVD of L behind
        # the kept L_s^+, then this one); the eigh route moves with that pin.
        p = pseudoinverse(_shared_sym_pinv(lap))
        kernel = (p + p.T) / 2.0
        rows = float(np.abs(kernel.sum(axis=1)).max())
        if rows > np.finfo(float).eps * COND_LIMIT * np.abs(kernel).max():
            raise NumericError(f"(L_s^+)^+ rows sum to {rows:.1e}, not 0")
        kernel.setflags(write=False)
        lap._kernel = kernel
    return lap._kernel
