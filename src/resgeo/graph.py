"""Laplacian types and structural predicates for directed and signed graphs.

Two matrix classes anchor the package.  :class:`DirectedLaplacian` holds the
Laplacian of a weighted directed graph: nonpositive off-diagonal entries
(``L[i, j] = -w(i -> j)``) and zero row sums, with the diagonal always
recomputed from the off-diagonal part so the zero-row-sum property is
enforced rather than trusted.  Outside input (the public constructor and
:func:`laplacian_from_edges`) is checked in full and its strong
connectivity computed.  The library's own builders form their weights
already valid and hand over the strong connectivity they guarantee:
:func:`weight_balance` scales the rows of a strongly connected graph by
``m > 0``, which keeps every edge; :func:`~resgeo.kron.kron_reduce` of a
strongly connected graph is again strongly connected; and the random
generators each lay down a Hamiltonian cycle.

:class:`SignedLaplacianQ` holds a symmetric Laplacian that is positive
semidefinite with kernel exactly ``span(1)`` and strictly positive
diagonal; off-diagonal entries of either sign are allowed.
Matrices of this class arise as pseudoinverses of symmetrized pseudoinverse
Laplacians of strongly connected weight-balanced graphs, and they are the
natural domain for resistance geometry on signed graphs.

Edge existence is decided by exact nonzero weight; no epsilon thresholding
is applied to the sparsity pattern.  Every structural question is one
closure: the set of nodes a directed search from a seed set reaches.  A
graph is strongly connected when the forward and the backward closure of
node 0 each cover every node, and Kron reduction onto a kept set is defined
when the backward closure of that set (the nodes with a path into it)
covers every node; :func:`~resgeo.kron.kron_reduce` runs that closure
only on a graph not known to be strongly connected, since on one that is
every node reaches any kept set.

A :class:`DirectedLaplacian` is immutable, so the factorizations every
directed quantity derives from are computed at most once per object and
kept on it: the balancing that :func:`weight_balance` returns, the
resistance matrix of :func:`~resgeo.resistance.resistance_matrix_sc`, the
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
    CONSTRUCTION_TOL,
    ROUNDOFF_TOL,
    STRUCTURAL_TOL,
    _require_two_nodes,
    _scale,
    _signature,
    as_square,
    normalize_indices,
    pseudoinverse,
    sym_eig,
)


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


def _laplacian(weights):
    """``diag(W 1) - W``: the Laplacian whose edge weights are the entries
    of ``W``, a weight matrix with a zero diagonal, and whose diagonal is
    its row sums.  Every Laplacian the library forms is built here; only
    ``verify``'s GTH route, an independent check, builds its own."""
    lap = -weights
    np.fill_diagonal(lap, weights.sum(axis=1))
    return lap


class DirectedLaplacian:
    """Laplacian of a weighted directed graph without self-loops.

    The stored matrix is read-only; its diagonal equals minus the row sum
    of the off-diagonal part by construction.  Strong connectivity and
    weight balance are set once at construction and cached.  The graph is
    strongly connected when the forward and the backward closure of node 0
    both cover every node; the constructor computes this, while the
    library's own builders (balancing, Kron reduction of a strongly
    connected graph, the random generators) pass the ``True`` they
    guarantee and skip both closures.  The graph is weight balanced when
    each column sum is at most ``STRUCTURAL_TOL`` times that column's
    absolute sum, so a light column is judged by its own weights and not by
    the heaviest one; this is read off the columns on every graph.

    Four results are filled in on first use and then shared by every
    function that derives from them: the :class:`WeightBalancing` of
    :func:`weight_balance`, the resistance matrix of
    :func:`~resgeo.resistance.resistance_matrix_sc`, ``L_s^+`` of
    :func:`sym_pinv` and its pseudoinverse ``(L_s^+)^+``.  They sit in
    private slots, their arrays are read-only, and a failed computation is
    not kept.

    Raises
    ------
    ValidationError
        If the graph has fewer than two nodes, an off-diagonal entry is
        positive, or a row sum is nonzero beyond ``ROUNDOFF_TOL`` times the
        largest entry.
    """

    __slots__ = ("matrix", "n", "strongly_connected", "weight_balanced",
                 "_balancing", "_resistance", "_sym_pinv", "_kernel")

    def __init__(self, matrix):
        m = as_square(matrix, "laplacian").copy()
        n = m.shape[0]
        _require_two_nodes(n)
        scale = _scale(m)
        rowsum = np.abs(m.sum(axis=1)).max()
        np.fill_diagonal(m, 0.0)
        if m.max() > 0.0:
            i, j = np.unravel_index(np.argmax(m), m.shape)
            raise ValidationError(
                f"off-diagonal entry ({i}, {j}) = {m[i, j]:.6e} is positive; "
                "directed edge weights enter as nonpositive entries"
            )
        if rowsum > ROUNDOFF_TOL * scale:
            raise ValidationError(
                f"row sums deviate from zero by {rowsum:.3e}"
            )
        self._build(-m)

    @classmethod
    def _of(cls, weights, strongly_connected):
        """The graph of a weight matrix the library formed itself, built by
        :meth:`_build` without the constructor's checks."""
        return cls.__new__(cls)._build(weights, strongly_connected)

    def _build(self, weights, strongly_connected=None):
        """Fill every slot from ``weights``, a weight matrix with a zero
        diagonal and nonnegative entries, and return ``self``.

        ``_laplacian`` forms the matrix once; nothing is validated.
        ``strongly_connected`` is taken as given when known (the caller
        guarantees it) and computed from the two closures of node 0
        otherwise; ``weight_balanced`` is always read off the columns.
        """
        m = _laplacian(weights)
        m.setflags(write=False)
        self.matrix = m
        self.n = m.shape[0]
        if strongly_connected is None:
            strongly_connected = bool(
                _reached(m, [0]).all() and _reached(m.T, [0]).all()
            )
        self.strongly_connected = strongly_connected
        self.weight_balanced = bool(np.all(
            np.abs(m.sum(axis=0)) <= STRUCTURAL_TOL * np.abs(m).sum(axis=0)
        ))
        self._balancing = self._resistance = self._sym_pinv = self._kernel = None
        return self

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
        kind = "signed" if off.max() > 0 else "unsigned"
        return f"SignedLaplacianQ(n={self.n}, {kind})"


def _classify_q(matrix, eig=None):
    """Signed-Laplacian class checks, behind ``SignedLaplacianQ``.

    Returns ``(failure, details, checked)``.  ``failure`` is ``None`` on
    success, otherwise the reason string of the first check that fails
    (fewer than two nodes, asymmetry, nonzero row sums, indefiniteness,
    oversized kernel, nonpositive diagonal).  ``details`` holds the
    residuals behind the verdict, and ``checked`` is the pair of the
    symmetrized matrix with recomputed diagonal and its eigendecomposition
    (``None`` on failure).  Callers that report a failure rather than raise
    read it from here.  ``eig``, when given, is taken as the
    eigendecomposition of the cleaned matrix and no ``eigh`` is run: a
    ``SignedLaplacianQ``'s ``matrix`` is its own cleaned matrix, so its
    ``eig`` serves.
    """
    try:
        m = as_square(matrix, "matrix")
        _require_two_nodes(m.shape[0])
    except ValidationError as exc:
        return str(exc), {}, None
    scale = _scale(m)
    details = {}
    asym = float(np.abs(m - m.T).max())
    details["asymmetry"] = asym
    if asym > ROUNDOFF_TOL * scale:
        return f"asymmetric (max deviation {asym:.3e})", details, None
    sym = (m + m.T) / 2.0
    rowsum = float(np.abs(sym.sum(axis=1)).max())
    details["row_sum"] = rowsum
    if rowsum > STRUCTURAL_TOL * scale:
        return f"row sums deviate from zero by {rowsum:.3e}", details, None
    off = sym.copy()
    np.fill_diagonal(off, 0.0)
    cleaned = _laplacian(-off)
    if eig is None:
        eig = sym_eig(cleaned)
    w = eig.values
    details["eigenvalue_min"] = float(w[-1])
    signature = _signature(w)
    if signature.negative:
        return (f"not positive semidefinite (eigenvalue {w[-1]:.3e})",
                details, None)
    kernel = signature.zero
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
        On fewer than two nodes or edges that are not triples.
    EdgeError
        On non-integer or out-of-range endpoints, self-loops, or
        nonpositive weights.  It names the first offending edge and the
        first of these checks it fails.
    """
    _require_two_nodes(n)
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
    return DirectedLaplacian(_laplacian(adjacency))


def _require(lap, what, balanced=False, hint=""):
    """Raise :class:`StructureError` naming the operation ``what`` unless
    ``lap`` is strongly connected and, if ``balanced``, weight balanced
    (the message then ends with ``hint``)."""
    if not lap.strongly_connected:
        raise StructureError(f"{what} requires a strongly connected graph")
    if balanced and not lap.weight_balanced:
        raise StructureError(f"{what} requires a weight-balanced graph{hint}")


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

    ``m`` is the left null vector of a grounded solve, scaled to
    ``sum(m) = n``.  Grounding node ``k`` fixes ``m_k = 1`` and solves
    ``m^T L = 0`` without column ``k``, whose sum then collects the other
    columns' residuals.  The solve grounds the heaviest node (largest
    ``m``) of a first solve grounded at node 0: the collected residual is
    then small against that column, and the choice does not depend on how
    the nodes are labeled.

    Raises
    ------
    StructureError
        If the graph is not strongly connected (the left null vector is
        then not unique or not positive).
    NumericError
        If a grounded block is singular, an entry of ``m`` is not
        positive, or a column sum of the balanced Laplacian exceeds
        ``CONSTRUCTION_TOL`` times that column's diagonal entry; a
        balancing returned is thus flagged ``weight_balanced``.
    """
    if lap._balancing is None:
        _require(lap, "weight_balance")
        lt = lap.matrix.T
        m = _grounded(lt, int(np.argmax(_grounded(lt, 0))))
        if not m.min() > 0.0:
            raise NumericError(
                "computed left null vector is not strictly positive; "
                f"minimum component {m.min():.3e}"
            )
        m = lap.n * m / m.sum()
        m.setflags(write=False)
        # Scaling row i by m_i > 0 keeps every edge, so the balanced graph
        # is strongly connected as lap is.
        weights = -lap.matrix
        np.fill_diagonal(weights, 0.0)
        balanced = DirectedLaplacian._of(m[:, None] * weights, True)
        colsum = np.abs(balanced.matrix.sum(axis=0)) / np.diag(balanced.matrix)
        j = int(np.argmax(colsum))
        if colsum[j] > CONSTRUCTION_TOL:
            raise NumericError(f"balancing failed: column {j} sums to "
                               f"{colsum[j]:.3e} times its diagonal entry")
        lap._balancing = WeightBalancing(m=m, balanced=balanced)
    return lap._balancing


def _grounded(lt, k):
    """``m`` with ``m_k = 1`` and ``m^T L = 0`` off column ``k``, ``lt = L^T``.
    For a strongly connected graph the grounded block is a nonsingular
    M-matrix and the right side is nonnegative, so ``m > 0``."""
    rest = np.arange(lt.shape[0]) != k
    m = np.ones(lt.shape[0])
    try:
        m[rest] = np.linalg.solve(lt[np.ix_(rest, rest)], -lt[rest, k])
    except np.linalg.LinAlgError:
        raise NumericError(
            "grounded block of the transposed Laplacian is singular"
        ) from None
    return m


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
        _require(lap, "sym_pinv")
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
