"""Dense linear-algebra primitives with deterministic conventions.

Everything downstream (pseudoinverse Laplacians, Kron reduction, resistance
matrices) is built on the small set of operations here.  The conventions
that the rest of the package relies on:

* eigenvalues and singular values are returned in descending order;
* eigenvectors / singular vectors get a deterministic sign (the first
  component of significant magnitude is made positive), so repeated runs
  produce byte-identical results;
* pseudoinverse rank cuts use the relative tolerance
  ``max(m, n) * eps * sigma_max`` unless the caller overrides it;
* pseudoinverses take one of two routes.  A symmetric matrix (``L_s^+``,
  a signed Laplacian ``Q``, a centered Gram matrix) is inverted from its
  ``eigh`` factorization by :meth:`SymEig.pinv`, and the result is exactly
  symmetric.  :func:`pseudoinverse` (SVD) serves the nonsymmetric
  directed Laplacian ``L``, the independent cross-checks, and the
  symmetric call sites that say in a comment why they keep it;
* Schur complements refuse to invert blocks with condition number above
  ``1e12`` instead of silently amplifying noise.

All computations are float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBlockError, NumericError, ValidationError

#: Condition-number ceiling for any block that gets inverted.
COND_LIMIT = 1e12


def as_matrix(a, name="matrix"):
    """Coerce input to a float64 2-d array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def as_square(a, name="matrix"):
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    return m


def _fix_signs(vectors, reference=None):
    """Flip column signs in place so each column's leading entry is positive.

    The leading entry is the first one whose magnitude is significant
    relative to the column's largest entry; columns of a second matrix
    (`reference`) are flipped jointly so that factorizations stay valid.
    """
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        peak = np.abs(col).max()
        if peak == 0.0:
            continue
        lead = np.flatnonzero(np.abs(col) > 1e-8 * peak)[0]
        if col[lead] < 0:
            vectors[:, k] = -col
            if reference is not None:
                reference[:, k] = -reference[:, k]
    return vectors


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""

    values: np.ndarray
    vectors: np.ndarray

    def pinv(self):
        """Pseudoinverse with the default rank cut of :func:`pseudoinverse`
        applied to ``|lambda|``, symmetrized so it equals its transpose bit
        for bit."""
        w = self.values
        peak = np.abs(w).max(initial=0.0)
        keep = np.abs(w) > default_rank_tol(self.vectors.shape) * peak
        v = self.vectors[:, keep]
        p = (v / w[keep]) @ v.T
        return (p + p.T) / 2.0


@dataclass(frozen=True)
class Svd:
    """Thin SVD ``a = u @ diag(s) @ v.T`` with singular values descending."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative, and (numerically) zero eigenvalues."""

    positive: int
    negative: int
    zero: int


def sym_eig(a, tol=1e-9):
    """Eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    a : array_like
        Square matrix, symmetric within ``tol`` relative to its magnitude.
    tol : float
        Symmetry tolerance; asymmetry beyond it is a contract violation.

    Returns
    -------
    SymEig
        Descending eigenvalues and sign-fixed orthonormal eigenvectors.
    """
    m = as_square(a)
    scale = max(1.0, np.abs(m).max())
    asym = np.abs(m - m.T).max()
    if asym > tol * scale:
        raise ValidationError(f"matrix is not symmetric (asymmetry {asym:.3e})")
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    order = np.argsort(w)[::-1]
    w = w[order]
    v = np.ascontiguousarray(v[:, order])
    _fix_signs(v)
    return SymEig(values=w, vectors=v)


def svd(a):
    """Thin SVD with descending singular values and deterministic signs."""
    m = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge: {exc}") from exc
    v = np.ascontiguousarray(vt.T)
    u = np.ascontiguousarray(u)
    _fix_signs(u, reference=v)
    return Svd(u=u, s=s, v=v)


def default_rank_tol(shape):
    """Relative rank tolerance: ``max(m, n) * eps``."""
    return max(shape) * np.finfo(float).eps


def pseudoinverse(a, rank_tol=None):
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``rank_tol * sigma_max`` are treated as
    zero.  ``rank_tol`` defaults to ``max(m, n) * eps``.
    """
    m = as_matrix(a)
    d = svd(m)
    if rank_tol is None:
        rank_tol = default_rank_tol(m.shape)
    if d.s.size == 0:
        return np.zeros((d.v.shape[0], d.u.shape[0]))
    cutoff = rank_tol * d.s[0]
    keep = d.s > cutoff
    if not np.any(keep):
        return np.zeros((d.v.shape[0], d.u.shape[0]))
    return (d.v[:, keep] / d.s[keep]) @ d.u[:, keep].T


def schur_complement(a, keep, cond_limit=COND_LIMIT):
    """Schur complement of ``a`` onto the ``keep`` indices.

    Eliminates the complement block ``e`` and returns
    ``a[k,k] - a[k,e] a[e,e]^{-1} a[e,k]`` with rows/columns in ascending
    ``keep`` order.  ``keep`` equal to the full index set returns a copy of
    ``a``.

    Raises
    ------
    DegenerateBlockError
        If the eliminated block has condition number above ``cond_limit``.
    """
    m = as_square(a)
    n = m.shape[0]
    kept = normalize_indices(keep, n)
    elim = np.setdiff1d(np.arange(n), kept)
    if elim.size == 0:
        return m[np.ix_(kept, kept)].copy()
    aee = m[np.ix_(elim, elim)]
    cond = np.linalg.cond(aee)
    if not np.isfinite(cond) or cond > cond_limit:
        raise DegenerateBlockError(
            f"eliminated block over nodes {elim.tolist()} is singular or "
            f"ill-conditioned (cond {cond:.3e} > {cond_limit:.0e})"
        )
    x = np.linalg.solve(aee, m[np.ix_(elim, kept)])
    return m[np.ix_(kept, kept)] - m[np.ix_(kept, elim)] @ x


def schur_sequential(a, keep):
    """Schur complement by repeated single-index elimination.

    Mathematically identical to :func:`schur_complement` (the quotient
    property of Schur complements); kept as an independent route so the two
    can be cross-checked.  Eliminates indices one at a time in descending
    order; a pivot of negligible magnitude raises naming the index.
    """
    m = as_square(a).copy()
    n = m.shape[0]
    kept = normalize_indices(keep, n)
    remaining = list(range(n))
    for node in sorted(set(range(n)) - set(kept.tolist()), reverse=True):
        pos = remaining.index(node)
        pivot = m[pos, pos]
        scale = max(1.0, np.abs(m).max())
        if abs(pivot) <= 1e-13 * scale:
            raise DegenerateBlockError(
                f"pivot for node {node} is negligible ({pivot:.3e})"
            )
        rest = [i for i in range(len(remaining)) if i != pos]
        m = m[np.ix_(rest, rest)] - np.outer(m[rest, pos], m[pos, rest]) / pivot
        del remaining[pos]
    return m


def inertia(s, tol=1e-9):
    """Signature of a symmetric matrix.

    Eigenvalues within ``tol * max|lambda|`` of zero count as zero.
    """
    eig = sym_eig(s, tol=tol)
    w = eig.values
    peak = np.abs(w).max() if w.size else 0.0
    thr = tol * max(peak, 0.0)
    pos = int(np.sum(w > thr))
    neg = int(np.sum(w < -thr))
    return Inertia(positive=pos, negative=neg, zero=w.size - pos - neg)


def centering_projector(n):
    """Orthogonal projector onto the complement of the all-ones vector."""
    if n < 1:
        raise ValidationError("dimension must be at least 1")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def solve_conditioned(a, b, what="linear system", cond_limit=COND_LIMIT):
    """Solve ``a x = b`` refusing condition numbers above ``cond_limit``."""
    m = as_square(a)
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > cond_limit:
        raise NumericError(
            f"{what} is singular or ill-conditioned (cond {cond:.3e})"
        )
    return np.linalg.solve(m, b)


def normalize_indices(indices, n, min_size=1, name="keep"):
    """Validate an index collection: integer, in range, unique, ascending."""
    cleaned = set()
    for i in indices:
        v = int(i)
        if v != i:
            raise ValidationError(f"{name} indices must be integers, got {i!r}")
        cleaned.add(v)
    arr = np.asarray(sorted(cleaned), dtype=int)
    if arr.size < min_size:
        raise ValidationError(
            f"{name} must contain at least {min_size} distinct indices"
        )
    if arr.size and (arr[0] < 0 or arr[-1] >= n):
        raise ValidationError(
            f"{name} indices must lie in [0, {n - 1}], got {arr.tolist()}"
        )
    return arr
