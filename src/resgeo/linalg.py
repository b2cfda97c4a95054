"""Dense linear-algebra primitives with deterministic conventions.

Everything downstream (pseudoinverse Laplacians, Kron reduction, resistance
matrices) is built on the small set of operations here.  The conventions
that the rest of the package relies on:

* eigenvalues are returned in descending order;
* eigenvectors get a deterministic sign (the first component of
  significant magnitude is made positive), because ``embed`` coordinates
  and ``classify_metric`` witnesses are outputs.  ``np.linalg.svd`` is
  called only inside :func:`pseudoinverse`, which sums products
  ``v_k u_k^T``; a joint flip of ``u_k`` and ``v_k`` leaves them exact, so
  singular vectors keep LAPACK's signs;
* pseudoinverse rank cuts use the relative tolerance
  ``max(m, n) * eps * sigma_max``;
* pseudoinverses take one of two routes.  A symmetric matrix (``L_s^+``,
  a signed Laplacian ``Q``, a centered Gram matrix) is inverted from its
  ``eigh`` factorization by :meth:`SymEig.pinv`, and the result is exactly
  symmetric.  :func:`pseudoinverse` (SVD) serves the nonsymmetric
  directed Laplacian ``L``, the independent cross-checks, and the
  symmetric call sites that say in a comment why they keep it;
* Schur complements and :func:`solve_conditioned` refuse to invert
  blocks with condition number above ``1e12`` instead of silently
  amplifying noise.  The number depends on the block.  A Z-matrix block
  whose solves certify it as a nonsingular M-matrix (every Kron
  elimination of a directed Laplacian) is gated on
  ``sqrt(kappa_1 kappa_inf)``, read off the ones-solutions that ride along
  with the solve; this bounds ``kappa_2`` from above, so it never admits
  a block that ``kappa_2`` refuses.  Any other block (``Q``, ``K``,
  ``L_s^+``, a resistance matrix) is gated on ``kappa_2`` by SVD;
* a matrix whose kernel contains ``1`` is read on ``1``-perp through the
  Householder reflector of :func:`_reflected`, which keeps that kernel
  direction exact.

All computations are float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBlockError, NumericError, ValidationError

#: Condition-number ceiling for any block that gets inverted.
COND_LIMIT = 1e12


def _scale(m):
    """``max(1, |m|_max)``: the magnitude relative tolerances scale with."""
    return max(1.0, float(m.max()), -float(m.min())) if m.size else 1.0


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


def _fix_signs(vectors):
    """Flip column signs in place so each column's leading entry is positive.

    The leading entry is the first one whose magnitude is significant
    relative to the column's largest entry.  An all-zero column is left as
    it is.
    """
    if vectors.size == 0:
        return vectors
    mags = np.abs(vectors)
    lead = np.argmax(mags > 1e-8 * mags.max(axis=0), axis=0)
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0
    np.negative(vectors, out=vectors, where=flip)
    return vectors


@dataclass(frozen=True)
class SymEig:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""

    values: np.ndarray
    vectors: np.ndarray

    def pinv(self):
        """Pseudoinverse with the rank cut of :func:`pseudoinverse`
        applied to ``|lambda|``, symmetrized so it equals its transpose bit
        for bit."""
        w = self.values
        peak = np.abs(w).max(initial=0.0)
        keep = np.abs(w) > max(self.vectors.shape) * np.finfo(float).eps * peak
        v = self.vectors[:, keep]
        p = (v / w[keep]) @ v.T
        return (p + p.T) / 2.0


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative, and (numerically) zero eigenvalues."""

    positive: int
    negative: int
    zero: int


def sym_eig(a):
    """Eigendecomposition of a square matrix symmetric within ``1e-9`` of its
    magnitude; more asymmetry is a contract violation.  Returns a
    :class:`SymEig` of descending eigenvalues and sign-fixed orthonormal
    eigenvectors."""
    m = as_square(a)
    asym = np.abs(m - m.T).max(initial=0.0)
    if asym > 1e-9 * _scale(m):
        raise ValidationError(f"matrix is not symmetric (asymmetry {asym:.3e})")
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    order = np.argsort(w)[::-1]
    w = w[order]
    v = np.ascontiguousarray(v[:, order])
    _fix_signs(v)
    return SymEig(values=w, vectors=v)


def pseudoinverse(a):
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``max(m, n) * eps * sigma_max`` are treated
    as zero.  An SVD that fails to converge raises :class:`NumericError`.
    """
    m = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge: {exc}") from exc
    # With nothing kept the product has inner dimension 0 and is all zeros.
    keep = s > max(m.shape) * np.finfo(float).eps * s.max(initial=0.0)
    return (vt[keep].T / s[keep]) @ u[:, keep].T


def schur_complement(a, keep):
    """Schur complement of ``a`` onto the ``keep`` indices.

    Eliminates the complement block ``e`` and returns
    ``a[k,k] - a[k,e] a[e,e]^{-1} a[e,k]`` with rows/columns in ascending
    ``keep`` order.  ``keep`` equal to the full index set returns a copy of
    ``a``.  The block ``a[e,e]`` passes the gate of :func:`_gated_solve`:
    the bound ``sqrt(kappa_1 kappa_inf) >= kappa_2`` from the solves when it
    is a nonsingular M-matrix (every Kron elimination of a Laplacian), and
    ``kappa_2`` by SVD otherwise.

    Raises
    ------
    DegenerateBlockError
        If the eliminated block is singular or its condition number
        exceeds ``COND_LIMIT``.
    """
    m = as_square(a)
    n = m.shape[0]
    kept = normalize_indices(keep, n)
    elim = np.setdiff1d(np.arange(n), kept)
    if elim.size == 0:
        return m[np.ix_(kept, kept)].copy()
    x = _gated_solve(m[np.ix_(elim, elim)], m[np.ix_(elim, kept)],
                     f"eliminated block over nodes {elim.tolist()}",
                     DegenerateBlockError)
    return m[np.ix_(kept, kept)] - m[np.ix_(kept, elim)] @ x


def inertia(s):
    """Signature of a symmetric matrix.

    Eigenvalues within the fixed relative cut ``1e-9 * max|lambda|`` of zero
    count as zero.
    """
    w = sym_eig(s).values
    thr = 1e-9 * (np.abs(w).max() if w.size else 0.0)
    pos = int(np.sum(w > thr))
    neg = int(np.sum(w < -thr))
    return Inertia(positive=pos, negative=neg, zero=w.size - pos - neg)


def _reflected(m):
    """``H m`` for a vector ``m``, ``H m H`` for a symmetric matrix ``m``.

    ``H = I - beta u u^T``, ``u = 1/sqrt(n) - e_n``, is the Householder
    reflector that swaps ``e_n`` and ``1/sqrt(n)`` (the identity at n = 1);
    its first ``n - 1`` columns are an orthonormal basis of ``1``-perp.  So
    ``H m H`` has a zero last row and column when ``m 1 = 0``, with no rank
    decision.  ``H m H`` is two rank-one updates, O(n^2).
    """
    n = m.shape[0]
    if n == 1:
        return m.copy()
    u = np.full(n, 1.0 / math.sqrt(n))
    u[-1] -= 1.0
    beta = 2.0 / (u @ u)
    w = m @ u
    if m.ndim == 1:
        return m - (beta * w) * u
    z = beta * w - (0.5 * beta * beta * (u @ w)) * u
    return m - np.outer(u, z) - np.outer(z, u)


def centering_projector(n):
    """Orthogonal projector onto the complement of the all-ones vector."""
    if n < 1:
        raise ValidationError("dimension must be at least 1")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def solve_conditioned(a, b, what="linear system"):
    """Solve ``a x = b`` refusing condition numbers above ``COND_LIMIT``.

    The gate is that of :func:`schur_complement`: the solve-based bound
    ``sqrt(kappa_1 kappa_inf)`` for a nonsingular M-matrix ``a``, and
    ``kappa_2`` by SVD for any other matrix (a resistance matrix, ``K``
    or ``L_s^+`` block, a shifted Laplacian).  A refusal raises
    :class:`NumericError`.
    """
    return _gated_solve(as_square(a), np.asarray(b, dtype=float), what,
                        NumericError)


def _gated_solve(a, b, what, error):
    """``a^{-1} b`` once the condition number of ``a`` is at most ``COND_LIMIT``.

    A Z-matrix ``a`` (no positive off-diagonal entry) is solved at once,
    with a ones column appended to ``b``, together with ``a^T 1``.  When
    both ones-solutions are strictly positive, ``a`` is a nonsingular
    M-matrix (Berman & Plemmons, ch. 6), so ``a^{-1} >= 0`` and
    ``||a^{-1}||_inf = max(a^{-1} 1)``, ``||a^{-1}||_1 = max(a^{-T} 1)``.
    The gate then reads ``sqrt(kappa_1 kappa_inf)``, which bounds
    ``kappa_2`` from above because ``||M||_2^2 <= ||M||_1 ||M||_inf`` for
    every matrix ``M``.  Any other matrix is gated on ``kappa_2`` from
    ``np.linalg.cond`` (an SVD), as is a Z-matrix whose ones-solutions are
    not positive.  A singular ``a`` raises ``error`` like one above the
    limit.
    """
    x = None
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    if off.max(initial=0.0) <= 0.0:
        ones = np.ones(a.shape[0])
        try:
            xe = np.linalg.solve(a, np.column_stack((b, ones)))
            col = np.linalg.solve(a.T, ones)
        except np.linalg.LinAlgError:
            raise error(f"{what} is singular") from None
        row, x = xe[:, -1], xe[:, :-1].reshape(b.shape)
        if row.min() > 0.0 and col.min() > 0.0:
            # Square roots first, in Python floats: a bound too large for
            # a float comes out as inf, which the gate refuses, and never
            # as a numpy overflow warning.
            cond = (math.sqrt(np.linalg.norm(a, 1)) * math.sqrt(col.max())
                    * math.sqrt(np.linalg.norm(a, np.inf))
                    * math.sqrt(row.max()))
        else:
            cond = np.linalg.cond(a)
    else:
        cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise error(f"{what} is singular or ill-conditioned "
                    f"(cond {cond:.3e} > {COND_LIMIT:.0e})")
    return np.linalg.solve(a, b) if x is None else x


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
