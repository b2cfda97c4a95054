"""Resistive embedding of a signed Laplacian as a Euclidean simplex.

From the eigendecomposition ``Q = sum_k lambda_k v_k v_k^T`` (eigenvalues
descending, the single zero mode dropped) each node gets the coordinate
vector ``(b_i)_k = lambda_k^{-1/2} (v_k)_i`` in ``R^{n-1}``.  The vertices
span a simplex whose squared edge lengths are the effective resistances,
whose centroid sits at the origin, and whose circumcenter and circumradius
are the curvature image ``B p`` and radius ``sigma``.  Angles come in two
closed forms: dihedral cosines ``-Q_ij / sqrt(Q_ii Q_jj)`` between the
faces opposite nodes ``i`` and ``j``, and vertex-vector cosines
``Q^+_ij / sqrt(Q^+_ii Q^+_jj)`` between position vectors; both are
recomputed from raw coordinates by ``verify_angles_geometric`` as an
independent route.

The embedding is unique up to orthogonal transforms; determinism comes
from the package-wide eigenvector sign and ordering conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import curvature_radius_q
from .errors import NumericError, ValidationError
from .graph import SignedLaplacianQ
from .linalg import ANGLE_TOL, CONSTRUCTION_TOL, ROUNDOFF_TOL, _scale


@dataclass(frozen=True)
class Embedding:
    """Simplex coordinates of a signed Laplacian.

    ``coordinates`` is ``(n-1) x n`` with column ``i`` the vertex of node
    ``i``; ``eigenvalues`` are the positive eigenvalues of ``Q``
    descending, ``vectors`` the matching eigenvectors (columns).
    """

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        b = self.coordinates
        centroid = np.abs(b.sum(axis=1)).max(initial=0.0)
        if centroid > CONSTRUCTION_TOL * _scale(b):
            raise ValidationError(
                f"embedded centroid deviates from the origin by {centroid:.3e}"
            )

    @property
    def n(self):
        return self.coordinates.shape[1]


@dataclass(frozen=True)
class SimplexGeometry:
    """Circumcenter, circumradius, and both angle matrices (as cosines).

    Diagonals of the cosine matrices are set to 1 by convention (the angle
    of a face or position vector with itself is zero).
    """

    circumcenter: np.ndarray
    circumradius: float
    cos_dihedral: np.ndarray
    cos_vertex: np.ndarray

    def __post_init__(self):
        for name in ("cos_dihedral", "cos_vertex"):
            m = getattr(self, name)
            if np.abs(m).max(initial=0.0) > 1.0 + ROUNDOFF_TOL:
                raise ValidationError(
                    f"{name} has an entry outside [-1, 1]"
                )


@dataclass(frozen=True)
class AngleCheck:
    """Closed-form angles versus recomputation from raw coordinates.

    For two nodes there are no faces to compare; the check is then
    ``skipped`` with a reason instead of reporting deviations.
    """

    skipped: bool
    reason: str | None
    dihedral_deviation: float
    vertex_deviation: float

    @property
    def passed(self) -> bool:
        if self.skipped:
            return True
        return max(self.dihedral_deviation, self.vertex_deviation) <= ANGLE_TOL


def embed(q: SignedLaplacianQ) -> Embedding:
    """Embed a signed Laplacian as an ``(n-1)``-simplex.

    Scales each nonzero eigenvector by the inverse square root of its
    eigenvalue; the resulting coordinate matrix ``B`` satisfies
    ``B^T B = Q^+``, places the centroid at the origin, and realizes every
    effective resistance as a squared vertex distance.  The eigenpairs are
    the ones ``q`` carries, from which its stored ``Q^+`` was formed, so
    ``B^T B = Q^+`` holds by construction; the returned arrays are copies.
    """
    eig = q.eig
    n = q.n
    lam = eig.values[: n - 1]
    if lam.min() <= 0.0:
        raise NumericError(
            "nonpositive eigenvalue among the expected positive modes; "
            "input is not a valid signed Laplacian"
        )
    vectors = eig.vectors[:, : n - 1]
    coordinates = (vectors / np.sqrt(lam)).T
    return Embedding(coordinates=coordinates, eigenvalues=lam.copy(),
                     vectors=vectors.copy())


def simplex_geometry(q: SignedLaplacianQ, emb: Embedding) -> SimplexGeometry:
    """Circumcenter, circumradius, and angle cosines of the embedded simplex.

    The circumcenter is the embedding image of the curvature vector and
    the circumradius is the resistance radius, both from the closed form
    of :func:`curvature_radius_q` (no solve); dihedral and vertex-vector
    cosines use their closed forms in ``Q`` and ``Q^+``.
    """
    if emb.n != q.n:
        raise ValidationError("embedding does not match the Laplacian size")
    qd = q.pinv
    cr = curvature_radius_q(q)
    center = emb.coordinates @ cr.p
    diag_q = np.sqrt(np.diag(q.matrix))
    cos_dihedral = -q.matrix / np.outer(diag_q, diag_q)
    np.fill_diagonal(cos_dihedral, 1.0)
    diag_qd = np.sqrt(np.diag(qd))
    cos_vertex = qd / np.outer(diag_qd, diag_qd)
    np.fill_diagonal(cos_vertex, 1.0)
    return SimplexGeometry(
        circumcenter=center,
        circumradius=float(np.sqrt(cr.sigma2)),
        cos_dihedral=np.clip(cos_dihedral, -1.0, 1.0),
        cos_vertex=np.clip(cos_vertex, -1.0, 1.0),
    )


def verify_angles_geometric(q: SignedLaplacianQ, emb: Embedding) -> AngleCheck:
    """Recompute both angle families from raw coordinates and compare.

    Dihedral cosines: the rows of the coordinate pseudoinverse ``B^+`` are
    normals of the opposite faces, and the face angle is the complement of
    the normal angle.  Since ``B 1 = 0``, the inverse of ``[B; 1^T]`` is
    ``[B^+ | 1/n]``, so ``B^+`` comes from one solve.  Vertex cosines: the
    Gram matrix ``B^T B`` of the raw coordinates over the vertex norms.
    Reports the largest deviation of each family from the closed forms;
    ``passed`` holds both to ``ANGLE_TOL``.
    """
    n = q.n
    if n < 3:
        return AngleCheck(skipped=True, reason="no faces with fewer than 3 nodes",
                          dihedral_deviation=0.0, vertex_deviation=0.0)
    geo = simplex_geometry(q, emb)
    b = emb.coordinates
    try:
        normals = np.linalg.solve(np.vstack((b, np.ones(n))), np.eye(n, n - 1))
    except np.linalg.LinAlgError:
        raise NumericError("the embedded simplex is degenerate") from None
    lengths = np.linalg.norm(normals, axis=1)
    cos_normals = (normals @ normals.T) / np.outer(lengths, lengths)
    cos_dihedral_geo = -cos_normals
    np.fill_diagonal(cos_dihedral_geo, 1.0)
    dihedral_dev = float(np.abs(cos_dihedral_geo - geo.cos_dihedral).max())
    vertex_norms = np.linalg.norm(b, axis=0)
    cos_vertex_geo = (b.T @ b) / np.outer(vertex_norms, vertex_norms)
    np.fill_diagonal(cos_vertex_geo, 1.0)
    vertex_dev = float(np.abs(cos_vertex_geo - geo.cos_vertex).max())
    return AngleCheck(skipped=False, reason=None,
                      dihedral_deviation=dihedral_dev,
                      vertex_deviation=vertex_dev)


def _fmt(x):
    return format(float(x), ".17g")


def export_coordinates(emb: Embedding, geometry: SimplexGeometry, path):
    """Write coordinates and simplex geometry to a CSV-with-sections file.

    Layout: a ``node,x1,...,x{n-1}`` header and one row per node (1-based
    ids), then ``# circumcenter``, ``# circumradius``, ``# cos_dihedral``
    and ``# cos_vertex`` sections.  Reals carry 17 significant digits so a
    read-back is bit-identical.
    """
    b = emb.coordinates
    dim, n = b.shape
    lines = ["node," + ",".join(f"x{k}" for k in range(1, dim + 1))]
    for i in range(n):
        lines.append(",".join([str(i + 1)] + [_fmt(x) for x in b[:, i]]))
    lines.append("# circumcenter")
    lines.append(",".join(_fmt(x) for x in geometry.circumcenter))
    lines.append("# circumradius")
    lines.append(_fmt(geometry.circumradius))
    for name, matrix in (("cos_dihedral", geometry.cos_dihedral),
                         ("cos_vertex", geometry.cos_vertex)):
        lines.append(f"# {name}")
        for row in matrix:
            lines.append(",".join(_fmt(x) for x in row))
    text = "\n".join(lines) + "\n"
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write coordinates to {path}: {exc}") from exc


def read_coordinates(path):
    """Read back a file written by :func:`export_coordinates`.

    Returns a dict with ``coordinates``, ``circumcenter``, ``circumradius``,
    ``cos_dihedral`` and ``cos_vertex``; exact inverse of the export at the
    written precision.  A missing section, a non-numeric line or a ragged
    section raises ``ValidationError`` naming it.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise ValidationError(f"cannot read coordinates from {path}: {exc}") from exc
    sections = {"coordinates": []}
    current = "coordinates"
    for number, line in enumerate(lines[1:], start=2):
        if line.startswith("# "):
            current = line[2:]
            sections[current] = []
        elif line:
            try:
                sections[current].append([float(tok) for tok in line.split(",")])
            except ValueError:
                raise ValidationError(
                    f"{path}: line {number} is not a row of numbers: {line!r}"
                ) from None
    for name in ("coordinates", "circumcenter", "circumradius", "cos_dihedral",
                 "cos_vertex"):
        if not sections.get(name):
            raise ValidationError(f"{path}: missing or empty section {name!r}")
    try:
        return {
            "coordinates": np.array([row[1:] for row in sections["coordinates"]]).T,
            "circumcenter": np.array(sections["circumcenter"][0]),
            "circumradius": sections["circumradius"][0][0],
            "cos_dihedral": np.array(sections["cos_dihedral"]),
            "cos_vertex": np.array(sections["cos_vertex"]),
        }
    except ValueError:
        raise ValidationError(f"{path}: a section has rows of unequal length") from None
