import numpy as np
import pytest

from resgeo.curvature import curvature_radius_q
from resgeo.embed import (
    Embedding,
    embed,
    export_coordinates,
    read_coordinates,
    simplex_geometry,
    verify_angles_geometric,
)
from resgeo.errors import ValidationError
from resgeo.generators import random_class_q, random_unsigned_laplacian
from resgeo.graph import SignedLaplacianQ
from resgeo.linalg import pseudoinverse
from resgeo.resistance import resistance_matrix_q

K3 = SignedLaplacianQ(np.array([
    [2.0, -1.0, -1.0],
    [-1.0, 2.0, -1.0],
    [-1.0, -1.0, 2.0],
]))

EDGE = SignedLaplacianQ(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def squared_distances(coords):
    diff = coords[:, :, None] - coords[:, None, :]
    return (diff ** 2).sum(axis=0)


def test_edge_embedding():
    emb = embed(EDGE)
    assert emb.coordinates.shape == (1, 2)
    assert np.abs(np.sort(emb.coordinates[0]) - np.array([-0.5, 0.5])).max() < 1e-12
    geo = simplex_geometry(EDGE, emb)
    assert np.abs(geo.circumcenter).max() < 1e-12
    assert abs(geo.circumradius - 0.5) < 1e-12


def test_triangle_angles():
    emb = embed(K3)
    geo = simplex_geometry(K3, emb)
    off = ~np.eye(3, dtype=bool)
    assert np.abs(geo.cos_dihedral[off] - 0.5).max() < 1e-12
    assert np.abs(geo.cos_vertex[off] + 0.5).max() < 1e-12
    assert np.abs(np.diag(geo.cos_dihedral) - 1.0).max() == 0.0


def test_distances_match_resistances():
    rng = np.random.default_rng(50)
    for _ in range(10):
        q = random_class_q(6, rng, ensure_signed=True)
        emb = embed(q)
        omega = resistance_matrix_q(q).omega
        assert np.abs(squared_distances(emb.coordinates) - omega).max() < 1e-8


def test_embedding_identities():
    rng = np.random.default_rng(51)
    q = random_class_q(5, rng)
    emb = embed(q)
    b = emb.coordinates
    qp = pseudoinverse(q.matrix)
    assert np.abs(b.sum(axis=1)).max() < 1e-9
    assert np.abs(b.T @ b - qp).max() < 1e-8
    bp = pseudoinverse(b)
    assert np.abs(bp @ bp.T - q.matrix).max() < 1e-7 * max(1.0, np.abs(q.matrix).max())


def test_circumcenter_is_equidistant():
    rng = np.random.default_rng(52)
    q = random_class_q(6, rng, ensure_signed=True)
    emb = embed(q)
    geo = simplex_geometry(q, emb)
    dist = np.linalg.norm(emb.coordinates - geo.circumcenter[:, None], axis=0)
    assert np.abs(dist - geo.circumradius).max() < 1e-8
    cr = curvature_radius_q(q)
    assert abs(geo.circumradius - np.sqrt(cr.sigma2)) < 1e-10


def test_vertex_norms_are_kernel_diagonals():
    rng = np.random.default_rng(53)
    q = random_class_q(5, rng)
    emb = embed(q)
    qp = pseudoinverse(q.matrix)
    norms2 = (emb.coordinates ** 2).sum(axis=0)
    assert np.abs(norms2 - np.diag(qp)).max() < 1e-9


def test_signed_coupling_forces_obtuse_faces():
    rng = np.random.default_rng(54)
    for _ in range(10):
        q = random_class_q(5, rng, ensure_signed=True)
        geo = simplex_geometry(q, embed(q))
        pos = q.matrix > 1e-10
        np.fill_diagonal(pos, False)
        assert pos.any()
        assert (geo.cos_dihedral[pos] < 0.0).all()


def test_angle_recomputation_matches():
    rng = np.random.default_rng(55)
    for _ in range(10):
        q = random_class_q(6, rng, ensure_signed=True)
        emb = embed(q)
        check = verify_angles_geometric(q, emb)
        assert not check.skipped
        assert check.passed, (check.dihedral_deviation, check.vertex_deviation)


def test_angle_check_rejects_a_moved_vertex():
    # Vertex 3 moves by 1e-6 of its norm; recentering is a translation,
    # which changes no dihedral angle, so only the moved vertex shows.
    q = random_class_q(8, np.random.default_rng(57))
    emb = embed(q)
    assert verify_angles_geometric(q, emb).passed
    b = emb.coordinates.copy()
    b[:, 3] += 1e-6 * np.linalg.norm(b[:, 3]) * np.eye(b.shape[0])[0]
    b -= b.mean(axis=1, keepdims=True)
    moved = verify_angles_geometric(q, Embedding(b, emb.eigenvalues, emb.vectors))
    assert not moved.passed
    assert min(moved.dihedral_deviation, moved.vertex_deviation) > 1e-8


def test_angle_check_skips_two_nodes():
    emb = embed(EDGE)
    check = verify_angles_geometric(EDGE, emb)
    assert check.skipped
    assert check.passed


def test_export_round_trip(tmp_path):
    rng = np.random.default_rng(56)
    q = random_class_q(5, rng, ensure_signed=True)
    emb = embed(q)
    geo = simplex_geometry(q, emb)
    path = tmp_path / "coords.csv"
    export_coordinates(emb, geo, path)
    data = read_coordinates(path)
    assert np.array_equal(data["coordinates"], emb.coordinates)
    assert np.array_equal(data["circumcenter"], geo.circumcenter)
    assert data["circumradius"] == geo.circumradius
    assert np.array_equal(data["cos_dihedral"], geo.cos_dihedral)
    assert np.array_equal(data["cos_vertex"], geo.cos_vertex)


def test_export_bad_path():
    rng = np.random.default_rng(57)
    q = random_class_q(4, rng)
    emb = embed(q)
    geo = simplex_geometry(q, emb)
    with pytest.raises(ValidationError):
        export_coordinates(emb, geo, "/nonexistent-dir/coords.csv")


def _exported_lines(tmp_path):
    emb = embed(K3)
    path = tmp_path / "coords.csv"
    export_coordinates(emb, simplex_geometry(K3, emb), path)
    return path, path.read_text().splitlines()


def test_read_coordinates_names_a_missing_section(tmp_path):
    path, lines = _exported_lines(tmp_path)
    path.write_text("\n".join(lines[:lines.index("# circumcenter")]) + "\n")
    with pytest.raises(ValidationError, match="'circumcenter'"):
        read_coordinates(path)


def test_read_coordinates_names_a_non_numeric_line(tmp_path):
    path, lines = _exported_lines(tmp_path)
    lines[2] = lines[2].replace(",", ",abc,", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="line 3 .*abc"):
        read_coordinates(path)


def test_read_coordinates_rejects_ragged_rows(tmp_path):
    path, lines = _exported_lines(tmp_path)
    lines[-1] = lines[-1].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="unequal length"):
        read_coordinates(path)


def test_unsigned_graphs_embed_too():
    rng = np.random.default_rng(58)
    q = random_unsigned_laplacian(7, rng)
    emb = embed(q)
    omega = resistance_matrix_q(q).omega
    assert np.abs(squared_distances(emb.coordinates) - omega).max() < 1e-8
