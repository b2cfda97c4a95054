import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resgeo import linalg
from resgeo.errors import DegenerateBlockError, NumericError, ValidationError
from resgeo.linalg import (
    centering_projector,
    inertia,
    normalize_indices,
    pseudoinverse,
    schur_complement,
    schur_sequential,
    solve_conditioned,
    sym_eig,
)


def random_matrix(seed, shape):
    return np.random.default_rng(seed).normal(size=shape)


def test_pseudoinverse_penrose_fixed():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 1.0]])
    ap = pseudoinverse(a)
    assert np.abs(a @ ap @ a - a).max() < 1e-12
    assert np.abs(ap @ a @ ap - ap).max() < 1e-12
    assert np.abs((a @ ap) - (a @ ap).T).max() < 1e-12
    assert np.abs((ap @ a) - (ap @ a).T).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 6))
def test_pseudoinverse_penrose_random(seed, rows, cols):
    a = random_matrix(seed, (rows, cols))
    ap = pseudoinverse(a)
    scale = max(1.0, np.abs(a).max())
    assert np.abs(a @ ap @ a - a).max() < 1e-10 * scale
    assert np.abs(ap @ a @ ap - ap).max() < 1e-10 * max(1.0, np.abs(ap).max())


def test_pseudoinverse_rank_deficient():
    # rank one, so the pseudoinverse must ignore the zero singular value
    a = np.outer([1.0, 2.0], [3.0, 4.0])
    ap = pseudoinverse(a)
    assert np.linalg.matrix_rank(ap) == 1
    assert np.abs(a @ ap @ a - a).max() < 1e-12


def sym_eig_pinv(a):
    return sym_eig(a).pinv()


def test_pseudoinverse_small_oracles():
    for pinv in (pseudoinverse, sym_eig_pinv):
        assert np.abs(pinv(np.diag([2.0, 0.0]))
                      - np.diag([0.5, 0.0])).max() < 1e-15
        edge = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.abs(pinv(edge) - edge / 4.0).max() < 1e-15


def symmetric_input(kind, seed=21):
    rng = np.random.default_rng(seed)
    if kind == "psd_kernel_one":
        # Laplacian of a complete graph with random weights
        w = np.triu(rng.uniform(0.5, 2.0, size=(40, 40)), 1)
        w = w + w.T
        return np.diag(w.sum(axis=1)) - w
    if kind == "indefinite":
        a = rng.normal(size=(40, 40))
        return a + a.T
    # rank four with eigenvalues of both signs
    v, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    a = (v * np.array([5.0, 2.0, -3.0, -1.0] + [0.0] * 8)) @ v.T
    return (a + a.T) / 2.0


@pytest.mark.parametrize("kind", ["psd_kernel_one", "indefinite",
                                  "rank_deficient"])
def test_symmetric_pinv_matches_svd_route(kind):
    a = symmetric_input(kind)
    p = sym_eig_pinv(a)
    reference = pseudoinverse(a)
    assert np.array_equal(p, p.T)
    assert np.abs(p - reference).max() <= 1e-10 * np.abs(reference).max()
    assert np.linalg.matrix_rank(p) == np.linalg.matrix_rank(reference)


def test_pseudoinverse_penrose_large():
    a = random_matrix(99, (50, 50))
    ap = pseudoinverse(a)
    assert np.abs(a @ ap @ a - a).max() < 1e-9 * np.abs(a).max()


def test_pseudoinverse_matches_numpy():
    a = random_matrix(3, (5, 4))
    assert np.abs(pseudoinverse(a) - np.linalg.pinv(a)).max() < 1e-12


def test_sym_eig_descending_and_reconstruction():
    a = random_matrix(7, (5, 5))
    a = a + a.T
    eig = sym_eig(a)
    assert all(x >= y for x, y in zip(eig.values, eig.values[1:]))
    recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
    assert np.abs(recon - a).max() < 1e-10


def test_sym_eig_sign_convention_deterministic():
    a = random_matrix(11, (4, 4))
    a = a + a.T
    v1 = sym_eig(a).vectors
    v2 = sym_eig(a.copy()).vectors
    assert np.array_equal(v1, v2)
    for k in range(4):
        lead = v1[np.abs(v1[:, k]) > 1e-8 * np.abs(v1[:, k]).max(), k][0]
        assert lead > 0


@pytest.mark.parametrize("shape", [(2, 3), (0, 3), (3, 0)])
def test_pseudoinverse_of_zero_or_empty_is_zero_transposed(shape):
    # Nothing passes the rank cut: the product over no columns is all
    # zeros, shaped like the transpose.
    p = pseudoinverse(np.zeros(shape))
    assert p.shape == shape[::-1]
    assert not np.any(p) and not np.signbit(p).any()


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValidationError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_schur_complement_reproduces_inverse_block():
    # Schur complement onto keep equals the inverse of the keep block of
    # the inverse, for invertible matrices
    a = random_matrix(9, (6, 6)) + 6.0 * np.eye(6)
    keep = [0, 2, 5]
    red = schur_complement(a, keep)
    expected = np.linalg.inv(np.linalg.inv(a)[np.ix_(keep, keep)])
    assert np.abs(red - expected).max() < 1e-9


def test_schur_block_matches_sequential():
    a = random_matrix(13, (7, 7)) + 7.0 * np.eye(7)
    keep = [1, 3, 4]
    block = schur_complement(a, keep)
    seq = schur_sequential(a, keep)
    assert np.abs(block - seq).max() < 1e-9


def test_schur_full_keep_is_copy():
    a = random_matrix(17, (4, 4))
    red = schur_complement(a, range(4))
    assert np.array_equal(red, a)
    red[0, 0] = 99.0
    assert a[0, 0] != 99.0


def test_schur_small_oracles():
    assert np.abs(schur_complement(np.array([[2.0, 1.0], [1.0, 2.0]]), [0])
                  - 1.5).max() < 1e-15
    cycle = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]])
    expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.abs(schur_complement(cycle, [0, 1]) - expected).max() < 1e-15
    assert np.abs(schur_sequential(cycle, [0, 1]) - expected).max() < 1e-15


def test_schur_singular_block_raises():
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    with pytest.raises(DegenerateBlockError):
        schur_complement(a, [0])
    with pytest.raises(DegenerateBlockError):
        schur_sequential(a, [0])


def _wide_weight_laplacian(n, rng):
    """Directed Laplacian of a Hamiltonian cycle plus random edges, with
    weights spread log-uniformly over 1e-4..1e4."""
    adjacency = np.zeros((n, n))
    order = rng.permutation(n)
    for i in range(n):
        adjacency[order[i], order[(i + 1) % n]] += 10.0 ** rng.uniform(-4, 4)
    for _ in range(int(rng.integers(0, 2 * n))):
        src, dst = rng.integers(0, n, size=2)
        if src != dst:
            adjacency[src, dst] += 10.0 ** rng.uniform(-4, 4)
    lap = -adjacency
    np.fill_diagonal(lap, adjacency.sum(axis=1))
    return lap


@pytest.mark.parametrize("seed", range(40))
def test_laplacian_block_gate_is_never_weaker_than_kappa2(monkeypatch, seed):
    # The eliminated block of a Laplacian is a nonsingular M-matrix, gated
    # on sqrt(kappa_1 kappa_inf) without an SVD.  That number must lie in
    # [kappa_2, n kappa_2]: with the limit just under kappa_2 the gate
    # refuses, with the limit at n kappa_2 it passes.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 61))
    lap = _wide_weight_laplacian(n, rng)
    keep = np.sort(rng.choice(n, int(rng.integers(1, n)), replace=False))
    elim = np.setdiff1d(np.arange(n), keep)
    kappa2 = np.linalg.cond(lap[np.ix_(elim, elim)])

    def no_svd(*args, **kwargs):
        raise AssertionError("an M-matrix block was gated by SVD")

    monkeypatch.setattr(np.linalg, "cond", no_svd)
    monkeypatch.setattr(linalg, "COND_LIMIT", kappa2 * (1.0 - 1e-12))
    with pytest.raises(DegenerateBlockError):
        schur_complement(lap, keep)
    monkeypatch.setattr(linalg, "COND_LIMIT", elim.size * kappa2 * (1.0 + 1e-12))
    schur_complement(lap, keep)


def test_singular_z_block_raises_degenerate_not_linalg_error():
    # Nodes 0 and 1 only reach each other: the eliminated block
    # [[1, -1], [-1, 1]] is exactly singular and its LU hits a zero pivot.
    lap = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    with pytest.raises(DegenerateBlockError, match="singular"):
        schur_complement(lap, [2])
    with pytest.raises(NumericError, match="test system is singular"):
        solve_conditioned(lap[:2, :2], np.ones(2), what="test system")


def test_z_block_that_is_not_an_m_matrix_is_gated_by_svd(monkeypatch):
    # [[1, -2], [-2, 1]] is a Z-matrix with inverse -[[1, 2], [2, 1]] / 3:
    # its ones-solutions are negative, so it is not an M-matrix, and its
    # kappa_2 = 3 is read by SVD; it passes the gate as before.  The
    # complement onto node 2 is 2 - (-1/3) = 7/3.
    a = np.array([[1.0, -2.0, 1.0], [-2.0, 1.0, 0.0], [1.0, 0.0, 2.0]])
    assert abs(schur_complement(a, [2])[0, 0] - 7.0 / 3.0) < 1e-14
    monkeypatch.setattr(linalg, "COND_LIMIT", 2.9)
    with pytest.raises(DegenerateBlockError):
        schur_complement(a, [2])


def test_gate_overflow_is_refused_without_a_warning():
    # kappa = 1e600 overflows a float; RuntimeWarnings are errors in tests.
    a = np.diag([1e-300, 1e300, 1.0])
    with pytest.raises(DegenerateBlockError, match="cond inf"):
        schur_complement(a, [2])


def test_inertia_counts():
    sig = inertia(np.diag([2.0, -1.0, 0.0, 3.0]))
    assert (sig.positive, sig.negative, sig.zero) == (2, 1, 1)
    sig = inertia(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert (sig.positive, sig.negative, sig.zero) == (1, 1, 0)


def test_inertia_threshold_is_relative():
    sig = inertia(np.diag([1e6, 1e-5]))
    assert sig.zero == 1


def test_centering_projector():
    j = centering_projector(4)
    assert np.abs(j @ np.ones(4)).max() < 1e-15
    assert np.abs(j @ j - j).max() < 1e-15


def test_centering_projector_small_oracles():
    assert np.abs(centering_projector(1) - np.zeros((1, 1))).max() < 1e-15
    expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.abs(centering_projector(2) - expected).max() < 1e-15


def test_solve_conditioned_rejects_singular():
    with pytest.raises(NumericError):
        solve_conditioned(np.ones((2, 2)), np.ones(2), what="test system")


def test_normalize_indices():
    assert normalize_indices([3, 1, 1], 5).tolist() == [1, 3]
    with pytest.raises(ValidationError):
        normalize_indices([0, 9], 5)
    with pytest.raises(ValidationError):
        normalize_indices([-1], 5)
    with pytest.raises(ValidationError):
        normalize_indices([0], 5, min_size=2)
    with pytest.raises(ValidationError):
        normalize_indices([0.5], 5)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValidationError):
        pseudoinverse(np.array([[1.0, np.nan], [0.0, 1.0]]))
