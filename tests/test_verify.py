import numpy as np
import pytest

from resgeo.generators import (
    random_class_q,
    random_keep,
    random_sc_laplacian,
    random_scwb_laplacian,
    random_unsigned_laplacian,
)
from resgeo.verify import run_verification


def test_generator_contracts():
    rng = np.random.default_rng(60)
    for n in (2, 3, 5, 9):
        scwb = random_scwb_laplacian(n, rng)
        assert scwb.strongly_connected and scwb.weight_balanced

        sc = random_sc_laplacian(n, rng)
        assert sc.strongly_connected

        unsigned = random_unsigned_laplacian(n, rng)
        off = unsigned.matrix.copy()
        np.fill_diagonal(off, 0.0)
        assert off.max() <= 0.0

        q = random_class_q(n, rng)
        w = np.linalg.eigvalsh(q.matrix)
        assert w[0] > -1e-9 * max(1.0, np.abs(q.matrix).max())


def test_random_class_q_signed_flag():
    rng = np.random.default_rng(61)
    for _ in range(10):
        q = random_class_q(5, rng, ensure_signed=True)
        off = q.matrix.copy()
        np.fill_diagonal(off, 0.0)
        assert off.max() > 1e-8


def test_random_keep_bounds():
    rng = np.random.default_rng(62)
    for _ in range(20):
        keep = random_keep(8, rng)
        assert 2 <= len(keep) <= 8
        assert sorted(set(keep)) == list(keep)
    assert len(random_keep(8, rng, size=1)) == 2  # clamped to the minimum
    assert len(random_keep(8, rng, size=99)) == 8


def test_generators_are_deterministic():
    a = random_scwb_laplacian(6, np.random.default_rng(63))
    b = random_scwb_laplacian(6, np.random.default_rng(63))
    assert np.array_equal(a.matrix, b.matrix)


def test_verification_suite_passes():
    results = run_verification(seed=1, cases=5, n_max=8)
    assert len(results) >= 20
    for r in results:
        assert r.passed, f"{r.name}: {r.max_residual} > {r.threshold}"
        assert r.cases == 5


def test_verification_zero_cases():
    results = run_verification(seed=1, cases=0, n_max=8)
    assert results
    assert all(r.passed and r.cases == 0 for r in results)


def test_verification_is_deterministic():
    a = run_verification(seed=9, cases=3, n_max=6)
    b = run_verification(seed=9, cases=3, n_max=6)
    assert [(r.name, r.max_residual) for r in a] == \
        [(r.name, r.max_residual) for r in b]


@pytest.mark.parametrize("seed", [39, 148])
def test_embedding_circumcenter_passes_on_ill_conditioned_suites(seed):
    # These suites draw ill-conditioned signed Laplacians; a circumcenter
    # solved from Omega p = 1 misses the embedding invariants' 1e-8 bound
    # on them (1.7e-8 and 5.6e-8), the closed form does not.
    for r in run_verification(seed, 10, 12):
        assert r.passed, f"{r.name}: {r.max_residual} > {r.threshold}"


@pytest.mark.parametrize("seed", [115, 534926514])
def test_inertia_congruence_passes_on_the_suites_it_failed(seed):
    # Their congruences, drawn as N + 2I, were conditioned badly enough
    # (cond 6.8e4 in suite 115) to push a nonzero eigenvalue of C^T S C
    # under inertia's 1e-9 relative zero cut.
    for r in run_verification(seed, 10, 12):
        assert r.passed, f"{r.name}: {r.max_residual} > {r.threshold}"
