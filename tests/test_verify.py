import numpy as np
import pytest

from resgeo import kron, verify
from resgeo.generators import (
    random_class_q,
    random_keep,
    random_sc_laplacian,
    random_scwb_laplacian,
    random_unsigned_laplacian,
)
from resgeo.graph import DirectedLaplacian
from resgeo.linalg import pseudoinverse
from resgeo.verify import run_verification

SHOWCASE = np.array([
    [3.0, -1.0, -2.0, 0.0],
    [0.0, 1.0, 0.0, -1.0],
    [0.0, 0.0, 2.0, -2.0],
    [-3.0, 0.0, 0.0, 3.0],
])


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


def test_kron_vs_gth_rejects_a_planted_error(monkeypatch):
    # Only this property: the others need the reduction to stay balanced.
    monkeypatch.setattr(verify, "_PROPERTIES", [
        p for p in verify._PROPERTIES if p[0] == "kron_vs_gth"])

    def _kron_vs_gth(seed):
        [result] = run_verification(seed, cases=5, n_max=12)
        return result

    assert _kron_vs_gth(3).passed
    exact = kron.kron_reduce

    def perturbed(lap, keep):
        result = exact(lap, keep)
        off = result.reduced.matrix.copy()
        np.fill_diagonal(off, 0.0)
        i, j = np.argwhere(off != 0.0)[0]
        off[i, j] *= 1.0 + 1e-8
        reduced = DirectedLaplacian(off - np.diag(off.sum(axis=1)))
        return kron.KronResult(reduced=reduced, kept=result.kept,
                               preserved=result.preserved)

    monkeypatch.setattr(kron, "kron_reduce", perturbed)
    planted = _kron_vs_gth(3)
    assert not planted.passed
    assert planted.max_residual > 5e-9


def test_pinv_via_shift_matches_pseudoinverse():
    lap = DirectedLaplacian(SHOWCASE)
    expected = pseudoinverse(SHOWCASE)
    for gamma in (1.0, -2.0, 10.0):
        shifted = verify._pinv_via_shift(lap, gamma=gamma)
        assert np.abs(shifted - expected).max() < 1e-10


def test_shifted_pinv_agreement_rejects_a_planted_error(monkeypatch):
    monkeypatch.setattr(verify, "_PROPERTIES", [
        p for p in verify._PROPERTIES if p[0] == "shifted_pinv_agreement"])
    [result] = run_verification(3, cases=5, n_max=12)
    assert result.passed
    exact = verify._pinv_via_shift

    def perturbed(lap, gamma=1.0):
        inv = exact(lap, gamma)
        inv[0, -1] += 1e-7
        return inv

    monkeypatch.setattr(verify, "_pinv_via_shift", perturbed)
    [planted] = run_verification(3, cases=5, n_max=12)
    assert not planted.passed
    assert planted.max_residual > 5e-8


def _benchmark_suite_seeds():
    """The suite seeds that the benchmark's verify-suite workload runs for
    workload seeds 1-20, eight per workload seed."""
    return [int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
            for seed in range(1, 21) for k in range(8)]


@pytest.mark.large
def test_verify_scan_has_no_failing_suite():
    failed = {}
    for seed in [*range(1, 301), *_benchmark_suite_seeds()]:
        bad = [r.name for r in run_verification(seed, cases=10, n_max=12)
               if not r.passed]
        if bad:
            failed[seed] = bad
    assert not failed
