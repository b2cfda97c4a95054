"""One factorization per signed Laplacian.

A ``SignedLaplacianQ`` keeps the eigendecomposition its validation takes
and ``Q^+`` formed from it; everything derived from ``Q`` reads those
instead of factoring ``Q`` again.  The counts below are the calls of
``numpy.linalg.svd`` and ``numpy.linalg.eigh`` made by one library call.
The condition gate of ``solve_conditioned`` goes through
``numpy.linalg.cond``, whose SVD is not counted here.
"""

from collections import Counter

import numpy as np
import pytest

from resgeo.curvature import curvature_radius_q, verify_fiedler_bapat
from resgeo.embed import embed, simplex_geometry
from resgeo.generators import random_class_q
from resgeo.graph import SignedLaplacianQ, validate_class_q
from resgeo.linalg import centering_projector
from resgeo.maxvar import characterize, solve_maxvar
from resgeo.resistance import classify_metric, resistance_matrix_q

Q30 = random_class_q(30, np.random.default_rng(30), ensure_signed=True)


@pytest.fixture
def kernels(monkeypatch):
    """Calls of ``numpy.linalg.svd`` and ``eigh`` made inside the test."""
    counts = Counter()
    for name in ("svd", "eigh"):
        def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_construction_takes_one_eigh(kernels):
    SignedLaplacianQ(Q30.matrix)
    assert (kernels["svd"], kernels["eigh"]) == (0, 1)


def test_validated_and_constructed_q_agree_bit_for_bit():
    built = SignedLaplacianQ(Q30.matrix)
    checked = validate_class_q(Q30.matrix).laplacian
    for a, b in ((built.matrix, checked.matrix), (built.pinv, checked.pinv),
                 (built.eig.values, checked.eig.values),
                 (built.eig.vectors, checked.eig.vectors)):
        assert np.array_equal(a, b)


SOLUTION = solve_maxvar(resistance_matrix_q(Q30))


@pytest.mark.parametrize("derive", [
    resistance_matrix_q,
    curvature_radius_q,
    verify_fiedler_bapat,
    embed,
    lambda q: simplex_geometry(q, embed(q)),
    lambda q: characterize(SOLUTION, q),
], ids=["resistance", "curvature", "fiedler_bapat", "embed", "geometry",
        "characterize"])
def test_derived_quantities_take_no_factorization(kernels, derive):
    derive(Q30)
    assert (kernels["svd"], kernels["eigh"]) == (0, 0)


def test_classify_metric_takes_one_eigh(kernels):
    omega = resistance_matrix_q(Q30).omega
    assert classify_metric(omega).label == "strict_negative_type"
    assert (kernels["svd"], kernels["eigh"]) == (0, 1)


def test_classify_metric_accepts_signed_resistances_at_n300():
    # Q is a centered Wishart Gram matrix, conditioned like the inverse of
    # the random_class_q draws.  The SVD pseudoinverse of Q left Omega
    # asymmetric by 1.0e-12 to 2.0e-11 of its largest entry on 8 of these
    # 10 draws, beyond classify_metric's 1e-12 relative check; Q^+ from
    # eigh is exactly symmetric.
    j = centering_projector(300)
    for seed in range(10):
        h = np.random.default_rng(seed).normal(size=(300, 300))
        q = SignedLaplacianQ(j @ (h.T @ h) @ j)
        omega = resistance_matrix_q(q).omega
        assert np.array_equal(omega, omega.T)
        label = classify_metric(omega).label
        assert label in ("strict_negative_type", "resistance_metric"), seed


@pytest.mark.parametrize("stored", ["matrix", "eig.values", "eig.vectors",
                                    "pinv"])
def test_stored_factorization_is_read_only(stored):
    array = Q30
    for attr in stored.split("."):
        array = getattr(array, attr)
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0] = 1.0


def test_embedding_does_not_alias_the_stored_factorization():
    emb = embed(Q30)
    for array in (emb.coordinates, emb.eigenvalues, emb.vectors):
        for stored in (Q30.eig.values, Q30.eig.vectors, Q30.pinv):
            assert not np.shares_memory(array, stored)
    b = emb.coordinates
    assert np.abs(b.T @ b - Q30.pinv).max() < 1e-12 * np.abs(Q30.pinv).max()
