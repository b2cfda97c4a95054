"""One factorization per Laplacian object.

A ``SignedLaplacianQ`` keeps the eigendecomposition its validation takes
and ``Q^+`` formed from it; everything derived from ``Q`` reads those
instead of factoring ``Q`` again.  A ``DirectedLaplacian`` fills in its
balancing, ``L_s^+`` and ``(L_s^+)^+`` on first use and keeps them the
same way.  The counts below are the calls of
``numpy.linalg.svd``, ``eigh``, ``cond`` and ``solve`` made by one library
call.  The condition gate of ``solve_conditioned`` and ``schur_complement``
takes one of two routes.  A block with a positive off-diagonal entry (a
resistance matrix, most ``K`` blocks) is one ``cond`` (whose own SVD is
counted as a ``cond``, not as an ``svd``) and one ``solve``.  The
eliminated block of a Kron reduction is a Z-matrix and takes two
``solve`` and no ``cond``: its ones-solutions certify it as an M-matrix
and give the bound ``sqrt(kappa_1 kappa_inf)`` on its condition number.

The sign convention of ``sym_eig`` is checked bit for bit against a
per-column reference loop kept here.
"""

from collections import Counter

import numpy as np
import pytest

from resgeo.cli import load_graph, main
from resgeo.curvature import (
    check_commutativity,
    curvature_radius_q,
    curvature_radius_sc,
    curvature_radius_scwb,
    reduce_curvature_radius,
    subset_curvature_radius,
    undirect,
    verify_fiedler_bapat,
)
from resgeo.embed import embed, simplex_geometry
from resgeo.generators import (
    random_class_q,
    random_sc_laplacian,
    random_scwb_laplacian,
)
from resgeo.graph import (
    DirectedLaplacian,
    SignedLaplacianQ,
    _classify_q,
    _shared_kernel,
    _shared_sym_pinv,
    sym_pinv,
    weight_balance,
)
from resgeo.kron import kron_reduce, kron_reduce_q
from resgeo.linalg import _fix_signs, centering_projector, sym_eig
from resgeo.maxvar import characterize, solve_maxvar
from resgeo.resistance import (
    classify_metric,
    effective_resistance_directed,
    q_from_distance,
    resistance_matrix_q,
    resistance_matrix_sc,
    resistance_matrix_scwb,
)

Q30 = random_class_q(30, np.random.default_rng(30), ensure_signed=True)


@pytest.fixture
def kernels(monkeypatch):
    """Calls of ``numpy.linalg.svd``, ``eigh``, ``cond`` and ``solve``."""
    counts = Counter()
    for name in ("svd", "eigh", "cond", "solve"):
        def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_construction_takes_one_eigh(kernels):
    SignedLaplacianQ(Q30.matrix)
    assert (kernels["svd"], kernels["eigh"]) == (0, 1)


@pytest.fixture
def q30_csv(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("\n".join(",".join(format(v, ".17g") for v in row)
                              for row in Q30.matrix) + "\n")
    return str(path)


def test_cli_loads_a_signed_csv_with_one_eigh(kernels, q30_csv):
    assert isinstance(load_graph(q30_csv, as_laplacian=True), SignedLaplacianQ)
    assert (kernels["svd"], kernels["eigh"]) == (0, 1)


def test_cli_check_reads_the_spectrum_of_a_signed_csv_off_its_eigh(
        kernels, q30_csv, capsys):
    # One eigh to load Q and one for the class report; the symmetric
    # spectrum is the loaded object's eigenvalues, not a third eigh.
    assert main(["check", q30_csv, "--as-laplacian"]) == 0
    capsys.readouterr()
    assert (kernels["svd"], kernels["eigh"]) == (0, 2)


def test_validated_and_constructed_q_agree_bit_for_bit():
    # undirect checks K and then builds Q from the cleaned matrix.
    built = SignedLaplacianQ(Q30.matrix)
    checked = SignedLaplacianQ(_classify_q(Q30.matrix)[2][0])
    for a, b in ((built.matrix, checked.matrix), (built.pinv, checked.pinv),
                 (built.eig.values, checked.eig.values),
                 (built.eig.vectors, checked.eig.vectors)):
        assert np.array_equal(a, b)


SOLUTION = solve_maxvar(resistance_matrix_q(Q30))


@pytest.mark.parametrize("derive, gated", [
    (resistance_matrix_q, 0),
    (curvature_radius_q, 0),
    (lambda q: curvature_radius_q(q, subset=range(10)), 1),
    (verify_fiedler_bapat, 0),
    (embed, 0),
    (lambda q: simplex_geometry(q, embed(q)), 0),
    (lambda q: characterize(SOLUTION, q), 1),
], ids=["resistance", "curvature", "curvature_subset", "fiedler_bapat",
        "embed", "geometry", "characterize"])
def test_derived_quantities_take_no_factorization(kernels, derive, gated):
    # Whole-graph curvature is the closed form in Q and Q^+; only a proper
    # subset's curvature solves, behind one condition gate.
    derive(Q30)
    assert (kernels["svd"], kernels["eigh"]) == (0, 0)
    assert (kernels["cond"], kernels["solve"]) == (gated, gated)


def test_classify_metric_takes_one_eigh(kernels):
    omega = resistance_matrix_q(Q30).omega
    assert classify_metric(omega).label == "strict_negative_type"
    assert (kernels["svd"], kernels["eigh"]) == (0, 1)


def test_q_from_distance_takes_two_eigh(kernels):
    # One for the Gram block on 1-perp, one to build Q; checking Q apart
    # from building it would factor Q twice.
    q_from_distance(resistance_matrix_q(Q30).omega)
    assert (kernels["svd"], kernels["eigh"]) == (0, 2)


def test_kron_reduce_q_takes_one_eigh(kernels):
    kron_reduce_q(Q30, range(0, 30, 2))
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


# --- DirectedLaplacian --------------------------------------------------------

SC20 = random_sc_laplacian(20, np.random.default_rng(20)).matrix
SCWB20 = random_scwb_laplacian(20, np.random.default_rng(21)).matrix
HALF = list(range(0, 20, 2))


def test_unbalanced_object_balances_and_inverts_once(kernels):
    lap = DirectedLaplacian(SC20)
    assert not lap.weight_balanced
    weight_balance(lap)
    resistance_matrix_sc(lap)
    curvature_radius_sc(lap)
    # One grounded solve for the balancing and one SVD of the balanced L
    # for L_s^+, both kept and read by the later calls.  The gated Omega
    # solve of the curvature is one cond and one solve.
    assert (kernels["svd"], kernels["eigh"]) == (1, 0)
    assert (kernels["cond"], kernels["solve"]) == (1, 2)


def test_balancing_is_one_solve(kernels):
    weight_balance(DirectedLaplacian(SC20))
    assert kernels == Counter(solve=1)


def test_balanced_object_factors_once(kernels):
    lap = DirectedLaplacian(SCWB20)
    assert lap.weight_balanced
    curvature_radius_scwb(lap)
    verify_fiedler_bapat(lap)
    reduce_curvature_radius(lap, HALF)
    # One SVD for L_s^+ and one for K = (L_s^+)^+, where each call took
    # one SVD and one eigh before.  K takes the SVD route that undirect
    # takes, so undirect on this object reads it.
    assert (kernels["svd"], kernels["eigh"]) == (2, 0)


def test_undirect_factors_twice_on_a_fresh_object(kernels):
    lap = DirectedLaplacian(SCWB20)
    undirect(lap)
    assert (kernels["svd"], kernels["eigh"]) == (2, 2)


def test_undirect_reads_the_kept_sym_pinv(kernels):
    lap = DirectedLaplacian(SCWB20)
    sym_pinv(lap)
    kernels.clear()
    undirect(lap)
    assert (kernels["svd"], kernels["eigh"]) == (1, 2)


def test_undirect_reads_the_kept_kernel(kernels):
    # After the curvature has formed K, undirect only validates it: one
    # eigh to check K, one to build Q from it, and no SVD.
    lap = DirectedLaplacian(SCWB20)
    curvature_radius_scwb(lap)
    kernels.clear()
    q = undirect(lap)
    assert (kernels["svd"], kernels["eigh"]) == (0, 2)
    # validation recomputes the diagonal from the off-diagonal part
    off = ~np.eye(lap.n, dtype=bool)
    assert np.array_equal(q.matrix[off], _shared_kernel(lap)[off])


@pytest.mark.parametrize("derive", [
    lambda lap: kron_reduce(lap, HALF),
    lambda lap: effective_resistance_directed(lap, 3, 8),
], ids=["kron_reduce", "pair_resistance"])
def test_kron_elimination_is_gated_without_svd(kernels, derive):
    # The eliminated Laplacian block is an M-matrix: one solve of
    # L[e,e] [L[e,k] | 1] and one of L[e,e]^T 1 give the reduction and
    # the gate's number.
    derive(DirectedLaplacian(SC20))
    assert (kernels["svd"], kernels["eigh"]) == (0, 0)
    assert (kernels["cond"], kernels["solve"]) == (0, 2)


def test_commutativity_gates_its_kernel_block_by_svd(kernels):
    # The K = (L_s^+)^+ block has positive off-diagonal entries, so it
    # keeps the SVD gate (1 cond + 1 solve); the Kron side takes 2 solves.
    check_commutativity(DirectedLaplacian(SCWB20), HALF)
    assert (kernels["cond"], kernels["solve"]) == (1, 3)


def _reference_signs(vectors):
    """The sign convention one column at a time: the first entry above
    1e-8 of the column's peak magnitude is made positive."""
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        peak = np.abs(col).max()
        if peak == 0.0:
            continue
        lead = np.flatnonzero(np.abs(col) > 1e-8 * peak)[0]
        if col[lead] < 0:
            vectors[:, k] = -col
    return vectors


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


SYMMETRIC = {
    "gaussian": (lambda h: h + h.T)(np.random.default_rng(3).normal(size=(12, 12))),
    "q30": Q30.matrix,
    "k4_laplacian": 4.0 * np.eye(4) - np.ones((4, 4)),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_sym_eig_signs_match_the_column_loop(name):
    m = SYMMETRIC[name]
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    order = np.argsort(w)[::-1]
    expected = _reference_signs(np.ascontiguousarray(v[:, order]))
    eig = sym_eig(m)
    assert _same_bits(eig.values, w[order])
    assert _same_bits(eig.vectors, expected)


SIGN_CASES = {
    # A zero column (one of them -0.0) is left alone.
    "zero_column": np.array([[0.0, -1.0, -0.0], [0.0, 2.0, -0.0]]),
    # Entries at or below 1e-8 of the peak do not lead, whatever their sign.
    "small_leading": np.array([[5e-9, -5e-9, -2e-8, 1e-8, -0.0],
                               [-1.0, 1.0, 1.0, -1.0, -1.0],
                               [0.3, -0.3, 0.3, 0.3, 0.0]]),
    "gaussian": np.random.default_rng(7).normal(size=(6, 5)),
}


@pytest.mark.parametrize("name", sorted(SIGN_CASES))
def test_fix_signs_matches_the_column_loop(name):
    got = SIGN_CASES[name].copy()
    assert _fix_signs(got) is got
    assert _same_bits(got, _reference_signs(SIGN_CASES[name].copy()))


def _leaves(value):
    """The fields of a result in a fixed order, Laplacians by their matrix."""
    if hasattr(value, "__dataclass_fields__"):
        return [leaf for name in sorted(value.__dataclass_fields__)
                for leaf in _leaves(getattr(value, name))]
    if isinstance(value, (DirectedLaplacian, SignedLaplacianQ)):
        return [value.matrix]
    return [value]


def _on_balanced(derive, *args):
    return lambda lap: derive(weight_balance(lap).balanced, *args)


DERIVED = {
    "weight_balance": weight_balance,
    "sym_pinv": sym_pinv,
    "resistance_sc": resistance_matrix_sc,
    "curvature_sc": curvature_radius_sc,
    "balanced_resistance": _on_balanced(resistance_matrix_scwb),
    "balanced_curvature": _on_balanced(curvature_radius_scwb),
    "fiedler_bapat": _on_balanced(verify_fiedler_bapat),
    "reduced_curvature": _on_balanced(reduce_curvature_radius, HALF),
    "subset_curvature": lambda lap: subset_curvature_radius(
        resistance_matrix_scwb(weight_balance(lap).balanced), HALF[:4]),
    "commutativity": _on_balanced(check_commutativity, HALF),
    "undirect": _on_balanced(undirect),
}


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_reused_object_matches_fresh_objects_bit_for_bit(order):
    names = sorted(DERIVED, reverse=order == "reverse")
    lap = DirectedLaplacian(SC20)
    for name in names:
        reused = _leaves(DERIVED[name](lap))
        fresh = _leaves(DERIVED[name](DirectedLaplacian(SC20)))
        assert len(reused) == len(fresh), name
        for a, b in zip(reused, fresh):
            assert np.array_equal(a, b), name


def test_writing_into_sym_pinv_changes_no_later_result():
    lap = DirectedLaplacian(SCWB20)
    handed_out = sym_pinv(lap)
    assert not np.shares_memory(handed_out, _shared_sym_pinv(lap))
    before = handed_out.copy()
    handed_out += 1.0
    assert np.array_equal(sym_pinv(lap), before)
    fresh = DirectedLaplacian(SCWB20)
    for derive in (resistance_matrix_scwb, curvature_radius_scwb,
                   verify_fiedler_bapat, undirect):
        for a, b in zip(_leaves(derive(lap)), _leaves(derive(fresh))):
            assert np.array_equal(a, b)


def test_balancing_is_kept_and_read_only():
    lap = DirectedLaplacian(SC20)
    wb = weight_balance(lap)
    assert weight_balance(lap) is wb
    with pytest.raises(ValueError):
        wb.m[0] = 1.0


@pytest.mark.parametrize("kept", [_shared_sym_pinv, _shared_kernel])
def test_kept_arrays_are_read_only(kept):
    lap = DirectedLaplacian(SCWB20)
    array = kept(lap)
    assert kept(lap) is array
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0, 0] = 1.0
