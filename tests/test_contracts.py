"""Each input contract is checked once, where the input enters.

Three contracts: every object has at least two nodes; a raw matrix passed
where a resistance matrix is expected is validated as a
``ResistanceMatrix``; strong connectivity and weight balance are
preconditions with one message each, naming the operation that needs them.
"""

import numpy as np
import pytest

from resgeo.curvature import (
    CurvatureRadius,
    curvature_radius_scwb,
    subset_curvature_radius,
    undirect,
    wb_transform,
)
from resgeo.errors import StructureError, ValidationError
from resgeo.generators import (
    random_class_q,
    random_keep,
    random_sc_laplacian,
    random_scwb_laplacian,
    random_unsigned_laplacian,
)
from resgeo.graph import (
    DirectedLaplacian,
    SignedLaplacianQ,
    laplacian_from_edges,
    sym_pinv,
    weight_balance,
)
from resgeo.maxvar import (
    MaxVarSolution,
    characterize,
    solve_maxvar,
    solve_maxvar_exact,
    variance,
    verify_kkt,
)
from resgeo.resistance import (
    ResistanceMatrix,
    classify_metric,
    q_from_distance,
    resistance_matrix_sc,
    resistance_matrix_scwb,
)

TWO_NODES = "at least two points"

ONE_NODE = MaxVarSolution(f=np.ones(1), support=np.array([0]), value=0.0,
                          kkt_residual=0.0, method="exact")
UNIT = CurvatureRadius(p=np.ones(1), sigma2=1.0)

#: Entries that take a graph, a signed Laplacian, or a resistance or
#: distance matrix, called on the given matrix.
MATRIX_ENTRIES = {
    "DirectedLaplacian": DirectedLaplacian,
    "SignedLaplacianQ": SignedLaplacianQ,
    **{f"ResistanceMatrix({kind})":
       lambda m, kind=kind: ResistanceMatrix(m, kind)
       for kind in ("directed_sc", "scwb", "class_q")},
    "classify_metric": classify_metric,
    "q_from_distance": q_from_distance,
    "solve_maxvar": solve_maxvar,
    "solve_maxvar_exact": solve_maxvar_exact,
    "variance": lambda m: variance(m, np.ones(len(m))),
    "verify_kkt": lambda m: verify_kkt(m, np.ones(len(m))),
    "subset_curvature_radius":
        lambda m: subset_curvature_radius(m, range(len(m))),
    "wb_transform": lambda m: wb_transform(UNIT, np.ones(1), m),
    "characterize": lambda m: characterize(ONE_NODE, m),
}

#: Entries that take a node count.
COUNT_ENTRIES = {
    "laplacian_from_edges": lambda n: laplacian_from_edges(n, []),
    **{draw.__name__: lambda n, draw=draw: draw(n, np.random.default_rng(0))
       for draw in (random_scwb_laplacian, random_sc_laplacian,
                    random_unsigned_laplacian, random_class_q, random_keep)},
}


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("entry", sorted(MATRIX_ENTRIES))
def test_every_matrix_entry_refuses_fewer_than_two_nodes(entry, n):
    with pytest.raises(ValidationError, match=TWO_NODES):
        MATRIX_ENTRIES[entry](np.zeros((n, n)))


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
def test_every_node_count_entry_refuses_fewer_than_two_nodes(entry, n):
    with pytest.raises(ValidationError, match=TWO_NODES):
        COUNT_ENTRIES[entry](n)


# -- one resistance-matrix contract -------------------------------------------

#: The resistances of the path 0 - 1 - 2 - 3 with R(0, 3) set to 0: a
#: symmetric matrix with zero diagonal that is not a resistance matrix.
ZERO_ENTRY = np.array([[0.0, 1.0, 2.0, 0.0],
                       [1.0, 0.0, 1.0, 2.0],
                       [2.0, 1.0, 0.0, 1.0],
                       [0.0, 2.0, 1.0, 0.0]])
UNIFORM = np.full(4, 0.25)

RAW_ENTRIES = {
    "solve_maxvar": solve_maxvar,
    "solve_maxvar_exact": solve_maxvar_exact,
    "variance": lambda m: variance(m, UNIFORM),
    "verify_kkt": lambda m: verify_kkt(m, UNIFORM),
    "subset_curvature_radius": lambda m: subset_curvature_radius(m, range(4)),
    "wb_transform": lambda m: wb_transform(
        CurvatureRadius(p=UNIFORM, sigma2=1.0), np.ones(4), m),
    "characterize": lambda m: characterize(
        MaxVarSolution(f=UNIFORM, support=np.arange(4), value=0.5,
                       kkt_residual=0.0, method="exact"), m),
}


@pytest.mark.parametrize("entry", sorted(RAW_ENTRIES))
def test_raw_matrices_are_validated_as_resistance_matrices(entry):
    with pytest.raises(ValidationError, match="strictly positive"):
        RAW_ENTRIES[entry](ZERO_ENTRY)


@pytest.mark.parametrize("entry", ["solve_maxvar", "variance", "characterize"])
def test_symmetry_is_required_where_the_routine_needs_it(entry):
    asymmetric = ZERO_ENTRY + 1.0 - np.eye(4)
    asymmetric[0, 1] += 0.5
    with pytest.raises(ValidationError, match="symmetric"):
        RAW_ENTRIES[entry](asymmetric)
    # The same matrix is a valid directed resistance matrix, which the
    # variance routines refuse as an object too.
    directed = ResistanceMatrix(asymmetric, "directed_sc")
    with pytest.raises(ValidationError, match="directed_sc"):
        RAW_ENTRIES[entry](directed)
    subset_curvature_radius(directed, range(4))


@pytest.mark.parametrize("entry", [variance, verify_kkt])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_distributions_must_be_finite(entry, bad):
    # A NaN passed the sign and sum checks, and verify_kkt then certified
    # [nan, 1, 0] with residual 0.
    with pytest.raises(ValidationError, match="non-finite"):
        entry(np.ones((3, 3)) - np.eye(3), [bad, 1.0, 0.0])


# -- one connectivity and balance precondition --------------------------------

def _laplacian(adjacency):
    adjacency = np.asarray(adjacency, dtype=float)
    lap = -adjacency
    np.fill_diagonal(lap, adjacency.sum(axis=1))
    return lap


#: Two disjoint 2-cycles: weight balanced, not strongly connected.
SPLIT = _laplacian([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]])
#: A 3-cycle with a chord 0 -> 2: strongly connected, not weight balanced.
CHORD = _laplacian([[0, 1, 1], [0, 0, 1], [1, 0, 0]])

#: Operation, name in its message, and the end of its balance message
#: (``None`` where weight balance is not needed).
SITES = [
    (weight_balance, "weight_balance", None),
    (sym_pinv, "sym_pinv", None),
    (resistance_matrix_sc, "resistance_matrix_sc", None),
    (resistance_matrix_scwb, "resistance_matrix_scwb",
     "; use resistance_matrix_sc"),
    (undirect, "undirect", ""),
    (curvature_radius_scwb, "the Fiedler-Bapat closed form", ""),
]
CASES = ([(fn, f"{what} requires a strongly connected graph", SPLIT)
          for fn, what, _ in SITES]
         + [(fn, f"{what} requires a weight-balanced graph{hint}", CHORD)
            for fn, what, hint in SITES if hint is not None])


@pytest.mark.parametrize("fn, message, matrix", CASES,
                         ids=[f"{fn.__name__}-{'SC' if m is SPLIT else 'WB'}"
                              for fn, _, m in CASES])
def test_each_precondition_names_its_operation(fn, message, matrix):
    lap = DirectedLaplacian(matrix)
    assert lap.weight_balanced == (matrix is SPLIT)
    assert lap.strongly_connected == (matrix is CHORD)
    with pytest.raises(StructureError) as info:
        fn(lap)
    assert str(info.value) == message
