"""Resistance geometry for directed graphs and signed Laplacians.

The package works with two kinds of operators: Laplacians of strongly
connected directed graphs, and signed symmetric Laplacians that are
positive semidefinite with a one-dimensional kernel spanned by the ones
vector.  Around them it provides Kron reduction, effective resistance
matrices, the curvature vector / resistance radius pair with its linear
identity, variance maximization over the probability simplex, metric-type
classification of distance matrices, and hyperacute simplex embeddings.
"""

from .curvature import (
    CommutativityCheck,
    CurvatureRadius,
    FiedlerBapat,
    NoncommutativityWitness,
    check_commutativity,
    check_noncommutativity,
    curvature_radius_q,
    curvature_radius_sc,
    curvature_radius_scwb,
    reduce_curvature_radius,
    subset_curvature_radius,
    undirect,
    verify_fiedler_bapat,
    wb_transform,
)
from .embed import (
    AngleCheck,
    Embedding,
    SimplexGeometry,
    embed,
    export_coordinates,
    read_coordinates,
    simplex_geometry,
    verify_angles_geometric,
)
from .errors import (
    CapacityError,
    ConvergenceError,
    DegenerateBlockError,
    MetricClassificationError,
    NumericError,
    ResgeoError,
    StructureError,
    ValidationError,
)
from .generators import (
    random_class_q,
    random_keep,
    random_sc_laplacian,
    random_scwb_laplacian,
    random_unsigned_laplacian,
)
from .graph import (
    DirectedLaplacian,
    SignedLaplacianQ,
    WeightBalancing,
    is_reachable_subset,
    laplacian_from_edges,
    sym_pinv,
    weight_balance,
)
from .kron import KronResult, PreservedFlags, kron_reduce, kron_reduce_q
from .linalg import (
    Inertia,
    SymEig,
    inertia,
    pseudoinverse,
    schur_complement,
    sym_eig,
)
from .maxvar import (
    CharacterizationReport,
    KktCheck,
    MaxVarSolution,
    characterize,
    solve_maxvar,
    solve_maxvar_exact,
    variance,
    verify_kkt,
)
from .resistance import (
    METRIC_LABELS,
    MetricClass,
    ResistanceMatrix,
    classify_metric,
    effective_resistance_directed,
    q_from_distance,
    resistance_matrix_q,
    resistance_matrix_sc,
    resistance_matrix_scwb,
)
from .verify import PropertyResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "AngleCheck",
    "CapacityError",
    "CharacterizationReport",
    "CommutativityCheck",
    "ConvergenceError",
    "CurvatureRadius",
    "DegenerateBlockError",
    "DirectedLaplacian",
    "Embedding",
    "FiedlerBapat",
    "Inertia",
    "KktCheck",
    "KronResult",
    "METRIC_LABELS",
    "MaxVarSolution",
    "MetricClass",
    "MetricClassificationError",
    "NoncommutativityWitness",
    "NumericError",
    "PreservedFlags",
    "PropertyResult",
    "ResgeoError",
    "ResistanceMatrix",
    "SignedLaplacianQ",
    "SimplexGeometry",
    "StructureError",
    "SymEig",
    "ValidationError",
    "WeightBalancing",
    "characterize",
    "check_commutativity",
    "check_noncommutativity",
    "classify_metric",
    "curvature_radius_q",
    "curvature_radius_sc",
    "curvature_radius_scwb",
    "effective_resistance_directed",
    "embed",
    "export_coordinates",
    "inertia",
    "is_reachable_subset",
    "kron_reduce",
    "kron_reduce_q",
    "laplacian_from_edges",
    "pseudoinverse",
    "q_from_distance",
    "random_class_q",
    "random_keep",
    "random_sc_laplacian",
    "random_scwb_laplacian",
    "random_unsigned_laplacian",
    "read_coordinates",
    "reduce_curvature_radius",
    "resistance_matrix_q",
    "resistance_matrix_sc",
    "resistance_matrix_scwb",
    "run_verification",
    "schur_complement",
    "simplex_geometry",
    "solve_maxvar",
    "solve_maxvar_exact",
    "subset_curvature_radius",
    "sym_eig",
    "sym_pinv",
    "undirect",
    "variance",
    "verify_angles_geometric",
    "verify_fiedler_bapat",
    "verify_kkt",
    "wb_transform",
    "weight_balance",
]
