"""Exact eigenvector structure of the zero Laplacian and signless Laplacian
eigenvalues of k-uniform hypergraphs, with combinatorial cross-validation."""

__version__ = "0.1.0"

from .errors import BudgetExceededError, HypergraphFormatError, VerificationError
from .hypergraph import (
    Hypergraph,
    connected_components,
    degrees,
    induced_subhypergraph,
    load_hypergraph,
    parse_hypergraph_json,
    parse_hypergraph_text,
)
from .zk_solver import (
    ZkAssignment,
    ZkLinearSystem,
    assignment_satisfies,
    build_zero_eig_system,
    classify_H_or_N,
    conjugate_assignment,
    enumerate_solutions,
    shift_canonicalize,
    smith_normal_form,
    solve_mod_k,
)
from .tensor_ops import (
    apply_adjacency,
    apply_laplacian,
    apply_signless,
    diag_similarity,
    eig_residual,
    hm_spectral_reflection,
    materialize_dense,
    nqz_spectral_radius,
)
from .eigenstructure import (
    count_N_pairs,
    minimal_zero_eigenvectors,
    realize_complex,
    solution_export,
    structure_counts,
)
from .partitions import (
    BipartitionWitness,
    MultipartitionWitness,
    assignment_from_partition,
    discrepancy_scan,
    enumerate_bipartitions,
    enumerate_multipartitions,
    find_hm_bipartition,
    partition_from_assignment,
    validate_bipartition,
    validate_multipartition,
)
