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
from .zk_solver import smith_normal_form, solve_mod_k
from .tensor_ops import (
    apply_adjacency,
    apply_operator,
    eig_residual,
    hm_spectral_reflection,
    nqz_spectral_radius,
    similarity_identity_holds,
)
from .eigenstructure import solve_components
from .partitions import (
    discrepancy_scan,
    enumerate_bipartitions,
    enumerate_multipartitions,
    find_hm_bipartition,
    validate_bipartition,
    validate_multipartition,
)
