"""Exact eigenvector structure of the zero Laplacian and signless Laplacian
eigenvalues of k-uniform hypergraphs, with combinatorial cross-validation.

Importing the package loads the errors and the hypergraph names only, so
reading a hypergraph and its components needs no numpy."""

import importlib

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

# The names of the solving modules and of the kind table, each imported
# from its submodule on first access.
_LAZY = {
    name: module
    for module, names in {
        "zk_solver": "ComponentSystem solve_mod_k",
        "tensor_ops": "apply_adjacency apply_operator eig_residual hm_spectral_reflection"
        " nqz_spectral_radius similarity_identity_holds",
        "eigenstructure": "solve_components",
        "kinds": "discrepancy_scan",
        "partitions": "enumerate_bipartitions enumerate_multipartitions find_hm_bipartition"
        " validate_bipartition validate_multipartition",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
