"""The partition kinds, and the facts that both counting routes read.

The exact solve (``zk_solver``, read by ``eigenstructure`` and
``partitions``) and the combinatorial counts (``counting``) each read
the residue of every (k, operator) and the multipartition kind table
from here, so neither route reads the other's code. This module is pure
Python: the command line checks a ``partitions --kind`` without numpy.
"""

import itertools

from .hypergraph import _Record
from .names import BIPARTITION_FLAVORS, HM, L_QUAD, LAPLACIAN, PENTA, SIGNLESS, SL_QUAD, TRIPARTITE
from .names import ZERO_EIG_OPERATORS


def edge_residue(k: int, operator: str) -> int | None:
    """Exponent sum mod k that every edge needs, 0 (Laplacian) or k/2 (signless);
    None for signless at odd k, which has no edge system. ValueError for other names."""
    if operator not in ZERO_EIG_OPERATORS:
        raise ValueError(f"unknown operator {operator!r}, expected one of {ZERO_EIG_OPERATORS}")
    if operator == LAPLACIAN:
        return 0
    return None if k % 2 else k // 2


class KindSpec(_Record):
    """Static description of one multipartition kind, named by its key in
    ``KIND_SPECS``.

    The kind splits the vertices of a ``k``-uniform hypergraph into k
    parts, and its residue-valid witnesses pair with the N classes of
    ``operator``. ``profiles`` holds the literal clause list as
    intersection-count profiles (|e cap V_1|, ..., |e cap V_k|);
    ``min_nonempty`` is the literal nonemptiness demand on the parts.
    """

    _fields = ("k", "operator", "min_nonempty", "profiles")

    def __init__(self, k: int, operator: str, min_nonempty: int, profiles: frozenset):
        super().__init__(k, operator, min_nonempty, profiles)

    @property
    def rhs(self) -> int | None:
        """``edge_residue(k, operator)``: every edge's residue, or None (no system)."""
        return edge_residue(self.k, self.operator)


def _containment_profiles(k: int) -> list[tuple[int, ...]]:
    # "e inside V_i for some i" clauses
    return [tuple(k if j == i else 0 for j in range(k)) for i in range(k)]


KIND_SPECS: dict[str, KindSpec] = {
    TRIPARTITE: KindSpec(
        k=3,
        operator=LAPLACIAN,
        min_nonempty=3,
        profiles=frozenset(_containment_profiles(3) + [(1, 1, 1)]),
    ),
    L_QUAD: KindSpec(
        k=4,
        operator=LAPLACIAN,
        min_nonempty=2,
        profiles=frozenset(
            _containment_profiles(4) + [(2, 0, 2, 0), (0, 2, 0, 2), (2, 1, 0, 1), (0, 1, 2, 1)]
        ),
    ),
    SL_QUAD: KindSpec(
        k=4,
        operator=SIGNLESS,
        min_nonempty=2,
        profiles=frozenset(
            _containment_profiles(4)
            + [(3, 0, 1, 0), (1, 0, 3, 0), (0, 3, 0, 1), (0, 1, 0, 3)]
            + [(2, 2, 0, 0), (0, 2, 2, 0), (0, 0, 2, 2), (1, 1, 1, 1)]
        ),
    ),
    PENTA: KindSpec(
        k=5,
        operator=LAPLACIAN,
        min_nonempty=3,
        profiles=frozenset(
            _containment_profiles(5)
            + [(1, 2, 0, 0, 2), (1, 0, 2, 2, 0), (3, 1, 0, 0, 1), (3, 0, 1, 1, 0), (0, 3, 0, 1, 1)]
            + [(1, 0, 3, 1, 0)]  # exponent sum 9, not 0 mod 5; not repaired, the scanner reports it
            + [(1, 1, 0, 3, 0), (0, 1, 1, 0, 3), (1, 1, 1, 1, 1)]
        ),
    ),
}

# Multipartition kind whose residue-valid witnesses match the N classes of
# each (k, operator). The other pairs have no kind.
N_PAIR_KINDS: dict[tuple[int, str], str] = {
    (spec.k, spec.operator): kind for kind, spec in KIND_SPECS.items()
}


def applicable_kinds(k: int) -> tuple[str, ...]:
    """The partition kinds that apply to k, in report order: the hm
    bipartitions; the odd and even ones for even k only, where swapping
    the sides keeps a witness; then the multipartition kinds of k."""
    flavors = BIPARTITION_FLAVORS if k % 2 == 0 else (HM,)
    return (*flavors, *(kind for kind, spec in KIND_SPECS.items() if spec.k == k))


def require_applicable(kind: str, k: int) -> None:
    """ValueError unless ``kind``, a partition kind, applies to k."""
    if kind in applicable_kinds(k):
        return
    if kind in KIND_SPECS:
        raise ValueError(f"{kind} applies to {KIND_SPECS[kind].k}-uniform hypergraphs, got k={k}")
    raise ValueError(f"{kind} bipartitions apply to even k, got k={k}")


def kind_spec(kind: str, k: int) -> KindSpec:
    """The spec of ``kind``; ValueError unless the kind applies to ``k``."""
    spec = KIND_SPECS[kind]
    require_applicable(kind, k)
    return spec


def _edge_predicates(spec: KindSpec, multiset: tuple[int, ...]) -> tuple[bool, bool]:
    """(literal, residue) validity of an edge whose vertices carry ``multiset``."""
    prof = tuple(multiset.count(j) for j in range(spec.k))
    return prof in spec.profiles, sum(multiset) % spec.k == spec.rhs


def discrepancy_scan(kind: str) -> dict:
    """Compare the literal clause list against the residue condition.

    Enumerates every size-k value multiset over Z_k, classifies it under
    both predicates, and reports each multiset where they disagree. The
    scan is exhaustive, so it is its own oracle; it depends only on the
    kind, not on any particular hypergraph. Returns the report record:
    the kind, its modulus k and residue, and one entry per disagreeing
    multiset, its sorted values and their validity under each predicate.
    """
    spec = KIND_SPECS[kind]
    disagreements = []
    for multiset in itertools.combinations_with_replacement(range(spec.k), spec.k):
        literal_ok, residue_ok = _edge_predicates(spec, multiset)
        if literal_ok != residue_ok:
            disagreements.append(
                {"values": list(multiset), "literal_valid": literal_ok, "residue_valid": residue_ok}
            )
    return {"kind": kind, "modulus": spec.k, "rhs": spec.rhs, "disagreements": disagreements}
