"""Combinatorial detection of the partition structures behind zero eigenvectors.

Two predicates decide whether a vertex partition is admissible:

* ``literal``  -- an edge must match one of the case-by-case intersection
  profiles that define the kind; the clause lists are kept exactly as
  stated, including their apparent gaps, which ``discrepancy_scan``
  surfaces rather than repairs;
* ``residue``  -- the exponent sum of an edge must hit the required residue
  mod k (0 for the Laplacian family, k/2 for the signless family). This is
  the predicate the exact solver realizes, and it is the ground truth for
  all cross-checks.

Bipartition flavors: ``hm`` (every edge has exactly one head vertex in V1),
``odd`` and ``even`` (every edge meets V1 in an odd / even number of
vertices; k even). The hm flavor is ordered; odd/even are quotiented by
swapping the two sides.

``enumerate_multipartitions`` scans all p^m part assignments of an
m-vertex component in one pass of numpy blocks of ``CHUNK`` assignments.
Each edge's intersection profile is coded as one small integer and looked
up in a table per predicate, so the one pass yields the witnesses of both
predicates, and a block's arrays stay small whatever p^m is.
"""

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError
from .hypergraph import Hypergraph
from .zk_solver import ZkAssignment, is_real_scalable, shift_canonicalize

HM = "hm"
ODD = "odd"
EVEN = "even"
BIPARTITION_FLAVORS = (HM, ODD, EVEN)

TRIPARTITE = "tripartite"
L_QUAD = "lquad"
SL_QUAD = "slquad"
PENTA = "penta"
MULTIPARTITION_KINDS = (TRIPARTITE, L_QUAD, SL_QUAD, PENTA)

PREDICATES = ("literal", "residue")

DEFAULT_ENUM_BUDGET = 200_000

# Assignments per block of the multipartition scan: a block's arrays stay
# well under a megabyte.
CHUNK = 4096


@dataclass(frozen=True)
class KindSpec:
    """Static description of one multipartition kind.

    ``profiles`` holds the literal clause list as intersection-count
    profiles (|e cap V_1|, ..., |e cap V_p|); ``rhs`` is the residue the
    matching eigenvector system requires; ``min_nonempty`` is the literal
    nonemptiness demand on the parts.
    """

    kind: str
    k: int
    parts: int
    rhs: int
    min_nonempty: int
    profiles: frozenset


def _containment_profiles(p: int, k: int) -> list[tuple[int, ...]]:
    # "e inside V_i for some i" clauses
    out = []
    for i in range(p):
        prof = [0] * p
        prof[i] = k
        out.append(tuple(prof))
    return out


KIND_SPECS: dict[str, KindSpec] = {
    TRIPARTITE: KindSpec(
        TRIPARTITE,
        k=3,
        parts=3,
        rhs=0,
        min_nonempty=3,
        profiles=frozenset(_containment_profiles(3, 3) + [(1, 1, 1)]),
    ),
    L_QUAD: KindSpec(
        L_QUAD,
        k=4,
        parts=4,
        rhs=0,
        min_nonempty=2,
        profiles=frozenset(
            _containment_profiles(4, 4)
            + [
                (2, 0, 2, 0),
                (0, 2, 0, 2),
                (2, 1, 0, 1),
                (0, 1, 2, 1),
            ]
        ),
    ),
    SL_QUAD: KindSpec(
        SL_QUAD,
        k=4,
        parts=4,
        rhs=2,
        min_nonempty=2,
        profiles=frozenset(
            _containment_profiles(4, 4)
            + [
                (3, 0, 1, 0),
                (1, 0, 3, 0),
                (0, 3, 0, 1),
                (0, 1, 0, 3),
                (2, 2, 0, 0),
                (0, 2, 2, 0),
                (0, 0, 2, 2),
                (1, 1, 1, 1),
            ]
        ),
    ),
    PENTA: KindSpec(
        PENTA,
        k=5,
        parts=5,
        rhs=0,
        min_nonempty=3,
        profiles=frozenset(
            _containment_profiles(5, 5)
            + [
                (1, 2, 0, 0, 2),
                (1, 0, 2, 2, 0),
                (3, 1, 0, 0, 1),
                (3, 0, 1, 1, 0),
                (0, 3, 0, 1, 1),
                (1, 0, 3, 1, 0),  # exponent sum 9, not 0 mod 5; not repaired, the scanner reports it
                (1, 1, 0, 3, 0),
                (0, 1, 1, 0, 3),
                (1, 1, 1, 1, 1),
            ]
        ),
    ),
}


# Multipartition kind whose residue-valid witnesses match the N classes of
# each (k, operator); the other pairs have no kind.
N_PAIR_KINDS: dict[tuple[int, str], str] = {
    (3, "laplacian"): TRIPARTITE,
    (4, "laplacian"): L_QUAD,
    (4, "signless"): SL_QUAD,
    (5, "laplacian"): PENTA,
}


@dataclass(frozen=True)
class BipartitionWitness:
    component: tuple[int, ...]
    v1: tuple[int, ...]
    v2: tuple[int, ...]
    flavor: str

    def to_json_dict(self, predicate: str = "literal", valid: bool = True) -> dict:
        return {
            "kind": self.flavor,
            "parts": [list(self.v1), list(self.v2)],
            "predicate": predicate,
            "valid": valid,
        }


@dataclass(frozen=True)
class MultipartitionWitness:
    component: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]
    kind: str

    def to_json_dict(self, predicate: str, valid: bool = True) -> dict:
        return {
            "kind": self.kind,
            "parts": [list(p) for p in self.parts],
            "predicate": predicate,
            "valid": valid,
        }


@dataclass(frozen=True)
class DiscrepancyEntry:
    values: tuple[int, ...]  # sorted value multiset of one edge pattern
    literal_valid: bool
    residue_valid: bool


@dataclass(frozen=True)
class DiscrepancyReport:
    kind: str
    modulus: int
    rhs: int
    disagreements: tuple[DiscrepancyEntry, ...]

    @property
    def clean(self) -> bool:
        return not self.disagreements

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "modulus": self.modulus,
            "rhs": self.rhs,
            "disagreements": [
                {
                    "values": list(d.values),
                    "literal_valid": d.literal_valid,
                    "residue_valid": d.residue_valid,
                }
                for d in self.disagreements
            ],
        }


def _induced_edges(h: Hypergraph, vertex_set: set) -> list[tuple[int, ...]]:
    return [e for e in h.edges if vertex_set.issuperset(e)]


def validate_bipartition(h: Hypergraph, w: BipartitionWitness) -> bool:
    """Check the flavor condition on every induced edge.

    Trivial components (no induced edges) are vacuously valid. Raises if
    (v1, v2) is not a partition of the witness component.
    """
    s1, s2 = set(w.v1), set(w.v2)
    if s1 & s2 or (s1 | s2) != set(w.component):
        raise ValueError("witness sides do not partition the component")
    edges = _induced_edges(h, set(w.component))
    if not edges:
        return True
    if w.flavor == HM:
        return bool(s1) and all(len(s1.intersection(e)) == 1 for e in edges)
    if w.flavor == ODD:
        return bool(s1) and bool(s2) and all(len(s1.intersection(e)) % 2 == 1 for e in edges)
    if w.flavor == EVEN:
        return bool(s1) and bool(s2) and all(len(s1.intersection(e)) % 2 == 0 for e in edges)
    raise ValueError(f"unknown flavor {w.flavor!r}")


def enumerate_bipartitions(
    h: Hypergraph,
    component: Sequence[int],
    flavor: str,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> list[BipartitionWitness]:
    """All valid bipartitions of one component, exhaustively.

    For odd/even flavors the swap (v1, v2) -> (v2, v1) also satisfies the
    flavor condition, so those are quotiented: the returned side v1 is the
    one containing the smallest vertex. The hm flavor is ordered (v1 holds
    the heads) and is not quotiented. Trivial components yield nothing: a
    singleton is bipartite by convention but carries no two-sided witness.
    """
    if flavor not in BIPARTITION_FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    comp = tuple(sorted(set(component)))
    if 2 ** len(comp) > budget:
        raise BudgetExceededError(
            f"bipartition scan needs 2^{len(comp)} subsets, budget is {budget}"
        )
    edges = _induced_edges(h, set(comp))
    if not edges:
        return []
    out = []
    for r in range(1, len(comp)):
        for chosen in itertools.combinations(comp, r):
            s1 = set(chosen)
            if flavor == HM:
                ok = all(len(s1.intersection(e)) == 1 for e in edges)
            elif flavor == ODD:
                ok = all(len(s1.intersection(e)) % 2 == 1 for e in edges)
            else:
                ok = all(len(s1.intersection(e)) % 2 == 0 for e in edges)
            if not ok:
                continue
            if flavor != HM and comp[0] not in s1:
                continue  # swap representative: keep the side with the least vertex
            v2 = tuple(v for v in comp if v not in s1)
            out.append(BipartitionWitness(comp, tuple(sorted(s1)), v2, flavor))
    return out


def find_hm_bipartition(h: Hypergraph, component: Sequence[int]) -> BipartitionWitness | None:
    """Search for a head assignment giving every edge exactly one head.

    Backtracks over edges with forward checking: committing a head forces
    every other vertex sharing an edge with it into the mass side. Head
    candidates are tried in ascending vertex order, so the witness found is
    deterministic. Vertices in no edge default to the mass side; trivial
    components return the vacuous witness with an empty head side.
    """
    comp = tuple(sorted(set(component)))
    edges = _induced_edges(h, set(comp))
    if not edges:
        return BipartitionWitness(comp, (), comp, HM)

    edges_at: dict[int, list[tuple[int, ...]]] = {v: [] for v in comp}
    for e in edges:
        for v in e:
            edges_at[v].append(e)

    state: dict[int, bool] = {}  # True = head, False = mass

    def set_state(v: int, val: bool, trail: list) -> bool:
        if v in state:
            return state[v] == val
        state[v] = val
        trail.append(v)
        if val:
            # a head's co-edge vertices are all mass
            for f in edges_at[v]:
                for u in f:
                    if u != v and not set_state(u, False, trail):
                        return False
        return True

    def solve(idx: int) -> bool:
        if idx == len(edges):
            return True
        e = edges[idx]
        fixed_heads = [v for v in e if state.get(v) is True]
        if fixed_heads:
            if len(fixed_heads) > 1:
                return False
            trail: list = []
            if all(set_state(u, False, trail) for u in e if u != fixed_heads[0]):
                if solve(idx + 1):
                    return True
            for u in trail:
                del state[u]
            return False
        for v in e:
            if state.get(v) is False:
                continue
            trail = []
            ok = set_state(v, True, trail)
            if ok and solve(idx + 1):
                return True
            for u in trail:
                del state[u]
        return False

    if not solve(0):
        return None
    v1 = tuple(v for v in comp if state.get(v) is True)
    v2 = tuple(v for v in comp if v not in set(v1))
    return BipartitionWitness(comp, v1, v2, HM)


def _edge_profile(e: Sequence[int], parts: Sequence[set]) -> tuple[int, ...]:
    return tuple(len(p.intersection(e)) for p in parts)


def validate_multipartition(h: Hypergraph, w: MultipartitionWitness, predicate: str = "literal") -> bool:
    """Check every induced edge of the witness component against a predicate.

    ``literal`` matches edges against the kind's clause profiles;
    ``residue`` checks the exponent-sum congruence with part V_j carrying
    exponent j-1. The literal nonemptiness constraint applies to both.
    Raises if the parts do not partition the component.
    """
    spec = KIND_SPECS[w.kind]
    if len(w.parts) != spec.parts:
        raise ValueError(f"{w.kind} witness needs {spec.parts} parts, got {len(w.parts)}")
    sets = [set(p) for p in w.parts]
    union: set = set()
    total = 0
    for s in sets:
        union |= s
        total += len(s)
    if total != len(union) or union != set(w.component):
        raise ValueError("witness parts do not partition the component")
    if sum(1 for s in sets if s) < spec.min_nonempty:
        return False
    edges = _induced_edges(h, union)
    if predicate == "literal":
        return all(_edge_profile(e, sets) in spec.profiles for e in edges)
    if predicate == "residue":
        k = spec.k
        return all(
            sum(j * c for j, c in enumerate(_edge_profile(e, sets))) % k == spec.rhs
            for e in edges
        )
    raise ValueError(f"unknown predicate {predicate!r}")


def _edge_predicates(spec: KindSpec, multiset: tuple[int, ...]) -> tuple[bool, bool]:
    """(literal, residue) validity of an edge whose vertices carry ``multiset``."""
    prof = tuple(multiset.count(j) for j in range(spec.parts))
    return prof in spec.profiles, sum(multiset) % spec.k == spec.rhs


def _profile_tables(spec: KindSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights coding an edge's intersection profile, and both predicates by code.

    An edge whose vertices carry values v_1..v_k has profile code
    sum_i (k+1)^(v_i): the base-(k+1) digits of the code are the part
    counts, each at most k. The tables say, per code, whether that profile
    is a literal clause and whether it meets the residue.
    """
    k, p = spec.k, spec.parts
    weights = (k + 1) ** np.arange(p, dtype=np.int16)
    literal = np.zeros((k + 1) ** p, dtype=bool)
    residue = np.zeros((k + 1) ** p, dtype=bool)
    for multiset in itertools.combinations_with_replacement(range(p), k):
        code = int(weights[list(multiset)].sum())
        literal[code], residue[code] = _edge_predicates(spec, multiset)
    return weights, literal, residue


def enumerate_multipartitions(
    h: Hypergraph,
    component: Sequence[int],
    kind: str,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> dict[str, list[MultipartitionWitness]]:
    """Exhaustive multipartition inventory of one component, per predicate.

    One pass scans all part assignments and tests both predicates on each;
    an assignment is kept under a predicate when it passes it and the
    kind's nonemptiness constraint. Kept assignments are quotiented by the
    symmetry group generated by cyclic part-index shifts and index negation
    (for three parts this group is the full symmetric group, matching the
    renumbering identification of tripartitions). Assignments whose value
    pattern is real-scalable are excluded: those are bipartition phenomena
    and are inventoried by ``enumerate_bipartitions``.

    Returns ``{"literal": [...], "residue": [...]}``: per predicate, one
    witness per orbit, built from the lexicographically least kept
    assignment, in ascending order of the orbit's least member.

    Assignment j (0 <= j < p^m) gives vertex i the i-th base-p digit of j,
    most significant first, so codes ascend in lexicographic order.
    """
    spec = KIND_SPECS[kind]
    if h.k != spec.k:
        raise ValueError(f"{kind} applies to {spec.k}-uniform hypergraphs, got k={h.k}")
    comp = tuple(sorted(set(component)))
    m = len(comp)
    p = spec.parts
    total = p**m
    if total > budget:
        raise BudgetExceededError(
            f"multipartition scan needs {p}^{m} assignments, budget is {budget}"
        )
    pos = {v: i for i, v in enumerate(comp)}
    edge_idx = np.array(
        [[pos[v] for v in e] for e in _induced_edges(h, set(comp))], dtype=np.intp
    ).reshape(-1, spec.k)
    place = p ** np.arange(m - 1, -1, -1, dtype=np.int64)  # digit weights, vertex order
    weights, literal_table, residue_table = _profile_tables(spec)

    chosen: dict[str, dict[int, int]] = {pred: {} for pred in PREDICATES}
    for start in range(0, total, CHUNK):
        codes = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        vals = (codes[:, None] // place % p).astype(np.int8)
        vertex_weight = weights[vals]
        # profile codes stay below (k+1)^p <= 6^5, so int16 holds them
        profile = np.zeros((len(codes), len(edge_idx)), dtype=np.int16)
        for slot in edge_idx.T:
            profile += vertex_weight[:, slot]
        ok = {
            "literal": literal_table[profile].all(axis=1),
            "residue": residue_table[profile].all(axis=1),
        }
        rows = np.flatnonzero(ok["literal"] | ok["residue"])
        if not len(rows):
            continue
        sub = vals[rows]
        present = np.stack([(sub == j).any(axis=1) for j in range(p)], axis=1)
        nonempty = present.sum(axis=1)
        scalable = nonempty == 1
        if p % 2 == 0:  # two values half a turn apart (p == k for every kind)
            half = p // 2
            scalable |= (nonempty == 2) & (present[:, :half] & present[:, half:]).any(axis=1)
        keep = (nonempty >= spec.min_nonempty) & ~scalable
        # orbit key: least code over the shift and negation images
        keys = np.min(
            [((sign * sub + t) % p) @ place for sign in (1, -1) for t in range(p)], axis=0
        )
        for pred in PREDICATES:
            mask = keep & ok[pred][rows]
            # codes ascend within the chunk, so each key's first index is its least code
            uniq, first = np.unique(keys[mask], return_index=True)
            for key, code in zip(uniq.tolist(), codes[rows[mask]][first].tolist()):
                chosen[pred].setdefault(key, code)  # earlier chunks hold smaller codes

    def witness(code: int) -> MultipartitionWitness:
        digits = [code // int(w) % p for w in place]
        parts = tuple(tuple(v for v, d in zip(comp, digits) if d == j) for j in range(p))
        return MultipartitionWitness(comp, parts, kind)

    return {
        pred: [witness(chosen[pred][key]) for key in sorted(chosen[pred])]
        for pred in PREDICATES
    }


def partition_from_assignment(
    a: ZkAssignment, operator: str
) -> BipartitionWitness | MultipartitionWitness | None:
    """Vertex partition whose parts are the phase-value classes of ``a``.

    Constant assignments describe the all-ones eigenvector and carry no
    partition, so they map to None. Real-scalable two-value assignments
    (even k) map to a bipartition witness: the even flavor for the
    Laplacian, the odd flavor for the signless operator. Everything else
    maps to the multipartition kind matching (k, operator).
    """
    a = shift_canonicalize(a)
    k = a.modulus
    values = set(a.values)
    if len(values) == 1:
        return None
    comp = a.vertices
    if is_real_scalable(a.values, k):
        half = k // 2
        v1 = tuple(v for v, x in zip(a.vertices, a.values) if x == half)
        v2 = tuple(v for v, x in zip(a.vertices, a.values) if x == 0)
        flavor = EVEN if operator == "laplacian" else ODD
        return BipartitionWitness(comp, v1, v2, flavor)
    kind = N_PAIR_KINDS.get((k, operator))
    if kind is None:
        raise ValueError(f"no multipartition kind for k={k}, operator={operator}")
    parts = tuple(
        tuple(v for v, x in zip(a.vertices, a.values) if x == j) for j in range(k)
    )
    return MultipartitionWitness(comp, parts, kind)


def assignment_from_partition(
    w: BipartitionWitness | MultipartitionWitness, k: int | None = None
) -> ZkAssignment:
    """Inverse of partition_from_assignment, up to shift canonicalization.

    Multipartition witnesses know their modulus through the kind; for a
    bipartition witness ``k`` must be supplied, and the v1 side carries
    exponent k/2.
    """
    if isinstance(w, MultipartitionWitness):
        spec = KIND_SPECS[w.kind]
        value_of = {}
        for j, part in enumerate(w.parts):
            for v in part:
                value_of[v] = j
        verts = tuple(sorted(value_of))
        return shift_canonicalize(
            ZkAssignment(spec.k, verts, tuple(value_of[v] for v in verts))
        )
    if k is None:
        raise ValueError("bipartition witnesses need an explicit modulus k")
    if k % 2:
        raise ValueError("two-sided phase patterns need even k")
    value_of = {v: k // 2 for v in w.v1}
    value_of.update({v: 0 for v in w.v2})
    verts = tuple(sorted(value_of))
    return shift_canonicalize(
        ZkAssignment(k, verts, tuple(value_of[v] for v in verts))
    )


def discrepancy_scan(kind: str) -> DiscrepancyReport:
    """Compare the literal clause list against the residue condition.

    Enumerates every size-k value multiset over Z_k, classifies it under
    both predicates, and reports each multiset where they disagree. The
    scan is exhaustive, so it is its own oracle; it depends only on the
    kind, not on any particular hypergraph.
    """
    spec = KIND_SPECS[kind]
    disagreements = []
    for multiset in itertools.combinations_with_replacement(range(spec.k), spec.k):
        literal_ok, residue_ok = _edge_predicates(spec, multiset)
        if literal_ok != residue_ok:
            disagreements.append(DiscrepancyEntry(multiset, literal_ok, residue_ok))
    return DiscrepancyReport(kind, spec.k, spec.rhs, tuple(disagreements))
