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

Every function here that reads one component takes its
``zk_solver.ComponentSystem``: the edge index of its induced
sub-hypergraph, and its Howell forms, each eliminated once per modulus.
A partition witness is a row of part indices: entry i is the part of the
component's i-th vertex, vertices in ascending order. Listings are int8
arrays with one row per witness, as ``zk_solver.lex_solutions`` lists
classes, and the validators take one row or a block of rows. So a class's
exponent row alpha is itself the partition it characterizes, part j
holding the vertices of phase exp(2 pi i j / k), and for an H class
alpha / (k/2) is its bipartition.

Bipartition flavors: ``hm`` (every edge has exactly one head vertex in V1),
``odd`` and ``even`` (every edge meets V1 in an odd / even number of
vertices; k even). V1 is part 0 and V2 part 1. The hm flavor is ordered;
odd/even are quotiented by swapping the two sides. ``enumerate_bipartitions``
lists all three from the component's edge systems modulo 2.

``enumerate_multipartitions`` lists one row per orbit of a kind's part
assignments under one predicate. Residue rows are read from the solve,
one per conjugate pair of kept classes. Literal rows come from a scan of
all k^m assignments of an m-vertex component in numpy blocks of ``CHUNK``,
each edge's profile coded as one small integer and looked up in the
clause table, so a block's arrays stay small whatever k^m is.

The bipartition listing costs a row per solution modulo 2, the residue
multipartition listing a row per class, and the literal scan k^m; the
budget bounds each before anything is listed. The cross-checks need only
counts, and ``ResidueCounter`` finds those without listing: it counts the
maps from a component's vertices into a value set D of Z_k whose every
edge sums to a residue, by variable elimination along one min-degree
elimination order of the component's primal graph. Its cost is about
m * |D|^(w+1) for a decomposition of width w, and each table it builds is
capped by the budget. The bipartition counts are its counts over
D = {0, k/2}; ``residue_orbit_count`` reads the residue orbit count of a
multipartition kind from its counts over Z_k and over the excluded value
sets.
"""

import functools
import heapq
import itertools
import math
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, VerificationError
from .hypergraph import _Record
from .names import BIPARTITION_FLAVORS, DEFAULT_ENUM_BUDGET, EVEN, HM, ODD, PREDICATES
from .names import L_QUAD, LAPLACIAN, PENTA, SIGNLESS, SL_QUAD, TRIPARTITE
from .zk_solver import CHECK_ROWS, ComponentSystem, edge_residue, lex_solutions, solve_mod_k

# Assignments per block of the multipartition scan: a block's arrays stay
# well under a megabyte.
CHUNK = 4096


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
    def rhs(self) -> int:
        """The residue of every edge's exponent sum in ``operator``'s system."""
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
            _containment_profiles(4)
            + [
                (2, 0, 2, 0),
                (0, 2, 0, 2),
                (2, 1, 0, 1),
                (0, 1, 2, 1),
            ]
        ),
    ),
    SL_QUAD: KindSpec(
        k=4,
        operator=SIGNLESS,
        min_nonempty=2,
        profiles=frozenset(
            _containment_profiles(4)
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
        k=5,
        operator=LAPLACIAN,
        min_nonempty=3,
        profiles=frozenset(
            _containment_profiles(5)
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


MULTIPARTITION_KINDS = tuple(KIND_SPECS)

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


def _part_rows(system: ComponentSystem, rows, parts: int) -> np.ndarray:
    """``rows`` as a (rows, m) block of part indices of the component's m
    vertices. Raises unless every row has m integer entries in 0..parts-1."""
    m = len(system.vertices)
    block = np.asarray(rows)
    if block.ndim not in (1, 2) or block.shape[-1] != m:
        raise ValueError(f"rows have shape {block.shape}, expected ({m},) or (rows, {m})")
    if block.size and (
        not np.issubdtype(block.dtype, np.integer) or block.min() < 0 or block.max() >= parts
    ):
        raise ValueError(f"part indices must be integers in 0..{parts - 1}")
    return np.atleast_2d(block)


def validate_bipartition(system: ComponentSystem, rows, flavor: str):
    """Check the flavor condition on every induced edge, V1 being part 0.

    ``rows`` is one row of part indices (0 or 1) or a (rows, m) block;
    returns a bool, or one per row. Trivial components (no induced edges)
    are vacuously valid. Raises if a row does not partition the component.
    """
    if flavor not in BIPARTITION_FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    block, edges = _part_rows(system, rows, 2), system.edges
    in_v1 = block == 0
    ok = in_v1.any(axis=1)
    if flavor != HM:
        ok &= ~in_v1.all(axis=1)
    for i in range(0, len(block), CHECK_ROWS):  # the edge meets of a few rows at a time
        meets = in_v1[i : i + CHECK_ROWS][:, edges].sum(axis=2)
        hits = meets == 1 if flavor == HM else meets % 2 == (flavor == ODD)
        ok[i : i + CHECK_ROWS] &= hits.all(axis=1)
    ok |= not len(edges)
    return ok if np.ndim(rows) == 2 else bool(ok[0])


def enumerate_bipartitions(
    system: ComponentSystem, budget: int = DEFAULT_ENUM_BUDGET
) -> dict[str, np.ndarray]:
    """All valid bipartitions of one component, exhaustively, per flavor.

    A side v1 meets every edge oddly (evenly) precisely when its 0/1
    indicator solves A x == 1 (0) (mod 2): the witnesses are those systems'
    solutions, listed from the system's Howell form modulo 2, the hm
    sides those meeting every edge exactly once. Each witness is a row of
    part indices, 0 on v1 and 1 on v2, and each flavor is in order of
    |v1|, then of v1. Odd/even are listed for even k only, where swapping
    the sides keeps a witness: v1 is the side with the smallest vertex. The
    hm flavor is ordered (v1 holds the heads). Trivial components yield
    nothing: a singleton is bipartite by convention but carries no
    two-sided witness. A system of more than ``budget`` solutions (at most
    2^m for m vertices) raises BudgetExceededError before any is listed.

    Returns ``{"hm": rows, "odd": rows, "even": rows}``, int8 arrays of
    shape (witnesses, m).
    """
    m, edges = len(system.vertices), system.edges
    out = {flavor: np.zeros((0, m), np.int8) for flavor in BIPARTITION_FLAVORS}
    if not len(edges):
        return out
    # right-hand side 1: v1 meets every edge oddly; 0: evenly
    form, even = system.form(2), EVEN in applicable_kinds(system.k)
    systems = [solve_mod_k(form, rhs) for rhs in (1, 0) if rhs or even]
    most = max(desc.solution_count for desc in systems)
    if most > budget:
        raise BudgetExceededError(
            f"bipartition listing needs {most} solutions modulo 2, budget is {budget}"
        )
    odd, *even = [
        lex_solutions(desc).astype(bool) if desc.feasible else np.zeros((0, m), bool)
        for desc in systems
    ]
    sides = {HM: odd[validate_bipartition(system, (~odd).astype(np.int8), HM)]}
    if even:
        (rows,) = even  # the all-ones side leaves v2 empty
        sides[ODD], sides[EVEN] = odd[odd[:, 0]], rows[rows[:, 0] & ~rows.all(axis=1)]
    for flavor, rows in sides.items():
        # by |v1|, then v1 lexicographically: first the row with a 1 where two rows first differ
        out[flavor] = (~rows[np.lexsort([*~rows.T[::-1], rows.sum(axis=1)])]).astype(np.int8)
    return out


def _least_prime_above(k: int) -> int:
    p = k + 1
    while any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        p += 1
    return p


class _AffineCheck:
    """The solutions of the edge system A x == 1 (mod p), narrowed as
    vertices are assigned, for the forward check of the hm search.

    Built from one solution x0 of the system and a basis of its kernel
    modulo the prime p, one row per basis vector: the solutions are x0
    plus every combination t of the rows. Row v of ``form``, stored
    column-major, holds vertex v's value as an affine function of the
    free variables still unset: x_v = form[v, :-1] @ t + form[v, -1]
    (mod p). Assigning a vertex substitutes out one free variable; the
    trail of substitutions lets the search undo them. Whether a vertex is
    constant on the solutions left, and which constant, depends only on
    that set of solutions, so any kernel basis gives the same verdicts.
    """

    def __init__(self, x0: np.ndarray, kernel: np.ndarray, p: int):
        self.p = p
        self.form = np.asfortranarray(np.concatenate([kernel.T, x0[:, None]], axis=1))
        self.trail: list = []

    def consistent(self, rows=slice(None)) -> bool:
        """No vertex among ``rows`` is fixed to a value outside {0, 1}."""
        sub = self.form[rows]
        return not ((sub[:, -1] > 1) & ~sub[:, :-1].any(axis=1)).any()

    def assign(self, v: int, value: int) -> bool:
        """Fix x_v = value; False if that leaves no 0/1 solution."""
        p, form = self.p, self.form
        row = form[v]
        free = row[:-1].nonzero()[0]  # a strided read, without the copy of np.flatnonzero
        if not len(free):
            return row[-1] == value
        j = int(free[0])
        inv = pow(int(row[j]), -1, p)
        # t_j = s @ (t, 1), with t_j's own coefficient zero
        s = -row * inv % p
        s[-1] = (value - row[-1]) * inv % p
        s[j] = 0
        hit = np.flatnonzero(form[:, j])
        col = form[hit, j].copy()
        form[hit] = (form[hit] + np.outer(col, s)) % p
        form[hit, j] = 0
        self.trail.append((j, hit, col, s))
        return self.consistent(hit)

    def undo(self, mark: int) -> None:
        form, p = self.form, self.p
        while len(self.trail) > mark:
            j, hit, col, s = self.trail.pop()
            form[hit] = (form[hit] - np.outer(col, s)) % p
            form[hit, j] = col


def _primal_graph(edges: Sequence[Sequence[int]], width: int) -> list[set[int]]:
    """Per vertex 0..width-1, the other vertices sharing an edge with it."""
    adjacent: list[set[int]] = [set() for _ in range(width)]
    for e in edges:
        for v in e:
            adjacent[v].update(e)
    for v, near in enumerate(adjacent):
        near.discard(v)
    return adjacent


def find_hm_bipartition(
    system: ComponentSystem, budget: int = DEFAULT_ENUM_BUDGET
) -> np.ndarray | None:
    """Search for a head assignment giving every edge exactly one head.

    A depth-first search over the edges in input order, on an explicit
    stack: each edge takes the head it already has, or tries its unset
    vertices as head in ascending order, and a new head forces every vertex
    sharing an edge with it to the mass side. Every witness lies in the
    search tree and its leaves come in lexicographic order of the per-edge
    head tuple, so the witness returned is the one whose head tuple is
    least, whatever pruning removes branches holding no witness.

    The first pass prunes nothing, so it never backtracks: it ends at a
    witness or at its first dead end, an edge with no head and no unset
    vertex. There the search restarts from the root with pruning. Since
    |S cap e| lies in [0, k], a vertex set S has exactly one head in every
    edge precisely when its 0/1 indicator solves A x == 1 (mod p) for the
    least prime p above k. Every edge has k vertices, so the constant 1/k
    (mod p) solves that system, and its solutions are 1/k + ker_p A, the
    kernel read from the system's Howell form modulo p, the same
    elimination that solves every edge system. Every assignment
    substitutes out one free variable, and a branch dies as soon as some
    vertex's value becomes a constant outside {0, 1}. Those verdicts do
    not depend on the kernel basis, so neither the witness nor the trial
    count does.

    Every candidate tried, an edge's existing head included, counts one
    trial over both passes; more than ``budget`` trials raise
    BudgetExceededError. The witness is an int8 row of part indices, 0 on
    the heads and 1 on the mass side, or None when there is none. Trivial
    components return the vacuous witness, all ones: an empty head side.
    """
    m = len(system.vertices)
    if not len(system.edges):
        return np.ones(m, np.int8)

    edge_list = system.edges.tolist()
    neighbours = [sorted(near) for near in _primal_graph(edge_list, m)]
    trials = 0

    def search(check: _AffineCheck | None):
        """Head states at the first witness; None at the first dead end
        without a check, and when there is no witness with one."""
        nonlocal trials
        state = [-1] * m  # -1 unset, 0 mass, 1 head
        assigned: list[int] = []
        frames: list[list] = []  # [candidates, next candidate, assigned mark, check mark]

        def place(v: int) -> bool:
            if state[v] == 1:
                return True
            state[v] = 1
            assigned.append(v)
            if check is not None and not check.assign(v, 1):
                return False
            for u in neighbours[v]:
                if state[u] < 0:
                    state[u] = 0
                    assigned.append(u)
                    if check is not None and not check.assign(u, 0):
                        return False
            return True

        idx = 0
        while idx < len(edge_list):
            e = edge_list[idx]
            candidates = [v for v in e if state[v] == 1] or [v for v in e if state[v] < 0]
            if not candidates and check is None:
                return None
            frames.append([candidates, 0, len(assigned), len(check.trail) if check else 0])
            while frames:
                frame = frames[-1]
                candidates, i, mark, check_mark = frame
                for v in assigned[mark:]:
                    state[v] = -1
                del assigned[mark:]
                if check is not None:
                    check.undo(check_mark)
                if i == len(candidates):
                    frames.pop()
                    idx -= 1
                    continue
                frame[1] = i + 1
                trials += 1
                if trials > budget:
                    raise BudgetExceededError(
                        f"hm-bipartition search needs more than {budget} head trials"
                    )
                if place(candidates[i]):
                    idx += 1
                    break
            else:
                return None
        return state

    state = search(None)
    if state is None:
        p = _least_prime_above(system.k)
        check = _AffineCheck(np.full(m, pow(system.k, -1, p)), system.form(p).kernel, p)
        state = search(check) if check.consistent() else None
    return None if state is None else (np.array(state) != 1).astype(np.int8)


def kind_spec(kind: str, k: int) -> KindSpec:
    """The spec of ``kind``; ValueError unless the kind applies to ``k``."""
    spec = KIND_SPECS[kind]
    require_applicable(kind, k)
    return spec


def validate_multipartition(system: ComponentSystem, rows, kind: str, predicate: str):
    """Check every induced edge of the component against a predicate.

    ``rows`` is one row of part indices or a (rows, m) block; returns a
    bool, or one per row. ``literal`` matches edges against the kind's
    clause profiles; ``residue`` checks the exponent-sum congruence with
    part j carrying exponent j. The literal nonemptiness constraint applies
    to both. Raises if a row does not partition the component into the
    kind's parts or the kind does not apply to the system's uniformity.
    """
    spec = kind_spec(kind, system.k)
    weights, table = _profile_table(spec, predicate)
    block, edges = _part_rows(system, rows, spec.k), system.edges
    ok = sum((block == j).any(axis=1) for j in range(spec.k)) >= spec.min_nonempty
    for i in range(0, len(block), CHECK_ROWS):  # the edge profiles of a few rows at a time
        profiles = weights[block[i : i + CHECK_ROWS]][:, edges].sum(axis=2)
        ok[i : i + CHECK_ROWS] &= table[profiles].all(axis=1)
    return ok if np.ndim(rows) == 2 else bool(ok[0])


def _edge_predicates(spec: KindSpec, multiset: tuple[int, ...]) -> tuple[bool, bool]:
    """(literal, residue) validity of an edge whose vertices carry ``multiset``."""
    prof = tuple(multiset.count(j) for j in range(spec.k))
    return prof in spec.profiles, sum(multiset) % spec.k == spec.rhs


def _profile_table(spec: KindSpec, predicate: str) -> tuple[np.ndarray, np.ndarray]:
    """Weights coding an edge's intersection profile, and ``predicate`` by code.

    An edge whose vertices carry values v_1..v_k has profile code
    sum_i (k+1)^(v_i): the base-(k+1) digits of the code are the part
    counts, each at most k. The table says, per code, whether that profile
    passes the predicate: is a literal clause, or meets the residue.
    """
    if predicate not in PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    k = spec.k
    weights = (k + 1) ** np.arange(k, dtype=np.int16)
    table = np.zeros((k + 1) ** k, dtype=bool)
    for multiset in itertools.combinations_with_replacement(range(k), k):
        passes = _edge_predicates(spec, multiset)[PREDICATES.index(predicate)]
        table[int(weights[list(multiset)].sum())] = passes
    return weights, table


def real_scalable(rows: np.ndarray, k: int) -> np.ndarray:
    """Per row of exponents mod k: whether one unit scalar makes its vector
    real, that is whether the row takes one value, or two half a turn apart."""
    offsets = (rows - rows[:, :1]) % k
    return ((offsets == 0) | (offsets == (k // 2 if k % 2 == 0 else 0))).all(axis=1)


def _kept(rows: np.ndarray, spec: KindSpec) -> np.ndarray:
    """Per row: ``min_nonempty`` values or more, and not real-scalable (a bipartition)."""
    nonempty = sum((rows == j).any(axis=1) for j in range(spec.k))
    return (nonempty >= spec.min_nonempty) & ~real_scalable(rows, spec.k)


def _digits(codes: np.ndarray, m: int, p: int) -> np.ndarray:
    """The m base-p digits of each code, most significant first, as int8 rows."""
    return (codes[:, None] // p ** np.arange(m - 1, -1, -1, dtype=np.int64) % p).astype(np.int8)


def enumerate_multipartitions(
    system: ComponentSystem, kind: str, predicate: str, budget: int = DEFAULT_ENUM_BUDGET
) -> np.ndarray:
    """One component's multipartitions under ``predicate``, one per orbit.

    Assignments passing the predicate and ``_kept`` are quotiented by the
    group alpha -> +-alpha + t (for three parts, every renumbering). Returns
    an int8 array with one row of part indices per orbit, its least kept
    assignment, in ascending order of the orbit's least member.

    ``residue`` reads the rows from the solve. The kept solutions of the
    kind's system modulo k form a set the group keeps (edges have k
    vertices, the residue is 0 or k/2) and acts on freely, so each orbit
    holds two solutions with exponent 0 at the first vertex, alpha and
    -alpha: the first solution_count / k in lexicographic order. More of
    those than ``budget`` raise BudgetExceededError before any is
    listed; a listed row breaking the residue raises VerificationError.

    ``literal`` scans all k^m assignments in blocks of ``CHUNK``, code j
    giving vertex i the i-th base-k digit of j, most significant first, and
    keys each orbit by its least code over the group, as the clause lists
    are not closed under it. k^m > ``budget`` raises BudgetExceededError
    before any array exists.
    """
    spec = kind_spec(kind, system.k)
    m, k = len(system.vertices), spec.k
    if predicate == "residue":
        desc = solve_mod_k(system.form(k), spec.rhs)
        solutions = desc.solution_count // k
        if solutions > budget:
            raise BudgetExceededError(
                f"residue multipartition listing needs {solutions} solutions, budget is {budget}"
            )
        rows = (lex_solutions(desc, solutions) if desc.feasible else np.zeros((0, m))).astype(np.int8)
        rows = rows[_kept(rows, spec)]
        negated = -rows % k
        at = np.arange(len(rows)), (rows != negated).argmax(axis=1)
        rows = rows[rows[at] < negated[at]]
        if not validate_multipartition(system, rows, kind, "residue").all():
            raise VerificationError(
                f"{kind} on {system.vertices}: a listed solution breaks the residue"
            )
        return rows
    if predicate != "literal":
        raise ValueError(f"unknown predicate {predicate!r}")

    total = k**m
    if total > budget:
        raise BudgetExceededError(
            f"multipartition scan needs {k}^{m} assignments, budget is {budget}"
        )
    place = k ** np.arange(m - 1, -1, -1, dtype=np.int64)  # digit weights, vertex order
    weights, table = _profile_table(spec, "literal")
    chosen: dict[int, int] = {}  # orbit key -> code of its least kept assignment
    for start in range(0, total, CHUNK):
        codes = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        vals = _digits(codes, m, k)
        vertex_weight = weights[vals]
        # profile codes stay below (k+1)^k <= 6^5, so int16 holds them
        profile = np.zeros((len(codes), len(system.edges)), dtype=np.int16)
        for slot in system.edges.T:
            profile += vertex_weight[:, slot]
        hit = np.flatnonzero(table[profile].all(axis=1))
        hit = hit[_kept(vals[hit], spec)]
        sub = vals[hit]
        # orbit key: least code over the shift and negation images
        keys = np.min(
            [((sign * sub + t) % k) @ place for sign in (1, -1) for t in range(k)], axis=0
        )
        # codes ascend within the chunk, so each key's first index is its least code
        uniq, first = np.unique(keys, return_index=True)
        for key, code in zip(uniq.tolist(), codes[hit][first].tolist()):
            chosen.setdefault(key, code)  # earlier chunks hold smaller codes
    return _digits(np.array([chosen[key] for key in sorted(chosen)], np.int64), m, k)


def elimination_order(
    edges: Sequence[Sequence[int]], width: int, budget: int
) -> tuple[tuple[int, ...], ...] | None:
    """The bags of a min-degree elimination order of the primal graph.

    The primal graph joins two of the ``width`` vertices (0-based indices,
    as in ``edges``) when some edge holds both. Vertices leave it one at a
    time, each time one of least current degree, ties to the least index,
    and a leaving vertex joins its remaining neighbours into a clique (the
    min-degree heuristic of Bodlaender & Koster, "Treewidth computations
    I", 2010).
    The bag of a vertex is that vertex followed by those neighbours in
    ascending order; the bags form a tree decomposition whose width is the
    largest bag's size minus one, and each edge lies in the bag of its
    first vertex to leave. Returns None, before any array exists, as soon
    as some bag would exceed ``budget`` entries over the smallest domain
    any count uses, two values: 2^|bag| > budget.
    """
    adjacent = _primal_graph(edges, width)
    heap = [(len(near), v) for v, near in enumerate(adjacent)]
    heapq.heapify(heap)
    left = [False] * width
    bags = []
    while heap:
        degree, v = heapq.heappop(heap)
        near = adjacent[v]
        if left[v] or degree != len(near):
            continue  # stale entry: v left, or its degree changed since
        if 2 ** (degree + 1) > budget:
            return None
        left[v] = True
        bags.append((v, *sorted(near)))
        for u in near:
            adjacent[u] |= near
            adjacent[u] -= {u, v}
            heapq.heappush(heap, (len(adjacent[u]), u))
    return tuple(bags)


def count_assignments(
    edges: Sequence[Sequence[int]],
    bags: Sequence[Sequence[int]],
    k: int,
    residue: int,
    domain: Sequence[int],
    budget: int,
) -> int | None:
    """Maps from the vertices into ``domain`` with every edge sum == residue (mod k).

    Variable elimination along ``bags``, the output of
    ``elimination_order`` on the same ``edges`` (distinct 0-based vertex
    indices each): every edge starts as a table over its vertices of
    whether their values sum to the residue, filed under its first vertex
    to leave; leaving vertex v multiplies the tables filed under it and
    sums v out, which files a table over the rest of v's bag under its
    next vertex to leave. With d values in ``domain``, no table has more
    than d^|bag| entries, and an edge's table has d^|e|; None, before any
    array exists, when one of those exceeds ``budget``. An entry counts
    the maps of the vertices already gone, at most d^width, so tables are
    int64 while d^width < 2^63 and hold Python ints otherwise.
    """
    d = len(domain)
    if max((d ** len(s) for s in itertools.chain(bags, edges)), default=1) > budget:
        return None
    dtype = np.int64 if d ** len(bags) < 2**63 else object
    values = np.array(domain, dtype=np.int64) % k
    position = {bag[0]: i for i, bag in enumerate(bags)}
    buckets: list[list] = [[] for _ in bags]
    tables: dict[int, np.ndarray] = {}  # edge size -> its table, symmetric in its axes
    for e in edges:
        if len(e) not in tables:
            sums = np.zeros((), dtype=np.int64)
            for _ in e:
                sums = np.add.outer(sums, values)
            tables[len(e)] = (sums % k == residue % k).astype(np.int64).astype(dtype)
        scope = tuple(sorted(e, key=position.__getitem__))
        buckets[position[scope[0]]].append((scope, tables[len(e)]))
    total = 1
    for filed in buckets:
        if not filed:  # a vertex in no edge takes any of the d values
            total *= d
            continue
        # every scope lists its vertices in leaving order, so the tables'
        # axes only need size-1 axes for the vertices they lack
        union = sorted(set().union(*(scope for scope, _ in filed)), key=position.__getitem__)
        axis = {v: j for j, v in enumerate(union)}
        product = 1
        for scope, table in filed:
            shape = [1] * len(union)
            for v in scope:
                shape[axis[v]] = d
            product = product * table.reshape(shape)
        summed = product.sum(axis=0)
        if len(union) > 1:
            buckets[position[union[1]]].append((tuple(union[1:]), summed))
        else:
            total *= int(summed)
    return total


class ResidueCounter:
    """Counts of one component's maps into value domains of Z_k with every
    edge summing to a residue, all along one elimination order.

    ``edges`` holds the component's edges as 0-based indices of its
    ``width`` vertices. The order is computed by ``elimination_order``
    under ``budget`` on the first count, and it serves every count; each
    (residue, domain) is counted once. No linear algebra is involved, so
    the counts are independent of the exact solver.
    """

    def __init__(self, edges: Sequence[Sequence[int]], width: int, k: int, budget: int):
        self.edges = [tuple(e) for e in edges]
        self.width = width
        self.k = k
        self.budget = budget
        self._counts: dict[tuple, int | None] = {}

    @functools.cached_property
    def bags(self) -> tuple[tuple[int, ...], ...] | None:
        return elimination_order(self.edges, self.width, self.budget)

    def count(self, residue: int, domain: Sequence[int]) -> int | None:
        """Maps into ``domain``, values of Z_k, with every edge sum == residue
        (mod k), or None when some table of the count would exceed the budget."""
        if self.bags is None:
            return None
        key = (residue, tuple(sorted(set(domain))))
        if key not in self._counts:
            self._counts[key] = count_assignments(self.edges, self.bags, self.k, *key, self.budget)
        return self._counts[key]


def residue_orbit_count(counter: ResidueCounter, kind: str) -> int | None:
    """The number of residue rows ``enumerate_multipartitions`` lists, by counting.

    The kept maps are the residue-valid maps into Z_k with at least
    ``min_nonempty`` distinct values and no real-scalable value set. Their
    number is the full count minus the maps whose exact value set T is
    excluded (fewer than ``min_nonempty`` values, one value, or {a, a + k/2});
    each of those comes from the counts over the subsets of T by Moebius
    inversion. The group alpha -> +-alpha + t, of order 2k, keeps the kept
    maps kept (every edge has k vertices, and the residue is 0 or k/2), and
    it acts on them freely (a map fixed by one of its elements takes at
    most two values half a turn apart), so by Burnside's lemma the orbit
    count is their number over 2k; a remainder raises VerificationError.
    None when a count would exceed the budget.
    """
    spec = kind_spec(kind, counter.k)
    k, rhs = spec.k, spec.rhs
    full = counter.count(rhs, range(k))
    if full is None:
        return None
    kept = full
    for size in range(1, max(spec.min_nonempty - 1, 2) + 1):
        for values in itertools.combinations(range(k), size):
            if not _kept(np.array([values]), spec)[0]:
                kept -= sum(
                    (-1) ** (size - r) * counter.count(rhs, sub)
                    for r in range(1, size + 1)
                    for sub in itertools.combinations(values, r)
                )
    orbits, rest = divmod(kept, 2 * k)
    if rest:
        raise VerificationError(
            f"{kind}: {kept} kept maps do not split into orbits of {2 * k}"
        )
    return orbits


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
