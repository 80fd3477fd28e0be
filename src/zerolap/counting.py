"""The combinatorial route: counts of partition structures with no linear algebra.

The exact solve's counts are checked against these, so this module reads
none of the solver's code: it imports numpy, ``names``, ``errors`` and
``kinds`` only. ``ResidueCounter`` counts the maps from a component's
vertices into a value set D of Z_k whose every edge sums to a residue,
by variable elimination along one min-degree order, in about
m * |D|^(w+1) for a decomposition of width w, each table capped by the
budget. The bipartition counts are its counts over D = {0, k/2}, and
``residue_orbit_count`` reads a multipartition kind's residue orbit
count from its counts. ``literal_scan`` lists the multipartitions that
match a kind's literal clause lists, which no congruence describes, by
a scan of all k^m assignments of an m-vertex component.
"""

import functools
import heapq
import itertools
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, VerificationError
from .kinds import KindSpec, _edge_predicates, kind_spec
from .names import PREDICATES

# Assignments per block of the literal scan: a block's arrays stay well
# under a megabyte.
CHUNK = 4096


def _primal_graph(edges: Sequence[Sequence[int]], width: int) -> list[set[int]]:
    """Per vertex 0..width-1, the other vertices sharing an edge with it."""
    adjacent: list[set[int]] = [set() for _ in range(width)]
    for e in edges:
        for v in e:
            adjacent[v].update(e)
    for v, near in enumerate(adjacent):
        near.discard(v)
    return adjacent


def real_scalable(rows: np.ndarray, k: int) -> np.ndarray:
    """Per row of exponents mod k: whether one unit scalar makes its vector
    real, that is whether the row takes one value, or two half a turn apart."""
    offsets = (rows - rows[:, :1]) % k
    return ((offsets == 0) | (offsets == (k // 2 if k % 2 == 0 else 0))).all(axis=1)


def _kept(rows: np.ndarray, spec: KindSpec) -> np.ndarray:
    """Per row: ``min_nonempty`` values or more, and not real-scalable (a bipartition)."""
    nonempty = sum((rows == j).any(axis=1) for j in range(spec.k))
    return (nonempty >= spec.min_nonempty) & ~real_scalable(rows, spec.k)


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


def _digits(codes: np.ndarray, m: int, p: int) -> np.ndarray:
    """The m base-p digits of each code, most significant first, as int8 rows."""
    return (codes[:, None] // p ** np.arange(m - 1, -1, -1, dtype=np.int64) % p).astype(np.int8)


def literal_scan(system, kind: str, budget: int) -> np.ndarray:
    """One component's multipartitions matching ``kind``'s literal clause
    lists, one per orbit, as ``partitions.enumerate_multipartitions`` lists them.

    ``system`` is anything with ``k``, ``vertices`` (m of them) and
    ``edges``, the (|E|, k) array of the edges' 0-based vertex indices.
    All k^m assignments are scanned in blocks of ``CHUNK``, code j giving
    vertex i the i-th base-k digit of j, most significant first. Those
    passing the clause lists and ``_kept`` are quotiented by the group
    alpha -> +-alpha + t, each orbit keyed by its least code over the
    group, as the clause lists are not closed under it. Returns an int8
    array with one row of part indices per orbit, its least kept
    assignment, in ascending order of the orbit's least member. k^m >
    ``budget`` raises BudgetExceededError before any array exists.
    """
    spec = kind_spec(kind, system.k)
    m, k = len(system.vertices), spec.k
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
    """The number of residue rows ``partitions.enumerate_multipartitions``
    lists, by counting.

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
