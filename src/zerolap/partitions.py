"""Partition witnesses read from the exact solve, their validators, and the hm search.

Two predicates decide whether a vertex partition is admissible:

* ``literal``  -- an edge must match one of the case-by-case intersection
  profiles that define the kind; the clause lists are kept exactly as
  stated, including their apparent gaps, which ``kinds.discrepancy_scan``
  surfaces rather than repairs;
* ``residue``  -- the exponent sum of an edge must hit the required residue
  mod k (0 for the Laplacian family, k/2 for the signless family). This is
  the predicate the exact solver realizes, and it is the ground truth for
  all cross-checks.

Every function here that reads one component takes its
``zk_solver.ComponentSystem``: the edge index of its induced
sub-hypergraph, and its Howell forms, each built once per modulus.
A partition witness is a row of part indices: entry i is the part of the
component's i-th vertex, vertices in ascending order. Listings are int8
arrays with one row per witness, as ``zk_solver.lex_classes`` lists
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
one per conjugate pair of kept classes; literal rows come from
``counting.literal_scan``, a scan of all k^m assignments of an m-vertex
component. The bipartition listing costs a row per solution modulo 2,
the residue multipartition listing a row per class, and the literal
scan k^m; the budget bounds each before anything is listed. The
cross-checks need only counts, which ``counting`` finds without
listing and without the solver.
"""

import math

import numpy as np

from .counting import _kept, _primal_graph, _profile_table, literal_scan
from .errors import BudgetExceededError, VerificationError
from .kinds import applicable_kinds, kind_spec
from .names import BIPARTITION_FLAVORS, DEFAULT_ENUM_BUDGET, EVEN, HM, ODD
from .zk_solver import ComponentSystem, _blocks, _edge_sums, lex_classes, lex_solutions, solve_mod_k


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
    for cut in _blocks(len(block), len(edges)):
        meets = _edge_sums(in_v1[cut], edges)
        hits = meets == 1 if flavor == HM else meets % 2 == (flavor == ODD)
        ok[cut] &= hits.all(axis=1)
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
    for cut in _blocks(len(block), len(edges)):
        profiles = _edge_sums(weights[block[cut]], edges)
        ok[cut] &= table[profiles].all(axis=1)
    return ok if np.ndim(rows) == 2 else bool(ok[0])


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
    holds two of the system's classes, alpha and -alpha, as
    ``zk_solver.lex_classes`` lists them. More classes than ``budget``
    raise BudgetExceededError before any is listed; a listed row breaking
    the residue or the shift symmetry raises VerificationError.

    ``literal`` rows are ``counting.literal_scan``'s.
    """
    spec = kind_spec(kind, system.k)
    if predicate == "literal":
        return literal_scan(system, kind, budget)
    if predicate != "residue":
        raise ValueError(f"unknown predicate {predicate!r}")
    desc = solve_mod_k(system.form(spec.k), spec.rhs)
    solutions = desc.solution_count // spec.k
    if solutions > budget:
        raise BudgetExceededError(
            f"residue multipartition listing needs {solutions} solutions, budget is {budget}"
        )
    rows = lex_classes(desc, solutions, f"{kind} on {system.vertices}").astype(np.int8)
    rows = rows[_kept(rows, spec)]
    negated = -rows % spec.k
    at = np.arange(len(rows)), (rows != negated).argmax(axis=1)
    rows = rows[rows[at] < negated[at]]
    if not validate_multipartition(system, rows, kind, "residue").all():
        raise VerificationError(
            f"{kind} on {system.vertices}: a listed solution breaks the residue"
        )
    return rows
