"""Minimal canonical eigenvector classes of the zero eigenvalue.

Per connected component, the solutions of the edge-sum congruence system
fall into shift classes (adding a constant to all exponents mod k is the
same eigenvector up to a scalar); every shift orbit has size exactly k, so
the class count is solution_count / k. A class is H when its phase pattern
can be rotated onto a real vector, otherwise N; conjugation (exponent
negation) pairs up the N classes with no fixed points, since a
self-conjugate pattern is forced into two values pi apart, which is H.

Counting is closed-form (solution counts of the Howell-form solve plus a
modulus-2 subsystem for the H classes when k is even); enumeration is
reserved for explicitly requested class listings. ``solve_components`` is
the one pass per run: per component it builds the edge index once,
eliminates it once modulo k (and once modulo 2 for even k), and solves
both operators' systems and their H counts from those forms. The
cross-checks count the same structures combinatorially, with no linear
algebra: one ``partitions.ResidueCounter`` per component counts, by
variable elimination along one min-degree order, the vertex subsets
meeting every edge evenly (Laplacian) or oddly (signless) for the H
counts, and ``crosscheck`` reads the N pair counts from the same counter.
``solve_components`` returns one ``StructureCounts`` per operator, and
the counts, class listings and cross-checks all read it; nothing else
solves.

A listing is an integer array with one row of exponents per class, the
only representation of a class. Within each component the classes are
listed in lexicographic order of their shift-canonical exponents
(exponent 0 at the component's first vertex): they are the first
solutions in ``zk_solver.lex_solutions`` order. A listing therefore
depends only on the solution set, not on how it was solved, and a capped
listing holds the lexicographically first classes. Kinds, the exact
residue check and the residuals (``realize_classes``) are computed on
whole blocks of rows, never class by class.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, VerificationError
from .hypergraph import (
    ComponentDecomposition,
    Hypergraph,
    connected_components,
    induced_subhypergraph,
)
from .tensor_ops import edge_index, eig_residual
from .zk_solver import (
    LAPLACIAN,
    SIGNLESS,
    ZERO_EIG_OPERATORS,
    HowellForm,
    SolutionDescription,
    edge_residue,
    howell_form,
    lex_solutions,
    solve_mod_k,
)
from . import partitions as _partitions

# Entries (classes x vertices) per realization block: bounds the memory of
# a block while keeping the number of numpy calls per block small.
BLOCK_CELLS = 1 << 12

# Reason attached to reports when the signless system has no solutions
# because k is odd and the component is not a singleton.
ODD_SIGNLESS_REASON = (
    "odd uniformity: zero is not a signless Laplacian eigenvalue on a "
    "component with at least one edge"
)


@dataclass(frozen=True)
class ComponentStructure:
    """One component's closed-form counts for one operator, the one solve
    they come from, and the count identity's check of the H count;
    ``description`` is None where the operator has no system."""

    component: tuple[int, ...]
    singleton: bool
    feasible: bool
    solution_count: int
    class_count: int
    h_count: int
    n_pair_count: int
    # arrays, so records compare by their counts
    description: SolutionDescription | None = field(repr=False, compare=False)
    crosscheck_expected: int | None = None  # None when a count hit its budget
    # the component's combinatorial counts, shared by both operators' records
    counter: _partitions.ResidueCounter | None = field(default=None, repr=False, compare=False)

    @property
    def crosscheck_matched(self) -> bool | None:
        return None if self.crosscheck_expected is None else self.crosscheck_expected == self.h_count


@dataclass(frozen=True)
class StructureCounts:
    """One operator's per-component records, in component order, summed
    into the class counts and the combinatorial cross-check of the
    matching count identity."""

    operator: str
    k: int
    components: tuple[ComponentStructure, ...]

    @property
    def h_count(self) -> int:
        return sum(c.h_count for c in self.components)

    @property
    def n_pair_count(self) -> int:
        return sum(c.n_pair_count for c in self.components)

    @property
    def crosscheck_expected(self) -> int | None:
        """None when some component's count hit its budget."""
        expected = [c.crosscheck_expected for c in self.components]
        return None if None in expected else sum(expected)

    @property
    def crosscheck_matched(self) -> bool | None:
        if self.crosscheck_expected is None:
            return None
        return all(c.crosscheck_matched for c in self.components)

    @property
    def crosscheck_formula(self) -> str:
        if self.k % 2 == 1:
            if self.operator == LAPLACIAN:
                return "number of connected components"
            return "number of singletons"
        if self.operator == LAPLACIAN:
            return "even-bipartition count + components - singletons"
        return "odd-bipartition count"


def solve_components(
    h: Hypergraph,
    decomp: ComponentDecomposition | None = None,
    budget: int = _partitions.DEFAULT_ENUM_BUDGET,
) -> dict[str, StructureCounts]:
    """Both operators' records, each component's in component order.

    Per component, the induced edge index is built once and eliminated
    once modulo k (and once modulo 2 for even k); both operators' systems
    and their H counts are solved from those forms. One
    ``partitions.ResidueCounter`` on the same edges, under ``budget``,
    fills both records' cross-checks, and both records carry it for
    ``crosscheck``. A singleton builds no form and no counter: its one
    exponent is free, so it has k solutions and the identity kernel under
    either operator. ``decomp`` is ``h``'s decomposition when the caller
    already has it. The functions below read ``result[operator]``.
    """
    if decomp is None:
        decomp = connected_components(h)
    k = h.k
    out: dict[str, list[ComponentStructure]] = {op: [] for op in ZERO_EIG_OPERATORS}
    scalar = SolutionDescription(k, np.zeros(1, np.int64), np.ones((1, 1), np.int64))
    for comp, single in zip(decomp.components, decomp.singleton):
        form = form2 = counter = None
        if not single:
            edges = edge_index(induced_subhypergraph(h, comp).hypergraph)
            form = howell_form(edges, len(comp), k)
            if k % 2 == 0:
                form2 = form if k == 2 else howell_form(edges, len(comp), 2)
            counter = _partitions.ResidueCounter(edges.tolist(), len(comp), k, budget)
        expected = _component_expected(k, counter)
        for op in ZERO_EIG_OPERATORS:
            rhs = edge_residue(k, op)
            if single:
                desc = scalar
            else:  # for odd k the signless residue k/2 is no integer: no system
                desc = None if op == SIGNLESS and k % 2 else solve_mod_k(form, rhs)
            feasible = desc is not None and desc.feasible
            count = desc.solution_count if feasible else 0
            classes = count // k
            h_count = _h_class_count(k, form2, rhs) if feasible else 0
            n_classes = classes - h_count
            if n_classes % 2:
                raise VerificationError(
                    f"odd N class count {n_classes} on component {comp}: conjugate pairing broken"
                )
            record = ComponentStructure(
                comp, single, feasible, count, classes, h_count, n_classes // 2, desc,
                expected[op], counter,
            )
            out[op].append(record)
    return {op: StructureCounts(op, k, tuple(records)) for op, records in out.items()}


def _h_class_count(k: int, form2: HowellForm | None, rhs: int) -> int:
    """Closed-form count of H classes of one feasible component system.

    Without ``form2``, the edges' form modulo 2, there is exactly one
    class: odd k admits only constant patterns (the all-ones vector), and
    a singleton has only the scalar. For even k the H classes biject with
    the solutions of the modulus-2 subsystem (exponents restricted to
    {0, k/2}, so the edge residue r becomes r / (k/2)), two per class.
    """
    if form2 is None:
        return 1
    desc = solve_mod_k(form2, rhs // (k // 2))
    return desc.solution_count // 2 if desc.feasible else 0


def _component_expected(
    k: int, counter: _partitions.ResidueCounter | None
) -> dict[str, int | None]:
    """Per-component right-hand sides of both operators' count identities.

    Even k: the Laplacian H count is E/2, where E counts the vertex subsets
    S with every |S cap e| even, and the signless H count is O/2, where O
    counts those with every |S cap e| odd; complementing S keeps every
    parity (each edge has k vertices), so the subsets pair up. These are
    the maps into {0, k/2} with every edge sum 0, respectively k/2, modulo
    k. E/2 is the even-bipartition count plus the all-ones class (S empty
    or everything), O/2 the odd-bipartition count; a trivial singleton
    component (``counter`` None) is bipartite by convention and counts
    once (it carries no two-sided witness, which is where the singleton
    correction in the aggregate formula comes from). Odd k: one class per
    component for the Laplacian, the scalar class on singletons for the
    signless operator. None when a count would exceed the counter's budget.
    """
    if counter is None:
        return {LAPLACIAN: 1, SIGNLESS: 1}
    if k % 2 == 1:
        return {LAPLACIAN: 1, SIGNLESS: 0}
    out = {}
    for op in ZERO_EIG_OPERATORS:
        subsets = counter.count(edge_residue(k, op), (0, k // 2))
        if subsets is not None and subsets % 2:
            raise VerificationError(f"odd {op} subset count {subsets}: complement pairing broken")
        out[op] = None if subsets is None else subsets // 2
    return out


@dataclass(frozen=True)
class OperatorCrosscheck:
    """Both count identities of one operator.

    ``counts`` holds the H classes against the bipartition counts. The N
    pairs are held against the residue-valid multipartitions of
    ``n_kind``, the kind matching (k, operator), or None when no kind
    does; ``n_expected`` counts them, None without a kind or when a count
    hit its budget. ``n_literal`` counts the multipartitions matching the
    kind's literal clause lists, from the exhaustive scan; None without a
    kind or when some component's scan exceeds the budget.
    """

    counts: StructureCounts
    n_kind: str | None
    n_expected: int | None
    n_literal: int | None

    @property
    def n_matched(self) -> bool | None:
        return None if self.n_expected is None else self.n_expected == self.counts.n_pair_count

    @property
    def mismatch(self) -> bool:
        return self.counts.crosscheck_matched is False or self.n_matched is False


def crosscheck(h: Hypergraph, counts: StructureCounts, budget: int) -> OperatorCrosscheck:
    """``counts``, one operator's records, against the partition inventories.

    Each non-singleton component's residue-valid multipartitions are
    counted by its records' ``ResidueCounter`` (``residue_orbit_count``).
    Where the exhaustive scan fits ``budget``, the component is also
    scanned once for the kind: the scan yields the literal count, and its
    residue orbit count must equal the counter's, or VerificationError.
    """
    kind = _partitions.N_PAIR_KINDS.get((h.k, counts.operator))
    if kind is None:
        return OperatorCrosscheck(counts, None, None, None)
    expected: int | None = 0
    literal: int | None = 0
    for cs in counts.components:
        if cs.singleton:
            continue
        n = _partitions.residue_orbit_count(cs.counter, kind)
        expected = None if expected is None or n is None else expected + n
        try:
            orbits = _partitions.multipartition_orbits(h, cs.component, kind, budget)
        except BudgetExceededError:
            literal = None
            continue
        if n is not None and n != len(orbits["residue"]):
            raise VerificationError(
                f"{kind} on {cs.component}: {n} residue orbits counted, "
                f"{len(orbits['residue'])} scanned"
            )
        if literal is not None:
            literal += len(orbits["literal"])
    return OperatorCrosscheck(counts, kind, expected, literal)


def _listed_classes(
    limit: int | None, components: tuple[ComponentStructure, ...]
) -> list[np.ndarray]:
    """Each component's listed classes, in order, at most ``limit`` in total.

    A listing holds one shift-canonical exponent row per class (exponent 0
    at the component's first vertex), in lexicographic order, so a capped
    listing holds the lexicographically first classes.
    """
    out = []
    remaining = limit
    for cs in components:
        target = cs.class_count if remaining is None else min(cs.class_count, remaining)
        out.append(_component_classes(cs, target))
        if remaining is not None:
            remaining -= len(out[-1])
    return out


def _component_classes(cs: ComponentStructure, target: int) -> np.ndarray:
    """The lexicographically first ``target`` classes of one component.

    Adding 1 to every exponent keeps every edge sum (each edge has k
    vertices), so each value at the first vertex is taken by the same
    number of solutions: the first class_count solutions in lexicographic
    order are exactly those with exponent 0 there, one per class. A
    singleton's one class is the exponent 0, listed without a solve.
    """
    if target == 0 or cs.singleton:
        return np.zeros((target, len(cs.component)), dtype=np.int64)
    classes = lex_solutions(cs.description, target)
    if classes[:, 0].any():
        raise VerificationError(f"shift symmetry broken on component {cs.component}")
    return classes


def _kinds(alphas: np.ndarray, k: int) -> list[str]:
    """"H" for rows whose phases take at most two values pi apart, else "N".

    Rows are shift-canonical, so they contain 0 and the other allowed
    value can only be k/2 (even k).
    """
    half = k // 2 if k % 2 == 0 else 0
    real = np.all((alphas == 0) | (alphas == half), axis=1)
    return ["H" if r else "N" for r in real.tolist()]


def _phases(k: int, top: int) -> np.ndarray:
    """exp(2*pi*i*a/k) for a = 0..top, each from the scalar expression."""
    return np.array([np.exp(2j * np.pi * a / k) for a in range(top + 1)])


def realize_classes(
    h: Hypergraph,
    operator: str,
    component: tuple[int, ...],
    alphas: np.ndarray,
    tolerance: float = 1e-9,
) -> np.ndarray:
    """Verified residuals of one component's classes for eigenvalue 0.

    Row r of ``alphas`` holds the exponents of one class on ``component``;
    its vector carries exp(2*pi*i*alpha_v/k) there and zeros elsewhere.
    Both checks run on every row: the exact integer residue of every
    induced edge, and the numeric residual under ``tolerance``. The first
    row failing either is an internal bug and raises VerificationError.
    Rows go through ``eig_residual`` in blocks, on the component's induced
    sub-hypergraph; the zeros outside the component add nothing to the
    residual.
    """
    k = h.k
    sub, _ = induced_subhypergraph(h, component)
    edges = edge_index(sub)
    residue = edge_residue(k, operator)
    phases = _phases(k, int(alphas.max(initial=0)))
    out = np.empty(len(alphas))
    step = max(1, BLOCK_CELLS // len(component))
    for start in range(0, len(alphas), step):
        block = alphas[start : start + step]
        exact = block[:, edges].sum(axis=2) % k == residue
        resid = eig_residual(sub, operator, 0.0, phases[block])
        failed = ~exact.all(axis=1) | (resid > tolerance)
        if failed.any():
            row = np.argmax(failed)
            if not exact[row].all():
                e = tuple(component[v] for v in edges[np.argmin(exact[row])])
                raise VerificationError(
                    f"class on {component} violates the exact residue at edge {e}"
                )
            raise VerificationError(
                f"realized class residual {resid[row]:.3e} exceeds tolerance {tolerance:.1e}"
            )
        out[start : start + len(block)] = resid
    return out


def zero_eigenvector_report(
    h: Hypergraph,
    counts: StructureCounts,
    enumerate_limit: int | None = None,
    tolerance: float = 1e-9,
) -> dict:
    """Machine-readable per-component summary of ``counts``, one
    operator's records, used by the command line.

    Classes are enumerated (and realized, reporting residuals) up to
    ``enumerate_limit`` in total across components, in component order;
    counts always come from the closed form, so each component's
    ``truncated`` flag tells whether its listing fell short of its count.
    """
    operator = counts.operator
    listings = _listed_classes(enumerate_limit, counts.components)
    rhs = edge_residue(h.k, operator)

    components = []
    for cs, alphas in zip(counts.components, listings):
        entry = {
            "vertices": list(cs.component),
            "operator": operator,
            "singleton": cs.singleton,
            "feasible": cs.feasible,
            "rhs": rhs if cs.feasible else None,
            "count": cs.solution_count,
            "class_count": cs.class_count,
            "H_count": cs.h_count,
            "N_pair_count": cs.n_pair_count,
            "crosscheck": {
                "expected": cs.crosscheck_expected,
                "matched": cs.crosscheck_matched,
            },
        }
        if cs.description is None:
            entry["reason"] = ODD_SIGNLESS_REASON
        if cs.singleton:  # the scalar: real, with no edge to check and residual 0
            entry["classes"] = [{"alpha": [0], "kind": "H", "residual": 0.0} for _ in alphas]
        else:
            residuals = realize_classes(h, operator, cs.component, alphas, tolerance).tolist()
            entry["classes"] = [
                {"alpha": alpha, "kind": kind, "residual": resid}
                for alpha, kind, resid in zip(alphas.tolist(), _kinds(alphas, h.k), residuals)
            ]
        entry["truncated"] = len(alphas) < cs.class_count
        components.append(entry)
    return {
        "operator": operator,
        "k": h.k,
        "H_count": counts.h_count,
        "N_pair_count": counts.n_pair_count,
        "crosscheck": {
            "expected": counts.crosscheck_expected,
            "formula": counts.crosscheck_formula,
            "matched": counts.crosscheck_matched,
        },
        "components": components,
    }
