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
the one pass per run: per non-singleton component it builds one
``zk_solver.ComponentSystem``, solves both operators' systems and their H
counts from its forms modulo k and 2, then drops the forms; the records
keep the system for realization and the literal scans. The
cross-checks count the same structures combinatorially, with no linear
algebra: one ``counting.ResidueCounter`` per component counts, by
variable elimination along one min-degree order, the vertex subsets
meeting every edge evenly (Laplacian) or oddly (signless) for the H
counts, and the residue-valid multipartitions for the N pair counts;
the N kind of each (k, operator) is ``kinds.N_PAIR_KINDS``'s, and no
count reads ``partitions``. ``solve_components`` returns one
``StructureCounts`` per operator, which decides both count identities;
the counts, class listings and cross-checks all read it, and nothing
else solves.

A listing is an integer array with one row of exponents per class; it
reaches the report as it is, in a ``ClassListing`` beside the classes'
kinds and residuals. A component's classes are ``zk_solver.lex_classes``'s
(a singleton's one class, 0, is a plain record): shift-canonical exponents
(0 at the component's first vertex) in lexicographic order. A listing therefore
depends only on the solution set, not on how it was solved, and a capped
listing holds the lexicographically first classes. Kinds, the exact
residue check and the residuals (``realize_classes``) are computed on
whole blocks of rows, never class by class.
"""

from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, VerificationError
from .hypergraph import ComponentDecomposition, Hypergraph, _Record, connected_components
from .kinds import N_PAIR_KINDS, edge_residue
from .names import DEFAULT_ENUM_BUDGET, DEFAULT_TOLERANCE, LAPLACIAN, SIGNLESS, ZERO_EIG_OPERATORS
from .zk_solver import ComponentSystem, SolutionDescription, _ArrayRecord
from .zk_solver import _blocks, _edge_sums, lex_classes, solve_mod_k
from . import counting

# Reason attached to reports when the signless system has no solutions
# because k is odd and the component is not a singleton.
ODD_SIGNLESS_REASON = (
    "odd uniformity: zero is not a signless Laplacian eigenvalue on a "
    "component with at least one edge"
)


class ComponentStructure(_Record):
    """One component's closed-form counts for one operator, the one solve
    they come from, and the count identity's check of the H count;
    ``description`` is None where the operator has no system, and
    ``system`` where the component is a singleton. ``h_expected`` is None
    when a count hit its budget; ``counter``, the component's combinatorial
    counts, is shared by both operators' records."""

    # the counts: equality, hashing and repr read these, not the arrays
    _fields = ("component", "singleton", "feasible", "solution_count", "class_count", "h_count",
               "n_pair_count", "h_expected")

    def __init__(
        self, component: tuple[int, ...], singleton: bool, feasible: bool, solution_count: int,
        class_count: int, h_count: int, n_pair_count: int,
        description: SolutionDescription | None, h_expected: int | None = None,
        counter: counting.ResidueCounter | None = None, system: ComponentSystem | None = None,
    ):
        super().__init__(component, singleton, feasible, solution_count, class_count, h_count,
                         n_pair_count, h_expected)
        for name, value in zip(("description", "counter", "system"), (description, counter, system)):
            object.__setattr__(self, name, value)

    @property
    def h_matched(self) -> bool | None:
        return None if self.h_expected is None else self.h_expected == self.h_count


class StructureCounts(_Record):
    """One operator's per-component records, in component order, summed
    into the class counts and deciding both count identities: the H
    classes against the bipartition counts, and the N pairs against the
    residue-valid multipartitions of ``n_kind``, the kind matching (k,
    operator), if any. ``n_expected`` is counted on first read, so a run
    that reports no N identity counts nothing."""

    _fields = ("operator", "k", "components")

    @property
    def h_count(self) -> int:
        return sum(c.h_count for c in self.components)

    @property
    def n_pair_count(self) -> int:
        return sum(c.n_pair_count for c in self.components)

    @property
    def h_expected(self) -> int | None:
        """None when some component's count hit its budget."""
        expected = [c.h_expected for c in self.components]
        return None if None in expected else sum(expected)

    @property
    def h_matched(self) -> bool | None:
        if self.h_expected is None:
            return None
        return all(c.h_matched for c in self.components)

    @property
    def h_formula(self) -> str:
        if self.k % 2 == 1:
            if self.operator == LAPLACIAN:
                return "number of connected components"
            return "number of singletons"
        if self.operator == LAPLACIAN:
            return "even-bipartition count + components - singletons"
        return "odd-bipartition count"

    @property
    def n_kind(self) -> str | None:
        return N_PAIR_KINDS.get((self.k, self.operator))

    @cached_property
    def n_expected(self) -> int | None:
        """The non-singleton components' residue orbit counts summed; None
        without a kind or at the first count that hits its budget."""
        if self.n_kind is None:
            return None
        total = 0
        for cs in self.components:
            if cs.singleton:
                continue
            n = counting.residue_orbit_count(cs.counter, self.n_kind)
            if n is None:
                return None
            total += n
        return total

    @property
    def n_matched(self) -> bool | None:
        return None if self.n_expected is None else self.n_expected == self.n_pair_count

    @property
    def n_formula(self) -> str | None:
        if self.n_kind is None:
            return None
        if self.n_expected is None:
            return f"residue-valid {self.n_kind} count (budget exceeded, unchecked)"
        return f"residue-valid {self.n_kind} multipartition count"

    @property
    def mismatch(self) -> bool:
        return self.h_matched is False or self.n_matched is False

    def component_entries(self) -> list[dict]:
        """Each component's counts and H identity, as the reports write them."""
        return [
            {
                "vertices": list(c.component),
                "operator": self.operator,
                "H_count": c.h_count,
                "N_pair_count": c.n_pair_count,
                "crosscheck": {"expected": c.h_expected, "matched": c.h_matched},
            }
            for c in self.components
        ]


def solve_components(
    h: Hypergraph,
    decomp: ComponentDecomposition | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> dict[str, StructureCounts]:
    """Both operators' records, each component's in component order.

    Per component, both operators' systems and their H counts are solved
    from one ``ComponentSystem``'s forms modulo k and, for even k, 2, which
    are then dropped. One ``counting.ResidueCounter`` on the same edges,
    under ``budget``, fills both records' H cross-checks, and both records
    carry it and the system for their N counts and listings. A singleton
    builds neither: its one exponent is free, so it has k solutions and the
    identity kernel under either operator. ``decomp`` is ``h``'s
    decomposition when the caller already has it. The functions below read
    ``result[operator]``.
    """
    if decomp is None:
        decomp = connected_components(h)
    k = h.k
    out: dict[str, list[ComponentStructure]] = {op: [] for op in ZERO_EIG_OPERATORS}
    scalar = SolutionDescription(k, np.zeros(1, np.int64), np.ones((1, 1), np.int64))
    for comp, single in zip(decomp.components, decomp.singleton):
        system = counter = None
        if not single:
            system = ComponentSystem(h, comp)
            counter = counting.ResidueCounter(system.edges.tolist(), len(comp), k, budget)
        expected = _component_expected(k, counter)
        for op in ZERO_EIG_OPERATORS:
            rhs = edge_residue(k, op)
            if single:
                desc = scalar
            else:  # no residue (signless at odd k): no system
                desc = None if rhs is None else solve_mod_k(system.form(k), rhs)
            feasible = desc is not None and desc.feasible
            count = desc.solution_count if feasible else 0
            classes = count // k
            h_count = _h_class_count(k, system, rhs) if feasible else 0
            n_classes = classes - h_count
            if n_classes % 2:
                raise VerificationError(
                    f"odd N class count {n_classes} on component {comp}: conjugate pairing broken"
                )
            record = ComponentStructure(
                comp, single, feasible, count, classes, h_count, n_classes // 2, desc,
                expected[op], counter, system,
            )
            out[op].append(record)
        if system is not None:
            system.forms.clear()
    return {op: StructureCounts(op, k, tuple(records)) for op, records in out.items()}


def _h_class_count(k: int, system: ComponentSystem | None, rhs: int) -> int:
    """Closed-form count of H classes of one feasible component system.

    For odd k there is exactly one class, as for a singleton (``system``
    None): odd k admits only constant patterns (the all-ones vector), and
    a singleton has only the scalar. For even k the H classes biject with
    the solutions of the modulus-2 subsystem (exponents restricted to
    {0, k/2}, so the edge residue r becomes r / (k/2)), two per class.
    """
    if system is None or k % 2:
        return 1
    desc = solve_mod_k(system.form(2), rhs // (k // 2))
    return desc.solution_count // 2 if desc.feasible else 0


def _component_expected(
    k: int, counter: counting.ResidueCounter | None
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
    component where ``edge_residue`` gives a residue (the Laplacian), none
    where it gives None. None when a count would exceed the counter's budget.
    """
    if counter is None:
        return {LAPLACIAN: 1, SIGNLESS: 1}
    if k % 2 == 1:
        return {op: int(edge_residue(k, op) is not None) for op in ZERO_EIG_OPERATORS}
    out = {}
    for op in ZERO_EIG_OPERATORS:
        subsets = counter.count(edge_residue(k, op), (0, k // 2))
        if subsets is not None and subsets % 2:
            raise VerificationError(f"odd {op} subset count {subsets}: complement pairing broken")
        out[op] = None if subsets is None else subsets // 2
    return out


def n_literal_count(counts: StructureCounts, budget: int) -> int | None:
    """The multipartitions matching ``counts.n_kind``'s literal clause
    lists, from one exhaustive scan per non-singleton component; None
    without a kind or at the first scan that exceeds ``budget``. The
    case-by-case lists may diverge from the residue condition, so this
    count is reported beside ``n_expected``, never held against it.
    """
    if counts.n_kind is None:
        return None
    total = 0
    for cs in counts.components:
        if cs.singleton:
            continue
        try:
            total += len(counting.literal_scan(cs.system, counts.n_kind, budget))
        except BudgetExceededError:
            return None
    return total


class ClassListing(_ArrayRecord):
    """One component's listed classes as arrays: the exponent rows, which
    rows are H, and their residuals. Iterating gives the report records;
    the command line writes them from the arrays."""

    _fields = ("alphas", "real", "residuals")

    def __len__(self) -> int:
        return len(self.alphas)

    def __iter__(self):
        for a, real, r in zip(self.alphas.tolist(), self.real.tolist(), self.residuals.tolist()):
            yield {"alpha": a, "kind": "H" if real else "N", "residual": r}


def _phases(k: int, top: int) -> np.ndarray:
    """exp(2*pi*i*a/k) for a = 0..top, each from the scalar expression."""
    return np.array([np.exp(2j * np.pi * a / k) for a in range(top + 1)])


def realize_classes(
    system: ComponentSystem, operator: str, alphas: np.ndarray, tolerance: float = DEFAULT_TOLERANCE
) -> np.ndarray:
    """Verified residuals of one component's classes for eigenvalue 0.

    Row r of ``alphas`` holds the exponents of one class on the component
    of ``system``; its vector carries exp(2*pi*i*alpha_v/k) there and
    zeros elsewhere. Both checks run on every row: the exact integer
    residue of every induced edge, and the numeric residual under
    ``tolerance``. The first row failing either is an internal bug and
    raises VerificationError. Rows go through ``eig_residual`` on the
    induced sub-hypergraph in blocks sized by the 8|E|k floats a row holds
    in ``apply_adjacency``; the zeros outside the component add nothing.
    """
    from .tensor_ops import eig_residual  # only the commands that list classes load it

    k, component, edges = system.k, system.vertices, system.edges
    residue = edge_residue(k, operator)
    phases = _phases(k, int(alphas.max(initial=0)))
    out = np.empty(len(alphas))
    for cut in _blocks(len(alphas), 8 * len(edges) * k):
        block = alphas[cut]
        exact = _edge_sums(block, edges) % k == residue
        resid = eig_residual(system.sub, operator, 0.0, phases[block])
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
        out[cut] = resid
    return out


def zero_eigenvector_report(
    h: Hypergraph,
    counts: StructureCounts,
    enumerate_limit: int | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict:
    """Machine-readable per-component summary of ``counts``, one
    operator's records, used by the command line.

    Classes are enumerated (and realized, reporting residuals) up to
    ``enumerate_limit`` in total across components, in component order, so
    a capped listing holds each component's lexicographically first
    classes; counts always come from the closed form, so each component's
    ``truncated`` flag tells whether its listing fell short of its count.
    A non-singleton's classes are a ``ClassListing`` of ``lex_classes`` rows.
    ``rhs`` is ``kinds.edge_residue``'s on a feasible component (singletons
    are: an odd-k singleton's signless ``rhs`` is its None), else None.
    """
    operator = counts.operator
    rhs = edge_residue(h.k, operator)
    remaining = float("inf") if enumerate_limit is None else enumerate_limit
    components = counts.component_entries()
    for entry, cs in zip(components, counts.components):
        listed = min(cs.class_count, remaining)
        remaining -= listed
        entry.update(
            singleton=cs.singleton,
            feasible=cs.feasible,
            rhs=rhs if cs.feasible else None,
            count=cs.solution_count,
            class_count=cs.class_count,
        )
        if cs.description is None:
            entry.update(reason=ODD_SIGNLESS_REASON, classes=[])
        elif cs.singleton:  # the scalar's class [0]: real, no edge to check, residual 0
            entry["classes"] = [{"alpha": [0], "kind": "H", "residual": 0.0} for _ in range(listed)]
        else:
            alphas = lex_classes(cs.description, listed, f"component {cs.component}")
            residuals = realize_classes(cs.system, operator, alphas, tolerance)
            entry["classes"] = ClassListing(alphas, counting.real_scalable(alphas, h.k), residuals)
        entry["truncated"] = listed < cs.class_count
    return {
        "operator": operator,
        "k": h.k,
        "H_count": counts.h_count,
        "N_pair_count": counts.n_pair_count,
        "crosscheck": {
            "expected": counts.h_expected,
            "formula": counts.h_formula,
            "matched": counts.h_matched,
        },
        "components": components,
    }
