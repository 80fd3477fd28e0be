"""Minimal canonical eigenvector classes of the zero eigenvalue.

Per connected component, the solutions of the edge-sum congruence system
fall into shift classes (adding a constant to all exponents mod k is the
same eigenvector up to a scalar); every shift orbit has size exactly k, so
the class count is solution_count / k. A class is H when its phase pattern
can be rotated onto a real vector, otherwise N; conjugation (exponent
negation) pairs up the N classes with no fixed points, since a
self-conjugate pattern is forced into two values pi apart, which is H.

Counting is closed-form (Smith form solution counts plus a modulus-2
subsystem for the H classes when k is even); enumeration is reserved for
explicitly requested class listings. Each component's incidence rows are
Smith-factored once per call (``factor_components``) and shared by both
operators. Each (component, operator) system is then solved once per call
(``solve_components``); counts, class listings, the solution export and
the cross-checks all read that one solve.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BudgetExceededError, VerificationError
from .hypergraph import ComponentDecomposition, Hypergraph, connected_components
from .tensor_ops import Eigenpair, eig_residual
from .zk_solver import (
    LAPLACIAN,
    ZERO_EIG_OPERATORS,
    SmithFactorization,
    SolutionDescription,
    ZkAssignment,
    ZkLinearSystem,
    build_zero_eig_system,
    classify_H_or_N,
    conjugate_assignment,
    edge_residue,
    enumerate_solutions,
    factor_rows,
    incidence_rows,
    shift_canonicalize,
    solve_mod_k,
)
from . import partitions as _partitions

DEFAULT_CROSSCHECK_BUDGET = 200_000

# Reason attached to reports when the signless system has no solutions
# because k is odd and the component is not a singleton.
ODD_SIGNLESS_REASON = (
    "odd uniformity: zero is not a signless Laplacian eigenvalue on a "
    "component with at least one edge"
)


@dataclass(frozen=True)
class EigenvectorClass:
    """One shift-canonical solution class with full support on its component."""

    operator: str
    component: tuple[int, ...]
    representative: ZkAssignment
    kind: str  # "H" or "N"
    conjugate: ZkAssignment  # canonical partner; equals representative iff H


@dataclass(frozen=True)
class ComponentStructure:
    """One component's closed-form counts for one operator and the one solve
    they come from; ``description`` is None where the operator has no system."""

    component: tuple[int, ...]
    singleton: bool
    feasible: bool
    solution_count: int
    class_count: int
    h_count: int
    n_pair_count: int
    description: SolutionDescription | None = field(repr=False)
    crosscheck_expected: int | None = None  # None when the scan hit its budget
    crosscheck_matched: bool | None = None


@dataclass(frozen=True)
class StructureCounts:
    """Aggregated class counts for one operator, with the combinatorial
    cross-check of the matching count identity."""

    operator: str
    components: tuple[ComponentStructure, ...]
    h_count: int
    n_pair_count: int
    crosscheck_expected: int | None
    crosscheck_formula: str
    crosscheck_matched: bool | None


@dataclass(frozen=True)
class FactoredComponent:
    """One connected component with its incidence rows Smith-factored.

    ``factorization`` is None on singletons, whose systems have no rows.
    """

    component: tuple[int, ...]
    singleton: bool
    factorization: SmithFactorization | None


def factor_components(
    h: Hypergraph, decomp: ComponentDecomposition | None = None
) -> tuple[FactoredComponent, ...]:
    """Components in order, each with edges factored exactly once.

    ``decomp`` is ``h``'s decomposition when the caller already has it.
    Pass the result as ``factored`` to the functions below to share it
    across operators; each of them factors on its own when given None.
    """
    if decomp is None:
        decomp = connected_components(h)
    out = []
    for comp, single in zip(decomp.components, decomp.singleton):
        _, rows = incidence_rows(h, comp)
        out.append(FactoredComponent(comp, single, factor_rows(rows) if rows else None))
    return tuple(out)


def solve_components(
    h: Hypergraph, operator: str, factored: tuple[FactoredComponent, ...] | None = None
) -> tuple[ComponentStructure, ...]:
    """Each component's ``operator`` system, built and solved once, in order.

    Pass the result as ``solved`` to ``structure_counts`` and
    ``minimal_zero_eigenvectors`` to share the solves; cross-checks are unset.
    """
    if operator not in ZERO_EIG_OPERATORS:
        raise ValueError(f"unknown operator {operator!r}")
    if factored is None:
        factored = factor_components(h)
    return tuple(_solve_component(h, fc, operator) for fc in factored)


def _solve_component(h: Hypergraph, fc: FactoredComponent, operator: str) -> ComponentStructure:
    sys = build_zero_eig_system(h, fc.component, operator)
    desc = None if sys is None else solve_mod_k(sys, fc.factorization)
    if desc is None or not desc.feasible:
        return ComponentStructure(fc.component, fc.singleton, False, 0, 0, 0, 0, desc)
    classes = desc.solution_count // h.k
    h_count = _h_class_count(sys, fc.factorization)
    n_classes = classes - h_count
    if n_classes % 2:
        raise VerificationError(
            f"odd N class count {n_classes} on component {fc.component}: conjugate pairing broken"
        )
    return ComponentStructure(
        fc.component, fc.singleton, True, desc.solution_count, classes, h_count, n_classes // 2, desc
    )


def _h_class_count(sys: ZkLinearSystem, factorization: SmithFactorization | None) -> int:
    """Closed-form count of H classes of one feasible component system.

    Odd k admits only constant patterns, so there is exactly one class:
    the all-ones vector, or the scalar on a singleton. For even k the H
    classes biject with the solutions of the modulus-2 subsystem (exponents
    restricted to {0, k/2}, so each edge residue r becomes r / (k/2)), two
    solutions per class.
    """
    k = sys.modulus
    if k % 2 == 1:
        return 1
    sub = ZkLinearSystem(2, sys.vertices, sys.rows, tuple(r // (k // 2) for r in sys.rhs))
    desc = solve_mod_k(sub, factorization)
    return desc.solution_count // 2 if desc.feasible else 0


def minimal_zero_eigenvectors(
    h: Hypergraph,
    operator: str,
    max_classes: int | None = None,
    solved: tuple[ComponentStructure, ...] | None = None,
) -> list[EigenvectorClass]:
    """All shift-canonical zero-eigenvector classes, component by component.

    Minimality holds by construction: a zero eigenvector restricts to full
    support on every component it touches, so single-component support is
    as small as support gets. Singleton components contribute exactly one
    H class (the scalar 1; their tensor block is zero). ``max_classes``
    caps the total enumeration; counts are unaffected by the cap.
    """
    if solved is None:
        solved = solve_components(h, operator)
    out: list[EigenvectorClass] = []
    for cs in solved:
        remaining = None if max_classes is None else max_classes - len(out)
        if remaining is not None and remaining <= 0:
            break
        out.extend(_component_classes(operator, cs, remaining))
    return out


def _component_expected(
    h: Hypergraph, comp: tuple[int, ...], singleton: bool, operator: str, budget: int
) -> int | None:
    """Per-component right-hand side of the matching count identity.

    Even k: the signless H count equals the number of odd-bipartitions and
    the Laplacian H count equals the even-bipartition count plus the
    all-ones class; a trivial singleton component is bipartite by
    convention and counts once (it carries no two-sided witness, which is
    where the singleton correction in the aggregate formula comes from).
    Odd k: one class per component for the Laplacian, the scalar class on
    singletons for the signless operator. None when the bipartition scan
    would exceed its budget.
    """
    if singleton:
        return 1
    if h.k % 2 == 1:
        return 1 if operator == LAPLACIAN else 0
    flavor = _partitions.EVEN if operator == LAPLACIAN else _partitions.ODD
    try:
        witnesses = len(_partitions.enumerate_bipartitions(h, comp, flavor, budget))
    except BudgetExceededError:
        return None
    return witnesses + 1 if operator == LAPLACIAN else witnesses


def _crosscheck_formula(h: Hypergraph, operator: str) -> str:
    if h.k % 2 == 1:
        if operator == LAPLACIAN:
            return "number of connected components"
        return "number of singletons"
    if operator == LAPLACIAN:
        return "even-bipartition count + components - singletons"
    return "odd-bipartition count"


def structure_counts(
    h: Hypergraph,
    operator: str,
    budget: int = DEFAULT_CROSSCHECK_BUDGET,
    factored: tuple[FactoredComponent, ...] | None = None,
    solved: tuple[ComponentStructure, ...] | None = None,
) -> StructureCounts:
    """Closed-form per-component counts plus the combinatorial cross-check."""
    if solved is None:
        solved = solve_components(h, operator, factored)
    per_comp = []
    for cs in solved:
        expected = _component_expected(h, cs.component, cs.singleton, operator, budget)
        matched = None if expected is None else expected == cs.h_count
        per_comp.append(replace(cs, crosscheck_expected=expected, crosscheck_matched=matched))
    h_total = sum(c.h_count for c in per_comp)
    n_total = sum(c.n_pair_count for c in per_comp)
    if any(c.crosscheck_expected is None for c in per_comp):
        expected, matched = None, None
    else:
        expected = sum(c.crosscheck_expected for c in per_comp)
        matched = all(c.crosscheck_matched for c in per_comp)
    formula = _crosscheck_formula(h, operator)
    return StructureCounts(operator, tuple(per_comp), h_total, n_total, expected, formula, matched)


def count_N_pairs(h: Hypergraph, operator: str) -> int:
    """Number of conjugate N-class pairs over all components.

    Uses the closed-form solution counts; no enumeration and no partition
    scan. Pairing is total because no N class is self-conjugate.
    """
    return sum(cs.n_pair_count for cs in solve_components(h, operator))


@dataclass(frozen=True)
class OperatorCrosscheck:
    """Both count identities of one operator.

    ``counts`` holds the H classes against the bipartition counts. The N
    pairs are held against the residue-valid multipartitions of
    ``n_kind``, the kind matching (k, operator), or None when no kind
    does. ``n_literal`` counts the multipartitions matching the kind's
    literal clause lists, from the same scan. Both counts are None without
    a kind or when the scan hit its budget.
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


def crosscheck(
    h: Hypergraph, operator: str, budget: int, factored: tuple[FactoredComponent, ...]
) -> OperatorCrosscheck:
    """Algebraic counts of one operator against the partition inventories.

    Each non-singleton component is scanned once for the matching kind,
    and that one scan yields both the residue and the literal witnesses.
    """
    counts = structure_counts(h, operator, budget, factored)
    kind = _partitions.N_PAIR_KINDS.get((h.k, operator))
    if kind is None:
        return OperatorCrosscheck(counts, None, None, None)
    try:
        scans = [
            _partitions.enumerate_multipartitions(h, fc.component, kind, budget)
            for fc in factored
            if not fc.singleton
        ]
    except BudgetExceededError:
        return OperatorCrosscheck(counts, kind, None, None)
    residue, literal = (sum(len(s[pred]) for s in scans) for pred in ("residue", "literal"))
    return OperatorCrosscheck(counts, kind, residue, literal)


def _listed_classes(
    h: Hypergraph, operator: str, limit: int | None, solved: tuple[ComponentStructure, ...]
) -> list[list[EigenvectorClass]]:
    """Each component's listed classes, in order, at most ``limit`` in total."""
    by_comp: dict[tuple[int, ...], list[EigenvectorClass]] = {}
    for c in minimal_zero_eigenvectors(h, operator, limit, solved=solved):
        by_comp.setdefault(c.component, []).append(c)
    return [by_comp.get(cs.component, []) for cs in solved]


def solution_export(
    h: Hypergraph, operator: str, limit: int | None = None
) -> list[dict]:
    """Per-component solution sets in the wire format.

    Each entry is {"k", "component", "rhs", "count", "classes"} with one
    {"alpha", "kind"} record per shift class. ``limit`` caps the classes
    listed in total across components, in component order, so later
    components may list fewer than their count or none. Infeasible
    components report rhs None and count 0.
    """
    solved = solve_components(h, operator)
    rhs = edge_residue(h.k, operator)
    return [
        {
            "k": h.k,
            "component": list(cs.component),
            "rhs": rhs if cs.feasible else None,
            "count": cs.solution_count,
            "classes": [{"alpha": list(c.representative.values), "kind": c.kind} for c in listed],
        }
        for cs, listed in zip(solved, _listed_classes(h, operator, limit, solved))
    ]


def _component_classes(
    operator: str, cs: ComponentStructure, max_classes: int | None = None
) -> list[EigenvectorClass]:
    if not cs.feasible:
        return []
    target = cs.class_count
    if max_classes is not None:
        target = min(target, max_classes)
    seen: dict[tuple[int, ...], ZkAssignment] = {}
    for sol in enumerate_solutions(cs.description):
        rep = shift_canonicalize(sol)
        if rep.values not in seen:
            seen[rep.values] = rep
            if len(seen) == target:
                break
    return [
        EigenvectorClass(operator, cs.component, rep, classify_H_or_N(rep), conjugate_assignment(rep))
        for rep in seen.values()
    ]


def realize_complex(
    h: Hypergraph, cls: EigenvectorClass, tolerance: float = 1e-9
) -> Eigenpair:
    """Materialize a class as a verified complex eigenpair for eigenvalue 0.

    The vector carries exp(2*pi*i*alpha_v/k) on the component and zeros
    elsewhere. Both checks must pass: the exact integer residue of every
    induced edge, and the numeric residual under ``tolerance``. Failure of
    either is an internal bug and raises VerificationError.
    """
    k = h.k
    rep = cls.representative
    alpha = rep.as_dict()
    residue = edge_residue(k, cls.operator)
    comp_set = set(cls.component)
    for e in h.edges:
        if comp_set.issuperset(e):
            if sum(alpha[v] for v in e) % k != residue:
                raise VerificationError(
                    f"class on {cls.component} violates the exact residue at edge {e}"
                )
    x = np.zeros(h.n, dtype=complex)
    for v, a in alpha.items():
        x[v - 1] = np.exp(2j * np.pi * a / k)
    resid = eig_residual(h, cls.operator, 0.0, x)
    if resid > tolerance:
        raise VerificationError(
            f"realized class residual {resid:.3e} exceeds tolerance {tolerance:.1e}"
        )
    return Eigenpair(cls.operator, 0j, x, resid)


def zero_eigenvector_report(
    h: Hypergraph,
    operator: str,
    enumerate_limit: int | None = None,
    tolerance: float = 1e-9,
    budget: int = DEFAULT_CROSSCHECK_BUDGET,
    factored: tuple[FactoredComponent, ...] | None = None,
) -> dict:
    """Machine-readable per-component summary used by the command line.

    Classes are enumerated (and realized, reporting residuals) up to
    ``enumerate_limit`` in total across components, in component order;
    counts always come from the closed form, so each component's
    ``truncated`` flag tells whether its listing fell short of its count.
    """
    solved = solve_components(h, operator, factored)
    counts = structure_counts(h, operator, budget, solved=solved)
    listings = _listed_classes(h, operator, enumerate_limit, solved)
    rhs = edge_residue(h.k, operator)

    components = []
    for cs, listed in zip(counts.components, listings):
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
        entry["classes"] = [
            {
                "alpha": list(c.representative.values),
                "kind": c.kind,
                "residual": realize_complex(h, c, tolerance).residual,
            }
            for c in listed
        ]
        entry["truncated"] = len(listed) < cs.class_count
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
