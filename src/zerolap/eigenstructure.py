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
Smith-factored once per call (``factor_components``); counts, the H
subsystem and class listings for both operators all solve from that one
factorization.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import BudgetExceededError, VerificationError
from .hypergraph import Hypergraph, connected_components
from .tensor_ops import Eigenpair, eig_residual
from .zk_solver import (
    LAPLACIAN,
    SIGNLESS,
    ZERO_EIG_OPERATORS,
    SmithFactorization,
    SolutionDescription,
    ZkAssignment,
    ZkLinearSystem,
    build_zero_eig_system,
    classify_H_or_N,
    conjugate_assignment,
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
    component: tuple[int, ...]
    singleton: bool
    feasible: bool
    solution_count: int
    class_count: int
    h_count: int
    n_pair_count: int
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


def factor_components(h: Hypergraph) -> tuple[FactoredComponent, ...]:
    """Components in order, each with edges factored exactly once.

    Pass the result as ``factored`` to the functions below to share it
    across operators; each of them factors on its own when given None.
    """
    decomp = connected_components(h)
    out = []
    for comp, single in zip(decomp.components, decomp.singleton):
        _, rows = incidence_rows(h, comp)
        out.append(FactoredComponent(comp, single, factor_rows(rows) if rows else None))
    return tuple(out)


def _solve(h: Hypergraph, fc: FactoredComponent, operator: str) -> SolutionDescription | None:
    """The operator's edge system on ``fc``, solved; None when it has no system."""
    sys = build_zero_eig_system(h, fc.component, operator)
    return None if sys is None else solve_mod_k(sys, fc.factorization)


def minimal_zero_eigenvectors(
    h: Hypergraph,
    operator: str,
    max_classes: int | None = None,
    factored: tuple[FactoredComponent, ...] | None = None,
) -> list[EigenvectorClass]:
    """All shift-canonical zero-eigenvector classes, component by component.

    Minimality holds by construction: a zero eigenvector restricts to full
    support on every component it touches, so single-component support is
    as small as support gets. Singleton components contribute exactly one
    H class (the scalar 1; their tensor block is zero). ``max_classes``
    caps the total enumeration; counts are unaffected by the cap.
    """
    if operator not in ZERO_EIG_OPERATORS:
        raise ValueError(f"unknown operator {operator!r}")
    if factored is None:
        factored = factor_components(h)
    out: list[EigenvectorClass] = []
    for fc in factored:
        remaining = None if max_classes is None else max_classes - len(out)
        if remaining is not None and remaining <= 0:
            break
        out.extend(_component_classes(h, operator, fc, remaining))
    return out


def _h_class_count(h: Hypergraph, fc: FactoredComponent, operator: str) -> int:
    """Closed-form count of H classes on one component.

    Odd k admits only constant patterns, so the Laplacian always has the
    all-ones class and the signless operator only the singleton scalar.
    For even k the H classes biject with the solutions of the modulus-2
    subsystem (exponents restricted to {0, k/2}), two solutions per class.
    """
    k = h.k
    if k % 2 == 1:
        if operator == LAPLACIAN:
            return 1
        return 1 if fc.singleton else 0
    sys = build_zero_eig_system(h, fc.component, operator)
    sub = ZkLinearSystem(
        2, sys.vertices, sys.rows, tuple(0 if operator == LAPLACIAN else 1 for _ in sys.rows)
    )
    desc = solve_mod_k(sub, fc.factorization)
    return desc.solution_count // 2 if desc.feasible else 0


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
    if h.k % 2 == 1:
        if operator == LAPLACIAN:
            return 1
        return 1 if singleton else 0
    if singleton:
        return 1
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


def _component_counts(h: Hypergraph, fc: FactoredComponent, operator: str) -> ComponentStructure:
    """Closed-form counts on one component; the cross-check is left unset."""
    desc = _solve(h, fc, operator)
    if desc is None or not desc.feasible:
        return ComponentStructure(fc.component, fc.singleton, False, 0, 0, 0, 0)
    classes = desc.solution_count // h.k
    h_count = _h_class_count(h, fc, operator)
    n_classes = classes - h_count
    if n_classes % 2:
        raise VerificationError(
            f"odd N class count {n_classes} on component {fc.component}: conjugate pairing broken"
        )
    return ComponentStructure(
        fc.component, fc.singleton, True, desc.solution_count, classes, h_count, n_classes // 2
    )


def _component_structure(
    h: Hypergraph, fc: FactoredComponent, operator: str, budget: int
) -> ComponentStructure:
    expected = _component_expected(h, fc.component, fc.singleton, operator, budget)
    counts = _component_counts(h, fc, operator)
    matched = None if expected is None else expected == counts.h_count
    return replace(counts, crosscheck_expected=expected, crosscheck_matched=matched)


def structure_counts(
    h: Hypergraph,
    operator: str,
    budget: int = DEFAULT_CROSSCHECK_BUDGET,
    factored: tuple[FactoredComponent, ...] | None = None,
) -> StructureCounts:
    """Closed-form per-component counts plus the combinatorial cross-check."""
    if operator not in ZERO_EIG_OPERATORS:
        raise ValueError(f"unknown operator {operator!r}")
    if factored is None:
        factored = factor_components(h)
    per_comp = tuple(_component_structure(h, fc, operator, budget) for fc in factored)
    h_total = sum(c.h_count for c in per_comp)
    n_total = sum(c.n_pair_count for c in per_comp)
    if any(c.crosscheck_expected is None for c in per_comp):
        expected, matched = None, None
    else:
        expected = sum(c.crosscheck_expected for c in per_comp)
        matched = all(c.crosscheck_matched for c in per_comp)
    return StructureCounts(
        operator, per_comp, h_total, n_total, expected, _crosscheck_formula(h, operator), matched
    )


def count_minimal_H(
    h: Hypergraph, operator: str, budget: int = DEFAULT_CROSSCHECK_BUDGET
) -> StructureCounts:
    """H class count with its cross-check report; the count is ``.h_count``.

    A cross-check mismatch is reported through ``crosscheck_matched``, never
    swallowed: callers decide whether a mismatch is fatal.
    """
    return structure_counts(h, operator, budget)


def count_N_pairs(h: Hypergraph, operator: str) -> int:
    """Number of conjugate N-class pairs over all components.

    Uses the closed-form solution counts; no enumeration and no partition
    scan. Pairing is total because no N class is self-conjugate.
    """
    if operator not in ZERO_EIG_OPERATORS:
        raise ValueError(f"unknown operator {operator!r}")
    return sum(_component_counts(h, fc, operator).n_pair_count for fc in factor_components(h))


def solution_export(
    h: Hypergraph, operator: str, limit: int | None = None
) -> list[dict]:
    """Per-component solution sets in the wire format.

    Each entry is {"k", "component", "rhs", "count", "classes"} with one
    {"alpha", "kind"} record per shift class (up to ``limit`` per
    component). Infeasible components report rhs None and count 0.
    """
    if operator not in ZERO_EIG_OPERATORS:
        raise ValueError(f"unknown operator {operator!r}")
    k = h.k
    out = []
    for cls_list, cs in _grouped_classes(h, operator, limit):
        entry = {
            "k": k,
            "component": list(cs.component),
            "rhs": (0 if operator == LAPLACIAN else k // 2) if cs.feasible else None,
            "count": cs.solution_count,
            "classes": [
                {"alpha": list(c.representative.values), "kind": c.kind} for c in cls_list
            ],
        }
        out.append(entry)
    return out


def _grouped_classes(h: Hypergraph, operator: str, limit: int | None):
    """(classes, ComponentStructure) pairs in component order."""
    factored = factor_components(h)
    counts = structure_counts(h, operator, factored=factored)
    out = []
    remaining = limit
    for fc, cs in zip(factored, counts.components):
        if not cs.feasible:
            out.append(([], cs))
            continue
        take = cs.class_count if remaining is None else min(cs.class_count, remaining)
        comp_classes = _component_classes(h, operator, fc, take)
        out.append((comp_classes, cs))
        if remaining is not None:
            remaining -= len(comp_classes)
    return out


def _component_classes(
    h: Hypergraph, operator: str, fc: FactoredComponent, max_classes: int | None = None
) -> list[EigenvectorClass]:
    desc = _solve(h, fc, operator)
    if desc is None or not desc.feasible:
        return []
    target = desc.solution_count // h.k
    if max_classes is not None:
        target = min(target, max_classes)
    if target <= 0:
        return []
    seen: dict[tuple[int, ...], ZkAssignment] = {}
    for sol in enumerate_solutions(desc):
        rep = shift_canonicalize(sol)
        if rep.values not in seen:
            seen[rep.values] = rep
            if len(seen) == target:
                break
    return [
        EigenvectorClass(operator, fc.component, rep, classify_H_or_N(rep), conjugate_assignment(rep))
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
    residue = 0 if cls.operator == LAPLACIAN else k // 2
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
    ``enumerate_limit`` per component; counts always come from the closed
    form, so a truncated listing is detectable by comparing lengths.
    """
    if factored is None:
        factored = factor_components(h)
    counts = structure_counts(h, operator, budget, factored)
    classes = minimal_zero_eigenvectors(h, operator, enumerate_limit, factored)
    by_comp: dict[tuple[int, ...], list[EigenvectorClass]] = {}
    for c in classes:
        by_comp.setdefault(c.component, []).append(c)

    components = []
    for cs in counts.components:
        entry = {
            "vertices": list(cs.component),
            "operator": operator,
            "singleton": cs.singleton,
            "feasible": cs.feasible,
            "rhs": None if not cs.feasible else (0 if operator == LAPLACIAN else h.k // 2),
            "count": cs.solution_count,
            "class_count": cs.class_count,
            "H_count": cs.h_count,
            "N_pair_count": cs.n_pair_count,
            "crosscheck": {
                "expected": cs.crosscheck_expected,
                "matched": cs.crosscheck_matched,
            },
        }
        if not cs.feasible and h.k % 2 == 1 and operator == SIGNLESS and not cs.singleton:
            entry["reason"] = ODD_SIGNLESS_REASON
        listed = by_comp.get(cs.component, [])
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
