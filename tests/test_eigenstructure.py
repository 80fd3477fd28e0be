import random

import numpy as np
import pytest

from zerolap import Hypergraph
from zerolap.corpus import (
    mixed_corpus,
    random_hypergraph,
    with_isolated_vertices,
)
from zerolap import connected_components, load_hypergraph
from zerolap.eigenstructure import (
    crosscheck,
    realize_classes,
    solve_components,
    zero_eigenvector_report,
)

import oracles
from conftest import FIXTURE_DIR, single_edge


def _report(h, operator, **kwargs):
    return zero_eigenvector_report(h, solve_components(h)[operator], **kwargs)


def _classes(h, operator, limit=None):
    """(component, alpha, kind) of every listed class of the report, in order."""
    report = _report(h, operator, enumerate_limit=limit)
    return [
        (tuple(entry["vertices"]), tuple(c["alpha"]), c["kind"])
        for entry in report["components"]
        for c in entry["classes"]
    ]


def _n_pairs(h, operator):
    return solve_components(h)[operator].n_pair_count


ONE_FACTORIZATION_CASES = [
    pytest.param(load_hypergraph(FIXTURE_DIR / "k4_overlap_n6.json"), id="k4_overlap"),
    pytest.param(load_hypergraph(FIXTURE_DIR / "k3_chain_n7.json"), id="k3_chain"),
    pytest.param(Hypergraph(4, 9, ((1, 2, 3, 4), (5, 6, 7, 8))), id="k4_two_edges_and_singleton"),
    pytest.param(Hypergraph(2, 6, ((1, 2), (2, 3), (3, 1), (4, 5))), id="k2_triangle_edge_and_singleton"),
]


def _eliminations_per_run(h):
    """Moduli of the eliminations one pass should make: one modulo k per
    non-singleton component, serving both operators, then one modulo 2
    for the H counts when k is even (the same one when k = 2)."""
    per_component = [h.k, 2] if h.k % 2 == 0 and h.k > 2 else [h.k]
    return per_component * sum(not s for s in connected_components(h).singleton)


class TestOneFactorizationPerComponent:
    @pytest.mark.parametrize("h", ONE_FACTORIZATION_CASES)
    def test_shared_across_operators(self, h, eliminations):
        solved = solve_components(h)
        for operator in ("laplacian", "signless"):
            zero_eigenvector_report(h, solved[operator])
            crosscheck(h, solved[operator], 200_000)
        assert eliminations == _eliminations_per_run(h)

    @pytest.mark.parametrize("h", ONE_FACTORIZATION_CASES)
    def test_one_solve_per_component_and_operator(self, h, solve_calls):
        """Each non-singleton component solves each operator's residue once
        modulo k (odd k: the Laplacian only), and each feasible one once
        more modulo 2 when k is even; singletons solve nothing."""
        decomp = connected_components(h)
        comps = [c for c, single in zip(decomp.components, decomp.singleton) if not single]
        expected = []
        for comp in comps:
            edges = [e for e in h.edges if e[0] in comp]
            for rhs in [0] if h.k % 2 else [0, h.k // 2]:
                expected.append((h.k, rhs))
                if h.k % 2 == 0 and oracles.edge_sum_solutions(h.k, comp, edges, rhs):
                    expected.append((2, rhs // (h.k // 2)))
        solved = solve_components(h)
        for operator in ("laplacian", "signless"):
            zero_eigenvector_report(h, solved[operator])
        assert sorted(solve_calls) == sorted(expected)

    @pytest.mark.parametrize("h", ONE_FACTORIZATION_CASES)
    def test_h_counts_by_elimination_not_scans(
        self, h, bipartition_scans, elimination_orders, residue_counts
    ):
        """For even k both operators' cross-checks read one elimination
        order of each non-singleton component and one count per parity
        (maps into {0, k/2}); odd k counts nothing here, and no bipartition
        is scanned."""
        decomp = connected_components(h)
        solved = solve_components(h, decomp)
        comps = [c for c, single in zip(decomp.components, decomp.singleton) if not single]
        half = h.k // 2
        assert bipartition_scans == []
        if h.k % 2:
            assert elimination_orders == residue_counts == []
        else:
            assert elimination_orders == [len(c) for c in comps]
            assert residue_counts == [(len(c), r, (0, half)) for c in comps for r in (0, half)]
        assert solved == solve_components(h)


class TestMinimalClasses:
    def test_chain_class_inventory(self, chain):
        kinds = [kind for _, _, kind in _classes(chain, "laplacian")]
        assert len(kinds) == 27
        assert kinds.count("H") == 1
        assert kinds.count("N") == 26

    def test_k4_h_classes(self, k4_overlap):
        assert sum(kind == "H" for _, _, kind in _classes(k4_overlap, "laplacian")) == 4

    def test_single_edge_k3_signless_empty(self):
        assert _classes(single_edge(3), "signless") == []

    def test_full_support_on_component(self, chain):
        for comp, alpha, _ in _classes(chain, "laplacian"):
            assert len(alpha) == len(comp)

    def test_representatives_are_canonical_and_distinct(self, chain):
        reps = {alpha for _, alpha, _ in _classes(chain, "laplacian")}
        assert len(reps) == 27
        assert all(values[0] == 0 for values in reps)

    def test_h_classes_self_conjugate_n_classes_paired(self, chain):
        classes = _classes(chain, "laplacian")
        reps = {alpha for _, alpha, _ in classes}
        for _, alpha, kind in classes:
            conj = tuple((-v) % 3 for v in alpha)
            assert (conj == alpha) == (kind == "H")
            assert conj in reps

    def test_class_limit_truncates(self, chain):
        assert len(_classes(chain, "laplacian", limit=5)) == 5

    def test_singleton_contributes_scalar_class(self):
        h = with_isolated_vertices(single_edge(3), 1)
        assert _classes(h, "signless") == [((4,), (0,), "H")]


class TestHCounts:
    def test_k4_laplacian_count_and_crosscheck(self, k4_overlap):
        rep = solve_components(k4_overlap)["laplacian"]
        assert rep.h_count == 4
        assert rep.crosscheck_expected == 4  # 3 even-bipartitions + 1 component - 0 singletons
        assert rep.crosscheck_matched is True

    def test_chain_laplacian_single_class(self, chain):
        rep = solve_components(chain)["laplacian"]
        assert rep.h_count == 1
        assert rep.crosscheck_matched is True

    def test_edgeless_signless_counts_singletons(self):
        rep = solve_components(Hypergraph(3, 3, ()))["signless"]
        assert rep.h_count == 3
        assert rep.crosscheck_expected == 3
        assert rep.crosscheck_matched is True

    def test_k4_signless_odd_bipartitions(self, k4_overlap):
        rep = solve_components(k4_overlap)["signless"]
        assert rep.h_count == 4
        assert rep.crosscheck_matched is True

    def test_undecided_component_leaves_the_sum_undecided(self):
        """Under budget 16 the second component's counter table is refused:
        it has no expectation, so neither has either operator's sum, while
        the other components keep theirs. Budget 64 decides all three."""
        h = Hypergraph(4, 13, (
            (1, 2, 3, 4), (5, 6, 7, 8), (6, 7, 8, 9), (5, 7, 9, 10),
            (5, 6, 9, 10), (8, 9, 10, 11), (5, 8, 11, 12),
        ))  # fmt: skip
        for budget, per_component, expected, matched in [
            (16, [4, None, 1], None, None),
            (64, [4, 2, 1], 7, True),
        ]:
            for rep in solve_components(h, budget=budget).values():
                assert [c.crosscheck_expected for c in rep.components] == per_component
                assert rep.h_count == 7
                assert rep.crosscheck_expected == expected
                assert rep.crosscheck_matched is matched


class TestNPairs:
    def test_single_edge_k3(self):
        assert _n_pairs(single_edge(3), "laplacian") == 1

    def test_chain_thirteen_pairs(self, chain):
        assert _n_pairs(chain, "laplacian") == 13

    def test_single_edge_k3_signless_zero(self):
        assert _n_pairs(single_edge(3), "signless") == 0

    def test_k4_six_pairs_each_operator(self, k4_overlap):
        assert _n_pairs(k4_overlap, "laplacian") == 6
        assert _n_pairs(k4_overlap, "signless") == 6


class TestRealization:
    def test_constant_class_has_zero_residual(self, chain):
        ones = np.zeros((1, 7), dtype=np.int64)
        assert realize_classes(chain, "laplacian", tuple(range(1, 8)), ones).tolist() == [0.0]

    def test_every_chain_class_verifies(self, chain):
        report = _report(chain, "laplacian")
        assert all(c["residual"] <= 1e-12 for c in report["components"][0]["classes"])

    def test_singleton_class_has_zero_residual(self):
        h = with_isolated_vertices(single_edge(3), 1)
        scalar = np.zeros((1, 1), dtype=np.int64)
        assert realize_classes(h, "signless", (4,), scalar).tolist() == [0.0]


def _brute_component_counts(h, operator):
    """Oracle totals over the whole instance, component by component."""
    comps = oracles.component_split(h.n, h.edges)
    rhs = 0 if operator == "laplacian" else h.k // 2
    total_h = total_pairs = 0
    per_comp = []
    for comp in comps:
        edges = [e for e in h.edges if set(e) <= set(comp)]
        if operator == "signless" and h.k % 2 and edges:
            per_comp.append((comp, 0, 0, 0))
            continue
        count, classes, h_cls, pairs = oracles.class_inventory(
            h.k, comp, edges, rhs if edges else 0
        )
        total_h += h_cls
        total_pairs += pairs
        per_comp.append((comp, count, h_cls, pairs))
    return total_h, total_pairs, per_comp


@pytest.mark.parametrize("operator", ["laplacian", "signless"])
def test_counts_match_brute_force_on_corpus(operator):
    for h in mixed_corpus(seed=11):
        if h.k ** max(len(c) for c in oracles.component_split(h.n, h.edges)) > 60_000:
            continue  # keep the unit suite fast; acceptance covers the full corpus
        expected_h, expected_pairs, per_comp = _brute_component_counts(h, operator)
        rep = solve_components(h)[operator]
        assert rep.h_count == expected_h
        assert rep.n_pair_count == expected_pairs
        for cs, (comp, count, h_cls, pairs) in zip(rep.components, per_comp):
            assert cs.component == comp
            assert cs.solution_count == count
            assert cs.h_count == h_cls
            assert cs.n_pair_count == pairs


def test_crosschecks_hold_on_200_random_instances():
    rng = random.Random(300)
    for _ in range(200):
        k = rng.choice([2, 3, 4, 5])
        n = rng.randint(k, 9)
        h = random_hypergraph(rng, k, n, rng.randint(0, 5))
        for operator, rep in solve_components(h).items():
            assert rep.crosscheck_matched is True, (
                f"k={k} n={n} edges={h.edges} op={operator}: algebra says "
                f"{rep.h_count}, partitions say {rep.crosscheck_expected} "
                f"({rep.crosscheck_formula})"
            )


class TestClassicGraphSanity:
    """k = 2 reduces to ordinary graphs, where the zero-eigenvalue counts
    are textbook facts: Laplacian kernel dimension is the component count,
    signless Laplacian kernel dimension is the bipartite component count."""

    def test_path_graph(self):
        path = Hypergraph(2, 3, ((1, 2), (2, 3)))
        solved = solve_components(path)
        assert solved["laplacian"].h_count == 1
        assert solved["signless"].h_count == 1  # bipartite

    def test_odd_cycle(self):
        triangle = Hypergraph(2, 3, ((1, 2), (2, 3), (1, 3)))
        solved = solve_components(triangle)
        assert solved["laplacian"].h_count == 1
        assert solved["signless"].h_count == 0  # odd cycle

    def test_even_cycle(self):
        square = Hypergraph(2, 4, ((1, 2), (2, 3), (3, 4), (1, 4)))
        assert solve_components(square)["signless"].h_count == 1

    def test_no_n_classes_for_graphs(self):
        triangle = Hypergraph(2, 3, ((1, 2), (2, 3), (1, 3)))
        assert _n_pairs(triangle, "laplacian") == 0
        assert _n_pairs(triangle, "signless") == 0


def test_pairing_is_perfect_matching_on_small_instances(chain):
    for h in [chain, single_edge(3), single_edge(4), single_edge(5)]:
        for operator in ("laplacian", "signless"):
            classes = _classes(h, operator)
            n_reps = {alpha for _, alpha, kind in classes if kind == "N"}
            for _, alpha, kind in classes:
                if kind != "N":
                    continue
                partner = oracles.shift_min(tuple((-v) % h.k for v in alpha), h.k)
                assert partner != alpha
                assert partner in n_reps


def test_report_shape(chain):
    report = _report(chain, "laplacian", enumerate_limit=30)
    assert report["H_count"] == 1
    assert report["N_pair_count"] == 13
    comp = report["components"][0]
    assert comp["class_count"] == 27
    assert len(comp["classes"]) == 27
    assert comp["truncated"] is False
    assert all(c["residual"] <= 1e-9 for c in comp["classes"])
    assert comp["crosscheck"] == {"expected": 1, "matched": True}
    assert set(comp) >= {"vertices", "operator", "H_count", "N_pair_count", "crosscheck"}


def test_report_singleton_and_infeasible_entries(chain):
    h = with_isolated_vertices(chain, 1)
    comp_entry, singleton_entry = _report(h, "laplacian")["components"]
    assert comp_entry["rhs"] == 0
    assert comp_entry["count"] == 81
    assert len(comp_entry["classes"]) == 27
    assert singleton_entry["vertices"] == [8]
    assert singleton_entry["count"] == 3
    assert singleton_entry["classes"] == [{"alpha": [0], "kind": "H", "residual": 0.0}]

    (entry,) = _report(single_edge(3), "signless")["components"]
    assert entry["rhs"] is None
    assert entry["count"] == 0
    assert entry["classes"] == []


def test_report_limit(chain):
    (entry,) = _report(chain, "laplacian", enumerate_limit=5)["components"]
    assert entry["count"] == 81
    assert len(entry["classes"]) == 5

    # The limit caps the total across components, in component order.
    two = Hypergraph(3, 6, ((1, 2, 3), (4, 5, 6)))
    report = _report(two, "laplacian", enumerate_limit=4)
    assert [len(c["classes"]) for c in report["components"]] == [3, 1]
    assert [c["truncated"] for c in report["components"]] == [False, True]
