import random

import numpy as np
import pytest

from zerolap import (
    Hypergraph,
    count_N_pairs,
    minimal_zero_eigenvectors,
    realize_complex,
)
from zerolap.corpus import (
    mixed_corpus,
    random_hypergraph,
    with_isolated_vertices,
)
from zerolap import connected_components, load_hypergraph, structure_counts
from zerolap.eigenstructure import factor_components, zero_eigenvector_report
from zerolap.zk_solver import build_zero_eig_system, conjugate_assignment, solve_mod_k

import oracles
from conftest import FIXTURE_DIR, single_edge


ONE_FACTORIZATION_CASES = [
    pytest.param(load_hypergraph(FIXTURE_DIR / "k4_overlap_n6.json"), id="k4_overlap"),
    pytest.param(load_hypergraph(FIXTURE_DIR / "k3_chain_n7.json"), id="k3_chain"),
    pytest.param(Hypergraph(4, 9, ((1, 2, 3, 4), (5, 6, 7, 8))), id="k4_two_edges_and_singleton"),
]


class TestOneFactorizationPerComponent:
    @pytest.mark.parametrize("h", ONE_FACTORIZATION_CASES)
    def test_shared_across_operators(self, h, snf_calls):
        factored = factor_components(h)
        for operator in ("laplacian", "signless"):
            zero_eigenvector_report(h, operator, factored=factored)
            structure_counts(h, operator, factored=factored)
        assert len(snf_calls) == sum(not s for s in connected_components(h).singleton)

    @pytest.mark.parametrize("call", [zero_eigenvector_report, structure_counts, count_N_pairs])
    @pytest.mark.parametrize("h", ONE_FACTORIZATION_CASES)
    def test_one_per_component_per_call(self, h, call, snf_calls):
        call(h, "laplacian")
        assert len(snf_calls) == sum(not s for s in connected_components(h).singleton)

    @pytest.mark.parametrize("h", ONE_FACTORIZATION_CASES)
    def test_one_solve_per_component_and_operator(self, h, solve_calls):
        systems = [
            build_zero_eig_system(h, comp, operator)
            for operator in ("laplacian", "signless")
            for comp in connected_components(h).components
        ]
        systems = [sys for sys in systems if sys is not None]
        feasible_even = sum(h.k % 2 == 0 and solve_mod_k(sys).feasible for sys in systems)
        solve_calls.clear()
        factored = factor_components(h)
        for operator in ("laplacian", "signless"):
            zero_eigenvector_report(h, operator, factored=factored)
        moduli = [sys.modulus for sys in solve_calls]
        assert moduli.count(h.k) == len(systems)
        assert moduli.count(2) == feasible_even
        assert len(moduli) == len(systems) + feasible_even

    def test_foreign_factorization_rejected(self, chain, k4_overlap):
        with pytest.raises(ValueError, match="different coefficient matrix"):
            structure_counts(k4_overlap, "laplacian", factored=factor_components(chain))


class TestMinimalClasses:
    def test_chain_class_inventory(self, chain):
        classes = minimal_zero_eigenvectors(chain, "laplacian")
        assert len(classes) == 27
        kinds = [c.kind for c in classes]
        assert kinds.count("H") == 1
        assert kinds.count("N") == 26

    def test_k4_h_classes(self, k4_overlap):
        classes = minimal_zero_eigenvectors(k4_overlap, "laplacian")
        assert sum(1 for c in classes if c.kind == "H") == 4

    def test_single_edge_k3_signless_empty(self):
        assert minimal_zero_eigenvectors(single_edge(3), "signless") == []

    def test_full_support_on_component(self, chain):
        for c in minimal_zero_eigenvectors(chain, "laplacian"):
            assert c.representative.vertices == c.component

    def test_representatives_are_canonical_and_distinct(self, chain):
        classes = minimal_zero_eigenvectors(chain, "laplacian")
        reps = {c.representative.values for c in classes}
        assert len(reps) == 27
        assert all(values[0] == 0 for values in reps)

    def test_h_classes_self_conjugate_n_classes_paired(self, chain):
        classes = minimal_zero_eigenvectors(chain, "laplacian")
        reps = {c.representative.values for c in classes}
        for c in classes:
            if c.kind == "H":
                assert c.conjugate == c.representative
            else:
                assert c.conjugate != c.representative
                assert c.conjugate.values in reps

    def test_class_limit_truncates(self, chain):
        classes = minimal_zero_eigenvectors(chain, "laplacian", max_classes=5)
        assert len(classes) == 5

    def test_singleton_contributes_scalar_class(self):
        h = with_isolated_vertices(single_edge(3), 1)
        classes = minimal_zero_eigenvectors(h, "signless")
        assert len(classes) == 1
        assert classes[0].component == (4,)
        assert classes[0].kind == "H"
        assert classes[0].representative.values == (0,)


class TestHCounts:
    def test_k4_laplacian_count_and_crosscheck(self, k4_overlap):
        rep = structure_counts(k4_overlap, "laplacian")
        assert rep.h_count == 4
        assert rep.crosscheck_expected == 4  # 3 even-bipartitions + 1 component - 0 singletons
        assert rep.crosscheck_matched is True

    def test_chain_laplacian_single_class(self, chain):
        rep = structure_counts(chain, "laplacian")
        assert rep.h_count == 1
        assert rep.crosscheck_matched is True

    def test_edgeless_signless_counts_singletons(self):
        rep = structure_counts(Hypergraph(3, 3, ()), "signless")
        assert rep.h_count == 3
        assert rep.crosscheck_expected == 3
        assert rep.crosscheck_matched is True

    def test_k4_signless_odd_bipartitions(self, k4_overlap):
        rep = structure_counts(k4_overlap, "signless")
        assert rep.h_count == 4
        assert rep.crosscheck_matched is True

    def test_unknown_operator_rejected(self, chain):
        with pytest.raises(ValueError):
            structure_counts(chain, "adjacency")


class TestNPairs:
    def test_single_edge_k3(self):
        assert count_N_pairs(single_edge(3), "laplacian") == 1

    def test_chain_thirteen_pairs(self, chain):
        assert count_N_pairs(chain, "laplacian") == 13

    def test_single_edge_k3_signless_zero(self):
        assert count_N_pairs(single_edge(3), "signless") == 0

    def test_k4_six_pairs_each_operator(self, k4_overlap):
        assert count_N_pairs(k4_overlap, "laplacian") == 6
        assert count_N_pairs(k4_overlap, "signless") == 6


class TestRealization:
    def test_constant_class_realizes_to_ones(self, chain):
        classes = minimal_zero_eigenvectors(chain, "laplacian")
        constant = next(c for c in classes if c.kind == "H")
        pair = realize_complex(chain, constant)
        assert np.allclose(pair.vector, np.ones(7))
        assert pair.residual == 0.0

    def test_every_chain_class_verifies(self, chain):
        for c in minimal_zero_eigenvectors(chain, "laplacian"):
            pair = realize_complex(chain, c)
            assert pair.residual <= 1e-12

    def test_singleton_class_is_unit_coordinate(self):
        h = with_isolated_vertices(single_edge(3), 1)
        cls = minimal_zero_eigenvectors(h, "signless")[0]
        pair = realize_complex(h, cls)
        assert np.allclose(pair.vector, [0, 0, 0, 1])

    def test_support_matches_component(self, k4_overlap):
        h = with_isolated_vertices(k4_overlap, 1)
        for c in minimal_zero_eigenvectors(h, "laplacian"):
            pair = realize_complex(h, c)
            support = {i + 1 for i in np.flatnonzero(np.abs(pair.vector) > 0)}
            assert support == set(c.component)


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
        rep = structure_counts(h, operator)
        assert rep.h_count == expected_h
        assert count_N_pairs(h, operator) == expected_pairs
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
        for operator in ("laplacian", "signless"):
            rep = structure_counts(h, operator)
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
        assert structure_counts(path, "laplacian").h_count == 1
        assert structure_counts(path, "signless").h_count == 1  # bipartite

    def test_odd_cycle(self):
        triangle = Hypergraph(2, 3, ((1, 2), (2, 3), (1, 3)))
        assert structure_counts(triangle, "laplacian").h_count == 1
        assert structure_counts(triangle, "signless").h_count == 0  # odd cycle

    def test_even_cycle(self):
        square = Hypergraph(2, 4, ((1, 2), (2, 3), (3, 4), (1, 4)))
        assert structure_counts(square, "signless").h_count == 1

    def test_no_n_classes_for_graphs(self):
        triangle = Hypergraph(2, 3, ((1, 2), (2, 3), (1, 3)))
        assert count_N_pairs(triangle, "laplacian") == 0
        assert count_N_pairs(triangle, "signless") == 0


def test_pairing_is_perfect_matching_on_small_instances(chain):
    for h in [chain, single_edge(3), single_edge(4), single_edge(5)]:
        for operator in ("laplacian", "signless"):
            classes = minimal_zero_eigenvectors(h, operator)
            n_reps = {c.representative.values for c in classes if c.kind == "N"}
            for c in classes:
                if c.kind != "N":
                    continue
                partner = conjugate_assignment(c.representative)
                assert partner.values != c.representative.values
                assert partner.values in n_reps


def test_report_shape(chain):
    report = zero_eigenvector_report(chain, "laplacian", enumerate_limit=30)
    assert report["H_count"] == 1
    assert report["N_pair_count"] == 13
    comp = report["components"][0]
    assert comp["class_count"] == 27
    assert len(comp["classes"]) == 27
    assert comp["truncated"] is False
    assert all(c["residual"] <= 1e-9 for c in comp["classes"])
    assert comp["crosscheck"] == {"expected": 1, "matched": True}
    assert set(comp) >= {"vertices", "operator", "H_count", "N_pair_count", "crosscheck"}


def test_solution_export_schema(chain):
    from zerolap import solution_export

    h = with_isolated_vertices(chain, 1)
    (comp_entry, singleton_entry) = solution_export(h, "laplacian")
    assert set(comp_entry) == {"k", "component", "rhs", "count", "classes"}
    assert comp_entry["k"] == 3
    assert comp_entry["component"] == list(range(1, 8))
    assert comp_entry["rhs"] == 0
    assert comp_entry["count"] == 81
    assert len(comp_entry["classes"]) == 27
    assert all(set(c) == {"alpha", "kind"} for c in comp_entry["classes"])
    assert singleton_entry["component"] == [8]
    assert singleton_entry["count"] == 3
    assert singleton_entry["classes"] == [{"alpha": [0], "kind": "H"}]


def test_solution_export_infeasible_component():
    from zerolap import solution_export

    (entry,) = solution_export(single_edge(3), "signless")
    assert entry["rhs"] is None
    assert entry["count"] == 0
    assert entry["classes"] == []


def test_solution_export_limit(chain):
    from zerolap import solution_export

    (entry,) = solution_export(chain, "laplacian", limit=5)
    assert entry["count"] == 81
    assert len(entry["classes"]) == 5

    # The limit caps the total across components, in component order.
    two = Hypergraph(3, 6, ((1, 2, 3), (4, 5, 6)))
    assert [len(e["classes"]) for e in solution_export(two, "laplacian", limit=4)] == [3, 1]
    report = zero_eigenvector_report(two, "laplacian", enumerate_limit=4)
    assert [len(c["classes"]) for c in report["components"]] == [3, 1]
    assert [c["truncated"] for c in report["components"]] == [False, True]
