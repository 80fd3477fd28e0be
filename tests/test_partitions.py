import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerolap import (
    BudgetExceededError,
    BipartitionWitness,
    Hypergraph,
    MultipartitionWitness,
    discrepancy_scan,
    enumerate_bipartitions,
    enumerate_multipartitions,
    find_hm_bipartition,
    structure_counts,
    validate_bipartition,
    validate_multipartition,
)
from zerolap import partitions
from zerolap.corpus import (
    mixed_corpus,
    random_connected_hypergraph,
    random_hm_bipartite,
    random_hypergraph,
)
from zerolap.eigenstructure import zero_eigenvector_report
from zerolap.hypergraph import connected_components

from conftest import single_edge
from oracles import (
    assignment_from_partition,
    bipartition_witnesses,
    hm_bipartition_dfs,
    multipartition_witnesses,
    partition_from_assignment,
)

CHAIN_COMPONENT = tuple(range(1, 8))
K4_COMPONENT = tuple(range(1, 7))


class TestValidateBipartition:
    def test_k4_even_witness_valid(self, k4_overlap):
        w = BipartitionWitness(K4_COMPONENT, (1, 2, 5), (3, 4, 6), "even")
        assert validate_bipartition(k4_overlap, w)

    def test_single_edge_hm_head(self):
        w = BipartitionWitness((1, 2, 3), (1,), (2, 3), "hm")
        assert validate_bipartition(single_edge(3), w)

    def test_k4_single_vertex_not_even(self, k4_overlap):
        w = BipartitionWitness(K4_COMPONENT, (1,), (2, 3, 4, 5, 6), "even")
        assert not validate_bipartition(k4_overlap, w)

    def test_non_partition_rejected(self, k4_overlap):
        w = BipartitionWitness(K4_COMPONENT, (1, 2), (2, 3, 4, 5, 6), "even")
        with pytest.raises(ValueError):
            validate_bipartition(k4_overlap, w)

    def test_trivial_component_vacuously_valid(self):
        h = Hypergraph(3, 4, ((1, 2, 3),))
        w = BipartitionWitness((4,), (4,), (), "odd")
        assert validate_bipartition(h, w)


class TestEnumerateBipartitions:
    def test_k4_even_exactly_three(self, k4_overlap):
        found = {
            frozenset((frozenset(w.v1), frozenset(w.v2)))
            for w in enumerate_bipartitions(k4_overlap, K4_COMPONENT)["even"]
        }
        expected = {
            frozenset((frozenset({1, 2, 5}), frozenset({3, 4, 6}))),
            frozenset((frozenset({2, 3, 5}), frozenset({1, 4, 6}))),
            frozenset((frozenset({1, 3}), frozenset({2, 4, 5, 6}))),
        }
        assert found == expected

    def test_single_edge_k4_odd_four(self):
        found = enumerate_bipartitions(single_edge(4), (1, 2, 3, 4))["odd"]
        assert len(found) == 4

    def test_single_edge_k4_even_three(self):
        found = enumerate_bipartitions(single_edge(4), (1, 2, 3, 4))["even"]
        assert len(found) == 3

    def test_hm_is_ordered_not_quotiented(self):
        found = enumerate_bipartitions(single_edge(3), (1, 2, 3))["hm"]
        assert [w.v1 for w in found] == [(1,), (2,), (3,)]

    def test_all_witnesses_validate(self, k4_overlap):
        for flavor in ("hm", "odd", "even"):
            for w in enumerate_bipartitions(k4_overlap, K4_COMPONENT)[flavor]:
                assert validate_bipartition(k4_overlap, w)

    def test_budget_guard(self, k4_overlap):
        with pytest.raises(BudgetExceededError):
            enumerate_bipartitions(k4_overlap, K4_COMPONENT, budget=8)


@st.composite
def bipartition_instances(draw):
    """A small k-uniform hypergraph, k in 2..5, and a vertex subset to scan."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k, k + 6))
    edge = st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
    edges = draw(st.lists(edge.map(lambda e: tuple(sorted(e))), max_size=6, unique=True))
    component = draw(st.lists(st.integers(1, n), min_size=1, unique=True))
    return Hypergraph(k, n, tuple(edges)), tuple(component)


class TestBipartitionScanAgainstOracle:
    """The one-pass scan against the former per-flavor scan, order included."""

    @settings(max_examples=80, deadline=None)
    @given(bipartition_instances())
    def test_every_flavor(self, instance):
        h, component = instance
        found = enumerate_bipartitions(h, component)
        assert list(found) == list(partitions.BIPARTITION_FLAVORS)
        for flavor, witnesses in found.items():
            assert witnesses == bipartition_witnesses(h, component, flavor), flavor

    def test_budget_equal_to_scan_size_scans(self, k4_overlap):
        at_edge = enumerate_bipartitions(k4_overlap, K4_COMPONENT, budget=2**6)
        assert at_edge == enumerate_bipartitions(k4_overlap, K4_COMPONENT)

    def test_budget_one_short_refuses_before_any_work(self, k4_overlap, monkeypatch):
        def no_work(*args):
            raise AssertionError("scanned past the budget")

        monkeypatch.setattr(partitions, "induced_subhypergraph", no_work)
        with pytest.raises(BudgetExceededError, match=r"2\^6 subsets, budget is 63"):
            enumerate_bipartitions(k4_overlap, K4_COMPONENT, budget=2**6 - 1)


class TestFindHm:
    def test_single_edge_lowest_head(self):
        w = find_hm_bipartition(single_edge(3), (1, 2, 3))
        assert w.v1 == (1,)

    def test_shared_head(self):
        h = Hypergraph(3, 5, ((1, 2, 3), (1, 4, 5)))
        w = find_hm_bipartition(h, (1, 2, 3, 4, 5))
        assert w.v1 == (1,)

    def test_complete_k3_on_four_has_none(self, k3_complete4):
        assert find_hm_bipartition(k3_complete4, (1, 2, 3, 4)) is None

    def test_chain_witness_validates(self, chain):
        w = find_hm_bipartition(chain, CHAIN_COMPONENT)
        assert w is not None
        assert validate_bipartition(chain, w)

    def test_trivial_component_gets_vacuous_witness(self):
        h = Hypergraph(3, 4, ((1, 2, 3),))
        w = find_hm_bipartition(h, (4,))
        assert w.v1 == ()

    @pytest.mark.parametrize("seed", range(8))
    def test_search_agrees_with_exhaustive_scan(self, seed):
        rng = random.Random(700 + seed)
        k = rng.choice([3, 4])
        n = rng.randint(k, 8)
        h = random_hypergraph(rng, k, n, rng.randint(1, 5))
        comp = tuple(range(1, n + 1))
        edges = h.edges
        exists = any(
            all(len(set(chosen) & set(e)) == 1 for e in edges)
            for r in range(1, n + 1)
            for chosen in itertools.combinations(range(1, n + 1), r)
        )
        w = find_hm_bipartition(h, comp)
        if exists:
            assert w is not None
            assert all(len(set(w.v1) & set(e)) == 1 for e in edges)
        else:
            assert w is None


def _hard_hm_instance(seed):
    """The shape on which the recursive search backtracks for 0.1-0.4 s."""
    h, _ = random_hm_bipartite(random.Random(seed), 3, 130, 30, 20)
    return h


def _loose_path(edge_count):
    return Hypergraph(
        3, 2 * edge_count + 1, tuple((2 * i + 1, 2 * i + 2, 2 * i + 3) for i in range(edge_count))
    )


@st.composite
def hm_search_instances(draw):
    """Head-mass bipartite instances, which always have a witness, and
    random k-uniform ones, which often have none."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.sampled_from([3, 4, 5]))
    if draw(st.booleans()):
        h, _ = random_hm_bipartite(
            rng, k, rng.randint(1, 12), k - 1 + rng.randint(0, 10), rng.randint(0, 15)
        )
    else:
        h = random_hypergraph(rng, k, rng.randint(k, 12), rng.randint(1, 14))
    return h


class TestHmSearchAgainstRecursiveOracle:
    @settings(max_examples=150, deadline=None)
    @given(hm_search_instances())
    def test_same_witness_or_both_none(self, h):
        for comp in connected_components(h).components:
            w = find_hm_bipartition(h, comp)
            ref = hm_bipartition_dfs(h, comp)
            assert (w is None) == (ref is None)
            if w is not None:
                assert (w.v1, w.v2) == (ref.v1, ref.v2)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_hard_instance_witness_pinned_within_two_trials_per_edge(self, seed):
        h = _hard_hm_instance(seed)
        comp = tuple(range(1, h.n + 1))
        # at most 2|E| - 1 head trials over both passes, or this raises
        w = find_hm_bipartition(h, comp, budget=2 * h.edge_count - 1)
        assert w == hm_bipartition_dfs(h, comp)

    def test_budget_counts_head_trials(self):
        """Every edge takes at least one trial, so |E| - 1 cannot suffice."""
        h = _hard_hm_instance(0)
        with pytest.raises(BudgetExceededError, match="more than 149 head trials"):
            find_hm_bipartition(h, range(1, h.n + 1), budget=h.edge_count - 1)

    def test_long_loose_path_needs_no_recursion(self):
        h = _loose_path(3000)
        comp = tuple(range(1, h.n + 1))
        assert h.edge_count > sys.getrecursionlimit()
        w = find_hm_bipartition(h, comp)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)  # the oracle recurses once per edge
        try:
            ref = hm_bipartition_dfs(h, comp)
        finally:
            sys.setrecursionlimit(limit)
        assert w == ref


class TestHmSearchElimination:
    """The search eliminates only at its first dead end, once, modulo the
    least prime above k."""

    def test_hard_instance_eliminates_once_modulo_five(self, eliminations):
        h = _hard_hm_instance(0)
        assert find_hm_bipartition(h, range(1, h.n + 1)) is not None
        assert eliminations == [5]  # k = 3

    def test_loose_path_never_eliminates(self, eliminations):
        h = _loose_path(3000)
        assert find_hm_bipartition(h, range(1, h.n + 1)) is not None
        assert eliminations == []


class TestValidateMultipartition:
    def test_listed_chain_tripartitions(self, chain):
        listed = [
            ((1,), (2,), (3, 4, 5, 6, 7)),
            ((1, 2, 3), (4,), (5, 6, 7)),
            ((1, 2, 3, 4, 5), (6,), (7,)),
        ]
        for parts in listed:
            w = MultipartitionWitness(CHAIN_COMPONENT, parts, "tripartite")
            assert validate_multipartition(chain, w, "literal")
            assert validate_multipartition(chain, w, "residue")

    def test_interleaved_tripartition_valid(self, chain):
        w = MultipartitionWitness(
            CHAIN_COMPONENT, ((1, 4, 7), (2, 5), (3, 6)), "tripartite"
        )
        assert validate_multipartition(chain, w, "literal")

    def test_single_k4_edge_split_into_four_fails_lquad(self):
        w = MultipartitionWitness((1, 2, 3, 4), ((1,), (2,), (3,), (4,)), "lquad")
        h = single_edge(4)
        assert not validate_multipartition(h, w, "literal")
        assert not validate_multipartition(h, w, "residue")  # 0+1+2+3 = 6, not 0 mod 4

    def test_single_k4_edge_split_into_four_passes_slquad(self):
        w = MultipartitionWitness((1, 2, 3, 4), ((1,), (2,), (3,), (4,)), "slquad")
        h = single_edge(4)
        assert validate_multipartition(h, w, "literal")
        assert validate_multipartition(h, w, "residue")  # sum 6 == 2 mod 4

    def test_empty_part_count_constraint(self, chain):
        w = MultipartitionWitness(
            CHAIN_COMPONENT, ((1, 2, 3, 4, 5, 6, 7), (), ()), "tripartite"
        )
        assert not validate_multipartition(chain, w, "residue")

    def test_non_partition_rejected(self, chain):
        w = MultipartitionWitness(CHAIN_COMPONENT, ((1, 2), (2, 3), (4, 5, 6, 7)), "tripartite")
        with pytest.raises(ValueError):
            validate_multipartition(chain, w)

    def test_kind_of_other_uniformity_rejected(self):
        w = MultipartitionWitness((1, 2, 3, 4), ((1,), (2,), (3, 4)), "tripartite")
        with pytest.raises(ValueError, match="3-uniform"):
            validate_multipartition(single_edge(4), w, "residue")


class TestEnumerateMultipartitions:
    def test_single_edge_unique_tripartition(self):
        found = enumerate_multipartitions(single_edge(3), (1, 2, 3), "tripartite")["residue"]
        assert len(found) == 1
        assert found[0].parts == ((1,), (2,), (3,))

    def test_chain_thirteen_tripartitions(self, chain):
        assert len(enumerate_multipartitions(chain, CHAIN_COMPONENT, "tripartite")["residue"]) == 13

    def test_chain_literal_equals_residue(self, chain):
        found = enumerate_multipartitions(chain, CHAIN_COMPONENT, "tripartite")
        assert found["literal"] == found["residue"]

    def test_known_witnesses_present(self, chain):
        found = enumerate_multipartitions(chain, CHAIN_COMPONENT, "tripartite")["residue"]
        normalized = {frozenset(frozenset(p) for p in w.parts if p) for w in found}
        assert frozenset({frozenset({1}), frozenset({2}), frozenset({3, 4, 5, 6, 7})}) in normalized
        assert frozenset({frozenset({1, 4, 7}), frozenset({2, 5}), frozenset({3, 6})}) in normalized

    def test_every_witness_validates(self, k4_overlap):
        for kind in ("lquad", "slquad"):
            for w in enumerate_multipartitions(k4_overlap, K4_COMPONENT, kind)["residue"]:
                assert validate_multipartition(k4_overlap, w, "residue")

    def test_wrong_uniformity_rejected(self, chain):
        with pytest.raises(ValueError):
            enumerate_multipartitions(chain, CHAIN_COMPONENT, "lquad")

    def test_budget_guard(self, chain):
        with pytest.raises(BudgetExceededError):
            enumerate_multipartitions(chain, CHAIN_COMPONENT, "tripartite", budget=100)

    @pytest.mark.parametrize("seed", range(6))
    def test_residue_count_equals_n_pairs(self, seed):
        rng = random.Random(900 + seed)
        k = rng.choice([3, 4, 5])
        n = rng.randint(k, min(k + 3, 7))
        h = random_connected_hypergraph(rng, k, n)
        comp = tuple(range(1, n + 1))
        cases = {
            3: [("tripartite", "laplacian")],
            4: [("lquad", "laplacian"), ("slquad", "signless")],
            5: [("penta", "laplacian")],
        }[k]
        for kind, operator in cases:
            found = enumerate_multipartitions(h, comp, kind)["residue"]
            assert len(found) == structure_counts(h, operator).n_pair_count

    @pytest.mark.parametrize("seed", range(5))
    def test_tripartite_never_two_valued(self, seed):
        rng = random.Random(333 + seed)
        n = rng.randint(3, 7)
        h = random_connected_hypergraph(rng, 3, n)
        for w in enumerate_multipartitions(h, tuple(range(1, n + 1)), "tripartite")["residue"]:
            assert sum(1 for p in w.parts if p) == 3


def _scan_parts(h, component, kind):
    found = enumerate_multipartitions(h, component, kind)
    return {pred: [w.parts for w in found[pred]] for pred in partitions.PREDICATES}


@st.composite
def scan_instances(draw):
    """A small hypergraph, a vertex subset to scan and a kind for its k."""
    k = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(k, {3: 8, 4: 6, 5: 6}[k]))
    edge = st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
    edges = draw(st.lists(edge.map(lambda e: tuple(sorted(e))), max_size=5, unique=True))
    component = draw(st.lists(st.integers(1, n), min_size=1, unique=True))
    kind = draw(st.sampled_from([kd for kd, spec in partitions.KIND_SPECS.items() if spec.k == k]))
    return Hypergraph(k, n, tuple(edges)), tuple(component), kind


class TestScanAgainstOracle:
    """Full witness lists, both predicates, against a plain itertools scan."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_corpus(self, seed):
        kinds_seen = set()
        for h in mixed_corpus(seed):
            decomp = connected_components(h)
            for comp, single in zip(decomp.components, decomp.singleton):
                if single:
                    continue
                for kind, spec in partitions.KIND_SPECS.items():
                    if spec.k == h.k:
                        expected = multipartition_witnesses(spec, comp, h.edges)
                        assert _scan_parts(h, comp, kind) == expected, (h, comp, kind)
                        kinds_seen.add(kind)
        assert kinds_seen == set(partitions.MULTIPARTITION_KINDS)

    @settings(max_examples=60, deadline=None)
    @given(scan_instances())
    def test_small_instances(self, instance):
        h, component, kind = instance
        expected = multipartition_witnesses(partitions.KIND_SPECS[kind], component, h.edges)
        assert _scan_parts(h, component, kind) == expected

    def test_budget_equal_to_scan_size_scans(self, chain):
        at_edge = enumerate_multipartitions(chain, CHAIN_COMPONENT, "tripartite", budget=3**7)
        assert at_edge == enumerate_multipartitions(chain, CHAIN_COMPONENT, "tripartite")

    def test_budget_one_short_refuses_before_allocating(self, chain, monkeypatch):
        monkeypatch.setattr(partitions, "np", None)  # any array work would raise
        with pytest.raises(BudgetExceededError, match=r"3\^7 assignments, budget is 2186"):
            enumerate_multipartitions(chain, CHAIN_COMPONENT, "tripartite", budget=3**7 - 1)

    def test_memory_stays_chunked(self):
        """3^11 assignments: one int64 row per assignment alone would be 15.6 MB."""
        h = random_connected_hypergraph(random.Random(11), 3, 11, extra_edges=2)
        tracemalloc.start()
        try:
            enumerate_multipartitions(h, tuple(range(1, 12)), "tripartite")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestAssignmentConversion:
    def test_distinct_values_to_parts(self):
        w = partition_from_assignment(3, (1, 2, 3), (0, 1, 2), "laplacian")
        assert isinstance(w, MultipartitionWitness)
        assert w.parts == ((1,), (2,), (3,))

    def test_half_turn_values_to_bipartition(self):
        w_lap = partition_from_assignment(4, (1, 2, 3, 4), (0, 2, 0, 2), "laplacian")
        assert isinstance(w_lap, BipartitionWitness)
        assert (w_lap.flavor, w_lap.v1) == ("even", (2, 4))
        w_sig = partition_from_assignment(4, (1, 2, 3, 4), (0, 2, 0, 2), "signless")
        assert w_sig.flavor == "odd"

    def test_constant_maps_to_none(self):
        assert partition_from_assignment(5, (1, 2, 3), (0, 0, 0), "laplacian") is None

    def test_round_trip_multipartition(self, chain):
        for w in enumerate_multipartitions(chain, CHAIN_COMPONENT, "tripartite")["residue"]:
            k, verts, values = assignment_from_partition(w)
            assert partition_from_assignment(k, verts, values, "laplacian") == w

    def test_round_trip_bipartition(self, k4_overlap):
        for w in enumerate_bipartitions(k4_overlap, K4_COMPONENT)["even"]:
            k, verts, values = assignment_from_partition(w, k=4)
            back = partition_from_assignment(k, verts, values, "laplacian")
            assert {frozenset(back.v1), frozenset(back.v2)} == {
                frozenset(w.v1),
                frozenset(w.v2),
            }

    @pytest.mark.parametrize(
        "h, operator",
        [
            (Hypergraph(3, 7, ((1, 2, 3), (3, 4, 5), (5, 6, 7))), "laplacian"),
            (Hypergraph(4, 6, ((1, 2, 3, 4), (1, 3, 5, 6), (1, 2, 3, 6))), "laplacian"),
            (Hypergraph(4, 6, ((1, 2, 3, 4), (1, 3, 5, 6), (1, 2, 3, 6))), "signless"),
        ],
        ids=["chain-laplacian", "k4-laplacian", "k4-signless"],
    )
    def test_listed_classes_map_to_valid_witnesses(self, h, operator):
        """Every class row of the report maps to a valid witness: the
        constant Laplacian class to none, H classes to bipartitions, and
        the 2 x N_pair_count N classes to residue-valid multipartitions,
        which the scan finds once per conjugate pair."""
        (entry,) = zero_eigenvector_report(h, operator)["components"]
        witnesses = [
            partition_from_assignment(h.k, entry["vertices"], c["alpha"], operator)
            for c in entry["classes"]
        ]
        assert sum(w is None for w in witnesses) == (operator == "laplacian")
        multi = [w for w in witnesses if isinstance(w, MultipartitionWitness)]
        for w in witnesses:
            if isinstance(w, BipartitionWitness):
                assert validate_bipartition(h, w)
        for w in multi:
            assert validate_multipartition(h, w, "residue")
        assert len(multi) == 2 * entry["N_pair_count"]
        scan = enumerate_multipartitions(h, entry["vertices"], multi[0].kind)["residue"]
        assert len(scan) == entry["N_pair_count"]


class TestDiscrepancyScan:
    def test_tripartite_clean(self):
        assert discrepancy_scan("tripartite").clean

    def test_lquad_flags_missing_multiset(self):
        report = discrepancy_scan("lquad")
        flagged = {d.values: d for d in report.disagreements}
        assert (0, 1, 1, 2) in flagged
        entry = flagged[(0, 1, 1, 2)]
        assert entry.residue_valid and not entry.literal_valid

    def test_slquad_flags_missing_multiset(self):
        report = discrepancy_scan("slquad")
        flagged = {d.values: d for d in report.disagreements}
        assert (0, 0, 3, 3) in flagged
        assert flagged[(0, 0, 3, 3)].residue_valid
        # the monochromatic clauses are literal-valid yet miss the residue
        assert (0, 0, 0, 0) in flagged
        assert not flagged[(0, 0, 0, 0)].residue_valid

    def test_penta_flags_inconsistent_clause(self):
        report = discrepancy_scan("penta")
        flagged = {d.values: d for d in report.disagreements}
        entry = flagged[(0, 2, 2, 2, 3)]
        assert entry.literal_valid and not entry.residue_valid
