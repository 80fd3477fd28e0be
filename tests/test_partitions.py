import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerolap import (
    BudgetExceededError,
    Hypergraph,
    discrepancy_scan,
    enumerate_bipartitions,
    enumerate_multipartitions,
    find_hm_bipartition,
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
from zerolap.eigenstructure import solve_components
from zerolap.hypergraph import connected_components, load_hypergraph
from zerolap.tensor_ops import edge_index
from zerolap.zk_solver import LAPLACIAN, ZERO_EIG_OPERATORS, lex_solutions

from conftest import FIXTURE_DIR, single_edge
from oracles import bipartition_witnesses, hm_bipartition_dfs, multipartition_witnesses

CHAIN_COMPONENT = tuple(range(1, 8))
K4_COMPONENT = tuple(range(1, 7))


def _tuples(rows):
    """Witness rows as plain tuples, the oracles' form."""
    return [tuple(row) for row in rows.tolist()]


def _parts(component, row, parts):
    """The vertices of each part of one witness row."""
    return tuple(tuple(v for v, j in zip(component, row) if j == part) for part in range(parts))


def _assert_same_listing(got, expected):
    """Two listings, dicts of row arrays, hold the same rows in the same order."""
    assert list(got) == list(expected)
    for key in got:
        assert got[key].dtype == expected[key].dtype == np.int8
        assert np.array_equal(got[key], expected[key]), key


class TestValidateBipartition:
    def test_k4_even_witness_valid(self, k4_overlap):
        # v1 = {1, 2, 5} is part 0, v2 = {3, 4, 6} part 1
        assert validate_bipartition(k4_overlap, K4_COMPONENT, (0, 0, 1, 1, 0, 1), "even")

    def test_single_edge_hm_head(self):
        assert validate_bipartition(single_edge(3), (1, 2, 3), (0, 1, 1), "hm")

    def test_k4_single_vertex_not_even(self, k4_overlap):
        assert not validate_bipartition(k4_overlap, K4_COMPONENT, (0, 1, 1, 1, 1, 1), "even")

    def test_block_gives_one_verdict_per_row(self, k4_overlap):
        rows = np.array([(0, 0, 1, 1, 0, 1), (0, 1, 1, 1, 1, 1), (0, 1, 0, 1, 1, 1)], np.int8)
        got = validate_bipartition(k4_overlap, K4_COMPONENT, rows, "even")
        assert got.tolist() == [True, False, True]
        assert validate_bipartition(k4_overlap, K4_COMPONENT, rows[:0], "even").shape == (0,)

    @pytest.mark.parametrize(
        "row", [(0, 0, 2, 1, 0, 1), (0, 0, -1, 1, 0, 1), (0, 0, 1, 1, 0), (0.0,) * 6]
    )
    def test_non_partition_rejected(self, k4_overlap, row):
        """A part outside {0, 1}, a wrong length or a non-integer entry."""
        with pytest.raises(ValueError):
            validate_bipartition(k4_overlap, K4_COMPONENT, row, "even")

    def test_unknown_flavor_rejected(self, k4_overlap):
        with pytest.raises(ValueError, match="unknown flavor"):
            validate_bipartition(k4_overlap, K4_COMPONENT, (0, 0, 1, 1, 0, 1), "both")

    def test_trivial_component_vacuously_valid(self):
        h = Hypergraph(3, 4, ((1, 2, 3),))
        assert validate_bipartition(h, (4,), (0,), "odd")


class TestEnumerateBipartitions:
    def test_k4_even_exactly_three(self, k4_overlap):
        found = enumerate_bipartitions(k4_overlap, K4_COMPONENT)["even"]
        # v1 = {1, 3}, then {1, 2, 5} before {1, 4, 6}: by |v1|, then v1
        assert found.tolist() == [
            [0, 1, 0, 1, 1, 1],
            [0, 0, 1, 1, 0, 1],
            [0, 1, 1, 0, 1, 0],
        ]
        assert found.dtype == np.int8

    def test_single_edge_k4_odd_four(self):
        found = enumerate_bipartitions(single_edge(4), (1, 2, 3, 4))["odd"]
        assert len(found) == 4

    def test_single_edge_k4_even_three(self):
        found = enumerate_bipartitions(single_edge(4), (1, 2, 3, 4))["even"]
        assert len(found) == 3

    def test_hm_is_ordered_not_quotiented(self):
        found = enumerate_bipartitions(single_edge(3), (1, 2, 3))["hm"]
        assert found.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_all_witnesses_validate(self, k4_overlap):
        for flavor, rows in enumerate_bipartitions(k4_overlap, K4_COMPONENT).items():
            assert len(rows) and validate_bipartition(k4_overlap, K4_COMPONENT, rows, flavor).all()

    def test_trivial_component_lists_empty_blocks(self):
        found = enumerate_bipartitions(Hypergraph(3, 4, ((1, 2, 3),)), (4,))
        assert {flavor: rows.shape for flavor, rows in found.items()} == {
            flavor: (0, 1) for flavor in partitions.BIPARTITION_FLAVORS
        }


@st.composite
def bipartition_instances(draw):
    """A small k-uniform hypergraph, k in 2..6, and a vertex subset to list."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(k, k + 6))
    edge = st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
    edges = draw(st.lists(edge.map(lambda e: tuple(sorted(e))), max_size=6, unique=True))
    component = draw(st.lists(st.integers(1, n), min_size=1, unique=True))
    return Hypergraph(k, n, tuple(edges)), tuple(component)


def _assert_hm_listing_holds_search_witness(h, component):
    listed = enumerate_bipartitions(h, component)[partitions.HM]
    w = find_hm_bipartition(h, component)
    if w is None or w.all():  # none, or the vacuous witness of an edgeless component
        assert len(listed) == 0
    else:
        assert w.tolist() in listed.tolist()


class TestBipartitionScanAgainstOracle:
    """The listing modulo 2 against the exhaustive scan, order included."""

    @settings(max_examples=80, deadline=None)
    @given(bipartition_instances())
    def test_every_flavor(self, instance):
        h, component = instance
        found = enumerate_bipartitions(h, component)
        assert list(found) == list(partitions.BIPARTITION_FLAVORS)
        for flavor, witnesses in found.items():
            assert witnesses.dtype == np.int8 and witnesses.shape[1:] == (len(component),)
            if flavor in partitions.bipartition_flavors(h.k):
                assert _tuples(witnesses) == bipartition_witnesses(h, component, flavor), flavor
            else:
                assert len(witnesses) == 0, flavor
        _assert_hm_listing_holds_search_witness(h, component)

    def test_budget_equal_to_scan_size_scans(self, k4_overlap):
        at_edge = enumerate_bipartitions(k4_overlap, K4_COMPONENT, budget=2**6)
        _assert_same_listing(at_edge, enumerate_bipartitions(k4_overlap, K4_COMPONENT))

    def test_budget_is_the_solution_count(self, k4_overlap, monkeypatch):
        """The budget bounds the solutions of each system modulo 2: at their
        count the listing runs; one short, it refuses before listing any."""
        subsets = [set(s) for r in range(7) for s in itertools.combinations(K4_COMPONENT, r)]
        counts = [
            sum(all(len(s.intersection(e)) % 2 == rhs for e in k4_overlap.edges) for s in subsets)
            for rhs in (0, 1)
        ]
        assert counts == [8, 8]
        listed = enumerate_bipartitions(k4_overlap, K4_COMPONENT, budget=8)
        _assert_same_listing(listed, enumerate_bipartitions(k4_overlap, K4_COMPONENT))

        def no_listing(*args):
            raise AssertionError("listed past the budget")

        monkeypatch.setattr(partitions, "lex_solutions", no_listing)
        with pytest.raises(BudgetExceededError, match="needs 8 solutions modulo 2, budget is 7"):
            enumerate_bipartitions(k4_overlap, K4_COMPONENT, budget=7)


class TestBipartitionsPastTheScan:
    """A 4-uniform instance of 40 vertices, 2^40 subsets: far past any scan."""

    @pytest.fixture(scope="class")
    def instance(self):
        h = random_connected_hypergraph(random.Random(0), 4, 40, 18)
        return h, enumerate_bipartitions(h, range(1, 41))

    def test_counts_equal_the_residue_counts(self, instance):
        h, found = instance
        counter = partitions.ResidueCounter(edge_index(h).tolist(), h.n, h.k, 200_000)
        even, odd = counter.count(0, (0, 2)), counter.count(2, (0, 2))
        assert (len(found["even"]), len(found["odd"])) == (even // 2 - 1, odd // 2) == (255, 256)

    def test_every_witness_validates(self, instance):
        h, found = instance
        for flavor, witnesses in found.items():
            assert validate_bipartition(h, range(1, 41), witnesses, flavor).all()


@pytest.mark.parametrize("shape", [(3, 4, 8, 4), (4, 4, 9, 3), (5, 3, 8, 2)])
def test_hm_listing_holds_search_witness_on_planted_instances(shape):
    for seed in range(6):
        h, _ = random_hm_bipartite(random.Random(seed), *shape)
        _assert_hm_listing_holds_search_witness(h, range(1, h.n + 1))


class TestFindHm:
    def test_single_edge_lowest_head(self):
        w = find_hm_bipartition(single_edge(3), (1, 2, 3))
        assert w.tolist() == [0, 1, 1] and w.dtype == np.int8

    def test_shared_head(self):
        h = Hypergraph(3, 5, ((1, 2, 3), (1, 4, 5)))
        w = find_hm_bipartition(h, (1, 2, 3, 4, 5))
        assert w.tolist() == [0, 1, 1, 1, 1]

    def test_complete_k3_on_four_has_none(self, k3_complete4):
        assert find_hm_bipartition(k3_complete4, (1, 2, 3, 4)) is None

    def test_chain_witness_validates(self, chain):
        w = find_hm_bipartition(chain, CHAIN_COMPONENT)
        assert w is not None
        assert validate_bipartition(chain, CHAIN_COMPONENT, w, "hm")

    def test_trivial_component_gets_vacuous_witness(self):
        h = Hypergraph(3, 4, ((1, 2, 3),))
        w = find_hm_bipartition(h, (4,))
        assert w.tolist() == [1] and w.dtype == np.int8  # an empty head side

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
            heads = {v for v, part in zip(comp, w.tolist()) if part == 0}
            assert all(len(heads & set(e)) == 1 for e in edges)
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
                assert tuple(w.tolist()) == ref

    @pytest.mark.parametrize("seed", [0, 1])
    def test_hard_instance_witness_pinned_within_two_trials_per_edge(self, seed):
        h = _hard_hm_instance(seed)
        comp = tuple(range(1, h.n + 1))
        # at most 2|E| - 1 head trials over both passes, or this raises
        w = find_hm_bipartition(h, comp, budget=2 * h.edge_count - 1)
        assert tuple(w.tolist()) == hm_bipartition_dfs(h, comp)

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
        assert tuple(w.tolist()) == ref


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
        rows = np.array(
            [
                (0, 1, 2, 2, 2, 2, 2),  # {1}, {2}, {3, 4, 5, 6, 7}
                (0, 0, 0, 1, 2, 2, 2),  # {1, 2, 3}, {4}, {5, 6, 7}
                (0, 0, 0, 0, 0, 1, 2),  # {1, 2, 3, 4, 5}, {6}, {7}
            ]
        )
        for predicate in partitions.PREDICATES:
            got = validate_multipartition(chain, CHAIN_COMPONENT, rows, "tripartite", predicate)
            assert got.tolist() == [True] * 3
            for row in rows:
                assert validate_multipartition(chain, CHAIN_COMPONENT, row, "tripartite", predicate)

    def test_interleaved_tripartition_valid(self, chain):
        # {1, 4, 7}, {2, 5}, {3, 6}
        row = (0, 1, 2, 0, 1, 2, 0)
        assert validate_multipartition(chain, CHAIN_COMPONENT, row, "tripartite", "literal")

    def test_single_k4_edge_split_into_four_fails_lquad(self):
        h = single_edge(4)
        assert not validate_multipartition(h, (1, 2, 3, 4), (0, 1, 2, 3), "lquad", "literal")
        # 0+1+2+3 = 6, not 0 mod 4
        assert not validate_multipartition(h, (1, 2, 3, 4), (0, 1, 2, 3), "lquad", "residue")

    def test_single_k4_edge_split_into_four_passes_slquad(self):
        h = single_edge(4)
        assert validate_multipartition(h, (1, 2, 3, 4), (0, 1, 2, 3), "slquad", "literal")
        # sum 6 == 2 mod 4
        assert validate_multipartition(h, (1, 2, 3, 4), (0, 1, 2, 3), "slquad", "residue")

    def test_empty_part_count_constraint(self, chain):
        row = (0,) * 7
        assert not validate_multipartition(chain, CHAIN_COMPONENT, row, "tripartite", "residue")

    @pytest.mark.parametrize("row", [(0, 1, 3, 2, 2, 2, 2), (0, 1, 2, 2, 2, 2), ((0, 1, 2),)])
    def test_non_partition_rejected(self, chain, row):
        """A part outside the kind's parts, a wrong length or a wrong shape."""
        with pytest.raises(ValueError):
            validate_multipartition(chain, CHAIN_COMPONENT, row, "tripartite", "literal")

    def test_unknown_predicate_rejected(self, chain):
        with pytest.raises(ValueError, match="unknown predicate"):
            validate_multipartition(chain, CHAIN_COMPONENT, (0, 1) + (2,) * 5, "tripartite", "both")

    def test_kind_of_other_uniformity_rejected(self):
        with pytest.raises(ValueError, match="3-uniform"):
            validate_multipartition(
                single_edge(4), (1, 2, 3, 4), (0, 1, 2, 2), "tripartite", "residue"
            )


class TestEnumerateMultipartitions:
    def test_single_edge_unique_tripartition(self):
        found = enumerate_multipartitions(single_edge(3), (1, 2, 3), "tripartite")["residue"]
        assert found.tolist() == [[0, 1, 2]] and found.dtype == np.int8

    def test_chain_thirteen_tripartitions(self, chain):
        assert len(enumerate_multipartitions(chain, CHAIN_COMPONENT, "tripartite")["residue"]) == 13

    def test_chain_literal_equals_residue(self, chain):
        found = enumerate_multipartitions(chain, CHAIN_COMPONENT, "tripartite")
        assert np.array_equal(found["literal"], found["residue"])

    def test_known_witnesses_present(self, chain):
        found = enumerate_multipartitions(chain, CHAIN_COMPONENT, "tripartite")["residue"]
        normalized = {
            frozenset(frozenset(p) for p in _parts(CHAIN_COMPONENT, row, 3) if p)
            for row in found.tolist()
        }
        assert frozenset({frozenset({1}), frozenset({2}), frozenset({3, 4, 5, 6, 7})}) in normalized
        assert frozenset({frozenset({1, 4, 7}), frozenset({2, 5}), frozenset({3, 6})}) in normalized

    def test_every_witness_validates(self, k4_overlap):
        for kind in ("lquad", "slquad"):
            rows = enumerate_multipartitions(k4_overlap, K4_COMPONENT, kind)["residue"]
            assert validate_multipartition(k4_overlap, K4_COMPONENT, rows, kind, "residue").all()

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
            assert len(found) == solve_components(h)[operator].n_pair_count

    @pytest.mark.parametrize("seed", range(5))
    def test_tripartite_never_two_valued(self, seed):
        rng = random.Random(333 + seed)
        n = rng.randint(3, 7)
        h = random_connected_hypergraph(rng, 3, n)
        rows = enumerate_multipartitions(h, tuple(range(1, n + 1)), "tripartite")["residue"]
        assert all(len(set(row)) == 3 for row in rows.tolist())


def _scan_rows(h, component, kind):
    found = enumerate_multipartitions(h, component, kind)
    return {pred: _tuples(found[pred]) for pred in partitions.PREDICATES}


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
                        assert _scan_rows(h, comp, kind) == expected, (h, comp, kind)
                        kinds_seen.add(kind)
        assert kinds_seen == set(partitions.MULTIPARTITION_KINDS)

    @settings(max_examples=60, deadline=None)
    @given(scan_instances())
    def test_small_instances(self, instance):
        h, component, kind = instance
        expected = multipartition_witnesses(partitions.KIND_SPECS[kind], component, h.edges)
        assert _scan_rows(h, component, kind) == expected

    def test_budget_equal_to_scan_size_scans(self, chain):
        at_edge = enumerate_multipartitions(chain, CHAIN_COMPONENT, "tripartite", budget=3**7)
        full = enumerate_multipartitions(chain, CHAIN_COMPONENT, "tripartite")
        _assert_same_listing(at_edge, full)

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


def _least_image(row, k):
    """The least image of an exponent row under alpha -> +-alpha + t (mod k)."""
    return min(tuple((sign * a + t) % k for a in row) for sign in (1, -1) for t in range(k))


CORRESPONDENCE_INSTANCES = [
    *(
        pytest.param(load_hypergraph(path), id=path.stem)
        for path in sorted(FIXTURE_DIR.glob("*.json"))
    ),
    *(
        pytest.param(h, id=f"mixed_corpus{seed}-{i}")
        for seed in (1, 2)
        for i, h in enumerate(mixed_corpus(seed))
    ),
]


class TestClassRowsArePartitionRows:
    """The paper's correspondence, witness by witness: a class's exponent
    row is the part-index row of the partition it characterizes.

    Every class of every component is listed, under both operators. The N
    rows are residue-valid rows of the (k, operator) multipartition kind,
    and their least images under the orbit group are exactly the scan's
    residue witnesses. The H rows over k/2 are exactly the even
    bipartitions plus the constant row (Laplacian), or the odd
    bipartitions (signless).
    """

    @pytest.mark.parametrize("h", CORRESPONDENCE_INSTANCES)
    def test_every_listed_class(self, h):
        k = h.k
        solved = solve_components(h)
        for operator in ZERO_EIG_OPERATORS:
            for cs in solved[operator].components:
                if cs.singleton or not cs.feasible:
                    continue
                comp = cs.component
                alphas = lex_solutions(cs.description, cs.class_count)
                real = np.isin(alphas, (0, k // 2) if k % 2 == 0 else 0).all(axis=1)
                n_rows, h_rows = alphas[~real], alphas[real]
                assert len(n_rows) == 2 * cs.n_pair_count

                kind = partitions.N_PAIR_KINDS.get((k, operator))
                if kind is not None:
                    assert validate_multipartition(h, comp, n_rows, kind, "residue").all()
                    scanned = enumerate_multipartitions(h, comp, kind)["residue"]
                    images = {_least_image(row, k) for row in n_rows.tolist()}
                    assert images == set(_tuples(scanned))

                if k % 2:
                    assert h_rows.tolist() == [[0] * len(comp)]  # the constant class only
                    continue
                listed = enumerate_bipartitions(h, comp)
                if operator == LAPLACIAN:
                    expected = _tuples(listed[partitions.EVEN]) + [(0,) * len(comp)]
                else:
                    expected = _tuples(listed[partitions.ODD])
                assert sorted(_tuples(h_rows // (k // 2))) == sorted(expected)


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
