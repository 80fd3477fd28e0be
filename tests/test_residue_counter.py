"""The counter by variable elimination (``counting.ResidueCounter``)
against brute force, the oracles' exhaustive scans and the exact solver."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zerolap import Hypergraph, counting, names
from zerolap.corpus import random_connected_hypergraph, random_hypergraph
from zerolap.eigenstructure import n_literal_count, solve_components
from zerolap.cli import main
from zerolap.errors import VerificationError
from zerolap.hypergraph import connected_components, induced_subhypergraph, load_hypergraph
from zerolap.counting import ResidueCounter, elimination_order, residue_orbit_count
from zerolap.kinds import KIND_SPECS, N_PAIR_KINDS

from conftest import FIXTURE_DIR
from oracles import bipartition_witnesses, domain_edge_sum_count, multipartition_witnesses

BIG = 10**9


@st.composite
def residue_systems(draw):
    """k, a vertex count, edges of distinct 0-based vertices (none at all
    included), a residue and a value domain with at most 4096 maps."""
    k = draw(st.integers(2, 6))
    width = draw(st.integers(0, 7))
    edge = st.sets(st.integers(0, width - 1), min_size=1, max_size=min(k, width)).map(
        lambda e: tuple(sorted(e))
    )
    edges = draw(st.lists(edge, max_size=6)) if width else []
    residue = draw(st.integers(0, k - 1))
    domain = draw(st.sets(st.integers(0, k - 1), max_size=k))
    assume(len(domain) ** width <= 4096)
    return k, width, edges, residue, sorted(domain)


class TestAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(residue_systems())
    def test_count(self, system):
        k, width, edges, residue, domain = system
        counter = ResidueCounter(edges, width, k, BIG)
        expected = domain_edge_sum_count(k, width, edges, residue, domain)
        assert counter.count(residue, domain) == expected

    @settings(max_examples=80, deadline=None)
    @given(residue_systems(), st.integers(1, 300))
    def test_refusal_only_past_the_budget(self, system, budget):
        """A count is exact, or None exactly when some bag or edge table
        holds more than ``budget`` entries."""
        k, width, edges, residue, domain = system
        counter = ResidueCounter(edges, width, k, budget)
        got = counter.count(residue, domain)
        bags = elimination_order(edges, width, BIG)
        d = len(domain)
        over = any(2 ** len(b) > budget or d ** len(b) > budget for b in bags)
        over = over or any(d ** len(e) > budget for e in edges)
        assert got == (None if over else domain_edge_sum_count(k, width, edges, residue, domain))

    def test_singleton_and_edgeless(self):
        assert ResidueCounter([], 1, 5, BIG).count(0, range(5)) == 5
        assert ResidueCounter([], 4, 3, BIG).count(2, (0, 1)) == 16
        assert ResidueCounter([], 0, 3, BIG).count(1, (0, 2)) == 1


class TestAgainstScans:
    """H and N expectations against the exhaustive scans wherever they fit."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 9), st.integers(0, 2**32))
    def test_h_counts_equal_bipartition_counts(self, k, extra, seed):
        rng = random.Random(seed)
        n = rng.randint(k, k + 8)
        h = random_hypergraph(rng, k, n, rng.randint(1, 2 + extra))
        solved = solve_components(h)
        for lap, sig in zip(solved["laplacian"].components, solved["signless"].components):
            if lap.singleton:
                assert lap.h_expected == sig.h_expected == 1
            elif k % 2 == 0:
                even = bipartition_witnesses(h, lap.component, names.EVEN)
                odd = bipartition_witnesses(h, lap.component, names.ODD)
                assert lap.h_expected == len(even) + 1
                assert sig.h_expected == len(odd)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([3, 4, 5]), st.integers(0, 2**32))
    def test_n_counts_equal_residue_orbits(self, k, seed):
        rng = random.Random(seed)
        n = rng.randint(k, {3: 9, 4: 7, 5: 6}[k])
        h = random_hypergraph(rng, k, n, rng.randint(1, 4))
        solved = solve_components(h)
        for op in ("laplacian", "signless"):
            kind = N_PAIR_KINDS.get((k, op))
            if kind is None:
                continue
            spec = KIND_SPECS[kind]
            for cs in solved[op].components:
                if cs.singleton:
                    continue
                scanned = multipartition_witnesses(spec, cs.component, h.edges)["residue"]
                assert residue_orbit_count(cs.counter, kind) == len(scanned)
            assert solved[op].n_matched


def _tree_counter(k, n, seed, budget=200_000):
    h = random_connected_hypergraph(random.Random(seed), k, n)
    return h, ResidueCounter(h.edge_index.tolist(), n, k, budget)


class TestBeyondTheScans:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_width_of_hypertrees_is_k_minus_1(self, k, seed):
        n = random.Random(seed).randint(k, 60)
        _, counter = _tree_counter(k, n, seed)
        assert max(map(len, counter.bags)) - 1 == k - 1

    def test_count_past_int64_equals_solution_count(self):
        h, counter = _tree_counter(4, 100, 0)
        expected = solve_components(h)["laplacian"].components[0].solution_count
        assert expected == 4**67 > 2**63
        assert counter.count(0, range(4)) == expected

    def test_n_counts_past_the_scan(self):
        """A 4-uniform tree of 30 vertices: 4^30 assignments, far past the
        scan's budget, counted exactly with no literal count."""
        h = random_connected_hypergraph(random.Random(0), 4, 30)
        solved = solve_components(h)
        for op in ("laplacian", "signless"):
            counts = solved[op]
            assert counts.h_matched is True
            assert counts.n_matched is True
            assert n_literal_count(counts, 200_000) is None


class TestRefusal:
    def test_single_k5_edge_over_budget_allocates_nothing(self, monkeypatch):
        monkeypatch.setattr(counting, "np", None)  # any array work would raise
        counter = ResidueCounter([(0, 1, 2, 3, 4)], 5, 5, 2000)
        assert counter.count(0, range(5)) is None  # 5^5 = 3125 entries
        assert residue_orbit_count(counter, "penta") is None

    def test_table_at_the_budget_is_counted(self):
        edge = [(0, 1, 2, 3)]
        assert ResidueCounter(edge, 4, 4, 4**4).count(0, range(4)) == 4**3
        assert ResidueCounter(edge, 4, 4, 4**4 - 1).count(0, range(4)) is None

    def test_order_refused_past_budget_on_dense_input(self):
        rng = random.Random(0)
        h = random_connected_hypergraph(rng, 4, 100, extra_edges=90)
        edges = h.edge_index.tolist()
        assert elimination_order(edges, 100, 200_000) is None
        assert ResidueCounter(edges, 100, 4, 200_000).count(0, (0, 2)) is None


class TestVerification:
    def test_scan_disagreeing_with_count_raises(self, monkeypatch, capsys):
        """A counter off by one is a cross-check mismatch: ``n_matched`` is
        False and the command exits 5."""
        real = counting.residue_orbit_count
        monkeypatch.setattr(
            counting, "residue_orbit_count", lambda counter, kind: real(counter, kind) + 1
        )
        path = str(FIXTURE_DIR / "k3_chain_n7.json")
        h = load_hypergraph(path)
        counts = solve_components(h)["laplacian"]
        assert (counts.n_expected, counts.n_pair_count) == (14, 13)
        assert counts.n_matched is False and counts.mismatch
        assert main(["crosscheck", "--input", path]) == 5
        capsys.readouterr()

    def test_orbit_remainder_raises(self, monkeypatch):
        sub = induced_subhypergraph(Hypergraph(3, 3, ((1, 2, 3),)), (1, 2, 3)).hypergraph
        counter = ResidueCounter(sub.edge_index.tolist(), 3, 3, BIG)
        real = counter.count
        monkeypatch.setattr(
            counter, "count", lambda r, d: real(r, d) + (len(d) == 3)
        )
        with pytest.raises(VerificationError, match="do not split into orbits of 6"):
            residue_orbit_count(counter, "tripartite")

    def test_operators_share_one_counter_per_component(self):
        h = Hypergraph(4, 9, ((1, 2, 3, 4), (5, 6, 7, 8)))
        solved = solve_components(h)
        for lap, sig in zip(solved["laplacian"].components, solved["signless"].components):
            assert lap.counter is sig.counter
        assert [cs.counter is None for cs in solved["laplacian"].components] == [
            single for single in connected_components(h).singleton
        ]
