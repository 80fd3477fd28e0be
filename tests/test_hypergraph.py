import io
import json
import random

import pytest

from zerolap import (
    Hypergraph,
    HypergraphFormatError,
    connected_components,
    degrees,
    induced_subhypergraph,
    load_hypergraph,
    parse_hypergraph_json,
    parse_hypergraph_text,
)
from zerolap.corpus import random_hypergraph
from zerolap.hypergraph import K_MAX

from conftest import FIXTURE_DIR


class TestConstruction:
    def test_duplicate_vertex_in_edge_rejected(self):
        with pytest.raises(HypergraphFormatError):
            Hypergraph(3, 3, ((1, 2, 2),))

    def test_wrong_edge_size_rejected(self):
        with pytest.raises(HypergraphFormatError):
            Hypergraph(3, 4, ((1, 2, 3, 4),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(HypergraphFormatError):
            Hypergraph(3, 4, ((1, 2, 3), (3, 2, 1)))

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(HypergraphFormatError):
            Hypergraph(3, 3, ((1, 2, 4),))

    def test_k_below_two_rejected(self):
        with pytest.raises(HypergraphFormatError):
            Hypergraph(1, 3, ())

    def test_k_bound_is_the_int64_square_root(self):
        assert K_MAX**2 <= 2**63 - 1 < (K_MAX + 1) ** 2
        assert Hypergraph(K_MAX, 2, ()).k == K_MAX

    @pytest.mark.parametrize("k", [K_MAX + 1, 10**12, 2**63])
    def test_k_past_the_bound_rejected(self, k):
        message = f"uniformity k must be at most {K_MAX}, so that k^2 fits in int64, got {k}"
        with pytest.raises(HypergraphFormatError) as err:
            Hypergraph(k, 2, ())
        assert str(err.value) == message

    def test_edges_stored_sorted(self):
        h = Hypergraph(3, 5, ((5, 1, 3),))
        assert h.edges == ((1, 3, 5),)

    def test_k2_graphs_allowed(self):
        h = Hypergraph(2, 3, ((1, 2), (2, 3)))
        assert degrees(h) == (1, 2, 1)


class TestLoading:
    def test_json_chain_fixture(self):
        h = load_hypergraph(FIXTURE_DIR / "k3_chain_n7.json")
        assert (h.k, h.n, h.edge_count) == (3, 7, 3)

    def test_k4_fixture(self):
        h = load_hypergraph(FIXTURE_DIR / "k4_overlap_n6.json")
        assert (h.k, h.n, h.edge_count) == (4, 6, 3)

    def test_text_and_json_agree(self):
        a = load_hypergraph(FIXTURE_DIR / "k3_chain_n7.json")
        b = load_hypergraph(FIXTURE_DIR / "k3_chain_n7.txt")
        assert a == b

    def test_load_from_bytes_and_stream(self):
        data = (FIXTURE_DIR / "k3_chain_n7.json").read_bytes()
        assert load_hypergraph(data) == load_hypergraph(io.BytesIO(data))

    def test_text_roundtrip_via_json_dict(self, chain):
        assert parse_hypergraph_json(json.dumps(chain.to_json_dict())) == chain

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3\n1 2 3",
            "3 seven\n1 2 3",
            "3 7\n1 2 x",
            "3 4\n1_0 2 3",
            "3 12\n1 2 3\n\u0661\u0660 11 12",
        ],
    )
    def test_malformed_text_rejected(self, text):
        with pytest.raises(HypergraphFormatError):
            parse_hypergraph_text(text)

    @pytest.mark.parametrize(
        "text",
        [
            "not json {",
            "[1, 2]",
            '{"k": 3, "n": 7}',
            '{"k": 3, "n": 7, "edges": [1, 2]}',
            '{"k": 3, "n": 3, "edges": [[true, 2, 3]]}',
            '{"k": 3, "n": 3, "edges": [[1.0, 2, 3]]}',
            '{"k": 3, "n": 3, "edges": [["a", 2, 3]]}',
            '{"k": 3, "n": true, "edges": []}',
            '{"k": true, "n": 3, "edges": []}',
        ],
    )
    def test_malformed_json_rejected(self, text):
        with pytest.raises(HypergraphFormatError):
            parse_hypergraph_json(text)


class TestDegrees:
    def test_chain_degrees(self, chain):
        assert degrees(chain) == (1, 1, 2, 1, 2, 1, 1)

    def test_k4_degrees(self, k4_overlap):
        assert degrees(k4_overlap) == (3, 2, 3, 1, 1, 2)

    def test_edgeless_all_zero(self):
        assert degrees(Hypergraph(3, 4, ())) == (0, 0, 0, 0)


class TestComponents:
    def test_chain_is_connected(self, chain):
        decomp = connected_components(chain)
        assert decomp.components == ((1, 2, 3, 4, 5, 6, 7),)
        assert decomp.singleton == (False,)

    def test_two_disjoint_edges_and_isolated(self):
        h = Hypergraph(3, 7, ((1, 2, 3), (4, 5, 6)))
        decomp = connected_components(h)
        assert decomp.components == ((1, 2, 3), (4, 5, 6), (7,))
        assert decomp.singleton == (False, False, True)

    def test_edgeless_gives_singletons(self):
        decomp = connected_components(Hypergraph(3, 4, ()))
        assert len(decomp) == 4
        assert all(decomp.singleton)

    def test_every_edge_in_exactly_one_component(self, chain):
        decomp = connected_components(chain)
        assert sum(len(el) for el in decomp.edge_lists) == chain.edge_count


class TestInduced:
    def test_chain_first_edge(self, chain):
        sub, ids = induced_subhypergraph(chain, {1, 2, 3})
        assert ids == (1, 2, 3)
        assert sub.edges == ((1, 2, 3),)

    def test_full_set_is_identity(self, chain):
        sub, ids = induced_subhypergraph(chain, range(1, 8))
        assert sub == chain
        assert ids == (1, 2, 3, 4, 5, 6, 7)

    def test_too_small_subset_keeps_no_edges(self, chain):
        sub, _ = induced_subhypergraph(chain, {1, 2})
        assert sub.edges == ()

    def test_out_of_range_rejected(self, chain):
        with pytest.raises(ValueError):
            induced_subhypergraph(chain, {1, 99})

    def test_relabeling_preserves_structure(self, chain):
        sub, ids = induced_subhypergraph(chain, {3, 4, 5, 6, 7})
        assert sub.n == 5
        assert sub.edges == ((1, 2, 3), (3, 4, 5))

    def test_edges_keep_input_order(self):
        """Edges come back in input order, not in the order of their
        vertices, and edges leaving the subset are dropped."""
        h = Hypergraph(3, 9, ((5, 6, 7), (1, 2, 3), (3, 8, 9), (2, 6, 8)))
        sub, ids = induced_subhypergraph(h, {1, 2, 3, 5, 6, 7, 8})
        assert ids == (1, 2, 3, 5, 6, 7, 8)
        assert sub.edges == ((4, 5, 6), (1, 2, 3), (2, 5, 7))
        for bad in ({1, 2, 10}, {0, 1}):
            with pytest.raises(ValueError):
                induced_subhypergraph(h, bad)


@pytest.mark.parametrize("seed", range(8))
def test_random_instance_invariants(seed):
    rng = random.Random(seed)
    k = rng.choice([2, 3, 4, 5])
    n = rng.randint(k, k + 5)
    h = random_hypergraph(rng, k, n, rng.randint(0, 6))

    d = degrees(h)
    assert sum(d) == k * h.edge_count

    decomp = connected_components(h)
    flat = [v for comp in decomp.components for v in comp]
    assert sorted(flat) == list(range(1, n + 1))
    assert len(flat) == len(set(flat))

    for comp, edge_list in zip(decomp.components, decomp.edge_lists):
        comp_set = set(comp)
        for e in edge_list:
            assert comp_set.issuperset(e)
        sub, _ = induced_subhypergraph(h, comp)
        inner = connected_components(sub)
        assert len(inner) == 1
