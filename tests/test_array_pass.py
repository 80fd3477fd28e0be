"""The array passes of listing, realization and the edge-sum kernel against
the scalar reference loops in ``oracles``: same bits, same order, same
errors, and work bounded by the listing cap."""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerolap import Hypergraph, apply_adjacency, nqz_spectral_radius, tensor_ops
from zerolap import zk_solver
from zerolap.cli import main
from zerolap.corpus import (
    disjoint_union,
    mixed_corpus,
    random_connected_hypergraph,
    random_hm_bipartite,
    with_isolated_vertices,
)
from zerolap.eigenstructure import (
    ComponentStructure,
    StructureCounts,
    realize_classes,
    solve_components,
    zero_eigenvector_report,
)
from zerolap.errors import VerificationError
from zerolap.hypergraph import connected_components, induced_subhypergraph
from zerolap.zk_solver import ComponentSystem, howell_form, solve_mod_k

import oracles
from conftest import FIXTURE_DIR, single_edge

OPERATORS = ("laplacian", "signless")
CHAIN = Hypergraph(3, 7, ((1, 2, 3), (3, 4, 5), (5, 6, 7)))


def _report(h, operator, **kwargs):
    return zero_eigenvector_report(h, solve_components(h)[operator], **kwargs)


@st.composite
def multi_component_instances(draw):
    """Disjoint unions of 1-3 random connected components plus isolated
    vertices, with a listing cap that keeps the scalar loops quick."""
    k = draw(st.sampled_from([3, 4, 5, 6]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    parts = [
        random_connected_hypergraph(rng, k, rng.randint(k, k + 4), rng.randint(0, 2))
        for _ in range(draw(st.integers(1, 3)))
    ]
    h = with_isolated_vertices(disjoint_union(parts), draw(st.integers(0, 2)))
    limit = draw(st.one_of(st.none(), st.integers(0, 250)))
    if limit is None and max(
        sum(cs.class_count for cs in solve_components(h)[op].components) for op in OPERATORS
    ) > 250:
        limit = 250
    return h, limit


class TestSameBitsAsScalarLoops:
    @settings(max_examples=40, deadline=None)
    @given(multi_component_instances())
    def test_report_classes_and_residual_reprs(self, instance):
        h, limit = instance
        for op in OPERATORS:
            counts = solve_components(h)[op]
            report = zero_eigenvector_report(h, counts, enumerate_limit=limit)
            expected = oracles.scalar_classes(h, counts, limit)
            for entry, cs, classes in zip(report["components"], counts.components, expected):
                got = [(tuple(c["alpha"]), c["kind"], repr(c["residual"])) for c in entry["classes"]]
                want = [
                    (alpha, kind, repr(oracles.scalar_realize(h, op, cs.component, alpha)[1]))
                    for alpha, kind in classes
                ]
                assert got == want

    @settings(max_examples=40, deadline=None)
    @given(multi_component_instances())
    def test_class_rows_keep_the_paper_invariants(self, instance):
        """On every fully listed component: distinct rows with exponent 0
        first; H exactly when every exponent is 0 or k/2; negation mod k
        permutes the rows, fixing exactly the H rows; 2 x N_pair_count N rows."""
        h, limit = instance
        k = h.k
        for op in OPERATORS:
            report = _report(h, op, enumerate_limit=limit)
            for entry in report["components"]:
                if entry["truncated"]:
                    continue
                rows = [tuple(c["alpha"]) for c in entry["classes"]]
                kinds = [c["kind"] for c in entry["classes"]]
                assert len(set(rows)) == len(rows) == entry["class_count"]
                assert all(row[0] == 0 for row in rows)
                for row, kind in zip(rows, kinds):
                    assert (kind == "H") == all(2 * v % k == 0 for v in row)
                negated = [tuple(-v % k for v in row) for row in rows]
                assert sorted(negated) == sorted(rows)
                fixed = [neg == row for neg, row in zip(negated, rows)]
                assert fixed == [kind == "H" for kind in kinds]
                assert kinds.count("N") == 2 * entry["N_pair_count"]

    def test_total_limit_spans_components(self):
        h = disjoint_union([single_edge(3), single_edge(3), single_edge(3)])
        report = _report(h, "laplacian", enumerate_limit=4)
        assert [len(c["classes"]) for c in report["components"]] == [3, 1, 0]
        assert [c["truncated"] for c in report["components"]] == [False, True, True]

    @pytest.mark.parametrize("seed", range(4))
    def test_single_rows_realize_as_in_the_batch(self, seed):
        rng = random.Random(seed)
        k = 3 + seed
        h = with_isolated_vertices(random_connected_hypergraph(rng, k, k + 3, 1), 1)
        for op in OPERATORS:
            for entry in _report(h, op, enumerate_limit=60)["components"]:
                comp = tuple(entry["vertices"])
                for cls in entry["classes"]:
                    alphas = np.array([cls["alpha"]], dtype=np.int64)
                    (resid,) = realize_classes(ComponentSystem(h, comp), op, alphas).tolist()
                    _, scalar = oracles.scalar_realize(h, op, comp, tuple(cls["alpha"]))
                    assert repr(resid) == repr(scalar) == repr(cls["residual"])

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_apply_adjacency_batch_rows(self, k):
        rng = random.Random(k)
        h = random_connected_hypergraph(rng, k, 14, 6)
        gen = np.random.default_rng(k)
        batch = gen.normal(size=(9, h.n)) + 1j * gen.normal(size=(9, h.n))
        batch[3] = 0
        batch[4, ::2] = -0.0
        out = apply_adjacency(h, batch)
        for row, got in zip(batch, out):
            assert got.tobytes() == oracles.scalar_apply_adjacency(h, row).tobytes()
            assert apply_adjacency(h, row).tobytes() == got.tobytes()

    def test_spectral_radius_on_corpus_and_hm_instances(self, monkeypatch):
        rng = random.Random(11)
        graphs = [random_hm_bipartite(rng, k, 4, 7, 3)[0] for k in (3, 4)]
        for h in mixed_corpus(1)[:6]:
            for comp in connected_components(h).components:
                sub, _ = induced_subhypergraph(h, comp)
                if sub.edge_count:
                    graphs.append(sub)
        assert len(graphs) > 4
        monkeypatch.setattr(tensor_ops, "MAX_POWER_ITERATIONS", 400)
        for h in graphs:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                pair = nqz_spectral_radius(h)
            value, resid, vector = oracles.scalar_spectral_radius(h, max_iterations=400)
            assert repr(pair.value) == repr(value)
            assert repr(pair.residual) == repr(resid)
            assert pair.vector.tobytes() == vector.tobytes()


class TestListingOrder:
    @settings(max_examples=40, deadline=None)
    @given(multi_component_instances(), st.integers(0, 300))
    def test_capped_listing_is_the_lexicographic_prefix(self, instance, cap):
        """Each component lists its classes in strictly increasing
        lexicographic order, and a listing capped at b holds the first b
        classes of the uncapped one, components in order."""
        h, limit = instance
        for op in OPERATORS:
            counts = solve_components(h)[op]

            def listed(b):
                report = zero_eigenvector_report(h, counts, enumerate_limit=b)
                return [[tuple(c["alpha"]) for c in e["classes"]] for e in report["components"]]

            full = listed(limit)
            for rows in full:
                assert all(a < b for a, b in zip(rows, rows[1:]))
            flat = [row for rows in full for row in rows]
            b = min(cap, len(flat))
            capped = listed(b)
            assert [row for rows in capped for row in rows] == flat[:b]
            assert all(c == f[: len(c)] for c, f in zip(capped, full))


class TestChecksFireOnBatches:
    def _chain_plus_edge(self):
        return disjoint_union([CHAIN, single_edge(3)])

    @pytest.mark.parametrize("component", [(1, 2, 3, 4, 5, 6, 7), (8, 9, 10)])
    def test_corrupted_entry_names_component_and_edge(self, component):
        h = self._chain_plus_edge()
        report = _report(h, "laplacian")
        (entry,) = [e for e in report["components"] if tuple(e["vertices"]) == component]
        alphas = np.array([c["alpha"] for c in entry["classes"]])
        alphas[1, 2] = (alphas[1, 2] + 1) % 3
        with pytest.raises(VerificationError) as err:
            realize_classes(ComponentSystem(h, component), "laplacian", alphas)
        edge = next(e for e in h.edges if component[2] in e)
        assert str(err.value) == f"class on {component} violates the exact residue at edge {edge}"
        with pytest.raises(VerificationError) as scalar_err:
            oracles.scalar_realize(h, "laplacian", component, tuple(alphas[1].tolist()))
        assert str(err.value) == str(scalar_err.value)

    def test_listing_requires_shift_symmetry(self):
        """A solved form whose lexicographically first solutions leave
        exponent 0 at the first vertex is an internal inconsistency: edge
        systems always have the all-ones shift in their kernel."""
        # one edge holding vertex 1 alone, residue 1: exponent 1 there
        desc = solve_mod_k(howell_form(np.array([[0]]), 2, 3), 1)
        assert desc.particular.tolist() == [1, 0]
        counts = StructureCounts(
            "laplacian", 3, (ComponentStructure((1, 2), False, True, 3, 1, 1, 0, desc),)
        )
        with pytest.raises(VerificationError, match=r"shift symmetry broken on component \(1, 2\)"):
            zero_eigenvector_report(Hypergraph(3, 2, ()), counts)

    def test_tolerance_below_known_residual(self, capsys):
        tolerance = 1e-15
        counts = solve_components(CHAIN)["laplacian"]
        component = counts.components[0].component
        first_bad = next(
            resid
            for alpha, _ in oracles.scalar_classes(CHAIN, counts)[0]
            for resid in [oracles.scalar_realize(CHAIN, "laplacian", component, alpha)[1]]
            if resid > tolerance
        )
        with pytest.raises(VerificationError) as err:
            zero_eigenvector_report(CHAIN, counts, tolerance=tolerance)
        assert str(err.value) == (
            f"realized class residual {first_bad:.3e} exceeds tolerance {tolerance:.1e}"
        )
        path = str(FIXTURE_DIR / "k3_chain_n7.json")
        assert main(["zero-eigenvectors", "--input", path, "--tolerance", str(tolerance)]) == 3
        assert "exceeds tolerance" in capsys.readouterr().err


def _hypertree_25():
    """k = 3, n = 25, 12 edges: 3^13 solutions in 531 441 classes."""
    h = random_connected_hypergraph(random.Random(0), 3, 25)
    assert solve_components(h)["laplacian"].components[0].class_count == 531_441
    return h


class TestBoundedWork:
    def test_report_memory_stays_bounded_at_the_limit(self):
        h = _hypertree_25()
        tracemalloc.start()
        try:
            report = _report(h, "laplacian", enumerate_limit=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report["components"][0]["classes"]) == 1000
        # all 531 441 classes as int64 rows alone would take 106 MB
        assert peak < 8 * 2**20

    def test_dense_multipartite_report_memory_follows_edges(self):
        """K(5,5,5,5,5): 25 vertices, 3125 edges, 125 Laplacian classes.
        Realization blocks sized by vertices held 141 MB of complex edge
        products; blocks sized by edges hold a few megabytes."""
        h = oracles.complete_multipartite([5] * 5)
        counts = solve_components(h)["laplacian"]
        tracemalloc.start()
        try:
            report = zero_eigenvector_report(h, counts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report["components"][0]["classes"]) == 125
        assert peak < 16 * 2**20

    def test_enumeration_stops_at_the_limit(self, monkeypatch):
        """The listing asks the solver for the capped number of solutions
        only, never for the component's 531 441 classes."""
        asked = []
        real = zk_solver.lex_solutions

        def counting(desc, limit=None):
            out = real(desc, limit)
            asked.append((limit, len(out)))
            return out

        monkeypatch.setattr(zk_solver, "lex_solutions", counting)
        _report(_hypertree_25(), "laplacian", enumerate_limit=1000)
        assert asked == [(1000, 1000)]

    def test_report_makes_no_per_class_calls(self, monkeypatch):
        calls = 0
        real_apply = tensor_ops.apply_adjacency

        def apply_spy(h, x):
            nonlocal calls
            calls += 1
            return real_apply(h, x)

        monkeypatch.setattr(tensor_ops, "apply_adjacency", apply_spy)
        limit = 5000
        report = _report(_hypertree_25(), "laplacian", enumerate_limit=limit)
        assert len(report["components"][0]["classes"]) == limit
        # 12 edges of 3 vertices: a row adds 8 * 12 * 3 floats of edge products
        assert calls == math.ceil(limit / (zk_solver.BLOCK_ENTRIES // (8 * 12 * 3)))
