"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
lines. All expected values were frozen from independent brute-force
enumeration before the implementation existed; tolerances are stated
inline and never loosened.
"""

import random

from zerolap import (
    Hypergraph,
    connected_components,
    discrepancy_scan,
    enumerate_bipartitions,
    hm_spectral_reflection,
    nqz_spectral_radius,
    similarity_identity_holds,
    solve_components,
    validate_multipartition,
)
from zerolap.eigenstructure import zero_eigenvector_report
from zerolap.corpus import mixed_corpus, random_connected_hypergraph, random_hm_bipartite

import oracles
from conftest import head_row, single_edge

CHAIN = Hypergraph(3, 7, ((1, 2, 3), (3, 4, 5), (5, 6, 7)))
K4_OVERLAP = Hypergraph(4, 6, ((1, 2, 3, 4), (1, 3, 5, 6), (1, 2, 3, 6)))


def _report(num: int, text: str) -> None:
    print(f"[acceptance] criterion {num:2d}: PASS  ({text})")


def test_criterion_01_even_bipartitions_of_k4_fixture():
    """Exactly three even-bipartitions, matching the known list and the
    exhaustive subset scan. Exact."""
    comp = tuple(range(1, 7))
    listed = enumerate_bipartitions(K4_OVERLAP, comp)["even"].tolist()
    assert list(map(tuple, listed)) == oracles.bipartition_witnesses(K4_OVERLAP, comp, "even")
    found = {
        frozenset(frozenset(v for v, part in zip(comp, row) if part == side) for side in (0, 1))
        for row in listed
    }
    expected = {
        frozenset((frozenset({1, 2, 5}), frozenset({3, 4, 6}))),
        frozenset((frozenset({2, 3, 5}), frozenset({1, 4, 6}))),
        frozenset((frozenset({1, 3}), frozenset({2, 4, 5, 6}))),
    }
    assert found == expected
    _report(1, "3 even-bipartitions as unordered pairs")


def test_criterion_02_k4_fixture_h_count():
    """H count 4 = 3 even-bipartitions + 1 component - 0 singletons. Exact."""
    rep = solve_components(K4_OVERLAP)["laplacian"]
    assert rep.h_count == 4
    assert rep.crosscheck_expected == 3 + 1 - 0
    assert rep.crosscheck_matched is True
    brute = oracles.class_inventory(4, range(1, 7), K4_OVERLAP.edges, 0)
    assert brute[2] == 4  # independent sign-vector enumeration agrees
    _report(2, "H count 4 equals the bipartition formula")


def test_criterion_03_chain_fixture_counts():
    """One H class; the three listed tripartitions validate; 13 N pairs. Exact."""
    rep = solve_components(CHAIN)["laplacian"]
    assert rep.h_count == 1

    comp = tuple(range(1, 8))
    listed = [
        (0, 1, 2, 2, 2, 2, 2),  # {1}, {2}, {3, 4, 5, 6, 7}
        (0, 0, 0, 1, 2, 2, 2),  # {1, 2, 3}, {4}, {5, 6, 7}
        (0, 0, 0, 0, 0, 1, 2),  # {1, 2, 3, 4, 5}, {6}, {7}
    ]
    assert validate_multipartition(CHAIN, comp, listed, "tripartite", "literal").all()

    pinned_pairs = 13  # frozen from the 3^7 brute-force oracle
    brute = oracles.class_inventory(3, comp, CHAIN.edges, 0)
    assert brute[3] == pinned_pairs
    assert rep.n_pair_count == pinned_pairs
    _report(3, "H count 1, listed tripartitions valid, 13 N pairs")


def test_criterion_04_odd_k_signless_never_feasible():
    """100 seeded connected odd-k instances: no zero signless system. Exact."""
    rng = random.Random(20240)
    checked = 0
    for i in range(100):
        k = 3 if i % 2 == 0 else 5
        n = rng.randint(k, 9)
        h = random_connected_hypergraph(rng, k, n, extra_edges=rng.randint(0, 2))
        (record,) = solve_components(h)["signless"].components
        assert record.description is None and not record.feasible
        checked += 1
    assert checked == 100
    _report(4, "100/100 connected odd-k instances infeasible for signless")


def test_criterion_05_oracle_equivalence_on_corpus():
    """Solver counts equal exhaustive enumeration over all phase vectors. Exact."""
    instances = 0
    for h in mixed_corpus(seed=77):
        comps = oracles.component_split(h.n, h.edges)
        assert all(h.k ** len(c) <= 200_000 for c in comps)
        solved = solve_components(h)
        for operator in ("laplacian", "signless"):
            rhs = 0 if operator == "laplacian" else h.k // 2
            rep = solved[operator]
            brute_h = brute_pairs = 0
            for cs, comp in zip(rep.components, comps):
                assert cs.component == comp
                edges = [e for e in h.edges if set(e) <= set(comp)]
                if operator == "signless" and h.k % 2 and edges:
                    assert cs.solution_count == 0
                    continue
                count, _, h_cls, pairs = oracles.class_inventory(
                    h.k, comp, edges, rhs if edges else 0
                )
                assert cs.solution_count == count
                assert cs.h_count == h_cls
                assert cs.n_pair_count == pairs
                brute_h += h_cls
                brute_pairs += pairs
            assert rep.h_count == brute_h
            assert rep.n_pair_count == brute_pairs
        instances += 1
    _report(5, f"{instances} corpus instances match brute force exactly")


def test_criterion_06_count_identities_on_corpus():
    """Signless/odd-k/singleton count identities hold corpus-wide. Exact."""
    singles = [single_edge(k) for k in (3, 4, 5, 6)]
    for h in list(mixed_corpus(seed=77)) + singles:
        decomp = connected_components(h)
        solved = solve_components(h, decomp)
        if h.k % 2 == 0:
            assert solved["signless"].crosscheck_matched is True, "odd-bipartition identity"
            assert solved["laplacian"].crosscheck_matched is True, "even-bipartition identity"
        else:
            assert solved["laplacian"].h_count == len(decomp)
            assert solved["signless"].h_count == decomp.singleton_count
    _report(6, "bipartition/component/singleton count identities hold")


def test_criterion_07_root_of_unity_reflections():
    """20 seeded head-mass instances: every rotation verifies at 1e-8."""
    rng = random.Random(31415)
    for i in range(20):
        k = (3, 4, 5)[i % 3]
        h, (heads, _) = random_hm_bipartite(
            rng, k, head_count=rng.randint(1, 2), mass_count=k + rng.randint(1, 3)
        )
        pair = nqz_spectral_radius(h)
        assert pair.residual <= 1e-8
        for r in range(k):
            rotated = hm_spectral_reflection(h, head_row(h.n, heads), pair, r)
            assert rotated.residual <= 1e-8
    _report(7, "20 instances x all k rotations verified at 1e-8")


def test_criterion_08_diagonal_similarity_identity_exact():
    """20 seeded even-k head-mass instances: the edge-sign check holds, and
    the dense identity in exact rationals confirms it."""
    rng = random.Random(2718)
    for _ in range(20):
        heads = rng.randint(1, 2)
        masses = rng.randint(5, 8 - heads)
        h, (v1, _) = random_hm_bipartite(rng, 4, heads, masses)
        assert h.n <= 8
        lap = oracles.materialize_dense(h, "laplacian")
        sig = oracles.materialize_dense(h, "signless")
        row = head_row(h.n, v1)
        signs = [1 if part == 0 else -1 for part in row.tolist()]
        assert similarity_identity_holds(h, row)
        assert oracles.diag_similarity(lap, signs).same_entries(sig)
    _report(8, "20/20 exact rational similarity identities")


def test_criterion_09_every_emitted_eigenvector_verifies():
    """Exact residue + 1e-9 residual + full component support, everywhere."""
    instances = [CHAIN, K4_OVERLAP, single_edge(3), single_edge(4), single_edge(5)]
    rng = random.Random(999)
    instances += [
        random_connected_hypergraph(rng, rng.choice([3, 4]), rng.randint(4, 7))
        for _ in range(5)
    ]
    total = 0
    for h in instances:
        solved = solve_components(h)
        for operator in ("laplacian", "signless"):
            residue = 0 if operator == "laplacian" else h.k // 2
            # realization raises on a violated residue or residual
            report = zero_eigenvector_report(h, solved[operator], tolerance=1e-9)
            for entry in report["components"]:
                comp = entry["vertices"]
                edges = [e for e in h.edges if set(e) <= set(comp)]
                for cls in entry["classes"]:
                    assert len(cls["alpha"]) == len(comp)  # one phase per vertex
                    value = dict(zip(comp, cls["alpha"]))
                    assert all(sum(value[v] for v in e) % h.k == residue for e in edges)
                    assert cls["residual"] <= 1e-9
                    total += 1
    _report(9, f"{total} realized eigenvectors pass both checks")


def test_criterion_10_discrepancy_scans():
    """Scanner flags the known literal/residue disagreements. Exact."""
    lquad = {d.values: d for d in discrepancy_scan("lquad").disagreements}
    assert (0, 1, 1, 2) in lquad
    assert lquad[(0, 1, 1, 2)].residue_valid and not lquad[(0, 1, 1, 2)].literal_valid

    slquad = {d.values: d for d in discrepancy_scan("slquad").disagreements}
    assert (0, 0, 3, 3) in slquad
    assert slquad[(0, 0, 3, 3)].residue_valid and not slquad[(0, 0, 3, 3)].literal_valid

    penta = {d.values: d for d in discrepancy_scan("penta").disagreements}
    # the clause with |e^V3|=3, |e^V1|=1, |e^V4|=1: sum 9, not 0 mod 5
    assert (0, 2, 2, 2, 3) in penta
    assert penta[(0, 2, 2, 2, 3)].literal_valid and not penta[(0, 2, 2, 2, 3)].residue_valid

    assert discrepancy_scan("tripartite").clean
    _report(10, "lquad {0,1,1,2}, slquad {0,0,3,3}, penta clause flagged")
