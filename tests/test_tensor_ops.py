import math
import random
from fractions import Fraction

import numpy as np
import pytest

from zerolap import (
    BudgetExceededError,
    Hypergraph,
    VerificationError,
    apply_adjacency,
    apply_operator,
    eig_residual,
    hm_spectral_reflection,
    nqz_spectral_radius,
    similarity_identity_holds,
)
from zerolap.tensor_ops import Eigenpair
from zerolap.corpus import random_hm_bipartite, random_hypergraph

import oracles
from conftest import head_row, single_edge
from oracles import diag_similarity, materialize_dense

OMEGA3 = np.exp(2j * np.pi / 3)


class TestApply:
    def test_adjacency_of_ones_counts_edges(self, chain):
        out = apply_adjacency(chain, np.ones(7))
        assert np.allclose(out, [1, 1, 2, 1, 2, 1, 1])

    def test_single_edge_products(self):
        out = apply_adjacency(single_edge(3), [1.0, 2.0, 3.0])
        assert np.allclose(out, [6, 3, 2])

    def test_zero_maps_to_zero(self, chain):
        assert np.allclose(apply_adjacency(chain, np.zeros(7)), 0)

    def test_laplacian_kills_all_ones(self, chain):
        assert np.allclose(apply_operator(chain, "laplacian", np.ones(7)), 0)

    def test_laplacian_kills_phase_solution(self, chain):
        x = np.array([OMEGA3, OMEGA3**2, 1, OMEGA3, OMEGA3**2, 1, OMEGA3])
        assert np.max(np.abs(apply_operator(chain, "laplacian", x))) < 1e-14

    def test_signless_on_single_edge_ones(self):
        assert np.allclose(apply_operator(single_edge(3), "signless", np.ones(3)), [2, 2, 2])

    def test_dimension_mismatch_rejected(self, chain):
        with pytest.raises(ValueError):
            apply_adjacency(chain, np.ones(6))

    def test_laplacian_plus_signless_is_twice_diagonal(self, chain):
        rng = np.random.default_rng(5)
        x = rng.normal(size=7) + 1j * rng.normal(size=7)
        d = np.array([1, 1, 2, 1, 2, 1, 1])
        total = apply_operator(chain, "laplacian", x) + apply_operator(chain, "signless", x)
        assert np.allclose(total, 2 * d * x ** 2)


class TestResidual:
    def test_all_ones_laplacian_zero_exactly(self, chain):
        assert eig_residual(chain, "laplacian", 0, np.ones(7)) == 0.0

    def test_phase_solution_residual_tiny(self, chain):
        x = np.array([OMEGA3, OMEGA3**2, 1, OMEGA3, OMEGA3**2, 1, OMEGA3])
        assert eig_residual(chain, "laplacian", 0, x) <= 1e-12

    def test_regular_adjacency_eigenpair(self):
        assert eig_residual(single_edge(3), "adjacency", 1, np.ones(3)) == 0.0

    def test_zero_vector_rejected(self, chain):
        with pytest.raises(ValueError):
            eig_residual(chain, "laplacian", 0, np.zeros(7))

    def test_scale_invariance(self, chain):
        rng = np.random.default_rng(9)
        x = rng.normal(size=7) + 1j * rng.normal(size=7)
        r1 = eig_residual(chain, "signless", 0.5, x)
        r2 = eig_residual(chain, "signless", 0.5, 17.3 * x)
        assert math.isclose(r1, r2, rel_tol=1e-9)


class TestDense:
    def test_single_edge_adjacency_entries(self):
        t = materialize_dense(single_edge(3), "adjacency")
        assert len(t.entries) == 6
        assert set(t.entries.values()) == {Fraction(1, 2)}

    def test_single_edge_laplacian_entries(self):
        t = materialize_dense(single_edge(3), "laplacian")
        for v in (1, 2, 3):
            assert t.entries[(v, v, v)] == 1
        assert t.entries[(2, 1, 3)] == Fraction(-1, 2)

    def test_k4_adjacency_entry_count(self, k4_overlap):
        t = materialize_dense(k4_overlap, "adjacency")
        assert len(t.entries) == 3 * math.factorial(4)
        assert set(t.entries.values()) == {Fraction(1, 6)}

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_agrees_with_implicit(self, seed):
        rng = random.Random(seed)
        k = rng.choice([2, 3, 4])
        n = rng.randint(k, min(k + 4, 8))
        h = random_hypergraph(rng, k, n, rng.randint(1, 4))
        npr = np.random.default_rng(seed)
        dense = {op: materialize_dense(h, op) for op in ("adjacency", "laplacian", "signless")}
        for _ in range(17):
            x = npr.normal(size=n) + 1j * npr.normal(size=n)
            for op in ("adjacency", "laplacian", "signless"):
                gap = np.max(np.abs(dense[op].apply(x) - apply_operator(h, op, x)))
                assert gap <= 1e-12
        assert eig_residual(h, "laplacian", 0, np.ones(n)) == 0.0

    def test_implicit_agrees_with_naive_contraction(self, chain):
        npr = np.random.default_rng(3)
        x = npr.normal(size=7) + 1j * npr.normal(size=7)
        for op in ("adjacency", "laplacian", "signless"):
            expected = oracles.naive_tensor_apply(chain, op, x)
            assert np.max(np.abs(expected - apply_operator(chain, op, x))) <= 1e-12


class TestDiagSimilarity:
    def test_identity_signs_fix_tensor(self):
        t = materialize_dense(single_edge(4), "laplacian")
        assert diag_similarity(t, [1, 1, 1, 1]).same_entries(t)

    def test_head_mass_signs_map_laplacian_to_signless(self):
        h = single_edge(4)
        lap = materialize_dense(h, "laplacian")
        sig = materialize_dense(h, "signless")
        assert diag_similarity(lap, [1, -1, -1, -1]).same_entries(sig)

    def test_involution(self):
        t = materialize_dense(single_edge(4), "signless")
        p = [-1, 1, -1, 1]
        assert diag_similarity(diag_similarity(t, p), p).same_entries(t)

    def test_non_sign_entries_rejected(self):
        t = materialize_dense(single_edge(3), "adjacency")
        with pytest.raises(ValueError):
            diag_similarity(t, [1, 2, 1])


class TestSimilarityIdentity:
    def test_edge_rule_matches_dense_transform(self):
        """On random even-k hypergraphs and random sign vectors, the edge
        rule gives exactly the exact-rational verdict D^(1-k) L D == S."""
        rng = random.Random(2015)
        outcomes = set()
        for _ in range(200):
            k = rng.choice([2, 4, 6])
            n = rng.randint(k, 8)
            h = random_hypergraph(rng, k, n, rng.randint(1, 3))
            row = [rng.choice((0, 1)) for _ in range(n)]
            signs = [1 if part == 0 else -1 for part in row]
            lap = materialize_dense(h, "laplacian")
            sig = materialize_dense(h, "signless")
            expected = diag_similarity(lap, signs).same_entries(sig)
            assert similarity_identity_holds(h, row) is expected
            outcomes.add((k, expected))
        assert outcomes == {(k, holds) for k in (2, 4, 6) for holds in (True, False)}

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError, match="only for even k"):
            similarity_identity_holds(single_edge(3), [0, 1, 1])

    # the row that sets D's signs: one entry short, and a part 2
    @pytest.mark.parametrize("signs", [[0, 1, 1], [0, 1, 2, 1]])
    def test_bad_sign_vector_rejected(self, signs):
        with pytest.raises(ValueError, match="4 entries, each 0 or 1"):
            similarity_identity_holds(single_edge(4), signs)


class TestReflection:
    def _ones_pair(self, h):
        return Eigenpair("adjacency", 1 + 0j, np.ones(h.n, dtype=complex), 0.0)

    def test_r_zero_is_identity(self):
        h = single_edge(3)
        out = hm_spectral_reflection(h, [0, 1, 1], self._ones_pair(h), 0)
        assert out.value == 1 + 0j
        assert np.allclose(out.vector, np.ones(3))

    def test_single_edge_rotation(self):
        h = single_edge(3)
        out = hm_spectral_reflection(h, [0, 1, 1], self._ones_pair(h), 1)
        assert abs(out.value - OMEGA3) < 1e-14
        assert np.allclose(out.vector, [OMEGA3, 1, 1])
        assert out.residual <= 1e-12

    def test_k_rotations_compose_to_identity(self):
        h = single_edge(4)
        pair = self._ones_pair(h)
        for _ in range(4):
            pair = hm_spectral_reflection(h, [0, 1, 1, 1], pair, 1)
        assert abs(pair.value - 1) < 1e-12

    def test_every_rotation_verifies(self, chain):
        pair = nqz_spectral_radius(chain)
        for r in range(3):
            out = hm_spectral_reflection(chain, head_row(7, (1, 5)), pair, r)
            assert out.residual <= pair.residual + 1e-10

    def test_invalid_bipartition_rejected(self, chain):
        pair = nqz_spectral_radius(chain)
        for row, message in [
            (head_row(7, (1, 2)), "lacks a unique head"),  # two heads in the first edge
            (head_row(7, (1,)), "lacks a unique head"),  # none in the second
            (head_row(6, (1, 5)), "7 entries"),
            ([0, 1, 1, 1, 0, 2, 1], "7 entries"),
        ]:
            with pytest.raises(ValueError, match=message):
                hm_spectral_reflection(chain, row, pair, 1)

    def test_unverified_pair_rejected(self):
        h = single_edge(3)
        bogus = Eigenpair("adjacency", 5 + 0j, np.ones(3, dtype=complex), 0.0)
        with pytest.raises(ValueError):
            hm_spectral_reflection(h, [0, 1, 1], bogus, 1)


class TestSpectralRadius:
    def test_single_edge_k3_regular(self):
        pair = nqz_spectral_radius(single_edge(3))
        assert abs(pair.value - 1) < 1e-10
        assert pair.residual <= 1e-8

    def test_single_edge_k4_regular(self):
        pair = nqz_spectral_radius(single_edge(4))
        assert abs(pair.value - 1) < 1e-10

    def test_chain_value_pinned(self, chain):
        pair = nqz_spectral_radius(chain)
        assert abs(pair.value - 1.3782407724892) < 1e-6
        assert 1 < pair.value.real <= 2
        assert pair.residual <= 1e-8
        assert np.all(pair.vector.real > 0)

    def test_edge_index_built_once_per_call(self, chain, monkeypatch):
        """Every power step reuses one edge index; only the closing residual
        check, through ``apply_operator``, builds another."""
        from zerolap import tensor_ops

        builds, steps = [], []
        build, kernel = tensor_ops.edge_index, tensor_ops._apply_adjacency
        monkeypatch.setattr(tensor_ops, "edge_index", lambda h: builds.append(h) or build(h))
        monkeypatch.setattr(
            tensor_ops, "_apply_adjacency", lambda *args: steps.append(1) or kernel(*args)
        )
        nqz_spectral_radius(chain)
        assert len(steps) > 10
        assert len(builds) == 2

    def test_exhausted_iteration_cap_raises(self, chain):
        with pytest.raises(BudgetExceededError, match="within 3 iterations"):
            nqz_spectral_radius(chain, max_iterations=3)

    def test_disconnected_rejected(self):
        h = Hypergraph(3, 6, ((1, 2, 3),))
        with pytest.raises(ValueError):
            nqz_spectral_radius(h)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            nqz_spectral_radius(Hypergraph(3, 3, ()))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_hm_instances_verify(self, seed):
        rng = random.Random(40 + seed)
        k = rng.choice([3, 4, 5])
        h, (v1, v2) = random_hm_bipartite(rng, k, rng.randint(1, 2), k + 2)
        pair = nqz_spectral_radius(h)
        assert pair.residual <= 1e-8
        for r in range(k):
            out = hm_spectral_reflection(h, head_row(h.n, v1), pair, r)
            assert out.residual <= pair.residual + 1e-10
