import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zerolap import (
    Hypergraph,
    ZkAssignment,
    ZkLinearSystem,
    assignment_satisfies,
    build_zero_eig_system,
    classify_H_or_N,
    conjugate_assignment,
    enumerate_solutions,
    shift_canonicalize,
    smith_normal_form,
    solve_mod_k,
)
from zerolap.corpus import random_hypergraph
from zerolap.zk_solver import eliminate_mod_prime

import oracles
from conftest import single_edge


# ---------------------------------------------------------------- systems

class TestBuildSystem:
    def test_chain_laplacian_system(self, chain):
        sys = build_zero_eig_system(chain, range(1, 8), "laplacian")
        assert sys.modulus == 3
        assert len(sys.vertices) == 7
        assert len(sys.rows) == 3
        assert sys.rhs == (0, 0, 0)
        assert all(sum(row) == 3 for row in sys.rows)

    def test_single_edge_k4_signless_rhs(self):
        sys = build_zero_eig_system(single_edge(4), (1, 2, 3, 4), "signless")
        assert sys.rhs == (2,)

    def test_single_edge_k3_signless_marker(self):
        assert build_zero_eig_system(single_edge(3), (1, 2, 3), "signless") is None

    def test_singleton_component_always_feasible(self):
        h = Hypergraph(3, 4, ((1, 2, 3),))
        for operator in ("laplacian", "signless"):
            sys = build_zero_eig_system(h, (4,), operator)
            assert sys.rows == ()
            desc = solve_mod_k(sys)
            assert desc.feasible and desc.solution_count == 3

    def test_unknown_operator_rejected(self, chain):
        with pytest.raises(ValueError):
            build_zero_eig_system(chain, range(1, 8), "adjacency")


# ---------------------------------------------------------------- Smith form

def _random_int_matrix(rng, rows, cols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _snf_case_matrix(case):
    """(rows, cols, matrix) for one parameter case of the sympy comparison.

    "mixed": small entries in -4..4. "incidence": 0/1 matrices up to 12x12,
    where the unit-pivot shortcut fires. "no-unit": every nonzero entry has
    absolute value at least 2. "empty": a zero-width or row-free shape; a
    row-free matrix is the empty list whatever its nominal width.
    """
    kind, arg = case
    if kind == "empty":
        rows, cols = arg
        return rows, cols, [[] for _ in range(rows)]
    rng = random.Random(arg)
    if kind == "mixed":
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        return rows, cols, _random_int_matrix(rng, rows, cols)
    if kind == "incidence":
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.choice([0.2, 0.4, 0.6])
        return rows, cols, [[int(rng.random() < density) for _ in range(cols)] for _ in range(rows)]
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)  # "no-unit"
    entries = [x for x in range(-9, 10) if abs(x) != 1]
    return rows, cols, [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]


SNF_CASES = (
    [pytest.param(("mixed", seed), id=str(seed)) for seed in range(30)]
    + [pytest.param(("incidence", seed), id=f"incidence-{seed}") for seed in range(15)]
    + [pytest.param(("no-unit", seed), id=f"no-unit-{seed}") for seed in range(15)]
    + [
        pytest.param(("empty", shape), id=f"empty-{shape[0]}x{shape[1]}")
        for shape in [(0, 0), (0, 4), (1, 0), (3, 0)]
    ]
)


class TestSmithNormalForm:
    def test_identity(self):
        U, S, V = smith_normal_form([[1, 0], [0, 1]])
        assert S == [[1, 0], [0, 1]]

    def test_single_row_gcd(self):
        U, S, V = smith_normal_form([[1, 1, 1]])
        assert S[0][0] == 1
        assert S[0][1:] == [0, 0]

    def test_chain_incidence_invariant_factors(self, chain):
        sys = build_zero_eig_system(chain, range(1, 8), "laplacian")
        _, S, _ = smith_normal_form(sys.rows)
        assert [S[i][i] for i in range(3)] == [1, 1, 1]

    def test_zero_matrix(self):
        _, S, _ = smith_normal_form([[0, 0], [0, 0]])
        assert S == [[0, 0], [0, 0]]

    @pytest.mark.parametrize("case", SNF_CASES)
    def test_random_matrices_against_sympy(self, case):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        shape_rows, shape_cols, M = _snf_case_matrix(case)
        rows, cols = len(M), len(M[0]) if M else 0  # a row-free list has no width
        U, S, V = smith_normal_form(M)

        # reconstruction over plain integers
        UM = [[sum(U[i][r] * M[r][j] for r in range(rows)) for j in range(cols)] for i in range(rows)]
        UMV = [[sum(UM[i][c] * V[c][j] for c in range(cols)) for j in range(cols)] for i in range(rows)]
        assert UMV == S

        # unimodular transforms
        assert abs(oracles.bareiss_det(U)) == 1
        assert abs(oracles.bareiss_det(V)) == 1

        # diagonal with a divisibility chain
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert S[i][j] == 0
        diag = [S[i][i] for i in range(min(rows, cols))]
        nonzero = [d for d in diag if d]
        assert diag[: len(nonzero)] == nonzero, "zero factors must trail"
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0

        expected = sympy_snf(sympy.Matrix(shape_rows, shape_cols, [x for row in M for x in row]))
        expected_diag = [abs(expected[i, i]) for i in range(min(shape_rows, shape_cols))]
        assert sorted(nonzero) == sorted(d for d in expected_diag if d)


# ---------------------------------------------------------------- solving

class TestSolveModK:
    def test_chain_solution_count(self, chain):
        sys = build_zero_eig_system(chain, range(1, 8), "laplacian")
        desc = solve_mod_k(sys)
        assert desc.feasible
        assert desc.solution_count == 81
        assert desc.invariant_factors == (1, 1, 1)

    def test_single_edge_k4_signless_count(self):
        sys = build_zero_eig_system(single_edge(4), (1, 2, 3, 4), "signless")
        desc = solve_mod_k(sys)
        assert desc.solution_count == 64

    def test_infeasible_even_system(self):
        # 2*alpha == 1 (mod 4) has no solution
        sys = ZkLinearSystem(4, (1,), ((2,),), (1,))
        desc = solve_mod_k(sys)
        assert not desc.feasible
        assert desc.solution_count == 0

    def test_particular_solution_satisfies(self, chain):
        sys = build_zero_eig_system(chain, range(1, 8), "laplacian")
        desc = solve_mod_k(sys)
        a = ZkAssignment(sys.modulus, sys.vertices, desc.particular)
        assert assignment_satisfies(sys, a)

    @pytest.mark.parametrize("seed", range(12))
    def test_counts_match_brute_force(self, seed):
        rng = random.Random(1000 + seed)
        k = rng.choice([2, 3, 4, 5, 6])
        n = rng.randint(k, min(k + 4, 9))
        if k**n > 200_000:
            n = k
        h = random_hypergraph(rng, k, n, rng.randint(1, 4))
        for operator, rhs in (("laplacian", 0), ("signless", k // 2)):
            sys = build_zero_eig_system(h, range(1, n + 1), operator)
            if sys is None:
                assert k % 2 == 1 and operator == "signless"
                continue
            desc = solve_mod_k(sys)
            brute = oracles.edge_sum_solutions(k, range(1, n + 1), h.edges, rhs if sys.rows else 0)
            expected = len(oracles.edge_sum_solutions(k, range(1, n + 1), h.edges, rhs)) if sys.rows else k**n
            assert desc.solution_count == expected


class TestEnumeration:
    def test_chain_enumerates_81_distinct(self, chain):
        sys = build_zero_eig_system(chain, range(1, 8), "laplacian")
        desc = solve_mod_k(sys)
        sols = list(enumerate_solutions(desc, 81))
        assert len(sols) == 81
        assert len({a.values for a in sols}) == 81
        assert all(assignment_satisfies(sys, a) for a in sols)

    def test_limit_one_gives_particular(self, chain):
        sys = build_zero_eig_system(chain, range(1, 8), "laplacian")
        desc = solve_mod_k(sys)
        (first,) = enumerate_solutions(desc, 1)
        assert first.values == desc.particular

    def test_single_edge_k3_nine_solutions(self):
        sys = build_zero_eig_system(single_edge(3), (1, 2, 3), "laplacian")
        sols = list(enumerate_solutions(solve_mod_k(sys), 9))
        assert len(sols) == 9
        assert all(sum(a.values) % 3 == 0 for a in sols)

    def test_infeasible_enumeration_raises(self):
        desc = solve_mod_k(ZkLinearSystem(4, (1,), ((2,),), (1,)))
        with pytest.raises(ValueError):
            list(enumerate_solutions(desc))

    def test_enumeration_exhausts_exactly(self):
        sys = build_zero_eig_system(single_edge(4), (1, 2, 3, 4), "signless")
        sols = list(enumerate_solutions(solve_mod_k(sys)))
        assert len(sols) == 64
        assert len({a.values for a in sols}) == 64


# ---------------------------------------------------------------- canonicalization

class TestCanonicalization:
    def test_constant_collapses_to_zero(self):
        a = ZkAssignment(3, (1, 2, 3), (2, 2, 2))
        assert shift_canonicalize(a).values == (0, 0, 0)

    def test_lexicographic_choice(self):
        a = ZkAssignment(3, (1, 2, 3), (1, 2, 0))
        assert shift_canonicalize(a).values == (0, 1, 2)

    def test_conjugate_example(self):
        a = ZkAssignment(3, (1, 2, 3), (0, 1, 2))
        assert conjugate_assignment(a).values == (0, 2, 1)

    def test_constant_class_self_conjugate(self):
        a = ZkAssignment(5, (1, 2), (0, 0))
        assert conjugate_assignment(a) == a


small_assignments = st.integers(2, 7).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), min_size=1, max_size=8).map(
        lambda vals: ZkAssignment(k, tuple(range(1, len(vals) + 1)), tuple(vals))
    )
)


@given(small_assignments)
def test_canonicalize_idempotent(a):
    c = shift_canonicalize(a)
    assert shift_canonicalize(c) == c
    assert c.values[0] == 0


@given(small_assignments, st.integers(0, 6))
def test_canonicalize_kills_shifts(a, t):
    shifted = ZkAssignment(
        a.modulus, a.vertices, tuple((v + t) % a.modulus for v in a.values)
    )
    assert shift_canonicalize(shifted) == shift_canonicalize(a)


@given(small_assignments)
def test_conjugation_is_involution_on_canonical(a):
    c = shift_canonicalize(a)
    assert conjugate_assignment(conjugate_assignment(c)) == c


@given(small_assignments, st.integers(0, 6))
def test_classification_invariant_under_shift_and_conjugation(a, t):
    shifted = ZkAssignment(
        a.modulus, a.vertices, tuple((v + t) % a.modulus for v in a.values)
    )
    assert classify_H_or_N(a) == classify_H_or_N(shifted)
    assert classify_H_or_N(a) == classify_H_or_N(conjugate_assignment(a))


@given(small_assignments)
def test_odd_modulus_H_means_constant(a):
    if a.modulus % 2 == 1 and classify_H_or_N(a) == "H":
        assert len(set(a.values)) == 1


class TestClassification:
    def test_constant_is_H(self):
        assert classify_H_or_N(ZkAssignment(4, (1, 2), (3, 3))) == "H"

    def test_half_turn_values_are_H(self):
        assert classify_H_or_N(ZkAssignment(4, (1, 2, 3), (0, 2, 0))) == "H"

    def test_three_values_are_N(self):
        assert classify_H_or_N(ZkAssignment(3, (1, 2, 3), (0, 1, 2))) == "N"

    def test_two_values_not_half_turn_are_N(self):
        assert classify_H_or_N(ZkAssignment(4, (1, 2), (0, 1))) == "N"


@pytest.mark.parametrize("seed", range(6))
def test_all_ones_shift_stays_in_solution_set(seed):
    """Each row has exactly k ones, so adding 1 to every exponent keeps
    every edge sum fixed mod k: the all-ones vector lies in the kernel."""
    rng = random.Random(4000 + seed)
    k = rng.choice([3, 4, 5])
    n = rng.randint(k, 7)
    h = random_hypergraph(rng, k, n, rng.randint(1, 3))
    for operator in ("laplacian", "signless"):
        sys = build_zero_eig_system(h, range(1, n + 1), operator)
        if sys is None:
            continue
        desc = solve_mod_k(sys)
        if not desc.feasible:
            continue
        for a in list(enumerate_solutions(desc, 10)):
            shifted = ZkAssignment(
                k, a.vertices, tuple((v + 1) % k for v in a.values)
            )
            assert assignment_satisfies(sys, shifted)


@pytest.mark.parametrize("seed", range(6))
def test_shift_orbits_partition_solutions(seed):
    """Canonical representatives x orbit size k exactly covers the solution set."""
    rng = random.Random(2000 + seed)
    k = rng.choice([3, 4, 5])
    n = rng.randint(k, 7)
    h = random_hypergraph(rng, k, n, 2)
    sys = build_zero_eig_system(h, range(1, n + 1), "laplacian")
    desc = solve_mod_k(sys)
    canonical = {shift_canonicalize(a).values for a in enumerate_solutions(desc)}
    assert len(canonical) * k == desc.solution_count


@st.composite
def prime_systems(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, 2 * p), min_size=m, max_size=m)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    rhs = draw(st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows)))
    return p, rows, rhs


@given(prime_systems())
def test_elimination_mod_prime_matches_brute_force(system):
    p, rows, rhs = system
    solutions = {
        x
        for x in itertools.product(range(p), repeat=len(rows[0]))
        if all(sum(a * b for a, b in zip(row, x)) % p == r for row, r in zip(rows, rhs))
    }
    affine = eliminate_mod_prime(np.array(rows), np.array(rhs), p)
    if not solutions:
        assert affine is None
        return
    x0, basis = affine
    listed = [
        tuple(((x0 + np.array(t, dtype=np.int64) @ basis) % p).tolist())
        for t in itertools.product(range(p), repeat=len(basis))
    ]
    assert len(set(listed)) == len(listed)
    assert set(listed) == solutions
