import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zerolap import (
    Hypergraph,
    ZkLinearSystem,
    build_zero_eig_system,
    connected_components,
    smith_normal_form,
    solve_mod_k,
)
from zerolap.corpus import random_hypergraph
from zerolap.errors import VerificationError
from zerolap.zk_solver import (
    check_howell_form,
    eliminate_mod_prime,
    howell_form,
    incidence_rows,
    lex_solutions,
)

import oracles
from conftest import single_edge


def _all_solutions(desc):
    """Every solution, in lexicographic order."""
    return lex_solutions(desc)


def _satisfies(sys, values):
    """Exact integer check of every row of ``sys`` on one exponent tuple."""
    return all(
        sum(c * v for c, v in zip(row, values)) % sys.modulus == r
        for row, r in zip(sys.rows, sys.rhs)
    )


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
        assert [order for _, order in desc.kernel] == [3, 3, 3, 3]

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

    def test_foreign_factorization_rejected(self, chain, k4_overlap):
        sys = build_zero_eig_system(k4_overlap, range(1, 7), "laplacian")
        verts, chain_rows = incidence_rows(chain, range(1, 8))
        with pytest.raises(ValueError, match="different coefficient matrix"):
            solve_mod_k(sys, howell_form(chain_rows, len(verts), 4))
        with pytest.raises(ValueError, match="or modulus"):
            solve_mod_k(sys, howell_form(sys.rows, len(sys.vertices), 2))

    def test_particular_solution_satisfies(self, chain):
        sys = build_zero_eig_system(chain, range(1, 8), "laplacian")
        desc = solve_mod_k(sys)
        assert _satisfies(sys, desc.particular)

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
        sols = _all_solutions(solve_mod_k(sys)).tolist()
        assert len(sols) == 81
        assert len({tuple(v) for v in sols}) == 81
        assert all(_satisfies(sys, v) for v in sols)

    def test_limit_one_gives_particular(self, chain):
        """The particular solution is the lexicographically least one."""
        sys = build_zero_eig_system(chain, range(1, 8), "laplacian")
        desc = solve_mod_k(sys)
        first = lex_solutions(desc, 1)
        assert first.shape == (1, 7)
        assert tuple(first[0].tolist()) == desc.particular == (0,) * 7

    def test_single_edge_k3_nine_solutions(self):
        sys = build_zero_eig_system(single_edge(3), (1, 2, 3), "laplacian")
        sols = _all_solutions(solve_mod_k(sys))
        assert sols.shape == (9, 3)
        assert (sols.sum(axis=1) % 3 == 0).all()

    def test_infeasible_enumeration_raises(self):
        desc = solve_mod_k(ZkLinearSystem(4, (1,), ((2,),), (1,)))
        with pytest.raises(ValueError):
            lex_solutions(desc)

    def test_enumeration_exhausts_exactly(self):
        sys = build_zero_eig_system(single_edge(4), (1, 2, 3, 4), "signless")
        sols = _all_solutions(solve_mod_k(sys)).tolist()
        assert len(sols) == 64
        assert len({tuple(v) for v in sols}) == 64

    @pytest.mark.parametrize("limit", [1, 7, 1 << 12])
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_follow_kernel_coordinate_order(self, seed, limit):
        """Expanding the echelon kernel's coordinates in ``itertools.product``
        order, each prefix first brought to its least value at the pivot,
        lists the solutions in lexicographic order: the first ``limit`` rows
        are the first ``limit`` brute-force solutions, sorted."""
        rng = random.Random(5000 + seed)
        k = rng.choice([3, 4, 6])
        n = rng.randint(k, 7)
        h = random_hypergraph(rng, k, n, rng.randint(1, 3))
        for operator in ("laplacian", "signless"):
            sys = build_zero_eig_system(h, range(1, n + 1), operator)
            if sys is None:
                continue
            desc = solve_mod_k(sys)
            brute = oracles.system_solutions(sys)
            if not brute:
                assert not desc.feasible
                continue
            rows = [tuple(v) for v in lex_solutions(desc, limit).tolist()]
            assert rows == brute[:limit]


# ---------------------------------------------------------------- differential

@st.composite
def zk_systems(draw):
    """Small systems over Z_N with arbitrary rows and residues, so many are
    infeasible; row-free systems included."""
    n = draw(st.sampled_from([2, 3, 4, 6, 8, 9, 12]))
    m = draw(st.integers(1, 4 if n <= 6 else 3))
    row = st.lists(st.integers(0, 2 * n), min_size=m, max_size=m).map(tuple)
    rows = tuple(draw(st.lists(row, max_size=5)))
    rhs = tuple(draw(st.lists(st.integers(0, n - 1), min_size=len(rows), max_size=len(rows))))
    return ZkLinearSystem(n, tuple(range(1, m + 1)), rows, rhs)


@st.composite
def edge_systems(draw):
    """One component's system of a random k-uniform hypergraph, either
    operator: k = 6 signless systems and singleton components included."""
    k = draw(st.sampled_from([2, 3, 4, 6]))
    n = draw(st.integers(k, {2: 8, 3: 7, 4: 6, 6: 7}[k]))
    h = random_hypergraph(random.Random(draw(st.integers(0, 2**32))), k, n, draw(st.integers(1, 4)))
    component = draw(st.sampled_from(connected_components(h).components))
    sys = build_zero_eig_system(h, component, draw(st.sampled_from(["laplacian", "signless"])))
    assume(sys is not None)
    return sys


def _check_against_brute_force(sys):
    brute = oracles.system_solutions(sys)
    desc = solve_mod_k(sys)
    assert desc.feasible == bool(brute)
    assert desc.solution_count == len(brute) == oracles.snf_solution_count(sys)
    if brute:
        assert desc.particular == brute[0]
        assert [tuple(x) for x in lex_solutions(desc).tolist()] == brute


@settings(deadline=None)
@given(zk_systems())
def test_solve_matches_brute_force_and_smith_form(sys):
    _check_against_brute_force(sys)


@settings(deadline=None, max_examples=60)
@given(edge_systems())
def test_edge_systems_match_brute_force_and_smith_form(sys):
    _check_against_brute_force(sys)


class TestCertificate:
    """Each clause of ``check_howell_form``, and the particular solution's
    check, rejects a form broken in that clause alone."""

    @pytest.fixture
    def form(self, k4_overlap):
        verts, rows = incidence_rows(k4_overlap, range(1, 7))
        form = howell_form(rows, len(verts), 4)
        assert len(form.image) and len(form.kernel) >= 2
        return form

    def _rejected(self, form, match, **change):
        with pytest.raises(VerificationError, match=match):
            check_howell_form(dataclasses.replace(form, **change))

    def test_transform_must_map_onto_image(self, form):
        transform = form.transform.copy()
        transform[0, -1] = (transform[0, -1] + 1) % 4
        self._rejected(form, "T1", transform=transform)

    def test_kernel_rows_must_solve(self, form):
        kernel = form.kernel.copy()
        kernel[-1, -1] = (kernel[-1, -1] + 1) % 4
        self._rejected(form, "kernel row", kernel=kernel)

    def test_rows_must_be_echelon(self, form):
        self._rejected(form, "echelon", kernel=form.kernel[::-1].copy())

    def test_pivots_must_divide_modulus(self, form):
        kernel = form.kernel.copy()
        kernel[0] = kernel[0] * 3 % 4  # 3 is a unit, so the row still solves
        self._rejected(form, "dividing", kernel=kernel)

    def test_rows_must_span_the_row_space(self, form):
        self._rejected(form, "span", kernel=form.kernel[:-1].copy())

    def test_particular_solution_must_solve(self, form, k4_overlap):
        sys = build_zero_eig_system(k4_overlap, range(1, 7), "signless")
        assert solve_mod_k(sys, form).feasible
        broken = dataclasses.replace(form, transform=np.zeros_like(form.transform))
        with pytest.raises(VerificationError, match="particular solution"):
            solve_mod_k(sys, broken)


# ---------------------------------------------------------------- canonical form and kind

def _conjugate(values, k):
    return oracles.shift_min(tuple((-v) % k for v in values), k)


class TestCanonicalization:
    def test_constant_collapses_to_zero(self):
        assert oracles.shift_min((2, 2, 2), 3) == (0, 0, 0)

    def test_lexicographic_choice(self):
        assert oracles.shift_min((1, 2, 0), 3) == (0, 1, 2)

    def test_conjugate_example(self):
        assert _conjugate((0, 1, 2), 3) == (0, 2, 1)

    def test_constant_class_self_conjugate(self):
        assert _conjugate((0, 0), 5) == (0, 0)


small_assignments = st.integers(2, 7).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), min_size=1, max_size=8).map(tuple))
)


@given(small_assignments)
def test_canonicalize_idempotent(a):
    k, values = a
    c = oracles.shift_min(values, k)
    assert oracles.shift_min(c, k) == c
    assert c[0] == 0
    assert c == tuple((v - values[0]) % k for v in values)


@given(small_assignments, st.integers(0, 6))
def test_canonicalize_kills_shifts(a, t):
    k, values = a
    shifted = tuple((v + t) % k for v in values)
    assert oracles.shift_min(shifted, k) == oracles.shift_min(values, k)


@given(small_assignments)
def test_conjugation_is_involution_on_canonical(a):
    k, values = a
    c = oracles.shift_min(values, k)
    assert _conjugate(_conjugate(c, k), k) == c


@given(small_assignments, st.integers(0, 6))
def test_classification_invariant_under_shift_and_conjugation(a, t):
    k, values = a
    shifted = tuple((v + t) % k for v in values)
    assert oracles.real_scalable(values, k) == oracles.real_scalable(shifted, k)
    assert oracles.real_scalable(values, k) == oracles.real_scalable(_conjugate(values, k), k)


@given(small_assignments)
def test_odd_modulus_H_means_constant(a):
    k, values = a
    if k % 2 == 1 and oracles.real_scalable(values, k):
        assert len(set(values)) == 1


class TestClassification:
    def test_constant_is_H(self):
        assert oracles.real_scalable((3, 3), 4)

    def test_half_turn_values_are_H(self):
        assert oracles.real_scalable((0, 2, 0), 4)

    def test_three_values_are_N(self):
        assert not oracles.real_scalable((0, 1, 2), 3)

    def test_two_values_not_half_turn_are_N(self):
        assert not oracles.real_scalable((0, 1), 4)


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
        for values in _all_solutions(desc)[:10].tolist():
            assert _satisfies(sys, [(v + 1) % k for v in values])


@pytest.mark.parametrize("seed", range(6))
def test_shift_orbits_partition_solutions(seed):
    """Canonical representatives x orbit size k exactly covers the solution set."""
    rng = random.Random(2000 + seed)
    k = rng.choice([3, 4, 5])
    n = rng.randint(k, 7)
    h = random_hypergraph(rng, k, n, 2)
    sys = build_zero_eig_system(h, range(1, n + 1), "laplacian")
    desc = solve_mod_k(sys)
    canonical = {oracles.shift_min(v, k) for v in _all_solutions(desc).tolist()}
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
