import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerolap import (
    Hypergraph,
    connected_components,
    smith_normal_form,
    solve_mod_k,
    zk_solver,
)
from zerolap.corpus import random_connected_hypergraph, random_hypergraph
from zerolap.eigenstructure import solve_components
from zerolap.errors import VerificationError
from zerolap.tensor_ops import edge_index
from zerolap.zk_solver import (
    CHECK_ROWS,
    check_howell_form,
    edge_residue,
    howell_form,
    lex_solutions,
)

import oracles
from conftest import single_edge

CHAIN_EDGES = edge_index(Hypergraph(3, 7, ((1, 2, 3), (3, 4, 5), (5, 6, 7))))
# the three 2-edges of a triangle: twice the exponent sum is 3 (mod 4), impossible
TRIANGLE_EDGES = np.array([[0, 1], [1, 2], [0, 2]])


def _solve(edges, width, modulus, rhs):
    return solve_mod_k(howell_form(np.asarray(edges), width, modulus), rhs)


def _all_solutions(desc):
    """Every solution, in lexicographic order."""
    return lex_solutions(desc)


def _satisfies(modulus, edges, rhs, values):
    """Exact integer check of every edge of the system on one exponent tuple."""
    return all(sum(values[v] for v in e) % modulus == rhs for e in np.asarray(edges).tolist())


# ---------------------------------------------------------------- systems

class TestEdgeSystem:
    def test_chain_laplacian_system(self, chain):
        edges = edge_index(chain)
        assert edges.shape == (3, 3)
        assert edges.tolist() == [[0, 1, 2], [2, 3, 4], [4, 5, 6]]
        assert edge_residue(chain.k, "laplacian") == 0

    def test_single_edge_k4_signless_rhs(self):
        assert edge_residue(4, "signless") == 2

    def test_single_edge_k3_signless_marker(self):
        (record,) = solve_components(single_edge(3))["signless"].components
        assert record.description is None
        assert not record.feasible and record.solution_count == 0

    def test_singleton_component_always_feasible(self, eliminations):
        h = Hypergraph(3, 4, ((1, 2, 3),))
        solved = solve_components(h)
        assert eliminations == [3]  # the edge's component only
        for operator in ("laplacian", "signless"):
            record = solved[operator].components[1]
            assert record.component == (4,) and record.singleton
            desc = record.description
            assert desc.feasible and desc.solution_count == 3
            assert desc.kernel.tolist() == [[1]] and desc.particular.tolist() == [0]


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

    def test_chain_incidence_invariant_factors(self):
        _, S, _ = smith_normal_form(oracles.incidence_matrix(7, CHAIN_EDGES))
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
    def test_chain_solution_count(self):
        desc = _solve(CHAIN_EDGES, 7, 3, 0)
        assert desc.feasible
        assert (desc.modulus, desc.width) == (3, 7)
        assert desc.solution_count == 81
        assert desc.orders.tolist() == [3, 3, 3, 3]

    def test_single_edge_k4_signless_count(self):
        desc = _solve(edge_index(single_edge(4)), 4, 4, 2)
        assert desc.solution_count == 64

    def test_infeasible_even_system(self):
        desc = _solve(TRIANGLE_EDGES, 3, 4, 1)
        assert not desc.feasible
        assert desc.solution_count == 0
        assert (desc.modulus, desc.width) == (4, 3)

    def test_particular_solution_satisfies(self):
        desc = _solve(CHAIN_EDGES, 7, 3, 0)
        assert _satisfies(3, CHAIN_EDGES, 0, desc.particular)

    def test_one_form_serves_every_residue(self):
        form = howell_form(TRIANGLE_EDGES, 3, 4)
        counts = [solve_mod_k(form, rhs).solution_count for rhs in range(4)]
        assert counts == [len(oracles.system_solutions(4, 3, TRIANGLE_EDGES, r)) for r in range(4)]
        assert counts == [2, 0, 2, 0]

    def test_vertex_order_within_an_edge_is_immaterial(self, k4_overlap):
        edges = edge_index(k4_overlap)
        form = howell_form(edges, 6, 4)
        shuffled = howell_form(edges[:, ::-1].copy(), 6, 4)
        for part in ("image", "transform", "kernel"):
            assert np.array_equal(getattr(form, part), getattr(shuffled, part))

    @pytest.mark.parametrize("seed", range(12))
    def test_counts_match_brute_force(self, seed):
        rng = random.Random(1000 + seed)
        k = rng.choice([2, 3, 4, 5, 6])
        n = rng.randint(k, min(k + 4, 9))
        if k**n > 200_000:
            n = k
        h = random_hypergraph(rng, k, n, rng.randint(1, 4))
        form = howell_form(edge_index(h), n, k)
        for rhs in (0, k // 2):
            desc = solve_mod_k(form, rhs)
            expected = len(oracles.edge_sum_solutions(k, range(1, n + 1), h.edges, rhs))
            assert desc.solution_count == expected


class TestEnumeration:
    def test_chain_enumerates_81_distinct(self):
        sols = _all_solutions(_solve(CHAIN_EDGES, 7, 3, 0)).tolist()
        assert len(sols) == 81
        assert len({tuple(v) for v in sols}) == 81
        assert all(_satisfies(3, CHAIN_EDGES, 0, v) for v in sols)

    def test_limit_one_gives_least_solution(self):
        """The first row listed is the lexicographically least solution."""
        desc = _solve(CHAIN_EDGES, 7, 3, 0)
        first = lex_solutions(desc, 1)
        assert first.shape == (1, 7)
        assert tuple(first[0].tolist()) == (0,) * 7

    def test_single_edge_k3_nine_solutions(self):
        sols = _all_solutions(_solve(edge_index(single_edge(3)), 3, 3, 0))
        assert sols.shape == (9, 3)
        assert (sols.sum(axis=1) % 3 == 0).all()

    def test_infeasible_enumeration_raises(self):
        desc = _solve(TRIANGLE_EDGES, 3, 4, 1)
        with pytest.raises(ValueError):
            lex_solutions(desc)

    def test_enumeration_exhausts_exactly(self):
        sols = _all_solutions(_solve(edge_index(single_edge(4)), 4, 4, 2)).tolist()
        assert len(sols) == 64
        assert len({tuple(v) for v in sols}) == 64

    def test_listing_cost_follows_the_limit_not_the_order(self):
        """One free exponent of order 10^12: the first three solutions come
        without expanding the 10^12 values of that exponent."""
        k = 10**12
        desc = zk_solver.SolutionDescription(k, np.array([0, 5]), np.array([[1, 0]]))
        assert lex_solutions(desc, 3).tolist() == [[0, 5], [1, 5], [2, 5]]

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
        edges = edge_index(h)
        for rhs in (0, k // 2):
            desc = _solve(edges, n, k, rhs)
            brute = oracles.system_solutions(k, n, edges, rhs)
            if not brute:
                assert not desc.feasible
                continue
            rows = [tuple(v) for v in lex_solutions(desc, limit).tolist()]
            assert rows == brute[:limit]


class TestLargeKernelListing:
    """Listing from a kernel of hundreds of rows: a 4-uniform hypertree of
    301 vertices and 100 edges, whose Laplacian system has 4^201 solutions."""

    @pytest.fixture(scope="class")
    def listed(self):
        edges = edge_index(random_connected_hypergraph(random.Random(0), 4, 301))
        desc = _solve(edges, 301, 4, 0)
        expected = list(itertools.islice(oracles.canonical_solutions(4, 301, edges, 0), 50))
        return desc, expected

    def test_first_rows_are_the_least_solutions(self, listed):
        desc, expected = listed
        assert len(desc.kernel) == 201
        assert [tuple(v) for v in lex_solutions(desc, 50).tolist()] == expected

    @pytest.mark.parametrize("row", [0, 100, -1])
    def test_listing_starts_from_any_particular_solution(self, listed, row):
        """The same rows when the particular solution is the least one
        plus a kernel row, the last row's pivot being the last vertex."""
        desc, expected = listed
        least = lex_solutions(desc, 1)[0]
        moved = zk_solver.SolutionDescription(4, (least + desc.kernel[row]) % 4, desc.kernel)
        assert tuple(moved.particular.tolist()) != expected[0]
        assert [tuple(v) for v in lex_solutions(moved, 50).tolist()] == expected


# ---------------------------------------------------------------- differential

def _edge_lists(width, max_edges, min_edges=1):
    """Lists of edges over ``width`` unknowns, each edge a row of 1..width
    distinct 0-based indices, all edges of one list the same size."""
    return st.integers(1, width).flatmap(
        lambda size: st.lists(
            st.lists(st.integers(0, width - 1), min_size=size, max_size=size, unique=True),
            min_size=min_edges,
            max_size=max_edges,
        )
    )


@st.composite
def zk_systems(draw):
    """Small edge systems over Z_N: random edge indexes with any residue,
    so many are infeasible, and rows need not have N vertices."""
    n = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 12]))
    m = draw(st.integers(1, 4 if n <= 6 else 3))
    edges = np.array(draw(_edge_lists(m, 5)), dtype=np.intp)
    return n, m, edges, draw(st.integers(0, n - 1))


@st.composite
def edge_systems(draw):
    """One component's record from ``solve_components`` on a random
    k-uniform hypergraph, either operator, with the component's edges:
    k = 6 signless systems and singleton components included."""
    k = draw(st.sampled_from([2, 3, 4, 6]))
    n = draw(st.integers(k, {2: 8, 3: 7, 4: 6, 6: 7}[k]))
    h = random_hypergraph(random.Random(draw(st.integers(0, 2**32))), k, n, draw(st.integers(1, 4)))
    operator = draw(st.sampled_from(["laplacian", "signless"]))
    i = draw(st.integers(0, len(connected_components(h)) - 1))
    record = solve_components(h)[operator].components[i]
    edges = oracles.component_edges(h, record.component)
    return record, (k, len(record.component), edges, edge_residue(k, operator))


def _check_against_brute_force(desc, system):
    brute = oracles.system_solutions(*system)
    assert desc.feasible == bool(brute)
    assert desc.solution_count == len(brute) == oracles.snf_solution_count(*system)
    if brute:
        assert tuple(desc.particular.tolist()) in brute
        assert [tuple(x) for x in lex_solutions(desc).tolist()] == brute


@settings(deadline=None)
@given(zk_systems())
def test_solve_matches_brute_force_and_smith_form(system):
    n, m, edges, rhs = system
    _check_against_brute_force(_solve(edges, m, n, rhs), system)


@settings(deadline=None, max_examples=60)
@given(edge_systems())
def test_edge_systems_match_brute_force_and_smith_form(case):
    record, system = case
    k, width, edges, rhs = system
    if record.description is None:  # odd k, signless, a component with an edge
        assert k % 2 and edges and not record.feasible
        return
    _check_against_brute_force(record.description, system)


class TestCertificate:
    """Each clause of ``check_howell_form``, and the particular solution's
    check, rejects a form broken in that clause alone."""

    @pytest.fixture
    def form(self, k4_overlap):
        form = howell_form(edge_index(k4_overlap), 6, 4)
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

    @pytest.mark.parametrize("part,match", [("transform", "T1"), ("kernel", "kernel row")])
    def test_rows_past_the_first_block_are_checked(self, part, match):
        """The first row of the second block of ``CHECK_ROWS`` rows, broken
        alone, is caught: a loose path of 3-edges has more rows than one
        block in both parts."""
        edges = np.array([[2 * i, 2 * i + 1, 2 * i + 2] for i in range(CHECK_ROWS + 10)])
        form = howell_form(edges, 2 * len(edges) + 1, 3)
        rows = getattr(form, part).copy()
        rows[CHECK_ROWS, 0] = (rows[CHECK_ROWS, 0] + 1) % 3
        self._rejected(form, match, **{part: rows})

    def test_rows_must_be_echelon(self, form):
        self._rejected(form, "echelon", kernel=form.kernel[::-1].copy())

    def test_pivots_must_divide_modulus(self, form):
        kernel = form.kernel.copy()
        kernel[0] = kernel[0] * 3 % 4  # 3 is a unit, so the row still solves
        self._rejected(form, "dividing", kernel=kernel)

    def test_rows_must_span_the_row_space(self, form):
        self._rejected(form, "span", kernel=form.kernel[:-1].copy())

    def test_particular_solution_must_solve(self, form):
        assert solve_mod_k(form, 2).feasible
        broken = dataclasses.replace(form, transform=np.zeros_like(form.transform))
        with pytest.raises(VerificationError, match="particular solution"):
            solve_mod_k(broken, 2)


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
    edges = edge_index(h)
    for rhs in (0, k // 2):
        desc = _solve(edges, n, k, rhs)
        if not desc.feasible:
            continue
        for values in _all_solutions(desc)[:10].tolist():
            assert _satisfies(k, edges, rhs, [(v + 1) % k for v in values])


@pytest.mark.parametrize("seed", range(6))
def test_shift_orbits_partition_solutions(seed):
    """Canonical representatives x orbit size k exactly covers the solution set."""
    rng = random.Random(2000 + seed)
    k = rng.choice([3, 4, 5])
    n = rng.randint(k, 7)
    h = random_hypergraph(rng, k, n, 2)
    desc = _solve(edge_index(h), n, k, 0)
    canonical = {oracles.shift_min(v, k) for v in _all_solutions(desc).tolist()}
    assert len(canonical) * k == desc.solution_count


def test_smith_form_checks_its_reconstruction(monkeypatch):
    """A wrong product in the closing U * A * V check is caught."""
    smith_normal_form([[1, 1, 0], [0, 1, 1]])
    monkeypatch.setattr(zk_solver, "mul", lambda a, b: a * b + 1)
    with pytest.raises(VerificationError, match="reconstruction failed"):
        smith_normal_form([[1, 1, 0], [0, 1, 1]])
