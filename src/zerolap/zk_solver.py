"""Exact solver for per-edge phase-exponent systems over Z_k.

A zero eigenvector of the Laplacian (signless Laplacian) tensor restricted
to a connected component is, up to a global scalar, a vector of k-th roots
of unity exp(2*pi*i*alpha_v/k) whose exponents satisfy one linear congruence
per edge: the exponents of an edge sum to 0 (resp. k/2) mod k. This module
solves those systems exactly: feasibility, a particular solution, a kernel
description that enumerates every solution exactly once, and the exact
solution count. ``solution_blocks`` lists the solutions as integer arrays,
one row of exponents per solution.

Everything is integer arithmetic; Smith normal form is computed over Z so
that composite moduli (k = 4, 6, ...) are handled uniformly. Z_k is not a
field for composite k, so naive modular pivoting would be unsound.

The Smith form depends only on a component's 0/1 incidence rows, not on
the operator, the right-hand side or the modulus. ``factor_rows`` computes
it once, and ``solve_mod_k`` reuses that one factorization for the
Laplacian and signless systems and for the modulus-2 subsystem.
"""

import itertools
import math
from dataclasses import dataclass
from operator import mul
from typing import Iterator, Sequence

import numpy as np

from .errors import VerificationError
from .hypergraph import Hypergraph, induced_subhypergraph

LAPLACIAN = "laplacian"
SIGNLESS = "signless"
ZERO_EIG_OPERATORS = (LAPLACIAN, SIGNLESS)
# Entries (solutions x vertices) per array block: bounds the memory of a
# block while keeping the number of numpy calls per block small.
BLOCK_CELLS = 1 << 12


@dataclass(frozen=True)
class ZkLinearSystem:
    """A system of congruences rows * alpha == rhs (mod modulus).

    Column j corresponds to ``vertices[j]``. For edge systems every row is
    the 0/1 incidence vector of one edge, so it has exactly k ones.
    """

    modulus: int
    vertices: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if len(self.rows) != len(self.rhs):
            raise ValueError("rows and rhs length mismatch")
        m = len(self.vertices)
        if any(len(r) != m for r in self.rows):
            raise ValueError("row width does not match vertex count")


@dataclass(frozen=True)
class SolutionDescription:
    """Algebraic description of all solutions of a ZkLinearSystem.

    ``kernel`` is a tuple of (generator, order) pairs; the solution set is
    exactly {particular + sum_j t_j * gen_j : 0 <= t_j < order_j}, every
    combination giving a distinct solution, so ``solution_count`` is the
    product of the orders.
    """

    system: ZkLinearSystem
    feasible: bool
    particular: tuple[int, ...] | None
    kernel: tuple[tuple[tuple[int, ...], int], ...]
    invariant_factors: tuple[int, ...]
    solution_count: int


def build_zero_eig_system(
    h: Hypergraph, component: Sequence[int], operator: str
) -> ZkLinearSystem | None:
    """Edge-sum congruence system for the zero eigenvalue on one component.

    Returns None (the no-solution marker) for the signless operator with
    odd k on a component that has at least one edge: the required residue
    k/2 is not an integer, so zero is never a signless eigenvalue there.
    Singleton components yield a degenerate row-free system, which is
    always feasible (the vertex's tensor block is zero).
    """
    if operator not in ZERO_EIG_OPERATORS:
        raise ValueError(f"unknown operator {operator!r}")
    verts, rows = incidence_rows(h, component)
    k = h.k
    if operator == SIGNLESS and k % 2 == 1 and rows:
        return None
    residue = edge_residue(k, operator)
    return ZkLinearSystem(k, verts, rows, tuple(residue for _ in rows))


def edge_residue(k: int, operator: str) -> int:
    """Exponent sum mod k that every edge needs: 0 (Laplacian) or k/2 (signless)."""
    return 0 if operator == LAPLACIAN else k // 2


def incidence_rows(
    h: Hypergraph, component: Sequence[int]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Sorted vertices of ``component`` and one 0/1 row per edge inside it.

    These rows are the coefficient matrix of every edge system on the
    component, whatever the operator, right-hand side or modulus.
    """
    sub, verts = induced_subhypergraph(h, component)
    rows = []
    for e in sub.edges:
        row = [0] * len(verts)
        for v in e:
            row[v - 1] = 1
        rows.append(tuple(row))
    return verts, tuple(rows)


@dataclass(frozen=True)
class SmithFactorization:
    """U * rows * V == diag(diagonal) of one integer matrix.

    Independent of right-hand side and modulus, so one factorization of a
    component's incidence rows serves both operators' systems and the
    modulus-2 subsystem. ``diagonal`` holds S[i][i] for i < min(rows, cols).
    """

    rows: tuple[tuple[int, ...], ...]
    U: list[list[int]]
    V: list[list[int]]
    diagonal: tuple[int, ...]


def factor_rows(rows: tuple[tuple[int, ...], ...]) -> SmithFactorization:
    """Smith-factor a nonempty coefficient matrix for repeated solves."""
    U, S, V = smith_normal_form(rows)
    return SmithFactorization(rows, U, V, tuple(S[i][i] for i in range(min(len(S), len(V)))))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with x*a + y*b == g == gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form over the integers with transform tracking.

    Returns (U, S, V) with U * matrix * V == S, U and V unimodular, and S
    diagonal with d_1 | d_2 | ... >= 0. Arbitrary-precision integers
    throughout; the factorization is re-multiplied before returning and a
    mismatch raises VerificationError.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if any(len(row) != ncols for row in matrix):
        raise ValueError("ragged matrix")
    S = [[int(x) for x in row] for row in matrix]
    U = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def swap_rows(a, b):
        S[a], S[b] = S[b], S[a]
        U[a], U[b] = U[b], U[a]

    def swap_cols(a, b):
        for row in S:
            row[a], row[b] = row[b], row[a]
        for row in V:
            row[a], row[b] = row[b], row[a]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        S[dst] = [x + q * y for x, y in zip(S[dst], S[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in S:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(a):
        S[a] = [-x for x in S[a]]
        U[a] = [-x for x in U[a]]

    def rows_2x2(i, j, p, q, r, s):
        # (row_i, row_j) <- (p*row_i + q*row_j, r*row_i + s*row_j); p*s - q*r == +-1
        Si, Sj = S[i], S[j]
        S[i] = [p * x + q * y for x, y in zip(Si, Sj)]
        S[j] = [r * x + s * y for x, y in zip(Si, Sj)]
        Ui, Uj = U[i], U[j]
        U[i] = [p * x + q * y for x, y in zip(Ui, Uj)]
        U[j] = [r * x + s * y for x, y in zip(Ui, Uj)]

    def min_pivot(t):
        # First entry of least nonzero absolute value in row-major order; a
        # unit cannot be beaten under the strict comparison, so stop there.
        best = None
        for i in range(t, nrows):
            row = S[i]
            for j in range(t, ncols):
                v = abs(row[j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
                    if v == 1:
                        return best
        return best

    t = 0
    while t < min(nrows, ncols):
        if min_pivot(t) is None:
            break
        while True:
            _, i0, j0 = min_pivot(t)
            if i0 != t:
                swap_rows(t, i0)
            if j0 != t:
                swap_cols(t, j0)
            if S[t][t] < 0:
                negate_row(t)
            p = S[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                if S[i][t]:
                    q = S[i][t] // p
                    if q:
                        add_row(i, t, -q)
                    if S[i][t]:
                        dirty = True
            for j in range(t + 1, ncols):
                if S[t][j]:
                    q = S[t][j] // p
                    if q:
                        add_col(j, t, -q)
                    if S[t][j]:
                        dirty = True
            if not dirty:
                break
        t += 1
    rank = t

    # Enforce the divisibility chain d_i | d_{i+1} with 2x2 gcd transforms.
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = S[i][i], S[i + 1][i + 1]
            if b % a == 0:
                continue
            g, x, y = _xgcd(a, b)
            # Pull b into column i, then map diag(a, b) to diag(g, a*b/g).
            add_col(i, i + 1, 1)
            rows_2x2(i, i + 1, x, y, -(b // g), a // g)
            add_col(i + 1, i, -(y * b) // g)
            changed = True

    # Exactness: re-multiply U * matrix * V and compare with S. U * matrix
    # only visits the matrix's nonzero entries (k per incidence row).
    prod = [[0] * ncols for _ in range(nrows)]
    nonzero = [[(j, int(x)) for j, x in enumerate(row) if x] for row in matrix]
    for acc, u_row in zip(prod, U):
        for u, entries in zip(u_row, nonzero):
            if u:
                for j, x in entries:
                    acc[j] += u * x
    columns = list(zip(*V))
    prod = [[sum(map(mul, row, col)) for col in columns] for row in prod]
    if prod != S:
        raise VerificationError("Smith normal form reconstruction failed")
    return U, S, V


def solve_mod_k(
    sys: ZkLinearSystem, factorization: SmithFactorization | None = None
) -> SolutionDescription:
    """Solve rows * alpha == rhs (mod k) exactly via integer Smith form.

    With U*A*V = S diagonal, substituting alpha = V*beta turns the system
    into independent scalar congruences d_i * beta_i == (U*rhs)_i (mod k):
    feasible iff gcd(d_i, k) divides each transformed residue, with zero
    rows requiring the residue to vanish mod k. The beta coordinates are
    independent, so kernel generators mapped back through V enumerate all
    solutions without repetition. ``factorization`` (of ``sys.rows``) skips
    the Smith form; without it the rows are factored here.
    """
    k = sys.modulus
    m = len(sys.vertices)
    if not sys.rows:
        kernel = tuple(
            (tuple(int(i == j) for i in range(m)), k) for j in range(m)
        )
        return SolutionDescription(sys, True, tuple(0 for _ in range(m)), kernel, (), k**m)

    if factorization is None:
        factorization = factor_rows(sys.rows)
    elif factorization.rows != sys.rows:
        raise ValueError("factorization is of a different coefficient matrix")
    U, V, diag = factorization.U, factorization.V, factorization.diagonal
    nrows = len(sys.rows)
    transformed = [
        sum(U[i][r] * sys.rhs[r] for r in range(nrows)) % k for i in range(nrows)
    ]
    rank = sum(1 for d in diag if d)

    for i in range(nrows):
        d = diag[i] if i < len(diag) else 0
        e = transformed[i]
        if d == 0:
            if e % k:
                return SolutionDescription(sys, False, None, (), tuple(diag[:rank]), 0)
        elif e % math.gcd(d, k):
            return SolutionDescription(sys, False, None, (), tuple(diag[:rank]), 0)

    beta = [0] * m
    orders = []  # (beta coordinate, step, order) for coordinates with freedom
    for i in range(rank):
        d = diag[i]
        g = math.gcd(d, k)
        kg = k // g
        # d/g is invertible mod k/g, giving the base solution of d*beta == e.
        beta[i] = (transformed[i] // g) * pow((d // g) % kg, -1, kg) % kg if kg > 1 else 0
        if g > 1:
            orders.append((i, kg, g))
    for i in range(rank, m):
        orders.append((i, 1, k))

    particular = tuple(
        sum(V[j][i] * beta[i] for i in range(m)) % k for j in range(m)
    )
    kernel = []
    count = 1
    for coord, step, order in orders:
        gen = tuple((V[j][coord] * step) % k for j in range(m))
        kernel.append((gen, order))
        count *= order
    return SolutionDescription(
        sys, True, particular, tuple(kernel), tuple(diag[:rank]), count
    )


def eliminate_mod_prime(
    rows: np.ndarray, rhs: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Affine form of the solutions of rows * x == rhs (mod p), p prime.

    Gauss-Jordan elimination over GF(p), pivoting on the columns in
    ascending order. Returns None if the system is inconsistent, else
    ``(x0, basis)`` with ``basis`` of shape (d, columns): the solutions are
    exactly x0 + t @ basis (mod p) for t in GF(p)^d, each given by one t.
    Row j of the basis sets the j-th non-pivot column to 1 and the other
    non-pivot columns to 0. Both parts are checked against the rows before
    returning; a mismatch raises VerificationError.
    """
    rows = np.asarray(rows, dtype=np.int64) % p
    rhs = np.asarray(rhs, dtype=np.int64) % p
    ncols = rows.shape[1]
    work = np.concatenate([rows, rhs[:, None]], axis=1)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        below = np.flatnonzero(work[r:, c])
        if not len(below):
            continue
        i = r + int(below[0])
        work[[r, i]] = work[[i, r]]
        work[r] = work[r] * pow(int(work[r, c]), -1, p) % p
        hit = np.flatnonzero(work[:, c])
        hit = hit[hit != r]
        work[hit] = (work[hit] - np.outer(work[hit, c], work[r])) % p
        pivots.append(c)
    rank = len(pivots)
    if work[rank:, ncols].any():
        return None
    free = np.setdiff1d(np.arange(ncols), pivots)
    x0 = np.zeros(ncols, dtype=np.int64)
    x0[pivots] = work[:rank, ncols]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -work[:rank, free].T % p
    # rows @ [basis.T | x0] - [0 | rhs], summed over the nonzeros of rows only
    terms = np.concatenate([basis.T, x0[:, None]], axis=1)
    r, c = np.nonzero(rows)
    defect = np.zeros((len(rows), terms.shape[1]), dtype=np.int64)
    products = terms[c]
    products *= rows[r, c][:, None]
    np.add.at(defect, r, products)
    defect[:, -1] -= rhs
    if (defect % p).any():
        raise VerificationError("elimination mod p produced a non-solution")
    return x0, basis


def solution_blocks(desc: SolutionDescription) -> Iterator[np.ndarray]:
    """Every solution once, in ``itertools.product`` kernel-coordinate
    order (the particular solution first), as int64 arrays with one row
    per solution and one column per vertex.

    The trailing kernel coordinates whose orders multiply to at most
    ``BLOCK_CELLS // m`` rows are combined once into a table; each block is
    one setting of the leading coordinates plus that table, mod k. Raises
    on infeasible descriptions.
    """
    if not desc.feasible:
        raise ValueError("cannot enumerate an infeasible system")
    k = desc.system.modulus
    m = len(desc.system.vertices)
    rows = max(1, BLOCK_CELLS // m)
    orders = [order for _, order in desc.kernel]
    gens = np.array([gen for gen, _ in desc.kernel], dtype=np.int64).reshape(-1, m)
    split, size = len(orders), 1
    while split and size * orders[split - 1] <= rows:
        split -= 1
        size *= orders[split]
    coeffs = np.array(list(itertools.product(*map(range, orders[split:]))), dtype=np.int64)
    table = desc.particular + coeffs.reshape(size, -1) @ gens[split:]
    for lead in itertools.product(*map(range, orders[:split])):
        yield (table + np.array(lead, dtype=np.int64) @ gens[:split]) % k

