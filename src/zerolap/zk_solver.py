"""Exact solver for per-edge phase-exponent systems over Z_k.

A zero eigenvector of the Laplacian (signless Laplacian) tensor restricted
to a connected component is, up to a global scalar, a vector of k-th roots
of unity exp(2*pi*i*alpha_v/k) whose exponents satisfy one linear congruence
per edge: the exponents of an edge sum to 0 (resp. k/2) mod k. This module
solves those systems exactly: feasibility, a particular solution, a kernel
description that enumerates every solution exactly once, and the exact
solution count. ``lex_solutions`` lists the solutions in lexicographic
order as integer arrays, one row of exponents per solution.

Every such system is given by the component's edge index, the (|E|, k)
array of its edges' 0-based vertex indices that realization and the
partition scans read too, and one residue. Its coefficient matrix A is the
0/1 incidence of those edges, never built: A * alpha is each edge's sum of
alpha over its vertices, ``x[:, edges].sum(axis=2)`` for a block of rows x.
A system A * alpha == b (mod k) is solved through one elimination of
[A^T | I_m] modulo k into Howell form (Storjohann & Mulders, "Fast
algorithms for linear algebra modulo N", ESA 1998), in numpy int64. Z_k is
not a field for composite k, so the elimination pivots on the entry of
least gcd with k, merges rows by extended gcd, and keeps the Howell
property by carrying (k/d) times each pivot row of pivot d on to the later
columns. The rows with a pivot among the |E| edge columns give the image
part (H1, T1), with T1 * A^T == H1; the others give the kernel rows K,
zero on the edge columns and echelon in vertex order, each with a pivot d
dividing k and order k/d. Forward substitution of a right-hand side
through H1 gives z, and z * T1 is a particular solution.

The form depends only on the edges and the modulus, not on the residue.
``howell_form`` computes it once per component with an edge, and
``solve_mod_k`` reuses it for the Laplacian and signless residues; the
modulus-2 subsystem gets a form modulo 2, which also lists the
bipartitions, and the hm-bipartition search one modulo the least prime
above k. This is the one modular elimination: each form
is checked by a certificate (``check_howell_form``) and each particular
solution against every edge; a failure raises VerificationError. Entries
are reduced mod k after every step, so products stay near k^2, which
``Hypergraph`` keeps within int64, and int64 arithmetic is exact.

``smith_normal_form`` is the former integer Smith normal form solver, kept
for the tests as an independent route to the same counts; no command
calls it.
"""

import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

import numpy as np

from .errors import VerificationError

LAPLACIAN = "laplacian"
SIGNLESS = "signless"
ZERO_EIG_OPERATORS = (LAPLACIAN, SIGNLESS)

# Rows of a form whose edge sums the certificate holds at once: its
# arrays stay a few megabytes however many rows the form has.
CHECK_ROWS = 256


@dataclass(frozen=True)
class SolutionDescription:
    """Algebraic description of all solutions of one edge system.

    The system has ``width`` unknowns over Z_``modulus``. ``kernel`` is a
    tuple of (generator, order) pairs; the solution set is exactly
    {particular + sum_j t_j * gen_j : 0 <= t_j < order_j}, every
    combination giving a distinct solution, so ``solution_count`` is the
    product of the orders. The generators are echelon in vertex order:
    generator j's first nonzero entry is k / order_j, and they have the
    Howell property, so (order_j * gen_j) is a combination of the
    generators after j. ``particular`` is the lexicographically least
    solution.
    """

    modulus: int
    width: int
    feasible: bool
    particular: tuple[int, ...] | None
    kernel: tuple[tuple[tuple[int, ...], int], ...]
    solution_count: int


def edge_residue(k: int, operator: str) -> int:
    """Exponent sum mod k that every edge needs: 0 (Laplacian) or k/2 (signless)."""
    return 0 if operator == LAPLACIAN else k // 2


@dataclass(frozen=True, eq=False)
class HowellForm:
    """[A^T | I_m] modulo ``modulus`` in Howell form, A being the 0/1
    incidence matrix of ``edges``.

    ``edges`` is the (|E|, r) array of 0-based vertex indices, one row per
    edge, so A has a one at (e, v) for each v in row e. The rows of the
    form whose pivot lies among the |E| edge columns are split there into
    ``image`` (H1) and ``transform`` (T1), so T1 * A^T == H1; the others
    are zero on those columns and ``kernel`` (K) holds their vertex part,
    so K * A^T == 0. Both parts are echelon, each pivot d divides the
    modulus, and the combinations of the rows with coefficients
    0 <= t < modulus / d are the whole row space {(y A^T, y)}, each once.
    """

    modulus: int
    edges: np.ndarray
    image: np.ndarray
    transform: np.ndarray
    kernel: np.ndarray


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


def _unit_to_gcd(a: int, n: int) -> int:
    """A unit u of Z_n with u * a == gcd(a, n) (mod n)."""
    g = math.gcd(a, n)
    step = n // g
    u = pow(a // g, -1, step) if step > 1 else 1
    # u is fixed mod n/g; some lift u + j*(n/g) is also coprime to n
    while math.gcd(u, n) != 1:
        u += step
    return u % n


def howell_form(edges: np.ndarray, width: int, modulus: int) -> HowellForm:
    """Howell form of [A^T | I_width] modulo ``modulus``, A being the 0/1
    incidence matrix of ``edges`` (at least one row).

    Column by column, the rows still pending (all zero left of the column)
    are merged into one pivot row whose entry d generates the ideal of
    their entries: the row of least gcd with the modulus is scaled by a
    unit, then rows it does not divide are merged in by extended gcd, and
    the other rows are cleared by subtraction. The pivot row's slot then
    takes (modulus / d) times the pivot row, which is zero in the column,
    so every row-space element that is zero left of a column stays a
    combination of the rows pivoting there or later: the Howell property.
    The result is checked by ``check_howell_form`` before it is returned.
    """
    n = modulus
    count = len(edges)
    work = np.zeros((width, count + width), dtype=np.int64)
    work[np.arange(width), count + np.arange(width)] = 1
    work[edges, np.arange(count)[:, None]] = 1
    found = []
    for col in range(count + width):
        hit = np.flatnonzero(work[:, col])
        if not len(hit):
            continue
        i = hit[np.argmin(np.gcd(work[hit, col], n))]
        pivot = work[i] * _unit_to_gcd(int(work[i, col]), n) % n
        work[i] = 0
        hit = hit[hit != i]
        for j in hit[work[hit, col] % pivot[col] != 0]:
            a, b = int(pivot[col]), int(work[j, col])
            g, s, t = _xgcd(a, b)
            pivot, work[j] = (s * pivot + t * work[j]) % n, (b // g * pivot - a // g * work[j]) % n
        d = int(pivot[col])
        work[hit, col:] = (work[hit, col:] - (work[hit, col] // d)[:, None] * pivot[col:]) % n
        if d > 1:
            work[i] = pivot * (n // d) % n
        found.append(pivot)
    del work
    done = np.array(found, dtype=np.int64).reshape(len(found), count + width)
    r = int(done[:, :count].any(axis=1).sum())
    form = HowellForm(n, edges, done[:r, :count], done[:r, count:], done[r:, count:])
    check_howell_form(form)
    return form


def _edge_sums(left: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """left @ A^T for the incidence matrix A of ``edges``: each row's sum over each edge."""
    return left[:, edges].sum(axis=2)


def _pivots(block: np.ndarray) -> np.ndarray:
    """Column of the first nonzero entry of each row."""
    return (block != 0).argmax(axis=1)


def check_howell_form(form: HowellForm) -> None:
    """Certificate that ``form`` lists the row space of [A^T | I_m] exactly.

    Checked through the edges, in O(m * |E| * r) for edges of r vertices,
    ``CHECK_ROWS`` rows at a time:

    * T1 * A^T == H1 and K * A^T == 0, so every row lies in the row space
      {(y A^T, y)}, which has modulus^m elements;
    * the rows are echelon, H1's pivots among the edge columns and K's
      among the vertex columns, and every pivot d divides the modulus, so
      the combinations with coefficients 0 <= t < modulus / d are distinct;
    * the product of modulus / d over all rows is modulus^m, so those
      combinations are the whole row space, and those of K alone are
      exactly the kernel.

    Raises VerificationError on the first clause that fails.
    """
    n, edges = form.modulus, form.edges
    width = form.transform.shape[1]
    for i in range(0, len(form.transform), CHECK_ROWS):
        block = slice(i, i + CHECK_ROWS)
        if ((_edge_sums(form.transform[block], edges) - form.image[block]) % n).any():
            raise VerificationError("Howell form: T1 * A^T differs from H1")
    for i in range(0, len(form.kernel), CHECK_ROWS):
        if (_edge_sums(form.kernel[i : i + CHECK_ROWS], edges) % n).any():
            raise VerificationError("Howell form: a kernel row is not a solution")
    image_pivots, kernel_pivots = _pivots(form.image), _pivots(form.kernel)
    pivots = np.concatenate([image_pivots, len(edges) + kernel_pivots])
    d = np.concatenate([
        form.image[np.arange(len(form.image)), image_pivots],
        form.kernel[np.arange(len(form.kernel)), kernel_pivots],
    ])
    # an all-zero row (H1's part included) shows up as a pivot entry of 0
    if ((d <= 0) | (d >= n)).any() or (np.diff(pivots) <= 0).any() or (n % d).any():
        raise VerificationError("Howell form: rows not echelon with pivots dividing the modulus")
    if math.prod(n // int(x) for x in d) != n**width:
        raise VerificationError("Howell form: the rows do not span the whole row space")


def _least_in_coset(x: np.ndarray, kernel: np.ndarray, modulus: int) -> np.ndarray:
    """Each row of ``x`` moved to the least element of its coset x + span(kernel).

    Going down the echelon kernel rows: once the entries before a row's
    pivot are fixed, the Howell property leaves exactly the combinations
    of that row and the rows below it free, and those move the pivot entry
    only in steps of the pivot d. Subtracting a multiple of the row brings
    the entry below d, its least value.
    """
    for row, col in zip(kernel, _pivots(kernel)):
        x = (x - (x[:, col] // row[col])[:, None] * row) % modulus
    return x


def particular_solution(form: HowellForm, rhs: int) -> np.ndarray | None:
    """One solution of "every edge's exponents sum to ``rhs``" (mod k)
    through the Howell form of the edges, or None when there is none.

    The right-hand side is substituted forward through the image rows H1:
    at each pivot d the remaining residue must be a multiple of d, and the
    quotients z give the particular solution z * T1. A residue left at a
    pivot that d does not divide, or after the last row, means no solution,
    since the form's rows list the row space exactly.
    """
    k = form.modulus
    residue = np.full(len(form.edges), rhs % k, dtype=np.int64)
    quotients = np.zeros(len(form.image), dtype=np.int64)
    for i, (row, col) in enumerate(zip(form.image, _pivots(form.image))):
        q, rest = divmod(int(residue[col]), int(row[col]))
        if rest:
            return None
        quotients[i] = q
        residue = (residue - q * row) % k
    if residue.any():
        return None
    particular = quotients @ form.transform % k
    if ((_edge_sums(particular[None, :], form.edges) - rhs) % k).any():
        raise VerificationError("particular solution breaks a row of the system")
    return particular


def solve_mod_k(form: HowellForm, rhs: int) -> SolutionDescription:
    """Solve "every edge's exponents sum to ``rhs``" (mod k) exactly: the
    least member of ``particular_solution``'s coset, and the kernel rows,
    with orders k/d, which enumerate all solutions from there."""
    k = form.modulus
    width = form.transform.shape[1]
    particular = particular_solution(form, rhs)
    if particular is None:
        return SolutionDescription(k, width, False, None, (), 0)
    particular = _least_in_coset(particular[None, :], form.kernel, k)[0]
    orders = [k // int(d) for d in form.kernel[np.arange(len(form.kernel)), _pivots(form.kernel)]]
    kernel = tuple(zip(map(tuple, form.kernel.tolist()), orders))
    return SolutionDescription(k, width, True, tuple(particular.tolist()), kernel, math.prod(orders))


def lex_solutions(desc: SolutionDescription, limit: int | None = None) -> np.ndarray:
    """The first ``limit`` solutions (all without a limit) in lexicographic
    order, as an int64 array with one row per solution.

    The listing expands one kernel generator at a time, from the particular
    solution: each prefix's entry at the generator's pivot is brought below
    the pivot d, then extended by t * generator for t = 0 .. order - 1,
    which runs that entry through its values in increasing order. Every
    prefix stands for the same number of solutions (the product of the
    orders still to come), so only the first ceil(limit / that number)
    prefixes are kept, and no prefix is extended past that many values.
    Raises on infeasible descriptions.
    """
    if not desc.feasible:
        raise ValueError("cannot enumerate an infeasible system")
    k, m = desc.modulus, desc.width
    limit = desc.solution_count if limit is None else min(limit, desc.solution_count)
    kernel = np.array([gen for gen, _ in desc.kernel], dtype=np.int64).reshape(-1, m)
    out = np.array(desc.particular, dtype=np.int64).reshape(1, m)
    remaining = desc.solution_count
    for row, (_, order) in zip(kernel, desc.kernel):
        remaining //= order
        keep = -(-limit // remaining)
        out = _least_in_coset(out, row[None, :], k)
        out = ((out[:, None, :] + np.arange(min(order, keep))[:, None] * row) % k).reshape(-1, m)
        out = out[:keep]
    return out[:limit]


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
