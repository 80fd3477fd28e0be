"""Exact solver for per-edge phase-exponent systems over Z_k.

A zero eigenvector of the Laplacian (signless Laplacian) tensor restricted
to a connected component is, up to a global scalar, a vector of k-th roots
of unity exp(2*pi*i*alpha_v/k) whose exponents satisfy one linear congruence
per edge: the exponents of an edge sum to 0 (resp. k/2) mod k, the
residue ``kinds.edge_residue`` gives. This module solves those systems
exactly: feasibility, a particular solution, a kernel description that
enumerates every solution exactly once, and the exact solution count.
``lex_solutions`` lists the solutions in lexicographic order, one int64 row
of exponents each; ``lex_classes`` lists the first solution_count / k, the classes.

Every such system is given by one residue and the component's
``edge_index``, the (|E|, k) array of its edges' 0-based vertex indices.
Its coefficient matrix A is the 0/1 incidence of those edges, never
built: A * alpha is each edge's sum of alpha over its vertices, which
``_edge_sums`` forms for a block of rows, one edge slot at a time. A system
A * alpha == b (mod k) is solved through the Howell form of [A^T | I_m]
modulo k (Storjohann & Mulders, "Fast algorithms for linear algebra
modulo N", ESA 1998), eliminated modulo each prime power of k and joined
by CRT (Howell, "Spans in the module (Z_m)^s", 1986). The rows with a
pivot among the |E| edge columns give the image part (H1, T1), with
T1 * A^T == H1; the others give the kernel rows K, zero on the edge
columns and echelon in vertex order, each with a pivot d dividing k and
order k/d. Forward substitution of a right-hand side through H1 gives z,
and z * T1 is a particular solution, which a ``SolutionDescription``
keeps beside the form's own kernel array K, copying neither.

The form depends only on the edges and the modulus, not on the residue.
Every layer reads a component through its one ``ComponentSystem``, which
builds each ``form(modulus)`` once: modulo k for both residues, modulo 2
for the H classes, the bipartitions and a join modulo k = 2 (mod 4), and
modulo the least prime above k for the hm search. Each form is checked by
a certificate (``check_howell_form``) and each particular solution against
every edge, raising VerificationError. Entries are reduced mod k after
every step, so products stay below k^2, which ``Hypergraph`` keeps in int64.
"""

import math
from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, VerificationError
from .hypergraph import Hypergraph, _Record, induced_subhypergraph

# Entries that one block of rows may add to the temporaries of any blockwise
# pass, about a megabyte of int64; ``_blocks`` divides it by one row's share.
BLOCK_ENTRIES = 1 << 17


class _ArrayRecord(_Record):
    """An immutable record holding arrays: it compares and hashes by
    identity, as arrays have no single truth value for ==."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__


class SolutionDescription(_ArrayRecord):
    """All solutions of one edge system over Z_``modulus``, read from the
    arrays of the edges' Howell form.

    ``kernel`` is the form's kernel part itself: echelon in vertex order,
    row j's first nonzero entry a divisor d_j of the modulus, of order
    modulus / d_j, with the Howell property, so (order_j * row_j) is a
    combination of the rows after j. ``particular`` is one solution, an
    int64 array, or None when there is none. The solution set is exactly
    {particular + sum_j t_j * row_j : 0 <= t_j < order_j}, every
    combination giving a distinct solution, so ``solution_count`` is the
    product of the orders.
    """

    _fields = ("modulus", "particular", "kernel")

    @property
    def width(self) -> int:
        return self.kernel.shape[1]

    @property
    def feasible(self) -> bool:
        return self.particular is not None

    @property
    def orders(self) -> np.ndarray:
        return self.modulus // _pivots(self.kernel)[1]

    @cached_property
    def solution_count(self) -> int:
        return math.prod(self.orders.tolist()) if self.feasible else 0


class HowellForm(_ArrayRecord):
    """[A^T | I_m] modulo ``modulus`` in Howell form, A being the 0/1
    incidence matrix of ``edges``, the (|E|, r) array of 0-based vertex
    indices: A has a one at (e, v) for each v in row e.

    The rows whose pivot lies among the |E| edge columns are split there
    into ``image`` (H1) and ``transform`` (T1), so T1 * A^T == H1; the
    others are zero on those columns and ``kernel`` (K) holds their vertex
    part, so K * A^T == 0. Both parts are echelon, each pivot d divides the
    modulus, and the combinations of the rows with coefficients
    0 <= t < modulus / d are the whole row space {(y A^T, y)}, each once.
    """

    _fields = ("modulus", "edges", "image", "transform", "kernel")


def _prime_powers(n: int) -> list[int]:
    """The powers of distinct primes whose product is n > 1, by ascending prime."""
    p = next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n)  # least prime factor
    q = math.gcd(n, p ** n.bit_length())  # the largest power of p dividing n
    return [q] if q == n else [q, *_prime_powers(n // q)]


def howell_form(edges: np.ndarray, width: int, modulus: int) -> HowellForm:
    """Howell form of [A^T | I_width] modulo ``modulus``, A being the 0/1
    incidence matrix of ``edges``; with no edges the kernel is the identity.

    Any modulus but a prime power q joins the forms modulo its prime powers
    (``_join``). Modulo q, column by column, the pending row (zero left of
    the column) whose entry a has the least valuation, times the unit
    (a/d)^-1 mod q/d, d = gcd(a, q), pivots on d, which divides the other
    pending entries: their rows are cleared by subtraction. Its slot then
    takes (q/d) times it, zero in the column, so every row-space element
    zero left of a column stays a combination of the rows pivoting there or
    later: the Howell property. ``check_howell_form`` checks the result.
    """
    powers = _prime_powers(modulus)
    if len(powers) > 1:
        return _join([howell_form(edges, width, q) for q in powers])
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
        d = math.gcd(int(work[i, col]), n)
        pivot = work[i] * pow(int(work[i, col]) // d, -1, n // d) % n
        work[i] = 0
        hit = hit[hit != i]
        work[hit, col:] = (work[hit, col:] - (work[hit, col] // d)[:, None] * pivot[col:]) % n
        if d > 1:
            work[i] = pivot * (n // d) % n
        found.append(pivot)
    del work
    done = np.array(found, dtype=np.int64).reshape(len(found), count + width)
    r = int(done[:, :count].any(axis=1).sum())
    # the kernel, which solution descriptions keep, is a copy: not a view
    # that would keep all of ``done`` alive once the form is dropped
    form = HowellForm(n, edges, done[:r, :count], done[:r, count:], done[r:, count:].copy())
    check_howell_form(form)
    return form


def _join(parts: list[HowellForm]) -> HowellForm:
    """The form modulo n from the forms of the same edges modulo the prime
    powers q_i of n, by CRT. A column where some part pivots gets one row:
    each part's row there (0 if none) times D / d_i and times e_i, 1 modulo
    q_i and 0 modulo the other parts, summed. Its pivot D, the product of
    the parts' pivots d_i (q_i for a part with none), divides n."""
    n, edges = math.prod(part.modulus for part in parts), parts[0].edges
    count, width = len(edges), parts[0].kernel.shape[1]
    pivots = [_form_pivots(part) for part in parts]
    orders = np.ones(count + width, dtype=np.int64)  # n / D, column by column
    for part, (part_cols, d) in zip(parts, pivots):
        orders[part_cols] *= part.modulus // d
    cols = np.flatnonzero(orders > 1)
    rank = int(np.searchsorted(cols, count))
    image = np.zeros((rank, count), dtype=np.int64)
    vertex = np.zeros((len(cols), width), dtype=np.int64)  # the rows' vertex columns
    for part, (part_cols, d) in zip(parts, pivots):
        q, at, r = part.modulus, np.searchsorted(cols, part_cols), len(part.image)
        # D / d_i is a unit modulo q_i; every product stays below n^2
        scale = n // orders[part_cols] // d % q * (n // q * pow(n // q, -1, q)) % n
        for block, place, rows, times in (
            (image, at[:r], part.image, scale[:r]),
            (vertex, at[:r], part.transform, scale[:r]),
            (vertex, at[r:], part.kernel, scale[r:]),
        ):
            for j in _blocks(len(rows), rows.shape[1]):
                block[place[j]] = (block[place[j]] + rows[j] * times[j, None] % n) % n
    form = HowellForm(n, edges, image, vertex[:rank], vertex[rank:].copy())
    check_howell_form(form)
    return form


class ComponentSystem:
    """One component's edge systems: ``vertices`` ascending, ``sub`` the
    sub-hypergraph they induce (relabeled 1..m) and ``edges`` its one
    ``edge_index``. ``form(modulus)`` keeps each form it builds, and those
    modulo the prime powers it joins, in ``forms``, which callers clear once
    the component's systems are solved: a ``SolutionDescription`` keeps the
    arrays it reads. A form that does not fit in memory raises
    BudgetExceededError, as a budget would."""

    def __init__(self, h: Hypergraph, component):
        self.k = h.k
        self.sub, self.vertices = induced_subhypergraph(h, component)
        self.edges = self.sub.edge_index
        self.forms: dict[int, HowellForm] = {}

    def form(self, modulus: int) -> HowellForm:
        if modulus not in self.forms:
            m, count = len(self.vertices), len(self.edges)
            powers = _prime_powers(modulus)
            try:
                if len(powers) > 1:
                    self.forms[modulus] = _join([self.form(q) for q in powers])
                else:
                    self.forms[modulus] = howell_form(self.edges, m, modulus)
            except MemoryError:
                raise BudgetExceededError(
                    f"component of vertex {self.vertices[0]} (m={m}, |E|={count}): its Howell"
                    f" form needs a {m} x {count + m} work array of {m * (count + m) * 8} bytes,"
                    " more than memory holds"
                ) from None
        return self.forms[modulus]


def _blocks(count: int, entries: int):
    """``count`` rows as slices of BLOCK_ENTRIES // ``entries`` rows (at least
    one), ``entries`` being what one row adds to a pass's temporaries."""
    step = max(1, BLOCK_ENTRIES // max(1, entries))
    return (slice(i, i + step) for i in range(0, count, step))


def _edge_sums(left: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """left @ A^T for the incidence matrix A of ``edges``, as int64: each row's sum
    over each edge, added one edge slot at a time, never gathered as (rows, |E|, k)."""
    sums = np.take(left, edges[:, 0], axis=1).astype(np.int64)
    for slot in range(1, edges.shape[1]):
        sums += np.take(left, edges[:, slot], axis=1)
    return sums


def _pivots(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column and value of the first nonzero entry of each row."""
    # no columns (the image of an edgeless system) means no rows either
    cols = (block != 0).argmax(axis=1) if block.shape[1] else np.zeros(0, np.intp)
    return cols, block[np.arange(len(block)), cols]


def _form_pivots(form: HowellForm) -> tuple[np.ndarray, np.ndarray]:
    """Column (among all |E| + m) and value of each row's pivot, image rows first."""
    (image_cols, image_d), (kernel_cols, kernel_d) = _pivots(form.image), _pivots(form.kernel)
    cols = np.concatenate([image_cols, len(form.edges) + kernel_cols])
    return cols, np.concatenate([image_d, kernel_d])


def check_howell_form(form: HowellForm) -> None:
    """Certificate that ``form`` lists the row space of [A^T | I_m] exactly,
    raising VerificationError on the first clause that fails. Checked
    through the edges, in O(m * |E| * r) for edges of r vertices, in
    ``_blocks`` of rows sized by |E|:

    * T1 * A^T == H1 and K * A^T == 0, so every row lies in the row space
      {(y A^T, y)}, which has modulus^m elements;
    * the rows are echelon, H1's pivots among the edge columns and K's
      among the vertex columns, and every pivot d divides the modulus, so
      the combinations with coefficients 0 <= t < modulus / d are distinct;
    * the product of modulus / d over all rows is modulus^m, so those
      combinations are the whole row space, and those of K alone are
      exactly the kernel.
    """
    n, edges = form.modulus, form.edges
    width = form.transform.shape[1]
    for cut in _blocks(len(form.transform), len(edges)):
        if ((_edge_sums(form.transform[cut], edges) - form.image[cut]) % n).any():
            raise VerificationError("Howell form: T1 * A^T differs from H1")
    for cut in _blocks(len(form.kernel), len(edges)):
        if (_edge_sums(form.kernel[cut], edges) % n).any():
            raise VerificationError("Howell form: a kernel row is not a solution")
    pivots, d = _form_pivots(form)
    # an all-zero row (H1's part included) shows up as a pivot entry of 0
    if ((d <= 0) | (d >= n)).any() or (np.diff(pivots) <= 0).any() or (n % d).any():
        raise VerificationError("Howell form: rows not echelon with pivots dividing the modulus")
    if math.prod(n // int(x) for x in d) != n**width:
        raise VerificationError("Howell form: the rows do not span the whole row space")


def solve_mod_k(form: HowellForm, rhs: int) -> SolutionDescription:
    """Solve "every edge's exponents sum to ``rhs``" (mod k) exactly
    through the Howell form of the edges: one particular solution, or none,
    beside the form's kernel rows.

    The right-hand side is substituted forward through the image rows H1:
    at each pivot d the remaining residue must be a multiple of d, and the
    quotients z give the particular solution z * T1. A residue left at a
    pivot that d does not divide, or after the last row, means no solution,
    since the form's rows list the row space exactly.
    """
    k = form.modulus
    residue = np.full(len(form.edges), rhs % k, dtype=np.int64)
    quotients = np.zeros(len(form.image), dtype=np.int64)
    for i, (row, col) in enumerate(zip(form.image, _pivots(form.image)[0])):
        q, rest = divmod(int(residue[col]), int(row[col]))
        if rest:
            return SolutionDescription(k, None, form.kernel)
        quotients[i] = q
        residue = (residue - q * row) % k
    if residue.any():
        return SolutionDescription(k, None, form.kernel)
    particular = quotients @ form.transform % k
    if ((_edge_sums(particular[None, :], form.edges) - rhs) % k).any():
        raise VerificationError("particular solution breaks a row of the system")
    return SolutionDescription(k, particular, form.kernel)


def lex_solutions(desc: SolutionDescription, limit: int | None = None) -> np.ndarray:
    """The first ``limit`` solutions (all without a limit) in lexicographic
    order, as an int64 array with one row per solution.

    The listing expands one kernel row at a time, from the particular
    solution. Each prefix is first moved to the least member of its coset
    at the row's pivot: the entries left of the pivot are fixed by the rows
    already expanded, and by the Howell property only the combinations of
    this row and the rows after it keep them, which move the pivot entry
    in steps of the pivot d. Subtracting a multiple of the row brings the
    entry below d; then t * row for t = 0 .. order - 1 runs it through its
    values in increasing order. Every prefix stands for the same number of
    solutions (the product of the orders still to come), so only the first
    ceil(limit / that number) prefixes are kept, and no prefix is extended
    past that many values. Raises on infeasible descriptions.
    """
    if not desc.feasible:
        raise ValueError("cannot enumerate an infeasible system")
    k, kernel = desc.modulus, desc.kernel
    cols, d = _pivots(kernel)
    orders = (k // d).tolist()
    remaining = math.prod(orders)
    limit = remaining if limit is None else min(limit, remaining)
    out = desc.particular[None, :].copy()
    for row, col, pivot, order in zip(kernel, cols.tolist(), d.tolist(), orders):
        remaining //= order
        keep = -(-limit // remaining)
        out = (out - (out[:, col] // pivot)[:, None] * row) % k
        out = ((out[:, None, :] + np.arange(min(order, keep))[:, None] * row) % k).reshape(-1, desc.width)
        out = out[:keep]
    return out[:limit]


def lex_classes(desc: SolutionDescription, limit: int, where: str = "a system") -> np.ndarray:
    """The first ``limit`` of a system's classes, its first solution_count / k
    solutions in ``lex_solutions`` order: adding 1 to every exponent keeps
    every edge sum (edges have k vertices), so these are the solutions with
    exponent 0 at the first vertex, one per shift class; a listed row not 0
    there raises VerificationError naming ``where``. An infeasible system has none."""
    limit = min(limit, desc.solution_count // desc.modulus)
    if not limit:
        return np.zeros((0, desc.width), dtype=np.int64)
    classes = lex_solutions(desc, limit)
    if classes[:, 0].any():
        raise VerificationError(f"shift symmetry broken on {where}: class not 0 at first vertex")
    return classes


# Bound only because the benchmark's traced mode looks the name up
# (bench/run.py hands it to tracing.SnfSampler, which then samples
# nothing); it goes when the benchmark reads the library's own run stats.
smith_normal_form = None
