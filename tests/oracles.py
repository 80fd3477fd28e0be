"""Independent brute-force oracles, and the scalar reference loops.

Everything above the scalar section recomputes results by direct
exhaustive enumeration or by the textbook dense-tensor definition, sharing
no algorithmic path with the library: no elimination, no kernel
parametrization, no edge-sum shortcut. Four of them are the library's
former algorithms, kept as references for what replaced them:
``bipartition_witnesses`` scans the subsets once per flavor, where
``enumerate_bipartitions`` reads them off the solutions modulo 2;
``hm_bipartition_dfs`` is the recursive search that
``find_hm_bipartition`` replaced; ``snf_solution_count`` counts
solutions through the integer Smith normal form, which the Howell-form
elimination replaced; and ``materialize_dense`` with ``diag_similarity``
builds both tensors in exact rationals and transforms one entry by entry,
where ``tensor_ops.similarity_identity_holds`` reads the edges' sign
products.

The scalar section keeps the library's former per-class pipeline: one
solution, one class and one edge at a time with complex scalars. The
library now does the same arithmetic on whole arrays, and the tests hold
it to these loops' exact bits, listing order and error messages.

The library lists classes only as integer arrays. These plain-tuple
functions stand in for its retired per-object API:

* ``canonical_solutions`` for ``enumerate_solutions``, in the
  lexicographic order that ``zk_solver.lex_solutions`` keeps;
* ``shift_min`` for ``shift_canonicalize``, and ``shift_min`` of the
  negated exponents for ``conjugate_assignment``;
* ``real_scalable`` for ``is_real_scalable`` and ``classify_H_or_N``;
* ``scalar_classes`` for ``minimal_zero_eigenvectors``;
* ``scalar_realize`` for ``realize_complex``, and its edge-by-edge residue
  check for ``assignment_satisfies``.

The partition oracles return witnesses as the library lists them, as rows
of part indices (entry i is the part of the component's i-th vertex in
ascending order), but as plain tuples built by their own loops.
A class's exponent row is already such a row, so no conversion between
classes and partitions is needed.

``count_N_pairs`` became ``solve_components(h)[operator].n_pair_count``.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from zerolap.errors import VerificationError
from zerolap.zk_solver import smith_normal_form
from zerolap.partitions import BIPARTITION_FLAVORS, HM, ODD


def edge_sum_solutions(k, vertices, edges, rhs):
    """All exponent tuples over Z_k on ``vertices`` satisfying every edge."""
    verts = list(vertices)
    pos = {v: i for i, v in enumerate(verts)}
    edge_pos = [tuple(pos[v] for v in e) for e in edges]
    out = []
    for vals in itertools.product(range(k), repeat=len(verts)):
        if all(sum(vals[i] for i in ep) % k == rhs for ep in edge_pos):
            out.append(vals)
    return out


def domain_edge_sum_count(k, width, edges, residue, domain):
    """Maps from ``width`` vertices into ``domain`` with every edge's value
    sum == ``residue`` (mod k), by full scan; ``edges`` holds 0-based
    vertex indices."""
    return sum(
        all(sum(vals[v] for v in e) % k == residue % k for e in edges)
        for vals in itertools.product(domain, repeat=width)
    )


def incidence_matrix(width, edges):
    """Dense 0/1 rows, one per edge, of ``width`` columns: row e has a one
    at each 0-based vertex index of edge e."""
    return [[int(j in set(map(int, e))) for j in range(width)] for e in edges]


def system_solutions(modulus, width, edges, rhs):
    """Every solution of "each edge's exponents sum to ``rhs`` (mod
    ``modulus``)" on ``width`` unknowns, by full scan, in lexicographic
    order. ``edges`` holds 0-based vertex indices."""
    k, m = modulus, width
    grid = np.indices((k,) * m).reshape(m, -1).T
    ok = np.ones(len(grid), dtype=bool)
    for row in incidence_matrix(width, edges):
        ok &= grid @ np.array(row, dtype=np.int64) % k == rhs % k
    return [tuple(x) for x in grid[ok].tolist()]


def snf_solution_count(modulus, width, edges, rhs):
    """Solution count of the same edge system through the integer Smith form.

    With U * A * V = S diagonal, alpha = V * beta splits the system into
    d_i * beta_i == (U * rhs)_i (mod k), one congruence per row: it has
    gcd(d_i, k) solutions if that gcd divides the residue and none
    otherwise, where a missing or zero d_i gives gcd k. Coordinates past
    the rows are free.
    """
    k, m = modulus, width
    if not len(edges):
        return k**m
    U, S, _ = smith_normal_form(incidence_matrix(width, edges))
    count = k**m
    for i, u in enumerate(U):
        residue = sum(u) * rhs % k
        g = math.gcd(S[i][i] if i < m else 0, k)
        if residue % g:
            return 0
        if i < m:
            count = count // k * g
    return count


def shift_min(vals, k):
    return min(tuple((v + t) % k for v in vals) for t in range(k))


def real_scalable(vals, k):
    distinct = set(vals)
    if len(distinct) == 1:
        return True
    if k % 2 == 0 and len(distinct) == 2:
        lo, hi = sorted(distinct)
        return hi - lo == k // 2
    return False


def class_inventory(k, vertices, edges, rhs):
    """(solution count, shift classes, H classes, N pair count) by full scan."""
    sols = edge_sum_solutions(k, vertices, edges, rhs)
    classes = {shift_min(v, k) for v in sols}
    h_classes = {c for c in classes if real_scalable(c, k)}
    n_classes = classes - h_classes
    pairs = set()
    for c in n_classes:
        conj = shift_min(tuple((-x) % k for x in c), k)
        assert conj != c, f"self-conjugate N class {c}"
        pairs.add(frozenset((c, conj)))
    return len(sols), len(classes), len(h_classes), len(pairs)


def component_split(n, edges):
    """Connected components by repeated closure, no union-find."""
    remaining = set(range(1, n + 1))
    comps = []
    while remaining:
        seed = min(remaining)
        group = {seed}
        while True:
            grown = set(group)
            for e in edges:
                if grown & set(e):
                    grown |= set(e)
            if grown == group:
                break
            group = grown
        comps.append(tuple(sorted(group)))
        remaining -= group
    return comps


def naive_tensor_apply(h, operator, x):
    """Full n^k contraction with entries straight from the definitions."""
    n, k = h.n, h.k
    x = np.asarray(x, dtype=complex)
    edge_sets = [frozenset(e) for e in h.edges]
    inv = 1.0 / math.factorial(k - 1)
    deg = [0] * n
    for e in h.edges:
        for v in e:
            deg[v - 1] += 1
    out = np.zeros(n, dtype=complex)
    for idx in itertools.product(range(1, n + 1), repeat=k):
        entry = 0.0
        if len(set(idx)) == k and frozenset(idx) in edge_sets:
            entry = inv
        if operator != "adjacency":
            sign = -1.0 if operator == "laplacian" else 1.0
            entry *= sign
            if len(set(idx)) == 1:
                entry += deg[idx[0] - 1]
        term = entry
        for j in idx[1:]:
            term = term * x[j - 1]
        out[idx[0] - 1] += term
    return out


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """Explicit order-k tensor with exact rational entries.

    ``entries`` maps 1-based multi-indices to nonzero Fractions; absent
    indices are zero. Adjacency entries are 1/(k-1)! on every permutation
    of every edge, and degree entries d_i sit at the repeated indices.
    """

    order: int
    dim: int
    entries: dict

    def apply(self, x):
        """Dense contraction against a complex vector (first index free)."""
        arr = np.asarray(x, dtype=complex)
        out = np.zeros(self.dim, dtype=complex)
        for idx, val in self.entries.items():
            term = float(val)
            for j in idx[1:]:
                term = term * arr[j - 1]
            out[idx[0] - 1] += term
        return out

    def same_entries(self, other):
        """Exact entrywise equality (rational arithmetic, no tolerance)."""
        if (self.order, self.dim) != (other.order, other.dim):
            return False
        a = {k: v for k, v in self.entries.items() if v}
        b = {k: v for k, v in other.entries.items() if v}
        return a == b


def materialize_dense(h, operator):
    """Explicit entry table of the chosen operator, |E| k! + n entries."""
    entries = {}
    adj = Fraction(1, math.factorial(h.k - 1))
    sign = -1 if operator == "laplacian" else 1
    for e in h.edges:
        for perm in itertools.permutations(e):
            entries[perm] = entries.get(perm, Fraction(0)) + sign * adj
    if operator != "adjacency":
        for v in range(1, h.n + 1):
            d = sum(v in e for e in h.edges)
            if d:
                entries[(v,) * h.k] = Fraction(d)
    return DenseTensor(h.k, h.n, entries)


def diag_similarity(t, signs):
    """Similarity transform by a +-1 diagonal matrix, exactly.

    Entry (i1, ..., ik) becomes p_{i1}^{-k+1} * t_{i1...ik} * p_{i2} ... p_{ik};
    for +-1 diagonals p^{-k+1} equals p^{k-1}. An involution, since p^2 = 1.
    """
    p = tuple(int(s) for s in signs)
    if len(p) != t.dim or any(s not in (-1, 1) for s in p):
        raise ValueError(f"signs must be {t.dim} entries of +1 or -1")
    out = {}
    for idx, val in t.entries.items():
        factor = p[idx[0] - 1] ** (t.order - 1)
        for j in idx[1:]:
            factor *= p[j - 1]
        out[idx] = val * factor
    return DenseTensor(t.order, t.dim, out)


def bareiss_det(matrix):
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i]:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[-1][-1]




def multipartition_witnesses(spec, vertices, edges):
    """The least kept assignment per shift/negation orbit, per predicate.

    A plain ``itertools.product`` walk over every assignment of the
    ``spec.parts`` part indices to ``vertices``. Each induced edge is looked
    up by its tuple of values in a table made from the definitions: the
    value sum for ``residue``, the sorted value multiset against the clause
    profiles spelled out as multisets for ``literal``. ``spec`` supplies
    only the kind's data (k, parts, residue, nonemptiness demand, clause
    profiles). Each witness is the tuple of the part indices of ``vertices``
    in ascending order, one list per predicate in ascending order of the
    orbit's least member.
    """
    verts = sorted(vertices)
    vset = set(verts)
    pos = {v: i for i, v in enumerate(verts)}
    getters = [
        operator.itemgetter(*(pos[v] for v in e)) for e in edges if vset.issuperset(e)
    ]
    k, p = spec.k, spec.parts
    clauses = {
        tuple(j for j, count in enumerate(prof) for _ in range(count)) for prof in spec.profiles
    }
    edge_ok = {
        vals: (tuple(sorted(vals)) in clauses, sum(vals) % k == spec.rhs)
        for vals in itertools.product(range(p), repeat=k)
    }
    least = {"literal": {}, "residue": {}}
    for vals in itertools.product(range(p), repeat=len(verts)):
        literal = residue = True
        for g in getters:
            lit, res = edge_ok[g(vals)]
            literal &= lit
            residue &= res
            if not (literal or residue):
                break
        if not (literal or residue):
            continue
        if len(set(vals)) < spec.min_nonempty or real_scalable(vals, k):
            continue
        orbit = min(tuple((s * v + t) % p for v in vals) for s in (1, -1) for t in range(p))
        for pred, ok in (("literal", literal), ("residue", residue)):
            if ok and orbit not in least[pred]:
                least[pred][orbit] = vals  # product order: the first seen is least
    return {pred: [vals for _, vals in sorted(chosen.items())] for pred, chosen in least.items()}


def bipartition_witnesses(h, component, flavor):
    """All valid bipartitions of one component, exhaustively.

    The library's former scan of one flavor, kept as the reference for its
    listing modulo 2: a set intersection per edge and subset, subsets in
    ``itertools.combinations`` order by size. For odd/even flavors the
    returned side v1 is the one containing the smallest vertex, a quotient
    by swapping the sides that holds only for even k; the hm flavor is
    ordered and is not quotiented. Each witness is a tuple of part indices,
    0 on v1 and 1 on v2. Trivial components yield nothing.
    """
    if flavor not in BIPARTITION_FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    comp = tuple(sorted(set(component)))
    edges = [e for e in h.edges if set(comp).issuperset(e)]
    if not edges:
        return []
    out = []
    for r in range(1, len(comp)):
        for chosen in itertools.combinations(comp, r):
            s1 = set(chosen)
            if flavor == HM:
                ok = all(len(s1.intersection(e)) == 1 for e in edges)
            elif flavor == ODD:
                ok = all(len(s1.intersection(e)) % 2 == 1 for e in edges)
            else:
                ok = all(len(s1.intersection(e)) % 2 == 0 for e in edges)
            if not ok:
                continue
            if flavor != HM and comp[0] not in s1:
                continue  # swap representative: keep the side with the least vertex
            out.append(tuple(0 if v in s1 else 1 for v in comp))
    return out


def hm_bipartition_dfs(h, component):
    """Search for a head assignment giving every edge exactly one head.

    The library's former recursive search, kept as the reference for its
    explicit-stack successor: one recursion level per edge, no budget.

    Backtracks over edges with forward checking: committing a head forces
    every other vertex sharing an edge with it into the mass side. Head
    candidates are tried in ascending vertex order, so the witness found is
    deterministic. The witness is a tuple of part indices, 0 on the heads
    and 1 on the mass side. Vertices in no edge default to the mass side;
    trivial components return the vacuous witness with an empty head side.
    """
    comp = tuple(sorted(set(component)))
    vertex_set = set(comp)
    edges = [e for e in h.edges if vertex_set.issuperset(e)]
    if not edges:
        return (1,) * len(comp)

    edges_at: dict[int, list[tuple[int, ...]]] = {v: [] for v in comp}
    for e in edges:
        for v in e:
            edges_at[v].append(e)

    state: dict[int, bool] = {}  # True = head, False = mass

    def set_state(v: int, val: bool, trail: list) -> bool:
        if v in state:
            return state[v] == val
        state[v] = val
        trail.append(v)
        if val:
            # a head's co-edge vertices are all mass
            for f in edges_at[v]:
                for u in f:
                    if u != v and not set_state(u, False, trail):
                        return False
        return True

    def solve(idx: int) -> bool:
        if idx == len(edges):
            return True
        e = edges[idx]
        fixed_heads = [v for v in e if state.get(v) is True]
        if fixed_heads:
            if len(fixed_heads) > 1:
                return False
            trail: list = []
            if all(set_state(u, False, trail) for u in e if u != fixed_heads[0]):
                if solve(idx + 1):
                    return True
            for u in trail:
                del state[u]
            return False
        for v in e:
            if state.get(v) is False:
                continue
            trail = []
            ok = set_state(v, True, trail)
            if ok and solve(idx + 1):
                return True
            for u in trail:
                del state[u]
        return False

    if not solve(0):
        return None
    return tuple(0 if state.get(v) is True else 1 for v in comp)


# ---------------------------------------------------------------------------
# scalar reference loops


def scalar_apply_adjacency(h, x):
    """Edge sums one edge at a time, prefix/suffix products as complex scalars."""
    x = np.asarray(x, dtype=complex)
    out = np.zeros(h.n, dtype=complex)
    k = h.k
    for e in h.edges:
        vals = [x[v - 1] for v in e]
        prefix = [1.0 + 0j] * (k + 1)
        for i in range(k):
            prefix[i + 1] = prefix[i] * vals[i]
        suffix = [1.0 + 0j] * (k + 1)
        for i in range(k - 1, -1, -1):
            suffix[i] = suffix[i + 1] * vals[i]
        for i, v in enumerate(e):
            out[v - 1] += prefix[i] * suffix[i + 1]
    return out


def scalar_eig_residual(h, operator, lam, x):
    """max_i |lam y_i^{k-1} - (T y^{k-1})_i| for y = x scaled to unit max modulus."""
    x = np.asarray(x, dtype=complex)
    y = x / np.max(np.abs(x))
    lhs = complex(lam) * y ** (h.k - 1)
    adj = scalar_apply_adjacency(h, y)
    d = np.array([sum(v in e for e in h.edges) for v in range(1, h.n + 1)], dtype=float)
    if operator == "adjacency":
        image = adj
    elif operator == "laplacian":
        image = d * y ** (h.k - 1) - adj
    else:
        image = d * y ** (h.k - 1) + adj
    return float(np.max(np.abs(lhs - image)))


def scalar_spectral_radius(h, max_iterations=10**4, tolerance=1e-12):
    """The power iteration of ``nqz_spectral_radius`` on scalar edge sums:
    (value, residual, vector)."""
    k = h.k
    x = np.ones(h.n, dtype=float)
    lam = math.inf
    for _ in range(max_iterations):
        y = scalar_apply_adjacency(h, x).real + x ** (k - 1)
        ratios = y / x ** (k - 1)
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        lam = (lo + hi) / 2
        if hi - lo <= tolerance:
            break
        x = y ** (1.0 / (k - 1))
        x = x / np.max(x)
    value = complex(lam - 1.0)
    return value, scalar_eig_residual(h, "adjacency", value, x), x.astype(complex)


def canonical_solutions(modulus, width, edges, rhs):
    """Solutions of the edge system with exponent 0 at the first vertex, in
    lexicographic order, one tuple at a time.

    A depth-first search sets the vertices in order, trying each value in
    turn, and checks each edge once its last vertex is set.
    """
    k, m = modulus, width
    closing = [[] for _ in range(m)]
    for e in edges:
        e = tuple(map(int, e))
        closing[max(e)].append(e)
    values = [0] * m

    def extend(j):
        if j == m:
            yield tuple(values)
            return
        for value in range(1 if j == 0 else k):
            values[j] = value
            if all(sum(values[v] for v in e) % k == rhs % k for e in closing[j]):
                yield from extend(j + 1)
        values[j] = 0

    yield from extend(0)


def component_edges(h, component):
    """The edges of ``h`` inside ``component``, as 0-based positions in it."""
    pos = {v: i for i, v in enumerate(component)}
    return [tuple(pos[v] for v in e) for e in h.edges if all(v in pos for v in e)]


def scalar_classes(h, counts, limit=None):
    """Per component of ``counts``, one operator's records from
    ``solve_components``, the (alpha, kind) of each listed class.

    Each component lists its solutions with exponent 0 at the first vertex
    (one per class) in lexicographic order, until the component's class
    count or the remainder of ``limit`` (over all components) is reached;
    components past the limit list nothing. The solutions come from
    ``canonical_solutions`` on the component's edges, not from its solved
    form.
    """
    k = h.k
    rhs = 0 if counts.operator == "laplacian" else k // 2
    out = []
    listed = 0
    for cs in counts.components:
        target = cs.class_count if limit is None else min(cs.class_count, limit - listed)
        alphas = []
        if cs.feasible and target > 0:
            edges = component_edges(h, cs.component)
            solutions = canonical_solutions(k, len(cs.component), edges, rhs)
            alphas = list(itertools.islice(solutions, target))
        classes = [(alpha, "H" if real_scalable(alpha, k) else "N") for alpha in alphas]
        out.append(classes)
        listed += len(classes)
    return out


def scalar_realize(h, operator, component, alpha, tolerance=1e-9):
    """(vector, residual) of one class, checked edge by edge, then numerically."""
    k = h.k
    residue = 0 if operator == "laplacian" else k // 2
    values = dict(zip(component, alpha))
    for e in h.edges:
        if set(component).issuperset(e) and sum(values[v] for v in e) % k != residue:
            raise VerificationError(f"class on {component} violates the exact residue at edge {e}")
    x = np.zeros(h.n, dtype=complex)
    for v, a in values.items():
        x[v - 1] = np.exp(2j * np.pi * a / k)
    resid = scalar_eig_residual(h, operator, 0.0, x)
    if resid > tolerance:
        raise VerificationError(f"realized class residual {resid:.3e} exceeds tolerance {tolerance:.1e}")
    return x, resid
