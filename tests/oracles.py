"""Independent brute-force oracles.

Everything here recomputes results by direct exhaustive enumeration or by
the textbook dense-tensor definition, sharing no algorithmic path with the
library: no Smith form, no kernel parametrization, no edge-sum shortcut.
"""

import itertools
import math
import operator

import numpy as np


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
    """Parts of the least kept assignment per shift/negation orbit, per predicate.

    A plain ``itertools.product`` walk over every assignment of the
    ``spec.parts`` part indices to ``vertices``. Each induced edge is looked
    up by its tuple of values in a table made from the definitions: the
    value sum for ``residue``, the sorted value multiset against the clause
    profiles spelled out as multisets for ``literal``. ``spec`` supplies
    only the kind's data (k, parts, residue, nonemptiness demand, clause
    profiles).
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
    return {
        pred: [
            tuple(tuple(v for v, a in zip(verts, vals) if a == j) for j in range(p))
            for _, vals in sorted(chosen.items())
        ]
        for pred, chosen in least.items()
    }
