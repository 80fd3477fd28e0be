"""Seeded workload generation with independently computed expectations.

Every instance comes from ``zerolap.corpus`` driven by a ``random.Random``
seeded from the workload name and ``--seed``, so the same seed gives the
same files. Alongside each instance the generator records what a correct
report must contain, computed here without the program under test:

* connected components by a plain union-find;
* solution counts of the edge congruence systems by elimination modulo
  each prime power of k (pivot of least p-valuation, then CRT), which
  shares no code with the program's integer Smith normal form;
* H counts from the modulus-2 subsystem counted the same way;
* where k^m is small, all of the above confirmed again by the exhaustive
  scans in ``tests/oracles.py``.

The program only ever sees the generated instance files.
"""

import importlib.util
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from zerolap import corpus

OPERATORS = ("laplacian", "signless")
ORACLE_MAX_ASSIGNMENTS = 20_000  # exhaustive oracle only where k^m stays this small


@dataclass
class Instance:
    """One generated hypergraph with the expectations its reports are held to."""

    name: str
    k: int
    n: int
    edges: list
    path: Path = None
    components: list = field(default_factory=list)  # sorted vertex tuples, ordered by least vertex
    expected: dict = field(default_factory=dict)  # operator -> per-component dicts


@dataclass
class Workload:
    name: str
    command: list  # CLI subcommand and its flags, without --input
    instances: list


# --------------------------------------------------------------------------
# independent arithmetic


def _prime_powers(k: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while k > 1:
        e = 0
        while k % p == 0:
            k //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return out


def _count_mod_prime_power(p: int, e: int, a: np.ndarray, b: np.ndarray) -> int:
    """Solutions of a x == b (mod p^e); 0 when infeasible.

    Z/p^e is a local ring, so pivoting on an entry of least p-valuation
    leaves every other entry of its row and column divisible by the pivot,
    and row and column operations reduce the system to diagonal form.
    """
    q = p**e
    a = a % q
    b = b % q
    nrows, ncols = a.shape
    count = 1
    r = 0
    while r < min(nrows, ncols):
        sub = a[r:, r:]
        if not sub.any():
            break
        val = np.full(sub.shape, e)
        for t in range(e):
            val[(val == e) & (sub % p ** (t + 1) != 0)] = t
        i, j = np.unravel_index(int(np.argmin(val)), val.shape)
        v = int(val[i, j])
        i, j = i + r, j + r
        a[[r, i]] = a[[i, r]]
        b[[r, i]] = b[[i, r]]
        a[:, [r, j]] = a[:, [j, r]]
        unit_inv = pow(int(a[r, r]) // p**v, -1, q)
        a[r] = a[r] * unit_inv % q
        b[r] = b[r] * unit_inv % q
        pv = p**v
        c = a[r + 1 :, r] // pv
        a[r + 1 :] = (a[r + 1 :] - c[:, None] * a[r]) % q
        b[r + 1 :] = (b[r + 1 :] - c * b[r]) % q
        c = a[r, r + 1 :] // pv
        a[:, r + 1 :] = (a[:, r + 1 :] - a[:, r : r + 1] * c[None, :]) % q
        if b[r] % pv:
            return 0
        count *= pv
        r += 1
    if b[r:].any():
        return 0
    return count * q ** (ncols - r)


def count_solutions(modulus: int, m: int, edge_positions: list, rhs: int) -> int:
    """Number of exponent vectors in Z_modulus^m whose sum over every edge is rhs."""
    if not edge_positions:
        return modulus**m
    a = np.zeros((len(edge_positions), m), dtype=np.int64)
    for row, e in enumerate(edge_positions):
        a[row, list(e)] = 1
    b = np.full(len(edge_positions), rhs, dtype=np.int64)
    total = 1
    for p, e in _prime_powers(modulus):
        total *= _count_mod_prime_power(p, e, a.copy(), b.copy())
        if total == 0:
            return 0
    return total


def components_of(n: int, edges: list) -> list[tuple[int, ...]]:
    parent = list(range(n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in edges:
        for v in e[1:]:
            parent[find(v)] = find(e[0])
    groups: dict = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), []).append(v)
    return sorted((tuple(g) for g in groups.values()), key=lambda c: c[0])


def _load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("bench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def component_expectation(k, comp, comp_edges, operator, oracles) -> dict:
    """Counts a correct report gives for one (component, operator)."""
    singleton = len(comp) == 1 and not comp_edges
    base = {"vertices": list(comp), "singleton": singleton}
    if operator == "signless" and k % 2 == 1 and comp_edges:
        return base | {"feasible": False, "rhs": None, "count": 0, "class_count": 0, "H_count": 0, "N_pair_count": 0}
    rhs = 0 if operator == "laplacian" else k // 2
    pos = {v: i for i, v in enumerate(comp)}
    edge_pos = [tuple(pos[v] for v in e) for e in comp_edges]
    count = count_solutions(k, len(comp), edge_pos, rhs)
    if count == 0:
        return base | {"feasible": False, "rhs": None, "count": 0, "class_count": 0, "H_count": 0, "N_pair_count": 0}
    if count % k:
        raise RuntimeError(f"solution count {count} not divisible by k={k} on {comp}")
    classes = count // k
    if k % 2:
        h_count = 1
    else:
        h_count = count_solutions(2, len(comp), edge_pos, 0 if operator == "laplacian" else 1) // 2
    if (classes - h_count) % 2:
        raise RuntimeError(f"odd N class count on {comp}")
    exp = base | {
        "feasible": True,
        "rhs": rhs,
        "count": count,
        "class_count": classes,
        "H_count": h_count,
        "N_pair_count": (classes - h_count) // 2,
    }
    if k ** len(comp) <= ORACLE_MAX_ASSIGNMENTS:
        brute = oracles.class_inventory(k, comp, comp_edges, rhs)
        mine = (exp["count"], exp["class_count"], exp["H_count"], exp["N_pair_count"])
        if tuple(brute) != mine:
            raise RuntimeError(f"count oracle disagrees on {comp}: {brute} vs {mine}")
    return exp


def annotate(inst: Instance, oracles) -> None:
    inst.components = components_of(inst.n, inst.edges)
    for op in OPERATORS:
        per_comp = []
        for comp in inst.components:
            cset = set(comp)
            comp_edges = [e for e in inst.edges if cset.issuperset(e)]
            per_comp.append(component_expectation(inst.k, comp, comp_edges, op, oracles))
        inst.expected[op] = per_comp


# --------------------------------------------------------------------------
# hm-search hardness grading


def hm_search_steps(n: int, edges: list, cap: int) -> int | None:
    """Steps of ``partitions.find_hm_bipartition`` on one connected instance.

    A copy of that search as it stood when this benchmark was written
    (edges in file order, head candidates in vertex order, forward
    checking), counting recursive calls plus vertex assignments; None once
    ``cap`` is passed. It grades how hard an instance is for that search,
    so the inputs never depend on the program under test.
    """
    edges_at: dict = {v: [] for v in range(1, n + 1)}
    for e in edges:
        for v in e:
            edges_at[v].append(e)
    state: dict = {}
    steps = 0

    class Capped(Exception):
        pass

    def set_state(v, val, trail):
        nonlocal steps
        steps += 1
        if v in state:
            return state[v] == val
        state[v] = val
        trail.append(v)
        if val:
            for f in edges_at[v]:
                for u in f:
                    if u != v and not set_state(u, False, trail):
                        return False
        return True

    def solve(idx):
        nonlocal steps
        steps += 1
        if steps > cap:
            raise Capped
        if idx == len(edges):
            return True
        e = edges[idx]
        fixed = [v for v in e if state.get(v) is True]
        if fixed:
            if len(fixed) > 1:
                return False
            trail: list = []
            if all(set_state(u, False, trail) for u in e if u != fixed[0]):
                if solve(idx + 1):
                    return True
            for u in trail:
                del state[u]
            return False
        for v in e:
            if state.get(v) is False:
                continue
            trail = []
            if set_state(v, True, trail) and solve(idx + 1):
                return True
            for u in trail:
                del state[u]
        return False

    try:
        solve(0)
    except Capped:
        return None
    return steps if steps <= cap else None


# --------------------------------------------------------------------------
# workloads

# Dense connected instances, |E| = 1.2 n: tiny kernels, so the exact
# solve is the work. n = 400 is left out (one call takes 17-22 s).
SOLVE_SHAPES = [(3, 100), (4, 100), (6, 100)]
SOLVE_EDGE_RATIO = 1.2

# Hypertrees from the chain generator: k^(n-|E|) solutions, so thousands
# of classes per instance, all below the CLI's listing cap of 200 000.
CLASSES_SHAPES = [(3, 17), (3, 15), (4, 10), (4, 7), (5, 9), (5, 7), (6, 6)]

# Hypertrees past the brute-force reach (2^n and k^n above the scan budget).
CROSSCHECK_BEYOND_REACH = [(4, 22), (4, 26), (4, 30)]

# Head-mass bipartite instances: (k, heads, masses, extra edges). k = 4
# stays at n = 56 so the dense similarity identity (n^4 <= 10^7) runs.
SPECTRAL_SHAPES = [(4, 20, 36, 50), (4, 30, 26, 60)] * 2 + [(3, 20, 60, 40), (3, 30, 50, 60)]
# Instances on which find_hm_bipartition backtracks for 0.1-0.2 s each
# (the ones above take about a millisecond). Each is drawn from this shape
# until its step count lands in the band, so every seed carries a similar
# amount of that work; about one draw in three lands there.
SPECTRAL_HARD_SHAPE = (3, 130, 30, 20)
SPECTRAL_HARD_STEPS = (300_000, 450_000)
SPECTRAL_HARD_COUNT = 3


def _connected(rng, k, n, edge_total=None):
    extra = 0
    if edge_total is not None:
        extra = edge_total - (1 + -(-(n - k) // (k - 1)))
    return corpus.random_connected_hypergraph(rng, k, n, extra_edges=extra)


def _hard_hm_instance(rng):
    k, heads, masses, extra = SPECTRAL_HARD_SHAPE
    lo, hi = SPECTRAL_HARD_STEPS
    for _ in range(200):
        h, _ = corpus.random_hm_bipartite(rng, k, heads, masses, extra)
        steps = hm_search_steps(h.n, list(h.edges), hi)
        if steps is not None and steps >= lo:
            return h
    raise RuntimeError("no instance in the hm-search hardness band within 200 draws")


def _generate(name: str, seed: int) -> tuple[list, list]:
    rng = random.Random(f"{name}:{seed}")
    if name == "solve":
        graphs = [_connected(rng, k, n, int(SOLVE_EDGE_RATIO * n)) for k, n in SOLVE_SHAPES]
        return graphs, ["zero-eigenvectors", "--operator", "both"]
    if name == "classes":
        graphs = [_connected(rng, k, n) for k, n in CLASSES_SHAPES]
        return graphs, ["zero-eigenvectors", "--operator", "both"]
    if name == "crosscheck":
        graphs = corpus.mixed_corpus(seed) + [_connected(rng, k, n) for k, n in CROSSCHECK_BEYOND_REACH]
        return graphs, ["crosscheck"]
    if name == "spectral":
        graphs = [corpus.random_hm_bipartite(rng, *shape)[0] for shape in SPECTRAL_SHAPES]
        graphs += [_hard_hm_instance(rng) for _ in range(SPECTRAL_HARD_COUNT)]
        return graphs, ["spectral-transforms"]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("solve", "classes", "crosscheck", "spectral")


def build(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Generate the workload's instance files under ``workdir``."""
    graphs, command = _generate(name, seed)
    oracles = _load_oracles(root)
    instances = []
    for i, h in enumerate(graphs):
        inst = Instance(f"{name}-{seed}-{i:02d}", h.k, h.n, [list(e) for e in h.edges])
        inst.path = workdir / f"{inst.name}.json"
        inst.path.write_text(json.dumps({"k": inst.k, "n": inst.n, "edges": inst.edges}))
        annotate(inst, oracles)
        instances.append(inst)
    return Workload(name, command, instances)
