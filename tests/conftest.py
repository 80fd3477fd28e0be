import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from zerolap import Hypergraph, counting, eigenstructure, hypergraph, partitions, zk_solver

sys.path.insert(0, str(Path(__file__).parent))

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def single_edge(k: int) -> Hypergraph:
    return Hypergraph(k, k, (tuple(range(1, k + 1)),))


def head_row(n: int, heads) -> np.ndarray:
    """The bipartition row of vertices 1..n with head set ``heads``, as
    ``partitions.find_hm_bipartition`` writes it: 0 on the heads, 1 elsewhere."""
    row = np.ones(n, np.int8)
    row[np.asarray(heads, dtype=np.intp) - 1] = 0
    return row


@pytest.fixture
def chain() -> Hypergraph:
    """Three 3-edges sharing single vertices: the 13-tripartition instance."""
    return Hypergraph(3, 7, ((1, 2, 3), (3, 4, 5), (5, 6, 7)))


@pytest.fixture
def k4_overlap() -> Hypergraph:
    """The 4-uniform instance with exactly three even-bipartitions."""
    return Hypergraph(4, 6, ((1, 2, 3, 4), (1, 3, 5, 6), (1, 2, 3, 6)))


@pytest.fixture
def k3_complete4() -> Hypergraph:
    """All four 3-subsets of a 4-set; admits no head-mass bipartition."""
    return Hypergraph(3, 4, ((1, 2, 3), (2, 3, 4), (1, 3, 4), (1, 2, 4)))


@pytest.fixture
def eliminations(monkeypatch):
    """Records (component vertices, modulus) of every Howell-form
    elimination, each made by some ``ComponentSystem.form`` and each modulo
    a prime power: the form modulo any other modulus is joined from the
    forms its system keeps for those prime powers, with no elimination."""
    calls = []
    asking = []  # the vertices of the system whose form is being asked for
    real_form, real = zk_solver.ComponentSystem.form, zk_solver.howell_form

    def form(system, modulus):
        asking.append(system.vertices)
        try:
            return real_form(system, modulus)
        finally:
            asking.pop()

    def counting(edges, width, modulus):
        calls.append((asking[-1], modulus))
        return real(edges, width, modulus)

    monkeypatch.setattr(zk_solver.ComponentSystem, "form", form)
    monkeypatch.setattr(zk_solver, "howell_form", counting)
    return calls


@pytest.fixture
def edge_index_builds(monkeypatch):
    """Records every hypergraph whose ``edge_index`` is built."""
    builds = []
    build = Hypergraph.edge_index.func

    def counting(h):
        builds.append(h)
        return build(h)

    counted = cached_property(counting)
    counted.__set_name__(Hypergraph, "edge_index")
    monkeypatch.setattr(Hypergraph, "edge_index", counted)
    return builds


@pytest.fixture
def induced_builds(monkeypatch):
    """Records the vertices of every induced sub-hypergraph built through
    any zerolap module's name for ``induced_subhypergraph``."""
    calls = []
    real = hypergraph.induced_subhypergraph

    def counting(h, subset):
        built = real(h, subset)
        calls.append(built.original_ids)
        return built

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "zerolap" and vars(module).get("induced_subhypergraph") is real:
            monkeypatch.setattr(module, "induced_subhypergraph", counting)
    return calls


@pytest.fixture
def solve_calls(monkeypatch):
    """Records (modulus, residue) of every ``solve_mod_k`` call, modulus k or 2."""
    calls = []
    real = zk_solver.solve_mod_k

    def counting(form, rhs):
        calls.append((form.modulus, rhs))
        return real(form, rhs)

    for module in (zk_solver, eigenstructure):
        monkeypatch.setattr(module, "solve_mod_k", counting)
    return calls


@pytest.fixture
def literal_scans(monkeypatch):
    """Records (component, kind) of every literal multipartition scan."""
    calls = []
    real = counting.literal_scan

    def recording(system, kind, *args, **kwargs):
        calls.append((system.vertices, kind))
        return real(system, kind, *args, **kwargs)

    monkeypatch.setattr(counting, "literal_scan", recording)
    return calls


@pytest.fixture
def bipartition_scans(monkeypatch):
    """Records the component of every bipartition scan."""
    calls = []
    real = partitions.enumerate_bipartitions

    def counting(system, *args, **kwargs):
        calls.append(system.vertices)
        return real(system, *args, **kwargs)

    monkeypatch.setattr(partitions, "enumerate_bipartitions", counting)
    return calls


@pytest.fixture
def elimination_orders(monkeypatch):
    """Records the vertex count of every elimination order computed."""
    calls = []
    real = counting.elimination_order

    def recording(edges, width, budget):
        calls.append(width)
        return real(edges, width, budget)

    monkeypatch.setattr(counting, "elimination_order", recording)
    return calls


@pytest.fixture
def residue_counts(monkeypatch):
    """Records (vertex count, residue, domain) of every count by elimination."""
    calls = []
    real = counting.count_assignments

    def recording(edges, bags, k, residue, domain, budget):
        calls.append((len(bags), residue, tuple(domain)))
        return real(edges, bags, k, residue, domain, budget)

    monkeypatch.setattr(counting, "count_assignments", recording)
    return calls
