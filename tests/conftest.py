import sys
from pathlib import Path

import numpy as np
import pytest

from zerolap import Hypergraph, eigenstructure, partitions, zk_solver

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
    """Records the modulus of every Howell-form elimination."""
    calls = []
    real = zk_solver.howell_form

    def counting(edges, width, modulus):
        calls.append(modulus)
        return real(edges, width, modulus)

    for module in (zk_solver, eigenstructure, partitions):
        monkeypatch.setattr(module, "howell_form", counting)
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
def multipartition_scans(monkeypatch):
    """Records (component, kind) of every multipartition scan, whether it
    lists witnesses or only counts orbits."""
    calls = []
    real = partitions.multipartition_orbits

    def counting(h, component, kind, *args, **kwargs):
        calls.append((tuple(sorted(set(component))), kind))
        return real(h, component, kind, *args, **kwargs)

    monkeypatch.setattr(partitions, "multipartition_orbits", counting)
    return calls


@pytest.fixture
def bipartition_scans(monkeypatch):
    """Records the component of every bipartition scan."""
    calls = []
    real = partitions.enumerate_bipartitions

    def counting(h, component, *args, **kwargs):
        calls.append(tuple(sorted(set(component))))
        return real(h, component, *args, **kwargs)

    monkeypatch.setattr(partitions, "enumerate_bipartitions", counting)
    return calls


@pytest.fixture
def elimination_orders(monkeypatch):
    """Records the vertex count of every elimination order computed."""
    calls = []
    real = partitions.elimination_order

    def counting(edges, width, budget):
        calls.append(width)
        return real(edges, width, budget)

    monkeypatch.setattr(partitions, "elimination_order", counting)
    return calls


@pytest.fixture
def residue_counts(monkeypatch):
    """Records (vertex count, residue, domain) of every count by elimination."""
    calls = []
    real = partitions.count_assignments

    def counting(edges, bags, k, residue, domain, budget):
        calls.append((len(bags), residue, tuple(domain)))
        return real(edges, bags, k, residue, domain, budget)

    monkeypatch.setattr(partitions, "count_assignments", counting)
    return calls
