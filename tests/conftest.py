import sys
from pathlib import Path

import pytest

from zerolap import Hypergraph, eigenstructure, partitions, zk_solver

sys.path.insert(0, str(Path(__file__).parent))

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def single_edge(k: int) -> Hypergraph:
    return Hypergraph(k, k, (tuple(range(1, k + 1)),))


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
def snf_calls(monkeypatch):
    """Records the matrix of every Smith normal form computed."""
    calls = []
    real = zk_solver.smith_normal_form

    def counting(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(zk_solver, "smith_normal_form", counting)
    return calls


@pytest.fixture
def solve_calls(monkeypatch):
    """Records the system of every ``solve_mod_k`` call, modulus k or 2."""
    calls = []
    real = zk_solver.solve_mod_k

    def counting(sys, factorization=None):
        calls.append(sys)
        return real(sys, factorization)

    for module in (zk_solver, eigenstructure):
        monkeypatch.setattr(module, "solve_mod_k", counting)
    return calls


@pytest.fixture
def multipartition_scans(monkeypatch):
    """Records (component, kind) of every multipartition scan."""
    calls = []
    real = partitions.enumerate_multipartitions

    def counting(h, component, kind, *args, **kwargs):
        calls.append((tuple(sorted(set(component))), kind))
        return real(h, component, kind, *args, **kwargs)

    monkeypatch.setattr(partitions, "enumerate_multipartitions", counting)
    return calls
