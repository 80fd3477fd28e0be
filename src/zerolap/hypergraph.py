"""k-uniform hypergraph data model.

Vertices are labeled 1..n in all external formats. Edges are stored as
sorted tuples of distinct vertex ids, and as the read-only (|E|, k)
``edge_index`` that every solving layer reads, built with numpy on first
use. All types are immutable after construction and all operations are pure.
"""

import io
import json
import os
import re
from collections import namedtuple
from functools import cached_property

from .errors import HypergraphFormatError

# isqrt(2^63 - 1): products of two residues mod k then stay exact in int64
K_MAX = 3037000499


def _is_int(x) -> bool:
    """True for integers proper; bool subclasses int but is not a vertex id or size."""
    return isinstance(x, int) and not isinstance(x, bool)


class _Record:
    """An immutable record of the attributes named in ``_fields``, whose
    equality, hash and repr follow those fields as a frozen dataclass's do."""

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class Hypergraph(_Record):
    """An undirected simple k-uniform hypergraph on vertex set {1, ..., n}.

    Invariants enforced at construction:
      * 2 <= k <= K_MAX,
      * every edge has exactly k distinct vertices,
      * no duplicate edges (set equality),
      * all vertex ids lie in 1..n.
    """

    _fields = ("k", "n", "edges")

    def __init__(self, k: int, n: int, edges: tuple[tuple[int, ...], ...]):
        if not _is_int(k) or k < 2:
            raise HypergraphFormatError(f"uniformity k must be an integer >= 2, got {k!r}")
        if k > K_MAX:
            raise HypergraphFormatError(
                f"uniformity k must be at most {K_MAX}, so that k^2 fits in int64, got {k}"
            )
        if not _is_int(n) or n < 0:
            raise HypergraphFormatError(f"vertex count n must be a nonnegative integer, got {n!r}")
        normalized = []
        seen = set()
        for edge in edges:
            for v in edge:
                if not _is_int(v):
                    raise HypergraphFormatError(
                        f"vertex id {v!r} in edge {list(edge)} is not an integer"
                    )
            vs = tuple(sorted(edge))
            if len(vs) != k or len(set(vs)) != len(vs):
                raise HypergraphFormatError(
                    f"edge {tuple(edge)} must contain exactly {k} distinct vertices"
                )
            for v in vs:
                if not 1 <= v <= n:
                    raise HypergraphFormatError(f"vertex id {v!r} outside 1..{n}")
            if vs in seen:
                raise HypergraphFormatError(f"duplicate edge {vs}")
            seen.add(vs)
            normalized.append(vs)
        super().__init__(k, n, tuple(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence(self) -> dict[int, list[int]]:
        """Vertex -> ascending indices of its edges; isolated vertices are absent."""
        out: dict[int, list[int]] = {}
        for i, e in enumerate(self.edges):
            for v in e:
                out.setdefault(v, []).append(i)
        return out

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Per-vertex incidence counts; position i-1 holds the degree of vertex i."""
        return tuple(len(self.incidence.get(v, ())) for v in range(1, self.n + 1))

    @cached_property
    def edge_index(self):
        """The read-only (|E|, k) array of 0-based vertex indices, one row per edge."""
        import numpy as np  # on first read, so loading a hypergraph needs no numpy

        index = np.array(self.edges, dtype=np.intp).reshape(-1, self.k) - 1
        index.flags.writeable = False
        return index


class ComponentDecomposition(_Record):
    """Partition of the vertex set into connected components.

    ``components[i]`` is a sorted vertex tuple, ``edge_lists[i]`` the edges
    lying inside it, and ``singleton[i]`` marks one-vertex components with
    no incident edge. Isolated vertices count as components.
    """

    _fields = ("components", "edge_lists", "singleton")

    def __len__(self) -> int:
        return len(self.components)

    @property
    def singleton_count(self) -> int:
        return sum(self.singleton)


# ``original_ids[j - 1]`` is the original id of new vertex j
InducedSubhypergraph = namedtuple("InducedSubhypergraph", "hypergraph original_ids")


def degrees(h: Hypergraph) -> tuple[int, ...]:
    """Per-vertex incidence counts, computed once per hypergraph."""
    return h.degrees


def connected_components(h: Hypergraph) -> ComponentDecomposition:
    """Decompose into maximal connected vertex sets via disjoint-set union."""
    parent = list(range(h.n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in h.edges:
        ra = find(e[0])
        for v in e[1:]:
            rv = find(v)
            if rv != ra:
                parent[rv] = ra

    groups: dict[int, list[int]] = {}
    for v in range(1, h.n + 1):
        groups.setdefault(find(v), []).append(v)

    comps = sorted((tuple(sorted(g)) for g in groups.values()), key=lambda c: c[0])
    index_of = {v: i for i, c in enumerate(comps) for v in c}
    edge_lists: list[list[tuple[int, ...]]] = [[] for _ in comps]
    for e in h.edges:
        edge_lists[index_of[e[0]]].append(e)

    singleton = tuple(len(c) == 1 and not el for c, el in zip(comps, edge_lists))
    return ComponentDecomposition(
        tuple(comps), tuple(tuple(el) for el in edge_lists), singleton
    )


def parse_hypergraph_json(text: str) -> Hypergraph:
    """Parse the JSON format: {"k": int, "n": int, "edges": [[int, ...], ...]}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise HypergraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise HypergraphFormatError("top-level JSON value must be an object")
    missing = {"k", "n", "edges"} - obj.keys()
    if missing:
        raise HypergraphFormatError(f"missing fields: {sorted(missing)}")
    edges = obj["edges"]
    if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
        raise HypergraphFormatError('"edges" must be an array of arrays')
    return Hypergraph(obj["k"], obj["n"], tuple(tuple(e) for e in edges))


def parse_hypergraph_text(text: str) -> Hypergraph:
    """Parse the plain-text format: first line "k n", one edge per line.

    Blank lines and lines starting with '#' are ignored.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise HypergraphFormatError("empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise HypergraphFormatError(f'first line must be "k n", got {lines[0]!r}')
    k, n = _parse_int(header[0]), _parse_int(header[1])
    edges = tuple(tuple(_parse_int(tok) for tok in ln.split()) for ln in lines[1:])
    return Hypergraph(k, n, edges)


_INT_TOKEN = re.compile("-?(0|[1-9][0-9]*)")


def _parse_int(token: str) -> int:
    """``int`` on JSON's integer grammar only: no ``1_0``, ``+1``, ``007`` or non-ASCII digits."""
    if not _INT_TOKEN.fullmatch(token):
        raise HypergraphFormatError(f"non-integer token {token!r}")
    return int(token)


def load_hypergraph(source: str | os.PathLike | bytes | io.IOBase) -> Hypergraph:
    """Load a hypergraph from a path, raw bytes, or an open stream.

    The content may be either the JSON or the plain-text format; both
    describe the same instances and are detected by the leading character.
    A leading byte-order mark is refused in either format.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as stream:
            data = stream.read()
    elif isinstance(source, bytes):
        data = source
    else:
        data = source.read()
        if isinstance(data, str):
            data = data.encode("utf-8")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise HypergraphFormatError(f"input is not UTF-8: {exc}") from exc
    if text.startswith("\ufeff"):
        raise HypergraphFormatError("input starts with a byte-order mark; save it without one")
    if text.lstrip().startswith("{"):
        return parse_hypergraph_json(text)
    return parse_hypergraph_text(text)


def induced_subhypergraph(h: Hypergraph, subset) -> InducedSubhypergraph:
    """Sub-hypergraph induced by a vertex subset, relabeled to 1..|S|.

    Keeps exactly the edges entirely contained in the subset, in input
    order, gathered through ``h.incidence`` at a cost that follows the
    subset's degrees; the returned mapping recovers original ids.
    """
    ids = tuple(sorted(set(subset)))
    for v in ids:
        if not _is_int(v) or not 1 <= v <= h.n:
            raise ValueError(f"vertex id {v!r} outside 1..{h.n}")
    local = {old: new for new, old in enumerate(ids, start=1)}
    near = sorted({i for v in ids for i in h.incidence.get(v, ())})
    edges = tuple(
        tuple(local[v] for v in e)
        for e in (h.edges[i] for i in near)
        if all(v in local for v in e)
    )
    return InducedSubhypergraph(Hypergraph(h.k, len(ids), edges), ids)
