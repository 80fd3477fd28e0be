"""k-uniform hypergraph data model.

Vertices are labeled 1..n in all external formats. Edges are stored as
sorted tuples of distinct vertex ids. All types are immutable after
construction and all operations are pure.
"""

import json
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from .errors import HypergraphFormatError

# isqrt(2^63 - 1): products of two residues mod k then stay exact in int64
K_MAX = 3037000499


def _is_int(x) -> bool:
    """True for integers proper; bool subclasses int but is not a vertex id or size."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Hypergraph:
    """An undirected simple k-uniform hypergraph on vertex set {1, ..., n}.

    Invariants enforced at construction:
      * 2 <= k <= K_MAX,
      * every edge has exactly k distinct vertices,
      * no duplicate edges (set equality),
      * all vertex ids lie in 1..n.
    """

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not _is_int(self.k) or self.k < 2:
            raise HypergraphFormatError(f"uniformity k must be an integer >= 2, got {self.k!r}")
        if self.k > K_MAX:
            raise HypergraphFormatError(
                f"uniformity k must be at most {K_MAX}, so that k^2 fits in int64, got {self.k}"
            )
        if not _is_int(self.n) or self.n < 0:
            raise HypergraphFormatError(f"vertex count n must be a nonnegative integer, got {self.n!r}")
        normalized = []
        seen = set()
        for edge in self.edges:
            for v in edge:
                if not _is_int(v):
                    raise HypergraphFormatError(
                        f"vertex id {v!r} in edge {list(edge)} is not an integer"
                    )
            vs = tuple(sorted(edge))
            if len(vs) != self.k or len(set(vs)) != len(vs):
                raise HypergraphFormatError(
                    f"edge {tuple(edge)} must contain exactly {self.k} distinct vertices"
                )
            for v in vs:
                if not 1 <= v <= self.n:
                    raise HypergraphFormatError(f"vertex id {v!r} outside 1..{self.n}")
            if vs in seen:
                raise HypergraphFormatError(f"duplicate edge {vs}")
            seen.add(vs)
            normalized.append(vs)
        object.__setattr__(self, "edges", tuple(normalized))

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

    def to_json_dict(self) -> dict:
        return {"k": self.k, "n": self.n, "edges": [list(e) for e in self.edges]}


@dataclass(frozen=True)
class ComponentDecomposition:
    """Partition of the vertex set into connected components.

    ``components[i]`` is a sorted vertex tuple, ``edge_lists[i]`` the edges
    lying inside it, and ``singleton[i]`` marks one-vertex components with
    no incident edge. Isolated vertices count as components.
    """

    components: tuple[tuple[int, ...], ...]
    edge_lists: tuple[tuple[tuple[int, ...], ...], ...]
    singleton: tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.components)

    @property
    def singleton_count(self) -> int:
        return sum(self.singleton)


class InducedSubhypergraph(NamedTuple):
    hypergraph: Hypergraph
    original_ids: tuple[int, ...]  # new vertex j (1-based) was original_ids[j-1]


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


def load_hypergraph(source: str | Path | bytes | IO) -> Hypergraph:
    """Load a hypergraph from a path, raw bytes, or an open stream.

    The content may be either the JSON or the plain-text format; both
    describe the same instances and are detected by the leading character.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
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
    if text.lstrip().startswith("{"):
        return parse_hypergraph_json(text)
    return parse_hypergraph_text(text)


def induced_subhypergraph(h: Hypergraph, subset: Iterable[int]) -> InducedSubhypergraph:
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
