"""Adjacency, Laplacian, and signless Laplacian tensors applied implicitly.

The implicit application of the adjacency tensor to a vector collapses, for
each vertex i, to a sum over incident edges of the product of the other
k-1 entries; this edge-sum form costs O(k|E|) and is the only application
path used for verification. ``apply_adjacency`` is its one implementation:
it takes one vector or a (rows, n) batch, and a batch costs a fixed number
of numpy calls however many rows it has. ``apply_operator`` calls the
kernel behind it once and adds the degree term for the two Laplacians;
the power iteration builds the (|E|, k) edge index once and calls that
kernel at every step.

The batch gives the same bits as applying the edge sums one vector and one
edge at a time with complex scalars. numpy's array complex multiply may
fuse its multiply-adds, which changes the last bit of some products, so
products are formed in split form, re = ar*br - ai*bi and im = ar*bi +
ai*br, each product rounded on its own as in the scalar multiply. Each
vertex accumulates its edge terms in edge order (``np.add.at``), never by
a pairwise reduction.

For even k, the +-1 diagonal similarity that carries the Laplacian to the
signless Laplacian is checked edge by edge: it holds exactly when every
edge's sign product is -1, one integer pass over the edge index with no
tensor built. The similarity and the root-of-unity reflection both take
the bipartition as the hm search's part-index row.
"""

import cmath
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, VerificationError
from .hypergraph import Hypergraph, connected_components, degrees
from .zk_solver import LAPLACIAN, SIGNLESS

ADJACENCY = "adjacency"


def _as_vector(h: Hypergraph, x) -> np.ndarray:
    arr = np.asarray(x, dtype=complex)
    if arr.ndim not in (1, 2) or arr.shape[-1] != h.n:
        raise ValueError(f"vector has shape {arr.shape}, expected ({h.n},) or (rows, {h.n})")
    return arr


def _split_mul(a, b):
    """Complex product of (re, im) pairs, each float product rounded alone."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def edge_index(h: Hypergraph) -> np.ndarray:
    """The (|E|, k) array of 0-based vertex indices, one row per edge."""
    return np.array(h.edges, dtype=np.intp).reshape(-1, h.k) - 1


def apply_adjacency(h: Hypergraph, x) -> np.ndarray:
    """Edge-sum form: result_i = sum over edges e containing i of
    prod_{j in e, j != i} x_j, for one vector or each row of a batch.
    Prefix/suffix products keep each edge O(k)."""
    return _apply_adjacency(h, edge_index(h), _as_vector(h, x))


def _apply_adjacency(h: Hypergraph, edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``apply_adjacency`` on a checked vector or batch, with the edge index
    built by the caller."""
    rows = np.atleast_2d(x)
    if not len(edges):
        return np.zeros(x.shape, dtype=complex)
    vals = [(rows.real[:, edges[:, i]], rows.imag[:, edges[:, i]]) for i in range(h.k)]
    one = (np.ones((len(rows), len(edges))), np.zeros((len(rows), len(edges))))
    prefix = [one]
    for v in vals:
        prefix.append(_split_mul(prefix[-1], v))
    suffix = [one]
    for v in reversed(vals):
        suffix.append(_split_mul(suffix[-1], v))
    suffix.reverse()
    terms = np.empty((len(edges), h.k, len(rows)), dtype=complex)
    for i in range(h.k):
        terms[:, i].real, terms[:, i].imag = (t.T for t in _split_mul(prefix[i], suffix[i + 1]))
    out = np.zeros((h.n, len(rows)), dtype=complex)
    np.add.at(out, edges.ravel(), terms.reshape(-1, len(rows)))
    return out.T.reshape(x.shape)


def apply_operator(h: Hypergraph, operator: str, x) -> np.ndarray:
    """A x^{k-1}, (D - A) x^{k-1} or (D + A) x^{k-1}: entry i of the last
    two is d_i x_i^{k-1} minus, respectively plus, the adjacency term."""
    x = _as_vector(h, x)
    adj = _apply_adjacency(h, edge_index(h), x)
    if operator == ADJACENCY:
        return adj
    d = np.array(degrees(h), dtype=float)
    if operator == LAPLACIAN:
        return d * x ** (h.k - 1) - adj
    if operator == SIGNLESS:
        return d * x ** (h.k - 1) + adj
    raise ValueError(f"unknown operator {operator!r}")


def eig_residual(h: Hypergraph, operator: str, lam: complex, x) -> float | np.ndarray:
    """Max-norm defect of the eigenvalue equation after canonical scaling.

    The vector is rescaled to unit maximum modulus first, so the result is
    scale-invariant. Returns max_i |lam * y_i^{k-1} - (T y^{k-1})_i| as a
    float, or one such defect per row of a (rows, n) batch.
    """
    x = _as_vector(h, x)
    scale = np.max(np.abs(x), axis=-1, keepdims=True)
    if not scale.all():
        raise ValueError("residual undefined for the zero vector")
    y = x / scale
    lhs = complex(lam) * y ** (h.k - 1)
    resid = np.max(np.abs(lhs - apply_operator(h, operator, y)), axis=-1)
    return float(resid) if x.ndim == 1 else resid


@dataclass(frozen=True, eq=False)
class Eigenpair:
    """An (eigenvalue, eigenvector) pair for one of the three operators."""

    operator: str
    value: complex
    vector: np.ndarray
    residual: float


def _heads_per_edge(h: Hypergraph, row) -> tuple[np.ndarray, np.ndarray]:
    """The head mask of a bipartition row (entry v is vertex v+1's part:
    0 on the heads, 1 on the mass side) and each edge's number of heads."""
    p = np.asarray(row)
    if p.shape != (h.n,) or not np.isin(p, (0, 1)).all():
        raise ValueError(f"row must hold {h.n} entries, each 0 or 1")
    heads = p == 0
    return heads, np.count_nonzero(heads[edge_index(h)], axis=1)


def similarity_identity_holds(h: Hypergraph, row) -> bool:
    """Whether D^(1-k) L D = S exactly, for the +-1 diagonal D that is +1
    on the heads of the bipartition ``row`` and -1 elsewhere.

    For even k, p^k = 1 leaves the diagonal entries alone and p^(k-1) = p
    multiplies each edge's entries by the product of the signs on that
    edge, so the identity holds exactly when every edge's sign product is
    -1: when every edge holds an odd number of heads. For odd k that factor
    depends on which vertex of the edge comes first, so the identity is not
    edge-local and ValueError is raised.
    """
    if h.k % 2:
        raise ValueError(f"the similarity identity is edge-local only for even k, not k = {h.k}")
    _, per_edge = _heads_per_edge(h, row)
    return bool((per_edge % 2 == 1).all())


def hm_spectral_reflection(
    h: Hypergraph,
    row,
    pair: Eigenpair,
    r: int,
    verify_tolerance: float = 1e-8,
) -> Eigenpair:
    """Rotate an adjacency eigenpair of a head-mass bipartite hypergraph.

    ``row`` is the hm-bipartition as ``partitions.find_hm_bipartition``
    returns it: 0 on the heads, 1 on the mass side. Multiplying the head
    entries by the r-th power of the primitive k-th root of unity turns
    (lam, x) into an eigenpair for lam times that root, because every edge
    contains exactly one head. The result is re-verified; its residual may
    not exceed the input residual by more than 1e-10.
    """
    is_head, per_edge = _heads_per_edge(h, row)
    if (per_edge != 1).any():
        raise ValueError("not an hm-bipartition: some edge lacks a unique head")
    if pair.operator != ADJACENCY:
        raise ValueError("reflection requires an adjacency eigenpair")
    resid_in = eig_residual(h, ADJACENCY, pair.value, pair.vector)
    if resid_in > verify_tolerance:
        raise ValueError(f"input pair unverified: residual {resid_in:.3e}")

    root = cmath.exp(2j * cmath.pi * (r % h.k) / h.k)
    y = np.array(pair.vector, dtype=complex)
    for v in np.flatnonzero(is_head):
        y[v] *= root
    value = root * pair.value
    resid_out = eig_residual(h, ADJACENCY, value, y)
    if resid_out > resid_in + 1e-10:
        raise VerificationError(
            f"reflected pair residual {resid_out:.3e} exceeds input {resid_in:.3e} + 1e-10"
        )
    return Eigenpair(ADJACENCY, value, y, resid_out)


def nqz_spectral_radius(
    h: Hypergraph,
    max_iterations: int = 10**4,
    tolerance: float = 1e-12,
    residual_tolerance: float = 1e-8,
) -> Eigenpair:
    """Power iteration for the adjacency spectral radius of a connected
    hypergraph with at least one edge.

    Iterates the shifted map x -> ((A + I) x^{k-1})^{[1/(k-1)]} under
    max-norm scaling; the min/max of the per-entry ratios pinch the shifted
    eigenvalue, and iteration stops when they agree to ``tolerance``.
    Raises BudgetExceededError when ``max_iterations`` steps do not get
    there. A converged pair whose residual exceeds ``residual_tolerance``
    is reported as a warning.
    """
    if h.edge_count == 0:
        raise ValueError("spectral radius iteration needs at least one edge")
    if len(connected_components(h)) != 1:
        raise ValueError("spectral radius iteration needs a connected hypergraph")
    k = h.k
    x = np.ones(h.n, dtype=float)
    edges = edge_index(h)
    for _ in range(max_iterations):
        y = _apply_adjacency(h, edges, x.astype(complex)).real + x ** (k - 1)
        ratios = y / x ** (k - 1)
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        if hi - lo <= tolerance:
            break
        x = y ** (1.0 / (k - 1))
        x = x / np.max(x)
    else:
        raise BudgetExceededError(
            f"power iteration did not converge within {max_iterations} iterations "
            f"(eigenvalue bracket width {hi - lo:.3e})"
        )
    value = complex((lo + hi) / 2 - 1.0)
    resid = eig_residual(h, ADJACENCY, value, x)
    if resid > residual_tolerance:
        warnings.warn(
            f"converged eigenpair residual {resid:.3e} above {residual_tolerance:.1e}",
            RuntimeWarning,
        )
    return Eigenpair(ADJACENCY, value, x.astype(complex), resid)
