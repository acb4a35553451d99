"""Distance-based bond-additive indices with per-edge orientation breakdowns.

For an edge ``uv`` the vertex orientation counts how many vertices lie
strictly closer to ``u`` than to ``v`` (``n_u``), strictly closer to ``v``
(``n_v``), and equidistant (``n_0``).  The Mostar index sums ``|n_u - n_v|``
over all edges.  The edge variant classifies the other edges instead, with
the edge-to-vertex distance taken as the minimum over the edge's endpoints;
an edge is therefore equidistant from its own endpoints and always lands in
``m_0``.  The Wiener index is the sum of distances over unordered vertex
pairs.

All three indices come from one pass over the distance rows, a bounded
block of BFS sources at a time, so the ``n x n`` table is never held.  The
pass needs only two sums per vertex ``x``: its transmission
``T(x) = sum_w d(x, w)`` and its edge transmission
``E(x) = sum_{ab} min(d(x, a), d(x, b))``, both read off the row of ``x``.
Along an edge ``uv`` every distance ``d(w, .)`` and every edge distance
``min(d(a, .), d(b, .))`` changes by at most one, so each sign in the
orientation counts equals a difference, and summing gives
``n_u - n_v = T(v) - T(u)`` and ``m_u - m_v = E(v) - E(u)``.  Totals are
accumulated as Python integers, so sums are exact at any size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EdgeNotInGraph, NotConnected
from .graphs import Edge, Graph, all_pairs_distances, distance_blocks, is_connected

MOSTAR = "mostar"
EDGE_MOSTAR = "edge_mostar"
WIENER = "wiener"
INDEX_NAMES = (MOSTAR, EDGE_MOSTAR, WIENER)

#: Bytes of distance rows in flight.  A block takes
#: ``_ROW_BUDGET_BYTES // (8 * max(n, m))`` sources (at least one), so its
#: float64 rows from scipy and its gathers over the edge endpoints each fit
#: the budget, and peak memory is a small multiple of it whatever n is.
_ROW_BUDGET_BYTES = 4 << 20


@dataclass(frozen=True)
class OrientationCounts:
    """Vertex split of one edge: closer to u, closer to v, equidistant."""

    edge: Edge
    n_u: int
    n_v: int
    n_0: int


@dataclass(frozen=True)
class EdgeOrientationCounts:
    """Edge split of one edge; m_0 includes the edge itself."""

    edge: Edge
    m_u: int
    m_v: int
    m_0: int


@dataclass(frozen=True)
class PerEdgeContribution:
    edge: Edge
    vertex_diff: int
    edge_diff: int


@dataclass(frozen=True)
class IndexReport:
    mostar: int
    edge_mostar: int
    wiener: int
    per_edge: tuple[PerEdgeContribution, ...] | None = None


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise NotConnected(f"graph with {g.n} vertices is not connected")


def _require_edge(g: Graph, e) -> Edge:
    u, v = int(e[0]), int(e[1])
    if not g.has_edge(u, v):
        raise EdgeNotInGraph(u, v)
    return u, v


def _table(g: Graph, dists: np.ndarray | None) -> np.ndarray:
    return all_pairs_distances(g) if dists is None else dists


def _exact_sum(values: np.ndarray) -> int:
    # object dtype forces Python-int accumulation: exact, never wraps
    return int(np.sum(values, dtype=object)) if values.size else 0


def vertex_orientation(g: Graph, e, dists: np.ndarray | None = None) -> OrientationCounts:
    """Classify every vertex of ``g`` against the endpoints of edge ``e``.

    Counts are reported relative to the orientation of ``e`` as passed.
    """
    _require_connected(g)
    u, v = _require_edge(g, e)
    d = _table(g, dists)
    du, dv = d[u], d[v]
    n_u = int(np.count_nonzero(du < dv))
    n_v = int(np.count_nonzero(dv < du))
    return OrientationCounts((u, v), n_u, n_v, g.n - n_u - n_v)


def edge_orientation(g: Graph, e, dists: np.ndarray | None = None) -> EdgeOrientationCounts:
    """Classify every edge of ``g`` against the endpoints of edge ``e``."""
    _require_connected(g)
    u, v = _require_edge(g, e)
    d = _table(g, dists)
    ends = np.asarray(g.edges, dtype=np.int64)
    fu = np.minimum(d[ends[:, 0], u], d[ends[:, 1], u])
    fv = np.minimum(d[ends[:, 0], v], d[ends[:, 1], v])
    m_u = int(np.count_nonzero(fu < fv))
    m_v = int(np.count_nonzero(fv < fu))
    return EdgeOrientationCounts((u, v), m_u, m_v, g.m - m_u - m_v)


def _transmissions(g: Graph, ends: np.ndarray,
                   dists: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """``(T, E)``: per-vertex transmission and edge transmission, as int64.

    Rows come from BFS, or from the caller's all-pairs table when given; in
    both cases one block of at most ``_ROW_BUDGET_BYTES`` at a time.
    """
    _require_connected(g)
    rows = max(1, _ROW_BUDGET_BYTES // (8 * max(g.n, g.m)))
    blocks = (distance_blocks(g, rows) if dists is None
              else (dists[start:start + rows] for start in range(0, g.n, rows)))
    # int64 row sums cannot wrap: each is below n * max(n, m)
    vertex_sums, edge_sums = [], []
    for block in blocks:
        vertex_sums.append(block.sum(axis=1, dtype=np.int64))
        to_edge = block[:, ends[:, 0]]
        np.minimum(to_edge, block[:, ends[:, 1]], out=to_edge)
        edge_sums.append(to_edge.sum(axis=1, dtype=np.int64))
    return np.concatenate(vertex_sums), np.concatenate(edge_sums)


def mostar_index(g: Graph, dists: np.ndarray | None = None) -> int:
    """Sum of ``|n_u - n_v|`` over all edges."""
    return index_report(g, dists=dists).mostar


def edge_mostar_index(g: Graph, dists: np.ndarray | None = None) -> int:
    """Sum of ``|m_u - m_v|`` over all edges."""
    return index_report(g, dists=dists).edge_mostar


def wiener_index(g: Graph, dists: np.ndarray | None = None) -> int:
    """Sum of distances over unordered vertex pairs."""
    return index_report(g, dists=dists).wiener


def index_report(g: Graph, include_per_edge: bool = False,
                 dists: np.ndarray | None = None) -> IndexReport:
    """All three indices from a single streamed distance pass.

    ``dists``, when given, is ``all_pairs_distances(g)`` and is read in
    place of running BFS.  The per-edge breakdown, when requested, follows
    the canonical edge order.
    """
    ends = np.asarray(g.edges, dtype=np.intp).reshape(-1, 2)
    vertex_sums, edge_sums = _transmissions(g, ends, dists)
    u, v = ends[:, 0], ends[:, 1]
    vdiffs = np.abs(vertex_sums[u] - vertex_sums[v])
    ediffs = np.abs(edge_sums[u] - edge_sums[v])
    per_edge = None
    if include_per_edge:
        per_edge = tuple(
            PerEdgeContribution(edge, int(vd), int(ed))
            for edge, vd, ed in zip(g.edges, vdiffs, ediffs))
    return IndexReport(
        mostar=_exact_sum(vdiffs),
        edge_mostar=_exact_sum(ediffs),
        wiener=_exact_sum(vertex_sums) // 2,
        per_edge=per_edge,
    )
