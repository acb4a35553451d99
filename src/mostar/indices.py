"""Distance-based bond-additive indices with per-edge orientation breakdowns.

For an edge ``uv`` the vertex orientation counts how many vertices lie
strictly closer to ``u`` than to ``v`` (``n_u``), strictly closer to ``v``
(``n_v``), and equidistant (``n_0``).  The Mostar index sums ``|n_u - n_v|``
over all edges.  The edge variant classifies the other edges instead, with
the edge-to-vertex distance taken as the minimum over the edge's endpoints;
an edge is therefore equidistant from its own endpoints and always lands in
``m_0``.  The Wiener index is the sum of distances over unordered vertex
pairs.

With the transmission ``T(x) = sum_w d(x, w)`` and the edge transmission
``E(x) = sum_{ab} min(d(x, a), d(x, b))``, and since every distance changes
by at most one along an edge, ``n_u - n_v = T(v) - T(u)``,
``m_u - m_v = E(v) - E(u)`` and ``W = sum T / 2``.  These sums are taken
block by block (``graphs.blocks``): all that lies outside a block B hangs
at one of its vertices ``a``, ``W_B(a)`` vertices and ``H_B(a)`` edges, so
for an edge ``uv`` of B

* ``n_u - n_v = sum_a W_B(a) (d_B(a, v) - d_B(a, u))``
* ``m_u - m_v = sum_a H_B(a) (d_B(a, v) - d_B(a, u)) + E_B(v) - E_B(u)``,
  ``E_B`` taken over B's own edges
* ``W(G) = 1/2 sum_B W_B' D_B W_B``

Blocks of at most ``_FLOYD_MAX`` vertices are stacked by size and get
``D_B`` from one batched Floyd-Warshall; a larger block streams its BFS
rows, a bounded batch of sources at a time, and a graph that is one block
(or one vertex) takes that pass unweighted, so no ``n x n`` table is held.
Totals are accumulated as Python integers, so sums are exact at any size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EdgeNotInGraph
from .graphs import Blocks, Edge, Graph, blocks, distance_blocks, distance_rows

MOSTAR = "mostar"
EDGE_MOSTAR = "edge_mostar"
WIENER = "wiener"
INDEX_NAMES = (MOSTAR, EDGE_MOSTAR, WIENER)

#: Bytes of distance rows in flight.  A block takes
#: ``_ROW_BUDGET_BYTES // (8 * max(n, m))`` sources (at least one), so its
#: float64 rows from scipy and its gathers over the edge endpoints each fit
#: the budget, and peak memory is a small multiple of it whatever n is.
_ROW_BUDGET_BYTES = 4 << 20

#: Largest block that takes the batched Floyd-Warshall; larger ones stream rows.
_FLOYD_MAX = 48


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


def _endpoint_rows(g: Graph, e) -> tuple[Edge, np.ndarray, np.ndarray]:
    u, v = int(e[0]), int(e[1])
    if not g.has_edge(u, v):
        distance_rows(g, (0,))  # a disconnected graph raises NotConnected first
        raise EdgeNotInGraph(u, v)
    du, dv = distance_rows(g, (u, v))
    return (u, v), du, dv


def _exact_sum(values: np.ndarray) -> int:
    # object dtype forces Python-int accumulation: exact, never wraps
    return int(np.sum(values, dtype=object)) if values.size else 0


def vertex_orientation(g: Graph, e) -> OrientationCounts:
    """Classify every vertex of ``g`` against the endpoints of edge ``e``.

    Counts are reported relative to the orientation of ``e`` as passed.  Both
    orientations raise NotConnected on a disconnected ``g``, else
    EdgeNotInGraph if ``e`` is not an edge.
    """
    edge, du, dv = _endpoint_rows(g, e)
    n_u = int(np.count_nonzero(du < dv))
    n_v = int(np.count_nonzero(dv < du))
    return OrientationCounts(edge, n_u, n_v, g.n - n_u - n_v)


def edge_orientation(g: Graph, e) -> EdgeOrientationCounts:
    """Classify every edge of ``g`` against the endpoints of edge ``e``."""
    edge, du, dv = _endpoint_rows(g, e)
    ends = np.asarray(g.edges, dtype=np.int64)
    fu = np.minimum(du[ends[:, 0]], du[ends[:, 1]])
    fv = np.minimum(dv[ends[:, 0]], dv[ends[:, 1]])
    m_u = int(np.count_nonzero(fu < fv))
    m_v = int(np.count_nonzero(fv < fu))
    return EdgeOrientationCounts(edge, m_u, m_v, g.m - m_u - m_v)


def _transmissions(g: Graph, ends: np.ndarray, weights: np.ndarray | None = None,
                   hanging: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(T, E)`` as int64 from BFS rows, at most ``_ROW_BUDGET_BYTES`` at a
    time; vertex w counts ``weights[w]`` times in T and ``hanging[w]`` in E."""
    rows = max(1, _ROW_BUDGET_BYTES // (8 * max(g.n, g.m)))
    # int64 row sums cannot wrap: each is below n * max(n, m)
    vertex_sums, edge_sums = [], []
    for block in distance_blocks(g, rows):
        vertex_sums.append(block.sum(axis=1, dtype=np.int64) if weights is None
                           else block @ weights)
        to_edge = block[:, ends[:, 0]]
        np.minimum(to_edge, block[:, ends[:, 1]], out=to_edge)
        edge_sums.append(to_edge.sum(axis=1, dtype=np.int64)
                         + (0 if hanging is None else block @ hanging))
    return np.concatenate(vertex_sums), np.concatenate(edge_sums)


def _block_diffs(g: Graph, parts: Blocks, ends: np.ndarray, chosen: np.ndarray,
                 s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Edge ids, their vertex and edge diffs, and twice the Wiener share of
    the blocks ``chosen``, each of s vertices."""
    k = chosen.size
    at = parts.vertex_start[chosen, None] + np.arange(s)
    at = np.take_along_axis(at, np.argsort(parts.vertices[at], axis=1), axis=1)
    weights, hanging = parts.weights[at], parts.hanging[at]
    counts = np.diff(parts.edge_start)[chosen]
    owner = np.repeat(np.arange(k), counts)  # the block of each edge, 0..k-1
    firsts = np.cumsum(counts) - counts  # where each block's edges start
    eids = parts.edges[np.repeat(parts.edge_start[chosen] - firsts, counts)
                       + np.arange(owner.size)]
    if s > _FLOYD_MAX:
        eids.sort()  # k == 1: relabelled in vertex order, its edges stay canonical
    # endpoints as positions in the flattened (k, s) arrays, by (block, vertex) key
    pos = np.searchsorted((parts.vertices[at] + g.n * np.arange(k)[:, None]).ravel(),
                          ends[eids] + g.n * owner[:, None])
    local = pos - s * owner[:, None]
    if s <= _FLOYD_MAX:  # one Floyd-Warshall over the stack
        d = np.full((k, s, s), s, dtype=np.int64)  # s exceeds every hop count
        d[owner, local[:, 0], local[:, 1]] = d[owner, local[:, 1], local[:, 0]] = 1
        d[:, np.arange(s), np.arange(s)] = 0
        for t in range(s):
            np.minimum(d, d[:, :, t, None] + d[:, None, t, :], out=d)
        near = np.minimum(d[owner, :, local[:, 0]], d[owner, :, local[:, 1]])
        trans = np.einsum("kij,kj->ki", d, weights).ravel()
        edge_trans = (np.einsum("kij,kj->ki", d, hanging)
                      + np.add.reduceat(near, firsts)).ravel()
    else:
        sub = Graph(s, tuple(map(tuple, local.tolist())))
        trans, edge_trans = _transmissions(sub, local, weights[0], hanging[0])
    u, v = pos[:, 0], pos[:, 1]
    # weights . D weights of a block is at most n^2 s: far inside int64
    return (eids, np.abs(trans[u] - trans[v]), np.abs(edge_trans[u] - edge_trans[v]),
            _exact_sum((weights * trans.reshape(k, s)).sum(axis=1)))


def mostar_index(g: Graph) -> int:
    """Sum of ``|n_u - n_v|`` over all edges."""
    return index_report(g).mostar


def edge_mostar_index(g: Graph) -> int:
    """Sum of ``|m_u - m_v|`` over all edges."""
    return index_report(g).edge_mostar


def wiener_index(g: Graph) -> int:
    """Sum of distances over unordered vertex pairs."""
    return index_report(g).wiener


def index_report(g: Graph, include_per_edge: bool = False) -> IndexReport:
    """All three indices, block by block (see above); the per-edge
    breakdown, when requested, follows the canonical edge order."""
    ends = np.asarray(g.edges, dtype=np.intp).reshape(-1, 2)
    parts = blocks(g)
    if parts.vertex_start.size <= 2:  # one block, or one vertex: the whole graph
        sums = _transmissions(g, ends)
        vdiffs, ediffs = (np.abs(x[ends[:, 0]] - x[ends[:, 1]]) for x in sums)
        wiener = _exact_sum(sums[0]) // 2
    else:
        vdiffs, ediffs, twice = np.empty(g.m, np.int64), np.empty(g.m, np.int64), 0
        sizes = np.diff(parts.vertex_start)
        for s in np.unique(sizes).tolist():
            chosen = np.flatnonzero(sizes == s)
            # k blocks per stack: k s^2 int64 distances and at most k s^3 / 2 edge gathers
            step = max(1, _ROW_BUDGET_BYTES // (8 * s ** 3)) if s <= _FLOYD_MAX else 1
            for first in range(0, chosen.size, step):
                eids, vd, ed, share = _block_diffs(g, parts, ends,
                                                   chosen[first:first + step], s)
                vdiffs[eids], ediffs[eids] = vd, ed
                twice += share
        wiener = twice // 2
    per_edge = tuple(PerEdgeContribution(edge, int(vd), int(ed)) for edge, vd, ed
                     in zip(g.edges, vdiffs, ediffs)) if include_per_edge else None
    return IndexReport(_exact_sum(vdiffs), _exact_sum(ediffs), wiener, per_edge)
