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

The ``Blocks`` arrays are the engine's whole input: it reads each edge as
the positions of its ends in its block (``local_ends``), never a vertex id.
Blocks that share a layout (``Blocks.layout``: the copies of one monomer,
bridge or cycle that a construction repeats) share ``D_B``, found once:
with the weights and hanging counts of a layout's k blocks stacked as
``(k, s)`` matrices W and H, ``T = W D_B`` and ``E = H D_B + E_B`` for all k
at once, and each block's twice-Wiener share is the row sum of ``W * T``,
taken in Python ints where it could reach 2^63.  ``_reports`` alone groups
blocks by layout.  Layouts of at most ``_FLOYD_MAX`` vertices are stacked by
size, sizes above 8 padded up to a multiple of 8 (``_stack_sizes``), and
get ``D_B`` from one batched Floyd-Warshall.  A larger layout is probed
once, and the pass it picks takes all its blocks' rows at once: if a BFS
from its position 0 ends within ``_LEVEL_MAX_ECC`` levels, the level pass,
the bit-parallel BFS of Akiba, Iwata and Yoshida in numpy alone: each
source of a batch is one bit, a level is one OR over every vertex's
neighbours, and one product with each vertex's level sums T and E; no
distance row is held and scipy is not loaded.  A deeper layout streams
scipy's BFS rows.  Either way a bounded batch of sources runs at a time,
so no ``n x n`` table is held.  One vertex has no blocks.

``index_reports`` evaluates graphs in batches, cut by edges alone
(``_batches``): a batch of one graph built with its blocks (a cycle, a
clique, or a polymer of one-block monomers from ``polymer.compose``) uses
those, and any other batch takes one DFS over its union.  Reading
``blocks(g)`` stores nothing on ``g``.  Blocks of one size are stacked
across the whole batch.  A graph's totals are sums over its own slice of
the per-edge diffs and of the per-block Wiener shares.
``index_report`` is a batch of one.  Totals are exact Python integers at
any size.  The core, ``_reports``, needs only a union's blocks and where
each graph's blocks and edges start: ``index_reports`` gives it those of
each batch of graphs, and ``cli.cmd_verify`` those of each batch of
polymers, cut by the same rule, that ``polymer._compose_all`` builds as
one union, with no graph per polymer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import EdgeNotInGraph, GraphError, quote
from .graphs import (Blocks, Edge, Graph, _bfs_rows, _blocks, _csr, _graph_arg,
                     _is_int, _neighbours, distance_rows)

MOSTAR = "mostar"
EDGE_MOSTAR = "edge_mostar"
WIENER = "wiener"
INDEX_NAMES = (MOSTAR, EDGE_MOSTAR, WIENER)

#: Bytes of distance rows in flight.  A block takes
#: ``_ROW_BUDGET_BYTES // (8 * max(n, m))`` sources (at least one), so its
#: float64 rows from scipy and its gathers over the edge endpoints each fit
#: the budget, and peak memory is a small multiple of it whatever n is.
#: The level pass takes ``_level_width(n, m)`` sources a batch: its level
#: tables and unpacked edge masks take ``max(9 n, n + m)`` bytes a source.
_ROW_BUDGET_BYTES = 4 << 20

#: Edges of the graphs evaluated together (``_batches``).  A batch's
#: DFS lists and block arrays take about 360 bytes an edge, so this holds a
#: batch to a fifth of the row budget: 4096 edges cost verify-chains 5 % more
#: peak RSS for no clear speed-up over 2048 (CHANGES.md).
_BATCH_EDGES = _ROW_BUDGET_BYTES // 2048

#: Largest block that takes the batched Floyd-Warshall; larger ones go on.
_FLOYD_MAX = 48

#: BFS levels the probe may spend before a block streams rows: the level pass
#: costs eccentricity x m a batch, and beats rows below about 25 (CHANGES.md).
_LEVEL_MAX_ECC = 10


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
class IndexReport:
    """The three totals, and each edge's ``|n_u - n_v|`` and ``|m_u - m_v|``
    as read-only int64 arrays in ``g.ends`` order; ``==`` compares the totals."""

    mostar: int
    edge_mostar: int
    wiener: int
    vertex_diffs: np.ndarray = field(compare=False, repr=False)
    edge_diffs: np.ndarray = field(compare=False, repr=False)


def _endpoint_rows(g: Graph, e) -> tuple[Edge, np.ndarray, np.ndarray]:
    _graph_arg(g, "g")
    try:
        u, v = e
    except (TypeError, ValueError):
        u = v = None
    if not (_is_int(u) and _is_int(v)):
        raise GraphError(f"edge must be a pair of integers, got {quote(e)}")
    u, v = int(u), int(v)
    if not g.has_edge(u, v):
        distance_rows(g, (0,))  # a disconnected graph raises NotConnected first
        raise EdgeNotInGraph(u, v)
    du, dv = distance_rows(g, (u, v))
    return (u, v), du, dv


def _exact_sums(values: np.ndarray, bounds: list[int] | np.ndarray) -> list[int]:
    """The sums of the nonnegative ``values[bounds[i]:bounds[i + 1]]`` as
    Python ints: in int64 when no sum can reach 2^63, else accumulated as
    Python ints (object dtype), so they are exact at any size."""
    wide = int(values.max(initial=0)) * values.size >= 1 << 63
    acc = np.concatenate([[0], np.cumsum(values, dtype=object if wide else np.int64)])
    return np.diff(acc[bounds]).tolist()


def vertex_orientation(g: Graph, e) -> OrientationCounts:
    """Classify every vertex of ``g`` against the endpoints of edge ``e``.

    Counts are reported relative to the orientation of ``e`` as passed.  Both
    orientations raise GraphError if ``e`` is not a pair of integers, then
    NotConnected on a disconnected ``g``, else EdgeNotInGraph if ``e`` is
    not an edge.
    """
    edge, du, dv = _endpoint_rows(g, e)
    n_u = int(np.count_nonzero(du < dv))
    n_v = int(np.count_nonzero(dv < du))
    return OrientationCounts(edge, n_u, n_v, g.n - n_u - n_v)


def edge_orientation(g: Graph, e) -> EdgeOrientationCounts:
    """Classify every edge of ``g`` against the endpoints of edge ``e``."""
    edge, du, dv = _endpoint_rows(g, e)
    fu = np.minimum(du[g.ends[:, 0]], du[g.ends[:, 1]])
    fv = np.minimum(dv[g.ends[:, 0]], dv[g.ends[:, 1]])
    m_u = int(np.count_nonzero(fu < fv))
    m_v = int(np.count_nonzero(fv < fu))
    return EdgeOrientationCounts(edge, m_u, m_v, g.m - m_u - m_v)


def _transmissions(a, ends: np.ndarray, weights: np.ndarray,
                   hanging: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(T, E)`` as int64 ``(k, n)`` arrays from BFS rows over the float32
    adjacency ``a`` of the edges ``ends``, at most ``_ROW_BUDGET_BYTES`` at
    a time, for each of k blocks of this layout: in row i, vertex w counts
    ``weights[i, w]`` times in T and ``hanging[i, w]`` in E.  The rows run on
    a copy relabelled in reverse Cuthill-McKee order, which keeps neighbours
    close in memory, so scattered labels sweep as fast as well-ordered ones."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    n = a.shape[0]
    order = reverse_cuthill_mckee(a, symmetric_mode=True)
    relabel = np.argsort(order)  # the inverse permutation
    a = a[order][:, order]
    a.sort_indices()
    ends, weights, hanging = relabel[ends], weights[:, order], hanging[:, order]
    rows = max(1, _ROW_BUDGET_BYTES // (8 * max(n, len(ends))))
    # int64 row sums cannot wrap: each is below n * max(n, m)
    trans, edge_trans = (np.empty((len(weights), n), np.int64) for _ in range(2))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = _bfs_rows(a, np.arange(start, stop))
        trans[:, start:stop] = weights @ block.T
        to_edge = block[:, ends[:, 0]]
        np.minimum(to_edge, block[:, ends[:, 1]], out=to_edge)
        edge_trans[:, start:stop] = to_edge.sum(axis=1, dtype=np.int64)
        if hanging.any():  # no edge hangs at a graph that is one block: skip that product
            edge_trans[:, start:stop] += hanging @ block.T
    return trans[:, relabel], edge_trans[:, relabel]


def _levels(adj: tuple[np.ndarray, np.ndarray], sources: range) -> Iterator[np.ndarray]:
    """BFS over the adjacency ``adj`` (``graphs._neighbours``) from each of
    the consecutive ``sources``, bit-parallel (Akiba, Iwata and Yoshida):
    source j is bit j of a row, 64 to a word.  Yields each level's
    frontiers as an ``(n, words)`` uint64 array, level 0 first, and stops
    after the last level, the first after which every vertex is seen from
    every source.  The next level is the OR of each vertex's neighbours'
    rows, less the bits seen: one gather over the ``2 m`` edge ends a level.
    A vertex with no neighbour would take the row at its start (``reduceat``),
    so the caller checks that every degree is at least one."""
    indptr, nbr = adj
    n, k = len(indptr) - 1, len(sources)
    j = np.arange(k)
    front = np.zeros((n, -(-k // 64) * 8), np.uint8)  # bytes, so the words' byte order is moot
    front[sources.start + j, j >> 3] = 1 << (j & 7)
    front = front.view(np.uint64)
    unseen = np.bitwise_or.reduce(front, axis=0) & ~front  # every source's bit, less its own
    while True:
        yield front
        if not unseen.any():
            return
        front = np.bitwise_or.reduceat(np.take(front, nbr, axis=0), indptr[:-1], axis=0)
        front &= unseen
        unseen ^= front


def _unpack(bits: np.ndarray, k: int) -> np.ndarray:
    """The packed ``(rows, words)`` ``bits`` as an ``(rows, k)`` uint8 0/1 array."""
    return np.unpackbits(bits.view(np.uint8), axis=1, count=k, bitorder="little")


def _column_counts(bits: np.ndarray, k: int) -> np.ndarray:
    """The number of rows of the packed ``bits`` with bit j set, for each
    j < k, as int64: summed in uint8 over slabs of 255 rows, which cannot
    wrap, then the slabs in int64 (an int64 sum of the rows costs 3x more)."""
    ones = _unpack(bits, k)
    cut = len(ones) - len(ones) % 255
    slabs = ones[:cut].reshape(-1, 255, k).sum(axis=1, dtype=np.uint8)
    return slabs.sum(axis=0, dtype=np.int64) + ones[cut:].sum(axis=0, dtype=np.int64)


def _level_width(n: int, m: int) -> int:
    """Sources a level-pass batch takes in a block of n vertices and m edges:
    as few batches as ``_ROW_BUDGET_BYTES`` allows, none larger than that
    needs (1,000 sources at most 322 a batch go 250 a batch, not 322, 322,
    322 and 34: a small batch costs about as much as a full one).  A source
    takes 9 bytes a vertex while its level table is summed (uint8, and
    float64 in the product), then a byte a vertex and one an edge while the
    edges inside a level are counted; its packed frontiers take an eighth
    of a byte a vertex or edge."""
    most = max(1, _ROW_BUDGET_BYTES // max(9 * n, n + m))
    return -(-n // -(-n // most))


def _shallow(adj: tuple[np.ndarray, np.ndarray]) -> bool:
    """The cost test on a block's adjacency ``adj``: a BFS from position 0
    (the top vertex in a DFS layout) sees every vertex within
    ``_LEVEL_MAX_ECC`` levels (its eccentricity is below that)."""
    levels = islice(_levels(adj, range(1)), _LEVEL_MAX_ECC)
    return sum(np.count_nonzero(f) for f in levels) == len(adj[0]) - 1


def _level_transmissions(adj: tuple[np.ndarray, np.ndarray], ends: np.ndarray,
                         weights: np.ndarray,
                         hanging: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(T, E)`` as ``_transmissions`` gives them, from the BFS levels
    (``_levels``) of batches of sources over the adjacency ``adj`` of the
    edges ``ends``.  Each batch fills a table of each vertex's level from
    each source, and one product with it sums ``sum_d d (weights)`` and
    ``sum_d d (deg + 2 hanging)``.  An edge has its nearer end at its lower
    level, so ``2 E = sum_d d (deg + 2 hanging) - across``: an edge inside a
    level counts its level twice, one across two levels its lower level
    plus one.  ``across`` is m less the edges whose ends share a level, the
    bits of ``F[a] & F[b]`` over the levels F."""
    indptr = adj[0]
    n, m, blocks = len(indptr) - 1, len(ends), len(weights)
    deg = np.diff(indptr)
    assert deg.min() > 0, "a block vertex with no edge"  # see _levels
    # rows: each block's weights, then its degrees plus twice its hanging counts; the
    # products are integer sums below 2^53, exact
    mass = np.concatenate([weights, deg + 2 * hanging], dtype=np.float64)
    a, b = ends.T
    trans, twice_edge = np.empty((blocks, n), np.int64), np.empty((blocks, n), np.int64)
    width = _level_width(n, m)
    for start in range(0, n, width):
        stop = min(start + width, n)
        k = stop - start
        levels = list(islice(_levels(adj, range(start, stop)), 1, None))  # level 0 adds nothing
        table = np.zeros((n, k), np.min_scalar_type(len(levels)))
        within = np.zeros((m, levels[0].shape[1]), np.uint64)
        for d, f in enumerate(levels, 1):
            table += _unpack(f, k) * table.dtype.type(d)
            within |= np.take(f, a, axis=0) & np.take(f, b, axis=0)
        at = (mass @ table).astype(np.int64)
        trans[:, start:stop] = at[:blocks]
        twice_edge[:, start:stop] = at[blocks:] - (m - _column_counts(within, k))
    return trans, twice_edge // 2


def _block_diffs(parts: Blocks, chosen: np.ndarray,
                 s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Edge ids, their vertex and edge diffs, and twice the Wiener share of
    each of the blocks ``chosen``, each of at most s vertices, padded to s
    with vertices that no edge touches and nothing hangs at.  They go
    layout after layout (``Blocks.layout``), and each layout's distances
    are found once, from the edges of its first block here."""
    k = chosen.size
    counts = parts.edge_start[chosen + 1] - parts.edge_start[chosen]
    block = np.repeat(np.arange(k), counts)  # the block of each edge, 0..k-1
    firsts = np.cumsum(counts) - counts  # where each block's edges start
    rows = np.repeat(parts.edge_start[chosen] - firsts, counts) + np.arange(block.size)
    local = np.take(parts.local_ends, rows, axis=0)
    shape, owner, starts = local, block, firsts  # the layouts' edges: each block its own
    layout = parts.layout[chosen]
    shared = bool((layout != chosen).any())  # some block here is not the first of its layout
    if shared:  # each layout's edges are those of its first block here
        lead = np.ones(k, bool)
        lead[1:] = layout[1:] != layout[:-1]
        lay = np.cumsum(lead) - 1  # each block's layout, 0..k-1
        k = int(lay[-1]) + 1
        mine = lead[block]
        shape, owner = local[mine], lay[block[mine]]
        starts = np.cumsum(counts[lead]) - counts[lead]
    top = parts.vertex_start[chosen, None]
    real = np.arange(s) < parts.vertex_start[chosen + 1, None] - top
    at = np.where(real, top + np.arange(s), 0)
    weights, hanging = parts.weights[at] * real, parts.hanging[at] * real
    if s <= _FLOYD_MAX:  # one Floyd-Warshall over the stack of layouts
        # s exceeds every hop count; the smallest type that holds 2 s
        d = np.full((k, s, s), s, dtype=np.min_scalar_type(2 * s))
        d[owner, shape[:, 0], shape[:, 1]] = d[owner, shape[:, 1], shape[:, 0]] = 1
        d[:, np.arange(s), np.arange(s)] = 0
        for t in range(s):
            np.minimum(d, d[:, :, t, None] + d[:, None, t, :], out=d)
        near = np.minimum(d[owner, :, shape[:, 0]], d[owner, :, shape[:, 1]])
        own = np.add.reduceat(near, starts, dtype=np.int64)  # each layout's E over its edges
        if shared:  # each block takes its layout's distances (int64 runs the sums faster)
            d, own = d.astype(np.int64)[lay], own[lay]
        trans = np.einsum("kij,kj->ki", d, weights)
        edge_trans = np.einsum("kij,kj->ki", d, hanging) + own
    else:  # one layout: its probe picks the pass, which takes all its blocks at once
        adj = _neighbours(s, shape)  # the probe's adjacency, reused by the level pass
        if _shallow(adj):
            trans, edge_trans = _level_transmissions(adj, shape, weights, hanging)
        else:
            trans, edge_trans = _transmissions(_csr(s, shape), shape, weights, hanging)
    u, v = (local + s * block[:, None]).T  # as positions in the flattened (k, s) arrays
    share = _row_products(weights, trans)
    trans, edge_trans = trans.ravel(), edge_trans.ravel()
    return (parts.edges[rows], np.abs(trans[u] - trans[v]), np.abs(edge_trans[u] - edge_trans[v]),
            share)


def _row_products(weights: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """The row sums of ``weights * trans``, nonnegative, exact: in int64 when
    none can reach 2^63, else as Python ints (object dtype)."""
    if int(weights.max(initial=0)) * int(trans.max(initial=0)) * weights.shape[1] >= 1 << 63:
        weights, trans = weights.astype(object), trans.astype(object)
    return (weights * trans).sum(axis=1)


def _stack_sizes(sizes: np.ndarray) -> np.ndarray:
    """The sizes blocks are padded to for Floyd-Warshall: up to 8 exact, then
    the next multiple of 8, so the blocks of a batch of mixed sizes make a
    few stacks, not one per size.  Larger blocks go unpadded, a layout at a time."""
    return np.where((sizes > 8) & (sizes <= _FLOYD_MAX), -(-sizes // 8) * 8, sizes)


# The three wrappers below are not exported: bench/run.py's stage replay
# calls them by name.
def mostar_index(g: Graph) -> int:
    """Sum of ``|n_u - n_v|`` over all edges."""
    return index_report(g).mostar


def edge_mostar_index(g: Graph) -> int:
    """Sum of ``|m_u - m_v|`` over all edges."""
    return index_report(g).edge_mostar


def wiener_index(g: Graph) -> int:
    """Sum of distances over unordered vertex pairs."""
    return index_report(g).wiener


def index_reports(graphs: Iterable[Graph]) -> Iterator[IndexReport]:
    """``index_report`` of each graph, in order.  Consecutive graphs are
    evaluated together, as one disjoint union, in the batches of
    ``_batches``: a batch of one graph built with its blocks uses them, and
    any other batch takes one DFS over its union (``graphs._blocks``)."""
    if not isinstance(graphs, Iterable):
        raise GraphError(f"graphs is a {type(graphs).__name__}, not an iterable of Graphs")
    checked = (_graph_arg(g, f"graphs[{i}]") for i, g in enumerate(graphs))
    for batch in _batches(checked, lambda g: g.m):
        yield from _batch_reports(batch)


def _batches(items: Iterable, edges: Callable[..., int]) -> Iterator[list]:
    """``items`` in order, cut into runs of at most ``_BATCH_EDGES`` edges in
    all, item x having ``edges(x)``; a larger item runs alone.  It cuts
    ``index_reports``' graphs and ``cli.cmd_verify``'s family instances."""
    batch, total = [], 0
    for x in items:
        m = edges(x)
        if batch and total + m > _BATCH_EDGES:
            yield batch
            batch, total = [], 0
        batch.append(x)
        total += m
    if batch:
        yield batch


def index_report(g: Graph) -> IndexReport:
    """All three indices and the per-edge diffs, block by block (see above)."""
    return next(index_reports([_graph_arg(g, "g")]))


def _batch_reports(batch: list[Graph]) -> Iterator[IndexReport]:
    """The reports of ``batch`` from the blocks of its union."""
    return _reports(*_blocks(batch), np.cumsum([0] + [g.m for g in batch]).tolist())


def _reports(parts: Blocks, block_at, edge_at: list[int]) -> Iterator[IndexReport]:
    """The reports of the graphs of a disjoint union from one pass over its
    blocks ``parts``: graph i's blocks are ``block_at[i]:block_at[i + 1]``
    and its edges ``edge_at[i]:edge_at[i + 1]``.  Blocks go in groups by
    layout (``Blocks.layout``), here and nowhere else, and each layout's
    distances are found once for all its blocks in a stack.  Layouts of one
    padded size are stacked across all the graphs."""
    vdiffs, ediffs = np.empty(len(parts.edges), np.int64), np.empty(len(parts.edges), np.int64)
    twice = np.empty(len(parts.edge_start) - 1, np.int64)  # each block's Wiener share
    padded = _stack_sizes(np.diff(parts.vertex_start))
    order = np.lexsort((parts.layout, padded))  # the blocks by padded size, layout after layout
    padded, layout = padded[order], parts.layout[order]
    for s in np.unique(padded).tolist():
        lo, hi = np.searchsorted(padded, [s, s + 1]).tolist()
        if s <= _FLOYD_MAX:  # k blocks per stack: k s^2 distances, at most k s^3 / 2 edge gathers
            cuts = range(lo, hi, max(1, _ROW_BUDGET_BYTES // (8 * s ** 3)))
        else:  # one layout, all its blocks
            starts = lo + 1 + np.flatnonzero(layout[lo + 1:hi] != layout[lo:hi - 1])
            cuts = [lo, *starts.tolist()]
        for a, b in zip(cuts, [*cuts[1:], hi]):
            chosen = order[a:b]
            eids, vd, ed, share = _block_diffs(parts, chosen, s)
            vdiffs[eids], ediffs[eids] = vd, ed
            if share.dtype == object:  # a share past int64
                twice = twice.astype(object, copy=False)
            twice[chosen] = share
    vdiffs.flags.writeable = ediffs.flags.writeable = False
    totals = zip(_exact_sums(vdiffs, edge_at), _exact_sums(ediffs, edge_at),
                 _exact_sums(twice, block_at))
    for lo, hi, (mostar, edge_mostar, twice_wiener) in zip(edge_at, edge_at[1:], totals):
        yield IndexReport(mostar, edge_mostar, twice_wiener // 2, vdiffs[lo:hi], ediffs[lo:hi])
