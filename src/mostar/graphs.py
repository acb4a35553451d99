"""Immutable simple undirected graphs with exact unweighted shortest paths.

Vertices are dense 0-based integers, so every distance structure is a plain
array indexed by vertex id.  All distances are exact hop counts; nothing in
this module (or downstream of it) uses floating point arithmetic for graph
quantities.  scipy, which only the BFS rows need (``distance_rows``, and
the rows pass of ``indices`` on deep blocks), is imported on their first
call, so building and splitting graphs, and evaluating shallow blocks,
never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (DuplicateEdge, GraphError, NotConnected, SelfLoop,
                     VertexOutOfRange, quote)

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

Edge = tuple[int, int]

#: vertex ids are int64, so a vertex count must not exceed this
_MAX_N = np.iinfo(np.int64).max


@dataclass(frozen=True, eq=False)
class Graph:
    """Validated simple undirected graph.

    ``ends`` is the read-only ``(m, 2)`` int64 array of edge endpoints, in
    canonical order: each row has ``u < v`` and the rows are sorted
    lexicographically.  ``edges`` is the same list as a tuple of ``(u, v)``
    Python ints, built on first use.  ``parts`` are the blocks a
    construction built the graph with (a cycle, a clique, or a
    ``polymer.compose`` composite of one-block monomers), else None; they
    are made read-only, as ``ends`` is.  Build graphs with
    ``from_edge_list``; the constructor trusts ``ends`` to be canonical and
    ``parts`` to be its blocks.  Instances are immutable and safe to share
    across threads.
    """

    n: int
    ends: np.ndarray = field(repr=False)
    parts: Blocks | None = field(default=None, repr=False)

    def __post_init__(self):
        _typed(self.ends, np.ndarray, "ends").flags.writeable = False
        if self.parts is not None:
            _read_only(self.parts)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(map(tuple, self.ends.tolist()))

    @property
    def m(self) -> int:
        return len(self.ends)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``uv`` is an edge; False unless both are integers (a bool is not)."""
        if not (_is_int(u) and _is_int(v)):
            return False
        u, v = min(u, v), max(u, v)
        if not 0 <= u < v < self.n:
            return False
        first = self.ends[:, 0]
        lo, hi = np.searchsorted(first, u), np.searchsorted(first, u, side="right")
        i = lo + np.searchsorted(self.ends[lo:hi, 1], v)
        return bool(i < hi and self.ends[i, 1] == v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.ends, other.ends)

    def __hash__(self) -> int:
        return hash((self.n, self.ends.tobytes()))


def _not_an_integer(what: str, value) -> GraphError:
    return GraphError(f"{what} must be an integer, got {quote(value)}")


def _vertex_count(n) -> int:
    """``n`` if it is an integer that fits int64, else GraphError: checked
    before a builder makes anything of size n."""
    if not _is_int(n):
        raise _not_an_integer("vertex count", n)
    if n > _MAX_N:
        raise GraphError("vertex count does not fit in 64 bits (n >= 2**63)")
    return n


def from_edge_list(n: int, pairs: Iterable[Sequence[int]]) -> Graph:
    """Build a validated Graph from vertex count and unordered vertex pairs.

    Pairs are normalized to ``u < v`` and sorted.  In input order, the first
    of ``n`` and the ids that is not an integer raises, then the first pair
    that is a self-loop or leaves ``0..n-1``, then the first duplicate in
    sorted order (an error, never merged).  ``n`` must fit int64.
    """
    if _vertex_count(n) < 1:
        raise VertexOutOfRange(0, n)
    if isinstance(pairs, np.ndarray) and pairs.dtype == np.int64:  # its dtype says all
        raw = np.array(pairs, dtype=np.int64)
    else:
        raw = _pair_array(pairs)
    raw = raw.reshape(-1, 2) if raw.size == 0 else raw
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise GraphError("edges must be a list of (u, v) pairs")
    return _from_array(n, raw)[0]


def _from_array(n: int, raw: np.ndarray) -> tuple[Graph, np.ndarray]:
    """``from_edge_list``'s Graph of the ``(m, 2)`` array ``raw``, checked
    as there, and the order that sorts ``raw``'s rows into ``ends``."""
    lo, hi = np.minimum(raw[:, 0], raw[:, 1]), np.maximum(raw[:, 0], raw[:, 1])
    bad = (lo == hi) | (lo < 0) | (hi >= n)
    if bad.any():
        i = int(np.argmax(bad))
        u, v = int(lo[i]), int(hi[i])
        if u == v:
            raise SelfLoop(u)
        raise VertexOutOfRange(u if u < 0 or u >= n else v, n)
    order = np.lexsort((hi, lo))
    ends = np.stack([lo[order], hi[order]], axis=1).astype(np.int64, copy=False)
    same = np.flatnonzero((ends[1:] == ends[:-1]).all(axis=1))
    if same.size:
        raise DuplicateEdge(*ends[same[0] + 1].tolist())
    return Graph(int(n), ends), order


def _pair_array(pairs: Iterable[Sequence[int]]) -> np.ndarray:
    """The ``(m, 2)`` array of any iterable of pairs of integers, converted
    from the flat list of ids; object dtype if an id is beyond int64, so that
    the range check names it as the caller wrote it."""
    try:
        ids = list(chain.from_iterable(pairs := list(pairs)))
        paired = set(map(len, pairs)) <= {2}
    except TypeError:  # not iterable, or a pair that is not a sequence
        raise GraphError("edges must be a list of (u, v) pairs") from None
    if not set(map(type, ids)) <= {int} and (odd := [x for x in ids if not _is_int(x)]):
        raise _not_an_integer("vertex id", odd[0])
    if not paired:
        raise GraphError("edges must be a list of (u, v) pairs")
    try:
        return np.array(ids, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # an id beyond int64: an int, or an np.uint64 that is never wrapped
        return np.array(ids, dtype=object).reshape(-1, 2)


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(_vertex_count(n) - 1)])


def cycle_graph(n: int) -> Graph:
    if _vertex_count(n) < 3:
        raise GraphError(f"a cycle needs at least 3 vertices, got {n}")
    return _one_block(from_edge_list(n, [(i, (i + 1) % n) for i in range(n)]))


def complete_graph(n: int) -> Graph:
    return _one_block(from_edge_list(
        n, np.column_stack(np.triu_indices(max(_vertex_count(n), 0), 1))))


def _one_block(g: Graph) -> Graph:
    """``g``, a cycle or a clique, with one block laid out as itself (none for K1)."""
    n, m = (g.n, g.m) if g.n > 1 else (0, 0)
    return Graph(g.n, g.ends, Blocks(np.unique([0, n]), np.arange(n), np.ones(n, np.int64),
                                     np.zeros(n, np.int64), np.unique([0, m]), np.arange(m),
                                     g.ends, np.arange(int(n > 0))))


def _read_only(parts: Blocks) -> Blocks:
    """``parts``, each array made read-only."""
    for a in parts:
        a.flags.writeable = False
    return parts


def _components(n: int, pairs: np.ndarray) -> np.ndarray:
    """Each vertex's component label, the lowest vertex of its component, by
    the hooking of Shiloach and Vishkin: every larger root of a pair hooks
    under the smallest root paired with it, then pointer jumping flattens
    the trees, until no pair has two roots."""
    label = np.arange(n)
    a, b = pairs.T
    while True:
        ra, rb = label[a], label[b]
        apart = ra != rb
        if not apart.any():
            return label
        np.minimum.at(label, np.maximum(ra, rb)[apart], np.minimum(ra, rb)[apart])
        while not np.array_equal(up := label[label], label):
            label = up


def is_connected(g: Graph) -> bool:
    """True iff the edges join all n vertices into one component."""
    g = _graph_arg(g, "g")
    if g.m < g.n - 1:  # too few edges to connect: decided before allocating n of anything
        return False
    return not _components(g.n, g.ends).any()


class Blocks(NamedTuple):
    """The blocks (bridges and 2-connected pieces) of a connected graph, from
    its construction (``Graph.parts``) or from one DFS (``_union_blocks``):
    block ``i`` has ``vertices[vertex_start[i]:vertex_start[i + 1]]`` and the
    ids ``edges[edge_start[i]:edge_start[i + 1]]`` into ``g.edges``.  All that
    lies outside a block hangs at one of its vertices, ``weights`` vertices
    (itself included) and ``hanging`` edges.  Edge ``edges[j]`` of block i
    joins ``vertices[vertex_start[i] + local_ends[j]]``, in ``g.ends`` order.
    Position 0 is a vertex of the block: its top vertex in the DFS's layout
    (blocks in preorder of their first inner vertex, edge ids ascending), a
    monomer's vertex 0 in a construction's (``polymer.compose``).

    Block i has the same size and, up to each edge's orientation, the same
    ``local_ends`` rows as block ``layout[i]``, the first block of that
    layout, so ``layout[i] <= i``.  Blocks that a construction repeats
    share a layout; the DFS's blocks each have their own (``layout[i] ==
    i``).  The engine evaluates each layout's distances once
    (``indices._reports``)."""

    vertex_start: np.ndarray
    vertices: np.ndarray
    weights: np.ndarray
    hanging: np.ndarray
    edge_start: np.ndarray
    edges: np.ndarray
    local_ends: np.ndarray
    layout: np.ndarray


def _dfs(ends: np.ndarray, sizes: Sequence[int]) -> tuple[np.ndarray, ...]:
    """A DFS over the edges ``ends`` of a disjoint union of parts of ``sizes``
    vertices each, one from each part's lowest vertex, with an explicit
    stack, so no graph is too deep; NotConnected if a DFS misses a vertex of
    its part.  Gives each vertex's preorder number (from 1), low point,
    parent (a root is its own) and subtree size.  The tree edge back to the
    parent is skipped by vertex: ``from_edge_list`` rejects duplicate edges."""
    n = sum(sizes)
    nxt, nbr = (a.tolist() for a in _neighbours(n, ends))
    stop = nxt[1:]
    disc, low, sub = ([0] * n for _ in range(3))
    parent, t = list(range(n)), 0
    for size in sizes:
        root = t
        t += 1
        disc[root] = low[root] = t
        stack = [root]
        while stack:
            u = stack[-1]
            pu, lu = parent[u], low[u]
            i, end = nxt[u], stop[u]
            while i < end:  # skip u's visited neighbours, lowering lu by back edges
                w = nbr[i]
                dw = disc[w]
                if not dw:
                    break
                if dw < lu and w != pu:
                    lu = dw
                i += 1
            low[u] = lu
            if i < end:  # descend to w, the unvisited neighbour the scan stopped at
                nxt[u] = i + 1
                t += 1
                disc[w] = low[w] = t
                parent[w] = u
                stack.append(w)
                continue
            stack.pop()
            sub[u] = t - disc[u] + 1
            if stack and lu < low[pu]:
                low[pu] = lu
        if t - root < size:
            raise NotConnected(f"graph with {size} vertices is not connected")
    return tuple(np.array(a, dtype=np.int64) for a in (disc, low, parent, sub))


def _blocks(graphs: Sequence[Graph]) -> tuple[Blocks, np.ndarray]:
    """The blocks of the connected ``graphs``, graph after graph, each in the
    order ``blocks`` gives, and where each graph's blocks start.  A lone
    graph built with its blocks (``Graph.parts``) gives those; any other
    batch is one DFS over its union, each graph's ``ends`` shifted past the
    graphs before (``_union_blocks``)."""
    if len(graphs) == 1 and graphs[0].parts is not None:
        parts = graphs[0].parts
        return parts, np.array([0, len(parts.edge_start) - 1])
    for g in graphs:
        if g.m < g.n - 1:  # too few edges to connect: decided before allocating n of anything
            raise NotConnected(f"graph with {g.n} vertices is not connected")
    sizes = np.array([g.n for g in graphs], dtype=np.int64)
    edges_of = np.array([g.m for g in graphs], dtype=np.int64)
    union = np.concatenate([g.ends for g in graphs])
    union += np.repeat(np.cumsum(sizes) - sizes, edges_of)[:, None]
    return _union_blocks(union, sizes, edges_of)


def _union_blocks(union: np.ndarray, sizes: np.ndarray,
                  edges_of: np.ndarray) -> tuple[Blocks, np.ndarray]:
    """``_blocks`` of the edge array ``union``, the disjoint union of
    connected parts of ``sizes`` vertices and ``edges_of`` edges each, part
    after part.  From one ``_dfs`` by array steps: the tree edge p -> c
    begins a block, with top p and first inner vertex c, iff ``low(c) >=
    pre(p)`` (Tarjan); a vertex's tree edge is in the block of the nearest
    such c above it (by pointer jumping), any other edge in its deeper end's
    (Tarjan-Vishkin).
    Blocks go in preorder of c, inner vertices in preorder after the top.
    For an inner vertex x, with y over x's tree children that begin a block,

    * ``weight(x) = 1 + sum sub(y)``
    * ``hanging(x) = sum deep(y)``,

    ``deep(y)`` counting the edges whose deeper end is in y's subtree.  The
    top vertex carries the rest of its graph: ``N - sub(c)`` and ``M -
    deep(c)``, in a part of N vertices and M edges."""
    disc, low, parent, sub = _dfs(union, sizes.tolist())
    n, pre, v = int(sizes.sum()), disc - 1, np.arange(len(disc))
    begins = (low >= disc[parent]) & (parent != v)  # the tree edge into v begins a block
    rep = np.where(begins, v, parent)
    while not np.array_equal(up := rep[rep], rep):
        rep = up
    heads = np.sort(pre[begins], kind="stable")  # each block's first inner vertex, in preorder
    nb = len(heads)
    vlab = np.where(parent == v, -1, np.searchsorted(heads, pre[rep]))  # -1 at a root
    label = vlab[union].max(axis=1)  # the deeper end's; the other end's is it, or earlier at a top
    # "stable" keeps each block's edges by id here; the next sort's keys are distinct, roots
    # first, then block by block in preorder (quicksort pages in 0.4 MB more code)
    order = np.argsort(label, kind="stable")
    blab = label[order]
    estart = np.searchsorted(blab, np.arange(nb + 1))
    inner = np.argsort(vlab * n + pre, kind="stable")[len(sizes):]
    count = np.bincount(vlab[inner], minlength=nb)  # a block has at least one
    first = np.cumsum(count) - count
    place = np.zeros(n, np.int64)  # an inner vertex's position in its block
    place[inner] = np.arange(1, inner.size + 1) - np.repeat(first, count)
    ends = np.take(union, order, axis=0)  # an end not inner to the edge's block is its top, at 0
    local_ends = np.where(vlab[ends] == blab[:, None], place[ends], 0)
    c = inner[first]  # each block's first inner vertex
    below = np.zeros(n + 1, np.int64)  # edges counted at their deeper end, in preorder
    np.cumsum(np.bincount(pre[ends].max(axis=1), minlength=n), out=below[1:])
    deep = below[pre + sub] - below[pre]
    starter = inner[begins[inner]]  # tree edges that begin a block
    weight, hang = np.ones(n, np.int64), np.zeros(n, np.int64)
    np.add.at(weight, parent[starter], sub[starter])
    np.add.at(hang, parent[starter], deep[starter])
    part = np.searchsorted(np.cumsum(sizes), c, side="right")  # the graph of each block
    vertex_start = np.append(first + np.arange(nb), inner.size + nb)
    vertices = np.insert(inner, first, parent[c])
    weights = np.insert(weight[inner], first, sizes[part] - sub[c])
    hanging = np.insert(hang[inner], first, edges_of[part] - deep[c])
    return (Blocks(vertex_start, vertices, weights, hanging, estart, order, local_ends,
                   np.arange(nb)),
            np.searchsorted(part, np.arange(len(sizes) + 1)))


def blocks(g: Graph) -> Blocks:
    """The blocks ``g`` was built with, else a fresh DFS's, in preorder of
    their first inner vertex, which it does not keep; read-only either way.
    NotConnected if the DFS misses a vertex (see ``_blocks``)."""
    return _read_only(_blocks([_graph_arg(g, "g")])[0])


def _neighbours(n: int, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency of n vertices joined by the ``(m, 2)`` ``ends`` in
    compressed rows, from one stable argsort: vertex v's neighbours are
    ``nbr[indptr[v]:indptr[v + 1]]``, those of edges where v is the first
    end, then those where it is the second, each in edge order."""
    m, flat = len(ends), ends.T.ravel()
    # edge endpoints grouped by vertex; ids below 2^16 sort by radix, 5x faster
    slots = np.argsort(flat.astype(np.min_scalar_type(n), copy=False), kind="stable")
    return np.searchsorted(flat[slots], np.arange(n + 1)), flat[(slots + m) % (2 * m)]


def _csr(n: int, ends: np.ndarray) -> csr_matrix:
    """The float32 scipy adjacency of n vertices joined by the ``(m, 2)``
    ``ends``, for scipy's BFS: the rows pass and ``distance_rows``."""
    from scipy.sparse import csr_matrix

    rows = np.concatenate([ends[:, 0], ends[:, 1]])
    cols = np.concatenate([ends[:, 1], ends[:, 0]])
    return csr_matrix((np.ones(2 * len(ends), np.float32), (rows, cols)), shape=(n, n))


def _bfs_rows(mat: csr_matrix, sources: np.ndarray) -> np.ndarray:
    from scipy.sparse.csgraph import shortest_path

    raw = shortest_path(mat, method="D", directed=False, unweighted=True,
                        indices=sources)
    # every row of a disconnected graph misses some vertex, so one row decides
    if not np.isfinite(raw[:1]).all():
        raise NotConnected(f"graph with {mat.shape[0]} vertices is not connected")
    return raw.astype(np.int32)


def _graph_arg(g, name: str) -> Graph:
    """``g`` if it is a Graph, else a GraphError that names the argument."""
    return _typed(g, Graph, name)


def _typed(value, cls: type, name: str):
    """``value`` if it is a ``cls``, else a GraphError that names the argument."""
    if not isinstance(value, cls):
        raise GraphError(f"{name} is a {type(value).__name__}, not a {cls.__name__}")
    return value


def _is_int(x) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def distance_rows(g: Graph, sources: Sequence[int]) -> np.ndarray:
    """int32 hop counts, one row per source; NotConnected if g is disconnected.

    Each chunk of the all-pairs table is ``distance_rows(g, range(a, b))``."""
    _graph_arg(g, "g")
    try:
        sources = list(sources)
    except TypeError:  # not iterable
        raise GraphError("sources must be a sequence of vertex ids, "
                         f"got {quote(sources)}") from None
    for s in sources:
        if not (_is_int(s) and 0 <= s < g.n):
            raise VertexOutOfRange(s, g.n)
    if not sources and not is_connected(g):  # no row to show it
        raise NotConnected(f"graph with {g.n} vertices is not connected")
    return _bfs_rows(_csr(g.n, g.ends), np.asarray(sources, dtype=np.intp))
