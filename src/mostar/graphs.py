"""Immutable simple undirected graphs with exact unweighted shortest paths.

Vertices are dense 0-based integers, so every distance structure is a plain
array indexed by vertex id.  All distances are exact hop counts; nothing in
this module (or downstream of it) uses floating point arithmetic for graph
quantities.  scipy, which only the BFS pass needs, is imported on its first
call, so building and splitting graphs never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (DuplicateEdge, GraphError, NotConnected, SelfLoop,
                     VertexOutOfRange)

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
    Python ints, built on first use.  Build graphs with ``from_edge_list``;
    the constructor trusts ``ends`` to be canonical.  Instances are
    immutable and safe to share across threads.
    """

    n: int
    ends: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.ends.flags.writeable = False

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(map(tuple, self.ends.tolist()))

    @property
    def m(self) -> int:
        return len(self.ends)

    def has_edge(self, u: int, v: int) -> bool:
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
    shown = repr(value)  # at most 60 characters of it, so the line stays short
    return GraphError(f"{what} must be an integer, got "
                      f"{shown if len(shown) <= 60 else shown[:60] + '...'}")


def from_edge_list(n: int, pairs: Iterable[Sequence[int]]) -> Graph:
    """Build a validated Graph from vertex count and unordered vertex pairs.

    Pairs are normalized to ``u < v`` and sorted.  In input order, the first
    of ``n`` and the ids that is not an integer raises, then the first pair
    that is a self-loop or leaves ``0..n-1``, then the first duplicate in
    sorted order (an error, never merged).  ``n`` must fit int64.
    """
    if not _is_int(n):
        raise _not_an_integer("vertex count", n)
    if n < 1:
        raise VertexOutOfRange(0, n)
    if n > _MAX_N:
        raise GraphError("vertex count does not fit in 64 bits (n >= 2**63)")
    if not (isinstance(pairs, np.ndarray) and pairs.dtype == np.int64):  # its dtype says all
        try:
            ids = list(chain.from_iterable(pairs := list(pairs)))
        except TypeError:  # not iterable, or a pair that is not a sequence
            raise GraphError("edges must be a list of (u, v) pairs") from None
        if not set(map(type, ids)) <= {int} and (odd := [x for x in ids if not _is_int(x)]):
            raise _not_an_integer("vertex id", odd[0])
    try:
        raw = np.array(pairs, dtype=np.int64)
    except OverflowError:  # an id beyond int64 is out of range: Python ints find it
        raw = np.array(pairs, dtype=object)
    except ValueError:  # pairs of unequal lengths
        raise GraphError("edges must be a list of (u, v) pairs") from None
    raw = raw.reshape(-1, 2) if raw.size == 0 else raw
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise GraphError("edges must be a list of (u, v) pairs")
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
    return Graph(int(n), ends)


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise VertexOutOfRange(n, n)
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, np.column_stack(np.triu_indices(max(n, 0), 1)))


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
    if g.m < g.n - 1:  # too few edges to connect: decided before allocating n of anything
        return False
    return not _components(g.n, g.ends).any()


class Blocks(NamedTuple):
    """The blocks (bridges and 2-connected pieces) of a connected graph:
    block ``i`` has ``vertices[vertex_start[i]:vertex_start[i + 1]]``, its top
    vertex first, and the ids ``edges[edge_start[i]:edge_start[i + 1]]`` into
    ``g.edges``.  All that lies outside a block hangs at one of its vertices,
    ``weights`` vertices (itself included) and ``hanging`` edges.  Edge
    ``edges[j]`` of block i joins ``vertices[vertex_start[i] + local_ends[j]]``."""

    vertex_start: np.ndarray
    vertices: np.ndarray
    weights: np.ndarray
    hanging: np.ndarray
    edge_start: np.ndarray
    edges: np.ndarray
    local_ends: np.ndarray


def _dfs(ends: np.ndarray, sizes: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Hopcroft-Tarjan over the edges ``ends`` of a disjoint union of parts
    of ``sizes`` vertices each, one DFS from each part's lowest vertex, with
    an explicit stack, so no graph is too deep; NotConnected if a DFS misses
    a vertex of its part.  Gives the edge ids block by block, in the order
    the blocks pop, with where each block starts, and each vertex's
    preorder number, tree edge (-1 at a root) and subtree size."""
    n, m = sum(sizes), len(ends)
    flat = ends.T.ravel()
    slots = np.argsort(flat, kind="stable")  # edge endpoints grouped by vertex
    nbr, eid = flat[(slots + m) % (2 * m)].tolist(), (slots % m).tolist()
    nxt = np.searchsorted(flat[slots], np.arange(n + 1)).tolist()
    stop = nxt[1:]
    disc, low, emark, sub = ([0] * n for _ in range(4))
    tree = [-1] * n
    estack, popped, estart, t = [], [], [0], 0
    for size in sizes:
        root = t
        t += 1
        disc[root] = low[root] = t
        stack = [root]
        while stack:
            u = stack[-1]
            du, tu, lu = disc[u], tree[u], low[u]
            i, end = nxt[u], stop[u]
            while i < end:  # skip u's visited neighbours, noting back edges
                dw = disc[nbr[i]]
                if not dw:
                    break
                if dw < du and eid[i] != tu:  # back edge up the tree
                    estack.append(eid[i])
                    if dw < lu:
                        lu = dw
                i += 1
            low[u] = lu
            if i < end:  # descend along a tree edge
                nxt[u] = i + 1
                w, e = nbr[i], eid[i]
                t += 1
                disc[w] = low[w] = t
                tree[w], emark[w] = e, len(estack)
                estack.append(e)
                stack.append(w)
                continue
            stack.pop()
            sub[u] = t - du + 1
            if not stack:
                break
            p = stack[-1]
            if lu < disc[p]:
                if lu < low[p]:
                    low[p] = lu
                continue
            # p cuts u's subtree off: what was pushed since u's tree edge is one block
            popped += estack[emark[u]:]
            del estack[emark[u]:]
            estart.append(len(popped))
        if t - root < size:
            raise NotConnected(f"graph with {size} vertices is not connected")
    return tuple(np.array(a, dtype=np.int64) for a in (popped, estart, disc, tree, sub))


def _blocks(graphs: Sequence[Graph]) -> tuple[Blocks, np.ndarray]:
    """The blocks of the connected ``graphs``, graph after graph, each in the
    order ``blocks`` gives, and where each graph's blocks start; their union
    is an edge array, each graph's ``ends`` shifted past the graphs before.
    From one ``_dfs`` by array steps: block B's inner vertices, whose tree
    edge is in B, follow in preorder its top vertex, the parent of the first.
    For an inner vertex x, with y over x's tree children in B,

    * ``weight(x) = sub(x) - sum sub(y)``
    * ``hanging(x) = cnt(x) - sum cnt(y) - #{e in B : x is e's shallower end}``,

    ``cnt(x)`` counting the edges whose shallower end is in x's subtree.
    The top vertex carries the rest of its graph."""
    for g in graphs:
        if g.m < g.n - 1:  # too few edges to connect: decided before allocating n of anything
            raise NotConnected(f"graph with {g.n} vertices is not connected")
    sizes = np.array([g.n for g in graphs], dtype=np.int64)
    edges_of = np.array([g.m for g in graphs], dtype=np.int64)
    union = np.concatenate([g.ends for g in graphs])
    union += np.repeat(np.cumsum(sizes) - sizes, edges_of)[:, None]
    order, estart, disc, tree, sub = _dfs(union, sizes.tolist())
    n, nb, pre = int(sizes.sum()), len(estart) - 1, disc - 1
    blab = np.repeat(np.arange(nb), np.diff(estart))  # the block of each edge of ``order``
    label = np.empty(len(union), np.int64)
    label[order] = blab
    vlab = np.append(label, -1)[tree]  # the block of each vertex's tree edge; -1 at a root
    # the roots sort first, then the rest block by block, each in preorder; the keys are
    # distinct, and "stable" is the sort _dfs runs (quicksort pages in 0.4 MB more code)
    inner = np.argsort(vlab * n + pre, kind="stable")[len(graphs):]
    count = np.bincount(vlab[inner], minlength=nb)  # a block has at least one
    first = np.cumsum(count) - count
    place = np.zeros(n, np.int64)  # an inner vertex's position in its block
    place[inner] = np.arange(1, inner.size + 1) - np.repeat(first, count)
    ends = union[order]  # an end not inner to the edge's block is its top, at 0
    local_ends = np.where(vlab[ends] == blab[:, None], place[ends], 0)
    parent = np.full(n, -1)
    parent[inner] = union[tree[inner]].sum(axis=1) - inner
    top = parent[inner[first]]
    a, b = ends.T
    shallow = np.where(pre[a] < pre[b], a, b)
    below = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(pre[shallow], minlength=n), out=below[1:])
    cnt = below[pre + sub] - below[pre]
    weight, hang = sub.copy(), cnt - np.bincount(shallow[blab == vlab[shallow]], minlength=n)
    same = inner[vlab[parent[inner]] == vlab[inner]]  # tree edges inside a block
    np.subtract.at(weight, parent[same], sub[same])
    np.subtract.at(hang, parent[same], cnt[same])
    part = np.searchsorted(np.cumsum(sizes), top, side="right")  # the graph of each block
    hang = hang[inner]
    rest = edges_of[part] - np.diff(estart) - np.add.reduceat(hang, first)
    vertex_start = np.append(first + np.arange(nb), inner.size + nb)
    vertices = np.insert(inner, first, top)
    weights = np.insert(weight[inner], first, sizes[part] - sub[inner[first]])
    hanging = np.insert(hang, first, rest)
    return (Blocks(vertex_start, vertices, weights, hanging, estart, order, local_ends),
            np.searchsorted(part, np.arange(len(graphs) + 1)))


def blocks(g: Graph) -> Blocks:
    """The blocks of ``g``, in the order Hopcroft-Tarjan's DFS pops them, each
    with its top vertex first and its other vertices in preorder;
    NotConnected if the DFS misses a vertex (see ``_dfs`` and ``_blocks``)."""
    return _blocks([g])[0]


def _csr(n: int, ends: np.ndarray) -> csr_matrix:
    """The float32 adjacency of n vertices joined by the ``(m, 2)`` ``ends``."""
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


def _is_int(x) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def distance_rows(g: Graph, sources: Sequence[int]) -> np.ndarray:
    """int32 hop counts, one row per source; NotConnected if g is disconnected.

    Each chunk of the all-pairs table is ``distance_rows(g, range(a, b))``."""
    for s in sources:
        if not (_is_int(s) and 0 <= s < g.n):
            raise VertexOutOfRange(s, g.n)
    return _bfs_rows(_csr(g.n, g.ends), np.asarray(sources, dtype=np.intp))
