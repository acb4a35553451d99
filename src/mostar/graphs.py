"""Immutable simple undirected graphs with exact unweighted shortest paths.

Vertices are dense 0-based integers, so every distance structure is a plain
array indexed by vertex id.  All distances are exact hop counts; nothing in
this module (or downstream of it) uses floating point arithmetic for graph
quantities.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee, shortest_path

from .errors import DuplicateEdge, NotConnected, SelfLoop, VertexOutOfRange

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Validated simple undirected graph.

    ``edges`` is canonical: each pair satisfies ``u < v`` and the list is
    sorted lexicographically.  Instances are immutable and safe to share
    across threads.
    """

    n: int
    edges: tuple[Edge, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        pair = (min(u, v), max(u, v))
        i = bisect_left(self.edges, pair)
        return i < len(self.edges) and self.edges[i] == pair


def from_edge_list(n: int, pairs: Iterable[Sequence[int]]) -> Graph:
    """Build a validated Graph from vertex count and unordered vertex pairs.

    Pairs are normalized to ``u < v`` and sorted.  A duplicate pair is an
    error rather than being silently merged.
    """
    if n < 1:
        raise VertexOutOfRange(0, n)
    normalized: list[Edge] = []
    for pair in pairs:
        u, v = int(pair[0]), int(pair[1])
        if u == v:
            raise SelfLoop(u)
        if u > v:
            u, v = v, u
        if not 0 <= u < n:
            raise VertexOutOfRange(u, n)
        if v >= n:
            raise VertexOutOfRange(v, n)
        normalized.append((u, v))
    normalized.sort()
    for prev, cur in zip(normalized, normalized[1:]):
        if prev == cur:
            raise DuplicateEdge(*cur)
    return Graph(n, tuple(normalized))


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise VertexOutOfRange(n, n)
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, list(combinations(range(n), 2)))


def is_connected(g: Graph) -> bool:
    """True iff the edges join all n vertices into one component (union-find)."""
    parent = list(range(g.n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = g.n
    for u, v in g.edges:
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return components == 1


class Blocks(NamedTuple):
    """The blocks (bridges and 2-connected pieces) of a connected graph:
    block ``i`` has ``vertices[vertex_start[i]:vertex_start[i + 1]]``, its top
    vertex first, and the ids ``edges[edge_start[i]:edge_start[i + 1]]`` into
    ``g.edges``.  All that lies outside a block hangs at one of its vertices,
    ``weights`` vertices (itself included) and ``hanging`` edges."""

    vertex_start: np.ndarray
    vertices: np.ndarray
    weights: np.ndarray
    hanging: np.ndarray
    edge_start: np.ndarray
    edges: np.ndarray


def blocks(g: Graph) -> Blocks:
    """The blocks of ``g`` by Hopcroft-Tarjan, with an explicit DFS stack, so
    no graph is too deep; NotConnected if the DFS misses a vertex.  A block
    pops after every block below it, so what hangs at its lower vertices is
    known then, and its top vertex carries the rest of the graph."""
    n, m = g.n, g.m
    if m < n - 1:  # too few edges to connect: decided before allocating n of anything
        raise NotConnected(f"graph with {n} vertices is not connected")
    flat = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2).T.ravel()
    slots = np.argsort(flat, kind="stable")  # edge endpoints grouped by vertex
    nbr, eid = flat[(slots + m) % (2 * m)].tolist(), (slots % m).tolist()
    nxt = np.searchsorted(flat[slots], np.arange(n + 1)).tolist()
    stop = nxt[1:]
    disc, low, vmark, emark, below_e = ([0] * n for _ in range(5))
    below_v = [1] * n  # vertices (itself included) and edges under each vertex so far
    vstack, estack, verts, weights, hanging, edges = [], [], [], [], [], []
    vstart, estart, stack, disc[0], low[0], t = [0], [0], [0], 1, 1, 1
    while stack:
        u = stack[-1]
        i = nxt[u]
        if i < stop[u]:
            nxt[u] = i + 1
            w, e = nbr[i], eid[i]
            if not disc[w]:
                t += 1
                disc[w] = low[w] = t
                vmark[w], emark[w] = len(vstack), len(estack)
                estack.append(e)
                vstack.append(w)
                stack.append(w)
            elif disc[w] < disc[u] and e != estack[emark[u]]:  # back edge up the tree
                estack.append(e)
                if disc[w] < low[u]:
                    low[u] = disc[w]
            continue
        stack.pop()
        if not stack:
            break
        p = stack[-1]
        if low[u] < disc[p]:
            if low[u] < low[p]:
                low[p] = low[u]
            continue
        # p cuts u's subtree off: what was pushed since u is one block
        inner = vstack[vmark[u]:]
        hang = [below_e[x] for x in inner]
        under_v, under_e = t - disc[u] + 1, len(estack) - emark[u] + sum(hang)
        below_v[p] += under_v
        below_e[p] += under_e
        verts += [p, *inner]
        weights += [n - under_v, *(below_v[x] for x in inner)]
        hanging += [m - under_e, *hang]
        edges += estack[emark[u]:]
        del vstack[vmark[u]:], estack[emark[u]:]
        vstart.append(len(verts))
        estart.append(len(edges))
    if t < n:
        raise NotConnected(f"graph with {n} vertices is not connected")
    return Blocks(*(np.array(a, dtype=np.int64)
                    for a in (vstart, verts, weights, hanging, estart, edges)))


def _csr(g: Graph) -> csr_matrix:
    e = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    data = np.ones(2 * g.m, dtype=np.int8)
    return csr_matrix((data, (rows, cols)), shape=(g.n, g.n))


def _bfs_rows(mat: csr_matrix, sources: np.ndarray) -> np.ndarray:
    raw = shortest_path(mat, method="D", directed=False, unweighted=True,
                        indices=sources)
    # every row of a disconnected graph misses some vertex, so one row decides
    if not np.isfinite(raw[:1]).all():
        raise NotConnected(f"graph with {mat.shape[0]} vertices is not connected")
    return raw.astype(np.int32)


def distance_rows(g: Graph, sources: Sequence[int]) -> np.ndarray:
    """int32 hop counts, one row per source; NotConnected if g is disconnected."""
    for s in sources:
        if not 0 <= s < g.n:
            raise VertexOutOfRange(s, g.n)
    return _bfs_rows(_csr(g), np.asarray(sources, dtype=np.intp))


def distance_blocks(g: Graph, rows: int) -> Iterator[np.ndarray]:
    """Rows of the all-pairs hop-count table in source order, ``rows`` at a time.

    Yields ``(k, n)`` int32 blocks, ``k <= rows``, whose concatenation is the
    full table; only the current block is held, and a disconnected graph
    raises NotConnected before the first.  The BFS runs in scipy's csgraph on
    a copy relabelled in reverse Cuthill-McKee order, which keeps neighbours
    close in memory, so scattered labels sweep as fast as well-ordered ones;
    block columns map back to the original labels.
    """
    mat = _csr(g)
    order = reverse_cuthill_mckee(mat, symmetric_mode=True)
    relabel = np.argsort(order)  # the inverse permutation
    mat = mat[order][:, order]
    mat.sort_indices()
    for start in range(0, g.n, rows):
        # one expression, so no unpermuted copy stays alive across the yield
        yield _bfs_rows(mat, relabel[start:start + rows])[:, relabel]
