"""Immutable simple undirected graphs with exact unweighted shortest paths.

Vertices are dense 0-based integers, so every distance structure is a plain
array indexed by vertex id.  All distances are exact hop counts; nothing in
this module (or downstream of it) uses floating point arithmetic for graph
quantities.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee, shortest_path

from .errors import DuplicateEdge, SelfLoop, VertexOutOfRange

#: Sentinel distance for vertices a BFS cannot reach.  Kept negative so that
#: arithmetic misuse yields obviously wrong (negative) values instead of a
#: plausible large number.
UNREACHABLE = -1

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Validated simple undirected graph.

    ``edges`` is canonical: each pair satisfies ``u < v`` and the list is
    sorted lexicographically.  ``adjacency[v]`` is the sorted tuple of
    neighbours of ``v``.  Instances are immutable and safe to share across
    threads.
    """

    n: int
    edges: tuple[Edge, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        return v in self.adjacency[u]


@dataclass(frozen=True)
class DistanceRow:
    """Hop counts from one source vertex; unreachable entries are UNREACHABLE."""

    source: int
    dist: tuple[int, ...]


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
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v in normalized:
        neighbors[u].append(v)
        neighbors[v].append(u)
    adjacency = tuple(tuple(sorted(ns)) for ns in neighbors)
    return Graph(n, tuple(normalized), adjacency)


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise VertexOutOfRange(n, n)
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, list(combinations(range(n), 2)))


def bfs_distances(g: Graph, source: int) -> DistanceRow:
    """Exact hop counts from ``source``; plain queue-based BFS."""
    if not 0 <= source < g.n:
        raise VertexOutOfRange(source, g.n)
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in g.adjacency[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = du
                queue.append(w)
    return DistanceRow(source, tuple(dist))


def is_connected(g: Graph) -> bool:
    """True iff a BFS from vertex 0 reaches all n vertices."""
    return UNREACHABLE not in bfs_distances(g, 0).dist


def _csr(g: Graph) -> csr_matrix:
    if g.m == 0:
        return csr_matrix((g.n, g.n), dtype=np.int8)
    e = np.asarray(g.edges, dtype=np.int64)
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    data = np.ones(2 * g.m, dtype=np.int8)
    return csr_matrix((data, (rows, cols)), shape=(g.n, g.n))


def _to_hops(raw: np.ndarray) -> np.ndarray:
    out = np.where(np.isfinite(raw), raw, UNREACHABLE)
    return out.astype(np.int32)


def all_pairs_distances(g: Graph) -> np.ndarray:
    """All-pairs hop counts as an ``(n, n)`` int32 array.

    One BFS per source, executed in C via scipy's csgraph machinery.  This
    is the dense reference table; the indices stream it with
    ``distance_blocks`` instead.
    """
    raw = shortest_path(_csr(g), method="auto", directed=False, unweighted=True)
    return _to_hops(np.atleast_2d(raw))


def distance_blocks(g: Graph, rows: int) -> Iterator[np.ndarray]:
    """Rows of the all-pairs table in source order, at most ``rows`` at a time.

    Yields ``(k, n)`` int32 blocks, ``k <= rows``, whose concatenation is
    ``all_pairs_distances(g)``; only the current block is held.  The BFS
    runs on a copy relabelled in reverse Cuthill-McKee order, which keeps
    neighbours close in memory, so graphs with scattered labels sweep as
    fast as well-ordered ones; each block's columns are mapped back to the
    original labels.
    """
    mat = _csr(g)
    order = reverse_cuthill_mckee(mat, symmetric_mode=True)
    relabel = np.empty(g.n, dtype=np.intp)
    relabel[order] = np.arange(g.n)
    mat = mat[order][:, order]
    mat.sort_indices()
    for start in range(0, g.n, rows):
        sources = relabel[start:start + rows]
        raw = shortest_path(mat, method="D", directed=False, unweighted=True,
                            indices=sources)
        yield _to_hops(raw)[:, relabel]
