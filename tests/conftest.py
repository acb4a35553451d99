"""Shared test helpers: a naive pure-python oracle and graph generators.

The naive oracle deliberately avoids numpy/scipy and the package's
vectorized paths, so cross-checks against it exercise two independent
implementations of every definition.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations

from hypothesis import strategies as st

from mostar import (FamilySpec, Graph, formula_value, from_edge_list,
                    generate, index_report)


def neighbour_lists(g: Graph, without=None) -> list[list[int]]:
    """Neighbours of each vertex, read off ``g.edges``, minus edge ``without``."""
    neighbours: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        if (u, v) != without:
            neighbours[u].append(v)
            neighbours[v].append(u)
    return neighbours


def naive_bfs(g: Graph, source: int) -> list[int]:
    neighbours = neighbour_lists(g)
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in neighbours[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def naive_all_pairs(g: Graph) -> list[list[int]]:
    return [naive_bfs(g, s) for s in range(g.n)]


def naive_vertex_diffs(g: Graph) -> list[int]:
    """|n_u - n_v| for each edge, in canonical edge order."""
    dist = naive_all_pairs(g)
    diffs = []
    for u, v in g.edges:
        n_u = sum(1 for w in range(g.n) if dist[w][u] < dist[w][v])
        n_v = sum(1 for w in range(g.n) if dist[w][v] < dist[w][u])
        diffs.append(abs(n_u - n_v))
    return diffs


def naive_mostar(g: Graph) -> int:
    return sum(naive_vertex_diffs(g))


def naive_edge_diffs(g: Graph) -> list[int]:
    """|m_u - m_v| for each edge, in canonical edge order."""
    dist = naive_all_pairs(g)
    diffs = []
    for u, v in g.edges:
        m_u = m_v = 0
        for x, y in g.edges:
            to_u = min(dist[x][u], dist[y][u])
            to_v = min(dist[x][v], dist[y][v])
            if to_u < to_v:
                m_u += 1
            elif to_v < to_u:
                m_v += 1
        diffs.append(abs(m_u - m_v))
    return diffs


def naive_edge_mostar(g: Graph) -> int:
    return sum(naive_edge_diffs(g))


def naive_wiener(g: Graph) -> int:
    dist = naive_all_pairs(g)
    return sum(dist[u][v] for u, v in combinations(range(g.n), 2))


def formula_and_oracle(spec: FamilySpec, index: str) -> tuple[int, int]:
    """(closed form, exact index of the generated graph) for one family instance."""
    return formula_value(spec, index), getattr(index_report(generate(spec).graph), index)


def permute_graph(g: Graph, perm) -> Graph:
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus a few extra edges; always connected."""
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randrange(0, n + 1)):
        a, b = rng.sample(range(n), 2) if n >= 2 else (0, 0)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    return from_edge_list(n, sorted(pairs))


@st.composite
def connected_graphs(draw, min_n: int = 1, max_n: int = 12):
    n = draw(st.integers(min_n, max_n))
    pairs = set()
    for v in range(1, n):
        pairs.add((draw(st.integers(0, v - 1)), v))
    if n >= 2:
        extras = draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n))
        for a, b in extras:
            if a != b:
                pairs.add((min(a, b), max(a, b)))
    return from_edge_list(n, sorted(pairs))


@st.composite
def any_graphs(draw, max_n: int = 12):
    """Simple graphs on 1..max_n vertices, connected or not."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=2 * n))
    return from_edge_list(n, {(min(a, b), max(a, b)) for a, b in pairs if a != b})
