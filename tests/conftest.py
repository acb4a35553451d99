"""Shared test helpers: a naive pure-python oracle, pure-python reference
constructors and graph generators.

The naive oracle deliberately avoids numpy/scipy and the package's
vectorized paths, so cross-checks against it exercise two independent
implementations of every definition.  The reference constructors are the
per-pair loop and the dict union-find that ``from_edge_list`` and
``polymer.compose`` replaced with array code, with the per-kind slot pairs
that ``compose`` now picks as arrays, and the reference readers are the
per-line and per-pair parsers that ``formats`` replaced with one array
conversion.  The reference block finder is the Hopcroft-Tarjan DFS with an
edge stack that ``graphs._dfs`` replaced with the low-point rule.
"""

from __future__ import annotations

import random
import re
from collections import Counter, deque
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from mostar import (KINDS, DuplicateEdge, FamilySpec, GraphError,
                    MonomerHandle, NotConnected, PolymerSpec, SelfLoop, VertexOutOfRange,
                    blocks, complete_graph, compose, cycle_graph,
                    formula_value, from_edge_list, generate, index_report)
from mostar.errors import quote
from mostar.formats import json_integer, load_json
from mostar.graphs import Graph, _not_an_integer

Edge = tuple[int, int]
Slot = tuple[int, int]


def reference_edges(n: int, pairs) -> tuple[Edge, ...]:
    """The canonical edges ``from_edge_list`` gives, one pair at a time: the
    first bad pair in input order raises, then the first duplicate in sorted
    order."""
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
    return tuple(normalized)


def reference_graph(n, pairs) -> Graph:
    """``from_edge_list`` of a list of pairs, one check at a time in its order:
    the vertex count, the first id that is not an integer, a pair that is not
    two ids, then ``reference_edges``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise _not_an_integer("vertex count", n)
    if n < 1:
        raise VertexOutOfRange(0, n)
    if n >= 2 ** 63:
        raise GraphError("vertex count does not fit in 64 bits (n >= 2**63)")
    try:
        ids = [x for pair in pairs for x in pair]
    except TypeError:
        raise GraphError("edges must be a list of (u, v) pairs") from None
    for x in ids:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise _not_an_integer("vertex id", x)
    if any(len(pair) != 2 for pair in pairs):
        raise GraphError("edges must be a list of (u, v) pairs")
    return Graph(int(n), np.array(reference_edges(n, pairs), dtype=np.int64).reshape(-1, 2))


def reference_decimal(token: str) -> int:
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise GraphError(f"expected a decimal integer, got {quote(token)}")
    try:
        return int(token)
    except ValueError:
        raise GraphError(f"integer {quote(token)} has too many digits") from None


def reference_parse_edge_list(text: str) -> Graph:
    """``formats._parse_edge_list`` one line and one token at a time."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphError(f"expected header 'n m', got {quote(lines[0])}")
    n, m = reference_decimal(header[0]), reference_decimal(header[1])
    if len(lines) - 1 != m:
        raise GraphError(f"header declares {m} edges, found {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"expected edge line 'u v', got {quote(ln)}")
        pairs.append((reference_decimal(parts[0]), reference_decimal(parts[1])))
    return reference_graph(n, pairs)


def reference_parse_graph_json(source: str | dict) -> Graph:
    """``formats._parse_graph_json`` with each pair checked by itself."""
    obj = load_json(source, "graph") if isinstance(source, str) else source
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphError("graph JSON must be an object with 'n' and 'edges'")
    edges = obj["edges"]
    if not isinstance(edges, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in edges):
        raise GraphError("graph JSON 'edges' must be an array of [u, v] pairs")
    return reference_graph(json_integer(obj["n"], "graph JSON 'n'"), edges)


def reference_assemble(graphs: list[Graph], identify: list[tuple[Slot, Slot]],
                       extra_edges: list[tuple[Slot, Slot]]
                       ) -> tuple[int, tuple[Edge, ...], dict[Slot, int]]:
    """``(n, edges, vertex_map)`` of a composite by a dict union-find over
    (monomer, vertex) slots, ids handed out in slot order."""
    parent: dict[Slot, Slot] = {}

    def find(s: Slot) -> Slot:
        root = s
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(s, s) != s:
            parent[s], s = root, parent[s]
        return root

    for a, b in identify:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    ids: dict[Slot, int] = {}
    vertex_map: dict[Slot, int] = {}
    for i, g in enumerate(graphs):
        for v in range(g.n):
            root = find((i, v))
            if root not in ids:
                ids[root] = len(ids)
            vertex_map[(i, v)] = ids[root]
    edges = [(vertex_map[(i, u)], vertex_map[(i, v)])
             for i, g in enumerate(graphs) for u, v in g.edges]
    edges.extend((vertex_map[a], vertex_map[b]) for a, b in extra_edges)
    return len(ids), reference_edges(len(ids), edges), vertex_map


def reference_slot_pairs(spec: PolymerSpec
                         ) -> tuple[list[tuple[Slot, Slot]], list[tuple[Slot, Slot]]]:
    """``(identify, extra_edges)`` of ``spec``, one slot pair at a time: link
    and chain pair ``(y_i, x_{i+1})``, bouquet ``(x_0, x_i)``, circuit
    ``(x_i, x_{i+1 mod k})`` and tree its tree edges; link and circuit join
    their pairs by new edges."""
    hs, k = spec.monomers, len(spec.monomers)
    if spec.kind == "tree":
        pairs = [((a, va), (b, vb)) for a, va, b, vb in spec.tree_edges]
    elif spec.kind == "bouquet":
        pairs = [((0, hs[0].x), (i, hs[i].x)) for i in range(1, k)]
    elif spec.kind == "circuit":
        pairs = [((i, hs[i].x), ((i + 1) % k, hs[(i + 1) % k].x)) for i in range(k)]
    else:  # link, chain
        pairs = [((i, hs[i].y), (i + 1, hs[i + 1].x)) for i in range(k - 1)]
    return ([], pairs) if spec.kind in ("link", "circuit") else (pairs, [])


def reference_block_partition(g: Graph) -> tuple[list[list[int]], list[int]]:
    """The blocks of a connected ``g`` as lists of edge ids, in the order they
    pop off Hopcroft and Tarjan's edge stack, and each vertex's preorder
    number (from 0).  One DFS from vertex 0 with an explicit stack, taking
    each vertex's neighbours in ``g.ends`` order as ``graphs._dfs`` does;
    NotConnected if it misses a vertex."""
    n, m, ends = g.n, g.m, g.ends
    flat = ends.T.ravel()
    slots = np.argsort(flat, kind="stable")  # edge endpoints grouped by vertex
    nbr, eid = flat[(slots + m) % (2 * m)].tolist(), (slots % m).tolist()
    nxt = np.searchsorted(flat[slots], np.arange(n + 1)).tolist()
    stop = nxt[1:]
    disc, low, emark = ([0] * n for _ in range(3))
    tree = [-1] * n
    estack, parts, t = [], [], 1
    disc[0] = low[0] = t
    stack = [0]
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
                lu = min(lu, dw)
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
        if not stack:
            break
        p = stack[-1]
        if lu < disc[p]:
            low[p] = min(low[p], lu)
            continue
        # p cuts u's subtree off: what was pushed since u's tree edge is one block
        parts.append(estack[emark[u]:])
        del estack[emark[u]:]
    if t < n:
        raise NotConnected(f"graph with {n} vertices is not connected")
    return parts, [d - 1 for d in disc]


def reference_block_weights(g: Graph, edge_ids) -> list[tuple[int, int, int]]:
    """Sorted ``(vertex, weight, hanging)`` of the block of ``g`` made of
    ``edge_ids``: with the block's edges gone, the vertices and edges left
    joined to each of its vertices, by a dict union-find."""
    own = set(edge_ids)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    rest = [e for i, e in enumerate(g.edges) if i not in own]
    for u, v in rest:
        parent[find(u)] = find(v)
    weight, hanging = Counter(find(x) for x in range(g.n)), Counter(find(u) for u, _ in rest)
    block = {x for i in own for x in g.edges[i]}
    return sorted((x, weight[find(x)], hanging[find(x)]) for x in block)


def check_layouts(parts):
    """Block i has the size and, up to each edge's orientation, the
    ``local_ends`` rows of block ``layout[i]``, the first of its layout."""
    sizes, starts = np.diff(parts.vertex_start), parts.edge_start
    for i, first in enumerate(parts.layout.tolist()):
        assert first <= i and parts.layout[first] == first
        assert sizes[i] == sizes[first]
        mine, theirs = (np.sort(parts.local_ends[starts[b]:starts[b + 1]], axis=1)
                        for b in (i, first))
        assert np.array_equal(mine, theirs)


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


@st.composite
def polymer_specs(draw, min_monomers: int = 2):
    """A spec of ``min_monomers``-4 small random monomers (a circuit has at
    least 3), of any of the five kinds.  Tree edges come in any order and
    either orientation, so a pair's smaller slot may be on either side."""
    kind = draw(st.sampled_from(KINDS))
    monomers = []
    for _ in range(draw(st.integers(max(min_monomers, 3 if kind == "circuit" else 1), 4))):
        mono = draw(connected_graphs(min_n=2, max_n=5))
        x = draw(st.integers(0, mono.n - 1))
        y = (x + draw(st.integers(1, mono.n - 1))) % mono.n
        monomers.append(MonomerHandle(mono, x, y))
    tree_edges = []
    for b in range(1, len(monomers) if kind == "tree" else 1):
        a = draw(st.integers(0, b - 1))
        edge = (a, draw(st.integers(0, monomers[a].graph.n - 1)),
                b, draw(st.integers(0, monomers[b].graph.n - 1)))
        tree_edges.append(edge[2:] + edge[:2] if draw(st.booleans()) else edge)
    return PolymerSpec(kind, tuple(monomers), tuple(draw(st.permutations(tree_edges))))


@st.composite
def one_block_monomers(draw, min_n: int = 1):
    """A monomer of at most one block whose blocks are known before it is
    composed: a cycle or a clique (K1 and K2 included) as built, or a
    relabelled cycle with chords given the DFS's blocks as if built so."""
    shape = draw(st.sampled_from(["cycle", "clique", "chorded"]))
    if shape == "cycle":
        return cycle_graph(draw(st.integers(3, 7)))
    if shape == "clique":
        return complete_graph(draw(st.integers(min_n, 5)))
    g = draw(chorded_cycles())
    return Graph(g.n, g.ends, blocks(g))


@st.composite
def chorded_cycles(draw, min_n: int = 4, max_n: int = 8, min_chords: int = 1,
                   max_chords: int = 3):
    """A cycle of ``min_n``-``max_n`` vertices with ``min_chords`` to
    ``max_chords`` chords drawn (a loop or a cycle edge adds none),
    relabelled: one block."""
    n = draw(st.integers(min_n, max_n))
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           min_size=min_chords, max_size=max_chords))
    pairs = {(i, (i + 1) % n) for i in range(n)} | {c for c in chords if c[0] != c[1]}
    return permute_graph(from_edge_list(n, {(min(c), max(c)) for c in pairs}),
                         draw(st.permutations(range(n))))


@st.composite
def one_block_specs(draw):
    """A spec of 1-5 ``one_block_monomers`` (a circuit has at least 3), of
    any kind; tree edges pick their slots among few vertices, so several
    pairs often share one slot."""
    kind = draw(st.sampled_from(KINDS))
    k = draw(st.integers(3 if kind == "circuit" else 1, 5))
    monomers = []
    for i in range(k):
        interior = kind == "chain" and 0 < i < k - 1
        g = draw(one_block_monomers(min_n=2 if interior else 1))
        x = draw(st.integers(0, g.n - 1))
        y = (x + draw(st.integers(1, g.n - 1))) % g.n if interior else draw(
            st.integers(0, g.n - 1))
        monomers.append(MonomerHandle(g, x, y))
    tree_edges = []
    for b in range(1, k if kind == "tree" else 1):
        a = draw(st.integers(0, b - 1))
        edge = (a, draw(st.integers(0, min(1, monomers[a].graph.n - 1))),
                b, draw(st.integers(0, monomers[b].graph.n - 1)))
        tree_edges.append(edge[2:] + edge[:2] if draw(st.booleans()) else edge)
    return PolymerSpec(kind, tuple(monomers), tuple(draw(st.permutations(tree_edges))))


def polymer_composites():
    """The composite of a ``polymer_specs`` spec."""
    return polymer_specs().map(lambda spec: compose(spec).graph)


@st.composite
def block_rich_graphs(draw, max_pieces: int = 6):
    """Paths, cycles and cliques hung one by one on the graph so far, then
    relabelled: bridges, pendant paths and cut vertices shared by blocks."""
    pairs, n = set(), 1
    for _ in range(draw(st.integers(0, max_pieces))):
        new = [draw(st.integers(0, n - 1)), *range(n, n + draw(st.integers(1, 5)))]
        n += len(new) - 1
        shape = draw(st.sampled_from(["path", "cycle", "clique"]))
        if shape == "path" or len(new) < 3:
            links = zip(new, new[1:])
        else:
            links = zip(new, new[1:] + new[:1]) if shape == "cycle" else combinations(new, 2)
        pairs.update((min(a, b), max(a, b)) for a, b in links)
    return permute_graph(from_edge_list(n, sorted(pairs)), draw(st.permutations(range(n))))
