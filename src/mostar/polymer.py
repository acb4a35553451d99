"""Composite graphs built from monomer units by point-attaching.

A ``PolymerSpec`` names a kind and monomers with designated attachment
vertices; it checks everything its kind requires when made, so every spec
that exists can be composed.  ``compose`` is the one constructor and works
on flat slot arrays throughout.  It only identifies vertices, as the
paper's point-attaching does: a link's bridges are K2 units and a
circuit's new edges a cycle unit, each identified with the monomers they
join.  Vertex ids in the composite are assigned in monomer order, so a
merged vertex inherits the lowest id among its slots and ``vertex_map``
records where every original monomer vertex ended up.

Point-attaching merges no blocks: an identified vertex is a cut vertex.  So
when every monomer was built with its blocks (a cycle, a clique, or such a
composite) and has at most one, ``compose`` sets the composite's: each unit
of two or more vertices is a block laid out as itself.  Any other
composite's blocks come from a DFS whenever they are read."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (DegenerateHandles, GraphError, NotATree, NotConnected,
                     TooFewMonomers, VertexOutOfRange, quote)
from .formats import _parse_graph_json, graph_to_dict, json_integer, load_json
from .graphs import (Blocks, Graph, _components, _from_array, _graph_arg, _is_int,
                     _known_blocks, _set_blocks, _typed, is_connected)

KINDS = ("link", "chain", "bouquet", "circuit", "tree")

Slot = tuple[int, int]  # (monomer index, original vertex)
TreeEdge = tuple[int, int, int, int]  # (monomer a, vertex in a, monomer b, vertex in b)


@dataclass(frozen=True)
class MonomerHandle:
    """A connected monomer with entry vertex x and exit vertex y.

    y may equal x and defaults to it; bouquet and circuit use only x.  Each
    must be an integer vertex of the graph, else VertexOutOfRange, and is
    stored as a Python int.
    """

    graph: Graph
    x: int
    y: int | None = None

    def __post_init__(self):
        _graph_arg(self.graph, "graph")
        if self.y is None:
            object.__setattr__(self, "y", self.x)
        for name in ("x", "y"):
            v = getattr(self, name)
            if not (_is_int(v) and 0 <= v < self.graph.n):
                raise VertexOutOfRange(v, self.graph.n)
            object.__setattr__(self, name, int(v))
        if not is_connected(self.graph):
            raise NotConnected("monomer graph is not connected")


@dataclass(frozen=True)
class PolymerSpec:
    """A polymer to compose; raises here, not in ``compose``, if its kind's
    conditions fail: every monomer is a ``MonomerHandle``, a circuit has at
    least 3 monomers, no interior chain monomer has x == y, and tree edges
    form a tree over the monomers.  The monomers, from any iterable, are
    stored as a tuple, and the tree edges as a tuple of tuples of 4 Python
    ints, so a spec hashes."""

    kind: str
    monomers: tuple[MonomerHandle, ...]
    tree_edges: tuple[TreeEdge, ...] = ()

    def __post_init__(self):
        for name in ("monomers", "tree_edges"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, tuple(value))
            except TypeError:  # not iterable
                raise GraphError(f"{name} must be iterable, got {quote(value)}") from None
        if self.kind not in KINDS:
            raise GraphError(f"unknown composition kind {quote(self.kind)}")
        if not self.monomers:
            raise GraphError("a polymer needs at least one monomer")
        for i, h in enumerate(self.monomers):
            if not isinstance(h, MonomerHandle):
                raise GraphError(f"monomer {i} is a {type(h).__name__}, not a MonomerHandle")
        if self.tree_edges and self.kind != "tree":
            raise GraphError(f"tree_edges apply only to kind 'tree', not {quote(self.kind)}")
        for e in self.tree_edges:
            try:
                arity = len(e)
            except TypeError:  # not a sequence at all
                arity = None
            if arity != 4:
                raise NotATree(f"tree edge {quote(e if arity is None else list(e))} must have "
                               "4 entries [monomer a, vertex in a, monomer b, vertex in b]")
        k = len(self.monomers)
        if self.kind == "circuit" and k < 3:
            raise TooFewMonomers(f"circuit needs at least 3 monomers, got {k}")
        if self.kind == "chain":
            for i, h in enumerate(self.monomers[1:-1], 1):
                if h.x == h.y:
                    raise DegenerateHandles(f"interior chain monomer {i} has x == y == {h.x}")
        if self.kind == "tree":
            _check_tree(self.monomers, self.tree_edges)
        object.__setattr__(self, "tree_edges", tuple(tuple(map(int, e)) for e in self.tree_edges))


def _check_tree(monomers: tuple[MonomerHandle, ...], tree_edges: tuple[TreeEdge, ...]) -> None:
    """Raise unless ``tree_edges`` joins the k monomers by k - 1 edges of
    integer, in-range entries with no cycle, checked edge by edge in order."""
    k = len(monomers)
    if len(tree_edges) != k - 1:
        raise NotATree(f"{k} monomers need {k - 1} tree edges, got {len(tree_edges)}")
    comp = list(range(k))

    def root(i: int) -> int:
        while comp[i] != i:
            comp[i] = comp[comp[i]]
            i = comp[i]
        return i

    for a, va, b, vb in tree_edges:
        for mi, v in ((a, va), (b, vb)):
            if not (_is_int(mi) and 0 <= mi < k):
                raise NotATree(f"monomer index {quote(mi)} out of range")
            if not (_is_int(v) and 0 <= v < monomers[mi].graph.n):
                raise VertexOutOfRange(v, monomers[mi].graph.n)
        if a == b:
            raise NotATree(f"tree edge attaches monomer {a} to itself")
        ra, rb = root(a), root(b)
        if ra == rb:
            raise NotATree(f"tree edges form a cycle through monomers {a} and {b}")
        comp[ra] = rb


@dataclass(frozen=True)
class CompositionResult:
    """The composite and where every monomer vertex went: slot ``(i, v)``,
    vertex v of monomer i, is composite vertex ``ids[starts[i] + v]``."""

    graph: Graph
    ids: np.ndarray = field(compare=False, repr=False)
    starts: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):  # read-only, as Graph.ends is
        for name in ("ids", "starts"):
            _typed(getattr(self, name), np.ndarray, name).flags.writeable = False

    def vertex(self, i: int, v: int) -> int:
        """The composite vertex of slot ``(i, v)``; GraphError unless ``i`` is
        an integer monomer index, VertexOutOfRange unless ``v`` is an
        integer vertex of monomer i."""
        k = len(self.starts) - 1
        if not (_is_int(i) and 0 <= i < k):
            raise GraphError(f"monomer index {quote(i)} out of range for k={k}")
        n = int(self.starts[i + 1] - self.starts[i])
        if not (_is_int(v) and 0 <= v < n):
            raise VertexOutOfRange(v, n)
        return int(self.ids[self.starts[i] + v])

    @cached_property
    def vertex_map(self) -> dict[Slot, int]:
        """Composite vertex per slot, in slot order."""
        owner = np.repeat(np.arange(len(self.starts) - 1), np.diff(self.starts))
        local = np.arange(len(self.ids)) - self.starts[owner]
        return dict(zip(zip(owner.tolist(), local.tolist()), self.ids.tolist()))


def compose(spec: PolymerSpec) -> CompositionResult:
    """The composite of ``spec``, by identifying slot pairs only.  Slot ``(i,
    v)`` is flat slot ``starts[i] + v``; a link's k - 1 bridges (K2 units) and
    a circuit's cycle (one k-cycle unit) take the slots after the monomers'.
    The kind picks one ``(p, 2)`` array of slot pairs: chain ``(y_i,
    x_{i+1})``, link ``(y_i, bridge_i.0)`` and ``(bridge_i.1, x_{i+1})``,
    bouquet ``(x_0, x_i)``, circuit ``(cycle.i, x_i)`` and tree its tree
    edges.  Each pair's slots unite into their lowest slot, a monomer's.  A
    composite id is the running count of those class roots, so ids follow
    monomer order and a merged vertex takes the lowest id among its slots.
    Sets the composite's blocks where it can (see above)."""
    hs, k = _typed(spec, PolymerSpec, "spec").monomers, len(spec.monomers)
    arrays, sizes = [h.graph.ends for h in hs], [h.graph.n for h in hs]
    if spec.kind == "link":
        arrays, sizes = arrays + [np.array([[0, 1]])] * (k - 1), sizes + [2] * (k - 1)
    elif spec.kind == "circuit":
        arrays, sizes = arrays + [(np.arange(k)[:, None] + [0, 1]) % k], sizes + [k]
    starts = np.cumsum([0] + sizes)
    x, y = starts[:k] + [h.x for h in hs], starts[:k] + [h.y for h in hs]
    if spec.kind == "tree":
        tree = np.array(spec.tree_edges, dtype=np.int64).reshape(-1, 4)
        pairs = starts[tree[:, [0, 2]]] + tree[:, [1, 3]]
    elif spec.kind == "bouquet":
        pairs = np.column_stack([np.full_like(x[1:], x[0]), x[1:]])
    elif spec.kind == "circuit":
        pairs = np.column_stack([starts[k] + np.arange(k), x])
    elif spec.kind == "link":  # in path order: monomer i, then bridge i
        bridge = starts[k:-1]
        pairs = np.column_stack([y[:-1], bridge, bridge + 1, x[1:]]).reshape(-1, 2)
    else:  # chain
        pairs = np.column_stack([y[:-1], x[1:]])
    m = np.array([len(e) for e in arrays])
    local = np.concatenate(arrays)
    label = _components(int(starts[-1]), pairs)
    roots = label == np.arange(len(label))
    ids = (np.cumsum(roots) - 1)[label]
    # duplicate edges cannot arise from point-attaching disjoint monomers;
    # _from_array raising DuplicateEdge here would expose a compose bug
    raw = ids[local + np.repeat(starts[:-1], m)[:, None]]
    graph, order = _from_array(int(roots.sum()), raw)
    known = [_known_blocks(g) for g in {id(h.graph): h.graph for h in hs}.values()]
    if None not in known and max(len(b.edge_start) for b in known) <= 2:
        _set_blocks(graph, _construction_blocks(spec, graph, order, ids, starts, m, pairs,
                                                local, raw))
    return CompositionResult(graph, ids[:starts[k]], starts[:k + 1])


def _construction_blocks(spec: PolymerSpec, graph: Graph, order: np.ndarray,
                         ids: np.ndarray, starts: np.ndarray, m: np.ndarray,
                         pairs: np.ndarray, local: np.ndarray, raw: np.ndarray) -> Blocks:
    """``graph``'s blocks when no monomer of ``spec`` has two (see above): a
    unit's vertex carries itself and what hangs at its slot outside the
    unit.  For a slot pair (a, b) whose b side holds ``vb`` vertices and
    ``eb`` edges, a gains ``vb - 1`` and ``eb``, and b the rest.  The units
    form a path (chain, link), a star (bouquet around monomer 0, circuit
    around its cycle) or a tree.  Rows of ``local`` are flipped where
    ``raw`` reverses them."""
    k, N, M = len(spec.monomers), graph.n, graph.m
    n = np.diff(starts)
    if spec.kind == "tree":
        vb, eb, swap = _child_sides(spec.tree_edges, n, m)
        pairs = np.where(swap[:, None], pairs[:, ::-1], pairs)
    elif spec.kind in ("bouquet", "circuit"):  # a star: b is a whole leaf monomer
        vb, eb = n[k - len(pairs):k], m[k - len(pairs):k]
    else:  # a path: b is every unit after the pair; a link's runs monomer i, bridge i
        path = (np.insert(np.arange(k), np.arange(1, k), np.arange(k, 2 * k - 1))
                if spec.kind == "link" else slice(None))
        vb, eb = N - np.cumsum(n[path] - 1)[:-1], M - np.cumsum(m[path])[:-1]
    weights, hanging = np.ones(starts[-1], np.int64), np.zeros(starts[-1], np.int64)
    a, b = pairs.T  # b is a different slot in every pair; a need not be
    np.add.at(weights, a, vb - 1)
    np.add.at(hanging, a, eb)
    weights[b] += N - vb
    hanging[b] += M - eb
    parts = [n, m, ids, weights, hanging, local]
    if n.min() == 1:  # a one-vertex monomer has no block
        big, keep = n > 1, np.repeat(n > 1, n)
        parts = [n[big], m[big], ids[keep], weights[keep], hanging[keep], local]
    sizes, counts, vertices, weights, hanging, rows = parts
    flip = raw[:, 0] > raw[:, 1]
    if flip.any():
        rows[flip] = rows[flip, ::-1]
    eids = np.empty_like(order)
    eids[order] = np.arange(len(order))
    vertex_start, edge_start = np.zeros((2, len(sizes) + 1), np.int64)
    np.cumsum(sizes, out=vertex_start[1:])
    np.cumsum(counts, out=edge_start[1:])
    return Blocks(vertex_start, vertices, weights, hanging, edge_start, eids, rows)


def _child_sides(tree_edges: tuple[TreeEdge, ...], n: np.ndarray,
                 m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """With the monomer tree rooted at monomer 0, each tree edge's child
    side: its vertices and edges, and whether the child is the edge's first
    monomer.  Monomers S hold ``sum_S (n_j - 1) + 1`` vertices: |S| - 1
    pairs merge."""
    nbrs = [[] for _ in n]
    for j, (a, _, b, _) in enumerate(tree_edges):
        nbrs[a].append((b, j))
        nbrs[b].append((a, j))
    up, order = {0: (0, 0)}, [0]
    for a in order:  # breadth first
        for b, j in nbrs[a]:
            if b not in up:
                up[b] = a, j
                order.append(b)
    below, edges, child = (n - 1).tolist(), m.tolist(), [0] * len(tree_edges)
    for c in reversed(order[1:]):
        a, j = up[c]
        child[j] = c
        below[a] += below[c]
        edges[a] += edges[c]
    child = np.array(child, dtype=np.int64)
    return (np.array(below)[child] + 1, np.array(edges)[child],
            child == [e[0] for e in tree_edges])


def spec_to_dict(spec: PolymerSpec) -> dict:
    _typed(spec, PolymerSpec, "spec")
    out: dict = {
        "kind": spec.kind,
        "monomers": [{"graph": graph_to_dict(h.graph), "x": h.x, "y": h.y}
                     for h in spec.monomers],
    }
    if spec.kind == "tree":
        out["tree_edges"] = [list(e) for e in spec.tree_edges]
    return out


def spec_from_json(text: str) -> PolymerSpec:
    obj = load_json(text, "polymer spec")
    if not isinstance(obj, dict) or "kind" not in obj or "monomers" not in obj:
        raise GraphError("polymer spec JSON must have 'kind' and 'monomers'")
    if not isinstance(obj["monomers"], list) or not all(
            isinstance(mon, dict) for mon in obj["monomers"]):
        raise GraphError("polymer spec 'monomers' must be an array of objects")
    tree_edges = obj.get("tree_edges", [])
    if not isinstance(tree_edges, list) or not all(isinstance(e, list) for e in tree_edges):
        raise GraphError("polymer spec 'tree_edges' must be an array of arrays")
    monomers = []
    for i, mon in enumerate(obj["monomers"]):
        if missing := [f for f in ("graph", "x") if f not in mon]:
            raise GraphError(f"polymer spec monomer {i} has no '{missing[0]}'")
        graph = _parse_graph_json(mon["graph"])
        y = mon.get("y")
        monomers.append(MonomerHandle(
            graph, json_integer(mon["x"], "polymer spec 'x'"),
            None if y is None else json_integer(y, "polymer spec 'y'")))
    tree_edges = tuple(tuple(json_integer(x, "polymer spec tree edge entry") for x in e)
                       for e in tree_edges)
    return PolymerSpec(obj["kind"], tuple(monomers), tree_edges)
