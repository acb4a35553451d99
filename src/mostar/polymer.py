"""Composite graphs built from monomer units by point-attaching.

A ``PolymerSpec`` names a kind and monomers with designated attachment
vertices; it checks everything its kind requires when made, so every spec
that exists can be composed.  ``_compose_all`` builds the composites of
many specs as one disjoint union in one array pass, and ``compose``, the
one public constructor, is its batch of one.  It only identifies
vertices, as the paper's point-attaching does: a link's bridges are K2
units and a circuit's new edges a cycle unit, each identified with the
monomers they join.  Vertex ids in the composite are assigned in monomer
order, so a merged vertex inherits the lowest id among its slots and
``vertex_map`` records where every original monomer vertex ended up.

Point-attaching merges no blocks: an identified vertex is a cut vertex.  So
when every monomer of a batch was built with its blocks (a cycle, a clique,
or such a composite) and has at most one, the union's blocks are the
construction's: each unit of two or more vertices is a block laid out as
itself, and the union's graph is built with them (``Graph.parts``).
Units copied from one source, a distinct monomer handle, the K2 bridge or
the cycle of one circuit length, share a block layout (``Blocks.layout``),
which the engine evaluates once.  ``compose``'s composite keeps them;
``cli.cmd_verify`` hands a union's straight to the engine.  Any other
composite's blocks come from a DFS whenever they are read."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import is_
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (DegenerateHandles, GraphError, NotATree, NotConnected,
                     TooFewMonomers, VertexOutOfRange, quote)
from .formats import _parse_graph_json, graph_to_dict, json_integer, load_json
from .graphs import (Blocks, Graph, _components, _from_array, _graph_arg, _is_int,
                     _typed, _union_blocks, is_connected)

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
        monomers = self.monomers
        # a polymer often repeats one handle: then each check runs on it once
        one = all(map(is_, monomers, repeat(monomers[0])))
        if not all(map(isinstance, monomers[:1] if one else monomers, repeat(MonomerHandle))):
            i, h = next((i, h) for i, h in enumerate(monomers) if not isinstance(h, MonomerHandle))
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
        k = len(monomers)
        if self.kind == "circuit" and k < 3:
            raise TooFewMonomers(f"circuit needs at least 3 monomers, got {k}")
        if self.kind == "chain":
            inner = monomers[1:-1]
            for i, h in enumerate(inner[:1] if one else inner, 1):
                if h.x == h.y:
                    raise DegenerateHandles(f"interior chain monomer {i} has x == y == {h.x}")
        if self.kind == "tree":
            _check_tree(monomers, self.tree_edges)
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
    vertex v of monomer i, is composite vertex ``ids[starts[i] + v]``.
    GraphError, naming the field, unless ``ids`` and ``starts`` are 1-D
    integer arrays, ``starts`` begins at 0 and never decreases, ``ids`` has
    ``starts[-1]`` entries and each is a vertex of ``graph``.  Both are kept
    as read-only int64 arrays, as ``Graph.ends`` is."""

    graph: Graph
    ids: np.ndarray = field(compare=False, repr=False)
    starts: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        n = _graph_arg(self.graph, "graph").n
        for name in ("ids", "starts"):
            a = _typed(getattr(self, name), np.ndarray, name)
            if a.ndim != 1 or a.dtype.kind not in "iu":
                raise GraphError(f"{name} must be a 1-D integer array, not {a.ndim}-D {a.dtype}")
        ids, starts = self.ids, self.starts
        if not (len(starts) and starts[0] == 0 and (starts[1:] >= starts[:-1]).all()):
            raise GraphError("starts must begin at 0 and never decrease")
        if len(ids) != starts[-1]:
            raise GraphError(f"ids has {len(ids)} entries, not starts[-1] = {starts[-1]}")
        if len(ids) and not (ids.min() >= 0 and ids.max() < n):
            raise GraphError(f"ids must be vertices of the graph, 0..{n - 1}")
        for name, a in (("ids", ids), ("starts", starts)):
            a = a.astype(np.int64, copy=False)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

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
    """The composite of ``spec``: ``_compose_all`` of it alone, built with
    its blocks where the construction knows them (see above)."""
    union = _compose_all([_typed(spec, PolymerSpec, "spec")])
    k = len(spec.monomers)
    return CompositionResult(union.graph, union.ids[:union.starts[k]], union.starts[:k + 1])


class _Union(NamedTuple):
    """The disjoint union of composites that ``_compose_all`` builds: spec
    j's vertices are ``vertex_at[j]:vertex_at[j + 1]`` of ``graph`` and its
    edges ``edge_at[j]:edge_at[j + 1]``, its own canonical edges shifted by
    ``vertex_at[j]``.  Vertex v of unit u is flat slot ``starts[u] + v`` and
    union vertex ``ids[starts[u] + v]``.  Where ``graph`` was built with
    its blocks (``graph.parts``), spec j's start at ``block_at[j]``, and
    blocks copied from one source share a layout across all the specs;
    a DFS's blocks each have their own."""

    graph: Graph
    vertex_at: np.ndarray
    edge_at: list[int]
    ids: np.ndarray
    starts: np.ndarray
    block_at: np.ndarray | None

    def blocks(self) -> tuple[Blocks, np.ndarray]:
        """``graph.parts`` and ``block_at``, else those of one DFS over the union."""
        if self.graph.parts is not None:
            return self.graph.parts, self.block_at
        return _union_blocks(self.graph.ends, np.diff(self.vertex_at), np.diff(self.edge_at))


def _compose_all(specs: Sequence[PolymerSpec]) -> _Union:
    """The composites of ``specs``, spec after spec, as one disjoint union
    built in one array pass by identifying slot pairs only.  A spec's units
    are its monomers, then a link's k - 1 bridges (K2 units) or a circuit's
    cycle (one k-cycle unit), and vertex v of unit u is flat slot
    ``starts[u] + v``; ``_pair_runs`` gives the slot pairs.  Each pair's
    slots unite into their lowest slot, a monomer's.  A vertex id is the
    running count of those class roots, so ids follow monomer order, a
    merged vertex takes the lowest id among its slots, and each spec's ids
    follow those of the specs before.  Each distinct monomer handle is read
    once; per monomer, only its identity is looked up.  A unit's source is
    its distinct handle, the one K2 bridge, or the one cycle of its
    circuit's length; where the union is built with its blocks, each
    block's layout is the first block of the same source."""
    index, distinct, code, last = {}, [], [], None  # the distinct handles; each monomer's
    for h in chain.from_iterable(s.monomers for s in specs):
        if h is not last:  # a polymer often repeats one handle: look it up once per run
            last, i = h, index.setdefault(id(h), len(distinct))
            if i == len(distinct):
                distinct.append(h)
        code.append(i)
    code = np.array(code, np.intp)
    known = [h.graph.parts for h in distinct]
    joined = None not in known and max(len(p.edge_start) for p in known) <= 2
    # each unit's edges are a source's: a distinct monomer's, the bridge's or a cycle's
    sources = [h.graph.ends for h in distinct] + [np.array([[0, 1]])]
    table = [(h.graph.n, h.graph.m, h.x, h.y) for h in distinct] + [(2, 1, 0, 0)]
    cycles = {}  # the source of each circuit length: circuits of equal k share one
    extra_at, extra, runs, ranked, unit_end, first, pairs = [], [], [], [], [0], 0, 0
    for j, s in enumerate(specs):
        k, u = len(s.monomers), unit_end[-1]
        if s.kind == "link":
            extra_at += [first + k] * (k - 1)
            extra += [len(distinct)] * (k - 1)
        elif s.kind == "circuit":
            extra_at.append(first + k)
            if k not in cycles:
                cycles[k] = len(sources)
                sources.append((np.arange(k)[:, None] + [0, 1]) % k)
                table.append((k, k, 0, 0))
            extra.append(cycles[k])
        first += k
        unit_end.append(first + len(extra))
        spec_runs, spec_ranks = _pair_runs(s, j, u, unit_end[-1], first - k, len(code))
        for run in spec_runs:  # kept with where its pairs start, after the runs before
            runs.append((run[0], pairs, *run[1:]))
            pairs += run[0]
        ranked += spec_ranks
    sizes, edges, xs, ys = np.fromiter(chain.from_iterable(table), np.int64,
                                       4 * len(table)).reshape(-1, 4).T
    unit_source = np.insert(code, extra_at, extra) if extra else code
    n, m = sizes[unit_source], edges[unit_source]  # of each unit
    bounds = np.zeros((2, len(n) + 1), np.int64)
    np.cumsum([n, m], axis=1, out=bounds[:, 1:])
    starts, edge_start = bounds
    runs = np.array(runs, np.int64).reshape(-1, 15)
    row = np.repeat(runs, runs[:, 0], axis=0)  # each pair's run
    cols = row[:, 3::2] + row[:, 4::2] * (np.arange(pairs) - row[:, 1])[:, None]
    vertex = np.concatenate([xs[code], ys[code], np.arange(sizes.max())])
    slots = starts[cols[:, 0:4:2]] + vertex[cols[:, 1:4:2]]
    label = _components(int(starts[-1]), slots)
    roots = np.zeros(len(label) + 1, np.int64)  # class roots before each slot
    np.cumsum(label == np.arange(len(label)), out=roots[1:])
    ids = roots[label]
    sourced = np.cumsum(edges) - edges  # where each source's edges start
    local = np.concatenate(sources).take(
        np.repeat(sourced[unit_source] - edge_start[:-1], m) + np.arange(edge_start[-1]), axis=0)
    # duplicate edges cannot arise from point-attaching disjoint monomers;
    # _from_array raising DuplicateEdge here would expose a compose bug
    raw = ids[local + np.repeat(starts[:-1], 2 * m).reshape(-1, 2)]
    graph, order = _from_array(int(roots[-1]), raw)
    vertex_at, edge_at = roots[starts[unit_end]], edge_start[unit_end].tolist()
    if not joined:
        return _Union(graph, vertex_at, edge_at, ids, starts, None)
    # a unit's vertex carries itself and what hangs at its slot outside the unit: for a
    # slot pair (a, b) whose b side holds vb vertices and eb edges, a gains vb - 1 and eb,
    # and b the rest of its composite
    placed = np.arange(len(n))  # the unit at each rank
    if ranked:
        at, to = np.array(ranked).T
        placed[to] = at
    ranked_sums = np.zeros((2, len(n) + 1), np.int64)  # of n - 1 and m, in rank order
    np.cumsum([n[placed] - 1, m[placed]], axis=1, out=ranked_sums[:, 1:])
    (lo, hi), (vs, es), (a, b) = cols[:, 4:].T, ranked_sums, slots.T
    vb, eb = vs[hi] - vs[lo] + 1, es[hi] - es[lo]
    weights, hanging = np.ones(len(ids), np.int64), np.zeros(len(ids), np.int64)
    np.add.at(weights, a, vb - 1)
    np.add.at(hanging, a, eb)
    owner = row[:, 2]
    weights[b] += np.diff(vertex_at)[owner] - vb  # b is a different slot in every pair
    hanging[b] += np.diff(edge_at)[owner] - eb
    big = n > 1  # a one-vertex unit has no block
    keep = np.repeat(big, n)
    flip = raw[:, 0] > raw[:, 1]  # rows of local where raw reverses them
    local[flip] = local[flip, ::-1]
    eids = np.empty_like(order)
    eids[order] = np.arange(len(order))
    block_bounds = np.zeros((2, big.sum() + 1), np.int64)
    np.cumsum([n[big], m[big]], axis=1, out=block_bounds[:, 1:])
    blocks_at = np.zeros(len(n) + 1, np.int64)
    np.cumsum(big, out=blocks_at[1:])
    # a block's layout is its source's: the first block copied from the same source
    _, first_of, source = np.unique(unit_source[big], return_index=True, return_inverse=True)
    parts = Blocks(block_bounds[0], ids[keep], weights[keep], hanging[keep], block_bounds[1],
                   eids, local, first_of[source])
    return _Union(Graph(graph.n, graph.ends, parts), vertex_at, edge_at, ids, starts,
                  blocks_at[unit_end])


def _pair_runs(spec: PolymerSpec, j: int, u: int, end: int, first: int,
               monomers: int) -> tuple[list[tuple[int, ...]], Iterable[tuple[int, int]]]:
    """The slot pairs of ``specs[j]``, whose units are flat units ``u:end``
    and whose monomers start at ``first`` of all ``monomers``, as runs, and
    the ranks of its units that differ from their index, as (unit, rank).
    A run is a count c, then j, then a base and a step for each of six
    columns: the unit and the vertex of slot a, the unit and the vertex of
    slot b, and b's side of the pair, the units ranked ``lo:hi``; pair i of
    the run holds ``base + step * i``.  A vertex column picks a monomer's x
    (from 0), its y (from ``monomers``) or a literal vertex (from ``2 *
    monomers``).  Ranks order the units so that every side is a run of
    ranks.  A chain pairs ``(y_i, x_{i+1})`` and a link ``(y_i,
    bridge_i.0)`` and ``(bridge_i.1, x_{i+1})``, ranked in path order
    (monomer i, then bridge i): b's side is every unit after the pair.  A
    bouquet pairs ``(x_0, x_i)`` and a circuit ``(cycle.i, x_i)``: b's side
    is monomer i.  A tree pairs its tree edges, each run from parent to
    child with the tree rooted at monomer 0 and ranked in preorder: b's
    side is the child's subtree."""
    k, x, y, lit = len(spec.monomers), first, monomers + first, 2 * monomers
    if spec.kind == "chain":
        return [(k - 1, j, u, 1, y, 1, u + 1, 1, x + 1, 1, u + 1, 1, end, 0)], ()
    if spec.kind == "link":
        return ([(k - 1, j, u, 1, y, 1, u + k, 1, lit, 0, u + 1, 2, end, 0),
                 (k - 1, j, u + k, 1, lit + 1, 0, u + 1, 1, x + 1, 1, u + 2, 2, end, 0)],
                zip(range(u, end), [*range(u, end, 2), *range(u + 1, end, 2)]))
    if spec.kind == "bouquet":
        return [(k - 1, j, u, 0, x, 0, u + 1, 1, x + 1, 1, u + 1, 1, u + 2, 1)], ()
    if spec.kind == "circuit":
        return [(k, j, end - 1, 0, lit, 1, u, 1, x, 1, u, 1, u + 1, 1)], ()
    pre, below, edges = _tree_order(spec.tree_edges, k)
    return ([(1, j, u + a, 0, lit + va, 0, u + b, 0, lit + vb, 0, u + pre[b], 0,
              u + pre[b] + below[b], 0) for a, va, b, vb in edges],
            zip(range(u, end), [u + r for r in pre]))


def _tree_order(tree_edges: tuple[TreeEdge, ...], k: int) -> tuple[list, list, list]:
    """With the monomer tree rooted at monomer 0: each monomer's rank in a
    depth-first preorder and the size of its subtree, and the tree edges,
    each turned to run from parent to child."""
    nbrs = [[] for _ in range(k)]
    for a, va, b, vb in tree_edges:
        nbrs[a].append((b, vb, va))
        nbrs[b].append((a, va, vb))
    up, order, stack, edges = [-1] * k, [], [0], []
    while stack:
        a = stack.pop()
        order.append(a)
        for b, vb, va in nbrs[a]:
            if b != up[a]:  # two tree edges never join the same two monomers
                up[b] = a
                edges.append((a, va, b, vb))
                stack.append(b)
    below, pre = [1] * k, [0] * k
    for i, c in enumerate(order):
        pre[c] = i
    for c in reversed(order[1:]):
        below[up[c]] += below[c]
    return pre, below, edges


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
