"""Composite graphs built from monomer units by point-attaching.

A ``PolymerSpec`` names a kind and monomers with designated attachment
vertices; it checks everything its kind requires when made, so every spec
that exists can be composed.  ``compose`` is the one constructor: the kind
only picks which attachment slots pair up, and whether each pair is
identified (chain, bouquet, tree) or joined by a new edge (link, circuit).
Vertex ids in the composite are assigned in monomer order, so a merged
vertex inherits the lowest id among its slots and ``vertex_map`` records
where every original vertex ended up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (DegenerateHandles, GraphError, NotATree, NotConnected,
                     TooFewMonomers, VertexOutOfRange)
from .formats import graph_to_dict, json_integer, parse_graph_json
from .graphs import Graph, _components, _is_int, from_edge_list, is_connected

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
    form a tree over the monomers.  The monomers are stored as a tuple, and
    the tree edges as a tuple of tuples of 4 Python ints, so a spec hashes."""

    kind: str
    monomers: tuple[MonomerHandle, ...]
    tree_edges: tuple[TreeEdge, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise GraphError(f"unknown composition kind {self.kind!r}")
        object.__setattr__(self, "monomers", tuple(self.monomers))
        if not self.monomers:
            raise GraphError("a polymer needs at least one monomer")
        for i, h in enumerate(self.monomers):
            if not isinstance(h, MonomerHandle):
                raise GraphError(f"monomer {i} is a {type(h).__name__}, not a MonomerHandle")
        if self.tree_edges and self.kind != "tree":
            raise GraphError(f"tree_edges apply only to kind 'tree', not {self.kind!r}")
        for e in self.tree_edges:
            try:
                arity = len(e)
            except TypeError:  # not a sequence at all
                arity = None
            if arity != 4:
                raise NotATree(f"tree edge {e if arity is None else list(e)!r} must have "
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
                raise NotATree(f"monomer index {mi!r} out of range")
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

    def vertex(self, i: int, v: int) -> int:
        """The composite vertex of slot ``(i, v)``."""
        return int(self.ids[self.starts[i] + v])

    @cached_property
    def vertex_map(self) -> dict[Slot, int]:
        """Composite vertex per slot, in slot order."""
        owner = np.repeat(np.arange(len(self.starts) - 1), np.diff(self.starts))
        local = np.arange(len(self.ids)) - self.starts[owner]
        return dict(zip(zip(owner.tolist(), local.tolist()), self.ids.tolist()))


def _assemble(graphs: list[Graph], identify: list[tuple[Slot, Slot]],
              extra_edges: list[tuple[Slot, Slot]]) -> CompositionResult:
    """Slot ``(i, v)`` is flat slot ``starts[i] + v``.  Identified slots are
    united into their lowest slot, and a composite id is the running count
    of those class roots, so ids follow monomer order and a merged vertex
    takes the lowest id among its slots."""
    starts = np.cumsum([0] + [g.n for g in graphs])
    first = starts.tolist()

    def flat(pairs: list[tuple[Slot, Slot]]) -> np.ndarray:
        return np.array([(first[i] + v, first[j] + w) for (i, v), (j, w) in pairs],
                        dtype=np.int64).reshape(-1, 2)

    label = _components(first[-1], flat(identify))
    roots = label == np.arange(first[-1])
    ids = (np.cumsum(roots) - 1)[label]
    arrays = [g.ends for g in graphs]
    ends = np.concatenate(arrays) + np.repeat(starts[:-1], [len(e) for e in arrays])[:, None]
    ends = ids[np.concatenate([ends, flat(extra_edges)])]
    # duplicate edges cannot arise from point-attaching disjoint monomers;
    # from_edge_list raising DuplicateEdge here would expose a compose bug
    return CompositionResult(from_edge_list(int(roots.sum()), ends), ids, starts)


def compose(spec: PolymerSpec) -> CompositionResult:
    """The composite of ``spec``: its kind names the slot pairs, and whether
    each pair is identified or joined by a new edge.  Link and chain pair
    ``(y_i, x_{i+1})``, bouquet ``(x_0, x_i)``, circuit ``(x_i, x_{i+1 mod
    k})`` and tree its tree edges; link and circuit add edges."""
    hs, k = spec.monomers, len(spec.monomers)
    if spec.kind == "tree":
        pairs = [((a, va), (b, vb)) for a, va, b, vb in spec.tree_edges]
    elif spec.kind == "bouquet":
        pairs = [((0, hs[0].x), (i, hs[i].x)) for i in range(1, k)]
    elif spec.kind == "circuit":
        pairs = [((i, hs[i].x), ((i + 1) % k, hs[(i + 1) % k].x)) for i in range(k)]
    else:  # link, chain
        pairs = [((i, hs[i].y), (i + 1, hs[i + 1].x)) for i in range(k - 1)]
    graphs = [h.graph for h in hs]
    if spec.kind in ("link", "circuit"):
        return _assemble(graphs, identify=[], extra_edges=pairs)
    return _assemble(graphs, pairs, extra_edges=[])


def spec_to_dict(spec: PolymerSpec) -> dict:
    out: dict = {
        "kind": spec.kind,
        "monomers": [{"graph": graph_to_dict(h.graph), "x": h.x, "y": h.y}
                     for h in spec.monomers],
    }
    if spec.kind == "tree":
        out["tree_edges"] = [list(e) for e in spec.tree_edges]
    return out


def spec_from_dict(obj: dict) -> PolymerSpec:
    if not isinstance(obj, dict) or "kind" not in obj or "monomers" not in obj:
        raise GraphError("polymer spec JSON must have 'kind' and 'monomers'")
    if not isinstance(obj["monomers"], list) or not all(
            isinstance(mon, dict) for mon in obj["monomers"]):
        raise GraphError("polymer spec 'monomers' must be an array of objects")
    try:
        monomers = []
        for i, mon in enumerate(obj["monomers"]):
            if missing := [f for f in ("graph", "x") if f not in mon]:
                raise GraphError(f"polymer spec monomer {i} has no '{missing[0]}'")
            graph = parse_graph_json(mon["graph"])
            y = mon.get("y")
            monomers.append(MonomerHandle(
                graph, json_integer(mon["x"], "polymer spec 'x'"),
                None if y is None else json_integer(y, "polymer spec 'y'")))
        tree_edges = tuple(
            tuple(json_integer(x, "polymer spec tree edge entry") for x in e)
            for e in obj.get("tree_edges", []))
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed polymer spec: {exc}") from exc
    return PolymerSpec(obj["kind"], tuple(monomers), tree_edges)


def spec_from_json(text: str) -> PolymerSpec:
    try:
        return spec_from_dict(json.loads(text))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphError(f"invalid polymer spec JSON: {exc}") from exc
