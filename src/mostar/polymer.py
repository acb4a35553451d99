"""Composite graphs built from monomer units by point-attaching.

Each construction takes monomers with designated attachment vertices and
either identifies attachment vertices (chain, bouquet, tree) or joins them
with new edges (link, circuit).  Vertex ids in the composite are assigned in
monomer order, so a merged vertex inherits the lowest id among its slots and
``vertex_map`` records where every original vertex ended up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import (DegenerateHandles, GraphError, NotATree, NotConnected,
                     TooFewMonomers, VertexOutOfRange)
from .formats import graph_to_dict, json_integer, parse_graph_json
from .graphs import Graph, from_edge_list, is_connected

KINDS = ("link", "chain", "bouquet", "circuit", "tree")

Slot = tuple[int, int]  # (monomer index, original vertex)
TreeEdge = tuple[int, int, int, int]  # (monomer a, vertex in a, monomer b, vertex in b)


@dataclass(frozen=True)
class MonomerHandle:
    """A connected monomer with entry vertex x and exit vertex y.

    y may equal x and defaults to it; bouquet and circuit use only x.
    """

    graph: Graph
    x: int
    y: int | None = None

    def __post_init__(self):
        if not 0 <= self.x < self.graph.n:
            raise VertexOutOfRange(self.x, self.graph.n)
        if self.y is None:
            object.__setattr__(self, "y", self.x)
        if not 0 <= self.y < self.graph.n:
            raise VertexOutOfRange(self.y, self.graph.n)
        if not is_connected(self.graph):
            raise NotConnected("monomer graph is not connected")


@dataclass(frozen=True)
class PolymerSpec:
    kind: str
    monomers: tuple[MonomerHandle, ...]
    tree_edges: tuple[TreeEdge, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise GraphError(f"unknown composition kind {self.kind!r}")
        if not self.monomers:
            raise GraphError("a polymer needs at least one monomer")


@dataclass(frozen=True)
class CompositionResult:
    graph: Graph
    vertex_map: dict[Slot, int] = field(compare=False)


def _assemble(graphs: list[Graph], identify: list[tuple[Slot, Slot]],
              extra_edges: list[tuple[Slot, Slot]]) -> CompositionResult:
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
    # duplicate edges cannot arise from point-attaching disjoint monomers;
    # from_edge_list raising DuplicateEdge here would expose a builder bug
    return CompositionResult(from_edge_list(len(ids), edges), vertex_map)


def point_attach(a: Graph, va: int, b: Graph, vb: int) -> CompositionResult:
    """Disjoint union of a and b with va and vb merged into one vertex."""
    for g, v in ((a, va), (b, vb)):
        if not 0 <= v < g.n:
            raise VertexOutOfRange(v, g.n)
    return _assemble([a, b], identify=[((0, va), (1, vb))], extra_edges=[])


def build_link(monomers: list[MonomerHandle] | tuple[MonomerHandle, ...]) -> CompositionResult:
    """Disjoint union plus new bridge edges y_i to x_{i+1}."""
    monomers = tuple(monomers)
    if not monomers:
        raise GraphError("link needs at least one monomer")
    extra = [((i, monomers[i].y), (i + 1, monomers[i + 1].x))
             for i in range(len(monomers) - 1)]
    return _assemble([h.graph for h in monomers], identify=[], extra_edges=extra)


def build_chain(monomers: list[MonomerHandle] | tuple[MonomerHandle, ...]) -> CompositionResult:
    """Successive identification of y_i with x_{i+1}."""
    monomers = tuple(monomers)
    if not monomers:
        raise GraphError("chain needs at least one monomer")
    for i, h in enumerate(monomers):
        if 0 < i < len(monomers) - 1 and h.x == h.y:
            raise DegenerateHandles(
                f"interior chain monomer {i} has x == y == {h.x}")
    identify = [((i, monomers[i].y), (i + 1, monomers[i + 1].x))
                for i in range(len(monomers) - 1)]
    return _assemble([h.graph for h in monomers], identify, extra_edges=[])


def build_bouquet(monomers: list[MonomerHandle] | tuple[MonomerHandle, ...]) -> CompositionResult:
    """All x_i merged into a single hub vertex."""
    monomers = tuple(monomers)
    if not monomers:
        raise GraphError("bouquet needs at least one monomer")
    identify = [((0, monomers[0].x), (i, monomers[i].x))
                for i in range(1, len(monomers))]
    return _assemble([h.graph for h in monomers], identify, extra_edges=[])


def build_circuit(monomers: list[MonomerHandle] | tuple[MonomerHandle, ...]) -> CompositionResult:
    """Monomer i's x_i becomes cycle position i; cycle edges (i, i+1 mod n)."""
    monomers = tuple(monomers)
    if len(monomers) < 3:
        raise TooFewMonomers(f"circuit needs at least 3 monomers, got {len(monomers)}")
    k = len(monomers)
    extra = [((i, monomers[i].x), ((i + 1) % k, monomers[(i + 1) % k].x))
             for i in range(k)]
    return _assemble([h.graph for h in monomers], identify=[], extra_edges=extra)


def build_tree_attach(spec: PolymerSpec) -> CompositionResult:
    """One point-attachment per tree edge over the monomer set."""
    k = len(spec.monomers)
    if len(spec.tree_edges) != k - 1:
        raise NotATree(f"{k} monomers need {k - 1} tree edges, got {len(spec.tree_edges)}")
    comp = list(range(k))

    def root(i: int) -> int:
        while comp[i] != i:
            comp[i] = comp[comp[i]]
            i = comp[i]
        return i

    identify: list[tuple[Slot, Slot]] = []
    for a, va, b, vb in spec.tree_edges:
        for mi, v in ((a, va), (b, vb)):
            if not 0 <= mi < k:
                raise NotATree(f"monomer index {mi} out of range")
            if not 0 <= v < spec.monomers[mi].graph.n:
                raise VertexOutOfRange(v, spec.monomers[mi].graph.n)
        if a == b:
            raise NotATree(f"tree edge attaches monomer {a} to itself")
        ra, rb = root(a), root(b)
        if ra == rb:
            raise NotATree(f"tree edges form a cycle through monomers {a} and {b}")
        comp[ra] = rb
        identify.append(((a, va), (b, vb)))
    return _assemble([h.graph for h in spec.monomers], identify, extra_edges=[])


#: builder per kind; each looks its builder up by name when called, so a
#: wrapper bound over a module-level builder still sees every call
_COMPOSERS = {
    "link": lambda spec: build_link(spec.monomers),
    "chain": lambda spec: build_chain(spec.monomers),
    "bouquet": lambda spec: build_bouquet(spec.monomers),
    "circuit": lambda spec: build_circuit(spec.monomers),
    "tree": lambda spec: build_tree_attach(spec),
}


def compose(spec: PolymerSpec) -> CompositionResult:
    return _COMPOSERS[spec.kind](spec)


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
    try:
        monomers = []
        for mon in obj["monomers"]:
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
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid polymer spec JSON: {exc}") from exc
