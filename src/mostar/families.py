"""Deterministic generators for the chemical graph families.

Six polygon chains (triangles, squares, hexagons, each with its cut-vertex
spacing), the clique flower Q(m, n), and the recursive triangulane.  Every
generator returns the graph together with named landmark vertices and, for
chains, the per-polygon edge groups used by symmetry checks.  Identical
parameters always produce a byte-identical canonical edge list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphError
from .graphs import Edge, Graph, complete_graph, cycle_graph
from .polymer import (MonomerHandle, PolymerSpec, build_chain, build_circuit,
                      build_tree_attach)

CHAIN_FAMILIES = ("triangular", "square-para", "square-ortho",
                  "hex-para", "hex-meta", "hex-ortho")
FAMILY_NAMES = CHAIN_FAMILIES + ("clique-flower", "triangulane-aux", "triangulane")

#: polygon size and cut-vertex spacing per chain family
CHAIN_SHAPE = {
    "triangular": (3, 1),
    "square-para": (4, 2),
    "square-ortho": (4, 1),
    "hex-para": (6, 3),
    "hex-meta": (6, 2),
    "hex-ortho": (6, 1),
}


@dataclass(frozen=True)
class FamilySpec:
    """Parameter set selecting one family instance.

    ``n`` is the chain length or recursion depth; ``m`` and ``inner`` are the
    outer and petal clique sizes of the clique flower.
    """

    family: str
    n: int = 1
    m: int = 1
    inner: int = 1

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise GraphError(f"unknown family {self.family!r}")
        if self.n < 1 or self.m < 1 or self.inner < 1:
            raise GraphError("family parameters must be >= 1")


@dataclass(frozen=True)
class FamilyGraph:
    graph: Graph
    landmarks: dict[str, int] = field(compare=False)
    #: per-polygon edge groups in composite ids (chain families only)
    polygons: tuple[tuple[Edge, ...], ...] = ()


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _polygon_chain(n: int, sides: int, spacing: int) -> FamilyGraph:
    polygon = cycle_graph(sides)
    # one handle for every copy: a handle checks its polygon once, on creation
    comp = build_chain((MonomerHandle(polygon, 0, spacing),) * n)
    landmarks = {}
    for i in range(n):
        landmarks[f"x_{i + 1}"] = comp.vertex_map[(i, 0)]
        landmarks[f"y_{i + 1}"] = comp.vertex_map[(i, spacing)]
    polygons = tuple(
        tuple(sorted(_norm(comp.vertex_map[(i, a)], comp.vertex_map[(i, b)])
                     for a, b in polygon.edges))
        for i in range(n))
    return FamilyGraph(comp.graph, landmarks, polygons)


def gen_clique_flower(m: int, inner: int) -> FamilyGraph:
    """K_m with every vertex merged into its own copy of K_inner."""
    hub = complete_graph(m)
    petal = complete_graph(inner)
    monomers = (MonomerHandle(hub, 0),) + tuple(
        MonomerHandle(petal, 0) for _ in range(m))
    tree_edges = tuple((0, i, i + 1, 0) for i in range(m))
    comp = build_tree_attach(PolymerSpec("tree", monomers, tree_edges))
    landmarks = {f"u_{i + 1}": comp.vertex_map[(0, i)] for i in range(m)}
    return FamilyGraph(comp.graph, landmarks)


def _triangulane_aux(k: int) -> tuple[Graph, int]:
    """Returns (graph, hub vertex)."""
    if k == 1:
        return cycle_graph(3), 0
    sub, y = _triangulane_aux(k - 1)
    comp = build_circuit((MonomerHandle(sub, y), MonomerHandle(sub, y),
                          MonomerHandle(complete_graph(1), 0)))
    return comp.graph, comp.vertex_map[(2, 0)]


def gen_triangulane_aux(k: int) -> FamilyGraph:
    """Recursive triangulane building block; the hub is the landmark y_k."""
    graph, y = _triangulane_aux(k)
    return FamilyGraph(graph, {f"y_{k}": y})


def gen_triangulane(n: int) -> FamilyGraph:
    """Circuit of three depth-n building blocks over a triangle of hubs."""
    sub, y = _triangulane_aux(n)
    comp = build_circuit(tuple(MonomerHandle(sub, y) for _ in range(3)))
    landmarks = {"x_0": comp.vertex_map[(0, y)],
                 "u": comp.vertex_map[(1, y)],
                 "v": comp.vertex_map[(2, y)]}
    return FamilyGraph(comp.graph, landmarks)


def generate(spec: FamilySpec) -> FamilyGraph:
    fam = spec.family
    if fam in CHAIN_SHAPE:
        sides, spacing = CHAIN_SHAPE[fam]
        return _polygon_chain(spec.n, sides, spacing)
    if fam == "clique-flower":
        return gen_clique_flower(spec.m, spec.inner)
    if fam == "triangulane-aux":
        return gen_triangulane_aux(spec.n)
    return gen_triangulane(spec.n)


def family_counts(spec: FamilySpec) -> tuple[int, int]:
    """Closed-form (vertices, edges) for a family instance."""
    fam, n = spec.family, spec.n
    if fam in CHAIN_SHAPE:
        sides, _ = CHAIN_SHAPE[fam]
        return ((sides - 1) * n + 1, sides * n)
    if fam == "clique-flower":
        m, inner = spec.m, spec.inner
        return (m * inner, m * (m - 1) // 2 + m * inner * (inner - 1) // 2)
    if fam == "triangulane-aux":
        return (2 ** (n + 1) - 1, 3 * 2 ** n - 3)
    return (3 * (2 ** (n + 1) - 1), 9 * 2 ** n - 6)
