"""Deterministic generators for the chemical graph families.

Six polygon chains (triangles, squares, hexagons, each with its cut-vertex
spacing), the clique flower Q(m, n), and the recursive triangulane.  Each
instance is the composite of one polymer, which ``_polymer`` spells out:
``generate`` composes it and names its landmark vertices, and
``cli.cmd_verify`` composes many at once (``polymer._compose_all``).
Identical parameters always produce a byte-identical canonical edge list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .errors import GraphError, quote
from .graphs import Graph, _is_int, _typed, complete_graph, cycle_graph
from .polymer import MonomerHandle, PolymerSpec, compose

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
            raise GraphError(f"unknown family {quote(self.family)}")
        if not all(map(_is_int, (self.n, self.m, self.inner))):
            raise GraphError("family parameters must be integers")
        for name in ("n", "m", "inner"):  # stored as Python ints, so no count wraps
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.n < 1 or self.m < 1 or self.inner < 1:
            raise GraphError("family parameters must be >= 1")


@dataclass(frozen=True)
class FamilyGraph:
    """A family instance and its landmark vertices, by name."""

    graph: Graph
    landmarks: dict[str, int] = field(compare=False, repr=False)


@cache
def _polygon(sides: int, spacing: int) -> MonomerHandle:
    """The chain monomer of one shape, built and checked once: graphs and
    handles are immutable, so every copy in every chain shares it."""
    return MonomerHandle(cycle_graph(sides), 0, spacing)


def _hub(n: int) -> MonomerHandle:
    """The depth-n triangulane building block at its hub vertex y_n."""
    if n == 1:
        return MonomerHandle(cycle_graph(3), 0)
    comp = compose(_polymer(FamilySpec("triangulane-aux", n=n)))
    return MonomerHandle(comp.graph, comp.vertex(2, 0))


def _polymer(spec: FamilySpec) -> PolymerSpec:
    """The polymer of the family instance ``spec``: a chain of n polygons, a
    clique flower's K_m with every vertex merged into its own K_inner, a
    triangulane's circuit of three depth-n building blocks over a triangle
    of hubs, or the depth-n building block: a circuit of two of depth n - 1
    and a K1 whose vertex is the new hub, the lone triangle at depth 1."""
    fam, n = spec.family, spec.n
    if fam in CHAIN_SHAPE:
        return PolymerSpec("chain", (_polygon(*CHAIN_SHAPE[fam]),) * n)
    if fam == "clique-flower":
        m, petal = spec.m, MonomerHandle(complete_graph(spec.inner), 0)
        return PolymerSpec("tree", (MonomerHandle(complete_graph(m), 0),) + (petal,) * m,
                           tuple((0, i, i + 1, 0) for i in range(m)))
    if fam == "triangulane":
        return PolymerSpec("circuit", (_hub(n),) * 3)
    if n == 1:
        return PolymerSpec("chain", (_hub(1),))
    sub = _hub(n - 1)
    return PolymerSpec("circuit", (sub, sub, MonomerHandle(complete_graph(1), 0)))


def generate(spec: FamilySpec) -> FamilyGraph:
    """The family instance ``spec`` selects, the composite of its polymer
    (``_polymer``), with its landmark vertices."""
    fam, n = _typed(spec, FamilySpec, "spec").family, spec.n
    polymer = _polymer(spec)
    comp = compose(polymer)
    if fam in CHAIN_SHAPE:
        entries = comp.starts[:-1]
        xs = comp.ids[entries].tolist()
        ys = comp.ids[entries + CHAIN_SHAPE[fam][1]].tolist()
        return FamilyGraph(comp.graph, {name: v for i, (x, y) in enumerate(zip(xs, ys), 1)
                                        for name, v in ((f"x_{i}", x), (f"y_{i}", y))})
    if fam == "clique-flower":
        return FamilyGraph(comp.graph, {f"u_{i + 1}": comp.vertex(0, i) for i in range(spec.m)})
    if fam == "triangulane-aux":
        return FamilyGraph(comp.graph, {f"y_{n}": comp.vertex(2, 0) if n > 1 else 0})
    y = polymer.monomers[0].x
    return FamilyGraph(comp.graph, {"x_0": comp.vertex(0, y), "u": comp.vertex(1, y),
                                    "v": comp.vertex(2, y)})


def family_counts(spec: FamilySpec) -> tuple[int, int]:
    """Closed-form (vertices, edges) for a family instance."""
    fam, n = _typed(spec, FamilySpec, "spec").family, spec.n
    if fam in CHAIN_SHAPE:
        sides, _ = CHAIN_SHAPE[fam]
        return ((sides - 1) * n + 1, sides * n)
    if fam == "clique-flower":
        m, inner = spec.m, spec.inner
        return (m * inner, m * (m - 1) // 2 + m * inner * (inner - 1) // 2)
    if fam == "triangulane-aux":
        return (2 ** (n + 1) - 1, 3 * 2 ** n - 3)
    return (3 * (2 ** (n + 1) - 1), 9 * 2 ** n - 6)
