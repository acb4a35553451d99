"""Closed-form index values for the graph families, plus composition bounds.

Chain formulas are quadratic in k with an even/odd split (n = 2k or
n = 2k + 1) and are evaluated exactly as stated, in exact integer
arithmetic.  Bound evaluators work on per-monomer statistics so they can be
unit-tested against hand arithmetic; ``check_bounds`` (which ``bounds``
uses) derives the statistics from real monomers and compares them against
the brute-force indices of the composite, each graph evaluated once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MismatchedConstruction, TooFewMonomers, UnsupportedCombination
from .families import CHAIN_FAMILIES, FamilySpec, generate
from .graphs import Graph
from .indices import EDGE_MOSTAR, MOSTAR, edge_mostar_index, index_report, mostar_index
from .polymer import PolymerSpec

#: (a, b) meaning a*k^2 + b*k, keyed by (family, index, n odd?)
#: The hex-meta and hex-ortho edge rows replicate the hex-para ones; the
#: verify sweep shows they disagree with the exact oracle for n >= 3
#: (see README, "Known formula disagreements").
_CHAIN_FORMS: dict[tuple[str, str, bool], tuple[int, int]] = {
    ("triangular", MOSTAR, False): (12, -4),
    ("triangular", MOSTAR, True): (12, 8),
    ("triangular", EDGE_MOSTAR, False): (18, -6),
    ("triangular", EDGE_MOSTAR, True): (18, 12),
    ("square-para", MOSTAR, False): (24, 0),
    ("square-para", MOSTAR, True): (24, 24),
    ("square-para", EDGE_MOSTAR, False): (32, 0),
    ("square-para", EDGE_MOSTAR, True): (32, 32),
    ("square-ortho", MOSTAR, False): (36, -12),
    ("square-ortho", MOSTAR, True): (36, 24),
    ("square-ortho", EDGE_MOSTAR, False): (48, -16),
    ("square-ortho", EDGE_MOSTAR, True): (48, 32),
    ("hex-para", MOSTAR, False): (60, 0),
    ("hex-para", MOSTAR, True): (60, 60),
    ("hex-para", EDGE_MOSTAR, False): (72, 0),
    ("hex-para", EDGE_MOSTAR, True): (72, 72),
    ("hex-meta", MOSTAR, False): (80, -20),
    ("hex-meta", MOSTAR, True): (80, 60),
    ("hex-meta", EDGE_MOSTAR, False): (72, 0),
    ("hex-meta", EDGE_MOSTAR, True): (72, 72),
    ("hex-ortho", MOSTAR, False): (100, -40),
    ("hex-ortho", MOSTAR, True): (100, 60),
    ("hex-ortho", EDGE_MOSTAR, False): (72, 0),
    ("hex-ortho", EDGE_MOSTAR, True): (72, 72),
}


def _triangulane_mostar(n: int) -> int:
    # literal double sum, not algebraically simplified
    total = 6 * (2 ** (n + 2) - 2 ** n)
    for i in range(2, n + 1):
        inner = sum(2 ** (n - t) for t in range(0, i - 1))
        total += 3 * 2 ** i * ((2 ** (n + 2) + inner) - 2 ** (n - i + 1))
    return total


def formula_value(spec: FamilySpec, index: str) -> int:
    """Closed-form value of the requested index for a family instance."""
    if index not in (MOSTAR, EDGE_MOSTAR):
        raise UnsupportedCombination(f"no closed forms for index {index!r}")
    fam = spec.family
    if fam in CHAIN_FAMILIES:
        k, odd = divmod(spec.n, 2)
        a, b = _CHAIN_FORMS[(fam, index, bool(odd))]
        return a * k * k + b * k
    if fam == "clique-flower":
        m, n = spec.m, spec.inner
        if index == MOSTAR:
            return m * n * (m - 1) * (n - 1)
        return m * (n - 1) * (m - 1) * (n * n - n + m) // 2
    if fam == "triangulane" and index == MOSTAR:
        return _triangulane_mostar(spec.n)
    raise UnsupportedCombination(f"no closed form for ({fam}, {index})")


def has_formula(family: str, index: str) -> bool:
    return (family in CHAIN_FAMILIES or family == "clique-flower"
            or (family == "triangulane" and index == MOSTAR))


@dataclass(frozen=True)
class FormulaCheck:
    spec: FamilySpec
    index: str
    formula_value: int
    oracle_value: int

    @property
    def agrees(self) -> bool:
        return self.formula_value == self.oracle_value


def check_family(spec: FamilySpec, index: str) -> FormulaCheck:
    """Evaluate the closed form and the brute-force oracle for one instance."""
    graph = generate(spec).graph
    oracle = mostar_index(graph) if index == MOSTAR else edge_mostar_index(graph)
    return FormulaCheck(spec, index, formula_value(spec, index), oracle)


@dataclass(frozen=True)
class MonomerStats:
    vertices: int
    edges: int
    mostar: int
    edge_mostar: int


def monomer_stats(g: Graph) -> MonomerStats:
    report = index_report(g)
    return MonomerStats(g.n, g.m, report.mostar, report.edge_mostar)


def _split(stats, index):
    """(per-monomer sizes, per-monomer index values) for the chosen index."""
    if index == MOSTAR:
        return [s.vertices for s in stats], [s.mostar for s in stats]
    if index == EDGE_MOSTAR:
        return [s.edges for s in stats], [s.edge_mostar for s in stats]
    raise UnsupportedCombination(f"bounds are defined for mostar and edge_mostar, not {index!r}")


def _composite_size(stats, index, kind) -> int:
    """|V(G)| or |E(G)| of the composite, per construction kind."""
    sizes, _ = _split(stats, index)
    k = len(stats)
    if index == MOSTAR:
        merged = {"link": 0, "circuit": 0, "chain": k - 1, "bouquet": k - 1}
        return sum(sizes) - merged[kind]
    added = {"link": k - 1, "circuit": k, "chain": 0, "bouquet": 0}
    return sum(sizes) + added[kind]


def superadditive_bound(stats: list[MonomerStats], index: str) -> int:
    """Sum of monomer index values; the composite strictly exceeds it."""
    _, values = _split(stats, index)
    return sum(values)


def _upper_base(stats, index, kind) -> int:
    """Sum of monomer values plus each monomer's edges times the rest of the composite.

    The four upper bounds share this term.
    """
    sizes, values = _split(stats, index)
    total = _composite_size(stats, index, kind)
    return sum(values) + sum(st.edges * (total - s) for st, s in zip(stats, sizes))


def upper_bound_link(stats: list[MonomerStats], index: str) -> int:
    sizes, _ = _split(stats, index)
    prefix_term = sum(
        abs(sum(sizes[:i]) - sum(sizes[i:])) for i in range(1, len(stats)))
    return _upper_base(stats, index, "link") + prefix_term


def upper_bound_chain(stats: list[MonomerStats], index: str) -> int:
    return _upper_base(stats, index, "chain")


def upper_bound_bouquet(stats: list[MonomerStats], index: str) -> int:
    return _upper_base(stats, index, "bouquet")


def upper_bound_circuit(stats: list[MonomerStats], index: str) -> int:
    n = len(stats)
    if n < 3:
        raise TooFewMonomers(f"circuit bound needs at least 3 monomers, got {n}")
    sizes, _ = _split(stats, index)
    if n % 2 == 0:
        t = n // 2
        extra = n * sum(abs(sizes[i] - sizes[t + i]) for i in range(t))
    else:
        extra = (n - 1) * _composite_size(stats, index, "circuit")
    return _upper_base(stats, index, "circuit") + extra


def lower_bound_link2(s1: MonomerStats, s2: MonomerStats, index: str) -> int:
    """Strict lower bound for the link of exactly two monomers."""
    sizes, values = _split([s1, s2], index)
    return values[0] + values[1] + abs(sizes[0] - sizes[1])


def lower_bound_link_chain(stats: list[MonomerStats], index: str) -> int:
    """Strict lower bound for a link of n monomers.

    The t-th term is |remaining size after the first t monomers - size of
    monomer t|, where the remaining size is measured in the composite (for
    edges it therefore still counts the bridge edges).
    """
    sizes, values = _split(stats, index)
    total = _composite_size(stats, index, "link")
    n = len(stats)
    term = sum(abs((total - sum(sizes[:t])) - sizes[t - 1]) for t in range(1, n))
    return sum(values) + term


@dataclass(frozen=True)
class BoundsReport:
    actual: int
    bound: int
    kind: str  # "upper" or "lower"
    strict: bool
    holds: bool

    @property
    def slack(self) -> int:
        return self.bound - self.actual if self.kind == "upper" else self.actual - self.bound


BOUND_KINDS = ("link-upper", "chain-upper", "bouquet-upper", "circuit-upper",
               "link2-lower", "polymer-lower", "superadditive")

_BOUNDS = {
    "link-upper": upper_bound_link,
    "chain-upper": upper_bound_chain,
    "bouquet-upper": upper_bound_bouquet,
    "circuit-upper": upper_bound_circuit,
    "link2-lower": lambda stats, index: lower_bound_link2(stats[0], stats[1], index),
    "polymer-lower": lower_bound_link_chain,
    "superadditive": superadditive_bound,
}

_COMPATIBLE = {
    "link-upper": {"link"},
    "chain-upper": {"chain"},
    "bouquet-upper": {"bouquet"},
    "circuit-upper": {"circuit"},
    "link2-lower": {"link"},
    "polymer-lower": {"link"},
    "superadditive": {"link", "chain", "bouquet", "circuit", "tree"},
}


def check_bounds(composite: Graph, spec: PolymerSpec, which: str,
                 indices: tuple[str, ...]) -> dict[str, BoundsReport]:
    """Compare the brute-force indices of a composite against one bound.

    Each monomer and the composite are evaluated once, whatever the number
    of indices; the result maps each requested index to its report.
    """
    for index in indices:
        if index not in (MOSTAR, EDGE_MOSTAR):
            raise UnsupportedCombination(
                f"bounds are defined for mostar and edge_mostar, not {index!r}")
    if which not in _COMPATIBLE:
        raise MismatchedConstruction(f"unknown bound {which!r}")
    if spec.kind not in _COMPATIBLE[which]:
        raise MismatchedConstruction(
            f"bound {which!r} does not apply to a {spec.kind!r} composition")
    if which == "link2-lower" and len(spec.monomers) != 2:
        raise MismatchedConstruction(
            f"link2-lower needs exactly 2 monomers, got {len(spec.monomers)}")
    stats = [monomer_stats(h.graph) for h in spec.monomers]
    report = index_report(composite)
    actuals = {MOSTAR: report.mostar, EDGE_MOSTAR: report.edge_mostar}
    reports = {}
    for index in indices:
        actual, bound = actuals[index], _BOUNDS[which](stats, index)
        if which.endswith("upper"):
            reports[index] = BoundsReport(actual, bound, "upper", False, actual <= bound)
        else:
            reports[index] = BoundsReport(actual, bound, "lower", True, actual > bound)
    return reports


def check_bound(composite: Graph, spec: PolymerSpec, which: str, index: str) -> BoundsReport:
    """Compare the brute-force index of a composite against one bound."""
    return check_bounds(composite, spec, which, (index,))[index]
