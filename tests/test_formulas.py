import random

import pytest
from mostar import (EDGE_MOSTAR, FAMILY_NAMES, INDEX_NAMES, MOSTAR,
                    BoundsReport, FamilySpec, MismatchedConstruction,
                    MonomerHandle, PolymerSpec, UnsupportedCombination,
                    check_bounds, complete_graph, compose, cycle_graph,
                    formula_value, has_formula, index_report, path_graph)
from mostar import formulas
from mostar.formulas import _MonomerStats as MonomerStats

from conftest import formula_and_oracle, random_connected_graph

K1 = complete_graph(1)
K2 = complete_graph(2)
K3 = complete_graph(3)

S_K1 = MonomerStats(1, 0, 0, 0)
S_K2 = MonomerStats(2, 1, 0, 0)
S_K3 = MonomerStats(3, 3, 0, 0)


class TestFormulaValues:
    def test_triangular_spot_values(self):
        assert formula_value(FamilySpec("triangular", n=4), MOSTAR) == 40
        assert formula_value(FamilySpec("triangular", n=5), MOSTAR) == 64
        assert formula_value(FamilySpec("triangular", n=2), EDGE_MOSTAR) == 12

    def test_hexagonal_mostar_at_n3(self):
        assert formula_value(FamilySpec("hex-para", n=3), MOSTAR) == 120
        assert formula_value(FamilySpec("hex-meta", n=3), MOSTAR) == 140
        assert formula_value(FamilySpec("hex-ortho", n=3), MOSTAR) == 160

    def test_clique_flower(self):
        assert formula_value(FamilySpec("clique-flower", m=5, inner=4), MOSTAR) == 240
        assert formula_value(FamilySpec("clique-flower", m=5, inner=4), EDGE_MOSTAR) == 510
        assert formula_value(FamilySpec("clique-flower", m=1, inner=7), MOSTAR) == 0

    def test_clique_flower_degenerate_zero(self):
        for k in range(1, 7):
            for index in (MOSTAR, EDGE_MOSTAR):
                assert formula_value(FamilySpec("clique-flower", m=1, inner=k), index) == 0
                assert formula_value(FamilySpec("clique-flower", m=k, inner=1), index) == 0

    def test_triangulane(self):
        assert formula_value(FamilySpec("triangulane", n=1), MOSTAR) == 36
        assert formula_value(FamilySpec("triangulane", n=2), MOSTAR) == 288

    def test_unsupported(self):
        with pytest.raises(UnsupportedCombination):
            formula_value(FamilySpec("triangulane", n=2), EDGE_MOSTAR)
        with pytest.raises(UnsupportedCombination):
            formula_value(FamilySpec("triangulane-aux", n=2), MOSTAR)
        with pytest.raises(UnsupportedCombination):
            formula_value(FamilySpec("triangular", n=2), "wiener")


@pytest.mark.parametrize("index", INDEX_NAMES)
@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_has_formula_agrees_with_formula_value(family, index):
    spec = FamilySpec(family, n=3, m=3, inner=2)
    try:
        formula_value(spec, index)
    except UnsupportedCombination:
        evaluated = False
    else:
        evaluated = True
    assert has_formula(family, index) == evaluated


class TestFormulaAgainstOracle:
    @pytest.mark.parametrize("family", [
        "triangular", "square-para", "square-ortho",
        "hex-para", "hex-meta", "hex-ortho"])
    def test_chain_mostar_agrees(self, family):
        for n in range(1, 10):
            formula, oracle = formula_and_oracle(FamilySpec(family, n=n), MOSTAR)
            assert formula == oracle, (family, n, formula, oracle)

    @pytest.mark.parametrize("family", [
        "triangular", "square-para", "square-ortho", "hex-para"])
    def test_chain_edge_mostar_agrees(self, family):
        for n in range(1, 10):
            formula, oracle = formula_and_oracle(FamilySpec(family, n=n), EDGE_MOSTAR)
            assert formula == oracle, (family, n, formula, oracle)

    @pytest.mark.parametrize("family,true_form", [
        # oracle-derived closed forms; the stated ones replicate hex-para's
        # 72k^2 family and disagree from n=3 on (see README)
        ("hex-meta", ((96, -24), (96, 72))),
        ("hex-ortho", ((120, -48), (120, 72))),
    ])
    def test_known_hex_edge_disagreement(self, family, true_form):
        (a_even, b_even), (a_odd, b_odd) = true_form
        for n in range(1, 8):
            formula, oracle = formula_and_oracle(FamilySpec(family, n=n), EDGE_MOSTAR)
            k, odd = divmod(n, 2)
            expected = (a_odd * k * k + b_odd * k) if odd else (a_even * k * k + b_even * k)
            assert oracle == expected, (family, n, formula, oracle)
            assert (formula == oracle) == (n <= 2), (family, n, formula, oracle)

    def test_clique_flower_grid(self):
        for m in range(1, 5):
            for inner in range(1, 5):
                for index in (MOSTAR, EDGE_MOSTAR):
                    formula, oracle = formula_and_oracle(
                        FamilySpec("clique-flower", m=m, inner=inner), index)
                    assert formula == oracle, (m, inner, index, formula, oracle)

    def test_triangulane_sweep(self):
        for n in range(1, 5):
            formula, oracle = formula_and_oracle(FamilySpec("triangulane", n=n), MOSTAR)
            assert formula == oracle, (n, formula, oracle)

    def test_parity_branches_pin_each_other(self):
        # evaluating the wrong branch at the same k must disagree with the
        # oracle somewhere in 2..9 for every family with distinct branches
        for family in ("triangular", "square-ortho", "hex-meta", "hex-ortho"):
            swapped_hits = 0
            for n in range(2, 10):
                k, odd = divmod(n, 2)
                swapped = FamilySpec(family, n=2 * k + (0 if odd else 1))
                value = formula_value(swapped, MOSTAR)
                _, oracle = formula_and_oracle(FamilySpec(family, n=n), MOSTAR)
                if value != oracle:
                    swapped_hits += 1
            assert swapped_hits > 0, family


class TestMonomerStats:
    def test_k3(self):
        r = index_report(K3)
        assert (K3.n, K3.m, r.mostar, r.edge_mostar) == (3, 3, 0, 0)

    def test_t2(self):
        g = compose(PolymerSpec("chain", (MonomerHandle(K3, 0, 1),) * 2)).graph
        r = index_report(g)
        assert (g.n, g.m, r.mostar, r.edge_mostar) == (5, 6, 8, 12)


class TestUpperBounds:
    def test_link_two_k2_is_tight(self):
        assert formulas._upper_bound_link([S_K2, S_K2], MOSTAR) == 4

    def test_link_single_monomer_collapses(self):
        s = MonomerStats(5, 7, 9, 11)
        assert formulas._upper_bound_link([s], MOSTAR) == 9
        assert formulas._upper_bound_link([s], EDGE_MOSTAR) == 11

    def test_link_two_k3(self):
        assert formulas._upper_bound_link([S_K3, S_K3], MOSTAR) == 18

    def test_chain(self):
        assert formulas._upper_bound_chain([S_K3, S_K3], MOSTAR) == 12
        assert formulas._upper_bound_chain([S_K3], MOSTAR) == 0
        assert formulas._upper_bound_chain([S_K3, S_K3, S_K3], MOSTAR) == 36

    def test_bouquet(self):
        assert formulas._upper_bound_bouquet([S_K2, S_K2, S_K2], MOSTAR) == 6
        assert formulas._upper_bound_bouquet([S_K3], MOSTAR) == 0
        assert formulas._upper_bound_bouquet([S_K3, S_K3, S_K3], MOSTAR) == 36

    def test_circuit(self):
        assert formulas._upper_bound_circuit([S_K1, S_K1, S_K1], MOSTAR) == 6
        assert formulas._upper_bound_circuit([S_K3, S_K3, S_K3], MOSTAR) == 72

    def test_circuit_even_identical_monomers_add_nothing(self):
        stats = [S_K3] * 4
        base = formulas._superadditive_bound(stats, MOSTAR) + sum(
            s.edges * (12 - s.vertices) for s in stats)
        assert formulas._upper_bound_circuit(stats, MOSTAR) == base


class TestLowerBounds:
    def test_link2(self):
        assert formulas._lower_bound_link2([S_K2, S_K2], MOSTAR) == 0
        assert formulas._lower_bound_link2([S_K2, S_K3], MOSTAR) == 1
        s = MonomerStats(6, 9, 4, 7)
        assert formulas._lower_bound_link2([s, s], MOSTAR) == 8

    def test_link_chain(self):
        assert formulas._lower_bound_link_chain([S_K2, S_K2], MOSTAR) == 0
        assert formulas._lower_bound_link_chain([S_K2, S_K2, S_K2], MOSTAR) == 2

    def test_link_chain_identical_monomers_algebra(self):
        v, count = 4, 5
        s = MonomerStats(v, 5, 0, 0)
        expected = sum(abs((count - t) * v - v) for t in range(1, count))
        assert formulas._lower_bound_link_chain([s] * count, MOSTAR) == expected


class TestCheckBound:
    def test_link_upper_holds(self):
        spec = PolymerSpec("link", (MonomerHandle(K3, 0, 1),) * 2)
        report = check_bounds(spec, "link-upper")[MOSTAR]
        assert report == BoundsReport(12, 18, "upper", False, True)
        assert report.slack == 6

    def test_superadditive_chain(self):
        spec = PolymerSpec("chain", (MonomerHandle(K3, 0, 1),) * 2)
        report = check_bounds(spec, "superadditive")[MOSTAR]
        assert (report.actual, report.bound, report.holds) == (8, 0, True)
        assert report.strict

    def test_circuit_upper(self):
        spec = PolymerSpec("circuit", (MonomerHandle(K1, 0),) * 3)
        report = check_bounds(spec, "circuit-upper")[MOSTAR]
        assert (report.actual, report.bound, report.holds) == (0, 6, True)

    def test_mismatches(self, monkeypatch):
        """A mismatch raises before any graph is composed or evaluated."""
        def fail(*args):
            raise AssertionError("a mismatched bound composed or evaluated a graph")

        for name in ("compose", "index_reports"):
            monkeypatch.setattr(formulas, name, fail)
        chain_spec = PolymerSpec("chain", (MonomerHandle(K3, 0, 1),) * 2)
        with pytest.raises(MismatchedConstruction):
            check_bounds(chain_spec, "link-upper")
        link3 = PolymerSpec("link", (MonomerHandle(K2, 0, 1),) * 3)
        with pytest.raises(MismatchedConstruction):
            check_bounds(link3, "link2-lower")
        with pytest.raises(MismatchedConstruction):
            check_bounds(link3, "nonsense")

    def test_both_indices_are_reported(self):
        spec = PolymerSpec("chain", (MonomerHandle(K3, 0, 1),) * 2)
        reports = check_bounds(spec, "superadditive")
        assert list(reports) == [MOSTAR, EDGE_MOSTAR]
        report = index_report(compose(spec).graph)
        assert (reports[MOSTAR].actual, reports[EDGE_MOSTAR].actual) == (
            report.mostar, report.edge_mostar)


def _random_handles(rng, count, kind):
    out = []
    for _ in range(count):
        g = random_connected_graph(rng, rng.randrange(3, 9))
        x = rng.randrange(g.n)
        y = rng.randrange(g.n)
        while kind == "chain" and y == x:
            y = rng.randrange(g.n)
        out.append(MonomerHandle(g, x, y))
    return tuple(out)


def applicable_bounds(kind, monomer_count):
    kinds = {"link": ["link-upper", "polymer-lower"],
             "chain": ["chain-upper"],
             "bouquet": ["bouquet-upper"],
             "circuit": ["circuit-upper"]}[kind][:]
    kinds.append("superadditive")
    if kind == "link" and monomer_count == 2:
        kinds.append("link2-lower")
    return kinds


def test_random_compositions_respect_all_bounds():
    rng = random.Random(1234)
    for _ in range(50):
        kind = rng.choice(["link", "chain", "bouquet", "circuit"])
        count = rng.randrange(3 if kind == "circuit" else 2, 7)
        spec = PolymerSpec(kind, _random_handles(rng, count, kind))
        for which in applicable_bounds(kind, count):
            reports = check_bounds(spec, which)
            for index in (MOSTAR, EDGE_MOSTAR):
                report = reports[index]
                assert report.holds, (kind, which, index, report)


def test_superadditivity_is_strict_on_compositions_with_edges():
    # monomers down to 2 vertices; only edgeless K_1 monomers are excluded
    rng = random.Random(99)
    for _ in range(30):
        kind = rng.choice(["link", "chain", "bouquet", "circuit"])
        count = rng.randrange(3 if kind == "circuit" else 2, 6)
        handles = []
        for _ in range(count):
            g = random_connected_graph(rng, rng.randrange(2, 9))
            x = rng.randrange(g.n)
            y = rng.randrange(g.n)
            while kind == "chain" and y == x:
                y = rng.randrange(g.n)
            handles.append(MonomerHandle(g, x, y))
        spec = PolymerSpec(kind, tuple(handles))
        composite = compose(spec).graph
        total = sum(index_report(h.graph).mostar for h in spec.monomers)
        assert index_report(composite).mostar > total
        total_e = sum(index_report(h.graph).edge_mostar for h in spec.monomers)
        assert index_report(composite).edge_mostar > total_e


@pytest.mark.parametrize("kind", ["chain", "bouquet"])
def test_k1_monomer_meets_the_strict_superadditive_bound(kind):
    """A chain or bouquet of K1 and P3 is P3 itself, so the strict bound
    Mo(G) > Mo(K1) + Mo(P3) reads 2 > 2 and is reported VIOLATED for both
    indices: the K1 finding of README's "Composition bounds with a K1
    monomer"."""
    spec = PolymerSpec(kind, (MonomerHandle(K1, 0), MonomerHandle(path_graph(3), 0)))
    for report in check_bounds(spec, "superadditive").values():
        assert (report.actual, report.bound, report.strict, report.holds) == (2, 2, True, False)


def test_k1_monomer_linked_by_a_bridge_keeps_the_bound():
    spec = PolymerSpec("link", (MonomerHandle(K1, 0), MonomerHandle(path_graph(3), 0)))
    for report in check_bounds(spec, "superadditive").values():
        assert (report.actual, report.bound, report.holds) == (4, 2, True)
