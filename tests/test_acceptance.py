"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
Criterion 2 is expected to fail: the recorded closed forms for the
edge-Mostar index of the hex-meta and hex-ortho chains disagree with the
exact oracle for every n >= 3 (they replicate the hex-para forms, which
coincide with the other two spacings only at n <= 2).  The sweep reports
those cells and exits nonzero; see README, "Known formula disagreements".
"""

import json
import random
import time
from contextlib import contextmanager

from mostar import (CHAIN_FAMILIES, EDGE_MOSTAR, MOSTAR, FamilySpec,
                    MonomerHandle, PolymerSpec, build_bouquet, build_chain,
                    build_circuit, build_link, check_bound, check_family,
                    complete_graph, compose, cycle_graph, edge_mostar_index,
                    edge_orientation, family_counts, gen_triangulane,
                    generate, index_report, mostar_index, path_graph,
                    vertex_orientation, wiener_index)
from mostar.cli import main

from conftest import naive_wiener, permute_graph, random_connected_graph


@contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"\nACCEPTANCE {name}: PASS ({time.perf_counter() - start:.2f}s)")


def t2_graph():
    return build_chain([MonomerHandle(complete_graph(3), 0, 1)] * 2).graph


def test_criterion_1_hand_derived_anchors():
    with criterion("1 hand-derived oracle anchors"):
        start = time.perf_counter()
        t2 = t2_graph()
        assert mostar_index(t2) == 8
        assert edge_mostar_index(t2) == 12
        # hand enumeration and the naive oracle both give 14 for W(T_2):
        # 6 pairs at distance 1 plus 4 pairs at distance 2
        assert naive_wiener(t2) == 14
        assert wiener_index(t2) == 14
        assert mostar_index(path_graph(4)) == 4
        star = build_bouquet([MonomerHandle(complete_graph(2), 0)] * 3).graph
        assert mostar_index(star) == 6
        for k in range(3, 11):
            assert mostar_index(cycle_graph(k)) == 0
        for n in range(2, 9):
            assert edge_mostar_index(complete_graph(n)) == 0
        assert mostar_index(gen_triangulane(1).graph) == 36
        assert time.perf_counter() - start < 1.0


def test_criterion_2_formula_vs_oracle_sweep():
    with criterion("2 formula-vs-oracle sweep"):
        start = time.perf_counter()
        failures = []

        chains = ",".join(CHAIN_FAMILIES)
        if main(["verify", "--families", chains, "--from", "1", "--to", "12"]) != 0:
            rows = []
            for family in CHAIN_FAMILIES:
                for n in range(1, 13):
                    for index in (MOSTAR, EDGE_MOSTAR):
                        check = check_family(FamilySpec(family, n=n), index)
                        if not check.agrees:
                            rows.append({
                                "family": family, "n": n, "index": index,
                                "formula": check.formula_value,
                                "oracle": check.oracle_value})
            failures.append("chain sweep disagreements: " + json.dumps(rows))
        if main(["verify", "--families", "clique-flower",
                 "--m-range", "1..5", "--inner-range", "1..5"]) != 0:
            failures.append("clique-flower sweep exited nonzero")
        if main(["verify", "--families", "triangulane",
                 "--from", "1", "--to", "5"]) != 0:
            failures.append("triangulane sweep exited nonzero")

        spots = [
            (FamilySpec("triangular", n=4), MOSTAR, 40),
            (FamilySpec("triangular", n=5), MOSTAR, 64),
            (FamilySpec("square-para", n=2), MOSTAR, 24),
            (FamilySpec("hex-para", n=3), MOSTAR, 120),
            (FamilySpec("hex-meta", n=3), MOSTAR, 140),
            (FamilySpec("hex-ortho", n=3), MOSTAR, 160),
            (FamilySpec("clique-flower", m=5, inner=4), MOSTAR, 240),
            (FamilySpec("clique-flower", m=5, inner=4), EDGE_MOSTAR, 510),
        ]
        for spec, index, expected in spots:
            check = check_family(spec, index)
            if not (check.formula_value == check.oracle_value == expected):
                failures.append(f"spot value {spec} {index}: {check}")

        assert time.perf_counter() - start < 60.0
        assert not failures, (
            "formula-vs-oracle sweep failed; the hex-meta/hex-ortho "
            "edge-mostar closed forms are known to disagree with the exact "
            "oracle for n >= 3 (see README, 'Known formula disagreements')\n"
            + "\n".join(failures))


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


def test_criterion_3_bound_property_suite():
    with criterion("3 bound property suite"):
        start = time.perf_counter()
        rng = random.Random(20250809)
        for trial in range(200):
            kind = rng.choice(["link", "chain", "bouquet", "circuit"])
            count = rng.randrange(3 if kind == "circuit" else 2, 7)
            spec = PolymerSpec(kind, _random_handles(rng, count, kind))
            composite = compose(spec).graph
            which_list = {"link": ["link-upper", "polymer-lower"],
                          "chain": ["chain-upper"],
                          "bouquet": ["bouquet-upper"],
                          "circuit": ["circuit-upper"]}[kind] + ["superadditive"]
            if kind == "link" and count == 2:
                which_list.append("link2-lower")
            for which in which_list:
                for index in (MOSTAR, EDGE_MOSTAR):
                    report = check_bound(composite, spec, which, index)
                    assert report.holds, (trial, kind, which, index, report)

        # tight cases: the upper bound is met with equality
        link22 = PolymerSpec("link", (MonomerHandle(complete_graph(2), 0, 1),) * 2)
        report = check_bound(compose(link22).graph, link22, "link-upper", MOSTAR)
        assert (report.actual, report.bound) == (4, 4) and report.slack == 0
        star = PolymerSpec("bouquet", (MonomerHandle(complete_graph(2), 0),) * 3)
        report = check_bound(compose(star).graph, star, "bouquet-upper", MOSTAR)
        assert (report.actual, report.bound) == (6, 6) and report.slack == 0
        assert time.perf_counter() - start < 60.0


def test_criterion_4_structural_invariants():
    with criterion("4 structural invariants"):
        rng = random.Random(424242)

        # count formulas: families with n up to 50 (size-bounded for the
        # exponential recursive families)
        for family in CHAIN_FAMILIES:
            for n in range(1, 51):
                spec = FamilySpec(family, n=n)
                fam = generate(spec)
                assert (fam.graph.n, fam.graph.m) == family_counts(spec)
        for m in range(1, 7):
            for inner in range(1, 7):
                spec = FamilySpec("clique-flower", m=m, inner=inner)
                fam = generate(spec)
                assert (fam.graph.n, fam.graph.m) == family_counts(spec)
        for depth in range(1, 9):
            spec = FamilySpec("triangulane-aux", n=depth)
            fam = generate(spec)
            assert (fam.graph.n, fam.graph.m) == family_counts(spec)
        for depth in range(1, 7):
            spec = FamilySpec("triangulane", n=depth)
            fam = generate(spec)
            assert (fam.graph.n, fam.graph.m) == family_counts(spec)

        # count formulas for the four constructions on random monomers
        for _ in range(30):
            kind = rng.choice(["link", "chain", "bouquet", "circuit"])
            count = rng.randrange(3 if kind == "circuit" else 1, 7)
            handles = _random_handles(rng, count, kind)
            total_v = sum(h.graph.n for h in handles)
            total_e = sum(h.graph.m for h in handles)
            build = {"link": build_link, "chain": build_chain,
                     "bouquet": build_bouquet, "circuit": build_circuit}[kind]
            graph = build(handles).graph
            expected = {
                "link": (total_v, total_e + count - 1),
                "chain": (total_v - (count - 1), total_e),
                "bouquet": (total_v - (count - 1), total_e),
                "circuit": (total_v, total_e + count),
            }[kind]
            assert (graph.n, graph.m) == expected

        # permutation invariance of all three indices on 100 random graphs
        for _ in range(100):
            g = random_connected_graph(rng, rng.randrange(2, 11))
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = permute_graph(g, perm)
            assert mostar_index(h) == mostar_index(g)
            assert edge_mostar_index(h) == edge_mostar_index(g)
            assert wiener_index(h) == wiener_index(g)

        # per-edge triples sum to |V| and |E| on every tested graph
        tested = [t2_graph(), cycle_graph(8), complete_graph(6), path_graph(7),
                  generate(FamilySpec("hex-meta", n=3)).graph,
                  generate(FamilySpec("clique-flower", m=3, inner=3)).graph]
        tested += [random_connected_graph(rng, rng.randrange(2, 11))
                   for _ in range(20)]
        for g in tested:
            for e in g.edges:
                c = vertex_orientation(g, e)
                assert c.n_u + c.n_v + c.n_0 == g.n
                ec = edge_orientation(g, e)
                assert ec.m_u + ec.m_v + ec.m_0 == g.m


def test_criterion_5_performance_desk_scale():
    with criterion("5 desk-scale performance"):
        fam = generate(FamilySpec("hex-para", n=400))
        assert (fam.graph.n, fam.graph.m) == (2001, 2400)
        start = time.perf_counter()
        report = index_report(fam.graph)
        elapsed = time.perf_counter() - start
        assert report.mostar == 60 * 200 * 200
        assert report.edge_mostar == 72 * 200 * 200
        assert elapsed < 5.0, f"index_report took {elapsed:.2f}s"


def test_criterion_6_cross_family_coincidence():
    with criterion("6 cross-family coincidence at n=2"):
        hex_reports = [index_report(generate(FamilySpec(f, n=2)).graph)
                       for f in ("hex-para", "hex-meta", "hex-ortho")]
        assert hex_reports[0] == hex_reports[1] == hex_reports[2]
        assert hex_reports[0].mostar == 60
        assert hex_reports[0].edge_mostar == 72

        square_reports = [index_report(generate(FamilySpec(f, n=2)).graph)
                          for f in ("square-para", "square-ortho")]
        assert square_reports[0] == square_reports[1]
        assert square_reports[0].mostar == 24
