from collections import Counter

import numpy as np
import pytest
from mostar import families
from mostar import (CHAIN_FAMILIES, FamilySpec, GraphError, MonomerHandle,
                    PolymerSpec, complete_graph, compose, cycle_graph,
                    family_counts, generate, index_report, is_connected)
from mostar.families import CHAIN_SHAPE


class TestCounts:
    def test_chain_families_up_to_50(self):
        for family in CHAIN_FAMILIES:
            for n in (1, 2, 3, 5, 10, 25, 50):
                spec = FamilySpec(family, n=n)
                fam = generate(spec)
                assert (fam.graph.n, fam.graph.m) == family_counts(spec)
                assert is_connected(fam.graph)

    def test_triangular_shape(self):
        assert generate(FamilySpec("triangular", n=1)).graph == cycle_graph(3)
        g2 = generate(FamilySpec("triangular", n=2)).graph
        assert (g2.n, g2.m) == (5, 6)

    def test_square_chains_start_as_c4(self):
        for family in ("square-para", "square-ortho"):
            assert generate(FamilySpec(family, n=1)).graph == cycle_graph(4)

    def test_hex_chains_start_as_c6(self):
        for family in ("hex-para", "hex-meta", "hex-ortho"):
            assert generate(FamilySpec(family, n=1)).graph == cycle_graph(6)

    def test_triangulane_aux(self):
        for k, counts in ((1, (3, 3)), (2, (7, 9)), (3, (15, 21))):
            fam = generate(FamilySpec("triangulane-aux", n=k))
            assert (fam.graph.n, fam.graph.m) == counts
            assert counts == family_counts(FamilySpec("triangulane-aux", n=k))

    def test_triangulane(self):
        for n, nv in ((1, 9), (2, 21), (3, 45)):
            fam = generate(FamilySpec("triangulane", n=n))
            assert fam.graph.n == nv
            assert (fam.graph.n, fam.graph.m) == family_counts(
                FamilySpec("triangulane", n=n))
        assert index_report(generate(FamilySpec("triangulane", n=1)).graph).mostar == 36

    def test_clique_flower_counts(self):
        fam = generate(FamilySpec("clique-flower", m=5, inner=4))
        assert (fam.graph.n, fam.graph.m) == (20, 40)
        for m, inner in ((1, 1), (2, 3), (4, 2)):
            spec = FamilySpec("clique-flower", m=m, inner=inner)
            assert (generate(spec).graph.n, generate(spec).graph.m) == family_counts(spec)


class TestCliqueFlowerDegenerate:
    def test_single_petal_is_a_clique(self):
        for n in (2, 5, 7):
            fam = generate(FamilySpec("clique-flower", m=1, inner=n))
            assert fam.graph == complete_graph(n)

    def test_trivial_petals_leave_the_hub(self):
        for m in (1, 3, 6):
            fam = generate(FamilySpec("clique-flower", m=m, inner=1))
            assert fam.graph == complete_graph(m)


class TestLandmarks:
    def test_chain_cut_vertices(self):
        for family in CHAIN_FAMILIES:
            fam = generate(FamilySpec(family, n=4))
            for i in range(1, 4):
                assert fam.landmarks[f"y_{i}"] == fam.landmarks[f"x_{i + 1}"]
            for v in fam.landmarks.values():
                assert 0 <= v < fam.graph.n

    def test_triangulane_hubs_form_a_triangle(self):
        fam = generate(FamilySpec("triangulane", n=2))
        hubs = [fam.landmarks[k] for k in ("x_0", "u", "v")]
        assert len(set(hubs)) == 3
        for i in range(3):
            assert fam.graph.has_edge(hubs[i], hubs[(i + 1) % 3])

    def test_aux_hub_named_by_depth(self):
        fam = generate(FamilySpec("triangulane-aux", n=3))
        assert "y_3" in fam.landmarks


class TestCactusStructure:
    def test_cycle_space_dimension_counts_polygons(self):
        for family in CHAIN_FAMILIES:
            for n in (1, 3, 6):
                g = generate(FamilySpec(family, n=n)).graph
                assert g.m - g.n + 1 == n


class TestCrossFamilyCoincidence:
    def test_hex_chains_at_n2(self):
        reports = [index_report(generate(FamilySpec(f, n=2)).graph)
                   for f in ("hex-para", "hex-meta", "hex-ortho")]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].mostar == 60
        assert reports[0].edge_mostar == 72

    def test_square_chains_at_n2(self):
        para = index_report(generate(FamilySpec("square-para", n=2)).graph)
        ortho = index_report(generate(FamilySpec("square-ortho", n=2)).graph)
        assert para == ortho
        assert para.mostar == 24


class TestMirrorSymmetry:
    @pytest.mark.parametrize("family,n", [
        ("triangular", 5), ("square-para", 4), ("square-ortho", 6),
        ("hex-para", 4), ("hex-meta", 5), ("hex-ortho", 4)])
    def test_per_polygon_contributions_mirror(self, family, n):
        sides, spacing = CHAIN_SHAPE[family]
        polygon = cycle_graph(sides)
        comp = compose(PolymerSpec("chain", (MonomerHandle(polygon, 0, spacing),) * n))
        assert comp.graph == generate(FamilySpec(family, n=n)).graph
        # polygon i's edges in composite ids; together they are every edge once
        groups = [[tuple(sorted((comp.vertex_map[(i, a)], comp.vertex_map[(i, b)])))
                   for a, b in polygon.edges] for i in range(n)]
        assert sorted(e for group in groups for e in group) == list(comp.graph.edges)
        report = index_report(comp.graph)
        diffs = dict(zip(comp.graph.edges, zip(report.vertex_diffs.tolist(),
                                               report.edge_diffs.tolist())))

        def polygon_multiset(i):
            return Counter(diffs[e] for e in groups[i])

        for i in range(n // 2):
            assert polygon_multiset(i) == polygon_multiset(n - 1 - i)


class TestValidation:
    def test_bad_family(self):
        with pytest.raises(GraphError):
            FamilySpec("pentagonal", n=2)
        with pytest.raises(GraphError):
            FamilySpec("triangular", n=0)

    @pytest.mark.parametrize("params", [{"n": 2.5}, {"n": True}, {"m": 3.0},
                                        {"inner": "2"}, {"inner": False}])
    def test_non_integer_parameters(self, params):
        with pytest.raises(GraphError, match="must be integers"):
            FamilySpec("hex-meta", **params)

    def test_numpy_integer_parameters_count_as_python_ints(self):
        """A numpy n used to wrap: triangulane n=70 counted (-3, -6)."""
        for family, params in (("triangulane", {"n": 70}),
                               ("clique-flower", {"m": 2 ** 40, "inner": 2 ** 30})):
            spec = FamilySpec(family, **{k: np.int64(v) for k, v in params.items()})
            assert family_counts(spec) == family_counts(FamilySpec(family, **params))
            assert all(type(getattr(spec, k)) is int for k in ("n", "m", "inner"))

    def test_determinism(self):
        for spec in (FamilySpec("hex-ortho", n=5),
                     FamilySpec("clique-flower", m=3, inner=3),
                     FamilySpec("triangulane", n=2)):
            assert generate(spec).graph == generate(spec).graph


def test_chain_polygon_is_built_once(monkeypatch):
    calls = []

    def spy(n):
        calls.append(n)
        return cycle_graph(n)
    families._polygon.cache_clear()
    monkeypatch.setattr(families, "cycle_graph", spy)
    graphs = [generate(FamilySpec("hex-meta", n=n)).graph for n in range(1, 6)]
    assert calls == [6]
    assert [(g.n, g.m) for g in graphs] == [(5 * n + 1, 6 * n) for n in range(1, 6)]
