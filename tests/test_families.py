from collections import Counter

import pytest
from mostar import (CHAIN_FAMILIES, FamilySpec, GraphError, complete_graph,
                    cycle_graph, family_counts, gen_clique_flower,
                    gen_triangulane, gen_triangulane_aux, generate,
                    index_report, is_connected, mostar_index)


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
            fam = gen_triangulane_aux(k)
            assert (fam.graph.n, fam.graph.m) == counts
            assert counts == family_counts(FamilySpec("triangulane-aux", n=k))

    def test_triangulane(self):
        for n, nv in ((1, 9), (2, 21), (3, 45)):
            fam = gen_triangulane(n)
            assert fam.graph.n == nv
            assert (fam.graph.n, fam.graph.m) == family_counts(
                FamilySpec("triangulane", n=n))
        assert mostar_index(gen_triangulane(1).graph) == 36

    def test_clique_flower_counts(self):
        fam = gen_clique_flower(5, 4)
        assert (fam.graph.n, fam.graph.m) == (20, 40)
        for m, inner in ((1, 1), (2, 3), (4, 2)):
            spec = FamilySpec("clique-flower", m=m, inner=inner)
            assert (generate(spec).graph.n, generate(spec).graph.m) == family_counts(spec)


class TestCliqueFlowerDegenerate:
    def test_single_petal_is_a_clique(self):
        for n in (2, 5, 7):
            fam = gen_clique_flower(1, n)
            assert fam.graph == complete_graph(n)

    def test_trivial_petals_leave_the_hub(self):
        for m in (1, 3, 6):
            fam = gen_clique_flower(m, 1)
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
        fam = gen_triangulane(2)
        hubs = [fam.landmarks[k] for k in ("x_0", "u", "v")]
        assert len(set(hubs)) == 3
        for i in range(3):
            assert fam.graph.has_edge(hubs[i], hubs[(i + 1) % 3])

    def test_aux_hub_named_by_depth(self):
        fam = gen_triangulane_aux(3)
        assert "y_3" in fam.landmarks


class TestCactusStructure:
    def test_cycle_space_dimension_counts_polygons(self):
        for family in CHAIN_FAMILIES:
            for n in (1, 3, 6):
                g = generate(FamilySpec(family, n=n)).graph
                assert g.m - g.n + 1 == n

    def test_polygon_groups_partition_the_edges(self):
        fam = generate(FamilySpec("hex-meta", n=4))
        seen = [e for group in fam.polygons for e in group]
        assert sorted(seen) == list(fam.graph.edges)


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
        fam = generate(FamilySpec(family, n=n))
        report = index_report(fam.graph, include_per_edge=True)
        diffs = {c.edge: (c.vertex_diff, c.edge_diff) for c in report.per_edge}

        def polygon_multiset(i):
            return Counter(diffs[e] for e in fam.polygons[i])

        for i in range(n // 2):
            assert polygon_multiset(i) == polygon_multiset(n - 1 - i)


class TestValidation:
    def test_bad_family(self):
        with pytest.raises(GraphError):
            FamilySpec("pentagonal", n=2)
        with pytest.raises(GraphError):
            FamilySpec("triangular", n=0)

    def test_determinism(self):
        for spec in (FamilySpec("hex-ortho", n=5),
                     FamilySpec("clique-flower", m=3, inner=3),
                     FamilySpec("triangulane", n=2)):
            assert generate(spec).graph == generate(spec).graph
