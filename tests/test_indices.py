import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mostar import (EdgeNotInGraph, FamilySpec, MonomerHandle, NotConnected,
                    blocks, build_chain, complete_graph, cycle_graph,
                    edge_mostar_index, edge_orientation, formula_value,
                    from_edge_list, gen_clique_flower, generate, index_report,
                    indices, is_connected, mostar_index, path_graph,
                    vertex_orientation, wiener_index)

from conftest import (block_rich_graphs, connected_graphs, naive_edge_diffs,
                      naive_edge_mostar, naive_mostar, naive_vertex_diffs,
                      naive_wiener, neighbour_lists, permute_graph,
                      polymer_composites, random_connected_graph)


def t2():
    """Two triangles sharing vertex 1: {0,1,2} and {1,3,4}."""
    return build_chain([MonomerHandle(complete_graph(3), 0, 1)] * 2).graph


class TestVertexOrientation:
    def test_k2(self):
        c = vertex_orientation(complete_graph(2), (0, 1))
        assert (c.n_u, c.n_v, c.n_0) == (1, 1, 0)

    def test_c4_symmetric(self):
        for e in cycle_graph(4).edges:
            c = vertex_orientation(cycle_graph(4), e)
            assert (c.n_u, c.n_v, c.n_0) == (2, 2, 0)

    def test_t2_cut_edge(self):
        # edge from a triangle corner to the shared vertex: the far triangle
        # pulls everything toward the cut vertex, the other corner is tied
        c = vertex_orientation(t2(), (0, 1))
        assert (c.n_u, c.n_v, c.n_0) == (1, 3, 1)

    def test_respects_given_orientation(self):
        c = vertex_orientation(t2(), (1, 0))
        assert (c.n_u, c.n_v) == (3, 1)

    def test_endpoints_count_themselves(self):
        for e in t2().edges:
            c = vertex_orientation(t2(), e)
            assert c.n_u >= 1 and c.n_v >= 1

    def test_edge_not_in_graph(self):
        with pytest.raises(EdgeNotInGraph):
            vertex_orientation(path_graph(3), (0, 2))

    def test_not_connected(self):
        with pytest.raises(NotConnected):
            vertex_orientation(from_edge_list(3, [(0, 1)]), (0, 1))


class TestEdgeOrientation:
    def test_complete_graphs_balanced(self):
        for n in (3, 4, 6):
            g = complete_graph(n)
            for e in g.edges:
                c = edge_orientation(g, e)
                assert c.m_u == c.m_v

    def test_t2_cut_edge(self):
        c = edge_orientation(t2(), (0, 1))
        assert (c.m_u, c.m_v, c.m_0) == (1, 4, 1)

    def test_p3_first_edge(self):
        c = edge_orientation(path_graph(3), (0, 1))
        assert (c.m_u, c.m_v, c.m_0) == (0, 1, 1)

    def test_own_edge_in_m0(self):
        for g in (t2(), cycle_graph(5), complete_graph(4)):
            for e in g.edges:
                assert edge_orientation(g, e).m_0 >= 1


class TestIndexValues:
    def test_cycles_have_zero_mostar(self):
        for k in range(3, 11):
            assert mostar_index(cycle_graph(k)) == 0

    def test_complete_graphs_have_zero_mostar(self):
        for n in range(2, 9):
            assert mostar_index(complete_graph(n)) == 0

    def test_complete_graphs_have_zero_edge_mostar(self):
        for n in range(2, 9):
            assert edge_mostar_index(complete_graph(n)) == 0

    def test_t2(self):
        g = t2()
        assert mostar_index(g) == 8
        assert edge_mostar_index(g) == 12
        assert wiener_index(g) == 14

    def test_clique_flower_5_4(self):
        g = gen_clique_flower(5, 4).graph
        assert mostar_index(g) == 240
        assert edge_mostar_index(g) == 510

    def test_wiener_small(self):
        assert wiener_index(complete_graph(2)) == 1
        assert wiener_index(path_graph(3)) == 4
        assert wiener_index(cycle_graph(5)) == 15

    def test_not_connected(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        for fn in (mostar_index, edge_mostar_index, wiener_index):
            with pytest.raises(NotConnected):
                fn(g)


class TestIndexReport:
    def test_k3(self):
        r = index_report(complete_graph(3))
        assert (r.mostar, r.edge_mostar, r.wiener) == (0, 0, 3)
        assert r.per_edge is None

    def test_p4_with_breakdown(self):
        r = index_report(path_graph(4), include_per_edge=True)
        assert (r.mostar, r.edge_mostar, r.wiener) == (4, 4, 10)
        assert [c.vertex_diff for c in r.per_edge] == [2, 0, 2]
        assert [c.edge_diff for c in r.per_edge] == [2, 0, 2]

    def test_t2_with_breakdown(self):
        r = index_report(t2(), include_per_edge=True)
        assert (r.mostar, r.edge_mostar, r.wiener) == (8, 12, 14)
        assert [c.edge for c in r.per_edge] == list(t2().edges)
        assert sum(c.vertex_diff for c in r.per_edge) == r.mostar
        assert sum(c.edge_diff for c in r.per_edge) == r.edge_mostar

    def test_single_vertex(self):
        r = index_report(from_edge_list(1, []))
        assert (r.mostar, r.edge_mostar, r.wiener) == (0, 0, 0)


def _bridges(g):
    """Edges whose removal disconnects the graph (brute force)."""
    out = []
    for e in g.edges:
        rest = [f for f in g.edges if f != e]
        if not is_connected(from_edge_list(g.n, rest)):
            out.append(e)
    return out


def _component_size(g, without, start):
    neighbours = neighbour_lists(g, without)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in neighbours[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


class TestStructuralInvariants:
    def test_orientation_totals(self):
        rng = random.Random(7)
        graphs = [t2(), cycle_graph(7), complete_graph(5), path_graph(6)]
        graphs += [random_connected_graph(rng, rng.randrange(2, 12))
                   for _ in range(10)]
        for g in graphs:
            vertex_total = edge_total = 0
            for e in g.edges:
                c = vertex_orientation(g, e)
                assert c.n_u + c.n_v + c.n_0 == g.n
                vertex_total += g.n
                ce = edge_orientation(g, e)
                assert ce.m_u + ce.m_v + ce.m_0 == g.m
                edge_total += g.m
            assert vertex_total == g.m * g.n
            assert edge_total == g.m * g.m

    def test_bridges_have_no_ties(self):
        rng = random.Random(11)
        graphs = [path_graph(6), from_edge_list(4, [(0, 1), (0, 2), (0, 3)])]
        graphs += [random_connected_graph(rng, rng.randrange(3, 10))
                   for _ in range(10)]
        for g in graphs:
            for e in _bridges(g):
                c = vertex_orientation(g, e)
                assert c.n_0 == 0
                assert c.n_u + c.n_v == g.n
                assert c.n_u == _component_size(g, e, e[0])


@settings(deadline=None, max_examples=60)
@given(connected_graphs(max_n=10), st.randoms(use_true_random=False))
def test_relabeling_invariance(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = permute_graph(g, perm)
    assert mostar_index(h) == mostar_index(g)
    assert edge_mostar_index(h) == edge_mostar_index(g)
    assert wiener_index(h) == wiener_index(g)


@settings(deadline=None, max_examples=60)
@given(connected_graphs(max_n=9))
def test_indices_match_naive_oracle(g):
    assert mostar_index(g) == naive_mostar(g)
    assert edge_mostar_index(g) == naive_edge_mostar(g)
    assert wiener_index(g) == naive_wiener(g)


@settings(deadline=None, max_examples=60)
@given(connected_graphs(max_n=9))
def test_orientations_match_naive_oracle_per_edge(g):
    vertex = [vertex_orientation(g, e) for e in g.edges]
    edge = [edge_orientation(g, e) for e in g.edges]
    assert [abs(c.n_u - c.n_v) for c in vertex] == naive_vertex_diffs(g)
    assert [abs(c.m_u - c.m_v) for c in edge] == naive_edge_diffs(g)


def check_against_oracle(g):
    """Per-edge diffs and all three totals of index_report equal the naive oracle."""
    r = index_report(g, include_per_edge=True)
    assert [c.edge for c in r.per_edge] == list(g.edges)
    assert [c.vertex_diff for c in r.per_edge] == naive_vertex_diffs(g)
    assert [c.edge_diff for c in r.per_edge] == naive_edge_diffs(g)
    assert (r.mostar, r.edge_mostar, r.wiener) == (
        naive_mostar(g), naive_edge_mostar(g), naive_wiener(g))


def hung(core, pieces):
    """``core`` with each of ``pieces`` hung by its vertex 0 on core vertex ``at``."""
    edges, n = list(core.edges), core.n
    for at, piece in pieces:
        shift = {0: at, **{x: n + x - 1 for x in range(1, piece.n)}}
        edges += [(shift[a], shift[b]) for a, b in piece.edges]
        n += piece.n - 1
    return from_edge_list(n, edges)


class TestBlockEngine:
    @pytest.mark.parametrize("g", [from_edge_list(1, []), complete_graph(2)],
                             ids=["n1", "n2"])
    def test_smallest_graphs(self, g):
        check_against_oracle(g)

    @pytest.mark.parametrize("order", [indices._FLOYD_MAX, indices._FLOYD_MAX + 1, 60])
    def test_block_at_and_above_the_cutoff(self, order):
        # one big cycle with chords, a clique, a triangle and a pendant path on it
        core = from_edge_list(order, list(cycle_graph(order).edges) + [(0, order // 2)])
        g = hung(core, [(0, complete_graph(4)), (3, cycle_graph(3)), (7, path_graph(5)),
                        (7, cycle_graph(6))])
        check_against_oracle(g)

    def test_blocks_on_both_sides_of_the_cutoff(self):
        g = hung(cycle_graph(55), [(1, cycle_graph(50)), (2, complete_graph(5)),
                                   (2, path_graph(3))])
        assert sorted(np.diff(blocks(g).vertex_start)) == [2, 2, 5, 50, 55]
        check_against_oracle(g)


@settings(deadline=None, max_examples=60)
@given(block_rich_graphs())
def test_block_engine_on_block_rich_graphs(g):
    check_against_oracle(g)


@settings(deadline=None, max_examples=40)
@given(polymer_composites())
def test_block_engine_on_polymer_composites(g):
    check_against_oracle(g)


class TestScale:
    def test_hex_meta_20000_hexagons(self):
        spec = FamilySpec("hex-meta", n=20_000)
        g = generate(spec).graph
        assert g.n == 100_001
        r = index_report(g)
        k = 10_000
        assert r.mostar == formula_value(spec, "mostar") == 80 * k * k - 20 * k
        assert r.edge_mostar == 96 * k * k - 24 * k

    def test_hex_meta_1600_wiener(self):
        g = generate(FamilySpec("hex-meta", n=1600)).graph
        assert index_report(g).wiener == 34184531200  # as pinned in the benchmark oracle

    def test_long_path(self):
        n = 50_000
        r = index_report(path_graph(n))
        assert r.wiener == (n ** 3 - n) // 6
        assert r.mostar == r.edge_mostar == sum(abs(n - 2 * i) for i in range(1, n))
