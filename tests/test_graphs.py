import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mostar import (UNREACHABLE, DuplicateEdge, GraphError, MonomerHandle,
                    SelfLoop, VertexOutOfRange, all_pairs_distances,
                    bfs_distances, build_chain, build_link, complete_graph,
                    cycle_graph, distance_blocks, dump_graph, emit_edge_list,
                    emit_graph_json, from_edge_list, graphs, index_report,
                    indices, is_connected, parse_edge_list, parse_graph,
                    parse_graph_json, path_graph)

from conftest import (connected_graphs, naive_all_pairs, naive_edge_diffs,
                      naive_vertex_diffs, naive_wiener)


def two_triangles():
    return from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


class TestFromEdgeList:
    def test_triangle_normalized(self):
        g = from_edge_list(3, [(2, 0), (1, 0), (2, 1)])
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        assert g.adjacency == ((1, 2), (0, 2), (0, 1))

    def test_single_vertex(self):
        g = from_edge_list(1, [])
        assert (g.n, g.m) == (1, 0)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            from_edge_list(4, [(0, 1), (1, 1)])

    def test_duplicate_rejected_even_when_flipped(self):
        with pytest.raises(DuplicateEdge):
            from_edge_list(3, [(0, 1), (1, 0)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(VertexOutOfRange):
            from_edge_list(0, [])

    def test_edge_list_round_trips_normalized_input(self):
        pairs = [(4, 2), (0, 1), (3, 0)]
        g = from_edge_list(5, pairs)
        assert from_edge_list(5, g.edges).edges == g.edges


class TestBfs:
    def test_path(self):
        assert bfs_distances(path_graph(4), 0).dist == (0, 1, 2, 3)

    def test_complete(self):
        assert bfs_distances(complete_graph(3), 2).dist == (1, 1, 0)

    def test_cycle_both_arcs(self):
        assert bfs_distances(cycle_graph(6), 0).dist == (0, 1, 2, 3, 2, 1)

    def test_unreachable_sentinel(self):
        g = from_edge_list(2, [])
        assert bfs_distances(g, 0).dist == (0, UNREACHABLE)

    def test_bad_source(self):
        with pytest.raises(VertexOutOfRange):
            bfs_distances(path_graph(2), 5)


class TestAllPairs:
    def test_k1(self):
        assert all_pairs_distances(from_edge_list(1, [])).tolist() == [[0]]

    def test_k2(self):
        assert all_pairs_distances(complete_graph(2)).tolist() == [[0, 1], [1, 0]]

    def test_star(self):
        star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        d = all_pairs_distances(star)
        assert d[0].tolist() == [0, 1, 1, 1]
        for leaf in (1, 2, 3):
            row = d[leaf].tolist()
            assert row[leaf] == 0 and row[0] == 1
            assert all(row[other] == 2 for other in (1, 2, 3) if other != leaf)

    def test_disconnected_sentinel(self):
        d = all_pairs_distances(two_triangles())
        assert d[0, 3] == UNREACHABLE and d[3, 0] == UNREACHABLE

    def test_blocks_concatenate_to_table(self):
        g = cycle_graph(41)
        blocks = list(distance_blocks(g, 7))
        assert [len(b) for b in blocks] == [7] * 5 + [6]
        assert all(b.dtype == np.int32 for b in blocks)
        assert np.array_equal(np.concatenate(blocks), all_pairs_distances(g))

    def test_blocks_keep_unreachable_sentinel(self):
        g = two_triangles()
        blocks = np.concatenate(list(distance_blocks(g, 4)))
        assert np.array_equal(blocks, all_pairs_distances(g))


class TestConnectivity:
    def test_examples(self):
        assert is_connected(complete_graph(3))
        assert not is_connected(from_edge_list(2, []))
        assert not is_connected(two_triangles())


@settings(deadline=None)
@given(connected_graphs())
def test_distance_table_matches_naive_bfs(g):
    assert all_pairs_distances(g).tolist() == naive_all_pairs(g)


@settings(deadline=None)
@given(connected_graphs())
def test_triangle_step_and_symmetry(g):
    d = all_pairs_distances(g)
    assert np.array_equal(d, d.T)
    assert np.all(np.diagonal(d) == 0)
    for u, v in g.edges:
        assert np.all(np.abs(d[u] - d[v]) <= 1)


def check_streamed_pass(g):
    """index_report in blocks of 1, 2 and 3 sources, from BFS and from the table.

    Shrinking the row budget forces the multi-block pass that real graphs
    take; every per-edge diff and all three totals must match the naive
    oracle, and the BFS blocks must have exactly the forced sizes.
    """
    vertex_diffs, edge_diffs = naive_vertex_diffs(g), naive_edge_diffs(g)
    wiener = naive_wiener(g)
    table = all_pairs_distances(g)
    for rows in (1, 2, 3):
        sizes = []

        def spy(graph, k):
            for block in graphs.distance_blocks(graph, k):
                sizes.append(len(block))
                yield block

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(indices, "_ROW_BUDGET_BYTES", rows * 8 * max(g.n, g.m))
            mp.setattr(indices, "distance_blocks", spy)
            for dists in (None, table):
                r = index_report(g, include_per_edge=True, dists=dists)
                assert [c.edge for c in r.per_edge] == list(g.edges)
                assert [c.vertex_diff for c in r.per_edge] == vertex_diffs
                assert [c.edge_diff for c in r.per_edge] == edge_diffs
                assert (r.mostar, r.edge_mostar, r.wiener) == (
                    sum(vertex_diffs), sum(edge_diffs), wiener)
        ragged = [g.n % rows] if g.n % rows else []
        assert sizes == [rows] * (g.n // rows) + ragged


@st.composite
def polymer_composites(draw):
    monomers = []
    for _ in range(draw(st.integers(2, 4))):
        mono = draw(connected_graphs(min_n=2, max_n=5))
        x = draw(st.integers(0, mono.n - 1))
        y = (x + draw(st.integers(1, mono.n - 1))) % mono.n
        monomers.append(MonomerHandle(mono, x, y))
    build = draw(st.sampled_from([build_chain, build_link]))
    return build(monomers).graph


@pytest.mark.parametrize("g", [from_edge_list(1, []), complete_graph(2)],
                         ids=["n1", "n2"])
def test_streamed_pass_smallest_graphs(g):
    check_streamed_pass(g)


@settings(deadline=None, max_examples=50)
@given(connected_graphs())
def test_streamed_pass_matches_naive_oracle(g):
    check_streamed_pass(g)


@settings(deadline=None, max_examples=30)
@given(polymer_composites())
def test_streamed_pass_on_polymer_composites(g):
    check_streamed_pass(g)


class TestFormats:
    def test_edge_list_round_trip(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert parse_edge_list(emit_edge_list(g)) == g

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n3 2\n\n0 1\n# another\n1 2\n"
        g = parse_edge_list(text)
        assert g.edges == ((0, 1), (1, 2))

    def test_header_count_mismatch(self):
        with pytest.raises(GraphError):
            parse_edge_list("3 2\n0 1\n")

    def test_json_round_trip(self):
        g = cycle_graph(5)
        assert parse_graph_json(emit_graph_json(g)) == g

    def test_json_canonical_sorted(self):
        g = from_edge_list(3, [(2, 1), (1, 0)])
        assert emit_graph_json(g) == '{"edges": [[0, 1], [1, 2]], "n": 3}\n'

    def test_sniffing(self):
        g = path_graph(3)
        assert parse_graph(emit_graph_json(g)) == g
        assert parse_graph(emit_edge_list(g)) == g

    def test_dump_format_validation(self):
        with pytest.raises(GraphError):
            dump_graph(path_graph(2), "yaml")
