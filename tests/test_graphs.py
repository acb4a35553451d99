import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mostar import (DuplicateEdge, GraphError, NotConnected, SelfLoop,
                    VertexOutOfRange, blocks, complete_graph, cycle_graph,
                    distance_blocks, distance_rows, dump_graph, edge_orientation,
                    emit_edge_list, emit_graph_json, from_edge_list, graphs,
                    index_report, indices, is_connected, parse_edge_list,
                    parse_graph, parse_graph_json, path_graph,
                    vertex_orientation)

from conftest import (any_graphs, block_rich_graphs, connected_graphs,
                      naive_all_pairs, naive_bfs, naive_edge_diffs,
                      naive_vertex_diffs, naive_wiener, polymer_composites)


def block_table(g, rows=3):
    """The all-pairs table, concatenated from ``distance_blocks``."""
    return np.concatenate(list(distance_blocks(g, rows)))


def two_triangles():
    return from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


class TestFromEdgeList:
    def test_triangle_normalized(self):
        g = from_edge_list(3, [(2, 0), (1, 0), (2, 1)])
        assert g.edges == ((0, 1), (0, 2), (1, 2))

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
        assert distance_rows(path_graph(4), [0]).tolist() == [[0, 1, 2, 3]]

    def test_complete(self):
        assert distance_rows(complete_graph(3), [2]).tolist() == [[1, 1, 0]]

    def test_cycle_both_arcs(self):
        rows = distance_rows(cycle_graph(6), [0, 3])
        assert rows.dtype == np.int32
        assert rows.tolist() == [[0, 1, 2, 3, 2, 1], [3, 2, 1, 0, 1, 2]]

    def test_unreachable_raises_not_connected(self):
        with pytest.raises(NotConnected):
            distance_rows(from_edge_list(2, []), [0])

    def test_bad_source(self):
        for source in (5, -1):
            with pytest.raises(VertexOutOfRange):
                distance_rows(path_graph(2), [source])


class TestAllPairs:
    def test_k1(self):
        assert block_table(from_edge_list(1, [])).tolist() == [[0]]

    def test_k2(self):
        assert block_table(complete_graph(2)).tolist() == [[0, 1], [1, 0]]

    def test_star(self):
        star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        d = block_table(star)
        assert d[0].tolist() == [0, 1, 1, 1]
        for leaf in (1, 2, 3):
            row = d[leaf].tolist()
            assert row[leaf] == 0 and row[0] == 1
            assert all(row[other] == 2 for other in (1, 2, 3) if other != leaf)

    def test_blocks_concatenate_to_table(self):
        g = cycle_graph(41)
        blocks = list(distance_blocks(g, 7))
        assert [len(b) for b in blocks] == [7] * 5 + [6]
        assert all(b.dtype == np.int32 for b in blocks)
        assert np.concatenate(blocks).tolist() == naive_all_pairs(g)


class TestConnectivity:
    def test_examples(self):
        assert is_connected(complete_graph(3))
        assert is_connected(from_edge_list(1, []))
        assert not is_connected(from_edge_list(2, []))
        assert not is_connected(two_triangles())

    @pytest.mark.parametrize("g", [two_triangles(), from_edge_list(2, [])],
                             ids=["two-triangles", "two-isolated"])
    def test_distance_pass_raises_not_connected(self, g):
        with pytest.raises(NotConnected, match=f"graph with {g.n} vertices"):
            next(distance_blocks(g, 4))
        with pytest.raises(NotConnected):
            distance_rows(g, [g.n - 1])
        with pytest.raises(NotConnected):
            index_report(g)
        for orientation in (vertex_orientation, edge_orientation):
            with pytest.raises(NotConnected):
                orientation(g, (0, 1))

    def test_index_report_makes_no_separate_connectivity_check(self, monkeypatch):
        def fail(g):
            raise AssertionError("is_connected called")

        monkeypatch.setattr(graphs, "is_connected", fail)
        monkeypatch.setattr(indices, "is_connected", fail, raising=False)
        assert index_report(cycle_graph(5)).wiener == 15
        with pytest.raises(NotConnected):
            index_report(two_triangles())


@settings(deadline=None)
@given(any_graphs())
def test_is_connected_matches_naive_bfs(g):
    assert is_connected(g) == (min(naive_bfs(g, 0)) >= 0)


@settings(deadline=None)
@given(any_graphs(max_n=8), st.lists(st.tuples(st.integers(-2, 9), st.integers(-2, 9)),
                                     max_size=20))
def test_has_edge_matches_edge_set(g, queries):
    edges = set(g.edges)
    for u, v in list(g.edges) + queries:
        expected = (u, v) in edges or (v, u) in edges
        assert g.has_edge(u, v) == expected and g.has_edge(v, u) == expected


@settings(deadline=None)
@given(connected_graphs())
def test_distance_table_matches_naive_bfs(g):
    assert block_table(g).tolist() == naive_all_pairs(g)


@settings(deadline=None)
@given(connected_graphs())
def test_triangle_step_and_symmetry(g):
    d = block_table(g)
    assert np.array_equal(d, d.T)
    assert np.all(np.diagonal(d) == 0)
    for u, v in g.edges:
        assert np.all(np.abs(d[u] - d[v]) <= 1)


def check_streamed_pass(g):
    """index_report at the default Floyd-Warshall cutoff, then with every
    block streamed in BFS blocks of 1, 2 and 3 sources.

    Cutoff 0 sends every block through the streamed pass, and shrinking the
    row budget forces the multi-block pass that real graphs take; every
    per-edge diff and all three totals must match the naive oracle, and each
    block's BFS must come in exactly the sizes its budget gives.
    """
    vertex_diffs, edge_diffs = naive_vertex_diffs(g), naive_edge_diffs(g)
    totals = (sum(vertex_diffs), sum(edge_diffs), naive_wiener(g))

    def check(r):
        assert [c.edge for c in r.per_edge] == list(g.edges)
        assert [c.vertex_diff for c in r.per_edge] == vertex_diffs
        assert [c.edge_diff for c in r.per_edge] == edge_diffs
        assert (r.mostar, r.edge_mostar, r.wiener) == totals

    check(index_report(g, include_per_edge=True))
    # a graph that is one block (or one vertex) streams as a whole
    block_orders = np.diff(blocks(g).vertex_start).tolist() or [g.n]
    for rows in (1, 2, 3):
        budget = rows * 8 * max(g.n, g.m)
        calls = []

        def spy(graph, k):
            sizes = []
            calls.append((graph, k, sizes))
            for block in graphs.distance_blocks(graph, k):
                sizes.append(len(block))
                yield block

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(indices, "_ROW_BUDGET_BYTES", budget)
            mp.setattr(indices, "_FLOYD_MAX", 0)
            mp.setattr(indices, "distance_blocks", spy)
            check(index_report(g, include_per_edge=True))
        assert sorted(graph.n for graph, _, _ in calls) == sorted(block_orders)
        if len(block_orders) == 1:
            assert calls[0][1] == rows
        for graph, k, sizes in calls:
            assert list(graph.edges) == sorted(graph.edges)  # each block is canonical
            assert all(a < b for a, b in graph.edges)
            assert k == max(1, budget // (8 * max(graph.n, graph.m)))
            ragged = [graph.n % k] if graph.n % k else []
            assert sizes == [k] * (graph.n // k) + ragged


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

    @pytest.mark.parametrize("doc", [
        {"n": "3", "edges": [[0, 1]]}, {"n": 3.0, "edges": [[0, 1]]},
        {"n": True, "edges": []}, {"n": 3, "edges": [[0, 1.5]]},
        {"n": 3, "edges": [[0, {}]]}, {"n": 3, "edges": [["0", 1]]},
        {"n": 3, "edges": [[False, 1]]}])
    def test_json_accepts_only_integers(self, doc):
        with pytest.raises(GraphError, match="must be an integer"):
            parse_graph_json(doc)

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


def check_blocks(g):
    """Invariants of ``blocks``, and each weight against its definition:
    the vertices and edges left joined to a block vertex once the block's
    own edges are gone."""
    parts = blocks(g)
    assert sorted(parts.edges.tolist()) == list(range(g.m))  # each edge in one block
    seen = []
    for i in range(len(parts.vertex_start) - 1):
        vertices = parts.vertices[parts.vertex_start[i]:parts.vertex_start[i + 1]].tolist()
        weights = parts.weights[parts.vertex_start[i]:parts.vertex_start[i + 1]].tolist()
        hanging = parts.hanging[parts.vertex_start[i]:parts.vertex_start[i + 1]].tolist()
        own = [g.edges[e] for e in parts.edges[parts.edge_start[i]:parts.edge_start[i + 1]]]
        assert sorted(vertices) == sorted({x for edge in own for x in edge})
        assert sum(weights) == g.n and sum(hanging) == g.m - len(own)
        assert all(len(set(vertices) & other) <= 1 for other in seen)
        seen.append(set(vertices))
        rest = from_edge_list(g.n, [e for e in g.edges if e not in own])
        for x, w, h in zip(vertices, weights, hanging):
            reach = [y for y, d in enumerate(naive_bfs(rest, x)) if d >= 0]
            assert w == len(reach)
            assert h == sum(1 for a, _ in rest.edges if a in set(reach))


class TestBlocks:
    @pytest.mark.parametrize("g,orders", [
        (from_edge_list(1, []), []), (complete_graph(2), [2]),
        (path_graph(4), [2, 2, 2]), (cycle_graph(5), [5]), (complete_graph(5), [5]),
    ], ids=["K1", "K2", "P4", "C5", "K5"])
    def test_small_graphs(self, g, orders):
        check_blocks(g)
        assert np.diff(blocks(g).vertex_start).tolist() == orders

    def test_two_triangles_on_a_path(self):
        # triangles {0,1,2} and {3,4,5} joined by the bridge 2-3
        g = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        parts = blocks(g)
        found = {}
        for i in range(3):
            span = slice(parts.vertex_start[i], parts.vertex_start[i + 1])
            found[tuple(sorted(parts.vertices[span].tolist()))] = dict(
                zip(parts.vertices[span].tolist(), parts.weights[span].tolist()))
        assert found == {(0, 1, 2): {0: 1, 1: 1, 2: 4}, (2, 3): {2: 3, 3: 3},
                         (3, 4, 5): {3: 4, 4: 1, 5: 1}}

    def test_not_connected(self):
        for g in (two_triangles(), from_edge_list(2, [])):
            message = f"^graph with {g.n} vertices is not connected$"
            with pytest.raises(NotConnected, match=message):
                blocks(g)

    def test_too_few_edges_raise_before_allocating(self):
        g = from_edge_list(10**6, [(0, 1)])
        tracemalloc.start()
        try:
            with pytest.raises(NotConnected, match="^graph with 1000000 vertices"):
                blocks(g)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_long_path_needs_no_recursion(self):
        assert len(blocks(path_graph(50_000)).edges) == 49_999


@settings(deadline=None, max_examples=60)
@given(connected_graphs())
def test_blocks_on_random_graphs(g):
    check_blocks(g)


@settings(deadline=None, max_examples=60)
@given(block_rich_graphs())
def test_blocks_on_block_rich_graphs(g):
    check_blocks(g)


@settings(deadline=None, max_examples=40)
@given(polymer_composites())
def test_blocks_on_polymer_composites(g):
    check_blocks(g)
