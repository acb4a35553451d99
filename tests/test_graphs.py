import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mostar import (DuplicateEdge, GraphError, NotConnected, SelfLoop,
                    VertexOutOfRange, blocks, complete_graph, cycle_graph,
                    distance_rows, dump_graph, edge_orientation,
                    emit_edge_list, emit_graph_json, from_edge_list, graphs,
                    index_report, indices, is_connected, parse_edge_list,
                    parse_graph, parse_graph_json, path_graph,
                    vertex_orientation)

from conftest import (any_graphs, block_rich_graphs, connected_graphs,
                      naive_all_pairs, naive_bfs, naive_edge_diffs,
                      naive_vertex_diffs, naive_wiener, polymer_composites,
                      reference_edges)


def row_chunks(g, rows):
    """The all-pairs table as ``distance_rows`` chunks of ``rows`` sources."""
    return [distance_rows(g, range(a, min(a + rows, g.n))) for a in range(0, g.n, rows)]


def block_table(g, rows=3):
    """The all-pairs table, concatenated from ``distance_rows`` chunks."""
    return np.concatenate(row_chunks(g, rows))


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

    def test_ends_are_one_read_only_int64_array(self):
        g = from_edge_list(4, [[3, 1], [0, 1]])
        assert g.ends.dtype == np.int64 and g.ends.tolist() == [[0, 1], [1, 3]]
        with pytest.raises(ValueError):
            g.ends[0, 0] = 2
        assert from_edge_list(1, []).ends.shape == (0, 2)

    def test_any_pair_container_gives_the_same_graph(self):
        g = from_edge_list(4, [(0, 1), (1, 3)])
        for pairs in ([[1, 3], [1, 0]], ((3, 1), (0, 1)), np.array([[1, 3], [0, 1]]),
                      iter([(0, 1), (3, 1)]), {(0, 1), (1, 3)}):
            h = from_edge_list(4, pairs)
            assert h == g and hash(h) == hash(g) and h.edges == g.edges
        assert g != from_edge_list(5, [(0, 1), (1, 3)])
        assert g != from_edge_list(4, [(0, 1), (1, 2)])

    @pytest.mark.parametrize("pairs", [[(0, 1, 2)], [(0,)], [0, 1], None,
                                       [(0, 1), (2,)], [(0, 1), (1, 2, 0)]])
    def test_pairs_of_other_lengths_rejected(self, pairs):
        with pytest.raises(GraphError, match=r"\(u, v\) pairs"):
            from_edge_list(3, pairs)

    @pytest.mark.parametrize("n,pairs,shown", [
        (3, [(0, 1.5)], "vertex id must be an integer, got 1.5"),
        (3, [("0", "2")], "vertex id must be an integer, got '0'"),
        (3, [(True, 2)], "vertex id must be an integer, got True"),
        (3, [(0, 1), (2, None), (1.0, 2)], "vertex id must be an integer, got None"),
        (3, np.array([[0, 1], [1, 2]], dtype=float),
         f"vertex id must be an integer, got {np.float64(0)!r}"),
        (2.5, [(0, 1)], "vertex count must be an integer, got 2.5"),
        (True, [(0, "x")], "vertex count must be an integer, got True"),
    ], ids=["float-id", "string-ids", "bool-id", "first-in-input-order", "float-array",
            "float-n", "bool-n-before-ids"])
    def test_non_integers_rejected(self, n, pairs, shown):
        """Each of these used to build a graph, the ids cast to int64."""
        with pytest.raises(GraphError) as caught:
            from_edge_list(n, pairs)
        assert str(caught.value) == shown

    def test_numpy_integers_accepted(self):
        g = from_edge_list(np.int64(3), [(np.int32(2), 0), (np.uint8(1), np.int64(2))])
        assert g.edges == ((0, 2), (1, 2)) and type(g.n) is int

    def test_vertex_count_must_fit_int64(self):
        with pytest.raises(GraphError, match="64 bits"):
            from_edge_list(2 ** 63, [(0, 1)])
        g = from_edge_list(2 ** 63 - 1, [(0, 2 ** 63 - 2)])
        assert g.edges == ((0, 2 ** 63 - 2),) and not is_connected(g)


#: mostly ids of a small graph, some just outside it, some beyond int64
vertex_ids = st.one_of(st.integers(0, 5), st.integers(-2, 7),
                       st.sampled_from([2 ** 63 - 1, 2 ** 63, 2 ** 64 + 3, -2 ** 63 - 1]))


def outcome(build):
    """What ``build()`` returns, or the type and message of what it raises."""
    try:
        return build()
    except GraphError as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=300)
@given(st.integers(-1, 6), st.lists(st.tuples(vertex_ids, vertex_ids), max_size=10), st.data())
def test_from_edge_list_matches_the_reference_loop(n, pairs, data):
    for _ in range(data.draw(st.integers(0, 2))):  # repeat some pairs, maybe flipped
        if pairs:
            u, v = data.draw(st.sampled_from(pairs))
            pairs.insert(data.draw(st.integers(0, len(pairs))),
                         (v, u) if data.draw(st.booleans()) else (u, v))
    assert outcome(lambda: from_edge_list(n, pairs).edges) == outcome(
        lambda: reference_edges(n, pairs))


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

    @pytest.mark.parametrize("source", [1.5, True, np.float64(1), "1"])
    def test_non_integer_source(self, source):
        with pytest.raises(VertexOutOfRange):
            distance_rows(path_graph(3), [source])

    def test_numpy_integer_source(self):
        assert distance_rows(path_graph(3), [np.int64(2)]).tolist() == [[2, 1, 0]]


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
        blocks = row_chunks(g, 7)
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
            distance_rows(g, range(min(4, g.n)))
        with pytest.raises(NotConnected):
            distance_rows(g, [g.n - 1])
        with pytest.raises(NotConnected):
            index_report(g)
        for orientation in (vertex_orientation, edge_orientation):
            with pytest.raises(NotConnected):
                orientation(g, (0, 1))

    def test_shuffled_long_path(self):
        """A 20,000-vertex path under a seeded relabelling: connected, and
        disconnected once its middle edge is gone."""
        n = 20_000
        perm = np.random.default_rng(7).permutation(n)
        g = from_edge_list(n, np.column_stack([perm[:-1], perm[1:]]))
        assert is_connected(g) and min(naive_bfs(g, 0)) >= 0
        middle = tuple(sorted(perm[n // 2:n // 2 + 2].tolist()))
        cut = from_edge_list(n, [e for e in g.edges if e != middle])
        assert not is_connected(cut) and min(naive_bfs(cut, 0)) < 0

    def test_many_components(self):
        """Shuffled disjoint paths and cycles, then one edge per gap joining
        them: disconnected until the last gap closes."""
        rng = np.random.default_rng(11)
        perm = rng.permutation(3000)
        pieces = np.split(perm, np.sort(rng.choice(np.arange(1, 3000), 199, replace=False)))
        edges = [(int(p[i]), int(p[i + 1])) for p in pieces for i in range(len(p) - 1)]
        edges += [(int(p[0]), int(p[-1])) for p in pieces if len(p) > 2]
        joins = [(int(a[-1]), int(b[0])) for a, b in zip(pieces, pieces[1:])]
        for k in (0, 100, 198, 199):
            g = from_edge_list(3000, edges + joins[:k])
            assert is_connected(g) == (k == 199) == (min(naive_bfs(g, 0)) >= 0)

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
    """index_report at the default cutoffs, then with every block streamed in
    BFS blocks of 1, 2 and 3 sources, then with every block through the
    level pass in batches of 1, 2 and 3 sources.

    Floyd-Warshall cutoff 0 sends every block on to the probe; level cutoff 0
    sends it to the streamed pass and n + 1 to the level pass.  Shrinking the
    row budget forces the multi-batch pass that real graphs take; every
    per-edge diff and all three totals must match the naive oracle, and each
    block's BFS must come in exactly the sizes its budget gives.
    """
    vertex_diffs, edge_diffs = naive_vertex_diffs(g), naive_edge_diffs(g)
    totals = (sum(vertex_diffs), sum(edge_diffs), naive_wiener(g))

    def check(r):
        assert r.vertex_diffs.tolist() == vertex_diffs
        assert r.edge_diffs.tolist() == edge_diffs
        assert (r.mostar, r.edge_mostar, r.wiener) == totals

    check(index_report(g))
    block_orders = np.diff(blocks(g).vertex_start).tolist()
    for rows in (1, 2, 3):
        budget = rows * 8 * max(g.n, g.m)
        calls = []  # per block: its adjacency and the sizes of its BFS batches

        def spy(mat, sources):  # each block's batches share one adjacency
            if not calls or calls[-1][0] is not mat:
                calls.append((mat, []))
            calls[-1][1].append(len(sources))
            return graphs._bfs_rows(mat, sources)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(indices, "_ROW_BUDGET_BYTES", budget)
            mp.setattr(indices, "_FLOYD_MAX", 0)
            mp.setattr(indices, "_LEVEL_MAX_ECC", 0)
            mp.setattr(indices, "_bfs_rows", spy)
            check(index_report(g))
        assert sorted(mat.shape[0] for mat, _ in calls) == sorted(block_orders)
        for mat, sizes in calls:
            n, m = mat.shape[0], mat.nnz // 2
            k = max(1, budget // (8 * max(n, m)))
            if len(block_orders) == 1:
                assert k == rows
            ragged = [n % k] if n % k else []
            assert sizes == [k] * (n // k) + ragged
    level_pass, levels = indices._level_transmissions, indices._levels
    for rows in (1, 2, 3):
        budget = rows * 24 * g.n
        passes, fronts = [], []

        def spy_pass(a, weights, hanging):
            passes.append(a.shape[0])
            return level_pass(a, weights, hanging)

        def spy_levels(a, front):
            fronts.append(front.shape)
            return levels(a, front)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(indices, "_ROW_BUDGET_BYTES", budget)
            mp.setattr(indices, "_FLOYD_MAX", 0)
            mp.setattr(indices, "_LEVEL_MAX_ECC", g.n + 1)
            mp.setattr(indices, "_level_transmissions", spy_pass)
            mp.setattr(indices, "_levels", spy_levels)
            check(index_report(g))
        assert sorted(passes) == sorted(block_orders)
        expected = []  # per block: the one-source probe, then its batches
        for n in passes:
            k = max(1, budget // (24 * n))
            ragged = [(n, n % k)] if n % k else []
            expected += [(n, 1)] + [(n, k)] * (n // k) + ragged
        assert fronts == expected


@pytest.mark.parametrize("g", [from_edge_list(1, []), complete_graph(2)],
                         ids=["n1", "n2"])
def test_streamed_pass_smallest_graphs(g):
    check_streamed_pass(g)


@pytest.mark.parametrize("g,taken", [(complete_graph(60), "_level_transmissions"),
                                     (cycle_graph(200), "_transmissions")],
                         ids=["K60", "C200"])
def test_cost_test_picks_the_pass(g, taken):
    """K60 ends its probe BFS at level 1 and takes the level pass; C200 is
    still going after ``_LEVEL_MAX_ECC`` products and streams rows."""
    passes, products = [], []
    levels = indices._levels

    def spy(name):
        real = getattr(indices, name)

        def run(*args):
            passes.append(name)
            return real(*args)
        return run

    def spy_levels(a, front):
        for level in levels(a, front):
            products.append(front.shape[1])
            yield level

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_level_transmissions", "_transmissions"):
            mp.setattr(indices, name, spy(name))
        mp.setattr(indices, "_levels", spy_levels)
        index_report(g)
    assert passes == [taken]
    if taken == "_transmissions":
        assert products == [1] * len(products)  # the probe's one source
        assert 0 < len(products) <= indices._LEVEL_MAX_ECC


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

    @pytest.mark.parametrize("text", ["not json", "{", '{"n": 3, "edges": ' + "[" * 100_000],
                             ids=["not-json", "unclosed", "too-deep"])
    def test_json_that_does_not_parse(self, text):
        with pytest.raises(GraphError, match="^invalid graph JSON: "):
            parse_graph_json(text)

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
        local = parts.local_ends[parts.edge_start[i]:parts.edge_start[i + 1]]
        assert parts.vertices[parts.vertex_start[i] + local].tolist() == [list(e) for e in own]
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

    @staticmethod
    def check_batch_as_alone(batch):
        """``_blocks(batch)`` is each graph's own blocks, graph after graph:
        vertex and edge ids shifted past the graphs before, and the starts
        past the blocks before.  Gives where each graph's blocks start."""
        parts, block_at = graphs._blocks(batch)
        alone = [blocks(g) for g in batch]

        def joined(field, shift=(0,) * len(batch)):
            return np.concatenate([getattr(b, field) + s for b, s in zip(alone, shift)])

        def starts(field, within):
            shift = np.cumsum([0] + [len(getattr(b, within)) for b in alone])
            return np.append(
                np.concatenate([getattr(b, field)[:-1] + s for b, s in zip(alone, shift)]),
                shift[-1])

        expected = graphs.Blocks(
            starts("vertex_start", "vertices"),
            joined("vertices", np.cumsum([0] + [g.n for g in batch])),
            joined("weights"), joined("hanging"), starts("edge_start", "edges"),
            joined("edges", np.cumsum([0] + [g.m for g in batch])), joined("local_ends"))
        for field in graphs.Blocks._fields:
            assert np.array_equal(getattr(parts, field), getattr(expected, field)), field
        counts = [len(b.edge_start) - 1 for b in alone]
        assert block_at.tolist() == np.cumsum([0] + counts).tolist()
        return block_at

    def test_batch_lays_out_each_graph_as_alone(self):
        """A batch's blocks are each graph's own, graph after graph, a
        one-vertex graph having none, with the same layout as alone."""
        bridged = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        batch = [path_graph(3), from_edge_list(1, []), complete_graph(5), bridged,
                 complete_graph(2)]
        assert np.diff(self.check_batch_as_alone(batch)).tolist() == [2, 0, 1, 3, 1]

    def test_batch_of_one_vertex_graphs_has_no_blocks(self):
        block_at = self.check_batch_as_alone([complete_graph(1), complete_graph(1)])
        assert block_at.tolist() == [0, 0, 0]


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
