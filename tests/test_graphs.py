import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mostar import (DuplicateEdge, GraphError, MonomerHandle, NotConnected,
                    PolymerSpec, SelfLoop, VertexOutOfRange, blocks,
                    complete_graph, compose, cycle_graph,
                    distance_rows, dump_graph, edge_orientation, formats,
                    from_edge_list, graphs, index_report, indices, is_connected,
                    parse_graph, path_graph, vertex_orientation)

from conftest import (any_graphs, block_rich_graphs, check_layouts, chorded_cycles,
                      connected_graphs, naive_all_pairs, naive_bfs,
                      naive_edge_diffs, naive_vertex_diffs, naive_wiener,
                      one_block_specs, polymer_composites,
                      reference_block_partition, reference_block_weights,
                      reference_edges, reference_parse_edge_list,
                      reference_parse_graph_json)


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

    def test_out_of_range_message_quotes_at_most_60_digits(self):
        with pytest.raises(VertexOutOfRange) as caught:
            from_edge_list(3, [(0, 5)])
        assert str(caught.value) == "vertex 5 out of range for n=3"
        with pytest.raises(VertexOutOfRange) as caught:
            from_edge_list(3, [(0, 10 ** 3999)])
        assert str(caught.value) == f"vertex 1{'0' * 59}... out of range for n=3"

    @pytest.mark.parametrize("build,message", [
        (lambda: from_edge_list(3, [(0, 10 ** 5000)]), "vertex {} out of range for n=3"),
        (lambda: from_edge_list(3, [(10 ** 5000,) * 2]), "self-loop at vertex {}"),
        (lambda: vertex_orientation(path_graph(3), (0, 10 ** 5000)), "edge (0, {}) not in graph"),
    ], ids=["out-of-range", "self-loop", "not-in-graph"])
    def test_id_of_more_digits_than_int_prints(self, build, message):
        """Formatting the message used to raise a bare ValueError (4300 digits)."""
        with pytest.raises(GraphError) as caught:
            build()
        assert str(caught.value) == message.format("<an integer of more than 4300 digits>")

    @pytest.mark.parametrize("make", [path_graph, cycle_graph, complete_graph])
    @pytest.mark.parametrize("n", [1.5, 2.5, 4.0, "3"])
    def test_generator_vertex_count_not_an_integer(self, make, n):
        """Most used to raise a bare TypeError, and cycle_graph(2.5) said
        'vertex 2.5 out of range for n=2.5'."""
        with pytest.raises(GraphError) as caught:
            make(n)
        assert str(caught.value) == f"vertex count must be an integer, got {n!r}"

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
                      np.array([[1, 3], [0, 1]], dtype=np.uint64), iter([(0, 1), (3, 1)]),
                      {(0, 1), (1, 3)}):
            h = from_edge_list(4, pairs)
            assert h == g and hash(h) == hash(g) and h.edges == g.edges
        assert g != from_edge_list(5, [(0, 1), (1, 3)])
        assert g != from_edge_list(4, [(0, 1), (1, 2)])
        assert g.__eq__((4, g.edges)) is NotImplemented and g != 4

    @pytest.mark.parametrize("pairs", [[(0, 1, 2)], [(0,)], [0, 1], None,
                                       [(0, 1), (2,)], [(0, 1), (1, 2, 0)],
                                       np.array([0, 1], dtype=np.int64)])
    def test_pairs_of_other_lengths_rejected(self, pairs):
        with pytest.raises(GraphError, match=r"\(u, v\) pairs"):
            from_edge_list(3, pairs)

    @pytest.mark.parametrize("n", [-1, 0, 1, 2])
    def test_cycle_needs_three_vertices(self, n):
        """cycle_graph(2) used to say 'vertex 2 out of range for n=2'."""
        with pytest.raises(GraphError) as caught:
            cycle_graph(n)
        assert str(caught.value) == f"a cycle needs at least 3 vertices, got {n}"

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

    @pytest.mark.parametrize("pairs", [
        np.array([[2 ** 63, 1]], dtype=np.uint64), [(np.uint64(2 ** 63), np.uint64(1))],
        np.array([[0, 1], [2, 2 ** 64 - 1]], dtype=np.uint64),
        [(0, 1), (2, np.uint64(2 ** 64 - 1))]],
        ids=["uint64-array", "uint64-list", "uint64-array-max", "uint64-in-a-list"])
    def test_unsigned_id_beyond_int64_is_named_as_written(self, pairs):
        """A uint64 array used to be cast whole to int64, so 2**63 was named as -2**63."""
        with pytest.raises(VertexOutOfRange) as caught:
            from_edge_list(3, pairs)
        assert caught.value.vertex == max(int(v) for pair in pairs for v in pair)

    def test_vertex_count_must_fit_int64(self):
        with pytest.raises(GraphError, match="64 bits"):
            from_edge_list(2 ** 63, [(0, 1)])
        g = from_edge_list(2 ** 63 - 1, [(0, 2 ** 63 - 2)])
        assert g.edges == ((0, 2 ** 63 - 2),) and not is_connected(g)

    @pytest.mark.parametrize("build", [path_graph, cycle_graph, complete_graph])
    def test_builder_checks_the_count_before_any_work(self, build):
        """path_graph(2**63) used to list about 2**63 pairs before from_edge_list
        rejected the count, and ended in MemoryError."""
        with pytest.raises(GraphError, match=r"^vertex count does not fit in 64 bits"):
            build(2 ** 63)


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

    def test_sources_from_a_generator(self):
        """The range check used to exhaust it before the BFS read it."""
        rows = distance_rows(path_graph(3), (s for s in (0, 2)))
        assert rows.tolist() == [[0, 1, 2], [2, 1, 0]]

    def test_sources_not_iterable(self):
        """A bare vertex used to raise TypeError: 'int' object is not iterable."""
        with pytest.raises(GraphError, match=r"^sources must be a sequence of vertex ids, got 5$"):
            distance_rows(path_graph(3), 5)


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

    @pytest.mark.parametrize("g", [two_triangles(), from_edge_list(2, []),
                                   from_edge_list(4, [(0, 1), (2, 3)])],
                             ids=["two-triangles", "two-isolated", "two-edges"])
    def test_distance_pass_raises_not_connected(self, g):
        with pytest.raises(NotConnected, match=f"graph with {g.n} vertices"):
            distance_rows(g, range(min(4, g.n)))
        with pytest.raises(NotConnected):
            distance_rows(g, [g.n - 1])
        with pytest.raises(NotConnected, match=f"graph with {g.n} vertices"):
            distance_rows(g, [])  # no row to show it
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


@pytest.mark.parametrize("u,v", [(True, 2), (0.0, 1), (1, 2.0), ("a", 1), (None, 1)],
                         ids=["bool", "float", "float-v", "str", "none"])
def test_has_edge_is_false_for_a_non_integer(u, v):
    """A bool or a float used to match an edge, and a str or None raised a
    bare TypeError."""
    g = cycle_graph(4)
    assert not g.has_edge(u, v) and not g.has_edge(v, u)
    assert g.has_edge(np.int64(0), np.int32(1))


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
        budget = rows * max(9 * g.n, g.n + g.m)
        passes, fronts = [], []

        def spy_pass(adj, ends, weights, hanging):
            passes.append((len(adj[0]) - 1, len(ends)))
            return level_pass(adj, ends, weights, hanging)

        def spy_levels(adj, sources):
            fronts.append((len(adj[0]) - 1, len(sources)))
            return levels(adj, sources)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(indices, "_ROW_BUDGET_BYTES", budget)
            mp.setattr(indices, "_FLOYD_MAX", 0)
            mp.setattr(indices, "_LEVEL_MAX_ECC", g.n + 1)
            mp.setattr(indices, "_level_transmissions", spy_pass)
            mp.setattr(indices, "_levels", spy_levels)
            check(index_report(g))
        assert sorted(n for n, _ in passes) == sorted(block_orders)
        expected = []  # per block: the one-source probe, then its batches, evenly filled
        for n, m in passes:
            batches = -(-n // max(1, budget // max(9 * n, n + m)))
            if len(block_orders) == 1:
                assert batches == -(-n // rows)
            k = -(-n // batches)
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
    still going after ``_LEVEL_MAX_ECC`` levels and streams rows."""
    passes, widths = [], []  # widths: the sources of each BFS level run
    levels = indices._levels

    def spy(name):
        real = getattr(indices, name)

        def run(*args):
            passes.append(name)
            return real(*args)
        return run

    def spy_levels(a, sources):
        for level in levels(a, sources):
            widths.append(len(sources))
            yield level

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_level_transmissions", "_transmissions"):
            mp.setattr(indices, name, spy(name))
        mp.setattr(indices, "_levels", spy_levels)
        index_report(g)
    assert passes == [taken]
    if taken == "_transmissions":
        assert widths == [1] * len(widths)  # the probe's one source
        assert 0 < len(widths) <= indices._LEVEL_MAX_ECC


@settings(deadline=None, max_examples=50)
@given(connected_graphs())
def test_streamed_pass_matches_naive_oracle(g):
    check_streamed_pass(g)


@settings(deadline=None, max_examples=30)
@given(polymer_composites())
def test_streamed_pass_on_polymer_composites(g):
    check_streamed_pass(g)


class TestFormats:
    @pytest.mark.parametrize("text", [
        "1" * 5000 + " 0\n",
        "3 1\n0 " + "1" * 5000 + "\n",
        '{"n": ' + "1" * 5000 + ', "edges": []}',
    ], ids=["header", "id", "json"])
    def test_integer_of_more_digits_than_int_converts(self, text):
        """int() and json.loads used to raise a bare ValueError."""
        with pytest.raises(GraphError, match="too many digits") as caught:
            parse_graph(text)
        assert len(str(caught.value)) < 100

    def test_edge_list_round_trip(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert parse_graph(dump_graph(g, "edgelist")) == g

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n3 2\n\n0 1\n# another\n1 2\n"
        g = parse_graph(text)
        assert g.edges == ((0, 1), (1, 2))

    def test_header_count_mismatch(self):
        with pytest.raises(GraphError):
            parse_graph("3 2\n0 1\n")

    def test_json_round_trip(self):
        g = cycle_graph(5)
        assert parse_graph(dump_graph(g, "json")) == g

    @pytest.mark.parametrize("doc", [
        {"n": "3", "edges": [[0, 1]]}, {"n": 3.0, "edges": [[0, 1]]},
        {"n": True, "edges": []}, {"n": 3, "edges": [[0, 1.5]]},
        {"n": 3, "edges": [[0, {}]]}, {"n": 3, "edges": [["0", 1]]},
        {"n": 3, "edges": [[False, 1]]}])
    def test_json_accepts_only_integers(self, doc):
        with pytest.raises(GraphError, match="must be an integer"):
            parse_graph(json.dumps(doc))

    @pytest.mark.parametrize("text", ["not json", "{", '{"n": 3, "edges": ' + "[" * 100_000],
                             ids=["not-json", "unclosed", "too-deep"])
    def test_json_that_does_not_parse(self, text):
        with pytest.raises(GraphError, match="^invalid graph JSON: "):
            formats._parse_graph_json(text)

    def test_json_canonical_sorted(self):
        g = from_edge_list(3, [(2, 1), (1, 0)])
        assert dump_graph(g, "json") == '{"edges": [[0, 1], [1, 2]], "n": 3}\n'

    def test_sniffing(self):
        g = path_graph(3)
        assert parse_graph(dump_graph(g, "json")) == g
        assert parse_graph(dump_graph(g, "edgelist")) == g

    def test_dump_format_validation(self):
        with pytest.raises(GraphError):
            dump_graph(path_graph(2), "yaml")


#: ids near a small graph's range, and at and beyond the ends of int64
text_ids = st.one_of(st.integers(-2, 7), st.sampled_from(
    [2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 2 ** 64 + 3, 10 ** 30]))
#: tokens that int() reads but a decimal is not, and tokens it does not read
bad_tokens = st.sampled_from(["1_0", "\u0662", "\u0660", "1.0", "0x1", "a", "--1", "+", "\u00b9"])
line_breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e",
                               "\x85", "\u2028", "\u2029"])
separators = st.sampled_from([" ", "\t", "  ", "\xa0", " \t", "\x1f", "\u3000", "\u2003"])
padding = st.sampled_from(["", "", " ", "\t", "\xa0"])


@st.composite
def decimals(draw, value: int) -> str:
    """``value`` as an edge-list token: an optional sign, maybe leading zeros."""
    sign = "-" if value < 0 else draw(st.sampled_from(["", "", "+"]))
    if value == 0:
        sign = draw(st.sampled_from(["", "+", "-"]))
    return sign + "0" * draw(st.integers(0, 3)) + str(abs(value))


@st.composite
def simple_pairs(draw, n: int) -> list[list[int]]:
    """The distinct edges of a simple graph on ``n`` vertices, in random order
    and orientation."""
    ids = st.integers(0, n - 1)
    pairs = st.tuples(ids, ids).filter(lambda p: p[0] != p[1])
    return [list(p) for p in draw(st.lists(pairs, max_size=8, unique_by=frozenset))]


@st.composite
def edge_list_texts(draw) -> str:
    """Edge-list texts, most of them well formed, some with one flaw: a bad
    ``n``, an id out of range, a self-loop, a duplicate, a bad token, a line
    of 1 or 3 tokens, or a wrong edge count."""
    n = draw(st.integers(2, 40))
    pairs = draw(simple_pairs(n))
    flaw = draw(st.sampled_from(["none"] * 5 + ["n", "id", "loop", "duplicate",
                                                 "token", "short", "long", "count"]))
    if flaw == "n":
        n = draw(st.sampled_from([0, -1, 1, 2 ** 63 - 1, 2 ** 63]))
    elif flaw == "id" and pairs:
        draw(st.sampled_from(pairs))[draw(st.integers(0, 1))] = draw(text_ids)
    elif flaw == "loop":
        v = draw(st.one_of(st.integers(0, n - 1), text_ids))
        pairs.insert(draw(st.integers(0, len(pairs))), [v, v])
    elif flaw == "duplicate" and pairs:
        u, v = draw(st.sampled_from(pairs))
        pairs.insert(draw(st.integers(0, len(pairs))), [v, u] if draw(st.booleans()) else [u, v])
    rows = [[draw(decimals(u)), draw(decimals(v))] for u, v in pairs]
    header = [draw(decimals(n)), draw(decimals(len(rows)))]
    if flaw == "token":
        row = draw(st.sampled_from(rows + [header]))
        row[draw(st.integers(0, 1))] = draw(bad_tokens)
    elif flaw == "short" and rows:
        del draw(st.sampled_from(rows))[1]
    elif flaw == "long":
        draw(st.sampled_from(rows + [header])).append(draw(decimals(draw(text_ids))))
    elif flaw == "count":
        header[1] = draw(decimals(len(rows) + draw(st.sampled_from([-1, 1, 2]))))
    lines = [draw(padding) + draw(separators).join(row) + draw(padding)
             for row in [header] + rows]
    for _ in range(draw(st.integers(0, 3))):  # comments and blank lines anywhere
        extra = draw(st.sampled_from(["# a comment", "  # 1 2", "#", "", "  ", "\t"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "".join(line + draw(line_breaks) for line in lines)


def same_outcome(read, reference, source):
    """``read(source)`` gives the graph ``reference(source)`` gives, or raises
    the same exception class with the same message."""
    got, want = outcome(lambda: read(source)), outcome(lambda: reference(source))
    assert got == want


@settings(deadline=None, max_examples=300)
@given(edge_list_texts())
def test_edge_list_reader_matches_the_line_loop(text):
    same_outcome(formats._parse_edge_list, reference_parse_edge_list, text)
    same_outcome(parse_graph, reference_parse_edge_list, text)


#: JSON values that are not vertex ids, and ids at and beyond the ends of int64
json_values = st.one_of(
    st.booleans(), st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(["0", ""]),
    st.none(), st.sampled_from([-1, 2 ** 63 - 1, 2 ** 63, -2 ** 63 - 1, 2 ** 64 + 3, 10 ** 30]))


@st.composite
def graph_docs(draw) -> dict:
    """Graph JSON objects, most of them well formed, some with one flaw: a
    bad ``n``, a bad id, a duplicate, a pair that is not two values, or
    ``edges`` that is not an array."""
    n = draw(st.integers(2, 40))
    edges = draw(simple_pairs(n))
    flaw = draw(st.sampled_from(["none"] * 3 + ["n", "id", "duplicate", "pair", "edges"]))
    if flaw == "n":
        n = draw(json_values)
    elif flaw == "id" and edges:
        draw(st.sampled_from(edges))[draw(st.integers(0, 1))] = draw(json_values)
    elif flaw == "duplicate" and edges:
        edges.append(draw(st.sampled_from(edges))[::-1])
    elif flaw == "pair":
        bad = draw(st.one_of(st.lists(st.one_of(st.integers(0, n - 1), json_values), max_size=3),
                             st.sampled_from([0, "01", {"u": 0, "v": 1}, None])))
        edges.insert(draw(st.integers(0, len(edges))), bad)
    elif flaw == "edges":
        edges = draw(st.sampled_from([{}, "[]", 3, None]))
    return {"n": n, "edges": edges}


@settings(deadline=None, max_examples=300)
@given(graph_docs())
def test_graph_json_reader_matches_the_pair_check(doc):
    same_outcome(formats._parse_graph_json, reference_parse_graph_json, doc)
    same_outcome(parse_graph, reference_parse_graph_json, json.dumps(doc))


def hex_chain_text(rng):
    """A well-formed edge list of 9,600 edges: a hexagon chain, relabelled
    and shuffled, half its lines with a signed, zero-padded token and a tab."""
    n = 8_001  # hexagon h is 5h, ..., 5h + 5, so neighbours share one vertex
    edges = [(5 * h + i, 5 * h + (i + 1) % 6) for h in range(1_600) for i in range(6)]
    perm = rng.sample(range(n), n)
    rng.shuffle(edges)
    lines = [f"+{perm[u]:05d}\t{perm[v]}" if rng.random() < 0.5 else f"{perm[v]} {perm[u]}"
             for u, v in edges]
    return f"# hex chain\n{n} {len(lines)}\n" + "\r\n".join(lines) + "\n"


def spy_on_edge_pairs(mp):
    """The line lists that ``formats._edge_pairs`` reads while patched."""
    calls = []
    real = formats._edge_pairs

    def spy(lines):
        calls.append(len(lines))
        return real(lines)

    mp.setattr(formats, "_edge_pairs", spy)
    return calls


def test_well_formed_text_takes_the_array_path():
    text = hex_chain_text(random.Random(7))
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_on_edge_pairs(mp)
        g = parse_graph(text)
    assert calls == [] and g.m == 9_600
    assert g == reference_parse_edge_list(text)


def test_id_beyond_int64_falls_back_to_the_line_loop():
    text = "3 2\n0 1\n1 9223372036854775808\n"
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_on_edge_pairs(mp)
        with pytest.raises(VertexOutOfRange) as caught:
            parse_graph(text)
    assert calls == [2]
    assert str(caught.value) == "vertex 9223372036854775808 out of range for n=3"


def check_blocks(g):
    """Invariants of ``blocks``, and each weight against its definition:
    the vertices and edges left joined to a block vertex once the block's
    own edges are gone."""
    parts = blocks(g)
    assert sorted(parts.edges.tolist()) == list(range(g.m))  # each edge in one block
    if g.parts is None:  # a DFS's blocks each have their own layout
        assert parts.layout.tolist() == list(range(len(parts.vertex_start) - 1))
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

    def test_dfs_blocks_have_their_own_layouts(self):
        """A link of four C5 is built with two layouts, the C5's and the
        bridges' K2; a DFS over it, alone or in a batch, gives each block
        its own, as it does a cycle or a clique built as one block."""
        g = compose(PolymerSpec("link", (MonomerHandle(cycle_graph(5), 0, 2),) * 4)).graph
        assert g.parts.layout.tolist() == [0, 0, 0, 0, 4, 4, 4]
        assert blocks(graphs.Graph(g.n, g.ends)).layout.tolist() == list(range(7))
        assert graphs._blocks([g, path_graph(3)])[0].layout.tolist() == list(range(9))
        for one in (cycle_graph(4), complete_graph(3), complete_graph(1)):
            assert blocks(one).layout.tolist() == [0] * (one.n > 1)

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

    def test_long_relabelled_cycle_is_one_block(self):
        """One block whose first inner vertex is about 50,000 tree edges
        above the deepest: pointer jumping climbs the whole chain."""
        n = 50_000
        perm = random.Random(8).sample(range(n), n)
        pairs = [(perm[i], perm[(i + 1) % n]) for i in range(n)] + [(perm[0], perm[n // 2])]
        parts = blocks(from_edge_list(n, pairs))
        assert parts.vertex_start.tolist() == [0, n]
        assert parts.edges.tolist() == list(range(n + 1))
        assert sorted(parts.vertices.tolist()) == list(range(n))
        assert set(parts.weights.tolist()) == {1} and set(parts.hanging.tolist()) == {0}

    @staticmethod
    def check_batch_as_alone(batch):
        """``_blocks(batch)`` is each graph's own blocks, graph after graph:
        vertex and edge ids shifted past the graphs before, and the starts
        past the blocks before: a lone graph's construction blocks if it
        has them, else each one's DFS.  Gives where each graph's blocks
        start."""
        parts, block_at = graphs._blocks(batch)
        known = len(batch) == 1 and batch[0].parts is not None
        alone = [blocks(g if known else graphs.Graph(g.n, g.ends)) for g in batch]

        def joined(field, shift=(0,) * len(batch)):
            return np.concatenate([getattr(b, field) + s for b, s in zip(alone, shift)])

        def starts(field, within):
            shift = np.cumsum([0] + [len(getattr(b, within)) for b in alone])
            return np.append(
                np.concatenate([getattr(b, field)[:-1] + s for b, s in zip(alone, shift)]),
                shift[-1])

        counts = [len(b.edge_start) - 1 for b in alone]
        expected = graphs.Blocks(
            starts("vertex_start", "vertices"),
            joined("vertices", np.cumsum([0] + [g.n for g in batch])),
            joined("weights"), joined("hanging"), starts("edge_start", "edges"),
            joined("edges", np.cumsum([0] + [g.m for g in batch])), joined("local_ends"),
            joined("layout", np.cumsum([0] + counts)))
        for field in graphs.Blocks._fields:
            assert np.array_equal(getattr(parts, field), getattr(expected, field)), field
        assert block_at.tolist() == np.cumsum([0] + counts).tolist()
        return block_at

    def test_batch_lays_out_each_graph_as_alone(self):
        """A batch's blocks are each graph's own, graph after graph, a
        one-vertex graph having none, with the same layout as alone."""
        bridged = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        batch = [path_graph(3), from_edge_list(1, []), complete_graph(5), bridged,
                 complete_graph(2)]
        assert np.diff(self.check_batch_as_alone(batch)).tolist() == [2, 0, 1, 3, 1]

    def test_batch_of_known_blocks_joins_them(self, monkeypatch):
        """Graphs whose blocks are all known take one DFS over their union
        when batched together, as any batch of several graphs does."""
        calls = []
        real = graphs._dfs
        monkeypatch.setattr(graphs, "_dfs", lambda ends, sizes: calls.append(len(sizes))
                            or real(ends, sizes))
        chain = compose(PolymerSpec("chain", (MonomerHandle(cycle_graph(4), 0, 2),) * 3))
        batch = [complete_graph(5), complete_graph(1), chain.graph, cycle_graph(7)]
        assert np.diff(self.check_batch_as_alone(batch)).tolist() == [1, 0, 3, 1]
        assert calls == [4, 1, 1, 1, 1]  # the batch's, then each copy's alone

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


def check_against_reference(batch):
    """``_blocks`` of fresh copies of ``batch`` has the edge-stack DFS's
    blocks, with the same weight and hanging count at each (block, vertex),
    up to order; its blocks come in preorder of their first inner vertex,
    graph after graph, and each block's edges by id."""
    parts, _ = graphs._blocks([graphs.Graph(g.n, g.ends) for g in batch])
    expected, pre, n0, m0 = [], [], 0, 0
    for g in batch:
        found, order = reference_block_partition(g)
        expected += [([(x + n0, w, h) for x, w, h in reference_block_weights(g, ids)],
                      sorted(e + m0 for e in ids)) for ids in found]
        pre += [p + n0 for p in order]
        n0, m0 = n0 + g.n, m0 + g.m
    assert block_set(parts) == sorted(expected)
    first = np.array(pre, dtype=np.int64)[parts.vertices[parts.vertex_start[:-1] + 1]]
    assert (np.diff(first) > 0).all()
    for a, b in zip(parts.edge_start, parts.edge_start[1:]):
        assert (np.diff(parts.edges[a:b]) > 0).all()


unknown_graphs = st.one_of(connected_graphs(), block_rich_graphs(),
                           chorded_cycles(min_n=3, max_n=12, max_chords=4))


@settings(deadline=None, max_examples=150)
@given(unknown_graphs)
def test_blocks_match_the_edge_stack_reference(g):
    check_against_reference([g])


@settings(deadline=None, max_examples=60)
@given(st.lists(unknown_graphs, min_size=1, max_size=6))
def test_batched_blocks_match_the_edge_stack_reference(batch):
    check_against_reference(batch)


def dfs_blocks(g):
    """The DFS's blocks of ``g``, read on a copy whose blocks are not set."""
    return blocks(graphs.Graph(g.n, g.ends))


def block_set(parts):
    """Each block as its (vertex, weight, hanging) triples and its edge ids,
    sorted: the blocks up to their order and their in-block layout."""
    spans = zip(parts.vertex_start, parts.vertex_start[1:], parts.edge_start,
                parts.edge_start[1:])
    return sorted((sorted(zip(parts.vertices[a:b].tolist(), parts.weights[a:b].tolist(),
                              parts.hanging[a:b].tolist())), sorted(parts.edges[c:d].tolist()))
                  for a, b, c, d in spans)


def check_construction_blocks(spec):
    """``compose`` sets blocks that pass ``check_blocks`` and ``check_layouts``,
    are the DFS's up to order and layout, and give the naive oracle's per-edge diffs."""
    g = compose(spec).graph
    assert g.parts is not None
    check_blocks(g)
    check_layouts(g.parts)
    assert block_set(blocks(g)) == block_set(dfs_blocks(g))
    r = index_report(g)
    assert r.vertex_diffs.tolist() == naive_vertex_diffs(g)
    assert r.edge_diffs.tolist() == naive_edge_diffs(g)


@settings(deadline=None, max_examples=200)
@given(one_block_specs())
def test_construction_blocks_match_the_dfs(spec):
    check_construction_blocks(spec)


@pytest.mark.parametrize("kind,tree", [
    ("tree", ((0, 0, 1, 0), (2, 1, 0, 0), (0, 0, 3, 0))),  # three pairs on slot (0, 0)
    ("tree", ((1, 0, 0, 2), (2, 4, 1, 1), (3, 0, 2, 4))),  # a path, two pairs on (2, 4)
    ("link", ()), ("chain", ()), ("bouquet", ()), ("circuit", ())])
def test_construction_blocks_with_k1_and_shared_slots(kind, tree):
    monomers = (MonomerHandle(complete_graph(4), 0, 2), MonomerHandle(complete_graph(2), 0, 1),
                MonomerHandle(cycle_graph(5), 1, 3), MonomerHandle(complete_graph(1), 0))
    if kind == "chain":  # K1 may only end a chain
        monomers = monomers[3:] + monomers[:3]
    check_construction_blocks(PolymerSpec(kind, monomers, tree))


def test_blocks_of_a_lone_monomer_are_set_too():
    for g in (complete_graph(1), complete_graph(2), cycle_graph(6)):
        for kind in ("link", "chain", "bouquet", "tree"):
            check_construction_blocks(PolymerSpec(kind, (MonomerHandle(g, 0),)))


@pytest.mark.parametrize("monomer", [
    path_graph(3),  # two blocks
    from_edge_list(3, [(0, 1), (0, 2), (1, 2)]),  # blocks not read yet
], ids=["two-blocks", "unknown"])
def test_a_monomer_without_one_known_block_leaves_the_dfs(monomer):
    g = compose(PolymerSpec("chain", (MonomerHandle(complete_graph(3), 0, 1),
                                      MonomerHandle(monomer, 0, 2)))).graph
    assert g.parts is None
    check_blocks(g)


def test_set_blocks_are_read_only():
    link = PolymerSpec("link", (MonomerHandle(cycle_graph(3), 0),) * 2)
    for g in (cycle_graph(5), compose(link).graph, path_graph(4)):
        assert not any(a.flags.writeable for a in blocks(g))
