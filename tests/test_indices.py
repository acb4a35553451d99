import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from mostar import (CHAIN_FAMILIES, KINDS, EdgeNotInGraph, FamilySpec, GraphError,
                    MonomerHandle, NotConnected, PolymerSpec, blocks,
                    complete_graph, compose, cycle_graph, dump_graph,
                    edge_orientation, formula_value, from_edge_list, generate,
                    graphs, index_report, index_reports, indices, is_connected,
                    parse_graph, path_graph, vertex_orientation)
import mostar
from mostar import cli
from mostar.cli import main
from mostar.indices import _reports
from mostar.polymer import _compose_all

from conftest import (block_rich_graphs, check_layouts, chorded_cycles, connected_graphs,
                      naive_all_pairs, naive_bfs, naive_edge_diffs, naive_edge_mostar,
                      naive_mostar, naive_vertex_diffs, naive_wiener, neighbour_lists,
                      one_block_monomers, one_block_specs, permute_graph, polymer_composites,
                      random_connected_graph)


def t2():
    """Two triangles sharing vertex 1: {0,1,2} and {1,3,4}."""
    return compose(PolymerSpec("chain", (MonomerHandle(complete_graph(3), 0, 1),) * 2)).graph


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

    @pytest.mark.parametrize("e", [(0, 1, 2), (0,), (0.0, 1), (False, True), 1, None])
    def test_edge_not_a_pair_of_integers(self, e):
        for orientation in (vertex_orientation, edge_orientation):
            with pytest.raises(GraphError, match="pair of integers"):
                orientation(path_graph(3), e)

    def test_numpy_edge(self):
        g = path_graph(3)
        assert vertex_orientation(g, g.ends[1]) == vertex_orientation(g, (1, 2))

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
            assert index_report(cycle_graph(k)).mostar == 0

    def test_complete_graphs_have_zero_mostar(self):
        for n in range(2, 9):
            assert index_report(complete_graph(n)).mostar == 0

    def test_complete_graphs_have_zero_edge_mostar(self):
        for n in range(2, 9):
            assert index_report(complete_graph(n)).edge_mostar == 0

    def test_t2(self):
        r = index_report(t2())
        assert (r.mostar, r.edge_mostar, r.wiener) == (8, 12, 14)

    def test_clique_flower_5_4(self):
        r = index_report(generate(FamilySpec("clique-flower", m=5, inner=4)).graph)
        assert (r.mostar, r.edge_mostar) == (240, 510)

    def test_wiener_small(self):
        assert index_report(complete_graph(2)).wiener == 1
        assert index_report(path_graph(3)).wiener == 4
        assert index_report(cycle_graph(5)).wiener == 15

    def test_not_connected(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        with pytest.raises(NotConnected):
            index_report(g)


class TestIndexReport:
    def test_k3(self):
        r = index_report(complete_graph(3))
        assert (r.mostar, r.edge_mostar, r.wiener) == (0, 0, 3)
        assert r.vertex_diffs.tolist() == r.edge_diffs.tolist() == [0, 0, 0]

    def test_p4_with_breakdown(self):
        r = index_report(path_graph(4))
        assert (r.mostar, r.edge_mostar, r.wiener) == (4, 4, 10)
        assert r.vertex_diffs.tolist() == [2, 0, 2]
        assert r.edge_diffs.tolist() == [2, 0, 2]

    def test_t2_with_breakdown(self):
        r = index_report(t2())
        assert (r.mostar, r.edge_mostar, r.wiener) == (8, 12, 14)
        assert len(r.vertex_diffs) == len(r.edge_diffs) == t2().m
        assert sum(r.vertex_diffs.tolist()) == r.mostar
        assert sum(r.edge_diffs.tolist()) == r.edge_mostar

    def test_single_vertex(self):
        r = index_report(from_edge_list(1, []))
        assert (r.mostar, r.edge_mostar, r.wiener) == (0, 0, 0)
        assert r.vertex_diffs.shape == r.edge_diffs.shape == (0,)

    @pytest.mark.parametrize("g", [generate(FamilySpec("hex-meta", n=30)).graph,
                                   cycle_graph(60)], ids=["stacked-blocks", "one-bfs-block"])
    def test_totals_read_only_the_edge_array(self, g):
        r = index_report(g)
        assert "edges" not in vars(g)  # no tuple of (u, v) ints was built
        assert len(r.vertex_diffs) == len(r.edge_diffs) == g.m

    @pytest.mark.parametrize("g,taken", [
        (generate(FamilySpec("hex-meta", n=30)).graph, []),
        (permute_graph(complete_graph(60), random.Random(3).sample(range(60), 60)),
         ["_level_tables"]),
        (permute_graph(cycle_graph(60), random.Random(4).sample(range(60), 60)),
         ["_row_tables"])], ids=["stacked-blocks", "level-pass", "rows-pass"])
    def test_per_edge_arrays(self, g, taken):
        """The diffs are read-only int64 arrays of length m in ``g.ends``
        order, equal to the naive oracle's, whichever source gives the
        distance tables."""
        passes = []

        def spy(name):
            real = getattr(indices, name)

            def run(*args):
                passes.append(name)
                return real(*args)
            return run

        with pytest.MonkeyPatch.context() as mp:
            for name in ("_level_tables", "_row_tables"):
                mp.setattr(indices, name, spy(name))
            r = index_report(g)
        assert passes == taken
        for diffs, oracle in ((r.vertex_diffs, naive_vertex_diffs(g)),
                              (r.edge_diffs, naive_edge_diffs(g))):
            assert diffs.dtype == np.int64 and diffs.shape == (g.m,)
            assert not diffs.flags.writeable
            with pytest.raises(ValueError):
                diffs[0] = 0
            assert diffs.tolist() == oracle  # the oracle walks g.edges, i.e. g.ends

    def test_equality_compares_the_totals(self):
        r = index_report(t2())
        assert r == index_report(t2()) and "vertex_diffs" not in repr(r)


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
    assert index_report(h) == index_report(g)  # compares the three totals


@settings(deadline=None, max_examples=60)
@given(connected_graphs(max_n=9))
def test_indices_match_naive_oracle(g):
    r = index_report(g)
    assert r.mostar == naive_mostar(g)
    assert r.edge_mostar == naive_edge_mostar(g)
    assert r.wiener == naive_wiener(g)


@settings(deadline=None, max_examples=60)
@given(connected_graphs(max_n=9))
def test_orientations_match_naive_oracle_per_edge(g):
    vertex = [vertex_orientation(g, e) for e in g.edges]
    edge = [edge_orientation(g, e) for e in g.edges]
    assert [abs(c.n_u - c.n_v) for c in vertex] == naive_vertex_diffs(g)
    assert [abs(c.m_u - c.m_v) for c in edge] == naive_edge_diffs(g)


def check_against_oracle(g):
    """Per-edge diffs and all three totals of index_report equal the naive oracle."""
    check_report(g, index_report(g))


def check_report(g, r):
    """Per-edge diffs and all three totals of ``g``'s report ``r`` equal the naive oracle."""
    assert r.vertex_diffs.tolist() == naive_vertex_diffs(g)
    assert r.edge_diffs.tolist() == naive_edge_diffs(g)
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
        # one big cycle with chords, bare and with a clique, a triangle and a
        # pendant path on it
        core = from_edge_list(order, list(cycle_graph(order).edges) + [(0, order // 2)])
        check_against_oracle(core)
        check_against_oracle(hung(core, [(0, complete_graph(4)), (3, cycle_graph(3)),
                                         (7, path_graph(5)), (7, cycle_graph(6))]))

    def test_blocks_on_both_sides_of_the_cutoff(self):
        g = hung(cycle_graph(55), [(1, cycle_graph(50)), (2, complete_graph(5)),
                                   (2, path_graph(3))])
        assert sorted(np.diff(blocks(g).vertex_start)) == [2, 2, 5, 50, 55]
        check_against_oracle(g)

    def test_blocks_of_mixed_sizes_share_a_padded_stack(self):
        g = hung(cycle_graph(9), [(0, cycle_graph(13)), (4, complete_graph(10)),
                                  (2, path_graph(3)), (5, cycle_graph(16))])
        sizes = np.diff(blocks(g).vertex_start)
        assert sorted(sizes) == [2, 2, 9, 10, 13, 16]
        assert set(indices._stack_sizes(sizes[sizes > 2]).tolist()) == {16}
        check_against_oracle(g)


@settings(deadline=None, max_examples=60)
@given(block_rich_graphs())
def test_block_engine_on_block_rich_graphs(g):
    check_against_oracle(g)


@settings(deadline=None, max_examples=40)
@given(polymer_composites())
def test_block_engine_on_polymer_composites(g):
    check_against_oracle(g)


def wheel(n):
    return from_edge_list(n, [(0, i) for i in range(1, n)]
                          + [(i, i % (n - 1) + 1) for i in range(1, n)])


def grid(p, q):
    return from_edge_list(p * q, [(r * q + c, r * q + c + 1)
                                  for r in range(p) for c in range(q - 1)]
                          + [(r * q + c, (r + 1) * q + c)
                             for r in range(p - 1) for c in range(q)])


def chorded_cycle(n, step):
    """C_n with chords from i to i + n/2 for every step-th i in the first half."""
    return from_edge_list(n, list(cycle_graph(n).edges)
                          + [(i, i + n // 2) for i in range(0, n // 2, step)])


#: (graph, diameter): one-block graphs of diameter 1 to 30, and one block
#: with nonzero weights and hanging edges
PASS_CASES = {
    "K2": (complete_graph(2), 1), "K9": (complete_graph(9), 1), "W16": (wheel(16), 2),
    "grid-3x4": (grid(3, 4), 5), "grid-4x6": (grid(4, 6), 8),
    "C48-chords": (chorded_cycle(48, 6), 12), "grid-2x13": (grid(2, 13), 13),
    "C60-chords": (chorded_cycle(60, 3), 15), "grid-2x20": (grid(2, 20), 20),
    "C40-chord": (chorded_cycle(40, 20), 20), "C61": (cycle_graph(61), 30),
    "C48-chords-hung": (hung(chorded_cycle(48, 6), [
        (0, complete_graph(4)), (3, cycle_graph(3)), (7, path_graph(5)),
        (30, cycle_graph(6))]), 16),
    "K8-C31-hung": (hung(from_edge_list(37, list(complete_graph(8).edges) + [(1, 8), (36, 0)]
                                        + [(i, i + 1) for i in range(8, 36)]), [
        (2, complete_graph(4)), (20, cycle_graph(5)), (9, path_graph(4))]), 18),
    "C48-chord-hung": (hung(chorded_cycle(48, 24), [
        (1, complete_graph(5)), (13, cycle_graph(4)), (25, path_graph(3)),
        (40, complete_graph(3))]), 25),
}

#: Cases whose largest block's vertices differ in eccentricity, so the sources
#: of one batch reach their last level at different depths: a K8 and a C31
#: sharing an edge (the K8's other vertices lie one level deeper than any
#: cycle vertex), and a C48 with one chord (eccentricities 12 to 24), each
#: with pieces hung on it, so weights and hanging counts are nonzero
RAGGED = ("K8-C31-hung", "C48-chord-hung")


def test_deep_relabelled_block_takes_the_rows_pass():
    """A 300-cycle with chords under a seeded relabelling is one block whose
    probe is still going after ``_LEVEL_MAX_ECC`` levels, so at the default
    cutoffs it streams BFS rows, and they give the naive oracle's diffs."""
    g = permute_graph(chorded_cycle(300, 50), random.Random(5).sample(range(300), 300))
    passes = []
    real = indices._row_tables

    def spy(a, ends):
        passes.append(a.shape[0])
        return real(a, ends)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indices, "_row_tables", spy)
        check_against_oracle(g)
    assert passes == [300]


@pytest.mark.parametrize("name", list(PASS_CASES))
def test_level_and_rows_passes_match_the_oracle(name):
    """Every block forced through the level pass, then through the streamed
    rows, with a budget of 1, 2 or 3 sources a batch in the largest block,
    or of all of them: both give the naive oracle's per-edge diffs and
    totals."""
    g, diameter = PASS_CASES[name]
    assert max(map(max, naive_all_pairs(g))) == diameter
    vertex_diffs, edge_diffs = naive_vertex_diffs(g), naive_edge_diffs(g)
    totals = (sum(vertex_diffs), sum(edge_diffs), naive_wiener(g))
    parts = blocks(g)
    sizes = np.diff(parts.vertex_start)
    big = int(np.argmax(sizes))
    n, m = int(sizes[big]), int(parts.edge_start[big + 1] - parts.edge_start[big])
    if name in RAGGED:
        local = parts.local_ends[parts.edge_start[big]:parts.edge_start[big + 1]]
        ecc = graphs._bfs_rows(graphs._csr(n, local), np.arange(n)).max(axis=1)
        assert ecc.min() < ecc.max()
    for level_max, taken, per_source in ((g.n, "_level_tables", max(9 * n, n + m)),
                                         (0, "_row_tables", 8 * max(n, m))):
        real = getattr(indices, taken)

        def spy(adj, ends):
            passes.append(len(ends))
            return real(adj, ends)

        for rows in (1, 2, 3, n):
            passes = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(indices, "_ROW_BUDGET_BYTES", rows * per_source)
                mp.setattr(indices, "_FLOYD_MAX", 0)
                mp.setattr(indices, "_LEVEL_MAX_ECC", level_max)
                mp.setattr(indices, taken, spy)
                r = index_report(g)
            assert sorted(passes) == sorted(np.diff(parts.edge_start).tolist())
            assert r.vertex_diffs.tolist() == vertex_diffs
            assert r.edge_diffs.tolist() == edge_diffs
            assert (r.mostar, r.edge_mostar, r.wiener) == totals


def count_levels(g, **settings):
    """``index_report(g)`` with the ``indices`` constants ``settings``,
    counting the levels the bit pass expands: each OR over the neighbours
    of every vertex (a ``reduceat`` at the adjacency's row starts).  Gives the report, the passes
    taken, each ``_levels`` call as ``[adjacency, sources, levels yielded,
    levels expanded]``, and the sizes of the scipy adjacencies built."""
    passes, calls, scipy_built = [], [], []
    levels, neighbours, csr = indices._levels, indices._neighbours, indices._csr

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if method == "reduceat":
                calls[-1][3] += 1
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

    def spy_neighbours(n, ends):
        indptr, nbr = neighbours(n, ends)
        return indptr.view(Counting), nbr

    def spy_levels(adj, sources):
        call = [adj, sources, 0, 0]
        calls.append(call)
        for level in levels(adj, sources):
            call[2] += 1
            yield level

    def spy_csr(n, ends):
        scipy_built.append(n)
        return csr(n, ends)

    def spy(name):
        real = getattr(indices, name)

        def run(*args):
            passes.append(name)
            return real(*args)
        return run

    with pytest.MonkeyPatch.context() as mp:
        for name, value in settings.items():
            mp.setattr(indices, name, value)
        for name in ("_level_tables", "_row_tables"):
            mp.setattr(indices, name, spy(name))
        mp.setattr(indices, "_neighbours", spy_neighbours)
        mp.setattr(indices, "_levels", spy_levels)
        mp.setattr(indices, "_csr", spy_csr)
        r = index_report(g)
    return r, passes, calls, scipy_built


def eccentricities(adj, sources):
    """The eccentricity of each of ``sources`` in the adjacency ``adj``, by scipy's BFS."""
    indptr, nbr = adj
    n = len(indptr) - 1
    a = csr_matrix((np.ones(len(nbr), np.float32), nbr, np.asarray(indptr)), shape=(n, n))
    return graphs._bfs_rows(a, np.asarray(sources)).max(axis=1)


def test_clique_runs_no_sparse_product():
    """K60's probe and its level pass both end at level 1: each expands one
    level, the one past level 0, and no scipy adjacency is built."""
    r, passes, calls, scipy_built = count_levels(complete_graph(60))
    assert (r.mostar, r.edge_mostar, r.wiener) == (0, 0, 60 * 59 // 2)
    assert passes == ["_level_tables"]
    assert [(len(s), levels, expanded) for _, s, levels, expanded in calls] == [
        (1, 2, 1), (60, 2, 1)]
    assert scipy_built == []


def test_each_batch_expands_its_eccentricity_levels():
    """A seeded Hamiltonian 300-cycle with chords, forced through the level
    pass in batches of 7 sources: the probe and each batch expand as many
    levels as the largest eccentricity among their sources, none past the
    last, and the batches do not all end at one depth."""
    rng = random.Random(30)
    order = rng.sample(range(300), 300)
    edges = {tuple(sorted((order[i], order[i - 1]))) for i in range(300)}
    while len(edges) < 450:
        edges.add(tuple(sorted(rng.sample(range(300), 2))))
    g = from_edge_list(300, sorted(edges))
    r, passes, calls, scipy_built = count_levels(
        g, _LEVEL_MAX_ECC=g.n, _ROW_BUDGET_BYTES=7 * 9 * g.n)
    check_report(g, r)
    assert passes == ["_level_tables"] and scipy_built == []
    assert [len(s) for _, s, _, _ in calls] == [1] + [7] * 42 + [6]
    tops = [int(eccentricities(adj, s).max()) for adj, s, _, _ in calls]
    assert [expanded for *_, expanded in calls] == tops
    assert [levels for _, _, levels, _ in calls] == [top + 1 for top in tops]
    assert len(set(tops[1:])) > 1


def both_sources(n, ends, weights, hanging):
    """``indices._transmissions`` with the probe's pick forced to the level
    tables, then to the BFS rows: two ``(T, E)`` pairs."""
    out = []
    for shallow in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(indices, "_shallow", lambda adj: shallow)
            out.append(indices._transmissions(n, ends, weights, hanging))
    return out


@pytest.mark.parametrize("heavy", [(1 << 23) - 41, (1 << 23) + 1])
def test_level_pass_sums_stay_exact_around_float32(heavy):
    """Two of vertex 0's neighbours weigh ``heavy`` and hang ``heavy`` edges,
    every other vertex one: the totals sit just below 2^24 or just above it,
    where float32 sums would round (level 1 from vertex 0 alone sums to the
    odd 2^24 + 3).  A second block of the layout weighs one everywhere.  T
    and E from the level tables equal those from the BFS rows, row by row."""
    g = chorded_cycle(60, 3)
    ends = np.array(g.ends)
    indptr, nbr = graphs._neighbours(g.n, ends)
    mass = np.ones((2, g.n), np.int64)
    mass[0, nbr[indptr[0]:indptr[0] + 2]] = heavy
    assert (mass[0].sum() < 1 << 24) == (heavy < 1 << 23)
    level, rows = both_sources(g.n, ends, mass, mass)
    assert all(np.array_equal(x, y) for x, y in zip(level, rows))


@pytest.mark.parametrize("g", [complete_graph(60), cycle_graph(200)],
                         ids=["K60-level-tables", "C200-rows"])
def test_sums_past_2_to_the_53_stay_exact(g):
    """One block whose every vertex weighs 2^48 + 1, through ``_reports``:
    T reaches 2^54 on K60 and 2^61 on C200, past float64's exact integers,
    and the Wiener total is still ``w^2 W(g)`` (float64 sums would be off by
    about -2^57 on K60)."""
    w = (1 << 48) + 1
    parts = graphs.Blocks(np.array([0, g.n]), np.arange(g.n), np.full(g.n, w),
                          np.zeros(g.n, np.int64), np.array([0, g.m]), np.arange(g.m),
                          np.array(g.ends), np.zeros(1, np.int64))
    (r,) = indices._reports(parts, [0, 1], [0, g.m])
    assert r.wiener == w * w * naive_wiener(g)
    assert r.mostar == r.edge_mostar == 0


@st.composite
def shallow_blocks(draw):
    """A clique or a relabelled cycle with chords, of 49-130 vertices (past
    ``_FLOYD_MAX``), whose vertex 0 has eccentricity below
    ``_LEVEL_MAX_ECC``: a block the probe sends to the level tables."""
    n = draw(st.integers(49, 130))
    if draw(st.booleans()):
        return complete_graph(n)
    g = draw(chorded_cycles(min_n=n, max_n=n, min_chords=n // 4, max_chords=n))
    assume(max(naive_bfs(g, 0)) < indices._LEVEL_MAX_ECC)
    return g


@st.composite
def deep_blocks(draw):
    """A relabelled cycle of 60-160 vertices with 0-3 chords, or a
    relabelled 2 x 25-60 ladder, whose vertex 0 has eccentricity at least
    ``_LEVEL_MAX_ECC``: a block the probe sends to the BFS rows."""
    if draw(st.booleans()):
        g = draw(chorded_cycles(min_n=60, max_n=160, min_chords=0, max_chords=3))
    else:
        ladder = grid(2, draw(st.integers(25, 60)))
        g = permute_graph(ladder, draw(st.permutations(range(ladder.n))))
    assume(max(naive_bfs(g, 0)) >= indices._LEVEL_MAX_ECC)
    return g


@settings(deadline=None, max_examples=40)
@given(st.one_of(shallow_blocks(), deep_blocks()), st.sampled_from([1, 63, 64, 65, 129]),
       st.integers(1, 3), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_bit_level_pass_matches_rows_pass_and_oracle(g, width, copies, hung, seed):
    """On 1-3 blocks of one layout, shallow or deep, with seeded random
    weights and hanging counts: T and E from the level tables, in batches
    of 1, 63, 64, 65 or 129 sources (a batch ends inside a word, at its end
    or just past it), equal those from the BFS rows and the naive oracle's
    distances, and the probe picks the source the block's depth calls for."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 1 << 20, (copies, g.n))
    hanging = rng.integers(0, 1 << 20, (copies, g.n)) * hung
    ends = np.array(g.ends)
    adj = graphs._neighbours(g.n, ends)
    assert indices._shallow(adj) == (max(naive_bfs(g, 0)) < indices._LEVEL_MAX_ECC)
    batches = []
    levels = indices._levels

    def spy_levels(adj, sources):
        batches.append(len(sources))
        return levels(adj, sources)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indices, "_level_width", lambda n, m: width)
        mp.setattr(indices, "_levels", spy_levels)
        (trans, edge_trans), rows = both_sources(g.n, ends, weights, hanging)
    assert batches == [width] * (g.n // width) + ([g.n % width] if g.n % width else [])
    assert np.array_equal(trans, rows[0]) and np.array_equal(edge_trans, rows[1])
    d = np.array(naive_all_pairs(g), dtype=np.int64)
    assert trans.tolist() == (weights @ d).tolist()
    near = np.minimum(d[:, ends[:, 0]], d[:, ends[:, 1]]).sum(axis=1)
    assert edge_trans.tolist() == (hanging @ d + near).tolist()


def test_deep_probe_stops_at_the_level_cap():
    """C200's probe yields ``_LEVEL_MAX_ECC`` levels and stops there: it
    expands each level past level 0, ``_LEVEL_MAX_ECC - 1``, and none past
    the cap.  The block streams rows over a scipy adjacency."""
    r, passes, calls, scipy_built = count_levels(cycle_graph(200))
    assert r.wiener == 200 * 100 * 100 // 2
    assert passes == ["_row_tables"]
    assert [(len(s), levels, expanded) for _, s, levels, expanded in calls] == [
        (1, indices._LEVEL_MAX_ECC, indices._LEVEL_MAX_ECC - 1)]
    assert scipy_built == [200]


@settings(deadline=None, max_examples=40)
@given(st.lists(st.one_of(connected_graphs(), block_rich_graphs(), polymer_composites()),
                max_size=8), st.data())
def test_batched_reports_match_the_oracle(graphs, data):
    """Graphs evaluated together, a one-vertex graph among them, each get
    the naive oracle's per-edge diffs and totals, in input order."""
    graphs.insert(data.draw(st.integers(0, len(graphs))), from_edge_list(1, []))
    reports = list(index_reports(graphs))
    assert len(reports) == len(graphs)
    for g, r in zip(graphs, reports):
        check_report(g, r)


def spy_on_batches(mp):
    """Count the unions that ``index_reports`` splits into blocks."""
    unions = []
    real = indices._blocks

    def run(graphs):
        unions.append(len(graphs))
        return real(graphs)
    mp.setattr(indices, "_blocks", run)
    return unions


# a huge cap takes all 20 graphs, constructions and the one-vertex graph
# of from_edge_list alike, in one batch
@pytest.mark.parametrize("cap,batches", [(1, 20), (10 ** 9, 1)], ids=["one-edge", "huge"])
def test_batch_cap_changes_no_report(cap, batches):
    graphs = [generate(FamilySpec(family, n=n)).graph
              for family in CHAIN_FAMILIES for n in (1, 7, 40)] + [from_edge_list(1, []),
                                                                   cycle_graph(60)]
    expected = list(index_reports(graphs))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indices, "_BATCH_EDGES", cap)
        unions = spy_on_batches(mp)
        got = list(index_reports(graphs))
    assert len(unions) == batches and sum(unions) == len(graphs)
    for r, want in zip(got, expected, strict=True):
        assert r == want
        assert r.vertex_diffs.tolist() == want.vertex_diffs.tolist()
        assert r.edge_diffs.tolist() == want.edge_diffs.tolist()


def spy_on_dfs(mp):
    """The number of graphs in each union that ``graphs._dfs`` splits."""
    calls = []
    real = graphs._dfs

    def run(ends, sizes):
        calls.append(len(sizes))
        return real(ends, sizes)
    mp.setattr(graphs, "_dfs", run)
    return calls


def test_verify_over_the_chain_families_runs_no_dfs(capsys):
    """verify composes each batch of chains as one union, whose construction
    blocks go straight to the engine: no DFS."""
    unions = []
    real = cli._compose_all

    def compose_all(specs):
        union = real(specs)
        unions.append((len(specs), union.edge_at[-1]))
        return union
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_on_dfs(mp)
        mp.setattr(cli, "_compose_all", compose_all)
        code = main(["verify", "--families", ",".join(CHAIN_FAMILIES), "--to", "40"])
    assert code == 1 and calls == []  # hex-meta and hex-ortho disagree, as recorded
    assert capsys.readouterr().err == "76 of 480 cells disagree\n"
    assert sum(k for k, _ in unions) == 6 * 40
    assert all(edges <= indices._BATCH_EDGES or k == 1 for k, edges in unions)


def test_batch_of_known_and_unknown_blocks():
    """Graphs whose blocks the construction set and graphs read from text
    or built from pairs, one-vertex graphs of both sorts among them, give
    the reports of one call per graph, with one DFS over the batch."""
    chain = generate(FamilySpec("hex-meta", n=5)).graph
    flower = generate(FamilySpec("clique-flower", m=4, inner=3)).graph
    read = parse_graph(dump_graph(chain, "edgelist"))
    batch = [chain, read, from_edge_list(1, []), complete_graph(1), flower,
             parse_graph(dump_graph(flower, "json")), t2(), path_graph(5), cycle_graph(9)]
    alone = [index_report(graphs.Graph(g.n, g.ends)) for g in batch]
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_on_dfs(mp)
        reports = list(index_reports(batch))
    assert calls == [9]
    for r, want in zip(reports, alone, strict=True):
        assert r == want
        assert r.vertex_diffs.tolist() == want.vertex_diffs.tolist()
        assert r.edge_diffs.tolist() == want.edge_diffs.tolist()


@pytest.mark.parametrize("build", [
    lambda: generate(FamilySpec("hex-meta", n=40)).graph,
    lambda: generate(FamilySpec("clique-flower", m=4, inner=5)).graph,
    lambda: compose(PolymerSpec("link", (MonomerHandle(cycle_graph(5), 0, 2),
                                         MonomerHandle(cycle_graph(7), 1, 4)) * 2)).graph,
], ids=["hex-meta", "clique-flower", "link-of-cycles"])
def test_lone_construction_runs_no_dfs(build):
    """A graph built with its blocks and evaluated alone uses them: no DFS.
    A copy built without them takes one and gives the same report."""
    g = build()
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_on_dfs(mp)
        r = index_report(g)
        assert calls == []
        copy = index_report(graphs.Graph(g.n, g.ends))
    assert calls == [1]
    assert r == copy and r.vertex_diffs.tolist() == copy.vertex_diffs.tolist()
    assert r.edge_diffs.tolist() == copy.edge_diffs.tolist()


@settings(deadline=None, max_examples=40)
@given(st.lists(one_block_specs(), min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_batch_of_constructions_and_read_graphs(specs, rng):
    """Composites built with their blocks, batched with their copies read
    back from text, in any order, each get the report they get alone: the
    construction's blocks for a composite, a DFS for a copy."""
    built = [compose(s).graph for s in specs]
    batch = built + [parse_graph(dump_graph(g, "edgelist")) for g in built]
    rng.shuffle(batch)
    for g, r in zip(batch, index_reports(batch), strict=True):
        alone = index_report(g)
        assert r == alone and r.vertex_diffs.tolist() == alone.vertex_diffs.tolist()
        assert r.edge_diffs.tolist() == alone.edge_diffs.tolist()


def test_reading_blocks_stores_nothing():
    """blocks(g) used to keep the DFS's blocks on g, which moved g, and every
    chain of it, from the DFS path to the join path."""
    triangle = from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    assert not any(a.flags.writeable for a in blocks(triangle))
    assert triangle.parts is None
    chain = compose(PolymerSpec("chain", (MonomerHandle(triangle, 0, 1),) * 3)).graph
    assert chain.parts is None
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_on_dfs(mp)
        index_report(triangle)
        index_report(chain)
        list(index_reports([triangle, chain]))
    assert calls == [1, 1, 2]
    assert not any(a.flags.writeable for a in blocks(path_graph(4)))


@pytest.mark.parametrize("call,message", [
    (lambda: index_report(None), "g is a NoneType, not a Graph"),
    (lambda: list(index_reports(None)), "graphs is a NoneType, not an iterable of Graphs"),
    (lambda: list(index_reports([path_graph(2), 5])), "graphs[1] is a int, not a Graph"),
    (lambda: blocks(3), "g is a int, not a Graph"),
    (lambda: compose(None), "spec is a NoneType, not a PolymerSpec"),
    (lambda: is_connected(5), "g is a int, not a Graph"),
    (lambda: mostar.distance_rows(5, [0]), "g is a int, not a Graph"),
    (lambda: dump_graph(5, "json"), "g is a int, not a Graph"),
    (lambda: dump_graph(5, "edgelist"), "g is a int, not a Graph"),
    (lambda: dump_graph(path_graph(2), 5), "unknown graph format 5"),
    (lambda: vertex_orientation(5, (0, 1)), "g is a int, not a Graph"),
    (lambda: edge_orientation(None, (0, 1)), "g is a NoneType, not a Graph"),
    (lambda: MonomerHandle("g", 0), "graph is a str, not a Graph"),
    (lambda: graphs.Graph(2, [[0, 1]]), "ends is a list, not a ndarray"),
    (lambda: generate("hex-para"), "spec is a str, not a FamilySpec"),
    (lambda: mostar.family_counts("hex-para"), "spec is a str, not a FamilySpec"),
    (lambda: formula_value("hex-para", "mostar"), "spec is a str, not a FamilySpec"),
    (lambda: mostar.check_bounds(5, "link-upper"), "spec is a int, not a PolymerSpec"),
    (lambda: mostar.check_bounds(PolymerSpec("link", (MonomerHandle(path_graph(2), 0),) * 2),
                                 ["x"]), "which is a list, not a str"),
    (lambda: mostar.check_bounds(PolymerSpec("link", (MonomerHandle(path_graph(2), 0),) * 2),
                                 "x"), "unknown bound 'x'"),
    (lambda: mostar.spec_to_dict(5), "spec is a int, not a PolymerSpec"),
    (lambda: mostar.parse_graph(5), "text is a int, not a str"),
    (lambda: parse_graph(None), "text is a NoneType, not a str"),
    (lambda: mostar.spec_from_json(5), "text is a int, not a str"),
], ids=["index_report-None", "index_reports-None", "index_reports-int", "blocks-int",
        "compose-None", "is_connected-int", "distance_rows-int", "dump_graph-int",
        "dump_graph-edgelist-int", "dump_graph-format-int", "vertex_orientation-int",
        "edge_orientation-None", "MonomerHandle-str", "Graph-list", "generate-str",
        "family_counts-str", "formula_value-str", "check_bounds-int", "check_bounds-which-list",
        "check_bounds-which-unknown", "spec_to_dict-int", "parse_graph-int", "parse_graph-None",
        "spec_from_json-int"])
def test_entry_point_names_its_bad_argument(call, message):
    """Each used to raise a bare AttributeError or TypeError."""
    with pytest.raises(GraphError) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize("name,field", [("mostar_index", "mostar"),
                                        ("edge_mostar_index", "edge_mostar"),
                                        ("wiener_index", "wiener")])
def test_bench_stage_wrapper_agrees_with_index_report(name, field):
    """The benchmark's stage replay calls these three by name from ``indices``,
    which no longer exports them to the package."""
    wrapper = getattr(indices, name)
    assert not hasattr(mostar, name)
    for g in (t2(), path_graph(5), cycle_graph(7), complete_graph(5),
              generate(FamilySpec("clique-flower", m=3, inner=4)).graph):
        assert wrapper(g) == getattr(index_report(g), field)
    with pytest.raises(NotConnected):
        wrapper(from_edge_list(4, [(0, 1), (2, 3)]))


def test_deep_block_in_a_batch_takes_the_rows_pass():
    deep = permute_graph(chorded_cycle(300, 50), random.Random(5).sample(range(300), 300))
    graphs = [path_graph(4), deep, t2(), complete_graph(5)]
    passes = []
    real = indices._row_tables

    def spy(a, ends):
        passes.append(a.shape[0])
        return real(a, ends)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indices, "_row_tables", spy)
        unions = spy_on_batches(mp)
        reports = list(index_reports(graphs))
    assert unions == [4] and passes == [300]  # one batch, built and read alike
    for g, r in zip(graphs, reports):
        alone = index_report(g)
        assert r == alone and r.vertex_diffs.tolist() == alone.vertex_diffs.tolist()
        assert r.edge_diffs.tolist() == alone.edge_diffs.tolist()


@pytest.mark.parametrize("bad", [
    from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
    from_edge_list(3, [(0, 1)])], ids=["dfs-misses-a-vertex", "too-few-edges"])
def test_disconnected_graph_in_a_batch(bad):
    with pytest.raises(NotConnected, match=f"^graph with {bad.n} vertices is not connected$"):
        list(index_reports([path_graph(3), bad, complete_graph(4)]))


def test_exact_sums_beyond_int64():
    values = np.array([2 ** 62] * 3 + [5], dtype=np.int64)
    assert indices._exact_sums(values, [0, 3, 3, 4]) == [3 * 2 ** 62, 0, 5]
    assert indices._exact_sums(values[3:], [0, 0, 1]) == [0, 5]


@pytest.mark.parametrize("copies", [1, 2])
def test_block_share_past_int64_is_exact(copies):
    """An 8-cycle block whose every vertex weighs 2^30, alone or twice in one
    layout: each block's twice-Wiener share is 8 * 2^30 * (16 * 2^30) =
    2^67, past int64, and comes out exact (int64 row sums gave 0)."""
    ring = np.array([[i, (i + 1) % 8] for i in range(8)])
    at = np.arange(copies + 1) * 8
    parts = graphs.Blocks(at, np.arange(8 * copies), np.full(8 * copies, 1 << 30),
                          np.zeros(8 * copies, np.int64), at, np.arange(8 * copies),
                          np.tile(ring, (copies, 1)), np.zeros(copies, np.int64))
    (r,) = indices._reports(parts, [0, copies], [0, 8 * copies])
    assert r.wiener == copies << 66
    assert r.mostar == r.edge_mostar == 0


@pytest.mark.parametrize("monomer,tables", [(complete_graph(60), "_level_tables"),
                                            (cycle_graph(60), "_row_tables")],
                         ids=["K60-levels", "C60-rows"])
def test_chain_of_repeated_large_blocks_runs_one_probe(monomer, tables):
    """A chain of 200 K60 or 200 C60 is 200 blocks of one layout: one probe
    and one sums call, which takes all their weights and hanging counts at
    once from one source of distance tables (the bit levels for K60, the
    BFS rows for C60), give the report of the DFS's 200 blocks of their own
    layouts, one probe each."""
    g = compose(PolymerSpec("chain", (MonomerHandle(monomer, 0, 1),) * 200)).graph
    probes, passes, sources = [], [], []
    shallow, sums, source = indices._shallow, indices._transmissions, getattr(indices, tables)

    def spy_probe(adj):
        probes.append(len(adj[0]) - 1)
        return shallow(adj)

    def spy_sums(n, ends, weights, hanging):
        passes.append(weights.shape)
        return sums(n, ends, weights, hanging)

    def spy_source(adj, ends):
        sources.append(len(ends))
        return source(adj, ends)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indices, "_shallow", spy_probe)
        mp.setattr(indices, "_transmissions", spy_sums)
        mp.setattr(indices, tables, spy_source)
        r = index_report(g)
        assert probes == [60] and sources == [monomer.m] and passes == [(200, 60)]
        want = index_report(graphs.Graph(g.n, g.ends))
    assert probes[1:] == [60] * 200 and sources[1:] == [monomer.m] * 200
    assert passes[1:] == [(1, 60)] * 200
    assert r == want and r.vertex_diffs.tolist() == want.vertex_diffs.tolist()
    assert r.edge_diffs.tolist() == want.edge_diffs.tolist()


@st.composite
def repeated_block_specs(draw):
    """1-4 specs of any kind over a pool of 1-3 handles that they reuse, so
    blocks repeat within and across specs: links add K2 bridges, circuits
    cycles of equal or unequal k, and a pool handle may be a one-block
    monomer or a block above ``_FLOYD_MAX`` vertices, a clique (the level
    pass) or a cycle (the rows pass)."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(["small", "clique", "cycle"]))
        g = (complete_graph(draw(st.integers(49, 50))) if shape == "clique" else
             cycle_graph(draw(st.integers(49, 52))) if shape == "cycle" else
             draw(one_block_monomers(min_n=2)))
        x = draw(st.integers(0, g.n - 1))
        pool.append(MonomerHandle(g, x, (x + draw(st.integers(1, g.n - 1))) % g.n))
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(KINDS))
        k = draw(st.integers(3 if kind == "circuit" else 1, 5))
        tree = [(draw(st.integers(0, b - 1)), 0, b, 0)
                for b in range(1, k if kind == "tree" else 1)]
        specs.append(PolymerSpec(kind, [draw(st.sampled_from(pool)) for _ in range(k)], tree))
    return specs


@settings(deadline=None, max_examples=40)
@given(repeated_block_specs())
def test_shared_layouts_change_no_report(specs):
    """A union of constructions that repeat blocks gives the same reports,
    per-edge diffs included, with its own layouts as with every block of
    its own layout (``layout = arange``)."""
    union = _compose_all(specs)
    parts, block_at = union.blocks()
    assert union.graph.parts is not None
    check_layouts(parts)
    apart = parts._replace(layout=np.arange(len(parts.layout)))
    for r, want in zip(_reports(parts, block_at, union.edge_at),
                       _reports(apart, block_at, union.edge_at), strict=True):
        assert r == want
        assert r.vertex_diffs.tolist() == want.vertex_diffs.tolist()
        assert r.edge_diffs.tolist() == want.edge_diffs.tolist()


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
