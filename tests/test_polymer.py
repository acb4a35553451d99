import json
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mostar
from mostar import (KINDS, CompositionResult, DegenerateHandles, GraphError,
                    MonomerHandle, NotATree, NotConnected, PolymerSpec,
                    TooFewMonomers, VertexOutOfRange, complete_graph, compose,
                    cycle_graph, from_edge_list, index_report, index_reports,
                    is_connected, path_graph, spec_from_json, spec_to_dict)
from mostar.indices import _reports
from mostar.polymer import _compose_all

from conftest import (one_block_specs, polymer_specs, random_connected_graph,
                      reference_assemble, reference_slot_pairs)

K1 = complete_graph(1)
K2 = complete_graph(2)
K3 = complete_graph(3)


class TestHandles:
    def test_y_defaults_to_x(self):
        h = MonomerHandle(K3, 2)
        assert h.y == 2

    def test_vertex_range(self):
        with pytest.raises(VertexOutOfRange):
            MonomerHandle(K3, 3)
        with pytest.raises(VertexOutOfRange):
            MonomerHandle(K3, 0, 5)

    @pytest.mark.parametrize("x,y", [(1.5, None), (None, None), (True, None), (1, 2.0),
                                     (0, False), ("1", None)],
                             ids=["float-x", "none-x", "bool-x", "float-y", "bool-y", "str-x"])
    def test_vertex_not_an_integer(self, x, y):
        """1.5 used to compose like 1, and None raised a bare TypeError."""
        with pytest.raises(VertexOutOfRange):
            MonomerHandle(path_graph(4), x, y)

    def test_numpy_integer_vertices(self):
        h = MonomerHandle(path_graph(4), np.int64(1), np.int32(3))
        assert compose(PolymerSpec("link", (h, h))).graph.m == 7

    def test_monomer_must_be_connected(self):
        with pytest.raises(NotConnected):
            MonomerHandle(from_edge_list(3, [(0, 1)]), 0)

    def test_vertex_of_more_digits_than_int_prints(self):
        """Formatting the message used to raise a bare ValueError (4300 digits)."""
        with pytest.raises(VertexOutOfRange, match=r"^vertex <an integer of more than 4300 "):
            MonomerHandle(K3, 10 ** 5000)


class TestPointAttach:
    # point-attaching a at va and b at vb is the chain of the two monomers
    def test_two_edges_make_a_path(self):
        res = compose(PolymerSpec("chain", (MonomerHandle(K2, 1), MonomerHandle(K2, 0))))
        assert res.graph == path_graph(3)
        assert res.vertex_map[(0, 1)] == res.vertex_map[(1, 0)]

    def test_two_triangles(self):
        res = compose(PolymerSpec("chain", (MonomerHandle(K3, 0), MonomerHandle(K3, 2))))
        assert (res.graph.n, res.graph.m) == (5, 6)

    def test_identity_monomer(self):
        g = cycle_graph(5)
        res = compose(PolymerSpec("chain", (MonomerHandle(K1, 0), MonomerHandle(g, 3))))
        assert (res.graph.n, res.graph.m) == (g.n, g.m)
        assert index_report(res.graph) == index_report(g)

    def test_counts(self):
        a, b = cycle_graph(4), complete_graph(4)
        res = compose(PolymerSpec("chain", (MonomerHandle(a, 2), MonomerHandle(b, 1))))
        assert res.graph.n == a.n + b.n - 1
        assert res.graph.m == a.m + b.m

    def test_map_surjective_and_merging(self):
        res = compose(PolymerSpec("chain", (MonomerHandle(K3, 1), MonomerHandle(K3, 0))))
        assert set(res.vertex_map.values()) == set(range(res.graph.n))
        merged = [s for s, cid in res.vertex_map.items()
                  if cid == res.vertex_map[(0, 1)]]
        assert sorted(merged) == [(0, 1), (1, 0)]


class TestLink:
    def test_two_k2_make_p4(self):
        res = compose(PolymerSpec("link", (MonomerHandle(K2, 0, 1), MonomerHandle(K2, 0, 1))))
        assert res.graph == path_graph(4)

    def test_single_monomer_unchanged(self):
        res = compose(PolymerSpec("link", (MonomerHandle(K3, 0, 1),)))
        assert res.graph == K3

    def test_two_triangles_one_bridge(self):
        res = compose(PolymerSpec("link", (MonomerHandle(K3, 0, 1), MonomerHandle(K3, 0, 1))))
        g = res.graph
        assert (g.n, g.m) == (6, 7)
        bridges = [e for e in g.edges
                   if not is_connected(from_edge_list(g.n, [f for f in g.edges if f != e]))]
        assert len(bridges) == 1

    def test_every_added_edge_is_a_bridge(self):
        rng = random.Random(3)
        handles = [MonomerHandle(random_connected_graph(rng, rng.randrange(2, 6)), 0, 1)
                   for _ in range(4)]
        res = compose(PolymerSpec("link", tuple(handles)))
        g = res.graph
        monomer_edges = {tuple(sorted((res.vertex_map[(i, u)], res.vertex_map[(i, v)])))
                         for i, h in enumerate(handles) for u, v in h.graph.edges}
        added = [e for e in g.edges if e not in monomer_edges]
        assert len(added) == len(handles) - 1
        for e in added:
            assert not is_connected(
                from_edge_list(g.n, [f for f in g.edges if f != e]))


class TestChain:
    def test_two_triangles(self):
        res = compose(PolymerSpec("chain", (MonomerHandle(K3, 0, 1),) * 2))
        assert (res.graph.n, res.graph.m) == (5, 6)

    def test_single(self):
        assert compose(PolymerSpec("chain", (MonomerHandle(K3, 0, 2),))).graph == K3

    def test_para_squares(self):
        res = compose(PolymerSpec("chain", (MonomerHandle(cycle_graph(4), 0, 2),) * 2))
        assert (res.graph.n, res.graph.m) == (7, 8)

    def test_interior_degenerate_handles(self):
        ok = MonomerHandle(K3, 0, 1)
        bad = MonomerHandle(K3, 2, 2)
        with pytest.raises(DegenerateHandles):
            compose(PolymerSpec("chain", (ok, bad, ok)))
        # ends may use a single vertex
        compose(PolymerSpec("chain", (bad, ok)))
        compose(PolymerSpec("chain", (ok, bad)))


class TestBouquet:
    def test_three_k2_make_star(self):
        res = compose(PolymerSpec("bouquet", (MonomerHandle(K2, 0),) * 3))
        assert res.graph == from_edge_list(4, [(0, 1), (0, 2), (0, 3)])

    def test_single(self):
        single = PolymerSpec("bouquet", (MonomerHandle(cycle_graph(4), 3),))
        assert compose(single).graph == cycle_graph(4)

    def test_friendship_counts(self):
        for m in (2, 3, 5):
            res = compose(PolymerSpec("bouquet", (MonomerHandle(K3, 0),) * m))
            assert (res.graph.n, res.graph.m) == (2 * m + 1, 3 * m)


class TestCircuit:
    def test_bare_cycles(self):
        assert compose(PolymerSpec("circuit", (MonomerHandle(K1, 0),) * 3)).graph == cycle_graph(3)
        assert compose(PolymerSpec("circuit", (MonomerHandle(K1, 0),) * 4)).graph == cycle_graph(4)

    def test_three_triangles(self):
        res = compose(PolymerSpec("circuit", (MonomerHandle(K3, 0),) * 3))
        assert (res.graph.n, res.graph.m) == (9, 12)

    def test_too_few(self):
        with pytest.raises(TooFewMonomers):
            compose(PolymerSpec("circuit", (MonomerHandle(K3, 0),) * 2))

    def test_attachment_vertices_induce_cycle(self):
        handles = [MonomerHandle(cycle_graph(4), 1)] * 5
        res = compose(PolymerSpec("circuit", tuple(handles)))
        hubs = [res.vertex_map[(i, 1)] for i in range(5)]
        for i in range(5):
            assert res.graph.has_edge(hubs[i], hubs[(i + 1) % 5])


class TestTreeAttach:
    def test_star_spec_equals_bouquet(self):
        handles = tuple(MonomerHandle(K3, 1) for _ in range(4))
        tree = tuple((0, 1, i, 1) for i in range(1, 4))
        via_tree = compose(PolymerSpec("tree", handles, tree))
        via_bouquet = compose(PolymerSpec("bouquet", handles))
        assert via_tree.graph == via_bouquet.graph

    def test_path_spec_equals_chain(self):
        handles = tuple(MonomerHandle(cycle_graph(4), 0, 2) for _ in range(3))
        tree = tuple((i, 2, i + 1, 0) for i in range(2))
        via_tree = compose(PolymerSpec("tree", handles, tree))
        via_chain = compose(PolymerSpec("chain", handles))
        r1, r2 = index_report(via_tree.graph), index_report(via_chain.graph)
        assert (via_tree.graph.n, via_tree.graph.m) == (via_chain.graph.n, via_chain.graph.m)
        assert r1 == r2

    def test_three_triangles_in_a_path(self):
        handles = tuple(MonomerHandle(K3, 0, 1) for _ in range(3))
        tree = ((0, 1, 1, 0), (1, 1, 2, 0))
        res = compose(PolymerSpec("tree", handles, tree))
        assert (res.graph.n, res.graph.m) == (7, 9)

    def test_not_a_tree(self):
        handles = tuple(MonomerHandle(K3, 0, 1) for _ in range(3))
        with pytest.raises(NotATree):
            compose(PolymerSpec("tree", handles, ((0, 0, 1, 0),)))
        with pytest.raises(NotATree):
            compose(PolymerSpec(
                "tree", handles, ((0, 0, 1, 0), (1, 1, 0, 1))))
        with pytest.raises(NotATree):
            compose(PolymerSpec(
                "tree", handles, ((0, 0, 0, 1), (1, 0, 2, 0))))


@pytest.mark.parametrize("kind,monomers,tree,error,message", [
    ("circuit", (MonomerHandle(K3, 0),) * 2, (), TooFewMonomers,
     "circuit needs at least 3 monomers, got 2"),
    ("chain", (MonomerHandle(K3, 0, 1), MonomerHandle(K3, 2, 2), MonomerHandle(K3, 0, 1)), (),
     DegenerateHandles, "interior chain monomer 1 has x == y == 2"),
    ("tree", (MonomerHandle(K3, 0),) * 3, ((0, 0, 1, 0),), NotATree,
     "3 monomers need 2 tree edges, got 1"),
    ("tree", (MonomerHandle(K3, 0),) * 3, ((0, 0, 1, 0), (1, 1, 0, 1)), NotATree,
     "tree edges form a cycle through monomers 1 and 0"),
    ("tree", (MonomerHandle(K3, 0),) * 2, ((0, 0, 2, 0),), NotATree,
     "monomer index 2 out of range"),
    ("tree", (MonomerHandle(K3, 0),) * 2, ((0, 0, 1, 3),), VertexOutOfRange,
     "vertex 3 out of range for n=3"),
    ("tree", (MonomerHandle(K3, 0),) * 2, ((0, 2.7, 1, 0),), VertexOutOfRange,
     "vertex 2.7 out of range for n=3"),
    ("tree", (MonomerHandle(K3, 0),) * 2, ((0, 0, 1, True),), VertexOutOfRange,
     "vertex True out of range for n=3"),
    ("tree", (MonomerHandle(K3, 0),) * 2, ((0.0, 2, 1, 0),), NotATree,
     "monomer index 0.0 out of range"),
    ("tree", (MonomerHandle(K3, 0),) * 2, ((0, 2, True, 0),), NotATree,
     "monomer index True out of range"),
    ("tree", (MonomerHandle(K3, 0),) * 2, (5,), NotATree,
     "tree edge 5 must have 4 entries [monomer a, vertex in a, monomer b, vertex in b]"),
    ("link", (path_graph(4), path_graph(4)), (), GraphError,
     "monomer 0 is a Graph, not a MonomerHandle"),
    ("bouquet", (MonomerHandle(K3, 0), MonomerHandle(K3, 0), K3, MonomerHandle(K3, 0), K3), (),
     GraphError, "monomer 2 is a Graph, not a MonomerHandle"),
    ("link", (K3,) * 3, (), GraphError, "monomer 0 is a Graph, not a MonomerHandle"),
    ("chain", (MonomerHandle(K3, 2, 2), MonomerHandle(K3, 0, 1)) * 3, (), DegenerateHandles,
     "interior chain monomer 2 has x == y == 2"),
    ("chain", (MonomerHandle(K3, 1, 1),) * 4, (), DegenerateHandles,
     "interior chain monomer 1 has x == y == 1"),
    ("link", 5, (), GraphError, "monomers must be iterable, got 5"),
    ("tree", (MonomerHandle(K3, 0),) * 2, None, GraphError,
     "tree_edges must be iterable, got None"),
    ("tree", (MonomerHandle(K3, 0),) * 2, 7, GraphError, "tree_edges must be iterable, got 7"),
], ids=["circuit-of-2", "degenerate-interior", "too-few-edges", "cycle",
        "monomer-out-of-range", "vertex-out-of-range", "float-vertex", "bool-vertex",
        "float-monomer", "bool-monomer", "tree-edge-not-a-sequence", "bare-graph-monomer",
        "repeated-graph-monomer", "one-graph-repeated", "repeated-degenerate-interior",
        "one-degenerate-handle-repeated", "monomers-not-iterable", "tree-edges-none",
        "tree-edges-not-iterable"])
def test_invalid_spec_fails_at_construction(kind, monomers, tree, error, message):
    """Every check of a kind runs when the spec is made, so no spec that
    exists fails in ``compose``.  A bad monomer that repeats is named at its
    first index, where the check may run once per handle."""
    with pytest.raises(error) as caught:
        PolymerSpec(kind, monomers, tree)
    assert str(caught.value) == message


def test_spec_from_generators_equals_spec_from_tuples():
    handles = (MonomerHandle(K3, 0), MonomerHandle(K3, 1), MonomerHandle(K3, 2))
    tree = ((0, 1, 1, 0), (1, 2, 2, 0))
    spec = PolymerSpec("tree", (h for h in handles), (e for e in tree))
    assert spec == PolymerSpec("tree", handles, tree)
    assert compose(spec).graph == compose(PolymerSpec("tree", handles, tree)).graph


@settings(deadline=None, max_examples=60)
@given(polymer_specs(), st.booleans())
def test_spec_json_round_trip(spec, from_numpy):
    """A spec survives ``json.dumps`` and comes back equal, also when it was
    built from numpy integers: handles and tree edges hold Python ints."""
    if from_numpy:
        spec = PolymerSpec(
            spec.kind, tuple(MonomerHandle(h.graph, np.int64(h.x), np.int32(h.y))
                             for h in spec.monomers),
            tuple(tuple(np.int64(v) for v in e) for e in spec.tree_edges))
    assert spec_from_json(json.dumps(spec_to_dict(spec))) == spec


H2 = MonomerHandle(K2, 0, 1)


@pytest.mark.parametrize("kind,monomers,tree", [
    ("link", [H2, H2], ()), ("link", (H2, H2), []), ("tree", [H2, H2], [[0, 1, 1, 0]])],
    ids=["list-of-monomers", "empty-list-of-tree-edges", "tree-edges-as-lists"])
def test_spec_containers_are_stored_as_tuples(kind, monomers, tree):
    """A spec made from lists used to keep them, and hash() of it raised."""
    spec = PolymerSpec(kind, monomers, tree)
    assert all(type(x) is tuple for x in (spec.monomers, spec.tree_edges, *spec.tree_edges))
    assert hash(spec) == hash(PolymerSpec(kind, (H2, H2), tuple(map(tuple, tree))))


class TestSpecJson:
    def test_round_trip(self):
        spec = PolymerSpec("link", (MonomerHandle(K3, 0, 1), MonomerHandle(K2, 0, 1)))
        again = spec_from_json(json.dumps(spec_to_dict(spec)))
        assert compose(again).graph == compose(spec).graph

    def test_tree_round_trip(self):
        spec = PolymerSpec("tree", (MonomerHandle(K3, 0), MonomerHandle(K2, 0)),
                           ((0, 0, 1, 0),))
        again = spec_from_json(json.dumps(spec_to_dict(spec)))
        assert compose(again).graph == compose(spec).graph

    def test_invalid(self):
        with pytest.raises(GraphError):
            spec_from_json(json.dumps({"monomers": []}))
        with pytest.raises(GraphError):
            spec_from_json(json.dumps({"kind": "link", "monomers": [
                {"graph": {"n": 2, "edges": [[0, 1]]}, "y": 1}]}))
        with pytest.raises(GraphError):
            PolymerSpec("ring", (MonomerHandle(K2, 0),))
        with pytest.raises(GraphError):
            PolymerSpec("link", ())

    def test_integer_of_more_digits_than_int_converts(self):
        """json.loads used to raise a bare ValueError."""
        text = '{"kind": "link", "monomers": [], "x": ' + "1" * 5000 + "}"
        with pytest.raises(GraphError) as caught:
            spec_from_json(text)
        assert str(caught.value) == "invalid polymer spec JSON: an integer has too many digits"

    def test_monomer_graph_of_bad_json(self):
        with pytest.raises(GraphError, match="^invalid graph JSON: "):
            spec_from_json(json.dumps(
                {"kind": "link", "monomers": [{"graph": '{"n": 2,', "x": 0}]}))

    @pytest.mark.parametrize("monomers", [{"a": 1}, [5], "K2", None])
    def test_monomers_not_an_array_of_objects(self, monomers):
        with pytest.raises(GraphError, match=r"^polymer spec 'monomers' must be an "
                                             r"array of objects$"):
            spec_from_json(json.dumps({"kind": "link", "monomers": monomers}))


def _random_handles(rng, count, min_n=2):
    out = []
    for _ in range(count):
        g = random_connected_graph(rng, rng.randrange(min_n, 7))
        x = rng.randrange(g.n)
        y = rng.randrange(g.n)
        while g.n > 1 and y == x:
            y = rng.randrange(g.n)
        out.append(MonomerHandle(g, x, y))
    return out


@settings(deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False), st.integers(1, 5),
       st.sampled_from(["link", "chain", "bouquet", "circuit"]))
def test_count_formulas_and_connectivity(rnd, k, kind):
    rng = random.Random(rnd.random())
    if kind == "circuit":
        k = max(k, 3)
    handles = _random_handles(rng, k)
    total_v = sum(h.graph.n for h in handles)
    total_e = sum(h.graph.m for h in handles)
    if kind == "link":
        res = compose(PolymerSpec("link", tuple(handles)))
        expected = (total_v, total_e + k - 1)
    elif kind == "chain":
        res = compose(PolymerSpec("chain", tuple(handles)))
        expected = (total_v - (k - 1), total_e)
    elif kind == "bouquet":
        res = compose(PolymerSpec("bouquet", tuple(handles)))
        expected = (total_v - (k - 1), total_e)
    else:
        res = compose(PolymerSpec("circuit", tuple(handles)))
        expected = (total_v, total_e + k)
    assert (res.graph.n, res.graph.m) == expected
    assert is_connected(res.graph)
    assert set(res.vertex_map.values()) == set(range(res.graph.n))


@settings(deadline=None, max_examples=25)
@given(st.randoms(use_true_random=False), st.integers(2, 5))
def test_chain_equals_tree_attach_path(rnd, k):
    rng = random.Random(rnd.random())
    handles = tuple(_random_handles(rng, k))
    tree = tuple((i, handles[i].y, i + 1, handles[i + 1].x) for i in range(k - 1))
    via_chain = compose(PolymerSpec("chain", handles))
    via_tree = compose(PolymerSpec("tree", handles, tree))
    assert index_report(via_chain.graph) == index_report(via_tree.graph)


def test_composition_vertex_takes_numpy_integers():
    res = compose(PolymerSpec("link", (MonomerHandle(cycle_graph(3), 0),) * 2))
    assert res.vertex(np.int64(1), np.int32(0)) == res.vertex_map[(1, 0)] == 3


@pytest.mark.parametrize("i,v,error,message", [
    (0, 3, VertexOutOfRange, "vertex 3 out of range for n=3"),
    (0, -1, VertexOutOfRange, "vertex -1 out of range for n=3"),
    (0, "a", VertexOutOfRange, "vertex a out of range for n=3"),
    (0, 1.0, VertexOutOfRange, "vertex 1.0 out of range for n=3"),
    (2, 0, GraphError, "monomer index 2 out of range for k=2"),
    (-1, 0, GraphError, "monomer index -1 out of range for k=2"),
    (True, 0, GraphError, "monomer index True out of range for k=2"),
    (None, 0, GraphError, "monomer index None out of range for k=2"),
], ids=["past-the-monomer", "negative-vertex", "str-vertex", "float-vertex",
        "past-the-last-monomer", "negative-monomer", "bool-monomer", "none-monomer"])
def test_composition_vertex_checks_its_slot(i, v, error, message):
    """vertex(0, 3) used to give monomer 1's vertex 0 and vertex(0, -1) the
    last slot; a bad monomer or a str vertex raised a bare numpy error."""
    res = compose(PolymerSpec("link", (MonomerHandle(cycle_graph(3), 0),) * 2))
    with pytest.raises(GraphError) as caught:
        res.vertex(i, v)
    assert type(caught.value) is error and str(caught.value) == message


def assert_matches_reference(spec):
    """compose(spec) against the dict union-find over the reference slot pairs."""
    res = compose(spec)
    graphs = [h.graph for h in spec.monomers]
    n, edges, vertex_map = reference_assemble(graphs, *reference_slot_pairs(spec))
    assert (res.graph.n, res.graph.edges) == (n, edges)
    assert list(res.vertex_map.items()) == list(vertex_map.items())
    assert res.ids.tolist() == list(vertex_map.values())
    assert res.starts.tolist() == np.cumsum([0] + [g.n for g in graphs]).tolist()
    assert all(res.vertex(i, v) == cid for (i, v), cid in vertex_map.items())


@settings(deadline=None, max_examples=150)
@given(polymer_specs(min_monomers=1))
def test_compose_matches_the_reference_union_find(spec):
    """Every kind, one monomer and a tree without edges included."""
    assert_matches_reference(spec)


def test_long_chain_and_shared_tree_slots_match_the_reference():
    hexagon = MonomerHandle(cycle_graph(6), 0, 2)
    assert_matches_reference(PolymerSpec("chain", (hexagon,) * 40))
    # slot (1, 0) is in three tree edges and slot (0, 0) in two: one class of five slots
    tree = ((1, 0, 0, 0), (2, 1, 1, 0), (0, 0, 3, 2), (1, 0, 4, 1), (4, 2, 5, 0))
    assert_matches_reference(PolymerSpec("tree", (hexagon,) * 6, tree))
    for kind in ("link", "chain", "bouquet", "tree"):  # one monomer; no tree edges
        assert_matches_reference(PolymerSpec(kind, (hexagon,)))


def check_monomer_slots_only(spec):
    """The result keeps only the monomer slots, whatever units ``compose``
    added after them."""
    res = compose(spec)
    sizes = [h.graph.n for h in spec.monomers]
    assert len(res.ids) == sum(sizes) and len(res.starts) == len(sizes) + 1
    assert list(res.vertex_map) == [(i, v) for i, n in enumerate(sizes) for v in range(n)]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["link", "circuit"]).flatmap(
    lambda kind: polymer_specs(min_monomers=3 if kind == "circuit" else 1).filter(
        lambda spec: spec.kind == kind)))
def test_bridges_and_cycle_units_keep_only_monomer_slots(spec):
    check_monomer_slots_only(spec)


@pytest.mark.parametrize("kind", ["link", "circuit"])
def test_units_with_k1_monomers_keep_only_monomer_slots(kind):
    monomers = (MonomerHandle(K1, 0), MonomerHandle(cycle_graph(4), 1, 3), MonomerHandle(K1, 0),
                MonomerHandle(K2, 1, 0))
    check_monomer_slots_only(PolymerSpec(kind, monomers))
    g = compose(PolymerSpec(kind, monomers)).graph
    assert (g.n, g.m) == (8, 5 + (3 if kind == "link" else 4))


def test_tree_star_on_the_last_monomer_composes_fast():
    """20,000 one-vertex monomers, each attached to the last: every pair shares
    the larger root, so hooking one root per round would take 20,000 rounds."""
    k = 20_000
    spec = PolymerSpec("tree", (MonomerHandle(K1, 0),) * k,
                       tuple((i, 0, k - 1, 0) for i in range(k - 1)))
    start = time.perf_counter()
    res = compose(spec)
    assert time.perf_counter() - start < 1.0
    assert (res.graph.n, res.graph.m) == (1, 0)
    assert res.vertex_map == {(i, 0): 0 for i in range(k)}


def test_one_way_in():
    """``compose`` and ``generate`` are the only construction entry points."""
    for name in ("build_link", "build_chain", "build_bouquet", "build_circuit",
                 "build_tree_attach", "gen_clique_flower", "gen_triangulane",
                 "gen_triangulane_aux"):
        assert not hasattr(mostar, name)
        assert not hasattr(mostar.polymer, name) and not hasattr(mostar.families, name)
    assert not hasattr(mostar.polymer, "_COMPOSERS") and not hasattr(mostar.polymer, "_assemble")


@pytest.mark.parametrize("kind,monomer", [
    *((kind, cycle_graph(4)) for kind in ("link", "chain", "bouquet", "circuit", "tree")),
    ("link", path_graph(3)),  # two blocks: the composite's come from the DFS
])
def test_composition_ids_and_starts_are_read_only(kind, monomer):
    tree = ((0, 0, 1, 1), (1, 2, 2, 0)) if kind == "tree" else ()
    res = compose(PolymerSpec(kind, (MonomerHandle(monomer, 0, 2),) * 3, tree))
    for a in (res.ids, res.starts):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 7


@pytest.mark.parametrize("ids,starts,field", [
    (np.array([], dtype=np.int64), np.array([0, 5]), "ids"),
    (np.array([0, 1]), np.array([0, 2, 1]), "starts"),
    (np.array([0.5, 1.0]), np.array([0, 2]), "ids"),
    (np.array([7, 9]), np.array([0, 2]), "ids"),
], ids=["ids-shorter-than-starts", "starts-decrease", "float-ids", "ids-past-the-graph"])
def test_composition_result_checks_ids_and_starts(ids, starts, field):
    """Each was taken as given: vertex(0, 1) raised a bare IndexError or
    returned 9, vertex_map a bare ValueError or float ids."""
    with pytest.raises(GraphError, match=f"^{field} "):
        CompositionResult(path_graph(2), ids, starts)


@st.composite
def composite_specs(draw):
    """A spec whose 1-3 monomers are one composite, a ``one_block_specs``
    spec's, which carries its construction's blocks: one or many."""
    g = compose(draw(one_block_specs())).graph
    kind = draw(st.sampled_from(KINDS if g.n > 1 else ("link", "bouquet", "circuit", "tree")))
    x = draw(st.integers(0, g.n - 1))
    handle = MonomerHandle(g, x, (x + draw(st.integers(1, g.n - 1))) % g.n if g.n > 1 else x)
    k = draw(st.integers(3 if kind == "circuit" else 1, 3))
    tree = [(draw(st.integers(0, b - 1)), draw(st.integers(0, g.n - 1)), b,
             draw(st.integers(0, g.n - 1))) for b in range(1, k if kind == "tree" else 1)]
    return PolymerSpec(kind, (handle,) * k, tree)


def renumbered(layout):
    """Each entry's index of the first entry equal to it."""
    first = {}
    return [first.setdefault(x, i) for i, x in enumerate(layout.tolist())]


def spec_slices(spec, union, j, unit):
    """Spec j's own ``(ends, ids, starts, blocks)`` in ``union``, shifted
    back, its units starting at ``unit``; each block's layout as the first
    of spec j's blocks that shares it in the union."""
    lo, k = union.vertex_at[j], len(spec.monomers)
    ends = union.graph.ends[union.edge_at[j]:union.edge_at[j + 1]] - lo
    first = union.starts[unit]
    ids = union.ids[first:union.starts[unit + k]] - lo
    parts, known = None, union.graph.parts
    if known is not None:
        b0, b1 = union.block_at[j], union.block_at[j + 1]
        vs, es = known.vertex_start, known.edge_start
        parts = (vs[b0:b1 + 1] - vs[b0], known.vertices[vs[b0]:vs[b1]] - lo,
                 known.weights[vs[b0]:vs[b1]], known.hanging[vs[b0]:vs[b1]],
                 es[b0:b1 + 1] - es[b0], known.edges[es[b0]:es[b1]] - union.edge_at[j],
                 known.local_ends[es[b0]:es[b1]], np.array(renumbered(known.layout[b0:b1])))
    return ends, ids, union.starts[unit:unit + k + 1] - first, parts


@settings(deadline=None, max_examples=150)
@given(st.lists(st.one_of(polymer_specs(min_monomers=1), one_block_specs(), composite_specs()),
                min_size=1, max_size=5), st.integers(0, 2))
def test_compose_all_is_compose_spec_by_spec(specs, repeats):
    """One union of specs of every kind, k = 1 and K1 monomers included,
    some specs twice, holds each spec as ``compose`` builds it alone and as
    the reference union-find does, and its blocks give the reports of the
    specs' graphs."""
    specs = specs + specs[:repeats]  # the same monomers in several specs
    union = _compose_all(specs)
    alone = [compose(s) for s in specs]
    unit = 0
    for j, (spec, res) in enumerate(zip(specs, alone)):
        ends, ids, starts, parts = spec_slices(spec, union, j, unit)
        assert ends.tolist() == res.graph.ends.tolist()
        assert ids.tolist() == res.ids.tolist() and starts.tolist() == res.starts.tolist()
        graphs = [h.graph for h in spec.monomers]
        n, edges, vertex_map = reference_assemble(graphs, *reference_slot_pairs(spec))
        assert union.vertex_at[j + 1] - union.vertex_at[j] == n
        assert list(map(tuple, ends.tolist())) == list(edges)
        assert ids.tolist() == list(vertex_map.values())
        if parts is not None:  # a union joins blocks only if every spec would alone
            assert all(a.tolist() == b.tolist()
                       for a, b in zip(parts, res.graph.parts, strict=True))
        k = len(spec.monomers)  # and a link's k - 1 bridges or a circuit's cycle
        unit += k + {"link": k - 1, "circuit": 1}.get(spec.kind, 0)
    if union.graph.parts is None:
        assert any(res.graph.parts is None for res in alone)
    reports = list(_reports(*union.blocks(), union.edge_at))
    for r, want in zip(reports, index_reports([res.graph for res in alone]), strict=True):
        assert r == want
        assert r.vertex_diffs.tolist() == want.vertex_diffs.tolist()
        assert r.edge_diffs.tolist() == want.edge_diffs.tolist()
