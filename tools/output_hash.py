"""Three sha256 digests of what ``mostar`` gives: totals and diffs, blocks,
and totals and diffs on ``verify``'s path.

The first hash covers, for every graph of a fixed set, its vertex and edge
counts, its three totals, and its vertex and edge diffs in ``g.ends``
order, all evaluated through ``index_reports``.  The second covers every
graph's blocks up to order and layout: each block as its sorted (vertex,
weight, hanging) triples and its sorted edge ids, the blocks sorted.  The
set:

* the 600 chains of ``verify`` (six chain families, n = 1..100)
* triangulanes and their building blocks, and clique flowers
* seeded random composites of every kind, from cycles, cliques (K1 and K2
  included), cycles with chords and random connected monomers
* the graphs of the four benchmark workloads at seeds 1 and 4242, as
  ``bench/workloads.py`` builds them
* outside ``--tiny``, deep blocks read from edge lists: relabelled cycles
  of 500-3,000 vertices with 0-3 chords, a relabelled 2 x 1,000 ladder,
  and a relabelled 800-cycle with 2 chords and trees of 400 vertices hung
  on it, whose block has nonzero hanging counts; scipy's BFS rows give
  their distances

The third hash covers the same counts, totals and diffs of polymers that
are never built as graphs, evaluated as ``verify`` evaluates one family's:
each batch composed as one union, whose blocks, the construction's where
it knows them, go straight to the engine.  The polymers are those of the
chain families, triangulanes and clique flowers above, and seeded random
specs over cycles, cliques and chorded cycles, each followed by a spec
that repeats one of its monomers 3-8 times, and, outside ``--tiny``,
seeded specs that repeat a handle on a cycle of 200-500 vertices 3-8
times, whose blocks share one deep layout.

Two checkouts that print the same hashes give the same numbers and the
same blocks on all of them.  Run from the repository root; ``--src`` picks
the checkout to measure, ``--tiny`` a small set that runs in a few
seconds::

    python tools/output_hash.py
    python tools/output_hash.py --src ../other-checkout/src
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
import tempfile
from itertools import groupby
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("link", "chain", "bouquet", "circuit", "tree")
SHAPES = ("cycle", "clique", "chorded", "random")  # of random monomers


def family_specs(mostar, tiny: bool):
    top, depth, petals = (4, 3, 3) if tiny else (100, 7, 6)
    for family in mostar.CHAIN_FAMILIES:
        for n in range(1, top + 1):
            yield mostar.FamilySpec(family, n=n)
    for family in ("triangulane-aux", "triangulane"):
        for n in range(1, depth + 1):
            yield mostar.FamilySpec(family, n=n)
    for m in range(1, petals + 1):
        for inner in range(1, petals + 1):
            yield mostar.FamilySpec("clique-flower", m=m, inner=inner)


def family_graphs(mostar, tiny: bool):
    for spec in family_specs(mostar, tiny):
        yield mostar.generate(spec).graph


def random_monomer(mostar, rng: random.Random, shapes=SHAPES):
    shape = rng.choice(shapes)
    if shape == "cycle":
        return mostar.cycle_graph(rng.randrange(3, 9))
    if shape == "clique":
        return mostar.complete_graph(rng.randrange(1, 6))
    n = rng.randrange(4, 10)
    if shape == "chorded":  # one block, given the DFS's blocks as if built with them
        pairs = {(i, (i + 1) % n) for i in range(n)}
        pairs |= {tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(1, 4))}
        perm = rng.sample(range(n), n)
        g = mostar.from_edge_list(n, {tuple(sorted((perm[a], perm[b]))) for a, b in pairs})
        return mostar.graphs.Graph(g.n, g.ends, mostar.blocks(g))
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    pairs |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randrange(n))}
    return mostar.from_edge_list(n, pairs)


def random_spec(mostar, rng: random.Random, shapes=SHAPES):
    """A spec of a random kind over 1-7 ``random_monomer``s of ``shapes``."""
    kind = rng.choice(KINDS)
    k = rng.randrange(3 if kind == "circuit" else 1, 8)
    handles = []
    for i in range(k):
        g = random_monomer(mostar, rng, shapes)
        while kind == "chain" and 0 < i < k - 1 and g.n < 2:
            g = random_monomer(mostar, rng, shapes)
        x = rng.randrange(g.n)
        y = rng.choice([v for v in range(g.n) if v != x] or [x])
        handles.append(mostar.MonomerHandle(g, x, y))
    tree = []
    for b in range(1, k if kind == "tree" else 1):
        a = rng.randrange(b)
        tree.append((a, rng.randrange(handles[a].graph.n), b,
                     rng.randrange(handles[b].graph.n)))
    return mostar.PolymerSpec(kind, tuple(handles), tuple(tree))


def random_composites(mostar, count: int):
    rng = random.Random(20260)
    for _ in range(count):
        yield mostar.compose(random_spec(mostar, rng)).graph


def one_block_composites(mostar, count: int):
    """Seeded random specs whose monomers are cycles, cliques and chorded
    cycles, each built with its one block (K1 with none), and specs that
    repeat one of them, so their unions are built with their blocks."""
    rng = random.Random(32)
    for _ in range(count):
        spec = random_spec(mostar, rng, SHAPES[:3])
        yield spec
        h = rng.choice(spec.monomers)
        kind = rng.choice(KINDS if h.x != h.y else ("link", "bouquet", "circuit", "tree"))
        k = rng.randrange(3, 9)
        yield mostar.PolymerSpec(kind, (h,) * k, tuple(
            (rng.randrange(b), rng.randrange(h.graph.n), b, rng.randrange(h.graph.n))
            for b in range(1, k if kind == "tree" else 1)))


def workload_graphs(mostar, tiny: bool):
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    with tempfile.TemporaryDirectory() as work:
        for name in workloads.SIZES:
            for seed in (1, 4242):
                w = workloads.Workload(name, seed, Path(work) / f"{name}-{seed}",
                                       "tiny" if tiny else "full")
                for n, edges in w.graphs:
                    yield mostar.from_edge_list(n, [tuple(e) for e in edges])


def deep_blocks(mostar):
    """Relabelled cycles with chords and a relabelled 2 x 1,000 ladder: each
    one deep block, found by the DFS."""
    rng = random.Random(31)
    shapes = []
    for _ in range(6):
        n = rng.randrange(500, 3001)
        pairs = {(i, (i + 1) % n) for i in range(n)}
        pairs |= {tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(4))}
        shapes.append((n, pairs))
    rails = {(s + i, s + i + 1) for s in (0, 1000) for i in range(999)}
    shapes.append((2000, rails | {(i, 1000 + i) for i in range(1000)}))
    for n, pairs in shapes:
        perm = rng.sample(range(n), n)
        yield mostar.from_edge_list(n, {tuple(sorted((perm[a], perm[b]))) for a, b in pairs})
    rng = random.Random(34)  # a cycle with trees hung on it: one deep block among bridges
    pairs = {(i, (i + 1) % 800) for i in range(800)} | {(0, 400), (200, 600)}
    pairs |= {(rng.randrange(v), v) for v in range(800, 1200)}
    perm = rng.sample(range(1200), 1200)
    yield mostar.from_edge_list(1200, {tuple(sorted((perm[a], perm[b]))) for a, b in pairs})


def deep_repeats(mostar, count: int):
    """Seeded specs of every kind that repeat one handle on a cycle of
    200-500 vertices 3-8 times, so their blocks share one deep layout."""
    rng = random.Random(34)
    for _ in range(count):
        g = mostar.cycle_graph(rng.randrange(200, 501))
        x = rng.randrange(g.n)
        h = mostar.MonomerHandle(g, x, (x + rng.randrange(1, g.n)) % g.n)
        kind, k = rng.choice(KINDS), rng.randrange(3, 9)
        yield mostar.PolymerSpec(kind, (h,) * k, tuple(
            (rng.randrange(b), rng.randrange(g.n), b, rng.randrange(g.n))
            for b in range(1, k if kind == "tree" else 1)))


def block_set(parts) -> list:
    """Each block as its sorted (vertex, weight, hanging) triples and its
    sorted edge ids, the blocks sorted: ``parts`` up to order and layout."""
    spans = zip(parts.vertex_start, parts.vertex_start[1:], parts.edge_start,
                parts.edge_start[1:])
    return sorted((sorted(zip(parts.vertices[a:b].tolist(), parts.weights[a:b].tolist(),
                              parts.hanging[a:b].tolist())), sorted(parts.edges[c:d].tolist()))
                  for a, b, c, d in spans)


def verify_hash(mostar, tiny: bool) -> tuple[str, int]:
    """The digest of the polymers of ``family_specs``, ``one_block_composites``
    and, outside ``tiny``, ``deep_repeats``, evaluated as ``cli.cmd_verify``
    evaluates one family's, and their number: each family's, the composites
    and the deep repeats, cut into batches by ``indices._batches``, each
    composed as one union (``polymer._compose_all``) whose blocks go to
    ``indices._reports``."""
    groups = [[*map(mostar.families._polymer, specs)] for _, specs in
              groupby(family_specs(mostar, tiny), key=lambda spec: spec.family)]
    groups.append(list(one_block_composites(mostar, 20 if tiny else 200)))
    if not tiny:
        groups.append(list(deep_repeats(mostar, 10)))
    digest = hashlib.sha256()
    for specs in groups:
        # at most: the monomers' edges and k more, a link's bridges or a circuit's cycle
        edges = {id(s): sum(h.graph.m for h in s.monomers) + len(s.monomers) for s in specs}
        for batch in mostar.indices._batches(specs, lambda s: edges[id(s)]):
            union = mostar.polymer._compose_all(batch)
            reports = mostar.indices._reports(*union.blocks(), union.edge_at)
            for n, m, r in zip(np.diff(union.vertex_at), np.diff(union.edge_at), reports,
                               strict=True):
                digest.update(f"{n} {m} {r.mostar} {r.edge_mostar} {r.wiener}\n".encode())
                digest.update(r.vertex_diffs.astype("<i8").tobytes())
                digest.update(r.edge_diffs.astype("<i8").tobytes())
    return digest.hexdigest(), sum(map(len, groups))


def output_hash(mostar, tiny: bool) -> tuple[str, str, int]:
    """The totals digest, the blocks digest and the number of graphs they cover."""
    graphs = [*family_graphs(mostar, tiny), *random_composites(mostar, 20 if tiny else 400),
              *workload_graphs(mostar, tiny), *([] if tiny else deep_blocks(mostar))]
    digest = hashlib.sha256()
    for g, r in zip(graphs, mostar.index_reports(graphs), strict=True):
        digest.update(f"{g.n} {g.m} {r.mostar} {r.edge_mostar} {r.wiener}\n".encode())
        digest.update(r.vertex_diffs.astype("<i8").tobytes())
        digest.update(r.edge_diffs.astype("<i8").tobytes())
    blocks = hashlib.sha256()
    for g in graphs:
        blocks.update(f"{block_set(mostar.blocks(g))}\n".encode())
    return digest.hexdigest(), blocks.hexdigest(), len(graphs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the mostar package to measure")
    parser.add_argument("--tiny", action="store_true", help="a small set, for a smoke test")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import mostar

    digest, blocks, count = output_hash(mostar, args.tiny)
    print(f"{digest}  {count} graphs")
    print(f"{blocks}  blocks of {count} graphs")
    digest, count = verify_hash(mostar, args.tiny)
    print(f"{digest}  verify's path over {count} polymers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
