"""The four benchmark workloads: seeded inputs, CLI operations and output checks.

A workload writes its input files into a work directory and returns a list
of operations.  Each operation is the argv of one ``mostar`` CLI call plus
what its exit code and output must be; the expectations come from
``oracle``, never from the program.  Operations are plain JSON so a child
process can replay and check them.

Every workload keeps the amount of work the same across seeds (fixed vertex
and edge totals), so seeds change the inputs but not the cost.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path

import oracle

INDEX_NAMES = ("mostar", "edge-mostar", "wiener")

#: Sizes per workload; ``tiny`` is the self-test's size.
SIZES = {
    "compute-chain": {"full": {"n": 1600}, "tiny": {"n": 8}},
    "compute-dense": {"full": {"n": 1000, "m": 12000}, "tiny": {"n": 30, "m": 90}},
    "verify-chains": {"full": {"to": 100, "disagree": 196}, "tiny": {"to": 4, "disagree": 4}},
    "bounds-polymer": {"full": {"monomers": 30, "vertices": 1500},
                       "tiny": {"monomers": 4, "vertices": 100}},
}

BOUND_FOR_KIND = {"link": "link-upper", "chain": "chain-upper", "bouquet": "bouquet-upper",
                  "circuit": "circuit-upper", "tree": "superadditive"}


class Workload:
    """Inputs, operations and the distinct graphs they touch, for one seed."""

    def __init__(self, name: str, seed: int, work: Path, size: str = "full"):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.work = work
        self.size = SIZES[name][size]
        #: (vertex count, edges) of every distinct graph the CLI evaluates
        self.graphs: list[tuple[int, list[tuple[int, int]]]] = []
        self.ops: list[dict] = []
        work.mkdir(parents=True, exist_ok=True)
        getattr(self, "_" + name.replace("-", "_"))()

    def _write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text)
        return str(path)

    def _relabel(self, n: int, edges) -> list[tuple[int, int]]:
        """Shuffle vertex labels, edge order and edge orientation."""
        perm = list(range(n))
        self.rng.shuffle(perm)
        out = [(perm[u], perm[v]) if self.rng.random() < 0.5 else (perm[v], perm[u])
               for u, v in edges]
        self.rng.shuffle(out)
        return out

    def _compute_chain(self):
        # hex-meta chain: one large sparse polymer; APSP dominates time and memory
        n = self.size["n"]
        count, edges = oracle.polygon_chain(n, 6, 2)
        edges = self._relabel(count, edges)
        text = f"{count} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        path = self._write("chain.txt", text)
        values = {name: oracle.chain_form("hex-meta", name, n)
                  for name in ("mostar", "edge-mostar")}
        values["wiener"] = oracle.chain_wiener("hex-meta", n)
        self.graphs.append((count, edges))
        self.ops.append({"argv": ["compute", path, "--format", "json"],
                         "check": "compute-json", "exit": 0, "values": values})

    def _compute_dense(self):
        # a Hamiltonian cycle plus random chords: one biconnected block, small diameter
        n, m = self.size["n"], self.size["m"]
        order = list(range(n))
        self.rng.shuffle(order)
        edges = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
        while len(edges) < m:
            edges.add(tuple(sorted(self.rng.sample(range(n), 2))))
        edges = self._relabel(n, sorted(edges))
        path = self._write("dense.json", json.dumps({"n": n, "edges": edges}))
        self.graphs.append((n, edges))
        self.ops.append({"argv": ["compute", path], "check": "compute-text", "exit": 0,
                         "values": self._cached(lambda: oracle.indices(n, edges), path)})

    def _verify_chains(self):
        # many small graphs; the seed only orders the families
        families = list(oracle.CHAIN_SHAPES)
        self.rng.shuffle(families)
        top = self.size["to"]
        for family in families:
            sides, spacing = oracle.CHAIN_SHAPES[family]
            self.graphs.extend(oracle.polygon_chain(n, sides, spacing) for n in range(1, top + 1))
        rows = expected_verify_rows(families, top)
        disagree = sum(1 for row in rows if row.endswith(",false"))
        if disagree != self.size["disagree"]:
            raise AssertionError(f"reference table gives {disagree} disagreeing cells")
        self.ops.append({"argv": ["verify", "--families", ",".join(families),
                                  "--from", "1", "--to", str(top)],
                         "check": "verify-csv", "exit": 1, "families": families, "to": top})

    def _bounds_polymer(self):
        # heterogeneous monomers, one spec per construction kind
        for kind, which in BOUND_FOR_KIND.items():
            spec = self._random_spec(kind)
            path = self._write(f"{kind}.json", json.dumps(spec))
            n, edges = oracle.composite_graph(spec)
            self.graphs.append((n, edges))
            self.graphs.extend((mon["graph"]["n"], mon["graph"]["edges"])
                               for mon in spec["monomers"])
            self.ops.append({"argv": ["compose", path], "check": "compose", "exit": 0,
                             "spec": path})
            values = self._cached(lambda: bound_references(spec, which), path)
            self.ops.append({"argv": ["bounds", path, "--which", which, "--index", "both",
                                     "--format", "json"],
                             "check": "bounds-json", "exit": 0, "values": values})

    def _random_spec(self, kind: str) -> dict:
        k, total = self.size["monomers"], self.size["vertices"]
        sizes = [total // k] * k
        sizes[0] += total - sum(sizes)
        for _ in range(10 * k):
            i, j = self.rng.randrange(k), self.rng.randrange(k)
            step = self.rng.randint(1, 10)
            if sizes[i] - step >= 20 and sizes[j] + step <= 80:
                sizes[i] -= step
                sizes[j] += step
        monomers = []
        for size in sizes:
            edges = {(self.rng.randrange(v), v) for v in range(1, size)}
            while len(edges) < size - 1 + size // 4:
                edges.add(tuple(sorted(self.rng.sample(range(size), 2))))
            x, y = self.rng.sample(range(size), 2)
            monomers.append({"graph": {"n": size, "edges": sorted(edges)}, "x": x, "y": y})
        spec = {"kind": kind, "monomers": monomers}
        if kind == "tree":
            spec["tree_edges"] = [
                [j, self.rng.randrange(sizes[j]), i, self.rng.randrange(sizes[i])]
                for i in range(1, k) for j in [self.rng.randrange(i)]]
        return spec

    def _cached(self, compute, input_path: str) -> dict:
        """Oracle values for one input file, cached by input and oracle content."""
        digest = hashlib.sha256(Path(input_path).read_bytes())
        digest.update(Path(oracle.__file__).read_bytes())
        cache = Path(__file__).resolve().parent / ".cache" / f"{digest.hexdigest()[:24]}.json"
        if cache.exists():
            return json.loads(cache.read_text())
        values = compute()
        cache.parent.mkdir(exist_ok=True)
        tmp = cache.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(values))
        os.replace(tmp, cache)
        return values


def expected_verify_rows(families: list[str], top: int) -> list[str]:
    rows = []
    for family in families:
        for n in range(1, top + 1):
            for index in ("mostar", "edge-mostar"):
                formula = oracle.recorded_chain_form(family, index, n)
                true = oracle.chain_form(family, index, n)
                agree = "true" if formula == true else "false"
                rows.append(f"{family},{n},{index},{formula},{true},{agree}")
    return rows


def bound_references(spec: dict, which: str) -> dict:
    stats = []
    for mon in spec["monomers"]:
        g = mon["graph"]
        stats.append({"vertices": g["n"], "edges": len(g["edges"]),
                      **oracle.indices(g["n"], g["edges"])})
    actual = oracle.indices(*oracle.composite_graph(spec))
    out = {}
    for index in ("mostar", "edge-mostar"):
        b = oracle.bound(spec["kind"], which, index, stats)
        upper = which.endswith("upper")
        holds = actual[index] <= b if upper else actual[index] > b
        out[index] = {"actual": actual[index], "bound": b, "holds": holds,
                      "kind": "upper" if upper else "lower"}
    return out


def check(op: dict, code: int, out: str, err: str) -> list[str]:
    """Differences between one CLI call's result and its reference; empty if none."""
    problems = []
    if code != op["exit"]:
        problems.append(f"exit {code}, expected {op['exit']}")
    try:
        problems.extend(CHECKS[op["check"]](op, out, err))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def _check_compute_json(op, out, err):
    results = json.loads(out)["results"]
    return [] if results == op["values"] else [f"results {results} != {op['values']}"]


def _check_compute_text(op, out, err):
    want = [f"{name} = {op['values'][name]}" for name in INDEX_NAMES]
    got = out.splitlines()
    return [] if got == want else [f"output {got} != {want}"]


def _check_verify_csv(op, out, err):
    want = ["family,n,index,formula,oracle,agree"] + expected_verify_rows(op["families"], op["to"])
    got = out.splitlines()
    problems = [f"row {i}: {g!r} != {w!r}" for i, (g, w) in enumerate(zip(got, want)) if g != w]
    if len(got) != len(want):
        problems.append(f"{len(got)} lines, expected {len(want)}")
    disagree = sum(1 for row in want if row.endswith(",false"))
    summary = f"{disagree} of {len(want) - 1} cells disagree\n"
    if err != summary:
        problems.append(f"stderr {err!r} != {summary!r}")
    return problems


def _check_compose(op, out, err):
    spec = json.loads(Path(op["spec"]).read_text())
    classes, bridges = oracle.composite(spec)
    vmap = {(i, v): cid for i, v, cid in json.loads(err.splitlines()[0])["vertex_map"]}
    problems = []
    ids = [{vmap[s] for s in cls} for cls in classes]
    if sorted(min(c) for c in ids) != list(range(len(classes))) or any(len(c) != 1 for c in ids):
        problems.append("vertex map does not merge exactly the attached slots")
    lines = out.splitlines()
    n, m = map(int, lines[0].split())
    got = sorted(tuple(map(int, ln.split())) for ln in lines[1:])
    want = [(vmap[(i, u)], vmap[(i, v)])
            for i, mon in enumerate(spec["monomers"]) for u, v in mon["graph"]["edges"]]
    want.extend((vmap[a], vmap[b]) for a, b in bridges)
    want = sorted(tuple(sorted(e)) for e in want)
    if (n, m) != (len(classes), len(want)) or got != want:
        problems.append("composite edges differ from the spec's point-attaching")
    return problems


def _check_bounds_json(op, out, err):
    results = json.loads(out)["results"]
    problems = []
    for index, ref in op["values"].items():
        got = {key: results[index][key] for key in ref}
        if got != ref:
            problems.append(f"{index}: {got} != {ref}")
    return problems


CHECKS = {"compute-json": _check_compute_json, "compute-text": _check_compute_text,
          "verify-csv": _check_verify_csv, "compose": _check_compose,
          "bounds-json": _check_bounds_json}
