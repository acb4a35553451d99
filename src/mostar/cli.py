"""Command-line front end.

Commands: ``gen`` (emit a family graph), ``compute`` (indices of an
arbitrary graph file), ``verify`` (formula-vs-oracle sweep), ``bounds``
(check one composition bound), ``compose`` (build a polymer from a spec).

Data goes to stdout, diagnostics go to stderr.  Exit codes: 0 success,
1 a checked property failed (verify disagreement, bound violated),
2 invalid input or spec, or a path that cannot be read or written,
3 disconnected input to ``compute``.  ``main`` maps every bad-input
error to 2 in one place; ``cmd_compute`` alone maps ``NotConnected`` to 3.
Either way stderr gets one ``error:`` line and no traceback.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Iterator

from .errors import GraphError, NotConnected, quote
from .families import (CHAIN_FAMILIES, FAMILY_NAMES, FamilySpec, _polymer, family_counts,
                       generate)
from .formats import dump_graph, parse_graph
from .formulas import BOUND_KINDS, check_bounds, formula_value, has_formula
from .indices import EDGE_MOSTAR, MOSTAR, _batches, _reports, index_report
from .polymer import _compose_all, compose, spec_from_json

SCHEMA_VERSION = "1"

_CLI_INDEX = {"mostar": MOSTAR, "edge-mostar": EDGE_MOSTAR}
_INDEX_CLI = {v: k for k, v in _CLI_INDEX.items()}

DEFAULT_MAX_SIZE = 500_000


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _write_output(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _record(command: str, inputs: dict, results) -> str:
    record = {"schema_version": SCHEMA_VERSION, "command": command,
              "inputs": inputs, "results": results}
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def _parse_range(text: str) -> range:
    lo, dots, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise GraphError(f"invalid range {quote(text)}, expected 'lo..hi' or 'n'") from None
    if not values:
        raise GraphError(f"empty range {quote(text)}: lo must not exceed hi")
    return values


def _family_spec(args) -> FamilySpec:
    if args.family == "clique-flower":
        return FamilySpec(args.family, m=args.m, inner=args.inner)
    return FamilySpec(args.family, n=args.n)


def cmd_gen(args) -> int:
    spec = _family_spec(args)
    fam = generate(spec)
    _write_output(dump_graph(fam.graph, args.format), args.out)
    marks = " ".join(f"{k}={v}" for k, v in sorted(fam.landmarks.items()))
    print(f"{spec.family}: n={fam.graph.n} m={fam.graph.m} landmarks: {marks}",
          file=sys.stderr)
    return 0


def cmd_compute(args) -> int:
    graph = parse_graph(Path(args.input).read_text())
    try:
        report = index_report(graph)
    except NotConnected as exc:
        _err(str(exc))
        return 3
    wanted = (["mostar", "edge-mostar", "wiener"] if args.index == "all"
              else [args.index])
    values = {"mostar": report.mostar, "edge-mostar": report.edge_mostar,
              "wiener": report.wiener}
    # ((u, v), |n_u-n_v|, |m_u-m_v|) in edge order, built only for --per-edge
    edge_rows = list(zip(graph.ends.tolist(), report.vertex_diffs.tolist(),
                         report.edge_diffs.tolist())) if args.per_edge else []
    if args.format == "json":
        results: dict = {name: values[name] for name in wanted}
        if args.per_edge:
            results["per_edge"] = [{"u": u, "v": v, "vertex_diff": vd, "edge_diff": ed}
                                   for (u, v), vd, ed in edge_rows]
        inputs = {"input": args.input, "index": args.index,
                  "per_edge": args.per_edge}
        sys.stdout.write(_record("compute", inputs, results))
    elif args.format == "csv":
        print("metric,u,v,vertex_diff,edge_diff,value")
        for name in wanted:
            print(f"{name},,,,,{values[name]}")
        for (u, v), vd, ed in edge_rows:
            print(f"edge,{u},{v},{vd},{ed},")
    else:
        for name in wanted:
            print(f"{name} = {values[name]}")
        if args.per_edge:
            print("edge  |n_u-n_v|  |m_u-m_v|")
            for (u, v), vd, ed in edge_rows:
                print(f"({u},{v})  {vd}  {ed}")
    return 0


def _verify_cells(args) -> Iterator[tuple[FamilySpec, str, int]]:
    """The sweep's cells in output order, each with its instance's edge
    count, made one at a time, so a size check stops at the first one over
    ``--max-size``; ``--from``/``--to`` and every family name and range are
    checked before the first cell."""
    if args.n_from < 1:
        raise GraphError("--from must be >= 1")
    if args.n_from > args.n_to:
        raise GraphError("--from must not exceed --to")
    names = [name.strip() for name in (
        list(CHAIN_FAMILIES) + ["triangulane", "clique-flower"]
        if args.families == "all" else args.families.split(","))]
    for name in names:
        if name not in FAMILY_NAMES:
            raise GraphError(f"unknown family {quote(name)}")
        if name == "clique-flower":
            ms, inners = _parse_range(args.m_range), _parse_range(args.inner_range)
            FamilySpec(name, m=ms[0], inner=inners[0])  # the smallest cell checks both ranges
        elif not has_formula(name, MOSTAR):
            raise GraphError(f"no closed forms to verify for {quote(name)}")
    for name in names:
        if name == "clique-flower":
            specs = (FamilySpec(name, m=m, inner=inner) for m in ms for inner in inners)
        else:
            specs = (FamilySpec(name, n=n) for n in range(args.n_from, args.n_to + 1))
        for spec in specs:
            nv, ne = family_counts(spec)
            if nv * ne > args.max_size:
                raise GraphError(
                    f"{spec.family} at {_spec_label(spec)} has vertex-edge product "
                    f"{nv * ne} > --max-size {args.max_size}")
            for index in (MOSTAR, EDGE_MOSTAR):
                if has_formula(name, index):
                    yield spec, index, ne


def _spec_label(spec: FamilySpec) -> str:
    if spec.family == "clique-flower":
        return f"{spec.m}x{spec.inner}"
    return str(spec.n)


def cmd_verify(args) -> int:
    """Each batch of distinct instances, cut as ``index_reports`` cuts
    graphs (``indices._batches``), is composed as one disjoint union of
    their polymers and evaluated in one pass over its blocks, the
    construction's or one DFS's: no per-instance graph."""
    cells = list(_verify_cells(args))  # all checked before the first graph is built
    oracles, edges = {}, {spec: m for spec, _, m in cells}
    for batch in _batches(edges, edges.get):
        union = _compose_all([_polymer(spec) for spec in batch])
        for spec, r in zip(batch, _reports(*union.blocks(), union.edge_at)):
            oracles[spec] = {MOSTAR: r.mostar, EDGE_MOSTAR: r.edge_mostar}
    rows = [(spec, index, formula_value(spec, index), oracles[spec][index])
            for spec, index, _ in cells]

    all_agree = all(formula == oracle for _, _, formula, oracle in rows)
    if args.format == "csv":
        print("family,n,index,formula,oracle,agree")
        for spec, index, formula, oracle in rows:
            agree = "true" if formula == oracle else "false"
            print(f"{spec.family},{_spec_label(spec)},{_INDEX_CLI[index]},"
                  f"{formula},{oracle},{agree}")
    elif args.format == "json":
        results = [
            {"family": spec.family, "n": spec.n, "m": spec.m, "inner": spec.inner,
             "index": _INDEX_CLI[index], "formula": formula, "oracle": oracle,
             "agree": formula == oracle}
            for spec, index, formula, oracle in rows]
        inputs = {"families": args.families, "from": args.n_from, "to": args.n_to,
                  "m_range": args.m_range, "inner_range": args.inner_range}
        sys.stdout.write(_record("verify", inputs, results))
    else:
        for spec, index, formula, oracle in rows:
            mark = "ok" if formula == oracle else "DISAGREE"
            print(f"{spec.family:>13} {_spec_label(spec):>5} {_INDEX_CLI[index]:>11} "
                  f"formula={formula} oracle={oracle} {mark}")
    if not all_agree:
        disagreements = sum(1 for _, _, f, o in rows if f != o)
        print(f"{disagreements} of {len(rows)} cells disagree", file=sys.stderr)
    return 0 if all_agree else 1


def cmd_bounds(args) -> int:
    spec = spec_from_json(Path(args.spec).read_text())
    checked = check_bounds(spec, args.which)
    indices = ((MOSTAR, EDGE_MOSTAR) if args.index == "both"
               else (_CLI_INDEX[args.index],))
    reports = {_INDEX_CLI[ix]: checked[ix] for ix in indices}
    if args.format == "json":
        results = {name: {"actual": r.actual, "bound": r.bound, "kind": r.kind,
                          "strict": r.strict, "slack": r.slack, "holds": r.holds}
                   for name, r in reports.items()}
        inputs = {"spec": args.spec, "which": args.which, "index": args.index}
        sys.stdout.write(_record("bounds", inputs, results))
    else:
        for name, r in reports.items():
            rel = ">" if r.kind == "lower" else "<="
            holds = "holds" if r.holds else "VIOLATED"
            print(f"{args.which} [{name}]: actual={r.actual} {rel} "
                  f"bound={r.bound} slack={r.slack} {holds}")
    return 0 if all(r.holds for r in reports.values()) else 1


def cmd_compose(args) -> int:
    spec = spec_from_json(Path(args.spec).read_text())
    result = compose(spec)
    _write_output(dump_graph(result.graph, args.format), args.out)
    vmap = [[i, v, cid] for (i, v), cid in result.vertex_map.items()]
    map_json = json.dumps({"schema_version": SCHEMA_VERSION, "vertex_map": vmap},
                          sort_keys=True) + "\n"
    if args.out in (None, "-"):
        sys.stderr.write(map_json)
    else:
        Path(args.out + ".map.json").write_text(map_json)
    print(f"{spec.kind}: n={result.graph.n} m={result.graph.m}", file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors cut each argv value as ``errors.quote`` does:
    a quoted value (a ``repr``), or any run of over 60 characters without a space."""

    def error(self, message):
        super().error(re.sub(r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|\S{61,}""",
                             lambda value: quote(value[0], str), message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mostar",
        description="Distance-based bond-additive graph indices, polymer "
                    "compositions, and formula-vs-oracle verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family graph")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--n", type=int, default=1, help="chain length / recursion depth")
    p.add_argument("--m", type=int, default=1, help="outer clique size (clique-flower)")
    p.add_argument("--inner", type=int, default=1, help="petal clique size (clique-flower)")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.add_argument("--format", default="edgelist", choices=("edgelist", "json"))
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("compute", help="compute indices of a graph file")
    p.add_argument("input", help="edge-list or JSON graph file")
    p.add_argument("--index", default="all",
                   choices=("mostar", "edge-mostar", "wiener", "all"))
    p.add_argument("--per-edge", action="store_true")
    p.add_argument("--format", default="text", choices=("json", "csv", "text"))
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="sweep closed forms against the oracle")
    p.add_argument("--families", default="all",
                   help="comma-separated family names, or 'all'")
    p.add_argument("--from", dest="n_from", type=int, default=1)
    p.add_argument("--to", dest="n_to", type=int, default=6)
    p.add_argument("--m-range", default="1..5", help="clique-flower m range, e.g. 1..4")
    p.add_argument("--inner-range", default="1..5", help="clique-flower petal range")
    p.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE,
                   help="largest allowed vertex-edge product per instance")
    p.add_argument("--format", default="csv", choices=("json", "csv", "text"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="check a composition bound")
    p.add_argument("spec", help="polymer spec JSON file")
    p.add_argument("--which", required=True, choices=BOUND_KINDS)
    p.add_argument("--index", default="mostar",
                   choices=("mostar", "edge-mostar", "both"))
    p.add_argument("--format", default="text", choices=("json", "text"))
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("compose", help="build a composite graph from a spec")
    p.add_argument("spec", help="polymer spec JSON file")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    p.add_argument("--format", default="edgelist", choices=("edgelist", "json"))
    p.set_defaults(func=cmd_compose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # GraphError, NotConnected included
        _err(str(exc))
        return 2


def entry() -> None:
    sys.exit(main())
