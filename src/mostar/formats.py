"""Text and JSON serialization of graphs.

Edge-list text format: first line ``n m``, then ``m`` lines ``u v``
(0-based ASCII decimal integers, whitespace separated).  Lines whose first
non-blank character is ``#`` are comments; blank lines are skipped.

JSON format: object with integer field ``n`` and field ``edges`` holding an
array of 2-element integer arrays; any other JSON value (bool, float,
string, object) in place of an integer is rejected, never converted.
Emission is canonical: ``u < v`` per edge, edges sorted, keys sorted.
"""

from __future__ import annotations

import json
import re

from .errors import GraphError
from .graphs import Graph, _not_an_integer, from_edge_list


def _decimal(token: str) -> int:
    # int() alone would also read "1_0" as 10 and non-ASCII digits like "\u0662"
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise GraphError(f"expected a decimal integer, got {token!r}")
    return int(token)


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphError(f"expected header 'n m', got {lines[0]!r}")
    n, m = _decimal(header[0]), _decimal(header[1])
    if len(lines) - 1 != m:
        raise GraphError(f"header declares {m} edges, found {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"expected edge line 'u v', got {ln!r}")
        pairs.append((_decimal(parts[0]), _decimal(parts[1])))
    return from_edge_list(n, pairs)


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.ends.tolist())
    return "\n".join(lines) + "\n"


def json_integer(value, what: str) -> int:
    """``value`` if it is a JSON integer (bool is not), else GraphError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _not_an_integer(what, value)
    return value


def parse_graph_json(source: str | dict) -> Graph:
    try:
        obj = json.loads(source) if isinstance(source, str) else source
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphError(f"invalid graph JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphError("graph JSON must be an object with 'n' and 'edges'")
    edges = obj["edges"]
    if not isinstance(edges, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in edges):
        raise GraphError("graph JSON 'edges' must be an array of [u, v] pairs")
    # from_edge_list rejects a vertex id that is not an integer
    return from_edge_list(json_integer(obj["n"], "graph JSON 'n'"), edges)


def graph_to_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": g.ends.tolist()}


def emit_graph_json(g: Graph) -> str:
    return json.dumps(graph_to_dict(g), sort_keys=True) + "\n"


def parse_graph(text: str) -> Graph:
    """Sniff JSON versus edge-list text and parse accordingly."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_graph_json(stripped)
    return parse_edge_list(text)


def dump_graph(g: Graph, fmt: str) -> str:
    if fmt == "edgelist":
        return emit_edge_list(g)
    if fmt == "json":
        return emit_graph_json(g)
    raise GraphError(f"unknown graph format {fmt!r}")
