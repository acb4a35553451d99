"""Text and JSON serialization of graphs.

Edge-list text format: first line ``n m``, then ``m`` lines ``u v`` of
0-based vertex ids.  Lines are split as ``str.splitlines`` splits them; lines
whose first non-blank character is ``#`` are comments, and blank lines are
skipped.  A count or id is an optional ``+`` or ``-`` sign and one or more
ASCII digits ``0-9``, leading zeros allowed (``1_0`` and non-ASCII digits
are rejected); any run of Unicode whitespace separates a line's two tokens.
An id beyond int64 is reported as out of range.

JSON format: object with integer field ``n`` and field ``edges`` holding an
array of 2-element integer arrays; any other JSON value (bool, float,
string, object) in place of an integer is rejected, never converted.
Emission is canonical: ``u < v`` per edge, edges sorted, keys sorted.
"""

from __future__ import annotations

import json
import re
from itertools import repeat

import numpy as np

from .errors import GraphError, quote
from .graphs import Graph, _graph_arg, _not_an_integer, _typed, from_edge_list

# [0-9], never \d: int() alone would also read "1_0" as 10 and non-ASCII digits like "\u0662"
_DECIMAL = re.compile(r"[+-]?[0-9]+")
#: a well-formed edge line; \s is the whitespace that str.split splits on
_EDGE_LINE = re.compile(rf"{_DECIMAL.pattern}\s+{_DECIMAL.pattern}")


def _decimal(token: str) -> int:
    if not _DECIMAL.fullmatch(token):
        raise GraphError(f"expected a decimal integer, got {quote(token)}")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise GraphError(f"integer {quote(token)} has too many digits") from None


def _edge_pairs(lines: list[str]) -> list[tuple[int, int]]:
    """The edge lines read one by one, so the first bad line or token is named."""
    pairs = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"expected edge line 'u v', got {quote(ln)}")
        pairs.append((_decimal(parts[0]), _decimal(parts[1])))
    return pairs


def _parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
    if not lines:
        raise GraphError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphError(f"expected header 'n m', got {quote(lines[0])}")
    n, m = _decimal(header[0]), _decimal(header[1])
    if len(lines) - 1 != m:
        raise GraphError(f"header declares {m} edges, found {len(lines) - 1}")
    edges = lines[1:]
    if all(map(_EDGE_LINE.fullmatch, edges)):  # every token checked: convert them all at once
        try:
            ids = np.array(" ".join(edges).split(), dtype=np.int64)
        except (OverflowError, ValueError):  # an id beyond int64: the loop names it
            pass
        else:
            return from_edge_list(n, ids.reshape(-1, 2))
    return from_edge_list(n, _edge_pairs(edges))


def json_integer(value, what: str) -> int:
    """``value`` if it is a JSON integer (bool is not), else GraphError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _not_an_integer(what, value)
    return value


def load_json(text: str, what: str):
    """The JSON value of ``text``; GraphError if it is not JSON, nests too
    deep or holds an integer of more digits than int() converts, or if
    ``text`` is not text at all."""
    try:
        return json.loads(text)
    except TypeError:  # not a str, bytes or bytearray
        raise GraphError(f"text is a {type(text).__name__}, not a str") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphError(f"invalid {what} JSON: {exc}") from exc
    except ValueError:  # json.loads met an integer beyond sys.get_int_max_str_digits()
        raise GraphError(f"invalid {what} JSON: an integer has too many digits") from None


def _parse_graph_json(source: str | dict) -> Graph:
    obj = load_json(source, "graph") if isinstance(source, str) else source
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphError("graph JSON must be an object with 'n' and 'edges'")
    edges = obj["edges"]
    if not (isinstance(edges, list) and all(map(isinstance, edges, repeat(list)))
            and set(map(len, edges)) <= {2}):
        raise GraphError("graph JSON 'edges' must be an array of [u, v] pairs")
    # from_edge_list rejects a vertex id that is not an integer
    return from_edge_list(json_integer(obj["n"], "graph JSON 'n'"), edges)


def graph_to_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": g.ends.tolist()}


def parse_graph(text: str) -> Graph:
    """Sniff JSON versus edge-list text and parse accordingly."""
    stripped = _typed(text, str, "text").lstrip()
    if stripped.startswith("{"):
        return _parse_graph_json(stripped)
    return _parse_edge_list(text)


def dump_graph(g: Graph, fmt: str) -> str:
    """``g`` as edge-list text (``"edgelist"``) or JSON (``"json"``)."""
    _graph_arg(g, "g")
    if fmt == "edgelist":
        lines = [f"{g.n} {g.m}"]
        lines.extend(f"{u} {v}" for u, v in g.ends.tolist())
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(graph_to_dict(g), sort_keys=True) + "\n"
    raise GraphError(f"unknown graph format {quote(fmt)}")
