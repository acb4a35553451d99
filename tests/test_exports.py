"""Every callable that ``mostar`` exports, called with arbitrary values,
returns or raises a ``GraphError``: never a bare ``TypeError``,
``AttributeError``, ``MemoryError`` or ``ValueError`` of Python's own.  The
exports are exactly the names README lists."""

import inspect
import re
from collections.abc import Iterator
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mostar
from mostar import (FamilySpec, GraphError, MonomerHandle, PolymerSpec, cycle_graph,
                    path_graph)

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = sorted(name for name in dir(mostar) if not name.startswith("_")
                and not inspect.ismodule(getattr(mostar, name)))
EXPORTS = [name for name in PUBLIC if callable(getattr(mostar, name))]

#: strings the entry points give meaning to, so some calls get past the first check
WORDS = ["mostar", "edge_mostar", "wiener", "json", "edgelist", "hex-para", "triangulane",
         "clique-flower", "link", "chain", "bouquet", "circuit", "tree", "link-upper",
         "superadditive", "n", "edges", "kind", "monomers", "graph", "x", "y", "tree_edges",
         "3 2\n0 1\n1 2\n", '{"n": 2, "edges": [[0, 1]]}', "2 1\n0 0\n", "{"]

#: small valid objects of the package's own types, built once
OBJECTS = [path_graph(3), cycle_graph(4), FamilySpec("hex-para", n=2),
           FamilySpec("clique-flower", m=2, inner=3), MonomerHandle(path_graph(3), 0, 2),
           PolymerSpec("link", (MonomerHandle(cycle_graph(3), 0),) * 3)]

leaves = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-3, 12),
    st.sampled_from([2 ** 63, -2 ** 63 - 1, 2 ** 64 + 3, 10 ** 30, -10 ** 400]),
    st.text(max_size=8), st.sampled_from(WORDS), st.sampled_from(OBJECTS))
values = st.recursive(
    leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.one_of(st.sampled_from(WORDS), st.text(max_size=3)), inner,
                        max_size=3)),
    max_leaves=6)


def arity(f) -> tuple[int, int]:
    """The fewest and most positional arguments ``f`` takes; two at most
    for ``*args``, as for an exception class."""
    try:
        params = inspect.signature(f).parameters.values()
    except ValueError:  # a builtin's, such as an exception class that keeps ValueError's
        return 0, 2
    fixed = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    required = sum(p.default is p.empty for p in fixed)
    extra = 2 if any(p.kind == p.VAR_POSITIONAL for p in params) else 0
    return required, len(fixed) + extra


@pytest.mark.parametrize("name", EXPORTS)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_export_returns_or_raises_a_graph_error(name, data):
    f = getattr(mostar, name)
    low, high = arity(f)
    args = data.draw(st.lists(values, min_size=low, max_size=high), label="args")
    try:
        out = f(*args)
        if isinstance(out, Iterator):
            for _ in out:
                pass
    except GraphError:
        pass


def test_every_export_is_covered():
    """The one way in per job is among the callables the property test calls,
    and the second ways that folded into them are not."""
    assert {"compose", "index_reports", "index_report", "check_bounds", "spec_from_json",
            "parse_graph", "generate", "MonomerHandle", "distance_rows",
            "dump_graph"} <= set(EXPORTS)
    assert not {"Graph", "emit_edge_list", "emit_graph_json", "parse_edge_list",
                "parse_graph_json", "spec_from_dict", "MonomerStats", "mostar_index",
                "edge_mostar_index", "wiener_index", "upper_bound_link",
                "superadditive_bound"} & set(PUBLIC)


def readme_names() -> list[str]:
    """The names in backticks in README's "Public names" section."""
    text = README.read_text()
    section = text[text.index("### Public names"):]
    section = section[:section.index("\n#")]
    return re.findall(r"`([A-Za-z_]\w*)`", section)


def test_exports_are_the_names_readme_lists():
    """A name added to or taken from the package fails here until README
    lists it; the property test calls every callable among them."""
    listed = readme_names()
    assert len(listed) == len(set(listed)) and sorted(listed) == PUBLIC
