"""Spans around the calls into each layer of ``mostar``, recorded from outside.

The program itself is not instrumented.  ``installed`` rebinds the public
functions listed in ``LAYERS`` in every package module that refers to them,
so a real ``cli.main`` call records one span per call that crosses a layer
boundary, nested by the call stack.  Spans are kept in memory and written
out when the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import defaultdict

#: layer (module of ``mostar``) -> public functions wrapped in spans
LAYERS = {
    "cli": ("main",),
    "formats": ("parse_graph", "parse_graph_json", "dump_graph"),
    "families": ("generate", "family_counts"),
    "polymer": ("spec_from_json", "compose", "build_link", "build_chain", "build_bouquet",
                "build_circuit", "build_tree_attach"),
    "graphs": ("from_edge_list", "is_connected", "all_pairs_distances"),
    "indices": ("index_report", "mostar_index", "edge_mostar_index", "wiener_index"),
    "formulas": ("formula_value", "has_formula", "monomer_stats", "check_bound"),
}


class Tracer:
    """Spans as (name, start_ns, end_ns, parent index or -1, run id)."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.run_id = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run_id)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced



def write(path, **tracers: Tracer) -> None:
    """Write each tracer's spans, keyed by its replay name, as gzipped JSON."""
    with gzip.open(path, "wt") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "run_id"],
                   **{name: t.spans for name, t in tracers.items()}}, fh)


@contextlib.contextmanager
def installed(tracer: Tracer, modules: dict):
    """Wrap every function in ``LAYERS`` wherever ``modules`` bind it; undo on exit."""
    patches = []
    for layer, names in LAYERS.items():
        for fname in names:
            fn = getattr(modules[layer], fname, None)
            if fn is None:
                continue
            wrapped = tracer.wrap(f"{layer}.{fname}", fn)
            for module in modules.values():
                if getattr(module, fname, None) is fn:
                    patches.append((module, fname, fn))
                    setattr(module, fname, wrapped)
    try:
        yield
    finally:
        for module, fname, fn in patches:
            setattr(module, fname, fn)


def summarize(spans, first: int = 0) -> dict[str, float]:
    """Per span name ``.s`` (busy seconds) and ``.calls``; per layer ``.self_s``.

    A span's self time is its duration minus its direct children's; spans of
    one thread never overlap, so that is the part its children do not cover.
    """
    spans = spans[first:]
    child_ns = defaultdict(int)
    for _, start, end, parent, _ in spans:
        if parent >= first:
            child_ns[parent - first] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name + ".s"] += (end - start) / 1e9
        out[name + ".calls"] += 1
        out[name.split(".")[0] + ".self_s"] += (end - start - child_ns[i]) / 1e9
    return out
