#!/usr/bin/env python3
"""Self-test of the benchmark: its references, its checks and its tracing.

    python3 bench/selftest.py

Runs every workload at a tiny size through the real CLI and requires every
operation to pass; then corrupts each kind of reference value and requires
the same operations to be counted as failures.  Also checks the oracle's
closed forms and pinned values against its own breadth-first search.
Exits 0 when all checks hold.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import oracle
import run
import workloads


def check_oracle() -> None:
    for family, (sides, spacing) in oracle.CHAIN_SHAPES.items():
        for n in range(1, 11):
            got = oracle.indices(*oracle.polygon_chain(n, sides, spacing))
            want = {"mostar": oracle.chain_form(family, "mostar", n),
                    "edge-mostar": oracle.chain_form(family, "edge-mostar", n),
                    "wiener": oracle.chain_wiener(family, n)}
            assert got == want, (family, n, got, want)
    assert oracle.chain_wiener("hex-meta", 1600) == oracle.HEX_META_1600_WIENER
    # a path and a star, by hand: Mostar, edge-Mostar, Wiener
    assert oracle.indices(4, [(0, 1), (1, 2), (2, 3)]) == {"mostar": 4, "edge-mostar": 4, "wiener": 10}
    assert oracle.indices(4, [(0, 1), (0, 2), (0, 3)]) == {"mostar": 6, "edge-mostar": 6, "wiener": 9}


def corruptions(op: dict, specs: list[str]):
    """Copies of ``op`` whose reference is wrong in one value."""
    yield "exit code", {**op, "exit": op["exit"] + 1}
    if "values" in op:
        bad = copy.deepcopy(op)
        first = next(iter(bad["values"]))
        if isinstance(bad["values"][first], dict):
            bad["values"][first]["bound"] += 1
        else:
            bad["values"][first] += 1
        yield f"value {first}", bad
    if op["check"] == "compose":
        yield "spec", {**op, "spec": next(s for s in specs if s != op["spec"])}


def main() -> int:
    check_oracle()
    cli = run.import_cli()
    per_layer = run.metric_units(traced=True)
    mapped = json.loads((run.BENCH / "metric_map.json").read_text())["metrics"]
    assert list(mapped) == list(per_layer), "metric_map.json and BENCHMARK.json disagree"
    for name in workloads.SIZES:
        work = run.BENCH / ".work" / f"selftest-{name}"
        try:
            wl = workloads.Workload(name, 7, work, size="tiny")
            _, _, failed = run.run_pass(wl.ops, cli)
            assert failed == 0, f"{name}: {failed} operations failed at tiny size"
            specs = [op["spec"] for op in wl.ops if "spec" in op]
            for op in wl.ops:
                for what, bad in corruptions(op, specs):
                    _, _, failed = run.run_pass([bad], cli)
                    assert failed == 1, f"{name}: corrupted {what} was not caught"
            if name == "verify-chains":
                saved = dict(oracle.CHAIN_FORMS)
                oracle.CHAIN_FORMS[("hex-para", "mostar", False)] = (60, 1)
                try:
                    _, _, failed = run.run_pass(wl.ops, cli)
                finally:
                    oracle.CHAIN_FORMS.update(saved)
                assert failed == 1, "corrupted closed form was not caught"
            metrics, _, attempted, failed = run.measure_traced(wl, 0, seed=7)
            assert failed == 0 and attempted == 2 * len(wl.ops)
            assert set(metrics) >= set(per_layer), set(per_layer) - set(metrics)
            assert metrics["cli.main.s"] > 0 and metrics["trace.spans"] > len(wl.ops)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{name}: ok ({len(wl.ops)} operations, corruptions caught)")
    print(json.dumps({"selftest": "passed"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
