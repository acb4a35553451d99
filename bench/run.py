#!/usr/bin/env python3
"""Benchmark of the ``mostar`` CLI: end-to-end metrics, or per-layer ones with --trace 1.

    python3 bench/run.py --workload compute-chain --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all            # every metric of every workload

Run from the repository root; the program is imported from ``src/``.  Every
operation calls ``mostar.cli.main(argv)`` in process with stdout and stderr
captured, one process, no thread pools.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Untraced (--trace 0), per workload:

* ``wall_s``, ``cpu_s``: median seconds (user + system CPU for ``cpu_s``) of
  one pass over the workload's operations, after import.  Passes repeat for
  ``--seconds`` and at least ``MIN_PASSES`` times.
* ``peak_rss_mb``: peak RSS of a fresh child process that does one pass.
* ``setup_s``: median over ``SETUP_RUNS`` fresh processes of importing
  ``mostar.cli`` and building its parser.
* ``ok_ratio``: checked operations over attempted ones, i.e. 1 - fail_ratio.

Traced (--trace 1): an untraced pass, a call replay (the same ``cli.main``
calls with each layer boundary wrapped in a span) and a stage replay (per
distinct graph: connectivity, distances, vertex diffs, edge diffs, Wiener
sum), repeated for ``--seconds``.  Spans are written to
``bench/out/spans-<workload>-<seed>.json.gz``.

Only this process and its children are measured: OS caches are not dropped
and there is no system-wide tracing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
RUN_TIMEOUT_S = 180
LIMITS = ("only the benchmark's own process and its children are measured; "
          "OS caches are not dropped; there is no system-wide tracing")

SETUP_CODE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
              "import mostar.cli; mostar.cli.build_parser(); print(time.perf_counter() - t)")


def metric_units(traced: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def run_pass(ops: list[dict], cli) -> tuple[float, float, int]:
    """One pass over ``ops``: (wall seconds, CPU seconds, failed operations)."""
    wall = cpu = 0.0
    failed = 0
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        w0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an operation that crashes counts as failed
                code = "traceback"
                traceback.print_exc()
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        problems = workloads.check(op, code, out.getvalue(), err.getvalue())
        if problems:
            failed += 1
            print(f"FAIL {op['argv'][0]}: {problems[0][:500]}", file=sys.stderr)
    return wall, cpu, failed


def import_cli():
    sys.path.insert(0, str(SRC))
    import mostar.cli
    return mostar.cli


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "p25": q[0], "p75": q[2],
            "samples": len(values), "values": values}


def machine() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version()}
    with contextlib.suppress(OSError, ValueError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                facts["ram_mb"] = int(line.split()[1]) // 1024
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    facts["caches"] = caches
    for name in ("numpy", "scipy"):
        module = sys.modules.get(name)
        facts[name] = getattr(module, "__version__", None)
    return facts


def child_pass(manifest: Path) -> int:
    """Child process: one pass, then report own peak RSS."""
    ops = json.loads(manifest.read_text())
    _, _, failed = run_pass(ops, import_cli())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"peak_rss_mb": peak_mb, "attempted": len(ops), "failed": failed}))
    return 0


def child(argv: list[str]) -> str:
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return proc.stdout.splitlines()[-1]


def measure(wl: workloads.Workload, seconds: float) -> tuple[dict, dict, int, int]:
    manifest = wl.work / "ops.json"
    manifest.write_text(json.dumps(wl.ops))
    setup = [float(child(["-c", SETUP_CODE, str(SRC)])) for _ in range(SETUP_RUNS)]
    rss = json.loads(child([__file__, "--child-pass", str(manifest)]))
    cli = import_cli()
    walls, cpus = [], []
    attempted, failed = rss["attempted"], rss["failed"]
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, cpu, bad = run_pass(wl.ops, cli)
        walls.append(wall)
        cpus.append(cpu)
        attempted += len(wl.ops)
        failed += bad
    metrics = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
               "peak_rss_mb": rss["peak_rss_mb"], "setup_s": statistics.median(setup),
               "ok_ratio": (attempted - failed) / attempted}
    detail = {"wall_s": quartiles(walls), "cpu_s": quartiles(cpus),
              "setup_s": quartiles(setup), "fail_ratio": failed / attempted}
    return metrics, detail, attempted, failed


def stage_replay(wl: workloads.Workload, tracer: tracing.Tracer, iteration: int) -> None:
    """ROADMAP's stages, once per distinct graph, each in its own span."""
    from mostar import graphs, indices
    apsp = getattr(graphs, "all_pairs_distances", None)
    for i, (n, edges) in enumerate(wl.graphs):
        g = graphs.from_edge_list(n, edges)
        tracer.run_id = f"stage:{iteration}:{i}"
        with tracer.span("graphs.is_connected"):
            graphs.is_connected(g)
        d = None
        if apsp is not None:
            with tracer.span("graphs.all_pairs_distances"):
                d = apsp(g)
        for name in ("mostar_index", "edge_mostar_index", "wiener_index"):
            with tracer.span("indices." + name):
                getattr(indices, name)(g, *([] if d is None else [d]))
        del d


def computed_counts(wl: workloads.Workload) -> dict:
    """Operation counts and table bytes from graph sizes, one evaluation per graph."""
    sizes = [(n, len(edges)) for n, edges in wl.graphs]
    return {"stage.graphs": len(sizes),
            "graphs.apsp_table_bytes": max((4 + 8) * n * n for n, _ in sizes),
            "indices.vertex_compares": sum(m * n for n, m in sizes),
            "indices.edge_compares": sum(m * m for _, m in sizes),
            "indices.edge_table_bytes": max(4 * m * n for n, m in sizes)}


def measure_traced(wl: workloads.Workload, seconds: float, seed: int) -> tuple[dict, dict, int, int]:
    cli = import_cli()
    import mostar
    modules = {layer: getattr(mostar, layer) for layer in tracing.LAYERS}
    calls, stages = tracing.Tracer(), tracing.Tracer()
    untraced, traced, per_pass = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        iteration = len(per_pass)
        wall, _, bad = run_pass(wl.ops, cli)
        untraced.append(wall)
        first = len(calls.spans)
        calls.run_id = f"call:{iteration}"
        with tracing.installed(calls, modules):
            wall, _, bad2 = run_pass(wl.ops, cli)
        traced.append(wall)
        attempted += 2 * len(wl.ops)
        failed += bad + bad2
        stage_first = len(stages.spans)
        stage_replay(wl, stages, iteration)
        metrics = dict(tracing.summarize(calls.spans, first))
        metrics["trace.spans"] = len(calls.spans) - first
        for name, value in tracing.summarize(stages.spans, stage_first).items():
            if name.endswith(".s"):
                metrics["stage." + name] = value
        per_pass.append(metrics)
    metrics = {name: statistics.median(p.get(name, 0) for p in per_pass)
               for name in metric_units(traced=True)}
    metrics.update(computed_counts(wl))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    tracing.write(out / f"spans-{wl.name}-{seed}.json.gz", call=calls, stage=stages)
    detail = {"untraced_wall_s": quartiles(untraced), "traced_wall_s": quartiles(traced),
              "passes": len(per_pass), "computed": sorted(computed_counts(wl)),
              "fail_ratio": failed / attempted}
    return metrics, detail, attempted, failed


def run_one(args) -> int:
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.Workload(args.workload, args.seed, work)
        if args.trace:
            metrics, detail, attempted, failed = measure_traced(wl, args.seconds, args.seed)
            units = metric_units(traced=True)
        else:
            metrics, detail, attempted, failed = measure(wl, args.seconds)
            units = metric_units(traced=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine(), limits=LIMITS)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    records = []
    for name in workloads.SIZES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
        *_, detail_line, result_line = proc.stdout.splitlines()
        record = {"workload": name, **json.loads(result_line), **json.loads(detail_line)}
        records.append(record)
        print(f"{name}: correct={record['correct']} attempted={record['attempted']} "
              f"failed={record['failed']} fail_ratio={record['detail']['fail_ratio']}")
        for metric, value in record["metrics"].items():
            spread = record["detail"].get(metric)
            extra = (f"  (p25 {spread['p25']:.4f}, p75 {spread['p75']:.4f}, "
                     f"{spread['samples']} samples)" if spread else "")
            print(f"  {metric:36} {value['value']:>16.6g} {value['unit']}{extra}")
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    return 0 if all(r["correct"] for r in records) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.SIZES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the records as JSON here")
    parser.add_argument("--child-pass", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "mostar" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'mostar'}", file=sys.stderr)
        return 2
    if args.child_pass:
        return child_pass(Path(args.child_pass))
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
