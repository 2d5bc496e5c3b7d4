"""Benchmark of the tempcore query pipeline on two seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout, importing tempcore from its src/
directory, in one process and one thread. A run

1. loads the workload's input and runs one query on it, a warm-up whose
   output is discarded; the process's peak resident set over the load and
   the query, above what the interpreter held before, is peak_mib;
2. loads the input again and runs one untimed query whose answer is
   checked against the peeling oracle with samples drawn from --seed;
3. for --seconds (at least MIN_QUERIES times), loads the input and then
   runs a query, each started right after gc.collect() with the collector
   left on; every timed output must match the checked one. The reference
   computation (reference.py) is timed before and after each load and
   query, and each time is divided by the mean of the two references
   around it and scaled to reference.NOMINAL_S, which cancels the shared
   machine's swings in speed. query_s and setup_s are the medians of the
   scaled query and load times;
4. with --trace 1, runs TRACED_QUERIES queries with spans around each
   layer and the collector's pauses counted, reporting medians, and one
   more under tracemalloc with the peak of the query and of each layer,
   and reports these per-layer metrics instead, with the unscaled median
   query time and the median reference time.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Exit code 0 when correct, 1 when a check failed, 2 when the
program cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from reference import NOMINAL_S, Reference
from tracing import MIB, Tracer

ROOT = Path(__file__).resolve().parent.parent
MIN_QUERIES = 2
TRACED_QUERIES = 3


def _import_program() -> str | None:
    """Import tempcore from ROOT/src; return an error message on failure."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tempcore
    except ImportError as exc:
        return f"cannot import tempcore from {src}: {exc}"
    if not Path(tempcore.__file__).resolve().is_relative_to(src):
        return f"tempcore was imported from {tempcore.__file__}, not from {src}"
    return None


def _load(wl, setup: list[dict[str, float]]):
    """Load the input from a collected heap, recording the time of each layer.

    A load's time is the sum of its layer calls, so making the input file
    on a checkout's first run is not counted. Returns the state and that time.
    """
    gc.collect()
    state, parts = wl.load()
    setup.append(parts)
    return state, sum(parts.values())


def _maxrss_mib() -> float:
    """The process's peak resident set so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Timing:
    """Times of the timed phase; `queries` and `loads` are scaled seconds."""
    queries: list[float] = field(default_factory=list)
    loads: list[float] = field(default_factory=list)
    query_wall: list[float] = field(default_factory=list)
    references: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _timed(wl, state, ref: Reference, seconds: float, expect, problems: list[str],
           setup: list[dict[str, float]]) -> Timing:
    """Alternate loads and queries, each between two reference times."""
    timing = Timing()
    before = ref.measure()
    timing.references.append(before)
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or timing.attempted < MIN_QUERIES:
        load_s = _load(wl, setup)[1]    # the loaded state is dropped here
        middle = ref.measure()
        gc.collect()
        timing.attempted += 1
        t0 = time.perf_counter()
        try:
            signature = wl.query(state)
            query_s = time.perf_counter() - t0
        except Exception:
            signature = None
            timing.failed += 1
            traceback.print_exc()
        after = ref.measure()
        timing.references += [middle, after]
        timing.loads.append(NOMINAL_S * load_s / ((before + middle) / 2))
        if signature is not None:
            timing.query_wall.append(query_s)
            timing.queries.append(NOMINAL_S * query_s / ((middle + after) / 2))
            if signature != expect:
                problems.append(f"timed query output {signature} != checked {expect}")
        before = after
    return timing


def _traced(wl, state, memory: bool):
    tracer = Tracer(memory)
    gc.collect()
    with tracer.patched(wl.layers()):
        signature = wl.query(state)
    return tracer, signature


def _layer_metrics(setup_layers, timings, memory, signature, timed: Timing) -> dict:
    def median_part(name):
        return statistics.median(parts.get(name, 0.0) for parts in setup_layers)

    def one(tracer, name):
        spans = tracer.find(name, "run_query")
        if len(spans) != 1:
            raise RuntimeError(f"expected one {name} span under run_query, "
                               f"found {len(spans)}")
        return spans[0]

    def median_over_queries(value):
        return statistics.median(value(t) for t in timings)

    def layer_s(name):
        return median_over_queries(lambda t: one(t, name).seconds)

    timing = timings[0]
    root = timing.spans[0]
    coretime, windows, sweep = (one(timing, n) for n in ("coretime", "windows", "sweep"))
    windows_count, edges_in_span = windows.info
    st = sweep.info
    is_cli = root.name == "cli"
    query_wall_s = statistics.median(timed.query_wall)
    m = {
        "query.wall_s": (query_wall_s, "s"),
        "machine.ref_s": (statistics.median(timed.references), "s"),
        "query.peak_mib": (memory.spans[0].peak / MIB, "MiB"),
        "graph.parse_s": (median_part("parse"), "s"),
        "graph.stats_s": (median_part("stats"), "s"),
        "workload.place_s": (median_part("place"), "s"),
        "coretime.build_s": (layer_s("coretime"), "s"),
        "coretime.runs": (coretime.info, "count"),
        "coretime.peak_mib": (one(memory, "coretime").peak / MIB, "MiB"),
        "windows.build_s": (layer_s("windows"), "s"),
        "windows.count": (windows_count, "count"),
        "windows.per_edge": (windows_count / max(1, edges_in_span), "ratio"),
        "windows.peak_mib": (one(memory, "windows").peak / MIB, "MiB"),
        "sweep.enumerate_s": (layer_s("sweep"), "s"),
        "sweep.node_ops": (st.node_ops, "count"),
        "sweep.ops_per_output": (st.node_ops / (st.result_size + windows_count),
                                 "ratio"),
        "sweep.cores": (st.cores, "count"),
        "sweep.result_size": (st.result_size, "count"),
        "sweep.peak_live": (st.peak_live, "count"),
        "sweep.peak_state": (st.peak_state, "count"),
        "sweep.peak_mib": (one(memory, "sweep").peak / MIB, "MiB"),
        "cli.format_s": (median_over_queries(
            lambda t: sum((s.seconds for s in t.find("format", "cli")), 0.0)), "s"),
        "cli.output_bytes": (signature[1] if is_cli else 0, "bytes"),
        "cli.peak_mib": (memory.spans[0].self_peak / MIB if is_cli else 0.0, "MiB"),
        "gc.full_collections": (timing.gc_full, "count"),
        "gc.pause_s": (median_over_queries(lambda t: t.gc_pause), "s"),
        "trace.overhead_s": (median_over_queries(lambda t: t.spans[0].seconds)
                             - query_wall_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = _import_program()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    setup: list[dict[str, float]] = []
    baseline_mib = _maxrss_mib()
    state = wl.query_state(_load(wl, setup)[0])
    gc.collect()
    wl.query(state)
    peak_mib = _maxrss_mib() - baseline_mib

    state = None
    ref = Reference()
    state, _ = _load(wl, setup)
    gc.collect()
    problems, expect = wl.check(state, random.Random(args.seed))
    state = wl.query_state(state)

    timed = _timed(wl, state, ref, args.seconds, expect, problems, setup)
    print("perfbench: query seconds " + " ".join(f"{t:.4f}" for t in timed.query_wall)
          + "; reference seconds " + " ".join(f"{t:.4f}" for t in timed.references),
          file=sys.stderr)
    if not timed.queries:
        problems.append("no query completed")

    if args.trace:
        traced = [_traced(wl, state, memory=False) for _ in range(TRACED_QUERIES)]
        traced.append(_traced(wl, state, memory=True))
        for _, signature in traced:
            if signature != expect:
                problems.append(f"traced output {signature} != checked {expect}")
        timings = [tracer for tracer, _ in traced[:-1]]
        memory, signature = traced[-1]
        metrics = _layer_metrics(setup, timings, memory, signature, timed)
    else:
        query_s = statistics.median(timed.queries) if timed.queries else 0.0
        metrics = {"query_s": {"value": query_s, "unit": "s"},
                   "peak_mib": {"value": peak_mib, "unit": "MiB"},
                   "setup_s": {"value": statistics.median(timed.loads), "unit": "s"}}

    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": timed.attempted,
                      "failed": timed.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
