"""Query workloads: parameter resolution, seeded range placement, the query
pipeline shared by the CLI and the benchmarks, run reports, and the result
line format, which StreamSink, a sweep.RecordSink, writes as cores are
emitted."""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass
from typing import TextIO

from .coretime import build_core_times
from .graph import TemporalEdge, TemporalGraph, stats
from .oracle import brute_enumerate, temporal_kcore
from .sweep import (CoreResult, EdgeMemo, RecordSink, enumerate_cores,
                    enumerate_cores_baseline, make_sink)
from .windows import build_core_windows

ALGORITHMS = ("enum", "enumbase", "brute")
MODES = ("count", "sizes", "delta", "full")


class WorkloadError(RuntimeError):
    """A workload could not be generated as requested."""


def resolve_k(pct: int, k_max: int) -> int:
    """k = max(1, floor(pct * k_max / 100)); pct must lie in (0, 100]."""
    if not 0 < pct <= 100:
        raise ValueError(f"k percentage {pct} outside (0, 100]")
    return max(1, (pct * k_max) // 100)


def resolve_width(pct: int, t_max: int) -> int:
    """Range width = max(1, floor(pct * t_max / 100)); pct in (0, 100]."""
    if not 0 < pct <= 100:
        raise ValueError(f"range percentage {pct} outside (0, 100]")
    return max(1, (pct * t_max) // 100)


@dataclass(frozen=True)
class QuerySpec:
    k: int
    ts: int
    te: int
    k_pct: int | None = None
    t_pct: int | None = None


def place_span(g: TemporalGraph, k: int, width: int, rng: random.Random,
               max_attempts: int = 200) -> tuple[tuple[int, int], int]:
    """Uniformly place a width-wide range that contains at least one k-core.

    A draw is rejected unless the k-core of the whole range is non-empty;
    a k-core only grows with its window, so that is exactly when some
    sub-window holds one. Returns the span and the number of rejected draws;
    raises WorkloadError when max_attempts draws all fail.
    """
    if not 1 <= width <= g.t_count:
        raise ValueError(f"width {width} outside 1..{g.t_count}")
    rejections = 0
    for _ in range(max_attempts):
        ts0 = rng.randint(1, g.t_count - width + 1)
        span = (ts0, ts0 + width - 1)
        if temporal_kcore(g, k, span) is not None:
            return span, rejections
        rejections += 1
    raise WorkloadError(f"no width-{width} range with a {k}-core found "
                        f"after {max_attempts} attempts")


def gen_queries(g: TemporalGraph, k_pcts, t_pcts, count: int, seed: int,
                max_attempts: int = 200) -> tuple[list[QuerySpec], int]:
    """Seeded workload generation with rejection sampling.

    Returns the specs plus the number of rejected draws; raises
    WorkloadError, naming the cell, when a cell cannot be satisfied within
    max_attempts draws per query.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    k_max = stats(g).k_max
    rng = random.Random(seed)
    specs: list[QuerySpec] = []
    rejections = 0
    for k_pct in k_pcts:
        k = resolve_k(k_pct, k_max)
        for t_pct in t_pcts:
            width = resolve_width(t_pct, g.t_count)
            for _ in range(count):
                try:
                    span, rejected = place_span(g, k, width, rng, max_attempts)
                except WorkloadError as exc:
                    raise WorkloadError(
                        f"cell k_pct={k_pct} (k={k}), t_pct={t_pct}: {exc}") from None
                rejections += rejected
                specs.append(QuerySpec(k=k, ts=span[0], te=span[1],
                                       k_pct=k_pct, t_pct=t_pct))
    return specs, rejections


@dataclass
class RunReport:
    algo: str
    k: int
    ts: int
    te: int
    cores: int
    result_size: int
    core_times_size: int
    windows_size: int
    node_ops: int
    windows_scanned: int
    t_core_times: float
    t_windows: float
    t_enumerate: float
    peak_rss_kb: int

    @property
    def t_total(self) -> float:
        return self.t_core_times + self.t_windows + self.t_enumerate

    def line(self) -> str:
        return (f"report algo={self.algo} k={self.k} span=[{self.ts},{self.te}] "
                f"cores={self.cores} result_size={self.result_size} "
                f"core_times_size={self.core_times_size} "
                f"windows_size={self.windows_size} "
                f"node_ops={self.node_ops} windows_scanned={self.windows_scanned} "
                f"core_times_s={self.t_core_times:.4f} "
                f"windows_s={self.t_windows:.4f} "
                f"enum_s={self.t_enumerate:.4f} peak_rss_kb~{self.peak_rss_kb}")


def _peak_rss_kb() -> int:
    # process-wide high water mark, an approximation by design
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def validate_query(g: TemporalGraph, k: int, span: tuple[int, int],
                   algo: str = "enum", mode: str = "count") -> None:
    """Raise ValueError unless run_query accepts these arguments."""
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if k < 1:
        raise ValueError("k must be at least 1")
    ts_lo, ts_hi = span
    if not 1 <= ts_lo <= ts_hi <= g.t_count:
        raise ValueError(f"span [{ts_lo},{ts_hi}] outside 1..{g.t_count}")


def run_query(g: TemporalGraph, k: int, span: tuple[int, int], algo: str = "enum",
              mode: str = "count", deadline: float | None = None,
              out: TextIO | None = None) -> tuple[list[CoreResult], RunReport]:
    """Run one query end to end and report per-phase timings.

    In count mode the record list is empty; counts live in the report. Given
    out, the other modes write each core's format_record line to it as the
    core is emitted and return no records. Past the deadline (a
    time.perf_counter value) every algorithm raises BudgetExceeded, leaving
    out with the lines written so far.
    """
    validate_query(g, k, span, algo, mode)
    ts_lo, ts_hi = span
    sink = StreamSink(g, mode, out) if out is not None and mode != "count" \
        else make_sink(mode)
    core_times_size = windows_size = node_ops = scanned = 0
    t0 = t1 = t2 = time.perf_counter()
    if algo == "brute":
        result = brute_enumerate(g, k, span, deadline=deadline)
        scanned = result.windows_scanned
        # the cores come TTI-sorted and those of one start time are nested,
        # so each extends its start time's accumulator by its new edges
        acc: list[TemporalEdge] = []
        members: set[TemporalEdge] = set()
        acc_ts = None
        for core in result.cores:
            if core.tti[0] != acc_ts:
                acc, members, acc_ts = [], set(), core.tti[0]
            prev_len = len(acc)
            acc.extend(e for e in core.edges if e not in members)
            members.update(core.edges)
            sink.emit(acc_ts, core.tti[1], acc, prev_len)
    else:
        core_times = build_core_times(g, k, span, deadline=deadline)
        t1 = time.perf_counter()
        core_windows = build_core_windows(g, k, span, core_times,
                                          deadline=deadline)
        t2 = time.perf_counter()
        if algo == "enum":
            node_ops = enumerate_cores(core_windows, span, sink,
                                       deadline=deadline).node_ops
        else:
            scanned = enumerate_cores_baseline(core_windows, span, sink,
                                               deadline=deadline).windows_scanned
        core_times_size, windows_size = core_times.size, core_windows.size
    t3 = time.perf_counter()
    report = RunReport(algo, k, ts_lo, ts_hi, sink.cores, sink.result_size,
                       core_times_size, windows_size, node_ops, scanned,
                       t1 - t0, t2 - t1, t3 - t2, _peak_rss_kb())
    return list(sink.records or ()), report


def _edge_texts(g: TemporalGraph):
    """The item e -> ((t, lo, hi), "[lo,hi,raw_t]") of result lines.

    lo and hi are the endpoints' original ids, smaller first. Ranks order
    like raw timestamps, so sorting by the key sorts by (raw t, lo, hi).
    """
    labels, raw_values = g.labels, g.time_domain.raw_values

    def item(e: TemporalEdge) -> tuple[tuple[int, int, int], str]:
        u, v, t = e
        lo, hi = labels[u], labels[v]
        if hi < lo:
            lo, hi = hi, lo
        return (t, lo, hi), f"[{lo},{hi},{raw_values[t - 1]}]"

    return item


def _line(g: TemporalGraph, ts: int, te: int, size: int, texts) -> str:
    raw = g.time_domain.raw
    line = f"tti_ts={raw(ts)} tti_te={raw(te)} size={size}"
    return line if texts is None else line + " edges=" + "".join(texts)


def format_record(rec: CoreResult, g: TemporalGraph) -> str:
    """One result line: tti fields, size, and optionally the edge triples.

    Vertex ids and timestamps are reported in their original input values;
    edge triples are printed sorted by (t, u, v) of those values with the
    smaller endpoint first, so equal streams diff clean.
    """
    texts = None if rec.edges is None else \
        EdgeMemo(_edge_texts(g)).sorted_values(rec.edges)
    return _line(g, rec.ts, rec.te, rec.size, texts)


class StreamSink(RecordSink):
    """Writes each core's format_record line as it is emitted; keeps no record."""

    def __init__(self, g: TemporalGraph, mode: str, out: TextIO) -> None:
        super().__init__(mode, _edge_texts(g))
        self._g = g
        self._out = out

    def record(self, ts, te, size, texts):
        self._out.write(_line(self._g, ts, te, size, texts) + "\n")
