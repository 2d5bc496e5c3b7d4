"""Enumerators for all distinct temporal k-cores of a span.

enumerate_cores walks start times once. The live minimal windows are held
in groups keyed by end time; a window joins its group when the start time
reaches its active time and leaves it when the start time passes its own
start, so at any moment each edge contributes at most one window. For a
start time at which some window actually starts, one scan emits every
distinct core whose tightest interval begins there: the groups are
accumulated in end order, and each group from the smallest end of a window
starting exactly there onward is one emission. Distinctness needs no
bookkeeping because tightest intervals are unique per core.

enumerate_cores_baseline is the quadratic reference: for every start time
it buckets each edge's first window starting no earlier and forms cores
cumulatively over end times. A core with tightest interval [a, b] is found
by the scan of start a at end b, and often again by scans of earlier
starts; the baseline emits it only at scan a, so it needs no table of cores
seen and emits in (ts, te) order.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .graph import BudgetExceeded, TemporalEdge
from .windows import CoreWindowIndex, MinimalCoreWindow


@dataclass(frozen=True)
class CoreResult:
    ts: int
    te: int
    size: int
    edges: tuple[TemporalEdge, ...] | None


class ResultSink:
    """Receives (tti_ts, tti_te, accumulated edges) per emitted core.

    Every enumerator (the sweep, the baseline, and run_query for brute)
    calls emit in (ts, te) ascending order with a strictly growing
    accumulator per ts; prev_len marks the accumulator length at the
    previous emission of the same start time, so it is 0 exactly at the
    first emission of a start time. Used as is, it counts.
    """

    mode = "count"

    def __init__(self) -> None:
        self.cores = 0
        self.result_size = 0
        self.records: list[CoreResult] | None = None

    def emit(self, ts: int, te: int, acc: list[TemporalEdge], prev_len: int) -> None:
        self.cores += 1
        self.result_size += len(acc)


class SizesSink(ResultSink):
    mode = "sizes"

    def __init__(self) -> None:
        super().__init__()
        self.records = []

    def emit(self, ts, te, acc, prev_len):
        super().emit(ts, te, acc, prev_len)
        self.records.append(CoreResult(ts, te, len(acc), None))


class DeltaSink(ResultSink):
    mode = "delta"

    def __init__(self) -> None:
        super().__init__()
        self.records = []

    def emit(self, ts, te, acc, prev_len):
        super().emit(ts, te, acc, prev_len)
        self.records.append(CoreResult(ts, te, len(acc), tuple(acc[prev_len:])))


class FullSink(ResultSink):
    """Records each core's edges sorted by (t, u, v).

    The current start time's edges are kept as a sorted run, so an emission
    inserts only its new edges instead of sorting the whole accumulator.
    """

    mode = "full"

    def __init__(self) -> None:
        super().__init__()
        self.records = []
        self._keys: list[tuple[int, int, int]] = []
        self._run: list[TemporalEdge] = []

    def emit(self, ts, te, acc, prev_len):
        super().emit(ts, te, acc, prev_len)
        keys, run = self._keys, self._run
        if prev_len == 0:
            keys.clear()
            run.clear()
        for e in acc[prev_len:]:
            u, v, t = e
            key = (t, u, v)
            i = bisect_right(keys, key)
            keys.insert(i, key)
            run.insert(i, e)
        self.records.append(CoreResult(ts, te, len(acc), tuple(run)))


_SINKS = {"count": ResultSink, "sizes": SizesSink, "delta": DeltaSink, "full": FullSink}


def make_sink(mode: str) -> ResultSink:
    try:
        return _SINKS[mode]()
    except KeyError:
        raise ValueError(f"unknown sink mode {mode!r}") from None


@dataclass(frozen=True)
class SweepStats:
    cores: int
    node_ops: int
    result_size: int
    peak_live: int
    peak_state: int


def enumerate_cores(index: CoreWindowIndex, span: tuple[int, int],
                    sink: ResultSink, _on_step=None,
                    deadline: float | None = None) -> SweepStats:
    """Sweep all start times of the span, emitting each distinct core once.

    node_ops counts window insertions, window deletions and end groups
    visited by the scans; peak_live and peak_state track live windows and
    live windows plus accumulator for the memory contract. A deadline
    (a time.perf_counter value) is checked once per start time.
    """
    ts_lo, ts_hi = span
    if index.span != (ts_lo, ts_hi):
        raise ValueError("window index was built for a different span")
    by_active: dict[int, list[MinimalCoreWindow]] = {}
    by_start: dict[int, list[MinimalCoreWindow]] = {}
    for w in index.all_windows():
        if w.active is None:
            raise ValueError("window index is missing active times")
        by_active.setdefault(w.active, []).append(w)
        by_start.setdefault(w.start, []).append(w)
    live: dict[int, dict[TemporalEdge, MinimalCoreWindow]] = {}
    n_live = 0
    ops = 0
    cores = 0
    peak_live = 0
    peak_state = 0
    size0 = sink.result_size
    for t in range(ts_lo, ts_hi + 1):
        if deadline is not None and time.perf_counter() > deadline:
            raise BudgetExceeded(f"sweep exceeded its deadline at start {t}")
        expired = by_start.get(t - 1, ())
        for w in expired:
            group = live[w.end]
            del group[w.edge]
            if not group:
                del live[w.end]
        added = by_active.get(t, ())
        for w in added:
            live.setdefault(w.end, {})[w.edge] = w
        n_live += len(added) - len(expired)
        ops += len(added) + len(expired)
        if n_live > peak_live:
            peak_live = n_live
        if _on_step is not None:
            _on_step(t, [w for te in sorted(live) for w in live[te].values()])
        starting = by_start.get(t)
        if not starting:
            continue
        first = min(w.end for w in starting)
        acc: list[TemporalEdge] = []
        prev_len = 0
        for te in sorted(live):
            ops += 1
            acc.extend(live[te])
            if te >= first:
                sink.emit(t, te, acc, prev_len)
                prev_len = len(acc)
                cores += 1
        if n_live + len(acc) > peak_state:
            peak_state = n_live + len(acc)
    return SweepStats(cores, ops, sink.result_size - size0, peak_live, peak_state)


@dataclass(frozen=True)
class BaselineStats:
    cores: int
    windows_scanned: int
    result_size: int


def enumerate_cores_baseline(index: CoreWindowIndex, span: tuple[int, int],
                             sink: ResultSink,
                             deadline: float | None = None) -> BaselineStats:
    """Bucket-and-scan every window of the span, emitting each distinct core
    once, at the scan of its tightest start time."""
    ts_lo, ts_hi = span
    if index.span != (ts_lo, ts_hi):
        raise ValueError("window index was built for a different span")
    edge_wins = [(e, [w.start for w in wins], wins)
                 for e, wins in index.by_edge.items() if wins]
    scanned = 0
    cores = 0
    size0 = sink.result_size
    for ts in range(ts_lo, ts_hi + 1):
        if deadline is not None and time.perf_counter() > deadline:
            raise BudgetExceeded(f"baseline scan exceeded its deadline at start {ts}")
        buckets: dict[int, list[TemporalEdge]] = {}
        for e, starts, wins in edge_wins:
            i = bisect_left(starts, ts)
            if i < len(starts):
                buckets.setdefault(wins[i].end, []).append(e)
        acc: list[TemporalEdge] = []
        prev_len = 0
        t_min, t_max = ts_hi + 1, ts
        for te in range(ts, ts_hi + 1):
            scanned += 1
            bucket = buckets.get(te)
            if not bucket:
                continue
            acc.extend(bucket)
            t_min = min(t_min, min(e.t for e in bucket))
            t_max = max(t_max, max(e.t for e in bucket))
            if t_min != ts:
                continue
            sink.emit(ts, t_max, acc, prev_len)
            prev_len = len(acc)
            cores += 1
    return BaselineStats(cores, scanned, sink.result_size - size0)
