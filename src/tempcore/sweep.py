"""Enumerators for all distinct temporal k-cores of a span.

Both read the window index's flat columns (edge id, start, end; 12 bytes
per window, see windows) by window id and make no window objects, and both
accumulate edge ids (enumerate_cores only for a sink that reads them).

enumerate_cores walks start times once. The live minimal windows are held
in groups keyed by end time, each group the set of ids of the edges whose
live window ends there, or, for a sink that reads no ids, only their
number; the window ids are bucketed by start time in 32-bit arrays. So a
count-mode sweep holds no int object per window or per edge: on the
100k-edge burst graph with k=2 over its whole range its own tracemalloc
peak is 0.6 MiB, against 10.3 MiB with a set per group and a list per
start time. The id-reading groups stay sets, as extending the
accumulator by a set runs in C. At start time ts an edge's live window is
its first window starting no earlier than ts: its first window is live
from the span start, and when a window expires (ts passes its start) the
edge's next window, the next window id, takes its place, so at any moment
each edge contributes at most one window. For a start time at which some window
actually starts, one scan emits every distinct core whose tightest
interval begins there: the groups are accumulated in end order, and each
group from the smallest end of a window starting exactly there onward is
one emission. Distinctness needs no bookkeeping because tightest intervals
are unique per core.

enumerate_cores_baseline is the quadratic reference: for every start time
it buckets each edge's first window starting no earlier, found by
bisecting the edge's run of the columns, and forms cores cumulatively over
end times. A core with tightest interval [a, b] is found by the scan of
start a at end b, and often again by scans of earlier starts; the baseline
emits it only at scan a, so it needs no table of cores seen and emits in
(ts, te) order.

Both bind the sink to index.g.edges, then hand it each core as (ts,
te, accumulated ids, prev_len); each reports as its cores and result_size
how far the sink's counts rose. A sink whose reads_edges is false, as in
count and sizes mode, reads only len(acc), so enumerate_cores sums group
counts instead and hands it range(size), a sized stand-in holding no ids.
A ResultSink counts; a RecordSink reports no edges (sizes), the core's new
edges (delta) or all its edges (full), mapped once per edge id to a value,
in id order, which is (t, u, v) order.
Both sort only the emission's new ids; full appends their values to the
start time's run when they all follow its last id and otherwise re-sorts
the accumulator, so every emission costs a sort of at most its own output.
The library sinks keep CoreResult records of TemporalEdges; workload's
stream writer is a RecordSink whose values are result-line texts.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, partial

from .graph import TemporalEdge, check_deadline
from .windows import CoreWindowIndex


@dataclass(frozen=True)
class CoreResult:
    ts: int
    te: int
    size: int
    edges: tuple[TemporalEdge, ...] | None


class ResultSink:
    """Receives (tti_ts, tti_te, accumulated edge ids) per emitted core.

    Every enumerator (the sweep, the baseline, and run_query for brute)
    first calls bind with the edges its ids index, then calls emit in
    (ts, te) ascending order with a strictly growing accumulator per ts;
    prev_len marks the accumulator length at the previous emission of the
    same start time, so it is 0 exactly at the first emission of a start
    time and acc[prev_len:] are the core's new edges. A sink that reads no
    ids leaves reads_edges false and may be handed, in place of the ids, a
    sized stand-in whose length is the core's size. Used as is, it counts;
    RecordSink decides what every other mode reports for a core.
    """

    reads_edges = False

    def __init__(self) -> None:
        self.cores = 0
        self.result_size = 0
        self.records: list[CoreResult] | None = None

    def bind(self, edges: Sequence[TemporalEdge]) -> None:
        """edges[i] is the edge of id i in the accumulators to come."""

    def emit(self, ts: int, te: int, acc: Sequence[int], prev_len: int) -> None:
        self.cores += 1
        self.result_size += len(acc)


class RecordSink(ResultSink):
    """Reports each core's edges as the mode decides, through record.

    sizes reports no edges, so it reads no ids and gets the sized stand-in;
    delta the core's new edges, and full all of the start time's edges so
    far, both as value(i) per edge id i, in id order.
    Without a value function, an edge's value is its TemporalEdge, taken
    from the bound edges; bind caches the function, so each id is mapped
    once. Both modes sort only the emission's new ids. full keeps the start
    time's values as one run and only its last id: new ids that all exceed
    it are appended, and otherwise the run is rebuilt from the sorted
    accumulator, so an emission costs a sort, never a shift per id.
    """

    def __init__(self, mode: str, value=None) -> None:
        if mode not in ("sizes", "delta", "full"):
            raise ValueError(f"unknown mode {mode!r}")
        super().__init__()
        self.mode = mode
        self.reads_edges = mode != "sizes"
        self.records = []
        self._value = value
        self._value_of = None
        self._run: list = []
        self._last = -1

    def bind(self, edges):
        self._value_of = cache(edges.__getitem__ if self._value is None
                               else self._value)

    def emit(self, ts, te, acc, prev_len):
        super().emit(ts, te, acc, prev_len)
        if self.mode == "sizes":
            values = None
        else:
            new = sorted(acc[prev_len:])
            if self.mode == "delta":
                values = list(map(self._value_of, new))
            else:
                if prev_len and new[0] > self._last:
                    self._run.extend(map(self._value_of, new))
                else:
                    if prev_len:
                        new = sorted(acc)
                    self._run = list(map(self._value_of, new))
                self._last = new[-1]
                values = self._run
        self.record(ts, te, len(acc), values)

    def record(self, ts: int, te: int, size: int, values: list | None) -> None:
        """Keep one core; values is None in sizes mode."""
        self.records.append(CoreResult(ts, te, size,
                                       None if values is None else tuple(values)))


class FullSink(RecordSink):
    def __init__(self) -> None:
        super().__init__("full")


def make_sink(mode: str) -> ResultSink:
    return ResultSink() if mode == "count" else RecordSink(mode)


@dataclass(frozen=True)
class SweepStats:
    cores: int
    node_ops: int
    result_size: int
    peak_live: int
    peak_state: int


def enumerate_cores(index: CoreWindowIndex, span: tuple[int, int],
                    sink: ResultSink,
                    deadline: float | None = None) -> SweepStats:
    """Sweep all start times of the span, emitting each distinct core once.

    node_ops counts window insertions, window deletions and end groups
    visited by the scans; peak_live and peak_state, the most live windows
    and live windows plus a scan's largest core (its accumulator, when the
    sink reads ids), serve the memory contract. peak_live is the first
    placement's count, as an expiry swaps a window for at most its edge's
    next one. A deadline (a time.perf_counter value) is checked once per
    start time.
    """
    ts_lo, ts_hi = span
    if index.span != (ts_lo, ts_hi):
        raise ValueError("window index was built for a different span")
    edge, start, end = index.edge, index.start, index.end
    n = len(start)
    sink.bind(index.g.edges)
    gather = sink.reads_edges
    # window ids by start time, as 32-bit arrays
    by_start: dict[int, array] = defaultdict(partial(array, "i"))
    for i, s in enumerate(start):
        by_start[s].append(i)
    # the live windows by end time: the ids of their edges when the sink
    # reads them, else only how many there are. Each edge's first window is
    # live from the span start; the groups are made in a loop of their own,
    # as made amid the by_start arrays the sweep read about 5% slower
    live: dict[int, set[int] | int] = {}
    n_live = 0
    prev = None
    for e, te in zip(edge, end):
        if e != prev:
            if gather:
                live.setdefault(te, set()).add(e)
            else:
                live[te] = live.get(te, 0) + 1
            n_live += 1
            prev = e
    ops = peak_live = n_live
    peak_state = 0
    cores0, size0 = sink.cores, sink.result_size
    for t in range(ts_lo, ts_hi + 1):
        check_deadline(deadline, "sweep at start", t)
        expired = by_start.get(t - 1, ())
        for i in expired:
            e = edge[i]
            te = end[i]
            if gather:
                group = live[te]
                group.remove(e)
                if not group:
                    del live[te]
            elif live[te] > 1:
                live[te] -= 1
            else:
                del live[te]
            # the edge's next window goes live as this one expires
            j = i + 1
            if j < n and edge[j] == e:
                te = end[j]
                if gather:
                    live.setdefault(te, set()).add(e)
                else:
                    live[te] = live.get(te, 0) + 1
                n_live += 1
                ops += 1
        n_live -= len(expired)
        ops += len(expired)
        starting = by_start.get(t)
        if not starting:
            continue
        first = min(map(end.__getitem__, starting))
        prev_len = 0
        # one branch per scan, so the gathering loop is the same for the
        # id-reading sinks and the counting one does no per-group test
        if gather:
            acc: list[int] = []
            for te in sorted(live):
                ops += 1
                acc.extend(live[te])
                if te >= first:
                    sink.emit(t, te, acc, prev_len)
                    prev_len = len(acc)
            size = len(acc)
        else:
            size = 0
            for te in sorted(live):
                ops += 1
                size += live[te]
                if te >= first:
                    sink.emit(t, te, range(size), prev_len)
                    prev_len = size
        if n_live + size > peak_state:
            peak_state = n_live + size
    return SweepStats(sink.cores - cores0, ops, sink.result_size - size0,
                      peak_live, peak_state)


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
    edge, start, end, edge_t = index.edge, index.start, index.end, index.g.edge_t
    # per edge holding windows, its id and the bounds of its run of ids
    runs = [(e, bisect_left(edge, e), bisect_right(edge, e))
            for e in dict.fromkeys(edge)]
    sink.bind(index.g.edges)
    cores0, size0 = sink.cores, sink.result_size
    for ts in range(ts_lo, ts_hi + 1):
        check_deadline(deadline, "baseline scan at start", ts)
        buckets: dict[int, list[int]] = {}
        for e, lo, hi in runs:
            i = bisect_left(start, ts, lo, hi)
            if i < hi:
                buckets.setdefault(end[i], []).append(e)
        acc: list[int] = []
        prev_len = 0
        t_min, t_max = ts_hi + 1, ts
        for te in range(ts, ts_hi + 1):
            bucket = buckets.get(te)
            if not bucket:
                continue
            acc.extend(bucket)
            # ids are in time order
            t_min = min(t_min, edge_t[min(bucket)])
            t_max = max(t_max, edge_t[max(bucket)])
            if t_min != ts:
                continue
            sink.emit(ts, t_max, acc, prev_len)
            prev_len = len(acc)
    w = ts_hi - ts_lo + 1  # every (ts, te) pair of the span is scanned
    return BaselineStats(sink.cores - cores0, w * (w + 1) // 2, sink.result_size - size0)
