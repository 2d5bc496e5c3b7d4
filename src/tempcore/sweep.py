"""Enumerators for all distinct temporal k-cores of a span.

enumerate_cores walks start times once. Minimal windows live in a doubly
linked list kept in nondecreasing end order; a window is inserted when the
start time reaches its active time and unlinked when the start time passes
its own start, so at any moment each edge contributes at most one window.
For a start time at which some window actually starts, one scan of the list
emits every distinct core whose tightest interval begins there: edges
accumulate in end order, output begins once a window starting exactly at
the current start has been seen, and an emission happens at the last window
of each equal-end run. Distinctness needs no bookkeeping because tightest
intervals are unique per core.

enumerate_cores_baseline is the quadratic reference: for every start time
it buckets each edge's first window starting no earlier and forms cores
cumulatively over end times. A core with tightest interval [a, b] is found
by the scan of start a at end b, and often again by scans of earlier
starts; the baseline emits it only at scan a, so it needs no table of cores
seen and emits in (ts, te) order.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass

from .graph import BudgetExceeded, TemporalEdge, canonical_edges
from .windows import CoreWindowIndex


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
    previous emission of the same start time. Used as is, it counts.
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
    mode = "full"

    def __init__(self) -> None:
        super().__init__()
        self.records = []

    def emit(self, ts, te, acc, prev_len):
        super().emit(ts, te, acc, prev_len)
        self.records.append(CoreResult(ts, te, len(acc), canonical_edges(acc)))


_SINKS = {"count": ResultSink, "sizes": SizesSink, "delta": DeltaSink, "full": FullSink}


def make_sink(mode: str) -> ResultSink:
    try:
        return _SINKS[mode]()
    except KeyError:
        raise ValueError(f"unknown sink mode {mode!r}") from None


class _Node:
    __slots__ = ("window", "prev", "next")

    def __init__(self, window) -> None:
        self.window = window
        self.prev = None
        self.next = None


class WindowList:
    """Doubly linked list of minimal windows with a dummy head."""

    __slots__ = ("head", "live")

    def __init__(self) -> None:
        self.head = _Node(None)
        self.live = 0

    def insert_after(self, a: _Node, node: _Node) -> None:
        b = a.next
        node.next = b
        node.prev = a
        a.next = node
        if b is not None:
            b.prev = node
        self.live += 1

    def delete(self, node: _Node) -> None:
        node.prev.next = node.next
        if node.next is not None:
            node.next.prev = node.prev
        node.prev = node.next = None
        self.live -= 1

    def windows(self):
        node = self.head.next
        while node is not None:
            yield node.window
            node = node.next


def scan_start(wlist: WindowList, ts: int, sink: ResultSink) -> tuple[int, int, int]:
    """Emit every core whose tightest interval starts at ts.

    Returns (emissions, nodes visited, final accumulator length).
    """
    node = wlist.head.next
    acc: list[TemporalEdge] = []
    valid = False
    prev_len = 0
    visits = 0
    emitted = 0
    while node is not None:
        visits += 1
        w = node.window
        acc.append(w.edge)
        if w.start == ts:
            valid = True
        nxt = node.next
        if valid and (nxt is None or w.end != nxt.window.end):
            sink.emit(ts, w.end, acc, prev_len)
            prev_len = len(acc)
            emitted += 1
        node = nxt
    return emitted, visits, len(acc)


@dataclass(frozen=True)
class SweepStats:
    cores: int
    node_ops: int
    result_size: int
    peak_live: int
    peak_state: int


def enumerate_cores(index: CoreWindowIndex, span: tuple[int, int],
                    sink: ResultSink, _on_step=None) -> SweepStats:
    """Sweep all start times of the span, emitting each distinct core once.

    node_ops counts every linked-list node visit (deletions, insertions,
    merge-cursor steps and scan visits); peak_live and peak_state track live
    nodes and live nodes plus accumulator for the memory contract.
    """
    ts_lo, ts_hi = span
    if index.span != (ts_lo, ts_hi):
        raise ValueError("window index was built for a different span")
    order = sorted(index.all_windows(), key=lambda w: w.end)
    by_active: dict[int, list[_Node]] = {}
    by_start: dict[int, list[_Node]] = {}
    for w in order:
        if w.active is None:
            raise ValueError("window index is missing active times")
        node = _Node(w)
        by_active.setdefault(w.active, []).append(node)
        by_start.setdefault(w.start, []).append(node)
    wlist = WindowList()
    ops = 0
    cores = 0
    peak_live = 0
    peak_state = 0
    size0 = sink.result_size
    for t in range(ts_lo, ts_hi + 1):
        if t > ts_lo:
            for node in by_start.get(t - 1, ()):
                wlist.delete(node)
                ops += 1
        h = wlist.head
        for node in by_active.get(t, ()):
            w_end = node.window.end
            while h.next is not None and h.next.window.end < w_end:
                h = h.next
                ops += 1
            wlist.insert_after(h, node)
            ops += 1
            h = node
        if wlist.live > peak_live:
            peak_live = wlist.live
        if _on_step is not None:
            _on_step(t, list(wlist.windows()))
        if not by_start.get(t):
            continue
        emitted, visits, acc_len = scan_start(wlist, t, sink)
        ops += visits
        cores += emitted
        state = wlist.live + acc_len
        if state > peak_state:
            peak_state = state
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
        for te in range(ts, ts_hi + 1):
            scanned += 1
            bucket = buckets.get(te)
            if not bucket:
                continue
            acc.extend(bucket)
            canonical = canonical_edges(acc)
            if canonical[0].t != ts:
                continue
            sink.emit(ts, canonical[-1].t, acc, prev_len)
            prev_len = len(acc)
            cores += 1
    return BaselineStats(cores, scanned, sink.result_size - size0)
