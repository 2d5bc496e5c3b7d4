"""Per-vertex core time index.

For a query (k, [Ts, Te]) and a start time ts, the core time of a vertex is
the earliest end time te such that the vertex survives k-core peeling of the
window [ts, te]. Per vertex that function of ts is nondecreasing, so it is
stored run-length encoded as (from_ts, core_end) runs.

Layout: the index holds no object per run or per vertex. Its runs are three
flat 32-bit columns: vertex v's runs are starts[i], ends[i] for i in
offsets[v]:offsets[v + 1], ordered by start. An end of span[1] + 1, the
first time past the query, means never: no core from that start time on.
So each vertex's ends are nondecreasing; runs reads them as None. The
index keeps the graph it was built from, g: to_text names vertices by g's
labels, and build_core_windows takes the index only for that same graph.

build_core_times computes the first start time exactly with one decremental
sweep, then repairs later start times locally. The repair rule: a vertex's
core time is the k-th smallest, over distinct in-window neighbours, of
max(earliest connecting timestamp, neighbour core time). True core times are
the least fixpoint of that rule, and iterating it upward from the previous
start time's values (which are valid lower bounds) converges exactly there,
so only vertices reachable from expired edges are ever touched. A repair
reads its vertex's adjacency from the start time, found by bisection, to
the span end, which the first peel's hi_pos holds.

The pruned push: a neighbour y reads x only through its term
max(t_xy, ct[x]), and raising one term of a multiset moves its k-th
smallest c only when the term crosses from <= c to > c. So when x's core
time rises from old to new, y is pushed only if
max(t_xy, old) <= ct[y] < max(t_xy, new).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain, repeat

from .graph import (TemporalGraph, WindowPeel, check_deadline, check_query,
                    counting_offsets)

Runs = tuple[tuple[int, int | None], ...]


class CoreTimeIndex:
    """The core-time runs of one (k, span) query on graph g, as flat columns.

    Vertex v's runs are (starts[i], ends[i]) for i in range(offsets[v],
    offsets[v + 1]), ordered by start; an end past the span (span[1] + 1)
    means never, so each vertex's ends are nondecreasing.
    """

    __slots__ = ("k", "span", "g", "offsets", "starts", "ends")

    def __init__(self, k: int, span: tuple[int, int], g: TemporalGraph,
                 offsets: array, starts: array, ends: array) -> None:
        self.k = k
        self.span = span
        self.g = g
        self.offsets = offsets
        self.starts = starts
        self.ends = ends

    @property
    def size(self) -> int:
        return len(self.starts)

    @property
    def runs(self) -> tuple[Runs, ...]:
        """Per vertex, its (from_ts, core_end) runs with None for never,
        built anew from the columns on each access."""
        off, starts, ends = self.offsets, self.starts, self.ends
        hi = self.span[1]
        return tuple(tuple((starts[i], ends[i] if ends[i] <= hi else None)
                           for i in range(off[v], off[v + 1]))
                     for v in range(len(off) - 1))

    def to_text(self) -> str:
        """One line per vertex with entries, by label: 'v3: [1,4], [2,6], [7,inf]'."""
        lines = []
        for label, entries in zip(self.g.labels, self.runs):
            if not entries:
                continue
            body = ", ".join(f"[{ts},{'inf' if ct is None else ct}]" for ts, ct in entries)
            lines.append(f"v{label}: {body}")
        return "\n".join(lines)


def build_core_times(g: TemporalGraph, k: int, span: tuple[int, int],
                     deadline: float | None = None) -> CoreTimeIndex:
    """Core-time runs of every vertex for one (k, span) query.

    A deadline (a time.perf_counter value) is checked once per start time,
    and once per end time in the first start time's peel.
    """
    check_query(g, k, span)
    ts_lo, ts_hi = span
    n = g.n
    never = ts_hi + 1
    off, adj_t, adj_y = g.adj_off, g.adj_t, g.adj_y
    edge_u, edge_v, t_off = g.edge_u, g.edge_v, g.t_off

    check_deadline(deadline, "core times at start", ts_lo)
    ct, span_end = _initial_core_times(g, k, span, deadline)
    # one (vertex, end) entry per run, in start order, and a run count per
    # start time; no object per run or per vertex, so the build leaves the
    # collector nothing to walk
    run_v, run_end, per_start = array("i"), array("i"), array("i")
    add_v, add_end = run_v.append, run_end.append
    for v, c in enumerate(ct):
        if c != never:
            add_v(v)
            add_end(c)
    per_start.append(len(run_v))
    # marked flags the vertices in changed, those changed at the current
    # start time, so that each is listed once
    marked = bytearray(n)

    for ts in range(ts_lo + 1, ts_hi + 1):
        check_deadline(deadline, "core times at start", ts)
        # the vertices to re-evaluate; popitem takes the last one added,
        # and adding one already there leaves it where it is
        pending = dict.fromkeys(x for i in range(t_off[ts - 1], t_off[ts])
                                for x in (edge_u[i], edge_v[i]) if ct[x] != never)
        changed = []
        while pending:
            x = pending.popitem()[0]
            old = ct[x]
            new, first = _local_core_time(adj_t, adj_y, off[x], span_end[x],
                                          ts, k, ct, never)
            if new > old:
                ct[x] = new
                if not marked[x]:
                    marked[x] = 1
                    changed.append(x)
                for y, t in first.items():
                    # never, the largest value, fails the upper bound, so
                    # no check for neighbours already out of every core
                    if (t if t > old else old) <= ct[y] < (t if t > new else new):
                        pending[y] = None
        for x in changed:
            marked[x] = 0
            add_v(x)
            add_end(ct[x])
        per_start.append(len(changed))
    del ct, span_end, marked

    # stable counting sort of the runs by vertex; cursor[v] is where v's
    # next run goes, and each run's start is repeated from the counts
    offsets = counting_offsets(run_v, n)
    cursor = offsets[:-1]
    starts = array("i", bytes(4 * len(run_v)))
    ends = array("i", bytes(4 * len(run_v)))
    run_start = chain.from_iterable(map(repeat, range(ts_lo, ts_hi + 1), per_start))
    for v, s, e in zip(run_v, run_start, run_end):
        i = cursor[v]
        starts[i] = s
        ends[i] = e
        cursor[v] = i + 1
    return CoreTimeIndex(k, (ts_lo, ts_hi), g, offsets, starts, ends)


def _local_core_time(adj_t: list[int], adj_y: list[int], lo: int, hi: int,
                     ts: int, k: int, ct: list[int], never: int):
    """x's core time by the repair rule, and its neighbours' terms.

    adj_t[lo:hi], adj_y[lo:hi] are x's adjacency up to the span end.
    Returns the k-th smallest, over distinct neighbours y connected at or
    after ts, of max(t_xy, ct[y]), with t_xy the first such connecting
    time, or never when x has fewer than k such neighbours; and the dict
    y -> t_xy.
    """
    lo = bisect_left(adj_t, ts, lo, hi)
    # walked backwards, each neighbour's last assignment is its earliest time
    first = dict(zip(reversed(adj_y[lo:hi]), reversed(adj_t[lo:hi])))
    if len(first) < k:
        return never, first
    terms = [t if t >= (c := ct[y]) else c for y, t in first.items()]
    terms.sort()
    return terms[k - 1], first


def _initial_core_times(g: TemporalGraph, k: int, span: tuple[int, int],
                        deadline: float | None) -> tuple[list[int], array]:
    """Exact core times for the span's first start time, span end + 1 for
    never, and the peel's hi_pos.

    Shrinks the window from the right; a vertex peeled while dropping the
    edges of end time te was last in a core at te. The deadline is checked
    once per end time. hi_pos[x] is where x's entries past the span end
    begin, for each x of the span's k-core, the only vertices repaired.
    """
    ts_lo, ts_hi = span
    peel = WindowPeel(g, k, ts_lo, ts_hi)
    ct = [ts_hi + 1] * g.n
    for te in range(ts_hi, ts_lo - 1, -1):
        check_deadline(deadline, "first core-time peel at end", te)
        if not peel.size:
            break
        for w in peel.drop(te):
            ct[w] = te
    return ct, peel.hi_pos
