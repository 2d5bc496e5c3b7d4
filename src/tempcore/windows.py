"""Per-edge minimal core windows (the edge's core-window skyline).

A window [s, e] is minimal for an edge when the edge lies in the k-core of
that window's projection but of no strict sub-window. Per edge the minimal
windows strictly increase in both endpoints, so none contains another.

Derivation from core times: for an edge (u, v, t) the earliest core end
from start ts is f(ts) = max(ct(u, ts), ct(v, ts), t) for ts <= t, with
never stored as the span end + 1. f is nondecreasing, and the minimal
windows are [last ts of each constant run of f, f] for each run whose f
lies in the span. Earlier starts of a run yield the same end and are
therefore dominated. The run ending at ts = t covers the edge's expiry
from the window, and the run reaching the span end is flushed as well.

Layout: the index holds no object per window. Its windows are three flat
32-bit columns, `edge` (an edge id), `start` and `end`. That is 12 bytes
per window: 1.2 MiB (tracemalloc) for the 100,035 windows of the 100k-edge
burst graph with k=2 over its whole range. The index keeps the graph it was
built from, g, whose ids the edge column holds; its span edges are the ids
g.ids_in(*span). by_edge is the one read view: it gives each span edge, as
a TemporalEdge, its (start, end) pairs, made from the columns on demand.

Order invariant: every index holds its windows in edge id order, which is
(t, u, v) order, then by start. So an edge's windows are one run of the
columns, which by_edge and the baseline enumerator find by bisecting
`edge`, and the sweep's next window for an edge is the next window id.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Mapping

from .coretime import CoreTimeIndex
from .graph import TemporalEdge, TemporalGraph, check_deadline

# span edges walked between two deadline checks; a check per timestamp made
# the build 8% slower on the burst graph (k=2, full range), 18% on criterion 8's span
_BLOCK = 4096


class CoreWindowIndex:
    """The minimal windows of one (k, span) query on graph g, as columns.

    Window i is (edge[i], start[i], end[i]), ordered by edge id, then by
    start; edge ids are g's. The span's edges, windowless ones included,
    are g.ids_in(*span).
    """

    __slots__ = ("k", "span", "g", "edge", "start", "end")

    def __init__(self, k: int, span: tuple[int, int], g: TemporalGraph,
                 edge: array, start: array, end: array) -> None:
        self.k = k
        self.span = span
        self.g = g
        self.edge = edge
        self.start = start
        self.end = end

    @property
    def size(self) -> int:
        return len(self.start)

    @property
    def by_edge(self) -> Mapping[TemporalEdge, list[tuple[int, int]]]:
        """Read-only: span edge -> its (start, end) windows, made on demand."""
        return _ByEdge(self)

    def to_text(self) -> str:
        """One line per edge with windows, by vertex label: '(v2,v9,1): [1,4], ...'."""
        labels = self.g.labels
        lines = []
        for e, wins in self.by_edge.items():
            if wins:
                body = ", ".join(f"[{a},{b}]" for a, b in wins)
                lines.append(f"(v{labels[e.u]},v{labels[e.v]},{e.t}): {body}")
        return "\n".join(lines)


class _ByEdge(Mapping):
    """The windows of each span edge; len and iteration make no pairs."""

    __slots__ = ("_index", "_ids")

    def __init__(self, index: CoreWindowIndex) -> None:
        self._index = index
        self._ids = index.g.ids_in(*index.span)

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[TemporalEdge]:
        return map(self._index.g.edges.__getitem__, self._ids)

    def __getitem__(self, e: TemporalEdge) -> list[tuple[int, int]]:
        index = self._index
        try:
            i = index.g.edge_id(*e)
        except (ValueError, TypeError):
            raise KeyError(e) from None
        if i not in self._ids:
            raise KeyError(e)
        lo = bisect_left(index.edge, i)
        hi = bisect_right(index.edge, i, lo)
        return list(zip(index.start[lo:hi], index.end[lo:hi]))


def build_core_windows(g: TemporalGraph, k: int, span: tuple[int, int],
                       core_times: CoreTimeIndex,
                       deadline: float | None = None) -> CoreWindowIndex:
    """Minimal core windows of every span edge, derived from the core-time
    index.

    The index must have been built on g for the same (k, span). Per edge
    the two endpoints' runs are merged over [span start, e.t]; each change
    of f closes the window of the previous run if its f is in the span. A
    deadline (a time.perf_counter value) is checked once per block of edges.
    """
    if core_times.g is not g or core_times.k != k or core_times.span != tuple(span):
        raise ValueError("core-time index was built for a different query")
    ts_lo, ts_hi = core_times.span
    off, starts, ends = core_times.offsets, core_times.starts, core_times.ends
    # edges outside the span hold no windows and are not in the index
    ids = g.ids_in(ts_lo, ts_hi)
    edge_u, edge_v, edge_t = g.edge_u, g.edge_v, g.edge_t
    edge, start, end = array("i"), array("i"), array("i")
    add_edge, add_start, add_end = edge.append, start.append, end.append
    for block in range(ids.start, ids.stop, _BLOCK):
        check_deadline(deadline, "window build at edge", block)
        stop = min(block + _BLOCK, ids.stop)
        for e, u, v, t in zip(range(block, stop), edge_u[block:stop],
                              edge_v[block:stop], edge_t[block:stop]):
            # iu, iv: the endpoints' current runs; eu, ev: past their last
            iu = off[u]
            eu = off[u + 1]
            if iu == eu:
                continue
            iv = off[v]
            ev = off[v + 1]
            if iv == ev:
                continue
            # a, b: the endpoints' core times from pos on (ts_hi + 1: never);
            # nu, nv: where their next runs begin (t + 1 once none begins by t)
            a = ends[iu]
            b = ends[iv]
            nu = starts[iu + 1] if iu + 1 < eu else t + 1
            nv = starts[iv + 1] if iv + 1 < ev else t + 1
            pos = ts_lo
            cur = ts_hi + 1
            while True:
                f = a if a >= b else b
                if f < t:
                    f = t
                if f != cur:
                    if cur <= ts_hi:
                        add_edge(e)
                        add_start(pos - 1)
                        add_end(cur)
                    cur = f
                pos = nu if nu < nv else nv
                if pos > t:
                    break
                if nu == pos:
                    iu += 1
                    a = ends[iu]
                    nu = starts[iu + 1] if iu + 1 < eu else t + 1
                if nv == pos:
                    iv += 1
                    b = ends[iv]
                    nv = starts[iv + 1] if iv + 1 < ev else t + 1
            if cur <= ts_hi:
                add_edge(e)
                add_start(t)
                add_end(cur)
    return CoreWindowIndex(k, (ts_lo, ts_hi), g, edge, start, end)

