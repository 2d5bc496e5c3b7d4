"""Per-vertex core time index.

For a query (k, [Ts, Te]) and a start time ts, the core time of a vertex is
the earliest end time te such that the vertex survives k-core peeling of the
window [ts, te]. Per vertex that function of ts is nondecreasing, so it is
stored run-length encoded as (from_ts, core_end) entries; a core_end of None
means the vertex is in no core from that start time on. None is used rather
than a sentinel integer so growing the range can never alias a real time.

build_core_times computes the first start time exactly with one decremental
sweep, then repairs later start times locally. The repair rule: a vertex's
core time is the k-th smallest, over distinct in-window neighbours, of
max(earliest connecting timestamp, neighbour core time). True core times are
the least fixpoint of that rule, and iterating it upward from the previous
start time's values (which are valid lower bounds) converges exactly there,
so only vertices reachable from expired edges are ever touched.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import inf

from .graph import BudgetExceeded, TemporalGraph, WindowPeel

Runs = tuple[tuple[int, int | None], ...]


@dataclass(frozen=True)
class CoreTimeIndex:
    k: int
    span: tuple[int, int]
    runs: tuple[Runs, ...]
    size: int

    def at(self, u: int, ts: int) -> int | None:
        """Core time of u for start time ts (None encodes never)."""
        if not 0 <= u < len(self.runs):
            raise ValueError(f"unknown vertex id {u}")
        lo, hi = self.span
        if not lo <= ts <= hi:
            raise ValueError(f"start time {ts} outside span [{lo},{hi}]")
        entries = self.runs[u]
        if not entries:
            return None
        i = bisect_right(entries, ts, key=lambda e: e[0]) - 1
        return entries[i][1] if i >= 0 else None

    def to_text(self, labels=None) -> str:
        """One line per vertex with entries, e.g. 'v3: [1,4], [2,6], [7,inf]'."""
        lines = []
        for v, entries in enumerate(self.runs):
            if not entries:
                continue
            name = f"v{labels[v]}" if labels is not None else f"v{v}"
            body = ", ".join(f"[{ts},{'inf' if ct is None else ct}]" for ts, ct in entries)
            lines.append(f"{name}: {body}")
        return "\n".join(lines)


def build_core_times(g: TemporalGraph, k: int, span: tuple[int, int],
                     deadline: float | None = None) -> CoreTimeIndex:
    """Core-time runs of every vertex for one (k, span) query.

    A deadline (a time.perf_counter value) is checked once per start time.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    ts_lo, ts_hi = span
    if not 1 <= ts_lo <= ts_hi <= g.t_count:
        raise ValueError(f"span [{ts_lo},{ts_hi}] outside 1..{g.t_count}")
    n = g.n

    # range-restricted adjacency, sliced lazily: most vertices of a large
    # graph never get repaired, so per-vertex slicing up front is waste
    adj_cache: dict[int, list[tuple[int, int]]] = {}

    def adj_in_span(v: int) -> list[tuple[int, int]]:
        cached = adj_cache.get(v)
        if cached is None:
            a = g.adj[v]
            i = bisect_left(a, (ts_lo, -1))
            j = bisect_left(a, (ts_hi + 1, -1))
            cached = adj_cache[v] = a[i:j]
        return cached

    def check_deadline(ts: int) -> None:
        if deadline is not None and time.perf_counter() > deadline:
            raise BudgetExceeded(f"core times exceeded their deadline at start {ts}")

    check_deadline(ts_lo)
    ct: list = _initial_core_times(g, k, span)
    # only vertices in some core get a run list: one list per vertex of a
    # large graph would make the collector walk the whole heap. Each list
    # starts empty and grows by append, which sizes it for later runs.
    runs: list[list[tuple[int, int | None]] | None] = [None] * n
    for v in range(n):
        if ct[v] is not inf:
            runs[v] = []
            runs[v].append((ts_lo, ct[v]))

    for ts in range(ts_lo + 1, ts_hi + 1):
        check_deadline(ts)
        pending: list[int] = []
        in_pending: set[int] = set()
        for u, v, _ in g.edges_at[ts - 1]:
            for x in (u, v):
                if ct[x] is not inf and x not in in_pending:
                    in_pending.add(x)
                    pending.append(x)
        changed: set[int] = set()
        while pending:
            x = pending.pop()
            in_pending.discard(x)
            old = ct[x]
            if old is inf:
                continue
            ax = adj_in_span(x)
            new = _local_core_time(ax, ts, k, ct)
            if new > old:
                ct[x] = new
                changed.add(x)
                for t2, y in ax[bisect_left(ax, (ts, -1)):]:
                    if ct[y] is not inf and y not in in_pending:
                        in_pending.add(y)
                        pending.append(y)
        for x in changed:
            runs[x].append((ts, None if ct[x] is inf else ct[x]))

    runs_t = tuple(() if r is None else tuple(r) for r in runs)
    return CoreTimeIndex(k, (ts_lo, ts_hi), runs_t, sum(map(len, runs_t)))


def _local_core_time(adj_v: list[tuple[int, int]], ts: int, k: int, ct: list):
    """k-th smallest, over distinct neighbours connected at or after ts, of
    max(first connecting time, neighbour core time)."""
    i = bisect_left(adj_v, (ts, -1))
    seen: set[int] = set()
    avails = []
    append = avails.append
    for t, u in adj_v[i:]:
        if u in seen:
            continue
        seen.add(u)
        cu = ct[u]
        append(t if t >= cu else cu)
    if len(avails) < k:
        return inf
    if k == 1:
        return min(avails)
    avails.sort()
    return avails[k - 1]


def _initial_core_times(g: TemporalGraph, k: int, span: tuple[int, int]) -> list:
    """Exact core times for the span's first start time.

    Shrinks the window from the right; a vertex peeled while dropping the
    edges of end time te was last in a core at te.
    """
    ts_lo, ts_hi = span
    peel = WindowPeel(g, k, ts_lo, ts_hi)
    ct: list = [inf] * g.n
    for te in range(ts_hi, ts_lo - 1, -1):
        if not peel.nbr:
            break
        for w in peel.drop(te):
            ct[w] = te
    return ct
