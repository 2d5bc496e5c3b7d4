"""Reference implementations used as ground truth.

Everything here works straight from the definitions by window peeling,
independently of the indexed pipeline in coretime/windows/sweep, so the two
routes can check each other: within the package it imports from graph
only, and it answers in plain data. temporal_kcore peels a single window
from scratch and is the bedrock; window_cores applies it to every window of
a span; brute_core_times and brute_core_windows read those per-window
results off as the values CoreTimeIndex.runs and CoreWindowIndex.by_edge
give. brute_enumerate also visits every window but maintains the core
decrementally per start time (for a fixed start, membership is monotone in
the end time), which keeps exhaustive scans feasible on larger inputs. It
shares that right-shrink peel, graph's WindowPeel, with the first start
time of the core-time index and with workload.place_span, which peels each
drawn range with it, so a dedicated test pins WindowPeel's per-window
behaviour to temporal_kcore, which shares nothing with any of them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .graph import (TemporalEdge, TemporalGraph, WindowPeel, canonical_edges,
                    check_deadline, check_query)


@dataclass(frozen=True)
class CoreSubgraph:
    vertices: frozenset[int]
    edges: tuple[TemporalEdge, ...]
    tti: tuple[int, int]

    @property
    def size(self) -> int:
        return len(self.edges)


def temporal_kcore(g: TemporalGraph, k: int, window: tuple[int, int]) -> CoreSubgraph | None:
    """k-core of the window projection, or None when every vertex peels out.

    A vertex is queued once, when its degree first falls below k, and a
    popped vertex leaves every neighbour's set, so no set holds a dead one.
    The tightest time interval is taken over the surviving edges, so it may
    be narrower than the window itself.
    """
    check_query(g, k, window)
    lo, hi = window
    nbrs: dict[int, set[int]] = {}
    for u, v, _ in g.edges_in(lo, hi):
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    queue = [v for v, s in nbrs.items() if len(s) < k]
    while queue:
        v = queue.pop()
        for u in nbrs.pop(v):
            su = nbrs[u]
            su.discard(v)
            if len(su) == k - 1:
                queue.append(u)
    if not nbrs:
        return None
    edges = tuple(TemporalEdge(u, v, t) for u, v, t in g.edges_in(lo, hi)
                  if u in nbrs and v in nbrs)
    return CoreSubgraph(frozenset(nbrs), edges, (edges[0].t, edges[-1].t))


def window_cores(g: TemporalGraph, k: int,
                 span: tuple[int, int]) -> dict[tuple[int, int], CoreSubgraph | None]:
    """Peel every window inside the span from scratch. Desk scale only."""
    ts_lo, ts_hi = span
    return {(a, b): temporal_kcore(g, k, (a, b))
            for a in range(ts_lo, ts_hi + 1) for b in range(a, ts_hi + 1)}


def brute_enumerate(g: TemporalGraph, k: int, span: tuple[int, int],
                    deadline: float | None = None) -> tuple[CoreSubgraph, ...]:
    """Every distinct k-core over every window of the span, by scanning.

    Cores are identified by their edge sets; each is returned once, sorted
    by tightest interval. Raises BudgetExceeded past the given deadline.
    """
    check_query(g, k, span)
    ts_lo, ts_hi = span
    seen: set[frozenset] = set()
    out: list[CoreSubgraph] = []
    off, adj_t, adj_y, t_off = g.adj_off, g.adj_t, g.adj_y, g.t_off
    # one TemporalEdge per span edge, shared by every core that holds it
    first = t_off[ts_lo]
    span_edges = list(map(TemporalEdge._make, g.edges_in(ts_lo, ts_hi)))
    for ts in range(ts_lo, ts_hi + 1):
        check_deadline(deadline, "brute scan at start", ts)
        peel = WindowPeel(g, k, ts, ts_hi)
        if not peel.size:
            continue
        alive = peel.alive
        live_edges = {e for e in span_edges[t_off[ts] - first:]
                      if alive[e.u] and alive[e.v]}
        changed = True
        for te in range(ts_hi, ts - 1, -1):
            # the live vertices and live_edges now describe the core of [ts, te]
            if changed and live_edges:
                key = frozenset(live_edges)
                if key not in seen:
                    seen.add(key)
                    edges = canonical_edges(live_edges)
                    # every core vertex has a neighbour in the core
                    vertices = frozenset([e.u for e in edges] + [e.v for e in edges])
                    out.append(CoreSubgraph(vertices, edges,
                                            (edges[0].t, edges[-1].t)))
            if not peel.size:
                break
            changed = False
            for e in span_edges[t_off[te] - first:t_off[te + 1] - first]:
                if alive[e.u] and alive[e.v]:
                    live_edges.discard(e)
                    changed = True
            for w in peel.drop(te):
                # w was a member of the peel, which holds where its window starts
                i = peel.lo_pos[w]
                j = bisect_left(adj_t, te, i, off[w + 1])
                for t2, x in zip(adj_t[i:j], adj_y[i:j]):
                    live_edges.discard(
                        TemporalEdge(w, x, t2) if w < x else TemporalEdge(x, w, t2))
    out.sort(key=lambda c: c.tti)
    return tuple(out)


def brute_core_times(g: TemporalGraph, k: int, span: tuple[int, int], cores=None
                     ) -> tuple[tuple[tuple[int, int | None], ...], ...]:
    """Core-time runs read off a from-scratch peel of every window.

    Per vertex, its (from_ts, core_end) runs, with None for never. cores,
    when given, is window_cores(g, k, span), computed once for several
    readers.
    """
    ts_lo, ts_hi = span
    wc = window_cores(g, k, span) if cores is None else cores
    runs: list[tuple] = []
    for v in range(g.n):
        entries: list[tuple[int, int | None]] = []
        prev: object = None
        for ts in range(ts_lo, ts_hi + 1):
            val = None
            for te in range(ts, ts_hi + 1):
                core = wc[(ts, te)]
                if core is not None and v in core.vertices:
                    val = te
                    break
            if val is None and not entries:
                prev = None
                continue
            if not entries or val != prev:
                entries.append((ts, val))
            prev = val
        runs.append(tuple(entries))
    return tuple(runs)


def brute_core_windows(g: TemporalGraph, k: int, span: tuple[int, int], cores=None
                       ) -> dict[TemporalEdge, list[tuple[int, int]]]:
    """Minimal core windows by testing every window containing each edge.

    Membership is monotone under window growth, so a window is minimal
    exactly when the edge is a member there but in neither one-step shrink.
    Returns each span edge, in g.edges order, with its (start, end) windows
    ordered by start; an edge with no window maps to []. cores is as for
    brute_core_times.
    """
    ts_lo, ts_hi = span
    wc = window_cores(g, k, span) if cores is None else cores
    member_sets = {w: (frozenset(c.edges) if c is not None else frozenset())
                   for w, c in wc.items()}
    by_edge: dict[TemporalEdge, list[tuple[int, int]]] = {}
    for i in g.ids_in(ts_lo, ts_hi):
        e = g.edges[i]
        wins: list[tuple[int, int]] = []
        for a in range(ts_lo, e.t + 1):
            for b in range(e.t, ts_hi + 1):
                if e not in member_sets[(a, b)]:
                    continue
                if a + 1 <= b and e in member_sets[(a + 1, b)]:
                    continue
                if b - 1 >= a and e in member_sets[(a, b - 1)]:
                    continue
                wins.append((a, b))
        by_edge[e] = wins
    return by_edge
