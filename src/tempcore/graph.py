"""Immutable undirected temporal graphs with compressed integer timestamps.

An edge is a triple (u, v, t). Vertex ids are remapped to dense integers in
order of first appearance; timestamps are compressed to ranks 1..t_count
preserving their order. Parallel edges between one vertex pair at different
times are kept, exact duplicate triples collapse to one, and endpoints are
stored canonically with u < v. Degree, wherever cores are computed, counts
distinct neighbours inside the window at hand.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
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


class TemporalEdge(NamedTuple):
    u: int
    v: int
    t: int


def canonical_edges(edges: Iterable[TemporalEdge]) -> tuple[TemporalEdge, ...]:
    """Edges sorted by (t, u, v), the canonical identity of a core."""
    return tuple(sorted(edges, key=lambda e: (e[2], e[0], e[1])))


@dataclass(frozen=True)
class TimeDomain:
    """Order-preserving bijection between raw timestamps and ranks 1..t_count."""

    raw_values: tuple[int, ...]
    rank_of_raw: dict[int, int]

    @property
    def t_count(self) -> int:
        return len(self.raw_values)

    def rank(self, raw: int) -> int:
        try:
            return self.rank_of_raw[raw]
        except KeyError:
            raise ValueError(f"unknown raw timestamp {raw}") from None

    def raw(self, rank: int) -> int:
        if not 1 <= rank <= len(self.raw_values):
            raise ValueError(f"rank {rank} outside 1..{len(self.raw_values)}")
        return self.raw_values[rank - 1]


def compress_timestamps(raw_ts: Iterable[int]) -> TimeDomain:
    """Assign ranks 1..t_count to the distinct values of a non-empty multiset."""
    values = sorted(set(raw_ts))
    if not values:
        raise ValueError("cannot compress an empty timestamp multiset")
    return TimeDomain(tuple(values), {raw: i for i, raw in enumerate(values, start=1)})


class TemporalGraph:
    """Undirected temporal graph, frozen after construction.

    Attributes:
        n: vertex count (ids are 0..n-1).
        edges: every TemporalEdge, sorted by (t, u, v).
        adj: per vertex, (t, neighbour) pairs sorted ascending.
        edges_at: edges bucketed by compressed timestamp (index 0 unused).
        time_domain: raw <-> compressed timestamp mapping.
        labels: dense id -> original input id.
    """

    __slots__ = ("n", "edges", "adj", "edges_at", "time_domain", "labels")

    def __init__(self, n, edges, adj, edges_at, time_domain, labels):
        self.n = n
        self.edges = edges
        self.adj = adj
        self.edges_at = edges_at
        self.time_domain = time_domain
        self.labels = labels

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def t_count(self) -> int:
        return self.time_domain.t_count

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[int, int, int]]) -> "TemporalGraph":
        """Build a graph from raw (u, v, t) triples.

        Self-loops are dropped, endpoints canonicalized, duplicate triples
        collapsed, timestamps compressed.
        """
        dense: dict[int, int] = {}
        labels: list[int] = []
        # a dict rather than a set: insertion order keeps the input's time
        # order, which makes the edge sort below cheap
        kept: dict[tuple[int, int, int], None] = {}
        for u, v, t in triples:
            if u == v:
                continue
            du = dense.get(u)
            if du is None:
                du = dense[u] = len(labels)
                labels.append(u)
            dv = dense.get(v)
            if dv is None:
                dv = dense[v] = len(labels)
                labels.append(v)
            kept[(du, dv, t) if du < dv else (dv, du, t)] = None
        if not kept:
            raise EmptyGraphError("no edges remain after normalization")
        domain = compress_timestamps(t for (_, _, t) in kept)
        rank = domain.rank_of_raw
        edges = [TemporalEdge(a, b, rank[t]) for (a, b, t) in kept]
        edges.sort(key=lambda e: (e[2], e[0], e[1]))
        n = len(labels)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        edges_at: list[list[TemporalEdge]] = [[] for _ in range(domain.t_count + 1)]
        # appending in (t, u, v) edge order leaves each adjacency sorted:
        # at one t, x's neighbours u < x come from edges (u, x), ordered
        # by u, before its neighbours v > x from edges (x, v)
        for e in edges:
            adj[e.u].append((e.t, e.v))
            adj[e.v].append((e.t, e.u))
            edges_at[e.t].append(e)
        return cls(n, edges, adj, edges_at, domain, labels)

    def neighbors_in(self, u: int, lo: int, hi: int) -> list[tuple[int, int]]:
        """Incident (neighbour, t) pairs with lo <= t <= hi, ordered by t."""
        if not 0 <= u < self.n:
            raise ValueError(f"unknown vertex id {u}")
        if not 1 <= lo <= hi <= self.t_count:
            raise ValueError(f"window [{lo},{hi}] outside 1..{self.t_count}")
        a = self.adj[u]
        i = bisect_left(a, (lo, -1))
        j = bisect_left(a, (hi + 1, -1))
        return [(v, t) for (t, v) in a[i:j]]


def parse_edge_list(stream: Iterable[str]) -> TemporalGraph:
    """Parse "u v t" lines into a TemporalGraph.

    Lines starting with '#' or '%' and blank lines are skipped; fields past
    the third are ignored. Raises ParseError with the line number for a
    malformed line, EmptyGraphError when nothing usable remains.
    """
    triples: list[tuple[int, int, int]] = []
    for line_no, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#%":
            continue
        fields = stripped.split()
        if len(fields) < 3:
            raise ParseError(line_no, f"expected 'u v t', got {len(fields)} field(s)")
        try:
            u, v, t = int(fields[0]), int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError(line_no, f"non-integer field in {fields[:3]!r}") from None
        if u < 0 or v < 0:
            raise ParseError(line_no, "negative vertex id")
        triples.append((u, v, t))
    if not triples:
        raise EmptyGraphError("input contains no edges")
    return TemporalGraph.from_triples(triples)


class WindowPeel:
    """The k-core of the window [lo, hi], shrunk from the right.

    nbr maps each vertex of the core to its in-core neighbours, each with
    the number of window edges joining the pair. drop(te) removes the edges
    of end time te, the window's current last timestamp, and peels to the
    k-core again.
    """

    __slots__ = ("k", "nbr", "edges_at")

    def __init__(self, g: TemporalGraph, k: int, lo: int, hi: int) -> None:
        nbr: dict[int, dict[int, int]] = {}
        for t in range(lo, hi + 1):
            for u, v, _ in g.edges_at[t]:
                du = nbr.setdefault(u, {})
                du[v] = du.get(v, 0) + 1
                dv = nbr.setdefault(v, {})
                dv[u] = dv.get(u, 0) + 1
        self.k = k
        self.nbr = nbr
        self.edges_at = g.edges_at
        self._peel([v for v, d in nbr.items() if len(d) < k])

    def _peel(self, queue: list[int]) -> list[int]:
        nbr = self.nbr
        k1 = self.k - 1
        peeled = []
        while queue:
            w = queue.pop()
            d = nbr.pop(w, None)
            if d is None:
                continue
            peeled.append(w)
            for x in d:
                dx = nbr.get(x)
                if dx is None:
                    continue
                del dx[w]
                if len(dx) == k1:
                    queue.append(x)
        return peeled

    def drop(self, te: int) -> list[int]:
        """Remove the edges of end time te; return the vertices peeled out."""
        nbr = self.nbr
        k1 = self.k - 1
        queue = []
        for u, v, _ in self.edges_at[te]:
            du = nbr.get(u)
            if du is None:
                continue
            c = du.get(v)
            if c is None:
                continue
            if c > 1:
                du[v] = c - 1
                nbr[v][u] = c - 1
                continue
            del du[v]
            dv = nbr[v]
            del dv[u]
            if len(du) == k1:
                queue.append(u)
            if len(dv) == k1:
                queue.append(v)
        return self._peel(queue)


def static_coreness(g: TemporalGraph, window: tuple[int, int]) -> list[int]:
    """Coreness of every vertex in the window's distinct-neighbour projection.

    Ascending-degree peeling; vertices without window edges get 0.
    """
    lo, hi = window
    if not 1 <= lo <= hi <= g.t_count:
        raise ValueError(f"window [{lo},{hi}] outside 1..{g.t_count}")
    nbrs: dict[int, set[int]] = {}
    for t in range(lo, hi + 1):
        for u, v, _ in g.edges_at[t]:
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
    core = [0] * g.n
    if not nbrs:
        return core
    cur = {v: len(s) for v, s in nbrs.items()}
    verts = sorted(cur, key=cur.__getitem__)
    pos = {v: i for i, v in enumerate(verts)}
    max_deg = cur[verts[-1]]
    counts = [0] * (max_deg + 1)
    for v in verts:
        counts[cur[v]] += 1
    bin_start = [0] * (max_deg + 1)
    acc = 0
    for d in range(max_deg + 1):
        bin_start[d] = acc
        acc += counts[d]
    for i in range(len(verts)):
        v = verts[i]
        core[v] = cur[v]
        for u in nbrs[v]:
            if cur[u] > cur[v]:
                du = cur[u]
                pu, pw = pos[u], bin_start[du]
                w = verts[pw]
                if u is not w:
                    verts[pu], verts[pw] = w, u
                    pos[u], pos[w] = pw, pu
                bin_start[du] += 1
                cur[u] = du - 1
    return core


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
