"""Shared fixtures: the 14-edge toy graph and its hand-checked golden values.

The toy graph (9 vertices, 14 edges, timestamps 1..7) is small enough that
every expected value below was derived by hand and is re-derived by the
peeling oracle inside the tests that consume it.
"""

from __future__ import annotations

import io
from array import array

import pytest

from tempcore import (TemporalEdge, TemporalGraph, canonical_edges,
                      compress_timestamps, parse_edge_list)
from tempcore.windows import CoreWindowIndex

G14_TEXT = """\
# toy fixture: 9 vertices, 14 timestamped edges
2 9 1
1 4 2
2 3 2
1 2 3
2 4 3
3 9 4
4 8 4
1 6 5
1 7 5
2 8 5
6 7 5
1 3 6
3 5 6
1 5 7
"""

# Per-vertex core-time runs for k=2 over [1,7], by original label.
# v3's third run ends at 7: a hand-tabulated variant ending the vertex at
# start 4 ([1,4],[2,6],[3,7],[4,inf]) is inconsistent with the minimal
# windows of (v1,v3,6) and (v3,v5,6) below and with direct peeling; the
# oracle-backed tests document the rejection.
GOLDEN_CORE_TIMES = {
    1: ((1, 3), (3, 5), (6, 7), (7, None)),
    2: ((1, 3), (3, 5), (4, None)),
    3: ((1, 4), (2, 6), (3, 7), (7, None)),
    4: ((1, 3), (3, 5), (4, None)),
    5: ((1, 7), (7, None)),
    6: ((1, 5), (6, None)),
    7: ((1, 5), (6, None)),
    8: ((1, 5), (4, None)),
    9: ((1, 4), (2, None)),
}
REJECTED_V3_RUNS = ((1, 4), (2, 6), (3, 7), (4, None))

# Minimal core windows for k=2 over [1,7], keyed by (label_u, label_v, t)
# with label_u < label_v; 14 edges, 18 windows in total.
GOLDEN_WINDOWS = {
    (2, 9, 1): ((1, 4),),
    (1, 4, 2): ((2, 3),),
    (2, 3, 2): ((1, 4), (2, 6)),
    (1, 2, 3): ((2, 3), (3, 5)),
    (2, 4, 3): ((2, 3), (3, 5)),
    (3, 9, 4): ((1, 4),),
    (4, 8, 4): ((3, 5),),
    (1, 6, 5): ((5, 5),),
    (1, 7, 5): ((5, 5),),
    (2, 8, 5): ((3, 5),),
    (6, 7, 5): ((5, 5),),
    (1, 3, 6): ((2, 6), (6, 7)),
    (3, 5, 6): ((6, 7),),
    (1, 5, 7): ((6, 7),),
}

# Distinct cores for k=2 over the full range: tti -> edge count; |R| = 105.
GOLDEN_FULL_CORES = {
    (1, 4): 6, (1, 5): 11, (1, 6): 12, (1, 7): 14,
    (2, 3): 3, (2, 5): 8, (2, 6): 10, (2, 7): 12,
    (3, 5): 7, (3, 7): 10,
    (5, 5): 3, (5, 7): 6,
    (6, 7): 3,
}

# The two cores of the restricted range [1,4]: tti -> vertex labels.
GOLDEN_14_CORES = {
    (2, 3): {1, 2, 4},
    (1, 4): {1, 2, 3, 4, 9},
}


@pytest.fixture(scope="session")
def g14():
    return parse_edge_list(io.StringIO(G14_TEXT))


@pytest.fixture(scope="session")
def g14_dense(g14):
    """Original label -> dense vertex id."""
    return {label: i for i, label in enumerate(g14.labels)}


def dense_edge(g, lu: int, lv: int, t: int) -> TemporalEdge:
    """The stored edge for original labels (lu, lv) at compressed time t."""
    to_dense = {label: i for i, label in enumerate(g.labels)}
    a, b = to_dense[lu], to_dense[lv]
    if a > b:
        a, b = b, a
    return TemporalEdge(a, b, t)


def label_vertices(g, vertices) -> set[int]:
    return {g.labels[v] for v in vertices}


def runs_by_label(runs, g) -> dict[int, tuple]:
    return {g.labels[v]: entries for v, entries in enumerate(runs) if entries}


def windows_by_label(index, g) -> dict[tuple[int, int, int], tuple]:
    out = {}
    for e, wins in index.by_edge.items():
        lu, lv = g.labels[e.u], g.labels[e.v]
        if lu > lv:
            lu, lv = lv, lu
        if wins:
            out[(lu, lv, e.t)] = tuple(wins)
    return out


def index_from_windows(k: int, span: tuple[int, int], by_edge) -> CoreWindowIndex:
    """A window index holding the given (start, end) windows per edge.

    The edges' ids number them in (t, u, v) order, whatever the mapping's
    order. The index's graph is one over the mapping's edges, with their own
    ids and times, so by_edge finds an id by bisection.
    """
    edges = canonical_edges(by_edge)
    n = 1 + max((max(e.u, e.v) for e in edges), default=-1)
    t_count = max(span[1], edges[-1].t if edges else 0)
    g = TemporalGraph(list(range(n)), compress_timestamps(range(1, t_count + 1)),
                      [e.u for e in edges], [e.v for e in edges],
                      [e.t for e in edges])
    edge, start, end = array("i"), array("i"), array("i")
    for i, e in enumerate(edges):
        for a, b in sorted(by_edge[e]):
            edge.append(i)
            start.append(a)
            end.append(b)
    return CoreWindowIndex(k, tuple(span), g, edge, start, end)
