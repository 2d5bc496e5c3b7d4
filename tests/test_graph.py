"""Parsing, timestamp compression, CSR adjacency and static coreness."""

from __future__ import annotations

import gc
import io
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempcore import (EmptyGraphError, ParseError, TemporalEdge, TemporalGraph,
                      compress_timestamps, parse_edge_list, static_coreness,
                      stats, temporal_kcore)
from tempcore.graph import WindowPeel
from tempcore.synth import burst_graph, random_graph


def graph_of(text: str) -> TemporalGraph:
    return parse_edge_list(io.StringIO(text))


class TestParse:
    def test_duplicate_collapse_and_compression(self):
        g = graph_of("1 2 100\n2 3 105\n1 2 100\n")
        assert g.n == 3
        assert g.m == 2
        assert g.t_count == 2
        assert [e.t for e in g.edges] == [1, 2]

    def test_self_loops_only_is_empty(self):
        with pytest.raises(EmptyGraphError):
            graph_of("5 5 7\n")

    def test_empty_input(self):
        with pytest.raises(EmptyGraphError):
            graph_of("")
        with pytest.raises(EmptyGraphError):
            graph_of("# only a comment\n")

    def test_fixture_shape(self, g14):
        assert (g14.n, g14.m, g14.t_count) == (9, 14, 7)

    def test_malformed_lines_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            graph_of("1 2 3\n1 2\n")
        with pytest.raises(ParseError, match="line 3"):
            graph_of("1 2 3\n\n1 x 3\n")
        with pytest.raises(ParseError, match="line 1"):
            graph_of("-1 2 3\n")

    def test_comments_blanks_and_extra_fields(self):
        g = graph_of("% header\n# another\n\n1 2 5 0.25 junk\n")
        assert g.m == 1

    def test_whitespace_lines_indented_comments_and_tabs(self):
        g = graph_of("   \n\t\n  # indented\n\t% tabbed\n1\t2\t5\n 2 3 6 \r\n")
        assert [(g.labels[e.u], g.labels[e.v], e.t) for e in g.edges] == \
            [(1, 2, 1), (2, 3, 2)]
        with pytest.raises(ParseError, match="line 4: expected 'u v t', got 2"):
            graph_of(" \n\t# c\n1\t2 3\n1\t2\n")

    def test_reversed_and_repeated_triples_collapse(self):
        g = graph_of("1 2 5\n2 1 5\n1 2 5\n")
        assert g.m == 1

    def test_values_outside_64_bits(self):
        # ids and timestamps are read into signed 64-bit columns; the
        # extremes themselves are accepted
        with pytest.raises(ParseError, match="line 2: value outside the signed 64-bit"):
            graph_of("1 2 3\n1 99999999999999999999 4\n")
        for t in (1 << 63, -(1 << 63) - 1):
            with pytest.raises(ParseError, match="line 1: value outside"):
                graph_of(f"1 2 {t}\n")
        g = graph_of(f"{(1 << 63) - 1} 0 {-(1 << 63)}\n")
        assert (list(g.labels), tuple(g.time_domain.raw_values)) == \
            ([0, (1 << 63) - 1], (-(1 << 63),))
        for triple in ((1, 1 << 63, 4), (-(1 << 63) - 1, 2, 4), (1, 2, 1 << 63)):
            with pytest.raises(ValueError, match="outside the signed 64-bit range"):
                TemporalGraph.from_triples([(0, 1, 2), triple])

    def test_original_labels_survive(self):
        # dense ids follow the original ids' order, so u < v exactly when
        # label u < label v
        g = graph_of("700 41 9\n41 900 10\n")
        assert list(g.labels) == [41, 700, 900]
        assert [(g.labels[e.u], g.labels[e.v]) for e in g.edges] == \
            [(41, 700), (41, 900)]


class TestCompress:
    def test_order_preserving_ranks(self):
        dom = compress_timestamps([100, 105, 105, 230])
        assert {t: dom.rank(t) for t in (100, 105, 230)} == {100: 1, 105: 2, 230: 3}
        assert tuple(dom.raw_values) == (100, 105, 230)
        for raw in (99, 101, 231, 1 << 70):
            with pytest.raises(ValueError, match=f"unknown raw timestamp {raw}"):
                dom.rank(raw)

    def test_identity_on_dense_input(self):
        dom = compress_timestamps(range(1, 8))
        assert all(dom.rank(t) == t for t in range(1, 8))

    def test_constant_input(self):
        dom = compress_timestamps([7, 7, 7])
        assert dom.t_count == 1
        assert dom.rank(7) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compress_timestamps([])

    def test_values_outside_64_bits_rejected(self):
        # the raw values are held in a signed 64-bit array
        for t in (1 << 63, -(1 << 63) - 1):
            with pytest.raises(ValueError, match="outside the signed 64-bit range"):
                compress_timestamps([0, t])

    def test_round_trip_on_graph(self, g14):
        dom = g14.time_domain
        for e in g14.edges:
            assert dom.rank(dom.raw(e.t)) == e.t
        with pytest.raises(ValueError, match="unknown raw timestamp 8"):
            dom.rank(8)
        for rank in (0, 8):
            with pytest.raises(ValueError, match=f"rank {rank} outside 1..7"):
                dom.raw(rank)


def adjacency(g, x):
    """x's (neighbour, t) pairs, read from its slice of the CSR columns."""
    lo, hi = g.adj_off[x], g.adj_off[x + 1]
    return list(zip(g.adj_y[lo:hi], g.adj_t[lo:hi]))


class TestNeighborsIn:
    """A vertex's neighbours in a window, read from its CSR slice."""

    def test_fixture_window(self, g14, g14_dense):
        got = [(v, t) for v, t in adjacency(g14, g14_dense[1]) if 3 <= t <= 7]
        labelled = [(g14.labels[v], t) for v, t in got]
        assert labelled == [(2, 3), (6, 5), (7, 5), (3, 6), (5, 7)]

    def test_full_range_matches_degree(self, g14):
        for v in range(g14.n):
            got = adjacency(g14, v)
            assert len(got) == sum(v in (e.u, e.v) for e in g14.edges)


class TestCoreness:
    def test_fixture_full_range(self, g14):
        assert static_coreness(g14, (1, 7)) == [2] * 9
        for window in ((0, 7), (1, 8), (5, 4)):
            message = re.escape(f"span [{window[0]},{window[1]}] outside 1..7")
            with pytest.raises(ValueError, match=message):
                static_coreness(g14, window)

    def test_single_edge_window(self, g14, g14_dense):
        core = static_coreness(g14, (1, 1))
        expect = {g14_dense[2]: 1, g14_dense[9]: 1}
        assert all(core[v] == expect.get(v, 0) for v in range(g14.n))

    def test_four_edge_window(self, g14, g14_dense):
        core = static_coreness(g14, (2, 3))
        by_label = {lab: core[g14_dense[lab]] for lab in range(1, 10)}
        assert by_label == {1: 2, 2: 2, 3: 1, 4: 2, 5: 0, 6: 0, 7: 0, 8: 0, 9: 0}

    def test_stats_fixture(self, g14):
        st = stats(g14)
        assert (st.n, st.m, st.t_max, st.k_max) == (9, 14, 7, 2)
        assert st.deg_avg * 9 == 28

    def test_stats_single_edge(self):
        st = stats(graph_of("0 1 10\n"))
        assert (st.n, st.m, st.t_max, st.k_max) == (2, 1, 1, 1)


triples_strategy = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(1, 8)),
    min_size=1, max_size=40)


def build(triples):
    try:
        return TemporalGraph.from_triples(triples)
    except EmptyGraphError:
        return None


@settings(max_examples=60, deadline=None)
@given(triples_strategy)
def test_adjacency_is_symmetric(triples):
    g = build(triples)
    if g is None:
        return
    for u in range(g.n):
        for v, t in adjacency(g, u):
            assert (u, t) in adjacency(g, v)
            assert TemporalEdge(min(u, v), max(u, v), t) in g.edges


@settings(max_examples=60, deadline=None)
@given(triples_strategy)
def test_timestamp_round_trip(triples):
    g = build(triples)
    if g is None:
        return
    dom = g.time_domain
    assert list(dom.raw_values) == sorted(dom.raw_values)
    for e in g.edges:
        assert dom.rank(dom.raw(e.t)) == e.t


@settings(max_examples=60, deadline=None)
@given(triples_strategy, triples_strategy)
def test_coreness_monotone_under_edge_additions(triples, extra):
    g1 = build(triples)
    g2 = build(triples + extra)
    if g1 is None or g2 is None:
        return
    core1 = static_coreness(g1, (1, g1.t_count))
    core2 = static_coreness(g2, (1, g2.t_count))
    for label, v1 in zip(g1.labels, range(g1.n)):
        v2 = g2.labels.index(label)
        assert core2[v2] >= core1[v1]


def adjacency_sorted(g) -> bool:
    """Every vertex's (t, neighbour) pairs are sorted."""
    return all(a == sorted(a) for a in
               ([(t, y) for y, t in adjacency(g, v)]
                for v in range(g.n)))


@settings(max_examples=100, deadline=None)
@given(triples_strategy, st.data())
def test_coreness_is_the_largest_core_holding_the_vertex(triples, data):
    # the definition: v's coreness in a window is the largest k whose
    # k-core of that window holds v, and 0 when no 1-core does
    g = build(triples)
    if g is None:
        return
    lo = data.draw(st.integers(1, g.t_count), label="lo")
    hi = data.draw(st.integers(lo, g.t_count), label="hi")
    want = [0] * g.n
    k = 1
    while (core := temporal_kcore(g, k, (lo, hi))) is not None:
        for v in core.vertices:
            want[v] = k
        k += 1
    assert static_coreness(g, (lo, hi)) == want


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 6), st.integers(-3, 6),
                          st.sampled_from([-(1 << 63), -40, -1, 0, 3, 7, (1 << 63) - 1])),
                min_size=1, max_size=40))
def test_from_triples_matches_a_tuple_build(triples):
    # the load sorts one int key per edge; self-loops, duplicates, reversed
    # pairs, negative ids and timestamps and the 64-bit extremes must give
    # what sorting the set of canonical (t, lo, hi) tuples gives
    want = sorted({(t, min(u, v), max(u, v)) for u, v, t in triples if u != v})
    g = build(triples)
    if g is None:
        assert not want
        return
    assert list(g.labels) == sorted({x for _, u, v in want for x in (u, v)})
    assert tuple(g.time_domain.raw_values) == tuple(sorted({t for t, _, _ in want}))
    raw = g.time_domain.raw
    assert [(raw(t), g.labels[u], g.labels[v]) for u, v, t in g.edges] == want


@pytest.fixture(scope="module")
def burst_12k_triples():
    g = burst_graph(5, timestamps=2000, clique=10, target_edges=12000)
    raw = g.time_domain.raw
    return [(g.labels[u], g.labels[v], raw(t)) for u, v, t in g.edges]


def test_graph_memory_per_edge(burst_12k_triples):
    # the columns share one int object per vertex id and per rank, and the
    # labels and raw times are 64-bit arrays: 98 bytes an edge, against
    # 139.5 with an int per label and raw time and a raw-to-rank dict, and
    # about 350 with one TemporalEdge and two adjacency tuples per edge
    triples = burst_12k_triples
    tracemalloc.start()
    try:
        built = TemporalGraph.from_triples(triples)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert built.m == 12000
    assert held < 115 * built.m, (held, built.m)


def test_parse_peak_memory(burst_12k_triples):
    # the load keeps no object per edge before the final columns: the peak
    # is 1.32 times what the graph holds, against 1.71 with a key tuple per
    # edge (and 1.12 while the graph held an int per label and raw time)
    lines = [f"{u} {v} {t}\n" for u, v, t in burst_12k_triples]
    tracemalloc.start()
    try:
        g = parse_edge_list(lines)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == 12000
    assert peak < 1.4 * held, (peak, held)


def test_parse_makes_no_full_collection(burst_12k_triples):
    # ints are not tracked by the collector, and the load makes no tracked
    # object per edge, so it starts almost no collection
    lines = [f"{u} {v} {t}\n" for u, v, t in burst_12k_triples]
    started = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            started[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        g = parse_edge_list(lines)
    finally:
        gc.callbacks.remove(count)
    assert g.m == 12000
    assert started[2] == 0 and sum(started) < 5, started


class TestAdjacencyOrder:
    # from_triples does not sort adjacency; the (t, u, v) edge order must
    # already leave every vertex's pairs sorted, as bisect over them assumes
    def test_fixture(self, g14):
        assert adjacency_sorted(g14)

    def test_corpus(self):
        rng = random.Random(2024)
        for _ in range(200):
            g = random_graph(rng)
            assert adjacency_sorted(g)


def test_canonical_edge_invariants_random():
    rng = random.Random(42)
    for _ in range(30):
        triples = [(rng.randrange(12), rng.randrange(12), rng.randint(1, 9))
                   for _ in range(rng.randint(1, 50))]
        g = build(triples)
        if g is None:
            continue
        seen = set()
        for e in g.edges:
            assert e.u < e.v
            assert e not in seen
            seen.add(e)
        edges = list(g.edges)
        assert edges == sorted(edges, key=lambda e: (e.t, e.u, e.v))
        # the ids of each time are one range, and edge_id inverts g.edges
        for t in range(1, g.t_count + 1):
            assert [edges[i] for i in g.ids_in(t, t)] == \
                [e for e in edges if e.t == t]
        assert [g.edge_id(*e) for e in edges] == list(range(g.m))
        # vertex 12 is never drawn; times 0 and t_count + 1 hold no edges
        for u, v, t in ((0, 12, 1), (0, 1, 0), (0, 1, g.t_count + 1)):
            with pytest.raises(ValueError, match="no edge"):
                g.edge_id(u, v, t)
        assert g.ids_in(1, g.t_count) == range(g.m)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 6)),
                min_size=1, max_size=40),
       st.data())
def test_window_peel_matches_temporal_kcore(triples, data):
    # six vertices over six times, so many pairs are joined by parallel
    # edges; after each drop the peel holds the core of the shrunk window,
    # each live vertex with its count of distinct neighbours in that core
    g = build(triples)
    if g is None:
        return
    lo = data.draw(st.integers(1, g.t_count), label="lo")
    hi = data.draw(st.integers(lo, g.t_count), label="hi")
    for k in (1, 2, 3):
        peel = WindowPeel(g, k, lo, hi)
        for e in range(hi, lo - 1, -1):
            if e < hi:
                before = {x for x in range(g.n) if peel.alive[x]}
                peeled = peel.drop(e + 1)
                assert len(peeled) == len(set(peeled))
                assert set(peeled) == before - {x for x in range(g.n)
                                                 if peel.alive[x]}, (k, e)
            core = temporal_kcore(g, k, (lo, e))
            vertices = set() if core is None else core.vertices
            assert {x for x in range(g.n) if peel.alive[x]} == vertices, (k, e)
            assert peel.size == len(vertices), (k, e)
            nbrs: dict[int, set[int]] = {}
            for u, v, _ in () if core is None else core.edges:
                nbrs.setdefault(u, set()).add(v)
                nbrs.setdefault(v, set()).add(u)
            for x in vertices:
                assert peel.deg[x] == len(nbrs[x]), (k, e, x)


def test_window_peel_memory():
    # the first peel of the whole range and all its drops hold two 32-bit
    # positions, a degree and a flag per vertex: a peak of 22 bytes per
    # vertex here, against 259 for a dict of neighbours per vertex
    g = burst_graph(5, timestamps=2000, clique=10, target_edges=12000)
    tracemalloc.start()
    try:
        peel = WindowPeel(g, 2, 1, g.t_count)
        for te in range(g.t_count, 0, -1):
            peel.drop(te)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * g.n, (peak, g.n)
    assert peel.size == 0
