"""Per-edge minimal core windows: goldens, skyline properties."""

from __future__ import annotations

import io
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempcore import (BudgetExceeded, EmptyGraphError, TemporalEdge, TemporalGraph,
                      brute_core_windows, build_core_times, build_core_windows,
                      parse_edge_list, temporal_kcore)
from tempcore.synth import burst_graph, random_graph

from .conftest import (G14_TEXT, GOLDEN_WINDOWS, dense_edge, index_from_windows,
                       windows_by_label)


def build_both(g, k, span):
    ct = build_core_times(g, k, span)
    return build_core_windows(g, k, span, ct)


class TestGolden:
    def test_reproduces_golden_table(self, g14):
        cwi = build_both(g14, 2, (1, 7))
        assert windows_by_label(cwi, g14) == GOLDEN_WINDOWS
        assert cwi.size == 18
        assert sum(1 for wins in cwi.by_edge.values() if wins) == 14

    def test_restricted_range(self, g14):
        cwi = build_both(g14, 2, (1, 4))
        expected = {
            (2, 9, 1): ((1, 4),),
            (1, 4, 2): ((2, 3),),
            (2, 3, 2): ((1, 4),),
            (1, 2, 3): ((2, 3),),
            (2, 4, 3): ((2, 3),),
            (3, 9, 4): ((1, 4),),
        }
        assert windows_by_label(cwi, g14) == expected
        # out-of-range edges are not in the index, nor are edges g14 lacks
        assert dense_edge(g14, 6, 7, 5) not in cwi.by_edge
        for missing in (dense_edge(g14, 1, 9, 1), TemporalEdge(0, 1, 99), "no edge"):
            with pytest.raises(KeyError):
                cwi.by_edge[missing]

    def test_no_windows_above_kmax(self, g14):
        cwi = build_both(g14, 3, (1, 7))
        assert cwi.size == 0
        assert all(not wins for wins in cwi.by_edge.values())
        assert not any(brute_core_windows(g14, 5, (1, 7)).values())

    def test_mismatched_core_times_rejected(self, g14):
        ct = build_core_times(g14, 2, (1, 6))
        with pytest.raises(ValueError):
            build_core_windows(g14, 2, (1, 7), ct)
        ct3 = build_core_times(g14, 3, (1, 7))
        with pytest.raises(ValueError):
            build_core_windows(g14, 2, (1, 7), ct3)
        # same k, span and vertex count, one edge fewer: core times of
        # another graph would give wrong windows, not an error
        other = parse_edge_list(io.StringIO(G14_TEXT.replace("1 3 6\n", "")))
        assert (other.n, other.m, other.t_count) == (g14.n, g14.m - 1, 7)
        with pytest.raises(ValueError, match="built for a different query"):
            build_core_windows(g14, 2, (1, 7), build_core_times(other, 2, (1, 7)))

    def test_past_deadline_raises(self, g14):
        ct = build_core_times(g14, 2, (1, 7))
        with pytest.raises(BudgetExceeded):
            build_core_windows(g14, 2, (1, 7), ct,
                               deadline=time.perf_counter() - 1)

    def test_to_text_contains_rows(self, g14):
        text = build_both(g14, 2, (1, 7)).to_text()
        assert "(v2,v9,1): [1,4]" in text
        assert "(v1,v3,6): [2,6], [6,7]" in text

    def test_to_text_skips_edges_without_windows(self, g14):
        # over [1,3] only the triangle's three edges hold windows
        cwi = build_both(g14, 2, (1, 3))
        lines = cwi.to_text().splitlines()
        assert [line.split(":")[0] for line in lines] == \
            ["(v1,v4,2)", "(v1,v2,3)", "(v2,v4,3)"]
        assert len(cwi.by_edge) == 5


class TestProperties:
    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(777)
        for _ in range(80):
            g = random_graph(rng)
            a = rng.randint(1, g.t_count)
            b = rng.randint(a, g.t_count)
            for k in (1, 2, 3, 4):
                built = build_both(g, k, (a, b))
                assert dict(built.by_edge) == brute_core_windows(g, k, (a, b))

    def test_skyline_shape(self):
        # strictly increasing in both endpoints, containing the edge time
        rng = random.Random(555)
        for _ in range(40):
            g = random_graph(rng, max_vertices=15, max_edges=70)
            cwi = build_both(g, rng.randint(1, 4), (1, g.t_count))
            for e, wins in cwi.by_edge.items():
                for i, (start, end) in enumerate(wins):
                    assert start <= e.t <= end
                    if i:
                        assert start > wins[i - 1][0]
                        assert end > wins[i - 1][1]

    def test_reconstructs_window_cores(self):
        rng = random.Random(333)
        for _ in range(25):
            g = random_graph(rng, max_vertices=12, max_edges=50, max_timestamps=8)
            k = rng.randint(1, 3)
            cwi = build_both(g, k, (1, g.t_count))
            for _ in range(8):
                a = rng.randint(1, g.t_count)
                b = rng.randint(a, g.t_count)
                core = temporal_kcore(g, k, (a, b))
                expected = frozenset(core.edges) if core else frozenset()
                rebuilt = frozenset(
                    e for e, wins in cwi.by_edge.items()
                    if any(a <= start and end <= b for start, end in wins))
                assert rebuilt == expected

    def test_earliest_window_per_start_is_owned_by_a_start_edge(self):
        # for each start s, the minimal window [s, c] with the smallest end
        # must belong to some edge whose timestamp is exactly s
        rng = random.Random(99)
        graphs = [random_graph(rng, max_vertices=15, max_edges=70)
                  for _ in range(30)]
        for g in graphs:
            for k in (1, 2, 3):
                cwi = build_both(g, k, (1, g.t_count))
                best: dict[int, int] = {}
                for start, end in zip(cwi.start, cwi.end):
                    if start not in best or end < best[start]:
                        best[start] = end
                for s, c in best.items():
                    assert any(e.t == s and (s, c) in wins
                               for e, wins in cwi.by_edge.items()), (s, c)


def columns(cwi):
    """The span's edges, then (edge, start, end) per window, with each
    edge id made a TemporalEdge."""
    return list(cwi.by_edge), list(zip(map(cwi.g.edges.__getitem__, cwi.edge),
                                       cwi.start, cwi.end))


def oracle_columns(by_edge):
    """columns() of the oracle's edge -> windows dict."""
    return list(by_edge), [(e, start, end) for e, wins in by_edge.items()
                           for start, end in wins]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.integers(1, 6)), min_size=5, max_size=40),
       st.data())
def test_columns_match_oracle(triples, data):
    try:
        g = TemporalGraph.from_triples(triples)
    except EmptyGraphError:
        return
    a = data.draw(st.integers(1, g.t_count), label="ts")
    b = data.draw(st.integers(a, g.t_count), label="te")
    for k in (1, 2, 3, 4):
        built = build_both(g, k, (a, b))
        assert columns(built) == oracle_columns(brute_core_windows(g, k, (a, b))), k


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.integers(1, 6)), min_size=5, max_size=40),
       st.data())
def test_windows_in_edge_then_start_order(triples, data):
    # by_edge and the baseline bisect the edge column of every index, built
    # or made from a mapping in any order
    try:
        g = TemporalGraph.from_triples(triples)
    except EmptyGraphError:
        return
    a = data.draw(st.integers(1, g.t_count), label="ts")
    b = data.draw(st.integers(a, g.t_count), label="te")
    for k in (1, 2, 3):
        built = build_both(g, k, (a, b))
        reordered = dict(reversed(list(built.by_edge.items())))
        made = index_from_windows(k, (a, b), reordered)
        for cwi in (built, made):
            keys = list(zip(cwi.edge, cwi.start))
            assert keys == sorted(set(keys)), k


def test_index_memory_per_window():
    # the three columns hold 16 bytes per window and one reference per
    # span edge; an object and a list per window would hold about 200
    g = burst_graph(5, timestamps=2000, clique=10, target_edges=12000)
    span = (1, g.t_count)
    ct = build_core_times(g, 2, span)
    tracemalloc.start()
    try:
        cwi = build_core_windows(g, 2, span, ct)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cwi.size > 10_000
    assert held < 64 * cwi.size, (held, cwi.size)


def test_made_index_reads_by_edge_like_the_built_one():
    # every index's edges are a graph's, so by_edge finds each key's id by
    # bisection and reading a made index costs what reading a built one does
    g = burst_graph(5, timestamps=2000, clique=10, target_edges=12000)
    span = (1, g.t_count)
    built = build_both(g, 2, span)
    made = index_from_windows(2, span, dict(built.by_edge))
    started = time.perf_counter()
    read = dict(made.by_edge)
    elapsed = time.perf_counter() - started
    assert read == dict(built.by_edge)
    assert elapsed < 1.0, elapsed
