"""The per-vertex core-time index versus the oracle and its own invariants."""

from __future__ import annotations

import random
import re
import time
import tracemalloc
from math import inf
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempcore import (BudgetExceeded, EmptyGraphError, TemporalGraph,
                      brute_core_times, build_core_times, coretime, graph,
                      temporal_kcore)
from tempcore.synth import burst_graph, random_graph

from .conftest import GOLDEN_CORE_TIMES, REJECTED_V3_RUNS, runs_by_label


class TestGolden:
    def test_reproduces_golden_table(self, g14):
        index = build_core_times(g14, 2, (1, 7))
        assert runs_by_label(index.runs, g14) == GOLDEN_CORE_TIMES
        assert index.size == 24

    def test_rejected_v3_variant_is_wrong(self, g14, g14_dense):
        # the variant ends v3 at start 4; peeling shows v3 in the core of
        # [4,7] but of no shorter window from 4, so the run must read (3,7)
        index = build_core_times(g14, 2, (1, 7))
        v3 = g14_dense[3]
        assert index.runs[v3] != REJECTED_V3_RUNS
        assert index.runs[v3] == GOLDEN_CORE_TIMES[3]
        core = temporal_kcore(g14, 2, (4, 7))
        assert core is not None and v3 in core.vertices
        shorter = temporal_kcore(g14, 2, (4, 6))
        assert shorter is None or v3 not in shorter.vertices

    def test_matches_oracle_on_fixture(self, g14):
        for k in (1, 2, 3, 4):
            assert build_core_times(g14, k, (1, 7)).runs == \
                brute_core_times(g14, k, (1, 7))

    def test_k1_is_earliest_incident_time(self, g14, g14_dense):
        index = build_core_times(g14, 1, (1, 7))
        v5 = g14_dense[5]
        assert [core_time(index, v5, ts) for ts in range(1, 8)] == [6, 6, 6, 6, 6, 6, 7]

    def test_k3_all_absent(self, g14):
        index = build_core_times(g14, 3, (1, 7))
        assert all(not runs for runs in index.runs)


class TestDeadline:
    @pytest.mark.parametrize("span", [(1, 7), (4, 4)])
    def test_past_deadline_raises(self, g14, span):
        with pytest.raises(BudgetExceeded):
            build_core_times(g14, 2, span, deadline=time.perf_counter() - 1)

    def test_first_peel_checks_the_deadline(self, g14, monkeypatch):
        # a clock past the deadline from its second reading on: the check
        # before the first start time's peel passes, one inside it raises
        readings = iter([0.0])
        monkeypatch.setattr(graph, "time",
                            SimpleNamespace(perf_counter=lambda: next(readings, 2.0)))
        with pytest.raises(BudgetExceeded) as info:
            build_core_times(g14, 2, (1, 7), deadline=1.0)
        assert info.traceback[-2].name == "_initial_core_times"


class TestLookup:
    def test_lookup_examples(self, g14, g14_dense):
        index = build_core_times(g14, 2, (1, 7))
        assert core_time(index, g14_dense[1], 2) == 3
        assert core_time(index, g14_dense[1], 3) == 5
        assert core_time(index, g14_dense[1], 7) is None
        assert core_time(index, g14_dense[9], 2) is None

    def test_lookup_bounds(self, g14):
        with pytest.raises(ValueError, match="k must be at least 1"):
            build_core_times(g14, 0, (2, 6))
        for span in ((0, 6), (2, 8), (6, 2)):
            message = re.escape(f"span [{span[0]},{span[1]}] outside 1..7")
            with pytest.raises(ValueError, match=message):
                build_core_times(g14, 2, span)

    def test_to_text_mirrors_runs(self, g14):
        index = build_core_times(g14, 2, (1, 7))
        text = index.to_text()
        assert "v3: [1,4], [2,6], [3,7], [7,inf]" in text.splitlines()
        assert "v1: [1,3], [3,5], [6,7], [7,inf]" in text.splitlines()

    def test_to_text_skips_vertices_without_runs(self, g14):
        # over [1,3] only the triangle of v1, v2 and v4 is ever a 2-core
        index = build_core_times(g14, 2, (1, 3))
        lines = index.to_text().splitlines()
        assert [line.split(":")[0] for line in lines] == ["v1", "v2", "v4"]
        assert sum(1 for runs in index.runs if runs) == 3 < g14.n


def core_time(index, v, ts):
    """v's core time for start time ts, read from runs (None for never)."""
    return next((end for start, end in reversed(index.runs[v]) if start <= ts), None)


def assert_round_trip(index, g):
    """runs reads back the columns, one run per column entry, in start order."""
    runs = index.runs
    assert len(runs) == g.n
    assert index.size == sum(map(len, runs))
    lo, hi = index.span
    for v, entries in enumerate(runs):
        first, last = index.offsets[v], index.offsets[v + 1]
        starts = [start for start, _ in entries]
        assert starts == list(index.starts[first:last])
        assert starts == sorted(set(starts))
        assert all(lo <= start <= hi for start in starts)
        assert [hi + 1 if end is None else end for _, end in entries] == \
            list(index.ends[first:last])


class TestColumns:
    def test_round_trip_on_fixture(self, g14):
        for k in (1, 2, 3):
            for span in ((1, 7), (2, 5), (4, 4)):
                assert_round_trip(build_core_times(g14, k, span), g14)

    def test_round_trip_on_random_graphs(self):
        rng = random.Random(77)
        for _ in range(50):
            g = random_graph(rng)
            a = rng.randint(1, g.t_count)
            b = rng.randint(a, g.t_count)
            assert_round_trip(build_core_times(g, rng.randint(1, 3), (a, b)), g)

    def test_never_is_past_the_span_in_the_columns(self, g14, g14_dense):
        index = build_core_times(g14, 2, (1, 7))
        v9 = g14_dense[9]
        first, last = index.offsets[v9], index.offsets[v9 + 1]
        assert list(index.starts[first:last]) == [1, 2]
        assert list(index.ends[first:last]) == [4, 8]
        assert index.runs[v9] == ((1, 4), (2, None))

    def test_ends_are_nondecreasing_per_vertex(self):
        # never is the span end + 1, the top of the order, so each vertex's
        # ends rise like its core times
        g = burst_graph(5, timestamps=2000, clique=10, target_edges=12000)
        cases = [(g, 2, (1, g.t_count))]
        rng = random.Random(31)
        for _ in range(100):
            g = random_graph(rng)
            a = rng.randint(1, g.t_count)
            cases.append((g, rng.randint(1, 3), (a, rng.randint(a, g.t_count))))
        nevers = 0
        for g, k, span in cases:
            index = build_core_times(g, k, span)
            off, ends = index.offsets, index.ends
            for v in range(g.n):
                run = list(ends[off[v]:off[v + 1]])
                assert run == sorted(run), (v, run)
                assert all(e <= index.span[1] + 1 for e in run), (v, run)
            nevers += sum(e > index.span[1] for e in ends)
        assert nevers > 1000

    def test_index_memory_per_run(self):
        # two 32-bit columns per run and one 32-bit offset per vertex; a
        # tuple per run and one per vertex would hold about 87 bytes a run.
        # The build peaks at 25.3 bytes a run, against 41.0 with a start per
        # run, a set of the vertices changed at each start time and the core
        # times kept through the sort
        g = burst_graph(5, timestamps=2000, clique=10, target_edges=12000)
        tracemalloc.start()
        try:
            index = build_core_times(g, 2, (1, g.t_count))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index.size > 20_000
        assert held < 32 * index.size, (held, index.size)
        assert peak < 32 * index.size, (peak, index.size)


def test_repair_work_follows_changes(monkeypatch):
    # calls of the local rule per core-time change on a uniform graph (500
    # vertices, 20k edges), k=3 over [1,200]: 1.93 with the pruned push;
    # 2.14 when the push ignores the old core time, 20.2 when every
    # neighbour of a changed vertex is re-evaluated
    rng = random.Random(1)
    g = TemporalGraph.from_triples([(rng.randrange(500), rng.randrange(500),
                                     rng.randint(1, 500)) for _ in range(20_000)])
    calls = 0
    rule = coretime._local_core_time

    def counted(*args):
        nonlocal calls
        calls += 1
        return rule(*args)

    monkeypatch.setattr(coretime, "_local_core_time", counted)
    index = build_core_times(g, 3, (1, 200))
    changes = index.size - sum(1 for runs in index.runs if runs)
    assert changes > 30_000
    assert calls <= 2 * changes, (calls, changes)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.integers(1, 6)), min_size=5, max_size=40),
       st.data())
def test_runs_match_oracle(triples, data):
    try:
        g = TemporalGraph.from_triples(triples)
    except EmptyGraphError:
        return
    a = data.draw(st.integers(1, g.t_count), label="ts")
    b = data.draw(st.integers(a, g.t_count), label="te")
    for k in (1, 2, 3, 4):
        built = build_core_times(g, k, (a, b))
        assert built.runs == brute_core_times(g, k, (a, b)), k


def _as_inf(value):
    return inf if value is None else value


class TestFuzz:
    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(1234)
        for _ in range(80):
            g = random_graph(rng)
            a = rng.randint(1, g.t_count)
            b = rng.randint(a, g.t_count)
            for k in (1, 2, 3, 4):
                built = build_core_times(g, k, (a, b))
                assert built.runs == brute_core_times(g, k, (a, b))

    def test_step_functions_nondecreasing_and_k_monotone(self):
        rng = random.Random(4321)
        for _ in range(40):
            g = random_graph(rng, max_vertices=15, max_edges=60)
            span = (1, g.t_count)
            prev_index = None
            for k in (1, 2, 3):
                index = build_core_times(g, k, span)
                for v in range(g.n):
                    values = [_as_inf(core_time(index, v, ts))
                              for ts in range(span[0], span[1] + 1)]
                    assert values == sorted(values)
                    if prev_index is not None:
                        lower = [_as_inf(core_time(prev_index, v, ts))
                                 for ts in range(span[0], span[1] + 1)]
                        assert all(hi >= lo for hi, lo in zip(values, lower))
                prev_index = index

    def test_values_witnessed_by_peeling(self):
        rng = random.Random(2024)
        for _ in range(15):
            g = random_graph(rng, max_vertices=12, max_edges=50, max_timestamps=8)
            k = rng.randint(1, 3)
            index = build_core_times(g, k, (1, g.t_count))
            for v in range(g.n):
                for ts in range(1, g.t_count + 1):
                    te = core_time(index, v, ts)
                    if te is None:
                        continue
                    core = temporal_kcore(g, k, (ts, te))
                    assert core is not None and v in core.vertices
                    if te - 1 >= ts:
                        earlier = temporal_kcore(g, k, (ts, te - 1))
                        assert earlier is None or v not in earlier.vertices
