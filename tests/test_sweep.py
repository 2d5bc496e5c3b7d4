"""The output-sized sweep, its scan of one start time, and the baseline."""

from __future__ import annotations

import random
import time

import pytest

from tempcore import (BudgetExceeded, FullSink, SizesSink, TemporalEdge,
                      brute_enumerate, build_core_times, build_core_windows,
                      canonical_edges, enumerate_cores, enumerate_cores_baseline,
                      make_sink)
from tempcore.synth import random_graph
from tempcore.windows import CoreWindowIndex, MinimalCoreWindow

from .conftest import GOLDEN_14_CORES, GOLDEN_FULL_CORES, label_vertices


def windows_index(g, k, span):
    return build_core_windows(g, k, span, build_core_times(g, k, span))


def result_map(records):
    return {rec.edges: (rec.ts, rec.te) for rec in records}


def hand_index(span, windows):
    """A window index assembled directly from (edge, start, end) windows,
    one per edge, each active from the span start."""
    by_edge = {}
    for edge, start, end in windows:
        e = TemporalEdge(*edge)
        by_edge[e] = [MinimalCoreWindow(e, start, end, active=span[0])]
    return CoreWindowIndex.from_windows(2, span, by_edge)


class TestScanStart:
    def test_first_emission_is_first_valid_run(self, g14):
        cwi = windows_index(g14, 2, (1, 7))
        sink = FullSink()
        enumerate_cores(cwi, (1, 7), sink)
        start_one = [r for r in sink.records if r.ts == 1]
        assert [(r.te, r.size) for r in start_one] == \
            [(4, 6), (5, 11), (6, 12), (7, 14)]

    def test_empty_list_emits_nothing(self):
        sink = FullSink()
        st = enumerate_cores(hand_index((1, 3), []), (1, 3), sink)
        assert (st.cores, st.node_ops, st.result_size) == (0, 0, 0)
        assert sink.records == []

    def test_prefix_windows_without_start_do_not_emit(self):
        # ends 3,3 start later than ts=1; the end-5 group is its only emission
        cwi = hand_index((1, 5), [((0, 1, 2), 2, 3), ((0, 2, 2), 2, 3),
                                  ((1, 2, 1), 1, 5)])
        sink = SizesSink()
        enumerate_cores(cwi, (1, 5), sink)
        assert [(r.ts, r.te, r.size) for r in sink.records if r.ts == 1] == \
            [(1, 5, 3)]

    def test_single_equal_end_run(self):
        cwi = hand_index((1, 4), [((0, 1, 1), 1, 4), ((0, 2, 1), 1, 4),
                                  ((1, 2, 1), 1, 4)])
        sink = SizesSink()
        st = enumerate_cores(cwi, (1, 4), sink)
        assert st.cores == 1
        assert sink.records[0].size == 3
        # 3 insertions, 1 end group scanned at ts=1, 3 deletions at t=2
        assert st.node_ops == 7


class TestEnumerate:
    def test_restricted_range(self, g14):
        cwi = windows_index(g14, 2, (1, 4))
        sink = FullSink()
        st = enumerate_cores(cwi, (1, 4), sink)
        assert st.cores == 2
        cores = {(r.ts, r.te): r for r in sink.records}
        assert set(cores) == set(GOLDEN_14_CORES)
        for tti, rec in cores.items():
            verts = {v for e in rec.edges for v in (e.u, e.v)}
            assert label_vertices(g14, verts) == GOLDEN_14_CORES[tti]
        # nothing can start at 3 or 4 in the restricted index
        assert all(r.ts in (1, 2) for r in sink.records)

    def test_full_range(self, g14):
        cwi = windows_index(g14, 2, (1, 7))
        sink = FullSink()
        st = enumerate_cores(cwi, (1, 7), sink)
        assert {(r.ts, r.te): r.size for r in sink.records} == GOLDEN_FULL_CORES
        assert st.result_size == 105
        assert st.cores == 13

    def test_emission_order_and_no_duplicates(self, g14):
        cwi = windows_index(g14, 2, (1, 7))
        sink = FullSink()
        enumerate_cores(cwi, (1, 7), sink)
        keys = [(r.ts, r.te) for r in sink.records]
        assert keys == sorted(keys)
        assert len(set(r.edges for r in sink.records)) == len(sink.records)

    def test_span_mismatch_rejected(self, g14):
        cwi = windows_index(g14, 2, (1, 7))
        with pytest.raises(ValueError):
            enumerate_cores(cwi, (1, 6), FullSink())

    def test_past_deadline_raises(self, g14):
        cwi = windows_index(g14, 2, (1, 7))
        with pytest.raises(BudgetExceeded):
            enumerate_cores(cwi, (1, 7), FullSink(),
                            deadline=time.perf_counter() - 1)

    def test_missing_actives_rejected(self, g14):
        built = windows_index(g14, 2, (1, 7))
        cwi = CoreWindowIndex.from_windows(2, (1, 7), {
            e: [MinimalCoreWindow(e, w.start, w.end) for w in wins]
            for e, wins in built.by_edge.items()})
        assert cwi.active is None
        with pytest.raises(ValueError):
            enumerate_cores(cwi, (1, 7), FullSink())

    def test_all_windows_equal(self):
        edge = TemporalEdge(0, 1, 1)
        other = TemporalEdge(0, 2, 1)
        cwi = CoreWindowIndex.from_windows(1, (1, 3), {
            edge: [MinimalCoreWindow(edge, 1, 2, active=1)],
            other: [MinimalCoreWindow(other, 1, 2, active=1)],
        })
        sink = FullSink()
        st = enumerate_cores(cwi, (1, 3), sink)
        assert st.cores == 1
        assert sink.records[0].size == 2

    def test_per_ts_nesting(self, g14):
        cwi = windows_index(g14, 2, (1, 7))
        sink = FullSink()
        enumerate_cores(cwi, (1, 7), sink)
        by_ts: dict[int, list] = {}
        for rec in sink.records:
            by_ts.setdefault(rec.ts, []).append(rec)
        for records in by_ts.values():
            for earlier, later in zip(records, records[1:]):
                assert set(earlier.edges) < set(later.edges)

    def test_live_list_invariants(self, g14):
        cwi = windows_index(g14, 2, (1, 7))
        seen_steps = []

        def on_step(t, live):
            seen_steps.append(t)
            ends = [w.end for w in live]
            assert ends == sorted(ends)
            edges = [w.edge for w in live]
            assert len(edges) == len(set(edges))
            for w in live:
                assert w.active <= t <= w.start

        enumerate_cores(cwi, (1, 7), FullSink(), _on_step=on_step)
        assert seen_steps == list(range(1, 8))

    def test_equal_end_order_is_irrelevant(self, g14):
        cwi = windows_index(g14, 2, (1, 7))
        sink = FullSink()
        enumerate_cores(cwi, (1, 7), sink)
        want = result_map(sink.records)
        for seed in (1, 2, 3):
            items = list(cwi.by_edge.items())
            random.Random(seed).shuffle(items)
            shuffled = CoreWindowIndex.from_windows(cwi.k, cwi.span, dict(items))
            other = FullSink()
            enumerate_cores(shuffled, (1, 7), other)
            assert result_map(other.records) == want


class TestBaseline:
    def test_restricted_range(self, g14):
        cwi = windows_index(g14, 2, (1, 4))
        sink = FullSink()
        st = enumerate_cores_baseline(cwi, (1, 4), sink)
        assert st.cores == 2
        assert result_map(sink.records).keys() == \
            {c.edges for c in brute_enumerate(g14, 2, (1, 4)).cores}
        assert st.windows_scanned == 10

    def test_empty_index(self, g14):
        cwi = windows_index(g14, 3, (1, 7))
        sink = FullSink()
        st = enumerate_cores_baseline(cwi, (1, 7), sink)
        assert st.cores == 0
        assert sink.records == []

    def test_full_range_matches_golden(self, g14):
        cwi = windows_index(g14, 2, (1, 7))
        sink = FullSink()
        st = enumerate_cores_baseline(cwi, (1, 7), sink)
        assert st.cores == 13
        assert st.result_size == 105
        assert {(r.ts, r.te): r.size for r in sink.records} == GOLDEN_FULL_CORES


class TestSinks:
    def test_modes_agree_on_counts(self, g14):
        cwi = windows_index(g14, 2, (1, 7))
        seen = {}
        for mode in ("count", "sizes", "delta", "full"):
            sink = make_sink(mode)
            st = enumerate_cores(cwi, (1, 7), sink)
            seen[mode] = (st.cores, st.result_size)
        assert len(set(seen.values())) == 1

    def test_delta_reassembles_full(self, g14):
        # g14, plus the corpus slice of test_streams_equal_across_algorithms
        cases = [(g14, 2, (1, 7))]
        for seed in range(777_000, 777_040):
            g = random_graph(random.Random(seed))
            cases += [(g, k, (1, g.t_count)) for k in (1, 2, 3)]
        for g, k, span in cases:
            cwi = windows_index(g, k, span)
            delta = make_sink("delta")
            full = make_sink("full")
            enumerate_cores(cwi, span, delta)
            enumerate_cores(cwi, span, full)
            assert len(delta.records) == len(full.records)
            rebuilt: dict[int, set] = {}
            for drec, frec in zip(delta.records, full.records):
                # the new edges come in (t, u, v) order, as full lists them
                assert drec.edges == canonical_edges(drec.edges)
                assert frec.edges == canonical_edges(frec.edges)
                acc = rebuilt.setdefault(drec.ts, set())
                acc.update(drec.edges)
                assert acc == set(frec.edges)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            make_sink("verbose")


class TestAgreement:
    def test_three_way_agreement_random(self):
        rng = random.Random(2718)
        for _ in range(40):
            g = random_graph(rng, max_vertices=16, max_edges=70)
            k = rng.randint(1, 4)
            a = rng.randint(1, g.t_count)
            b = rng.randint(a, g.t_count)
            cwi = windows_index(g, k, (a, b))
            sweep_sink, base_sink = FullSink(), FullSink()
            enumerate_cores(cwi, (a, b), sweep_sink)
            enumerate_cores_baseline(cwi, (a, b), base_sink)
            brute = {c.edges: c.tti for c in brute_enumerate(g, k, (a, b)).cores}
            assert result_map(sweep_sink.records) == brute
            assert result_map(base_sink.records) == brute
