"""The output-sized sweep, its scan of one start time, and the baseline."""

from __future__ import annotations

import random
import time
import tracemalloc
from bisect import bisect_left, bisect_right

import pytest

from tempcore import (BudgetExceeded, CoreResult, FullSink, RecordSink, ResultSink,
                      TemporalEdge, TemporalGraph, brute_enumerate, build_core_times,
                      build_core_windows, canonical_edges, enumerate_cores,
                      enumerate_cores_baseline, make_sink, run_query)
from tempcore.synth import burst_graph, random_edge_triples, random_graph

from .conftest import (GOLDEN_14_CORES, GOLDEN_FULL_CORES, index_from_windows,
                       label_vertices)


def windows_index(g, k, span):
    return build_core_windows(g, k, span, build_core_times(g, k, span))


def result_map(records):
    return {rec.edges: (rec.ts, rec.te) for rec in records}


def hand_index(span, windows):
    """A window index assembled directly from (edge, start, end) windows,
    one per edge."""
    return index_from_windows(2, span, {
        TemporalEdge(*edge): [(start, end)] for edge, start, end in windows})


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
        sink = RecordSink("sizes")
        enumerate_cores(cwi, (1, 5), sink)
        assert [(r.ts, r.te, r.size) for r in sink.records if r.ts == 1] == \
            [(1, 5, 3)]

    def test_single_equal_end_run(self):
        cwi = hand_index((1, 4), [((0, 1, 1), 1, 4), ((0, 2, 1), 1, 4),
                                  ((1, 2, 1), 1, 4)])
        sink = RecordSink("sizes")
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
        # g14 holds no window at k=3: the deadline is checked on entry too,
        # so a sweep that visits no start time still raises
        for k in (2, 3):
            cwi = windows_index(g14, k, (1, 7))
            with pytest.raises(BudgetExceeded):
                enumerate_cores(cwi, (1, 7), FullSink(),
                                deadline=time.perf_counter() - 1)
        assert len(cwi.start) == 0

    def test_all_windows_equal(self):
        edge = TemporalEdge(0, 1, 1)
        other = TemporalEdge(0, 2, 1)
        cwi = index_from_windows(1, (1, 3), {
            edge: [(1, 2)],
            other: [(1, 2)],
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

    def test_emissions_hold_first_windows_from_ts(self):
        # at start ts each edge is live through its first window starting
        # no earlier than ts, so the core emitted at (ts, te) holds, once
        # each, exactly the edges whose such window ends by te
        rng = random.Random(61)
        emissions = 0
        for _ in range(60):
            g = random_graph(rng)
            a = rng.randint(1, g.t_count)
            b = rng.randint(a, g.t_count)
            for k in (1, 2, 3):
                cwi = windows_index(g, k, (a, b))
                sink = _Emissions()
                enumerate_cores(cwi, (a, b), sink)
                for ts, te, acc in sink.seen:
                    assert len(acc) == len(set(acc)), (ts, te)
                    acc = [g.edges[i] for i in acc]
                    want = set()
                    for e, wins in cwi.by_edge.items():
                        live = next((end for start, end in wins if start >= ts),
                                    None)
                        if live is not None and live <= te:
                            want.add(e)
                    assert set(acc) == want, (ts, te)
                emissions += len(sink.seen)
        assert emissions > 500

    def test_peak_live_is_one_window_per_edge(self, g14):
        # every windowed edge is live from the span start, and an expiry
        # swaps a window for at most its edge's next one
        cases = [(g14, k, (1, 7)) for k in (1, 2, 3)]
        g = burst_graph(5, timestamps=2000, clique=10, target_edges=12000)
        cases += [(g, 2, (1, g.t_count)), (g, 5, (300, 900))]
        rng = random.Random(67)
        for _ in range(60):
            g = random_graph(rng)
            a = rng.randint(1, g.t_count)
            cases.append((g, rng.randint(1, 3), (a, rng.randint(a, g.t_count))))
        for g, k, span in cases:
            cwi = windows_index(g, k, span)
            st = enumerate_cores(cwi, span, ResultSink())
            assert st.peak_live == len(set(cwi.edge)), (k, span)

    @pytest.mark.parametrize("case", ["g14", "corpus", "burst"])
    def test_work_follows_window_starts(self, g14, case, monkeypatch):
        # node_ops = |W| + expiries + groups visited: every window arrives
        # once, every window starting before the span end expires, and the
        # scan of each distinct start visits one group per distinct end of
        # the live windows (each edge's first window starting no earlier,
        # found by bisecting its run as the baseline does). The deadline is
        # checked on entry and at each distinct start, not at every time.
        checked = []
        monkeypatch.setattr("tempcore.sweep.check_deadline",
                            lambda deadline, what, at: checked.append(at))
        for g, k, span in mode_cases(case, g14):
            cwi = windows_index(g, k, span)
            edge, start, end = cwi.edge, cwi.start, cwi.end
            runs = [(bisect_left(edge, e), bisect_right(edge, e))
                    for e in dict.fromkeys(edge)]
            starts = sorted(set(start))
            groups = 0
            for ts in starts:
                live_ends = set()
                for lo, hi in runs:
                    i = bisect_left(start, ts, lo, hi)
                    if i < hi:
                        live_ends.add(end[i])
                groups += len(live_ends)
            expiries = sum(s < span[1] for s in start)
            checked.clear()
            st = enumerate_cores(cwi, span, ResultSink())
            assert st.node_ops == len(start) + expiries + groups, (k, span)
            assert st.peak_live == len(runs), (k, span)
            assert checked == [span[0]] + starts, (k, span)

    def test_equal_end_order_is_irrelevant(self, g14):
        cwi = windows_index(g14, 2, (1, 7))
        sink = FullSink()
        enumerate_cores(cwi, (1, 7), sink)
        want = result_map(sink.records)
        for seed in (1, 2, 3):
            items = list(cwi.by_edge.items())
            random.Random(seed).shuffle(items)
            shuffled = index_from_windows(cwi.k, cwi.span, dict(items))
            assert (shuffled.edge, shuffled.start, shuffled.end) == \
                (cwi.edge, cwi.start, cwi.end)
            other = FullSink()
            enumerate_cores(shuffled, (1, 7), other)
            assert result_map(other.records) == want


class _Emissions(ResultSink):
    """Counts like ResultSink and keeps a copy of every emission."""

    reads_edges = True

    def __init__(self) -> None:
        super().__init__()
        self.seen: list[tuple[int, int, list]] = []

    def emit(self, ts, te, acc, prev_len):
        super().emit(ts, te, acc, prev_len)
        self.seen.append((ts, te, list(acc)))


def full_records(g, k, span):
    sink = FullSink()
    enumerate_cores(windows_index(g, k, span), span, sink)
    return sink.records


def inside(records, sub):
    return [r for r in records if sub[0] <= r.ts and r.te <= sub[1]]


class TestSpanRestriction:
    """The cores of sub ⊆ span are the cores of span whose tightest
    interval lies inside sub, in the same order."""

    @pytest.mark.parametrize("k", [2, 4])
    def test_burst_graph(self, k):
        g = burst_graph(5, timestamps=2000, clique=10, target_edges=12000)
        span = (1, g.t_count)
        records = full_records(g, k, span)
        rng = random.Random(k)
        for _ in range(5):
            a = rng.randint(*span)
            sub = (a, rng.randint(a, span[1]))
            assert full_records(g, k, sub) == inside(records, sub), sub

    def test_random_graphs(self):
        rng = random.Random(4242)
        for _ in range(200):
            g = random_graph(rng)
            a = rng.randint(1, g.t_count)
            b = rng.randint(a, g.t_count)
            c = rng.randint(a, b)
            sub = (c, rng.randint(c, b))
            for k in (1, 2, 3):
                assert full_records(g, k, sub) == \
                    inside(full_records(g, k, (a, b)), sub), (k, (a, b), sub)


class TestBaseline:
    def test_restricted_range(self, g14):
        cwi = windows_index(g14, 2, (1, 4))
        sink = FullSink()
        enumerate_cores_baseline(cwi, (1, 4), sink)
        assert sink.cores == 2
        assert result_map(sink.records).keys() == \
            {c.edges for c in brute_enumerate(g14, 2, (1, 4))}
        assert run_query(g14, 2, (1, 4), "enumbase")[1].windows_scanned == 10

    @pytest.mark.parametrize("span, scanned", [((3, 3), 1), ((1, 7), 28)])
    def test_every_window_of_the_span_is_scanned(self, g14, span, scanned):
        # w·(w + 1)/2 (ts, te) pairs for a span of width w, by either scan
        for algo in ("enumbase", "brute"):
            assert run_query(g14, 2, span, algo)[1].windows_scanned == scanned, algo

    def test_empty_index(self, g14):
        cwi = windows_index(g14, 3, (1, 7))
        sink = FullSink()
        enumerate_cores_baseline(cwi, (1, 7), sink)
        assert sink.cores == 0
        assert sink.records == []

    def test_full_range_matches_golden(self, g14):
        cwi = windows_index(g14, 2, (1, 7))
        sink = FullSink()
        enumerate_cores_baseline(cwi, (1, 7), sink)
        assert sink.cores == 13
        assert sink.result_size == 105
        assert {(r.ts, r.te): r.size for r in sink.records} == GOLDEN_FULL_CORES

    def test_index_of_another_span_is_rejected(self, g14):
        cwi = windows_index(g14, 2, (1, 7))
        with pytest.raises(ValueError, match="different span"):
            enumerate_cores_baseline(cwi, (1, 6), FullSink())


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

    @pytest.mark.parametrize("case", ["g14", "corpus", "burst", "uniform"])
    def test_modes_agree_per_core(self, g14, case):
        # count and sizes take the counting path, delta and full gather ids;
        # all four give the same stats and the same (ts, te, size) per core
        for g, k, span in mode_cases(case, g14):
            cwi = windows_index(g, k, span)
            seen = {}
            for mode in ("count", "sizes", "delta", "full"):
                sink = _Sizes() if mode == "count" else _SizedRecords(mode)
                st = enumerate_cores(cwi, span, sink)
                seen[mode] = st, sink.sizes
            assert st.cores > 0, (case, k, span)
            assert all(run == seen["full"] for run in seen.values()), (case, k, span)

    def test_counting_sink_gets_no_id_list(self, g14):
        # a sink that reads no ids is handed a stand-in of the core's size,
        # which test_modes_agree_per_core checks
        cases = [case for name in ("g14", "corpus") for case in mode_cases(name, g14)]
        for g, k, span in cases:
            sink = _Sizes()
            enumerate_cores(windows_index(g, k, span), span, sink)
            assert sink.handed and list not in sink.handed, (k, span)
        # sizes mode counts too; delta and full read ids
        assert [RecordSink(mode).reads_edges for mode in ("sizes", "delta", "full")] \
            == [False, True, True]

    def test_count_mode_memory(self):
        # counting keeps how many live windows end at each time and the
        # window ids by start time in 32-bit arrays: a peak of 7 bytes per
        # live window here, against 126 for a set of edge ids per end time
        # and lists of window ids
        g = burst_graph(5, timestamps=2000, clique=10, target_edges=12000)
        span = (1, g.t_count)
        cwi = windows_index(g, 2, span)
        tracemalloc.start()
        try:
            st = enumerate_cores(cwi, span, ResultSink())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.peak_live > 10_000
        assert peak < 32 * st.peak_live, (peak, st.peak_live)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            make_sink("verbose")

    def test_full_mode_appends_or_resorts(self):
        sink = RecordSink("full")
        sink.bind([f"e{i}" for i in range(20)])
        sink.emit(1, 3, [5, 9], 0)
        sink.emit(1, 4, [5, 9, 12], 2)       # above the run: appended
        sink.emit(1, 5, [5, 9, 12, 7], 3)    # inside it: re-sorted
        sink.emit(2, 4, [16, 14], 0)         # a new start time: a fresh run
        assert sink.records == [
            CoreResult(1, 3, 2, ("e5", "e9")),
            CoreResult(1, 4, 3, ("e5", "e9", "e12")),
            CoreResult(1, 5, 4, ("e5", "e7", "e9", "e12")),
            CoreResult(2, 4, 2, ("e14", "e16")),
        ]

    def test_full_mode_is_output_bound(self):
        # counted, not timed: at m and 2m the sink maps one value per edge
        # of each core it reports, so its work grows with the output
        for m in (500, 1000):
            cwi, span = nested_triangles(m)
            sink = _Mapped()
            enumerate_cores(cwi, span, sink)
            assert (sink.cores, sink.result_size) == (m, 3 * m * (m + 1) // 2)
            assert sink.mapped == sink.result_size, m

        # timed: from m = 500 to m = 1000 the output grows 3.996x; full
        # mode's time grew 3.65-4.33x in 32 runs, and 5.56-6.06x in 32 with
        # a sink that list.inserts each new value at its place in its run
        assert full_mode_growth(FullSink) <= 5


def nested_triangles(m):
    """Triangle j has two edges at time j and its closing edge at 2m - j,
    so its one minimal window (k=2) is [j, 2m - j] and each start time's
    core gathers its edges in no id order: a sink that shifts its run per
    new id takes time quadratic in a core."""
    triples = []
    for j in range(1, m + 1):
        triples += [(3 * j, 3 * j + 1, j), (3 * j + 1, 3 * j + 2, j),
                    (3 * j, 3 * j + 2, 2 * m - j)]
    g = TemporalGraph.from_triples(triples)
    span = (1, g.t_count)
    return windows_index(g, 2, span), span


def full_mode_growth(make_sink) -> float:
    """How the sweep's best of 5 process times into make_sink() grows from
    nested_triangles(500) to nested_triangles(1000), the two timed in turn
    so that a change in the machine's speed meets both."""
    cases = {m: nested_triangles(m) for m in (500, 1000)}
    best: dict[int, float] = {}
    for _ in range(5):
        for m, (cwi, span) in cases.items():
            sink = make_sink()
            t0 = time.process_time()
            enumerate_cores(cwi, span, sink)
            elapsed = time.process_time() - t0
            assert (sink.cores, sink.result_size) == (m, 3 * m * (m + 1) // 2)
            best[m] = min(best.get(m, elapsed), elapsed)
    return best[1000] / best[500]


class _Mapped(FullSink):
    """A FullSink that counts the values it maps, cached or not."""

    def bind(self, edges):
        super().bind(edges)
        self.mapped = 0
        value_of = self._value_of

        def counted(i):
            self.mapped += 1
            return value_of(i)

        self._value_of = counted


class _Sizes(ResultSink):
    """Counts like ResultSink, reading no ids, and keeps each core's
    (ts, te, size) and the types of the stand-ins it was handed."""

    def __init__(self) -> None:
        super().__init__()
        self.sizes: list[tuple[int, int, int]] = []
        self.handed: set[type] = set()

    def emit(self, ts, te, acc, prev_len):
        super().emit(ts, te, acc, prev_len)
        self.sizes.append((ts, te, len(acc)))
        self.handed.add(type(acc))


class _SizedRecords(RecordSink):
    """A RecordSink that keeps only each core's (ts, te, size)."""

    def __init__(self, mode: str) -> None:
        super().__init__(mode)
        self.sizes: list[tuple[int, int, int]] = []

    def record(self, ts, te, size, values):
        self.sizes.append((ts, te, size))


def mode_cases(name, g14):
    """(graph, k, span) queries on g14, the first verify corpus draw, the
    12k burst graph over its whole range, and U20k cut to t <= 60."""
    if name == "g14":
        return [(g14, k, span) for k in (1, 2) for span in ((1, 7), (3, 7))]
    if name == "corpus":
        g = TemporalGraph.from_triples(random_edge_triples(random.Random(0)))
        return [(g, k, (1, g.t_count)) for k in (1, 2, 3)]
    if name == "burst":
        g = burst_graph(5, timestamps=2000, clique=10, target_edges=12000)
        return [(g, 2, (1, g.t_count))]
    rng = random.Random(1)
    draws = [(rng.randrange(500), rng.randrange(500), rng.randint(1, 500))
             for _ in range(20_000)]
    g = TemporalGraph.from_triples([d for d in draws if d[2] <= 60])
    return [(g, k, (1, 60)) for k in (2, 3)]


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
            brute = {c.edges: c.tti for c in brute_enumerate(g, k, (a, b))}
            assert result_map(sweep_sink.records) == brute
            assert result_map(base_sink.records) == brute

    def test_sweep_matches_brute_at_mid_scale(self):
        # far past the corpus: the uniform graph U20k (20,000 draws from
        # random.Random(1)) cut to t <= 60, 500 vertices and 2,388 edges,
        # with up to 1,474 cores and 1.3M result edges a case; and the 12k
        # burst graph at k=2 (k=1 scans there take half a minute)
        rng = random.Random(1)
        draws = [(rng.randrange(500), rng.randrange(500), rng.randint(1, 500))
                 for _ in range(20_000)]
        uniform = TemporalGraph.from_triples([d for d in draws if d[2] <= 60])
        assert (uniform.n, uniform.m, uniform.t_count) == (500, 2388, 60)
        burst = burst_graph(5, timestamps=2000, clique=10, target_edges=12000)
        cases = [(uniform, k, span) for k in (2, 3, 4) for span in ((1, 60), (11, 40))]
        cases += [(burst, 2, (801, 1000)), (burst, 2, (1, 300))]
        for g, k, span in cases:
            sink = FullSink()
            st = enumerate_cores(windows_index(g, k, span), span, sink)
            brute = brute_enumerate(g, k, span)
            assert st.cores == len(sink.records) == len(brute), (k, span)
            assert result_map(sink.records) == {c.edges: c.tti for c in brute}, (k, span)
