"""Workload resolution, the query pipeline, and the command line surface."""

from __future__ import annotations

import ast
import io
import random
import re
import sys
import tracemalloc
from types import SimpleNamespace

import pytest

import tempcore.cli
import tempcore.oracle
import tempcore.verify
import tempcore.workload
from tempcore import (CoreTimeIndex, TemporalGraph, WorkloadError, format_record,
                      gen_queries, parse_edge_list, place_span, resolve_k,
                      resolve_width, run_query, stats)
from tempcore.cli import main
from tempcore.synth import burst_graph, random_graph
from tempcore.verify import KS, SUB_SPANS, check_instance, run_verification

from .conftest import G14_TEXT


@pytest.fixture
def g14_file(tmp_path):
    path = tmp_path / "g14.txt"
    path.write_text(G14_TEXT)
    return str(path)


class TestPercentResolution:
    def test_k_floor_with_minimum(self):
        assert resolve_k(30, 2) == 1
        assert resolve_k(30, 10) == 3
        assert resolve_k(100, 7) == 7
        assert resolve_k(1, 50) == 1

    def test_width_floor_with_minimum(self):
        assert resolve_width(10, 7) == 1
        assert resolve_width(40, 7) == 2
        assert resolve_width(100, 7) == 7

    def test_out_of_range_percent(self):
        with pytest.raises(ValueError):
            resolve_k(0, 5)
        with pytest.raises(ValueError):
            resolve_width(101, 5)


class TestGenQueries:
    def test_full_width_is_forced(self, g14):
        specs, rejections = gen_queries(g14, [100], [100], 1, seed=7)
        assert [(s.k, s.ts, s.te) for s in specs] == [(2, 1, 7)]
        assert rejections == 0

    def test_impossible_k_fails(self, g14):
        # no 3-core exists in any window of the fixture
        with pytest.raises(WorkloadError):
            place_span(g14, 3, 7, random.Random(1))

    @pytest.fixture
    def peels(self, monkeypatch):
        """The arguments of every WindowPeel that place_span makes."""
        made = []
        peel = tempcore.workload.WindowPeel

        def counting_peel(*args):
            made.append(args)
            return peel(*args)

        monkeypatch.setattr(tempcore.workload, "WindowPeel", counting_peel)
        return made

    def test_rejected_start_is_peeled_once(self, g14, peels):
        # width 7 leaves start 1 only; its 199 repeat draws reuse the rejection
        with pytest.raises(WorkloadError, match="after 200 attempts"):
            place_span(g14, 3, 7, random.Random(1))
        assert len(peels) == 1

    def test_repeat_draws_count_as_rejections(self, g14, peels):
        # at width 1 only start 5 holds a 2-core: every draw before it is a
        # rejection, and each start drawn is peeled once
        for seed in range(10):
            peels.clear()
            span, rejections = place_span(g14, 2, 1, random.Random(seed))
            rng = random.Random(seed)
            draws = [rng.randint(1, 7) for _ in range(rejections + 1)]
            assert span == (5, 5) and draws.index(5) == rejections
            assert len(peels) == len(set(draws))

    def test_k_below_one_is_rejected(self, g14):
        with pytest.raises(ValueError, match="k must be at least 1"):
            place_span(g14, 0, 3, random.Random(1))
        # as are a width outside 1..t_count, no query and no percentage
        for width in (0, 8):
            with pytest.raises(ValueError, match=f"width {width} outside 1..7"):
                place_span(g14, 2, width, random.Random(1))
        with pytest.raises(ValueError, match="count must be at least 1"):
            gen_queries(g14, [100], [100], 0, seed=1)
        for k_pcts, t_pcts in (([], [100]), ([100], [])):
            with pytest.raises(ValueError, match="at least one k and one range"):
                gen_queries(g14, k_pcts, t_pcts, 1, seed=1)

    def test_impossible_cell_fails_with_name(self):
        # a triangle spread over three timestamps holds no 2-core in any
        # single-timestamp window, so the narrow cell can never be satisfied
        g = parse_edge_list(io.StringIO("0 1 1\n1 2 2\n0 2 3\n"))
        with pytest.raises(WorkloadError, match=r"k_pct=100 \(k=2\), t_pct=20"):
            gen_queries(g, [100], [20], 1, seed=1)

    def test_generated_ranges_hold_cores(self, g14):
        # width 4 ranges; every accepted placement must enumerate something
        specs, _ = gen_queries(g14, [100], [58], 5, seed=3)
        for spec in specs:
            assert spec.te - spec.ts + 1 == 4
            _, report = run_query(g14, spec.k, (spec.ts, spec.te), "enum", "count")
            assert report.cores >= 1

    def test_determinism(self, g14):
        first = gen_queries(g14, [100, 50], [40, 100], 3, seed=11)
        second = gen_queries(g14, [100, 50], [40, 100], 3, seed=11)
        assert first == second


def test_workload_takes_only_brute_enumerate_from_the_oracle():
    # spans are placed with graph.WindowPeel; the oracle serves only the
    # brute algorithm, so no production path peels each window from scratch
    with open(tempcore.workload.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                if "oracle" in module or alias.name == "oracle":
                    taken.add((module, alias.name))
        elif isinstance(node, ast.Import):
            taken.update((alias.name, None) for alias in node.names
                         if "oracle" in alias.name)
    assert taken == {(".oracle", "brute_enumerate")}


class _CountingWriter:
    """A text stream that keeps only the number of characters written."""

    def __init__(self) -> None:
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


class TestRunQuery:
    def test_report_arithmetic(self, g14):
        for algo in ("enum", "enumbase", "brute"):
            records, report = run_query(g14, 2, (1, 7), algo, "sizes")
            assert report.cores == len(records) == 13
            assert report.result_size == sum(r.size for r in records) == 105

    def test_streams_equal_across_algorithms(self, g14):
        # every g14 span, plus a seeded slice of the acceptance fuzz corpus
        cases = [(g14, k, (a, b)) for k in (1, 2)
                 for a in range(1, 8) for b in range(a, 8)]
        for seed in range(777_000, 777_040):
            g = random_graph(random.Random(seed))
            cases += [(g, k, (1, g.t_count)) for k in (1, 2, 3)]
        for g, k, span in cases:
            for mode in ("sizes", "delta", "full"):
                streams = {}
                for algo in ("enum", "enumbase", "brute"):
                    lines = [format_record(r, g)
                             for r in run_query(g, k, span, algo, mode)[0]]
                    # the streamed lines are the lines of the records
                    out = io.StringIO()
                    assert run_query(g, k, span, algo, mode, out=out)[0] == []
                    assert out.getvalue() == "".join(l + "\n" for l in lines), \
                        (algo, k, span, mode)
                    streams[algo] = lines
                assert streams["enumbase"] == streams["enum"], (k, span, mode)
                assert streams["brute"] == streams["enum"], (k, span, mode)

    def test_full_stream_state_stays_below_output(self):
        # 6.5M characters written; holding the records would take more
        # than a third of that in traced bytes
        g = burst_graph(5, timestamps=2000, clique=10, target_edges=12000)
        out = _CountingWriter()
        tracemalloc.start()
        try:
            records, report = run_query(g, 4, (1, 1000), "enum", "full", out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert records == [] and report.cores > 0
        assert peak < out.chars / 3, (peak, out.chars)

    def test_brute_looks_up_only_new_edges(self, monkeypatch):
        # the cores of one start time are nested, so the brute route looks
        # up an edge's id once per start time, where a core first holds it
        g = burst_graph(5, timestamps=2000, clique=10, target_edges=12000)
        span = (801, 1000)
        lookups = []
        edge_id = TemporalGraph.edge_id

        def counted(graph, u, v, t):
            lookups.append((u, v, t))
            return edge_id(graph, u, v, t)

        monkeypatch.setattr(TemporalGraph, "edge_id", counted)
        delta = run_query(g, 3, span, "brute", "delta")[0]
        assert delta and len(lookups) == sum(len(r.edges) for r in delta)
        for mode in ("count", "sizes", "delta", "full"):
            brute_records, brute_report = run_query(g, 3, span, "brute", mode)
            enum_records, enum_report = run_query(g, 3, span, "enum", mode)
            assert brute_records == enum_records, mode
            assert (brute_report.cores, brute_report.result_size) == \
                (enum_report.cores, enum_report.result_size), mode

    def test_peak_rss_is_in_kib(self, g14, monkeypatch):
        # ru_maxrss counts KiB on Linux and bytes on macOS
        usage = SimpleNamespace(ru_maxrss=4_096_000)
        monkeypatch.setattr(tempcore.workload.resource, "getrusage", lambda who: usage)
        for platform, kib in (("linux", 4_096_000), ("darwin", 4_000)):
            monkeypatch.setattr(sys, "platform", platform)
            report = run_query(g14, 2, (1, 7))[1]
            assert report.peak_rss_kb == kib, platform
            assert report.line().endswith(f" peak_rss_kb~{kib}"), platform

    def test_modes_share_counts(self, g14):
        counts = {mode: run_query(g14, 2, (1, 7), "enum", mode)[1].cores
                  for mode in ("count", "sizes", "delta", "full")}
        assert set(counts.values()) == {13}

    def test_invalid_arguments(self, g14):
        with pytest.raises(ValueError):
            run_query(g14, 0, (1, 7))
        with pytest.raises(ValueError):
            run_query(g14, 2, (0, 7))
        with pytest.raises(ValueError):
            run_query(g14, 2, (1, 9))
        with pytest.raises(ValueError):
            run_query(g14, 2, (5, 4))
        with pytest.raises(ValueError):
            run_query(g14, 2, (1, 7), algo="magic")
        with pytest.raises(ValueError, match="unknown mode 'loud'"):
            run_query(g14, 2, (1, 7), mode="loud")


class TestCliStats:
    def test_fixture_line(self, g14_file, capsys):
        assert main(["stats", "--input", g14_file]) == 0
        out = capsys.readouterr().out
        assert "n=9 m=14 t_max=7" in out
        assert "k_max=2" in out

    def test_single_edge(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("0 1 44\n")
        assert main(["stats", "--input", str(path)]) == 0
        assert "n=2 m=1 t_max=1" in capsys.readouterr().out

    def test_byte_order_mark_is_read(self, g14_file, tmp_path, capsys):
        # the fixture's edges, the first of them right after the mark
        path = tmp_path / "bom.txt"
        path.write_text("\ufeff" + G14_TEXT.split("\n", 1)[1], encoding="utf-8")
        assert main(["stats", "--input", g14_file]) == 0
        plain = capsys.readouterr().out
        assert main(["stats", "--input", str(path)]) == 0
        assert capsys.readouterr().out == plain

    def test_malformed_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\noops\n")
        assert main(["stats", "--input", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_value_outside_64_bits_exits_1(self, tmp_path, capsys):
        path = tmp_path / "wide.txt"
        path.write_text("1 2 3\n1 99999999999999999999 4\n")
        assert main(["stats", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"tempcore: error: {path}: line 2: "
                                "value outside the signed 64-bit range\n")


class TestCliQuery:
    def test_count_mode_line(self, g14_file, capsys):
        assert main(["query", "--input", g14_file, "--k", "2",
                     "--ts", "1", "--te", "7"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "cores=13 |R|=105"
        assert "report algo=enum" in captured.err

    def test_full_mode_restricted(self, g14_file, capsys):
        assert main(["query", "--input", g14_file, "--k", "2", "--ts", "1",
                     "--te", "4", "--algo", "enum", "--mode", "full"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("tti_ts=1 tti_te=4 size=6 edges=[2,9,1]")
        assert lines[1].startswith("tti_ts=2 tti_te=3 size=3 edges=[1,4,2]")

    def test_brute_counts_match(self, g14_file, capsys):
        assert main(["query", "--input", g14_file, "--k", "2", "--ts", "1",
                     "--te", "7", "--algo", "brute"]) == 0
        assert capsys.readouterr().out.strip() == "cores=13 |R|=105"

    def test_streams_byte_identical_across_runs(self, g14_file, capsys):
        args = ["query", "--input", g14_file, "--k", "2", "--ts", "1",
                "--te", "7", "--mode", "full"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_raw_time_translation(self, tmp_path, capsys):
        path = tmp_path / "raw.txt"
        path.write_text("1 2 1000\n2 3 1000\n1 3 2000\n")
        assert main(["query", "--input", str(path), "--k", "2",
                     "--raw-ts", "1000", "--raw-te", "2000",
                     "--mode", "sizes"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "tti_ts=1000 tti_te=2000 size=3"

    def test_percent_placement(self, g14_file, capsys):
        assert main(["query", "--input", g14_file, "--k-pct", "100",
                     "--t-pct", "100"]) == 0
        assert capsys.readouterr().out.strip() == "cores=13 |R|=105"

    def test_missing_range_is_usage_error(self, g14_file, capsys):
        assert main(["query", "--input", g14_file, "--k", "2"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["query", "--k", "2", "--raw-ts", "1"],
         "--raw-ts and --raw-te must be given together"),
        (["query", "--ts", "1", "--te", "7"], "give --k or --k-pct"),
        (["bench", "--algos", "enum,nope"], "unknown algorithm 'nope'"),
        (["query", "--k", "2", "--raw-ts", "9", "--raw-te", "7"],
         "unknown raw timestamp 9"),
        (["query", "--k", "2", "--k-pct", "50", "--ts", "1", "--te", "7"],
         "give --k or --k-pct, not both"),
        (["query", "--k", "2", "--ts", "1", "--te", "7", "--t-pct", "50"],
         "give one of --ts/--te, --raw-ts/--raw-te, --t-pct, "
         "not --ts/--te and --t-pct"),
        (["query", "--k", "2", "--te", "7", "--raw-ts", "1", "--raw-te", "7"],
         "give one of --ts/--te, --raw-ts/--raw-te, --t-pct, "
         "not --ts/--te and --raw-ts/--raw-te"),
        (["query", "--k", "2", "--raw-ts", "1", "--t-pct", "50"],
         "give one of --ts/--te, --raw-ts/--raw-te, --t-pct, "
         "not --raw-ts/--raw-te and --t-pct"),
    ])
    def test_usage_errors_exit_1_with_message(self, g14_file, tmp_path, capsys,
                                              argv, message):
        out = tmp_path / "results.txt"
        tail = ["--out", str(out)] if argv[0] == "query" else []
        assert main([argv[0], "--input", g14_file] + argv[1:] + tail) == 1
        captured = capsys.readouterr()
        assert captured.err == f"tempcore: error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_range_outside_domain_exits_1(self, g14_file, capsys):
        assert main(["query", "--input", g14_file, "--k", "2",
                     "--ts", "1", "--te", "9"]) == 1
        assert "outside" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["enum", "brute", "enumbase"])
    def test_exhausted_budget_exits_3(self, g14_file, capsys, algo):
        assert main(["query", "--input", g14_file, "--k", "2", "--ts", "1",
                     "--te", "7", "--algo", algo, "--budget", "1e-7"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("tempcore: error:")
        assert len(err.splitlines()) == 1

    def test_bad_flag_exits_1(self, g14_file):
        assert main(["query", "--input", g14_file, "--k", "2", "--ts", "1",
                     "--te", "7", "--algo", "quantum"]) == 1

    def test_out_file(self, g14_file, tmp_path):
        out = tmp_path / "results.txt"
        assert main(["query", "--input", g14_file, "--k", "2", "--ts", "1",
                     "--te", "4", "--mode", "sizes", "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [
            "tti_ts=1 tti_te=4 size=6", "tti_ts=2 tti_te=3 size=3"]

    def test_invalid_range_leaves_out_file_untouched(self, g14_file, tmp_path,
                                                     capsys):
        out = tmp_path / "results.txt"
        out.write_text("earlier results\n")
        assert main(["query", "--input", g14_file, "--k", "2", "--ts", "1",
                     "--te", "9", "--mode", "full", "--out", str(out)]) == 1
        assert "outside" in capsys.readouterr().err
        assert out.read_text() == "earlier results\n"


_LINE = re.compile(r"tti_ts=(-?\d+) tti_te=(-?\d+) size=(\d+) edges=(.*)")
_TRIPLE = re.compile(r"\[(\d+),(\d+),(-?\d+)\]")


def _mapped_back(text: str, label=lambda x: x, time=lambda t: t) -> list[tuple]:
    """Full-mode result lines with ids and times mapped back through label
    and time, and each line's edges re-sorted by (t, smaller id, larger)."""
    lines = []
    for line in text.splitlines():
        ts, te, size, edges = _LINE.fullmatch(line).groups()
        triples = sorted((time(int(t)), *sorted((label(int(a)), label(int(b)))))
                         for a, b, t in _TRIPLE.findall(edges))
        lines.append((time(int(ts)), time(int(te)), int(size), tuple(triples)))
    return lines


class TestInvariance:
    """The raw-id output does not depend on how the input is written:
    the order and repetition of its lines, the vertex ids, or the raw
    timestamps under an increasing map. Each changes the dense numbering
    and the edge ids, so the edge-id order the sinks sort by must give
    the same lines."""

    GRAPH = dict(timestamps=2000, clique=10, target_edges=12000)

    @pytest.fixture(scope="class")
    def triples(self):
        g = burst_graph(5, **self.GRAPH)
        raw = g.time_domain.raw
        return [(g.labels[u], g.labels[v], raw(t)) for u, v, t in g.edges]

    @staticmethod
    def run(tmp_path, triples, k, span) -> str:
        path = tmp_path / "edges.txt"
        path.write_text("".join(f"{u} {v} {t}\n" for u, v, t in triples))
        out = tmp_path / "out.txt"
        # compressed times: ranks survive every change made below
        assert main(["query", "--input", str(path), "--k", str(k), "--ts",
                     str(span[0]), "--te", str(span[1]), "--mode", "full",
                     "--out", str(out)]) == 0
        return out.read_text()

    @pytest.mark.parametrize("k, span", [(2, (1, 500)), (4, (300, 900))])
    def test_output_survives_input_changes(self, tmp_path, capsys, triples,
                                           k, span):
        rng = random.Random(k)
        want = _mapped_back(self.run(tmp_path, triples, k, span))
        assert len(want) > 100

        repeated = triples + [(v, u, t) for u, v, t in rng.sample(triples, 500)]
        rng.shuffle(repeated)
        assert _mapped_back(self.run(tmp_path, repeated, k, span)) == want

        labels = sorted({x for u, v, _ in triples for x in (u, v)})
        new_id = dict(zip(labels, rng.sample(range(10 ** 6), len(labels))))
        old_id = {b: a for a, b in new_id.items()}
        relabelled = [(new_id[u], new_id[v], t) for u, v, t in triples]
        assert _mapped_back(self.run(tmp_path, relabelled, k, span),
                            label=old_id.__getitem__) == want

        stretched = [(u, v, 3 * t + 7) for u, v, t in triples]
        assert _mapped_back(self.run(tmp_path, stretched, k, span),
                            time=lambda t: (t - 7) // 3) == want
        capsys.readouterr()


class TestCliRanges:
    """Out-of-range values exit 1 with one error line, before any output."""

    @pytest.mark.parametrize("argv, says", [
        (["query", "--k", "2", "--ts", "1", "--te", "7", "--budget", "-1"],
         "--budget"),
        (["query", "--k", "2", "--ts", "1", "--te", "7", "--budget", "nan"],
         "--budget"),
        (["bench", "--budget", "-1"], "--budget"),
        (["bench", "--reps", "0"], "--reps"),
        (["bench", "--k-pcts", "0"], "k percentage 0"),
        (["bench", "--t-pcts", "101"], "range percentage 101"),
        (["verify", "--graphs", "-3"], "--graphs"),
        (["bench", "--algos", ","], "--algos"),
        (["bench", "--k-pcts", ""], "--k-pcts"),
        (["bench", "--t-pcts", ""], "--t-pcts"),
        (["gen", "--k-pcts", ""], "at least one k and one range percentage"),
        (["gen", "--t-pcts", ""], "at least one k and one range percentage"),
    ])
    def test_rejected_before_output(self, g14_file, tmp_path, capsys, argv,
                                    says):
        out = tmp_path / "results.txt"
        tail = ["--out", str(out)] if argv[0] in ("query", "bench") else []
        assert main(argv + ["--input", g14_file] + tail) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tempcore: error:")
        assert len(captured.err.splitlines()) == 1
        assert says in captured.err
        assert not out.exists()


class TestCliGen:
    def test_deterministic_lines(self, g14_file, capsys):
        args = ["gen", "--input", g14_file, "--k-pcts", "100",
                "--t-pcts", "100,40", "--queries", "2", "--seed", "5"]
        assert main(args) == 0
        first = capsys.readouterr()
        assert main(args) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert "k_pct=100 t_pct=100 k=2 ts=1 te=7" in first.out
        assert "generated=4" in first.err

    def test_impossible_cell_exits_1(self, tmp_path, capsys):
        path = tmp_path / "triangle.txt"
        path.write_text("0 1 1\n1 2 2\n0 2 3\n")
        assert main(["gen", "--input", str(path), "--k-pcts", "100",
                     "--t-pcts", "20", "--queries", "1", "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert "k=2" in err and "t_pct=20" in err


class TestCliVerify:
    def test_fixture_passes(self, g14_file, capsys, tmp_path):
        dump = tmp_path / "dump.txt"
        assert main(["verify", "--input", g14_file, "--graphs", "3",
                     "--seed", "2", "--dump", str(dump)]) == 0
        assert "pass" in capsys.readouterr().out
        assert not dump.exists()

    def test_nothing_checked_is_an_error(self, g14_file, capsys):
        # no fixture and no random graph: no check runs, so no pass
        assert main(["verify", "--graphs", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tempcore: error:")
        assert len(captured.err.splitlines()) == 1
        assert main(["verify", "--input", g14_file, "--graphs", "0"]) == 0
        assert "pass (16 checks" in capsys.readouterr().out

    def test_one_peel_per_window(self, g14, monkeypatch):
        # both reference indexes read one from-scratch peel of each of the
        # 28 windows of [1,7]
        calls = []
        peel = tempcore.oracle.temporal_kcore

        def counted(g, k, window):
            calls.append(window)
            return peel(g, k, window)

        monkeypatch.setattr(tempcore.oracle, "temporal_kcore", counted)
        assert check_instance(g14, 2, (1, 7)) == []
        assert len(calls) == 28

    def test_runs_missing_a_vertex_fail(self, g14, monkeypatch):
        # a runs view that loses the last vertex is no match for the oracle
        runs = CoreTimeIndex.runs.fget
        monkeypatch.setattr(CoreTimeIndex, "runs",
                            property(lambda index: runs(index)[:-1]))
        assert check_instance(g14, 2, (1, 7))

    def test_duplicate_core_fails(self, g14, monkeypatch):
        # a sweep that emits one core twice, all else equal to the oracle
        sweep = tempcore.verify.enumerate_cores

        def twice(index, span, sink):
            stats = sweep(index, span, sink)
            sink.records.append(sink.records[0])
            return stats

        monkeypatch.setattr(tempcore.verify, "enumerate_cores", twice)
        assert check_instance(g14, 2, (1, 7)) == \
            ["sweep emitted a duplicate core (k=2 span=[1,7])"]

    def test_miscounting_sweep_fails(self, g14, monkeypatch):
        # a sizes sink that takes the counting path but loses one edge of
        # each core, all else equal to the oracle
        class Miscounting(tempcore.verify.RecordSink):
            def emit(self, ts, te, acc, prev_len):
                super().emit(ts, te, acc[1:], prev_len)

        monkeypatch.setattr(tempcore.verify, "RecordSink", Miscounting)
        problems = check_instance(g14, 2, (1, 7))
        assert len(problems) == 1
        assert problems[0].startswith(
            "counting sweep vs full-mode sweep differ (k=2 span=[1,7]): "
            "SweepStats(cores=13, node_ops=50, result_size=92,")

    def test_still_fails_rechecks_the_clamped_span(self, monkeypatch):
        # minimization re-checks the full range, and the failing span
        # clamped to the shrunk graph's times when that differs from it
        checked = []

        def check(g, k, span):
            checked.append((g.t_count, span))
            return []

        monkeypatch.setattr(tempcore.verify, "check_instance", check)
        triples = [(0, 1, 10), (1, 2, 20), (0, 2, 30)]
        for span, spans in (((1, 3), [(1, 3)]), ((2, 3), [(1, 3), (2, 3)]),
                            ((2, 5), [(1, 3), (2, 3)]), ((4, 5), [(1, 3), (3, 3)])):
            checked.clear()
            assert not tempcore.verify._still_fails(triples, 2, span)
            assert checked == [(3, s) for s in spans], span
        # no graph is left once every triple is a self-loop
        checked.clear()
        assert not tempcore.verify._still_fails([(0, 0, 1), (2, 2, 2)], 2, (1, 2))
        assert checked == []

    def test_corrupted_windows_fail_with_dump(self, g14, g14_file, tmp_path, capsys,
                                              monkeypatch):
        dump = tmp_path / "dump.txt"
        build = tempcore.verify.build_core_windows

        def corrupted(*args, **kwargs):
            # the windows are columns; stretch the first window by one
            index = build(*args, **kwargs)
            if index.size:
                index.end[0] += 1
            return index

        monkeypatch.setattr(tempcore.verify, "build_core_windows", corrupted)
        outcome = run_verification(g14, graphs=0, seed=0, dump_path=str(dump))
        assert not outcome.passed
        assert outcome.dump_file == str(dump)
        text = dump.read_text()
        assert "k=" in text
        assert any(line and not line.startswith("#")
                   for line in text.splitlines())
        # the command reports the failure and the dump, and exits 2
        cli_dump = tmp_path / "cli_dump.txt"
        assert main(["verify", "--input", g14_file, "--graphs", "0",
                     "--dump", str(cli_dump)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert err[0].startswith("verify: FAIL after ")
        assert err[-1] == f"  reproduction written to {cli_dump}"
        assert cli_dump.read_text() == text
        # a dump that cannot be written still leaves the mismatch reported,
        # and is found unwritable before any minimization
        still_fails = tempcore.verify._still_fails
        minimized = []

        def counted(*args):
            minimized.append(args)
            return still_fails(*args)

        monkeypatch.setattr(tempcore.verify, "_still_fails", counted)
        unwritable = tmp_path / "missing" / "x.txt"
        assert main(["verify", "--input", g14_file, "--graphs", "0",
                     "--dump", str(unwritable)]) == 2
        captured = capsys.readouterr()
        unwritten = captured.err.splitlines()
        assert captured.out == ""
        assert unwritten[:-1] == err[:-1]
        assert unwritten[-1].startswith("  reproduction not written: [Errno 2] ")
        assert not unwritable.parent.exists()
        assert minimized == []
        # a failure on a corpus graph stops the run at that graph's first check
        outcome = run_verification(None, graphs=5, seed=0)
        assert not outcome.passed
        assert outcome.checks == 1
        assert outcome.failures[0].startswith("minimal windows differ at edge ")

    def test_corpus_draw_without_edges_is_skipped(self, monkeypatch):
        # draw 0 keeps only self-loops, so it normalizes to no graph and
        # every check runs on draw 1
        draw = tempcore.verify.random_edge_triples
        draws = []

        def first_all_loops(rng):
            draws.append(rng)
            triples = draw(rng)
            return [(u, u, t) for u, _, t in triples] if len(draws) == 1 else triples

        check = tempcore.verify.check_instance
        checked = []

        def recorded(g, k, span):
            checked.append(g)
            return check(g, k, span)

        monkeypatch.setattr(tempcore.verify, "random_edge_triples", first_all_loops)
        monkeypatch.setattr(tempcore.verify, "check_instance", recorded)
        outcome = run_verification(None, graphs=2)
        assert outcome.passed and len(draws) == 2
        assert outcome.checks == len(checked) == (SUB_SPANS + 1) * len(KS)
        draw1 = TemporalGraph.from_triples(draw(random.Random(1)))
        for g in checked:
            assert (g.labels, list(g.edges)) == (draw1.labels, list(draw1.edges))


class TestCliBench:
    def test_fixture_grid_completes(self, g14_file, capsys):
        assert main(["bench", "--input", g14_file, "--reps", "2",
                     "--algos", "enum,enumbase,brute", "--budget", "30"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.strip().splitlines() if not l.startswith("k_pct")]
        # 4x4 grid, three algorithms per cell
        assert len(lines) == 48
        assert all(l.endswith("ok") for l in lines)

    def test_rows_are_machine_readable(self, g14_file, capsys):
        assert main(["bench", "--input", g14_file, "--k-pcts", "100",
                     "--t-pcts", "100", "--reps", "1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        header, row = out[0].split("\t"), out[1].split("\t")
        assert len(header) == len(row)
        record = dict(zip(header, row))
        assert record["cores"] == "13"
        assert record["result_size"] == "105"

    def test_exhausted_budget_exits_3(self, g14_file, capsys):
        assert main(["bench", "--input", g14_file, "--k-pcts", "100",
                     "--t-pcts", "100", "--reps", "1", "--budget", "1e-7"]) == 3
        out = capsys.readouterr().out
        assert "timeout" in out

    def test_one_stats_call_and_one_cell_prefix(self, tmp_path, capsys,
                                                monkeypatch):
        # the triangle has a 2-core over [1,3] but in no width-1 range
        path = tmp_path / "triangle.txt"
        path.write_text("0 1 1\n1 2 2\n0 2 3\n")
        calls = 0

        def counted(g):
            nonlocal calls
            calls += 1
            return stats(g)

        monkeypatch.setattr(tempcore.cli, "stats", counted)
        monkeypatch.setattr(tempcore.workload, "stats", counted)
        assert main(["bench", "--input", str(path), "--k-pcts", "100",
                     "--t-pcts", "20,100", "--reps", "1"]) == 0
        captured = capsys.readouterr()
        assert calls == 1
        assert len(captured.out.strip().splitlines()) == 2
        assert captured.err.strip() == (
            "bench: cell k_pct=100 (k=2), t_pct=20: no width-1 range with a "
            "2-core found after 200 attempts")

    def test_grid_that_measured_nothing_exits_nonzero(self, tmp_path, capsys):
        # the triangle has a 2-core over [1,3] but in no width-1 range
        path = tmp_path / "triangle.txt"
        path.write_text("0 1 1\n1 2 2\n0 2 3\n")
        unplaced = ("bench: cell k_pct=100 (k=2), t_pct=20: no width-1 range "
                    "with a 2-core found after 200 attempts")
        # no cell could be placed: a usage failure, as in gen
        assert main(["bench", "--input", str(path), "--k-pcts", "100",
                     "--t-pcts", "20", "--reps", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("k_pct\t") and captured.out.count("\n") == 1
        err = captured.err.splitlines()
        assert err[0] == unplaced
        assert len(err) == 2 and err[1].startswith("tempcore: error: ")
        # one cell unplaced and the other timed out: the budget ran out
        assert main(["bench", "--input", str(path), "--k-pcts", "100",
                     "--t-pcts", "20,100", "--reps", "1", "--budget", "1e-7"]) == 3
        captured = capsys.readouterr()
        rows = captured.out.splitlines()[1:]
        assert len(rows) == 1 and rows[0].endswith("\ttimeout")
        assert captured.err.splitlines() == [unplaced]

    def test_rows_are_written_as_cells_finish(self, g14_file, tmp_path,
                                              monkeypatch):
        # a failing second cell leaves the first cell's row written
        calls = 0
        run = tempcore.cli.run_query

        def second_fails(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == 2:
                raise ValueError("second cell failed")
            return run(*args, **kwargs)

        monkeypatch.setattr(tempcore.cli, "run_query", second_fails)
        out = tmp_path / "bench.tsv"
        assert main(["bench", "--input", g14_file, "--k-pcts", "100",
                     "--t-pcts", "100", "--reps", "1", "--algos", "enum,enumbase",
                     "--out", str(out)]) == 1
        header, row = out.read_text().splitlines()
        assert header.startswith("k_pct\t")
        assert row.split("\t")[5] == "enum" and row.endswith("\tok")

    def test_zero_budget_is_unlimited(self, g14_file, capsys):
        # as in query, --budget 0 sets no deadline
        assert main(["bench", "--input", g14_file, "--k-pcts", "100",
                     "--t-pcts", "100", "--reps", "2", "--budget", "0",
                     "--algos", "enum,enumbase,brute"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 3
        assert all(row.split("\t")[6] == "2" and row.endswith("\tok")
                   for row in rows)
