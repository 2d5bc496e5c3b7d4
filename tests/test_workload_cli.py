"""Workload resolution, the query pipeline, and the command line surface."""

from __future__ import annotations

import io
import random
import tracemalloc

import pytest

import tempcore.verify
from tempcore import (WorkloadError, format_record, gen_queries,
                      parse_edge_list, place_span, resolve_k, resolve_width,
                      run_query)
from tempcore.cli import main
from tempcore.synth import burst_graph, random_graph
from tempcore.verify import run_verification

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
            place_span(g14, 3, 7, random.Random(1), max_attempts=20)

    def test_impossible_cell_fails_with_name(self):
        # a triangle spread over three timestamps holds no 2-core in any
        # single-timestamp window, so the narrow cell can never be satisfied
        g = parse_edge_list(io.StringIO("0 1 1\n1 2 2\n0 2 3\n"))
        with pytest.raises(WorkloadError, match=r"k_pct=100 \(k=2\), t_pct=20"):
            gen_queries(g, [100], [20], 1, seed=1, max_attempts=20)

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
            run_query(g14, 2, (1, 7), algo="magic")


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

    def test_malformed_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\noops\n")
        assert main(["stats", "--input", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err


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

    def test_corrupted_windows_fail_with_dump(self, g14, tmp_path, monkeypatch):
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

    def test_zero_budget_is_unlimited(self, g14_file, capsys):
        # as in query, --budget 0 sets no deadline
        assert main(["bench", "--input", g14_file, "--k-pcts", "100",
                     "--t-pcts", "100", "--reps", "2", "--budget", "0",
                     "--algos", "enum,enumbase,brute"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 3
        assert all(row.split("\t")[6] == "2" and row.endswith("\tok")
                   for row in rows)
