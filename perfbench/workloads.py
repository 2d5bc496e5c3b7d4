"""The benchmark's two workloads.

Each workload loads its input once per set-up (`load`), checks one run of
the query as it emits (`check`), keeps of the loaded state only what the
query reads (`query_state`), runs one query from that state (`query`, the
timed operation, which returns a signature of its output), and names the
layer functions the tracer wraps (`layers`).
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import time
from dataclasses import dataclass, replace

import tempcore.cli
import tempcore.workload
from tempcore import (CoreSubgraph, TemporalGraph, parse_edge_list, place_span,
                      resolve_k, resolve_width, stats)

from checks import ResultChecker
from inputs import input_path

# oracle peels per check, for soundness and again for completeness
CHECK_SAMPLES = 8


@dataclass
class Loaded:
    g: TemporalGraph | None
    k: int
    span: tuple[int, int]
    path: str


def _parse(path) -> TemporalGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh)


def _pipeline_layers():
    """The three index/sweep layers, as run_query calls them."""
    return [
        (tempcore.workload, "build_core_times", "coretime", lambda ct: ct.size),
        (tempcore.workload, "build_core_windows", "windows",
         lambda cw: (cw.size, len(cw.by_edge))),
        (tempcore.workload, "enumerate_cores", "sweep", lambda st: st),
    ]


class _ObservedSink:
    """Passes every emission to the program's sink, then to a checker."""

    def __init__(self, sink, checker: ResultChecker) -> None:
        self._sink = sink
        self._checker = checker

    def emit(self, ts, te, acc, prev_len) -> None:
        self._sink.emit(ts, te, acc, prev_len)
        self._checker.observe(ts, te, len(acc))

    def __getattr__(self, name):
        return getattr(self._sink, name)


class CountWorkload:
    """run_query in count mode over the graph's whole time range, loaded once."""

    def __init__(self, k: int):
        self.k = k

    def load(self) -> tuple[Loaded, dict[str, float]]:
        path = input_path()
        t0 = time.perf_counter()
        g = _parse(path)
        t1 = time.perf_counter()
        return Loaded(g, self.k, (1, g.t_count), str(path)), {"parse": t1 - t0}

    def _run(self, s: Loaded):
        return tempcore.workload.run_query(s.g, s.k, s.span, "enum", "count")[1]

    def query_state(self, s: Loaded) -> Loaded:
        return s

    def query(self, s: Loaded):
        report = self._run(s)
        return report.cores, report.result_size, report.node_ops

    def check(self, s: Loaded, rng: random.Random):
        """Check the cores of one count-mode run as its sink receives them."""
        checker = ResultChecker(s.g, s.k, s.span, rng, CHECK_SAMPLES)
        make_sink = tempcore.workload.make_sink
        tempcore.workload.make_sink = lambda mode: _ObservedSink(make_sink(mode),
                                                                 checker)
        try:
            report = self._run(s)
        finally:
            tempcore.workload.make_sink = make_sink
        problems = checker.finish(report.cores, report.result_size, report.node_ops,
                                  report.windows_size)
        return problems, (report.cores, report.result_size, report.node_ops)

    def layers(self):
        return ([(tempcore.workload, "run_query", "run_query", None)]
                + _pipeline_layers())


class _NullWriter:
    """A text stream that keeps only the number of characters and lines.

    Given a callback, it also hands it each complete line, so the output
    can be checked without being held.
    """

    def __init__(self, on_line=None) -> None:
        self.chars = 0
        self.lines = 0
        self._on_line = on_line
        self._pending: list[str] = []

    def write(self, text: str) -> int:
        self.chars += len(text)
        self.lines += text.count("\n")
        if self._on_line is not None:
            *done, rest = text.split("\n")
            for piece in done:
                self._on_line("".join(self._pending + [piece] if piece
                                      else self._pending))
                self._pending = []
            if rest:
                self._pending.append(rest)
        return len(text)

    def flush(self) -> None:
        pass


_HEAD = re.compile(r"tti_ts=(-?\d+) tti_te=(-?\d+) size=(\d+) ")
_REPORT_FIELD = re.compile(r"(\w+)=(\d+)\b")


def cli_line(g: TemporalGraph, core: CoreSubgraph) -> str:
    """The line `tempcore query --mode full` prints for a core.

    Original vertex ids and raw timestamps; edges sorted by (t, u, v) with
    the smaller endpoint first.
    """
    raw, labels = g.time_domain.raw, g.labels
    triples = sorted((raw(t), *sorted((labels[u], labels[v]))) for u, v, t in core.edges)
    return (f"tti_ts={raw(core.tti[0])} tti_te={raw(core.tti[1])} size={core.size} "
            "edges=" + "".join(f"[{u},{v},{t}]" for t, u, v in triples))


class CliWorkload:
    """One-shot `tempcore query ... --mode full` through cli.main, in-process.

    The CLI parses the edge file itself, so the query includes parsing; the
    set-up load repeats what the CLI does before its query (parse, stats,
    place_span) and its graph is what the checks peel. The query reads only
    the file, so the loaded graph is dropped before it runs, and the heap
    holds one graph, as in a one-shot CLI.
    """

    K_PCT, T_PCT, SEED = 30, 10, 20240

    def argv(self, s: Loaded) -> list[str]:
        return ["query", "--input", s.path, "--k-pct", str(self.K_PCT),
                "--t-pct", str(self.T_PCT), "--seed", str(self.SEED),
                "--mode", "full"]

    def load(self) -> tuple[Loaded, dict[str, float]]:
        path = input_path()
        t0 = time.perf_counter()
        g = _parse(path)
        t1 = time.perf_counter()
        k = resolve_k(self.K_PCT, stats(g).k_max)
        t2 = time.perf_counter()
        span, _ = place_span(g, k, resolve_width(self.T_PCT, g.t_count),
                             random.Random(self.SEED))
        t3 = time.perf_counter()
        return (Loaded(g, k, span, str(path)),
                {"parse": t1 - t0, "stats": t2 - t1, "place": t3 - t2})

    def _run(self, s: Loaded, out) -> tuple[int, str]:
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tempcore.cli.main(self.argv(s))
        return rc, err.getvalue()

    def query_state(self, s: Loaded) -> Loaded:
        return replace(s, g=None)

    def query(self, s: Loaded):
        out = _NullWriter()
        rc, _ = self._run(s, out)
        return rc, out.chars, out.lines

    def check(self, s: Loaded, rng: random.Random):
        """Check the lines of one run as the CLI prints them."""
        g = s.g
        checker = ResultChecker(g, s.k, s.span, rng, CHECK_SAMPLES,
                                lambda h, core: h == hash(cli_line(g, core)))
        rank = g.time_domain.rank

        def on_line(line: str) -> None:
            head = _HEAD.match(line)
            if head is None:
                raise ValueError(f"unexpected output line {line[:80]!r}")
            checker.observe(rank(int(head[1])), rank(int(head[2])), int(head[3]),
                            hash(line))

        out = _NullWriter(on_line)
        rc, err = self._run(s, out)
        expect = (0, out.chars, out.lines)
        report = dict(_REPORT_FIELD.findall(err))
        if rc != 0:
            return [f"cli exited {rc}: {err.strip()}"], expect
        if f"span=[{s.span[0]},{s.span[1]}]" not in err or report.get("k") != str(s.k):
            return [f"cli ran another query than k={s.k} span={s.span}: "
                    f"{err.strip()}"], expect
        problems = checker.finish(*(int(report.get(name, -1)) for name in
                                    ("cores", "result_size", "node_ops",
                                     "windows_size")))
        return problems, expect

    def layers(self):
        cli = tempcore.cli
        return [
            (cli, "main", "cli", None),
            (cli, "parse_edge_list", "parse", None),
            (cli, "stats", "stats", None),
            (cli, "place_span", "place", None),
            (cli, "run_query", "run_query", None),
            (cli, "format_record", "format", None),
        ] + _pipeline_layers()


WORKLOADS = {
    # output-bound: parse and format dominate; full-mode emission and FullSink
    "cli-burst-span-full": CliWorkload(),
    # scan-bound: 281,626 cores from 14.6M sweep node operations
    "burst-range-count": CountWorkload(k=2),
}
