"""The benchmark's own checks must pass an intact result and fail a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tempcore import (FullSink, TemporalEdge, TemporalGraph, build_core_times,
                      build_core_windows, enumerate_cores, format_record,
                      temporal_kcore)

from checks import ResultChecker
from inputs import burst_triples
from workloads import cli_line

K = 3
# five 5-cliques over a 25-edge ring: cores are unions of consecutive bursts
GRAPH = TemporalGraph.from_triples(
    burst_triples(7, timestamps=30, burst_every=6, burst_width=2, clique=5,
                  target_edges=75))
SPAN = (1, GRAPH.t_count)
# at least the number of windows of SPAN, so every window and core is peeled
EXHAUSTIVE = 1000


def _answer():
    core_windows = build_core_windows(GRAPH, K, SPAN, build_core_times(GRAPH, K, SPAN))
    sink = FullSink()
    st = enumerate_cores(core_windows, SPAN, sink)
    return sink.records, st, core_windows.size


def _check(records, cores=None, result_size=None, node_ops=None, edges=True):
    """Feed records to a checker in order; defaults report the true totals."""
    _, st, w = _answer()
    same = (lambda token, core: token == frozenset(core.edges)) if edges else None
    checker = ResultChecker(GRAPH, K, SPAN, random.Random(0), EXHAUSTIVE, same)
    for r in records:
        checker.observe(r.ts, r.te, r.size, frozenset(r.edges) if edges else None)
    return checker.finish(st.cores if cores is None else cores,
                          st.result_size if result_size is None else result_size,
                          st.node_ops if node_ops is None else node_ops, w)


def test_answer_has_nested_cores():
    records, st, _ = _answer()
    assert st.cores == len(records) >= 10
    assert len({r.ts for r in records}) < len(records)


def test_intact_result_passes():
    records, _, _ = _answer()
    assert _check(records) == []
    assert _check(records, edges=False) == []


@pytest.mark.parametrize("drop", range(10))
def test_dropped_core_fails(drop):
    records, st, _ = _answer()
    rest = records[:drop] + records[drop + 1:]
    # the totals give it away
    assert any(p.startswith("reported") for p in _check(rest))
    # and so does completeness when the totals are made to agree
    problems = _check(rest, cores=st.cores - 1,
                      result_size=st.result_size - records[drop].size)
    assert any("was not emitted" in p for p in problems)


@pytest.mark.parametrize("alter", range(10))
def test_altered_edge_fails(alter):
    records, _, _ = _answer()
    rec = records[alter]
    outside = next(e for e in GRAPH.edges if e not in rec.edges)
    edges = (outside,) + rec.edges[1:]
    corrupted = records[:alter] + [replace(rec, edges=edges)] + records[alter + 1:]
    problems = _check(corrupted)
    # soundness peels the altered core's own window, completeness finds it
    # among the cores of all windows
    assert any("other edges" in p for p in problems)
    assert any("differs" in p for p in problems)


def test_altered_size_fails_without_edges():
    records, st, _ = _answer()
    rec = records[3]
    corrupted = records[:3] + [replace(rec, size=rec.size + 1)] + records[4:]
    problems = _check(corrupted, result_size=st.result_size + 1, edges=False)
    assert any("oracle gives" in p for p in problems)
    assert any("differs" in p for p in problems)


def test_shrinking_cores_fail_nesting():
    records, _, _ = _answer()
    i = next(i for i in range(1, len(records)) if records[i].ts == records[i - 1].ts)
    a, b = records[i - 1], records[i]
    swapped = records[:i - 1] + [replace(a, size=b.size), replace(b, size=a.size)]
    problems = _check(swapped + records[i + 1:], edges=False)
    assert any("not strictly nested" in p for p in problems)


@pytest.mark.parametrize("field", ["cores", "result_size"])
def test_wrong_total_fails(field):
    records, st, _ = _answer()
    problems = _check(records, **{field: getattr(st, field) + 1})
    assert any(p.startswith("reported") for p in problems)


def test_node_ops_over_bound_fails():
    records, st, w = _answer()
    problems = _check(records, node_ops=4 * (st.result_size + w) + 1)
    assert any("node_ops" in p for p in problems)


def test_duplicate_tti_fails():
    records, st, _ = _answer()
    twice = records + [records[0]]
    problems = _check(twice, cores=st.cores + 1,
                      result_size=st.result_size + records[0].size)
    assert any("emitted after" in p for p in problems)


def test_cli_line_is_the_cli_format():
    records, _, _ = _answer()
    for rec in records:
        core = temporal_kcore(GRAPH, K, (rec.ts, rec.te))
        assert cli_line(GRAPH, core) == format_record(rec, GRAPH)


def test_cli_line_differs_for_another_edge_set():
    records, _, _ = _answer()
    core = temporal_kcore(GRAPH, K, (records[0].ts, records[0].te))
    other = replace(core, edges=core.edges[:-1] + (TemporalEdge(0, 1, core.tti[1]),))
    assert cli_line(GRAPH, other) != cli_line(GRAPH, core)
