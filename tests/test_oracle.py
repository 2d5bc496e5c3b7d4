"""The reference path: single-window peeling and the exhaustive scans."""

from __future__ import annotations

import ast
import random
import re

import pytest

import tempcore.oracle
from tempcore import (brute_core_windows, brute_enumerate, run_query,
                      temporal_kcore, window_cores)
from tempcore.synth import random_graph

from .conftest import GOLDEN_FULL_CORES, dense_edge, label_vertices


def test_imports_nothing_from_the_indexed_route():
    # the oracle answers in plain data and shares no code with coretime,
    # windows or sweep, so no fault there can hide in both routes at once
    with open(tempcore.oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert {m for m in modules if m.startswith((".", "tempcore"))} == {".graph"}


class TestTemporalKCore:
    def test_triangle_window(self, g14):
        core = temporal_kcore(g14, 2, (1, 3))
        assert label_vertices(g14, core.vertices) == {1, 2, 4}
        assert core.tti == (2, 3)
        assert set(core.edges) == {dense_edge(g14, 1, 4, 2),
                                   dense_edge(g14, 1, 2, 3),
                                   dense_edge(g14, 2, 4, 3)}

    def test_single_edge_window_is_empty(self, g14):
        assert temporal_kcore(g14, 2, (1, 1)) is None

    def test_prefix_window(self, g14):
        core = temporal_kcore(g14, 2, (1, 4))
        assert label_vertices(g14, core.vertices) == {1, 2, 3, 4, 9}
        assert core.size == 6
        assert core.tti == (1, 4)

    def test_bad_k_rejected(self, g14):
        with pytest.raises(ValueError):
            temporal_kcore(g14, 0, (1, 7))
        with pytest.raises(ValueError, match="k must be at least 1"):
            brute_enumerate(g14, 0, (1, 7))
        # and a window or span outside the domain
        for window in ((0, 7), (1, 8), (5, 4)):
            message = re.escape(f"span [{window[0]},{window[1]}] outside 1..7")
            with pytest.raises(ValueError, match=message):
                temporal_kcore(g14, 2, window)
            with pytest.raises(ValueError, match=message):
                brute_enumerate(g14, 2, window)

    def test_monotone_in_window(self):
        rng = random.Random(99)
        for _ in range(25):
            g = random_graph(rng, max_vertices=12, max_edges=50, max_timestamps=8)
            k = rng.randint(1, 3)
            a = rng.randint(1, g.t_count)
            b = rng.randint(a, g.t_count)
            inner = temporal_kcore(g, k, (a, b))
            outer = temporal_kcore(g, k, (max(1, a - 1), min(g.t_count, b + 1)))
            if inner is not None:
                assert outer is not None
                assert set(inner.edges) <= set(outer.edges)


class TestBruteEnumerate:
    def test_restricted_range(self, g14):
        cores = brute_enumerate(g14, 2, (1, 4))
        assert len(cores) == 2
        by_tti = {c.tti: c for c in cores}
        assert label_vertices(g14, by_tti[(2, 3)].vertices) == {1, 2, 4}
        assert by_tti[(2, 3)].size == 3
        assert label_vertices(g14, by_tti[(1, 4)].vertices) == {1, 2, 3, 4, 9}
        assert by_tti[(1, 4)].size == 6

    def test_full_range(self, g14):
        cores = brute_enumerate(g14, 2, (1, 7))
        assert {c.tti: c.size for c in cores} == GOLDEN_FULL_CORES
        assert sum(c.size for c in cores) == 105
        assert run_query(g14, 2, (1, 7), "brute")[1].windows_scanned == 28

    def test_no_3_core_anywhere(self, g14):
        assert brute_enumerate(g14, 3, (1, 7)) == ()

    def test_distinctness_and_tti_reproduction(self, g14):
        seen = set()
        for core in brute_enumerate(g14, 2, (1, 7)):
            assert core.edges not in seen
            seen.add(core.edges)
            again = temporal_kcore(g14, 2, core.tti)
            assert again is not None
            assert again.edges == core.edges
            assert again.tti == core.tti

    def test_matches_per_window_peeling_on_random_instances(self):
        # pins the decremental scan to the definitional one-window peel
        rng = random.Random(7)
        for _ in range(40):
            g = random_graph(rng, max_vertices=14, max_edges=60, max_timestamps=9)
            k = rng.randint(1, 4)
            span = (1, g.t_count)
            expected = {}
            for window, core in window_cores(g, k, span).items():
                if core is not None and core.edges not in expected:
                    expected[core.edges] = core.tti
            got = {c.edges: c.tti for c in brute_enumerate(g, k, span)}
            assert got == expected


class TestWindowMembership:
    def test_window_membership_reconstruction(self, g14):
        # an edge is in a window's core iff one of its minimal windows fits
        windows = brute_core_windows(g14, 2, (1, 7))
        for a in range(1, 8):
            for b in range(a, 8):
                core = temporal_kcore(g14, 2, (a, b))
                expected = frozenset(core.edges) if core else frozenset()
                rebuilt = frozenset(
                    e for e, wins in windows.items()
                    if any(a <= start and end <= b for start, end in wins))
                assert rebuilt == expected

    def test_window_membership_reconstruction_random(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_graph(rng, max_vertices=12, max_edges=50, max_timestamps=8)
            k = rng.randint(1, 3)
            windows = brute_core_windows(g, k, (1, g.t_count))
            for _ in range(10):
                a = rng.randint(1, g.t_count)
                b = rng.randint(a, g.t_count)
                core = temporal_kcore(g, k, (a, b))
                expected = frozenset(core.edges) if core else frozenset()
                rebuilt = frozenset(
                    e for e, wins in windows.items()
                    if any(a <= start and end <= b for start, end in wins))
                assert rebuilt == expected
