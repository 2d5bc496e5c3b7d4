"""The per-vertex core-time index versus the oracle and its own invariants."""

from __future__ import annotations

import random
from math import inf

import pytest

from tempcore import brute_core_times, build_core_times, temporal_kcore
from tempcore.synth import random_graph

from .conftest import GOLDEN_CORE_TIMES, REJECTED_V3_RUNS, runs_by_label


class TestGolden:
    def test_reproduces_golden_table(self, g14):
        index = build_core_times(g14, 2, (1, 7))
        assert runs_by_label(index, g14) == GOLDEN_CORE_TIMES
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
                brute_core_times(g14, k, (1, 7)).runs

    def test_k1_is_earliest_incident_time(self, g14, g14_dense):
        index = build_core_times(g14, 1, (1, 7))
        v5 = g14_dense[5]
        assert [index.at(v5, ts) for ts in range(1, 8)] == [6, 6, 6, 6, 6, 6, 7]

    def test_k3_all_absent(self, g14):
        index = build_core_times(g14, 3, (1, 7))
        assert all(not runs for runs in index.runs)


class TestLookup:
    def test_lookup_examples(self, g14, g14_dense):
        index = build_core_times(g14, 2, (1, 7))
        assert index.at(g14_dense[1], 2) == 3
        assert index.at(g14_dense[1], 3) == 5
        assert index.at(g14_dense[1], 7) is None
        assert index.at(g14_dense[9], 2) is None

    def test_lookup_bounds(self, g14):
        index = build_core_times(g14, 2, (2, 6))
        with pytest.raises(ValueError):
            index.at(0, 1)
        with pytest.raises(ValueError):
            index.at(99, 3)

    def test_to_text_mirrors_runs(self, g14):
        index = build_core_times(g14, 2, (1, 7))
        text = index.to_text(g14.labels)
        assert "v3: [1,4], [2,6], [3,7], [7,inf]" in text.splitlines()
        assert "v1: [1,3], [3,5], [6,7], [7,inf]" in text.splitlines()


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
                assert built.runs == brute_core_times(g, k, (a, b)).runs

    def test_step_functions_nondecreasing_and_k_monotone(self):
        rng = random.Random(4321)
        for _ in range(40):
            g = random_graph(rng, max_vertices=15, max_edges=60)
            span = (1, g.t_count)
            prev_index = None
            for k in (1, 2, 3):
                index = build_core_times(g, k, span)
                for v in range(g.n):
                    values = [_as_inf(index.at(v, ts))
                              for ts in range(span[0], span[1] + 1)]
                    assert values == sorted(values)
                    if prev_index is not None:
                        lower = [_as_inf(prev_index.at(v, ts))
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
                    te = index.at(v, ts)
                    if te is None:
                        continue
                    core = temporal_kcore(g, k, (ts, te))
                    assert core is not None and v in core.vertices
                    if te - 1 >= ts:
                        earlier = temporal_kcore(g, k, (ts, te - 1))
                        assert earlier is None or v not in earlier.vertices
