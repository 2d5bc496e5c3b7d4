"""The seeded generators' edge cases."""

from __future__ import annotations

import random

import pytest

from tempcore.synth import burst_graph, random_edge_triples, random_graph

TINY = dict(max_vertices=2, max_edges=1, max_timestamps=1)


def test_random_graph_redraws_an_all_self_loop_draw():
    # seed 6 first draws the lone self-loop (0, 0, 1), which leaves no edge
    assert random_edge_triples(random.Random(6), **TINY) == [(0, 0, 1)]
    g = random_graph(random.Random(6), **TINY)
    assert (g.n, g.m, g.t_count) == (2, 1, 1)


def test_burst_graph_needs_a_ring_of_three_edges():
    # 100 timestamps hold 3 bursts of a 4-clique: 18 edges
    g = burst_graph(1, timestamps=100, clique=4, target_edges=21)
    assert g.m == 21
    with pytest.raises(ValueError, match="no room for the background ring"):
        burst_graph(1, timestamps=100, clique=4, target_edges=20)
