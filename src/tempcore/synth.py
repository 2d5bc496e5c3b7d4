"""Seeded synthetic temporal graphs for tests and benchmarks."""

from __future__ import annotations

import random

from .graph import EmptyGraphError, TemporalGraph

_BURST_EVERY = 40
_BURST_WIDTH = 2


def random_edge_triples(rng: random.Random, max_vertices: int = 25,
                        max_edges: int = 120,
                        max_timestamps: int = 15) -> list[tuple[int, int, int]]:
    """Raw (u, v, t) triples; self-loops and duplicates may occur and are
    normalized away at graph construction."""
    n = rng.randint(2, max_vertices)
    m = rng.randint(1, max_edges)
    t_hi = rng.randint(1, max_timestamps)
    triples = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        triples.append((u, v, rng.randint(1, t_hi)))
    return triples


def random_graph(rng: random.Random, **kwargs) -> TemporalGraph:
    """A non-empty random temporal graph (redraws on all-self-loop draws)."""
    while True:
        try:
            return TemporalGraph.from_triples(random_edge_triples(rng, **kwargs))
        except EmptyGraphError:
            continue


def burst_graph(seed: int, *, timestamps: int = 10_000, clique: int = 18,
                target_edges: int = 100_000) -> TemporalGraph:
    """Planted clique bursts on fresh vertices over a degree-2 ring background.

    Every _BURST_EVERY timestamps, a clique lights up with edge times drawn
    from a _BURST_WIDTH + 1 wide window. Ring vertices never exceed degree 2,
    so for any k >= 3 the cores of a window are exactly the unions of the
    bursts it contains; the ring pads the edge count and the timestamp
    domain. k_max of the whole graph is clique - 1.
    """
    rng = random.Random(seed)
    triples: list[tuple[int, int, int]] = []
    next_vertex = 0
    for anchor in range(1, timestamps - _BURST_WIDTH + 1, _BURST_EVERY):
        base = next_vertex
        next_vertex += clique
        for i in range(clique):
            for j in range(i + 1, clique):
                t = rng.randint(anchor, anchor + _BURST_WIDTH)
                triples.append((base + i, base + j, t))
    ring = target_edges - len(triples)
    if ring < 3:
        raise ValueError("target_edges leaves no room for the background ring")
    base = next_vertex
    for i in range(ring):
        triples.append((base + i, base + (i + 1) % ring, rng.randint(1, timestamps)))
    return TemporalGraph.from_triples(triples)
