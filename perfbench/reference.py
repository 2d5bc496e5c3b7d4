"""A fixed pure-Python computation that gauges how fast the machine runs now.

A shared virtual machine, such as the 2-vCPU one the figures in README.md
come from, runs the same Python code at different speeds from moment to
moment: up to twice as fast for a quarter of a minute, and in slower or
faster spells that last longer than a run. Process CPU time tracks wall time through these swings,
so they are a slower CPU, not time taken away from the process. A run
times this reference right before and right after each timed operation and
reports the operation's time divided by their mean, scaled by
NOMINAL_S: seconds at a fixed machine speed. A swing in speed moves the
operation and the reference together and cancels; a change to the program
moves the operation only. The reference imports nothing from tempcore and
builds its input from a fixed seed, so no change to the program can change
its work.

The computation is the bucket k-core decomposition of Batagelj and
Zaversnik over the adjacency of a random graph, the same kind of
list-indexing, integer and pointer-chasing work over a heap of tens of MiB
that the program's query does. The adjacency is held in tuples, which the
collector stops tracking, so full collections during a query walk the
same heap with or without the reference.
"""

from __future__ import annotations

import gc
import random
import time

SEED = 7
VERTICES = 80_000
EDGES = 240_000
# the reference's median time on the machine the figures in README.md come
# from; NOMINAL_S * (operation / reference) is the operation's time there
NOMINAL_S = 0.35


class Reference:
    """The reference graph, built once; `measure` times one decomposition."""

    def __init__(self) -> None:
        rng = random.Random(SEED)
        adj: list[list[int]] = [[] for _ in range(VERTICES)]
        for _ in range(EDGES):
            u, v = rng.randrange(VERTICES), rng.randrange(VERTICES)
            if u != v:
                adj[u].append(v)
                adj[v].append(u)
        # Tuples of ints leave the collector's lists at the next collections,
        # so the reference adds nothing to what the program's collections walk.
        self._adj = tuple(map(tuple, adj))
        del adj
        gc.collect()
        gc.collect()
        if gc.is_tracked(self._adj):
            raise RuntimeError("the reference graph is still tracked by the collector")
        self.core_sum = _core_sum(self._adj)

    def measure(self) -> float:
        """Seconds taken by one decomposition, with the collector paused.

        The pause keeps the time independent of the heap the program left
        behind. The result is checked, so the work cannot be skipped.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            core_sum = _core_sum(self._adj)
            seconds = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        if core_sum != self.core_sum:
            raise RuntimeError(f"reference computed {core_sum}, not {self.core_sum}")
        return seconds


def _core_sum(adj: tuple[tuple[int, ...], ...]) -> int:
    """Sum of the core numbers of all vertices (bucket peeling, O(n + m))."""
    n = len(adj)
    deg = [len(a) for a in adj]
    top = max(deg)
    bins = [0] * (top + 1)
    for d in deg:
        bins[d] += 1
    start = 0
    for d in range(top + 1):
        bins[d], start = start, start + bins[d]
    pos = [0] * n
    vert = [0] * n
    for v in range(n):
        pos[v] = bins[deg[v]]
        vert[pos[v]] = v
        bins[deg[v]] += 1
    for d in range(top, 0, -1):
        bins[d] = bins[d - 1]
    bins[0] = 0
    for i in range(n):
        v = vert[i]
        for u in adj[v]:
            if deg[u] > deg[v]:
                du, pu = deg[u], pos[u]
                pw = bins[du]
                w = vert[pw]
                if u != w:
                    pos[u], vert[pu], pos[w], vert[pw] = pw, w, pu, u
                bins[du] += 1
                deg[u] -= 1
    return sum(deg)
