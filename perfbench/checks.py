"""Correctness checks of one query's answer, kept outside the timed region.

Every check is computed apart from the indexed route: the structural
properties from the emitted cores alone, soundness and completeness from
tempcore.oracle.temporal_kcore, which peels a single window from scratch.

A ResultChecker observes the cores in emission order and keeps only
O(samples) state, so checking never holds a query's answer: 32 MB of CLI
output, or 281,626 cores in count mode.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from tempcore import CoreSubgraph, TemporalGraph, temporal_kcore

# node_ops <= OPS_FACTOR * (|R| + |W|), the sweep's output-linearity bound
OPS_FACTOR = 4


class ResultChecker:
    """Checks cores observed in emission order against the oracle.

    Structure: TTIs inside the span and strictly ascending in (ts, te)
    order, as the sweep emits them, hence distinct; cores of one start time
    strictly growing; the reported core count and |R| equal to what was
    observed; node_ops <= 4(|R|+|W|). Soundness: `samples` observed cores,
    drawn by reservoir sampling, each equal the oracle's core of its TTI
    window. Completeness: the oracle's core of each of `samples` random
    windows of the span (every window when the span has no more) was
    observed.

    `same_edges(token, core)` says whether the edges behind an observed
    core's token are exactly the oracle core's; without it only TTIs and
    sizes are compared.
    """

    def __init__(self, g: TemporalGraph, k: int, span: tuple[int, int],
                 rng: random.Random, samples: int,
                 same_edges: Callable[[Any, CoreSubgraph], bool] | None = None):
        self.g, self.k, self.span = g, k, span
        self.rng, self.samples, self.same_edges = rng, samples, same_edges
        lo, hi = span
        width = hi - lo + 1
        if width * (width + 1) // 2 <= samples:
            windows = [(a, b) for a in range(lo, hi + 1) for b in range(a, hi + 1)]
        else:
            windows = [tuple(sorted((rng.randint(lo, hi), rng.randint(lo, hi))))
                       for _ in range(samples)]
        self.wanted: dict[tuple[int, int], tuple[tuple[int, int], CoreSubgraph]] = {}
        for window in windows:
            core = temporal_kcore(g, k, window)
            if core is not None:
                self.wanted[core.tti] = (window, core)
        self.found: dict[tuple[int, int], tuple[int, Any]] = {}
        self.reservoir: list[tuple[int, int, int, Any]] = []
        self.cores = 0
        self.result_size = 0
        self.last: tuple[int, int, int] | None = None
        self.problems: list[str] = []

    def observe(self, ts: int, te: int, size: int, token: Any = None) -> None:
        lo, hi = self.span
        if not lo <= ts <= te <= hi:
            self.problems.append(f"TTI [{ts},{te}] outside span [{lo},{hi}]")
        last = self.last
        if last is not None:
            if (ts, te) <= last[:2]:
                self.problems.append(f"TTI [{ts},{te}] emitted after "
                                     f"[{last[0]},{last[1]}]")
            elif ts == last[0] and size <= last[2]:
                self.problems.append(f"cores at ts={ts} not strictly nested: size "
                                     f"{last[2]} at te={last[1]}, then {size} at te={te}")
        self.last = (ts, te, size)
        if (ts, te) in self.wanted:
            self.found[(ts, te)] = (size, token)
        if self.cores < self.samples:
            self.reservoir.append((ts, te, size, token))
        else:
            j = self.rng.randrange(self.cores + 1)
            if j < self.samples:
                self.reservoir[j] = (ts, te, size, token)
        self.cores += 1
        self.result_size += size

    def finish(self, cores: int, result_size: int, node_ops: int | None = None,
               windows: int | None = None) -> list[str]:
        """Compare the reported totals and peel the samples; return problems."""
        problems = list(self.problems)
        if cores != self.cores:
            problems.append(f"reported {cores} cores but emitted {self.cores}")
        if result_size != self.result_size:
            problems.append(f"reported |R|={result_size} but sizes sum to "
                            f"{self.result_size}")
        if node_ops is not None and windows is not None:
            limit = OPS_FACTOR * (result_size + windows)
            if node_ops > limit:
                problems.append(f"node_ops={node_ops} exceeds "
                                f"{OPS_FACTOR}*(|R|+|W|)={limit}")
        for ts, te, size, token in self.reservoir:
            core = temporal_kcore(self.g, self.k, (ts, te))
            if core is None:
                problems.append(f"emitted core [{ts},{te}] is empty under the oracle")
            elif core.tti != (ts, te) or core.size != size:
                problems.append(f"emitted core [{ts},{te}] size {size}: oracle gives "
                                f"TTI {list(core.tti)} size {core.size}")
            elif self.same_edges is not None and not self.same_edges(token, core):
                problems.append(f"emitted core [{ts},{te}] has other edges than "
                                f"the oracle's core of that window")
        for tti, (window, core) in self.wanted.items():
            if tti not in self.found:
                problems.append(f"core of window {list(window)} (TTI {list(tti)}, "
                                f"size {core.size}) was not emitted")
                continue
            size, token = self.found[tti]
            if size != core.size or (self.same_edges is not None
                                     and not self.same_edges(token, core)):
                problems.append(f"core of window {list(window)} differs from the "
                                f"emitted core with TTI {list(tti)}")
        return problems
