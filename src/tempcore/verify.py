"""Cross-checks of the indexed pipeline against the reference oracle.

check_instance runs one (graph, k, span) query through both routes and
reports every disagreement: core times, minimal windows, and the three
enumerators compared as sets of canonical edge lists with their tightest
intervals. run_verification drives the fixture graph and a seeded corpus of
random graphs, and on the first failure dumps a greedily minimized
reproduction (edge list plus query) to a file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import zip_longest

from .coretime import build_core_times
from .graph import EmptyGraphError, TemporalGraph
from .oracle import (brute_core_times, brute_core_windows, brute_enumerate,
                     window_cores)
from .sweep import FullSink, enumerate_cores, enumerate_cores_baseline
from .synth import random_edge_triples
from .windows import build_core_windows

# the k values run_verification checks on every span
KS = (1, 2, 3, 4)
# random sub-spans run_verification checks per graph, besides the full range
SUB_SPANS = 3


def core_map(records) -> dict[tuple, tuple[int, int]]:
    """Canonical edge list -> tightest interval, for result records."""
    return {rec.edges: (rec.ts, rec.te) for rec in records}


def check_instance(g: TemporalGraph, k: int, span: tuple[int, int]) -> list[str]:
    """Return mismatch descriptions for one query; empty means agreement."""
    problems: list[str] = []
    where = f"k={k} span=[{span[0]},{span[1]}]"

    # one from-scratch peel per window feeds both reference indexes
    cores = window_cores(g, k, span)
    core_times = build_core_times(g, k, span)
    built_runs, reference_runs = core_times.runs, brute_core_times(g, k, span, cores)
    if built_runs != reference_runs:
        for v, (got, want) in enumerate(zip_longest(built_runs, reference_runs)):
            if got != want:
                problems.append(f"core times differ at vertex {v} ({where}): "
                                f"built {got}, oracle {want}")

    core_windows = build_core_windows(g, k, span, core_times)
    built_windows = dict(core_windows.by_edge)
    reference_windows = brute_core_windows(g, k, span, cores)
    for e in g.edges:
        got, want = built_windows.get(e), reference_windows.get(e)
        if got != want:
            problems.append(f"minimal windows differ at edge {tuple(e)} ({where}): "
                            f"built {got}, oracle {want}")

    sweep_sink = FullSink()
    enumerate_cores(core_windows, span, sweep_sink)
    base_sink = FullSink()
    enumerate_cores_baseline(core_windows, span, base_sink)
    brute = brute_enumerate(g, k, span)

    sweep_map = core_map(sweep_sink.records)
    base_map = core_map(base_sink.records)
    brute_map = {c.edges: c.tti for c in brute.cores}
    if len(sweep_map) != len(sweep_sink.records):
        problems.append(f"sweep emitted a duplicate core ({where})")
    if sweep_map != brute_map:
        problems.append(f"sweep vs oracle cores differ ({where}): "
                        f"{len(sweep_map)} vs {len(brute_map)} distinct")
    if base_map != brute_map:
        problems.append(f"baseline vs oracle cores differ ({where}): "
                        f"{len(base_map)} vs {len(brute_map)} distinct")
    return problems


@dataclass
class VerifyOutcome:
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    dump_file: str | None = None
    dump_error: str | None = None

    @property
    def passed(self) -> bool:
        return not self.failures


def _sub_spans(rng: random.Random, t_count: int) -> list[tuple[int, int]]:
    spans = [(1, t_count)]
    for _ in range(SUB_SPANS):
        a = rng.randint(1, t_count)
        b = rng.randint(a, t_count)
        spans.append((a, b))
    return spans


def run_verification(fixture: TemporalGraph | None, *, graphs: int = 50,
                     seed: int = 0, dump_path: str | None = None) -> VerifyOutcome:
    """Equality suite over the fixture and a seeded random corpus.

    Stops at the first failing instance, minimizes it, and (when dump_path
    is given) writes the reproduction there; a reproduction that cannot be
    written leaves the failures reported and its reason in dump_error.
    """
    outcome = VerifyOutcome()

    def run_one(g: TemporalGraph, triples, rng: random.Random) -> bool:
        for span in _sub_spans(rng, g.t_count):
            for k in KS:
                problems = check_instance(g, k, span)
                outcome.checks += 1
                if problems:
                    outcome.failures.extend(problems)
                    if dump_path is not None:
                        reduced = minimize_failure(triples, k, span)
                        try:
                            dump_failure(dump_path, reduced, k, span, problems)
                            outcome.dump_file = dump_path
                        except OSError as exc:
                            outcome.dump_error = str(exc)
                    return False
        return True

    if fixture is not None:
        triples = [(fixture.labels[e.u], fixture.labels[e.v],
                    fixture.time_domain.raw(e.t)) for e in fixture.edges]
        if not run_one(fixture, triples, random.Random(seed)):
            return outcome
    for i in range(graphs):
        rng = random.Random(seed * 1_000_003 + i)
        triples = random_edge_triples(rng)
        try:
            g = TemporalGraph.from_triples(triples)
        except EmptyGraphError:
            continue
        if not run_one(g, triples, rng):
            return outcome
    return outcome


def _still_fails(triples, k: int, span: tuple[int, int]) -> bool:
    try:
        g = TemporalGraph.from_triples(triples)
    except EmptyGraphError:
        return False
    spans = [(1, g.t_count)]
    clamped = (min(span[0], g.t_count), min(span[1], g.t_count))
    if clamped[0] <= clamped[1] and clamped != spans[0]:
        spans.append(clamped)
    return any(check_instance(g, k, s) for s in spans)


def minimize_failure(triples, k: int, span: tuple[int, int]) -> list[tuple[int, int, int]]:
    """Greedily drop edges while the mismatch persists."""
    current = list(triples)
    shrunk = True
    while shrunk:
        shrunk = False
        for i in range(len(current) - 1, -1, -1):
            candidate = current[:i] + current[i + 1:]
            if candidate and _still_fails(candidate, k, span):
                current = candidate
                shrunk = True
    return current


def dump_failure(path: str, triples, k: int, span: tuple[int, int],
                 problems: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# minimized reproduction of an oracle mismatch\n")
        fh.write(f"# k={k} span=[{span[0]},{span[1]}]\n")
        for p in problems:
            fh.write(f"# {p}\n")
        for u, v, t in triples:
            fh.write(f"{u} {v} {t}\n")
