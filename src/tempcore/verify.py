"""Cross-checks of the indexed pipeline against the reference oracle.

check_instance runs one (graph, k, span) query through both routes and
reports every disagreement: core times, minimal windows, the three
enumerators compared as sets of canonical edge lists with their tightest
intervals, and the sweep's counting path, which a sink that reads no edge
ids takes, against its full-mode run. run_verification drives the fixture
graph and a seeded corpus of random graphs, and on the first failure opens
the reproduction file, then greedily minimizes the failing instance and
writes it there (edge list plus query), so an unwritable path is reported
before any minimization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product, zip_longest

from .coretime import build_core_times
from .graph import EmptyGraphError, TemporalGraph
from .oracle import (brute_core_times, brute_core_windows, brute_enumerate,
                     window_cores)
from .sweep import FullSink, RecordSink, enumerate_cores, enumerate_cores_baseline
from .synth import random_edge_triples
from .windows import build_core_windows

# the k values run_verification checks on every span
KS = (1, 2, 3, 4)
# random sub-spans run_verification checks per graph, besides the full range
SUB_SPANS = 3


def core_map(records) -> dict[tuple, tuple[int, int]]:
    """Canonical edge list -> tightest interval, for result records."""
    return {rec.edges: (rec.ts, rec.te) for rec in records}


def core_sizes(records) -> list[tuple[int, int, int]]:
    """(ts, te, size) per record, in emission order."""
    return [(rec.ts, rec.te, rec.size) for rec in records]


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
    sweep_stats = enumerate_cores(core_windows, span, sweep_sink)
    # sizes mode reads no ids, so it takes the counting path; its records
    # also give each core's (ts, te, size) to compare
    sized_sink = RecordSink("sizes")
    sized_stats = enumerate_cores(core_windows, span, sized_sink)
    base_sink = FullSink()
    enumerate_cores_baseline(core_windows, span, base_sink)

    sweep_map = core_map(sweep_sink.records)
    base_map = core_map(base_sink.records)
    brute_map = {c.edges: c.tti for c in brute_enumerate(g, k, span)}
    if len(sweep_map) != len(sweep_sink.records):
        problems.append(f"sweep emitted a duplicate core ({where})")
    if sweep_map != brute_map:
        problems.append(f"sweep vs oracle cores differ ({where}): "
                        f"{len(sweep_map)} vs {len(brute_map)} distinct")
    if base_map != brute_map:
        problems.append(f"baseline vs oracle cores differ ({where}): "
                        f"{len(base_map)} vs {len(brute_map)} distinct")
    if sized_stats != sweep_stats or \
            core_sizes(sized_sink.records) != core_sizes(sweep_sink.records):
        problems.append(f"counting sweep vs full-mode sweep differ ({where}): "
                        f"{sized_stats} vs {sweep_stats}")
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
        spans.append((a, rng.randint(a, t_count)))
    return spans


def _instances(fixture: TemporalGraph | None, graphs: int, seed: int):
    """(graph, raw triples, rng): the fixture, then each non-empty corpus draw."""
    if fixture is not None:
        labels, raw = fixture.labels, fixture.time_domain.raw
        yield fixture, [(labels[u], labels[v], raw(t)) for u, v, t in fixture.edges], \
            random.Random(seed)
    for i in range(graphs):
        rng = random.Random(seed * 1_000_003 + i)
        triples = random_edge_triples(rng)
        try:
            g = TemporalGraph.from_triples(triples)
        except EmptyGraphError:
            continue
        yield g, triples, rng


def run_verification(fixture: TemporalGraph | None, *, graphs: int = 50,
                     seed: int = 0, dump_path: str | None = None) -> VerifyOutcome:
    """Equality suite over the fixture and a seeded random corpus.

    Stops at the first failing instance. Given dump_path, dump_failure opens
    it before it minimizes the instance and writes the reproduction there;
    a path that cannot be written leaves the failures reported, its reason
    in dump_error and, when the open fails, no minimization spent.
    """
    outcome = VerifyOutcome()
    for g, triples, rng in _instances(fixture, graphs, seed):
        for span, k in product(_sub_spans(rng, g.t_count), KS):
            problems = check_instance(g, k, span)
            outcome.checks += 1
            if problems:
                outcome.failures.extend(problems)
                if dump_path is not None:
                    try:
                        dump_failure(dump_path, triples, k, span, problems)
                        outcome.dump_file = dump_path
                    except OSError as exc:
                        outcome.dump_error = str(exc)
                return outcome
    return outcome


def _still_fails(triples, k: int, span: tuple[int, int]) -> bool:
    try:
        g = TemporalGraph.from_triples(triples)
    except EmptyGraphError:
        return False
    spans = [(1, g.t_count)]
    clamped = (min(span[0], g.t_count), min(span[1], g.t_count))
    if clamped != spans[0]:
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
    """Write the minimized failing triples and query to path, opened first
    so that an unwritable path raises OSError before any minimization."""
    with open(path, "w", encoding="utf-8") as fh:
        reduced = minimize_failure(triples, k, span)
        fh.write("# minimized reproduction of an oracle mismatch\n")
        fh.write(f"# k={k} span=[{span[0]},{span[1]}]\n")
        for p in problems:
            fh.write(f"# {p}\n")
        for u, v, t in reduced:
            fh.write(f"{u} {v} {t}\n")
