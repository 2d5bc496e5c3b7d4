"""Command line front end.

Subcommands: stats, query, gen, verify, bench. Exit codes: 0 success,
1 usage or parse failure (or a bench grid with no placeable cell), 2
verification mismatch, 3 budget exhausted (a query past --budget, or a
bench run in which no cell finished and some timed out). Result streams go to
stdout (or --out); run reports and diagnostics go to stderr. query writes
each sizes/delta/full line as its core is emitted, so a query stopped by
--budget leaves the lines written so far, ending at a line boundary; bench
writes each row as its cell finishes.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from contextlib import nullcontext

from .graph import (BudgetExceeded, EmptyGraphError, ParseError, TemporalGraph,
                    check_query, parse_edge_list, stats)
from .verify import run_verification
# format_record is unused here; perfbench's traced pass wraps cli.format_record
from .workload import (ALGORITHMS, MODES, RunReport, WorkloadError, format_record,
                       gen_queries, place_span, resolve_k, resolve_width, run_query)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; the contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load(path: str) -> TemporalGraph:
    # utf-8-sig also reads a file that starts with a byte-order mark
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return parse_edge_list(fh)
        except (ParseError, EmptyGraphError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _at_least(value, low, flag: str) -> None:
    """Reject a flag value below low, NaN included."""
    if not value >= low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")


def _open_out(path: str | None):
    return open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)


def _resolve_span(g: TemporalGraph, k: int, args) -> tuple[int, int]:
    ways = {"--ts/--te": (args.ts, args.te),
            "--raw-ts/--raw-te": (args.raw_ts, args.raw_te),
            "--t-pct": (args.t_pct,)}
    given = [way for way, values in ways.items() if any(v is not None for v in values)]
    if len(given) != 1:
        raise ValueError(f"give one of {', '.join(ways)}"
                         + (f", not {' and '.join(given)}" if given else ""))
    way = given[0]
    if way == "--t-pct":
        width = resolve_width(args.t_pct, g.t_count)
        return place_span(g, k, width, random.Random(args.seed))[0]
    if None in ways[way]:
        raise ValueError(f"{way.replace('/', ' and ')} must be given together")
    return ways[way] if way == "--ts/--te" else tuple(map(g.time_domain.rank, ways[way]))


def _resolve_k(g: TemporalGraph, args) -> int:
    if args.k is not None and args.k_pct is not None:
        raise ValueError("give --k or --k-pct, not both")
    if args.k is not None:
        return args.k
    if args.k_pct is not None:
        return resolve_k(args.k_pct, stats(g).k_max)
    raise ValueError("give --k or --k-pct")


def _cmd_stats(args) -> int:
    g = _load(args.input)
    st = stats(g)
    print(f"n={st.n} m={st.m} t_max={st.t_max} "
          f"deg_avg={float(st.deg_avg):.4f} k_max={st.k_max}")
    return 0


def _cmd_query(args) -> int:
    _at_least(args.budget, 0, "--budget")
    g = _load(args.input)
    k = _resolve_k(g, args)
    span = _resolve_span(g, k, args)
    # --out is opened only once the query is known to be valid
    check_query(g, k, span)
    deadline = time.perf_counter() + args.budget if args.budget else None
    with _open_out(args.out) as out:
        _, report = run_query(g, k, span, args.algo, args.mode, deadline=deadline,
                              out=out)
        if args.mode == "count":
            print(f"cores={report.cores} |R|={report.result_size}", file=out)
    print(report.line(), file=sys.stderr)
    return 0


def _cmd_gen(args) -> int:
    g = _load(args.input)
    specs, rejections = gen_queries(g, args.k_pcts, args.t_pcts, args.queries,
                                    args.seed)
    for spec in specs:
        print(f"k_pct={spec.k_pct} t_pct={spec.t_pct} "
              f"k={spec.k} ts={spec.ts} te={spec.te}")
    print(f"generated={len(specs)} rejections={rejections}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    _at_least(args.graphs, 0, "--graphs")
    fixture = _load(args.input) if args.input else None
    outcome = run_verification(fixture, graphs=args.graphs, seed=args.seed,
                               dump_path=args.dump)
    if not outcome.checks:
        # a verification that checked nothing is no pass
        raise ValueError("verify made no checks: give --input or --graphs of at least 1")
    if outcome.passed:
        print(f"verify: pass ({outcome.checks} checks, 0 mismatches)")
        return 0
    print(f"verify: FAIL after {outcome.checks} checks", file=sys.stderr)
    for failure in outcome.failures:
        print(f"  {failure}", file=sys.stderr)
    if outcome.dump_file:
        print(f"  reproduction written to {outcome.dump_file}", file=sys.stderr)
    elif outcome.dump_error:
        print(f"  reproduction not written: {outcome.dump_error}", file=sys.stderr)
    return 2


def _cmd_bench(args) -> int:
    _at_least(args.reps, 1, "--reps")
    _at_least(args.budget, 0, "--budget")
    g = _load(args.input)
    st = stats(g)
    algos = [a for a in args.algos.split(",") if a]
    if not (algos and args.k_pcts and args.t_pcts):
        raise ValueError("--algos, --k-pcts and --t-pcts must each name at least one")
    for a in algos:
        if a not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}")
    # a percentage outside (0, 100] fails here, before the header is printed
    ks = [(k_pct, resolve_k(k_pct, st.k_max)) for k_pct in args.k_pcts]
    widths = [(t_pct, resolve_width(t_pct, g.t_count)) for t_pct in args.t_pcts]
    header = ("k_pct\tt_pct\tk\tts\tte\talgo\treps\tcores\tresult_size\t"
              "core_times_s\twindows_s\tenum_s\ttotal_s\tstatus")
    statuses: list[str] = []
    with _open_out(args.out) as out:
        print(header, file=out)
        for k_pct, k in ks:
            for t_pct, width in widths:
                # the span gen_queries(g, [k_pct], [t_pct], 1, seed) draws
                try:
                    (ts, te), _ = place_span(g, k, width, random.Random(args.seed))
                except WorkloadError as exc:
                    print(f"bench: cell k_pct={k_pct} (k={k}), t_pct={t_pct}: {exc}",
                          file=sys.stderr)
                    statuses.append("ungenerable")
                    continue
                for algo in algos:
                    cell_deadline = (time.perf_counter() + args.budget
                                     if args.budget else None)
                    reports: list[RunReport] = []
                    status = "ok"
                    for _ in range(args.reps):
                        # past the deadline, run_query raises before any work
                        try:
                            _, report = run_query(g, k, (ts, te), algo, "count",
                                                  deadline=cell_deadline)
                        except BudgetExceeded:
                            status = "timeout"
                            break
                        reports.append(report)
                    statuses.append(status if not reports else "ok")
                    cell = f"{k_pct}\t{t_pct}\t{k}\t{ts}\t{te}\t{algo}\t{len(reports)}"
                    if not reports:
                        print(f"{cell}\t-\t-\t-\t-\t-\t-\t{status}", file=out, flush=True)
                        continue
                    print(f"{cell}\t{reports[0].cores}\t{reports[0].result_size}\t"
                          f"{statistics.fmean([r.t_core_times for r in reports]):.4f}\t"
                          f"{statistics.fmean([r.t_windows for r in reports]):.4f}\t"
                          f"{statistics.fmean([r.t_enumerate for r in reports]):.4f}\t"
                          f"{statistics.fmean([r.t_total for r in reports]):.4f}\t{status}",
                          file=out, flush=True)
    if "ok" in statuses:
        return 0
    if "timeout" in statuses:
        return 3
    raise ValueError("bench measured no cell: no range of the grid could be placed")


def _build_parser() -> _Parser:
    parser = _Parser(prog="tempcore",
                     description="Temporal k-core enumeration over query time ranges")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print graph summary statistics")
    p_stats.add_argument("--input", required=True)

    p_query = sub.add_parser("query", help="enumerate the cores of one query")
    p_query.add_argument("--input", required=True)
    p_query.add_argument("--k", type=int)
    p_query.add_argument("--k-pct", type=int)
    p_query.add_argument("--ts", type=int, help="compressed start time")
    p_query.add_argument("--te", type=int, help="compressed end time")
    p_query.add_argument("--raw-ts", type=int, help="raw start timestamp")
    p_query.add_argument("--raw-te", type=int, help="raw end timestamp")
    p_query.add_argument("--t-pct", type=int,
                         help="range width as a percentage, placed by --seed")
    p_query.add_argument("--algo", choices=ALGORITHMS, default="enum")
    p_query.add_argument("--mode", choices=MODES, default="count")
    p_query.add_argument("--seed", type=int, default=0)
    p_query.add_argument("--budget", type=float, default=0.0,
                         help="abort past this many seconds (at least 0; "
                              "0 = unlimited) with exit 3; lines already "
                              "written stay, ending at a line boundary")
    p_query.add_argument("--out")

    p_gen = sub.add_parser("gen", help="generate a seeded query workload")
    p_gen.add_argument("--input", required=True)
    p_gen.add_argument("--k-pcts", type=_int_list, default=[30])
    p_gen.add_argument("--t-pcts", type=_int_list, default=[10])
    p_gen.add_argument("--queries", type=int, default=100)
    p_gen.add_argument("--seed", type=int, default=0)

    p_verify = sub.add_parser("verify", help="cross-check algorithms against the oracle")
    p_verify.add_argument("--input")
    p_verify.add_argument("--graphs", type=int, default=50,
                          help="random graphs to check (at least 0; "
                               "at least 1 without --input)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--dump", default="verify_failure.txt")

    p_bench = sub.add_parser("bench", help="time a grid of queries")
    p_bench.add_argument("--input", required=True)
    p_bench.add_argument("--k-pcts", type=_int_list, default=[10, 20, 30, 40])
    p_bench.add_argument("--t-pcts", type=_int_list, default=[5, 10, 20, 40])
    p_bench.add_argument("--reps", type=int, default=3,
                         help="timed runs per row, that is per cell and "
                              "algorithm (at least 1)")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--budget", type=float, default=60.0,
                         help="wall budget in seconds per row, that is per "
                              "cell and algorithm (at least 0; 0 = unlimited)")
    p_bench.add_argument("--algos", default="enum")
    p_bench.add_argument("--out")

    return parser


_HANDLERS = {"stats": _cmd_stats, "query": _cmd_query, "gen": _cmd_gen,
             "verify": _cmd_verify, "bench": _cmd_bench}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (WorkloadError, ValueError, OSError) as exc:
        print(f"tempcore: error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"tempcore: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
