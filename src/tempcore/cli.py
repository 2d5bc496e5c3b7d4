"""Command line front end.

Subcommands: stats, query, gen, verify, bench. Exit codes: 0 success,
1 usage or parse failure, 2 verification mismatch, 3 budget exhausted (a
query past --budget, or every bench cell timed out). Result streams go to
stdout (or --out); run reports and diagnostics go to stderr. query writes
each sizes/delta/full line as its core is emitted, so a query stopped by
--budget leaves the lines written so far, ending at a line boundary.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time

from .graph import (BudgetExceeded, EmptyGraphError, ParseError, TemporalGraph,
                    parse_edge_list, stats)
from .verify import run_verification
# format_record is unused here; perfbench's traced pass wraps cli.format_record
from .workload import (ALGORITHMS, MODES, RunReport, WorkloadError, format_record,
                       gen_queries, place_span, resolve_k, resolve_width, run_query,
                       validate_query)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; the contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load(path: str) -> TemporalGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_edge_list(fh)
        except (ParseError, EmptyGraphError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _resolve_span(g: TemporalGraph, k: int, args) -> tuple[int, int]:
    if args.t_pct is not None:
        width = resolve_width(args.t_pct, g.t_count)
        span, _ = place_span(g, k, width, random.Random(args.seed))
        return span
    if args.raw_ts is not None or args.raw_te is not None:
        if args.raw_ts is None or args.raw_te is None:
            raise ValueError("--raw-ts and --raw-te must be given together")
        return (g.time_domain.rank(args.raw_ts), g.time_domain.rank(args.raw_te))
    if args.ts is None or args.te is None:
        raise ValueError("give --ts/--te, --raw-ts/--raw-te, or --t-pct")
    return args.ts, args.te


def _resolve_k(g: TemporalGraph, args) -> int:
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
    g = _load(args.input)
    k = _resolve_k(g, args)
    span = _resolve_span(g, k, args)
    # --out is opened only once the query is known to be valid
    validate_query(g, k, span, args.algo, args.mode)
    deadline = time.perf_counter() + args.budget if args.budget else None
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        _, report = run_query(g, k, span, args.algo, args.mode, deadline=deadline,
                              out=out)
        if args.mode == "count":
            print(f"cores={report.cores} |R|={report.result_size}", file=out)
    finally:
        if out is not sys.stdout:
            out.close()
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
    fixture = _load(args.input) if args.input else None
    outcome = run_verification(fixture, graphs=args.graphs, seed=args.seed,
                               dump_path=args.dump)
    if outcome.passed:
        print(f"verify: pass ({outcome.checks} checks, 0 mismatches)")
        return 0
    print(f"verify: FAIL after {outcome.checks} checks", file=sys.stderr)
    for failure in outcome.failures:
        print(f"  {failure}", file=sys.stderr)
    if outcome.dump_file:
        print(f"  reproduction written to {outcome.dump_file}", file=sys.stderr)
    return 2


def _cmd_bench(args) -> int:
    g = _load(args.input)
    st = stats(g)
    algos = [a for a in args.algos.split(",") if a]
    for a in algos:
        if a not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}")
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    header = ("k_pct\tt_pct\tk\tts\tte\talgo\treps\tcores\tresult_size\t"
              "core_times_s\twindows_s\tenum_s\ttotal_s\tstatus")
    rows: list[str] = []
    statuses: list[str] = []
    try:
        print(header, file=out)
        for k_pct in args.k_pcts:
            k = resolve_k(k_pct, st.k_max)
            for t_pct in args.t_pcts:
                try:
                    specs, _ = gen_queries(g, [k_pct], [t_pct], 1, args.seed)
                except WorkloadError as exc:
                    print(f"bench: cell k_pct={k_pct} t_pct={t_pct}: {exc}",
                          file=sys.stderr)
                    statuses.append("ungenerable")
                    continue
                spec = specs[0]
                for algo in algos:
                    cell_deadline = (time.perf_counter() + args.budget
                                     if args.budget else None)
                    reports: list[RunReport] = []
                    status = "ok"
                    for _ in range(args.reps):
                        # past the deadline, run_query raises before any work
                        try:
                            _, report = run_query(g, k, (spec.ts, spec.te), algo,
                                                  "count", deadline=cell_deadline)
                        except BudgetExceeded:
                            status = "timeout"
                            break
                        reports.append(report)
                    statuses.append(status if not reports else "ok")
                    if not reports:
                        rows.append(f"{k_pct}\t{t_pct}\t{k}\t{spec.ts}\t{spec.te}\t"
                                    f"{algo}\t0\t-\t-\t-\t-\t-\t-\t{status}")
                        continue
                    mean = lambda xs: statistics.fmean(xs)
                    rows.append(
                        f"{k_pct}\t{t_pct}\t{k}\t{spec.ts}\t{spec.te}\t{algo}\t"
                        f"{len(reports)}\t{reports[0].cores}\t"
                        f"{reports[0].result_size}\t"
                        f"{mean([r.t_core_times for r in reports]):.4f}\t"
                        f"{mean([r.t_windows for r in reports]):.4f}\t"
                        f"{mean([r.t_enumerate for r in reports]):.4f}\t"
                        f"{mean([r.t_total for r in reports]):.4f}\t{status}")
        for row in rows:
            print(row, file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    if statuses and all(s == "timeout" for s in statuses):
        return 3
    return 0


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
                         help="abort past this many seconds (0 = unlimited) "
                              "with exit 3; lines already written stay, "
                              "ending at a line boundary")
    p_query.add_argument("--out")

    p_gen = sub.add_parser("gen", help="generate a seeded query workload")
    p_gen.add_argument("--input", required=True)
    p_gen.add_argument("--k-pcts", type=_int_list, default=[30])
    p_gen.add_argument("--t-pcts", type=_int_list, default=[10])
    p_gen.add_argument("--queries", type=int, default=100)
    p_gen.add_argument("--seed", type=int, default=0)

    p_verify = sub.add_parser("verify", help="cross-check algorithms against the oracle")
    p_verify.add_argument("--input")
    p_verify.add_argument("--graphs", type=int, default=50)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--dump", default="verify_failure.txt")

    p_bench = sub.add_parser("bench", help="time a grid of queries")
    p_bench.add_argument("--input", required=True)
    p_bench.add_argument("--k-pcts", type=_int_list, default=[10, 20, 30, 40])
    p_bench.add_argument("--t-pcts", type=_int_list, default=[5, 10, 20, 40])
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--budget", type=float, default=60.0,
                         help="per-cell wall budget in seconds (0 = unlimited)")
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
    except (ParseError, EmptyGraphError, WorkloadError, ValueError, OSError) as exc:
        print(f"tempcore: error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"tempcore: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
