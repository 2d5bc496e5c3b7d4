"""Enumerate every distinct temporal 2-core of a query range, exactly once.

Three routes give the same answer: the output-sized sweep, the quadratic
bucket baseline, and the exhaustive window scan. The sweep does no
deduplication at all; distinctness falls out of emitting each core at the
start of its tightest interval.
"""

from pathlib import Path

from tempcore import (FullSink, brute_enumerate, build_core_times,
                      build_core_windows, enumerate_cores,
                      enumerate_cores_baseline, parse_edge_list)

DATA = Path(__file__).resolve().parents[1] / "data" / "g14.txt"

with DATA.open() as fh:
    g = parse_edge_list(fh)

for span in ((1, 4), (1, 7)):
    core_times = build_core_times(g, 2, span)
    windows = build_core_windows(g, 2, span, core_times)
    sink = FullSink()
    st = enumerate_cores(windows, span, sink)
    print(f"range {span}: {st.cores} distinct cores, "
          f"total size {st.result_size}, {st.node_ops} node operations")
    for rec in sink.records:
        verts = sorted({g.labels[x] for e in rec.edges for x in (e.u, e.v)})
        print(f"  tti [{rec.ts},{rec.te}] size {rec.size:2d} vertices {verts}")

    base = FullSink()
    enumerate_cores_baseline(windows, span, base)
    brute = brute_enumerate(g, 2, span)
    agree = ({r.edges for r in sink.records}
             == {r.edges for r in base.records}
             == {c.edges for c in brute})
    print(f"  sweep = baseline = exhaustive scan: {agree}\n")
