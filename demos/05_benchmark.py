"""Timing the indexed sweep against the exhaustive scan.

Builds a synthetic graph of planted clique bursts on a sparse background
(a scaled-down sibling of the acceptance benchmark), places a range covering
10% of the timeline, and times both routes end to end. The index phases are
a small fraction of the sweep's total; the scan pays for re-discovering the
same cores from every start time inside a burst gap.
"""

import random
import statistics
import time

from tempcore import (FullSink, brute_enumerate, build_core_times,
                      build_core_windows, enumerate_cores, resolve_k,
                      resolve_width, stats)
from tempcore.synth import burst_graph
from tempcore.workload import place_span

g = burst_graph(7, timestamps=2_000, target_edges=20_000)
st = stats(g)
k = resolve_k(30, st.k_max)
width = resolve_width(10, g.t_count)
span, _ = place_span(g, k, width, random.Random(7))
print(f"graph: n={st.n} m={st.m} t_max={st.t_max} k_max={st.k_max}")
print(f"query: k={k} span={span}\n")

sweep_times, prep_times, scan_times = [], [], []
cores = size = 0
for _ in range(3):
    t0 = time.perf_counter()
    core_times = build_core_times(g, k, span)
    windows = build_core_windows(g, k, span, core_times)
    t1 = time.perf_counter()
    sink = FullSink()
    result = enumerate_cores(windows, span, sink)
    t2 = time.perf_counter()
    prep_times.append(t1 - t0)
    sweep_times.append(t2 - t0)
    cores, size = result.cores, result.result_size

    t3 = time.perf_counter()
    brute = brute_enumerate(g, k, span)
    scan_times.append(time.perf_counter() - t3)
    assert len(brute) == cores

sweep = statistics.median(sweep_times)
prep = statistics.median(prep_times)
scan = statistics.median(scan_times)
print(f"{cores} distinct cores, total size {size}")
print(f"indexed sweep: {sweep * 1000:7.1f} ms (index build {prep / sweep:.0%} of it)")
print(f"window scan:   {scan * 1000:7.1f} ms")
print(f"speedup:       {scan / sweep:7.1f}x")
