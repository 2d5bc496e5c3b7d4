"""Temporal k-core enumeration over query time ranges.

Given an undirected temporal graph, an integer k, and a time range, this
package enumerates every distinct k-core appearing in any sub-window of the
range, each exactly once, in time proportional to the total output size.
The pipeline builds a per-vertex core-time index, derives each edge's
minimal core windows from it, and sweeps start times over the live windows
grouped by end time. A from-scratch peeling oracle backs every stage for
testing.
"""

from .coretime import CoreTimeIndex, build_core_times
from .graph import (BudgetExceeded, EmptyGraphError, GraphStats, ParseError,
                    TemporalEdge, TemporalGraph, TimeDomain, canonical_edges,
                    compress_timestamps, parse_edge_list, static_coreness, stats)
from .oracle import (BruteEnumeration, CoreSubgraph, brute_core_times,
                     brute_core_windows, brute_enumerate, temporal_kcore,
                     window_cores)
from .sweep import (BaselineStats, CoreResult, DeltaSink, FullSink, RecordSink,
                    ResultSink, SizesSink, SweepStats, enumerate_cores,
                    enumerate_cores_baseline, make_sink)
from .windows import (CoreWindowIndex, MinimalCoreWindow, build_core_windows,
                      compute_active_times)
from .workload import (QuerySpec, RunReport, WorkloadError, format_record,
                       gen_queries, place_span, resolve_k, resolve_width,
                       run_query)

__version__ = "0.1.0"

__all__ = [
    "BaselineStats", "BruteEnumeration", "BudgetExceeded", "CoreResult",
    "CoreSubgraph", "CoreTimeIndex", "CoreWindowIndex", "DeltaSink",
    "EmptyGraphError", "FullSink", "GraphStats", "MinimalCoreWindow",
    "ParseError", "QuerySpec", "RecordSink", "ResultSink", "RunReport",
    "SizesSink", "SweepStats", "TemporalEdge", "TemporalGraph", "TimeDomain",
    "WorkloadError", "brute_core_times", "brute_core_windows",
    "brute_enumerate", "build_core_times", "build_core_windows",
    "canonical_edges", "compress_timestamps", "compute_active_times",
    "enumerate_cores", "enumerate_cores_baseline", "format_record",
    "gen_queries", "make_sink", "parse_edge_list", "place_span", "resolve_k",
    "resolve_width", "run_query", "static_coreness", "stats",
    "temporal_kcore", "window_cores",
]
