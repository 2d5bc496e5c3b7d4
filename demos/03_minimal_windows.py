"""Each edge's minimal core windows, and what they are good for.

A window is minimal for an edge when the edge sits in that window's 2-core
but in no strict sub-window. The windows per edge strictly increase in both
endpoints; together they compress the edge's relationship to the cores of
every possible window: an edge belongs to the core of [a, b] exactly when
one of its minimal windows fits inside [a, b].
"""

from pathlib import Path

from tempcore import (build_core_times, build_core_windows, parse_edge_list,
                      temporal_kcore)

DATA = Path(__file__).resolve().parents[1] / "data" / "g14.txt"

with DATA.open() as fh:
    g = parse_edge_list(fh)

core_times = build_core_times(g, 2, (1, 7))
windows = build_core_windows(g, 2, (1, 7), core_times)
print(f"{windows.size} minimal windows across "
      f"{sum(1 for w in windows.by_edge.values() if w)} edges:\n")
print(windows.to_text())

# reconstruct the core of [2, 6] from the windows alone, then cross-check
member = [e for e, wins in windows.by_edge.items()
          if any(2 <= start and end <= 6 for start, end in wins)]
peeled = temporal_kcore(g, 2, (2, 6))
print(f"\ncore of [2,6] via windows: {len(member)} edges; "
      f"via peeling: {peeled.size} edges; equal: {set(member) == set(peeled.edges)}")

# the enumerator holds one window per edge live: the edge's first window
# starting no earlier than the current start time. So a window is live
# from just after the previous window's start (the first one from the
# span start) up to its own start
edge = next(e for e, wins in windows.by_edge.items() if len(wins) > 1)
print(f"\nwindows of ({g.labels[edge.u]},{g.labels[edge.v]},{edge.t}):")
live_from = windows.span[0]
for start, end in windows.by_edge[edge]:
    print(f"  [{start},{end}] live for start times {live_from}..{start}")
    live_from = start + 1

# the index itself holds no window objects: three flat 32-bit columns with
# one entry per window, in edge id order and then by start. An edge id is
# the edge's position in g.edges. by_edge, the one read view used above,
# makes its (start, end) pairs from them on demand.
print("\nthe first five windows as the enumerator reads them:")
for i in range(5):
    e = g.edges[windows.edge[i]]
    print(f"  window {i}: edge id {windows.edge[i]} = "
          f"({g.labels[e.u]},{g.labels[e.v]},{e.t}) "
          f"start={windows.start[i]} end={windows.end[i]}")
