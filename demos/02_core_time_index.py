"""The per-vertex core-time index.

For every start time ts, a vertex's core time is the earliest end time te
putting it inside the 2-core of the window [ts, te]. The function is
nondecreasing in ts, so each vertex stores a handful of runs; "inf" marks
start times from which the vertex never reaches a core again. The index
keeps its runs in three flat 32-bit columns (offsets per vertex, then the
start and the core end of each run, the span end + 1 for never); runs reads
them back as (start, core end) pairs per vertex, with None for never.
"""

from pathlib import Path

from tempcore import build_core_times, parse_edge_list

DATA = Path(__file__).resolve().parents[1] / "data" / "g14.txt"

with DATA.open() as fh:
    g = parse_edge_list(fh)

index = build_core_times(g, 2, (1, 7))
columns = (index.offsets, index.starts, index.ends)
held = sum(col.itemsize * len(col) for col in columns)
print(f"index holds {index.size} runs over {g.n} vertices "
      f"in {held} bytes of columns:\n")
print(index.to_text())

# runs is the index's read view: a start's core time is the end of the
# last run that starts at or before it
v1_runs = index.runs[g.labels.index(1)]
print("\nvertex 1, start by start:")
for ts in range(1, 8):
    ct = next((end for start, end in reversed(v1_runs) if start <= ts), None)
    print(f"  from ts={ts}: earliest core end = {ct if ct is not None else 'never'}")
