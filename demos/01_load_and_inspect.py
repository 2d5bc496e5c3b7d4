"""Load a temporal edge list and look around.

The bundled toy graph has 9 vertices and 14 edges spread over timestamps
1..7. Edges are "u v t" lines; vertex ids are renumbered densely in the
order of the original ids and timestamps compressed, with the original
values kept for reporting. The graph is a set of integer columns: an edge
is its id, its position in (t, u, v) order, and adjacency is CSR: each
vertex's (t, neighbour) pairs are one slice of the adj_t and adj_y columns.
"""

from pathlib import Path

from tempcore import parse_edge_list, static_coreness, stats

DATA = Path(__file__).resolve().parents[1] / "data" / "g14.txt"

with DATA.open() as fh:
    g = parse_edge_list(fh)

st = stats(g)
print(f"vertices={st.n} edges={st.m} distinct timestamps={st.t_max}")
print(f"average degree={float(st.deg_avg):.3f} maximum coreness={st.k_max}")

# edge ids: the edges of one time are a range of ids
print(f"\nvertex labels by dense id: {list(g.labels)}")
print("edges at t=5:")
for i in g.ids_in(5, 5):
    e = g.edges[i]
    print(f"  id {i}: ({g.labels[e.u]},{g.labels[e.v]},{e.t})")

# adjacency: who does vertex 1 touch from time 3 on? Its slice of the CSR
# columns holds its (t, neighbour) pairs in time order
v1 = g.labels.index(1)
lo, hi = g.adj_off[v1], g.adj_off[v1 + 1]
print("\nneighbours of v1 in [3,7]:")
for v, t in zip(g.adj_y[lo:hi], g.adj_t[lo:hi]):
    if 3 <= t <= 7:
        print(f"  v{g.labels[v]} at t={t}")
print(f"v1's CSR slice [{lo}:{hi}]: t={g.adj_t[lo:hi]} neighbour ids={g.adj_y[lo:hi]}")

# coreness of a narrow window: only the triangle around v1, v2, v4 survives
core = static_coreness(g, (2, 3))
print("\ncoreness in window [2,3]:")
for v in range(g.n):
    if core[v]:
        print(f"  v{g.labels[v]}: {core[v]}")
