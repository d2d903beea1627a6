"""Tour of the four edge stores behind the shared contract.

Every store holds a *set* of directed edges: duplicates are rejected,
there is no removal, and enumeration (where supported) yields targets
newest-first because insertion prepends to each vertex's chain.
"""

from graphstores import (
    EdgeHash,
    HashList,
    MultiList,
    OracleGraph,
    StoreConfig,
    UnsupportedOperationError,
)

cfg = StoreConfig(vertex_count=6, expected_edges=8, weighted=True)
stores = {
    "hashlist": HashList(cfg),
    "multilist": MultiList(6, 8),
    "edgehash": EdgeHash(StoreConfig(vertex_count=6, expected_edges=8)),
    "oracle": OracleGraph(6),
}

edges = [(1, 2), (1, 3), (1, 4), (2, 1), (5, 5), (1, 2)]  # last one is a duplicate

print("adding", edges)
for name, store in stores.items():
    answers = [store.add_edge(x, y) for x, y in edges]
    print(f"  {name:<9} accepted={answers}  edge_count={store.edge_count}")

print("\nmembership is directed: (1, 2) was added, (2, 1) separately, (3, 1) never")
for name, store in stores.items():
    print(f"  {name:<9} (1,2)={store.contains(1, 2)}  (2,1)={store.contains(2, 1)}  "
          f"(3,1)={store.contains(3, 1)}")

print("\nneighbors(1) enumerates newest-first; the bare hash table refuses:")
for name, store in stores.items():
    try:
        print(f"  {name:<9} {store.neighbors(1)}")
    except UnsupportedOperationError as exc:
        print(f"  {name:<9} unsupported ({exc})")

hl = stores["hashlist"]
asked = [1, 2, 0, 1]
targets, ends = hl.neighbors_many(asked)
print(f"\nneighbors_many({asked}) answers several vertices in one call, as one flat list")
print(f"and the index where each vertex's run ends: targets={targets} ends={ends}")
runs = [targets[a:b] for a, b in zip([0, *ends], ends)]
print("  runs:", runs)
print("  runs == [neighbors(v) for v in asked]:", runs == [hl.neighbors(v) for v in asked])

print("\nself-loops are ordinary edges:")
print("  hashlist contains(5,5) =", hl.contains(5, 5))

print("\nweights ride in a side array on the fused store:")
print("  set_weight(1, 3, 2.5) ->", hl.set_weight(1, 3, 2.5))
print("  get_weight(1, 3)      ->", hl.get_weight(1, 3))
print("  set_weight on a missing edge ->", hl.set_weight(0, 1, 9.0))
