"""Growth rebuilds and the linear-memory guarantee.

A fused store seeded with a tiny capacity doubles whenever occupancy
would cross the growth threshold. Rebuilds are observable only through
the capacity: membership answers, enumeration order, and stored weights
all read back unchanged. Allocated slots stay within 2*E/MAX_LOAD_FACTOR
(power-of-two rounded), which is the linear-memory bound. The same adds,
replayed into presized stores under tracemalloc, give each store's real
bytes per edge. Last, one explicit grow() is timed on the HashList and on
an EdgeHash holding the same edges; the times are shown, never checked.
"""

import tracemalloc
from time import perf_counter

from graphstores import EdgeHash, HashList, Lcg64, MultiList, StoreConfig
from graphstores.core import GROWTH_THRESHOLD, MAX_LOAD_FACTOR

cfg = StoreConfig(vertex_count=500, expected_edges=1, weighted=True)
store = HashList(cfg)
rng = Lcg64(0xD1CE)

print(f"growth threshold: {GROWTH_THRESHOLD}, initial capacity: {store.capacity}")
print(f"{'edges':>6} {'capacity':>9} {'load':>6} {'rebuilds':>9}")

snapshots = []
added_edges = []
added = 0
while added < 3000:
    x, y = rng.next_below(500), rng.next_below(500)
    before_cap = store.capacity
    if store.add_edge(x, y):
        store.set_weight(x, y, float(added))
        added_edges.append((x, y))
        added += 1
    if store.capacity != before_cap:
        print(f"{store.edge_count:>6} {store.capacity:>9} {store.load_factor:>6.2f} "
              f"{store.rebuilds:>9}")
    if added in (100, 1000, 3000) and len(snapshots) < 3:
        snapshots.append((added, store.neighbors(7), store.get_weight(x, y)))

print("\nenumeration order sampled after 100/1000/3000 edges, then re-read now:")
for edges, nbrs, _ in snapshots:
    current = store.neighbors(7)
    prefix_intact = current[-len(nbrs):] == nbrs if nbrs else True
    print(f"  after {edges:>5} edges neighbors(7) started {nbrs[:6]}... "
          f"still a suffix of today's chain: {prefix_intact}")

mlf = MAX_LOAD_FACTOR
bound = 2 * store.edge_count * mlf.denominator // mlf.numerator
print(f"\nmemory check: capacity {store.capacity} <= 2*E/max_load = {bound}:",
      store.capacity <= bound)
print("slots allocated (the capacity):", store.slots_allocated)


def traced_bytes_per_edge(make):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fresh = make()
        for x, y in added_edges:
            fresh.add_edge(x, y)
        return (tracemalloc.get_traced_memory()[0] - base) / len(added_edges)
    finally:
        tracemalloc.stop()


sized = StoreConfig(vertex_count=500, expected_edges=len(added_edges))
print("traced bytes per edge after the same adds, presized:", ", ".join(
    f"{name} {traced_bytes_per_edge(make):.1f}"
    for name, make in [("HashList", lambda: HashList(sized)),
                       ("EdgeHash", lambda: EdgeHash(sized)),
                       ("MultiList", lambda: MultiList(500, len(added_edges)))]))

print("\none more manual doubling changes nothing observable:")
sample = [(rng.next_below(500), rng.next_below(500)) for _ in range(5000)]
before = [store.contains(x, y) for x, y in sample]
twin = EdgeHash(StoreConfig(vertex_count=500, expected_edges=1))
for x, y in added_edges:
    twin.add_edge(x, y)
grow_ms = {}
for name, grown in (("HashList", store), ("EdgeHash", twin)):
    t0 = perf_counter()
    grown.grow()
    grow_ms[name] = (perf_counter() - t0) * 1e3
after = [store.contains(x, y) for x, y in sample]
print("  5000 membership answers identical after grow():", before == after)
print(f"  that grow() of the weighted HashList to {store.capacity} slots took "
      f"{grow_ms['HashList']:.2f} ms; an EdgeHash holding the same edges took "
      f"{grow_ms['EdgeHash']:.2f} ms")
