from __future__ import annotations

import random
import tracemalloc
from array import array

import pytest

from graphstores import (
    ConfigError,
    EdgeHash,
    HashList,
    MultiList,
    NONE,
    OracleGraph,
    StoreConfig,
    VertexRangeError,
    hashlist,
    mixer_hash,
)

from graphstores.hashlist import _chain_cells

from _reference import EdgeSetOracle


def make(n=100, expected=100, **kwargs) -> HashList:
    return HashList(StoreConfig(vertex_count=n, expected_edges=expected, **kwargs))


class TestConstruction:
    def test_small(self):
        g = make(n=5, expected=8)
        assert g.capacity == 16
        assert all(g.neighbors(v) == [] for v in range(5))
        assert not g.contains(0, 1)

    def test_rejects_zero_vertices(self):
        with pytest.raises(ConfigError):
            make(n=0)


class TestAddContainsNeighbors:
    def test_single_edge(self):
        g = make()
        assert g.add_edge(1, 2) is True
        assert g.contains(1, 2) is True
        assert g.neighbors(1) == [2]

    def test_duplicate_leaves_chains_alone(self):
        g = make()
        g.add_edge(1, 2)
        before = g.neighbors(1)
        assert g.add_edge(1, 2) is False
        assert g.edge_count == 1
        assert g.neighbors(1) == before

    def test_lifo_order(self):
        g = make()
        for y in (2, 3, 4):
            g.add_edge(1, y)
        assert g.neighbors(1) == [4, 3, 2]

    def test_directed(self):
        g = make()
        g.add_edge(2, 3)
        assert g.contains(2, 3) and not g.contains(3, 2)

    def test_self_loop(self):
        g = make()
        assert g.add_edge(7, 7) is True
        assert g.contains(7, 7)
        assert g.neighbors(7) == [7]

    def test_isolated_vertex(self):
        g = make()
        g.add_edge(1, 2)
        assert g.neighbors(3) == []

    def test_range_errors(self):
        g = make(n=10)
        for pair in [(-1, 0), (0, 10), (10, 0)]:
            with pytest.raises(VertexRangeError):
                g.add_edge(*pair)
            with pytest.raises(VertexRangeError):
                g.contains(*pair)
        with pytest.raises(VertexRangeError):
            g.neighbors(10)


class TestCrossStructure:
    def test_matches_multilist_sequences(self):
        rnd = random.Random(31)
        n = 60
        hl = make(n=n, expected=2000)
        ml = MultiList(n, 2000)
        for _ in range(2000):
            x, y = rnd.randrange(n), rnd.randrange(n)
            assert hl.add_edge(x, y) == ml.add_edge(x, y)
        for x in range(n):
            assert hl.neighbors(x) == ml.neighbors(x)

    def test_differential_mixed_ops(self):
        rnd = random.Random(8)
        n = 200
        hl = make(n=n, expected=4)  # tiny start: growth happens mid-stream
        oracle = OracleGraph(n)
        naive = EdgeSetOracle(n)
        for _ in range(100_000):
            r = rnd.random()
            x, y = rnd.randrange(n), rnd.randrange(n)
            if r < 0.5:
                assert hl.add_edge(x, y) == oracle.add_edge(x, y) == naive.add(x, y)
            elif r < 0.9:
                assert hl.contains(x, y) == oracle.contains(x, y) == naive.has(x, y)
            else:
                assert hl.neighbors(x) == oracle.neighbors(x)
        assert hl.edge_count == oracle.edge_count

    def test_enumeration_touch_exactness(self):
        rnd = random.Random(77)
        n = 100
        g = make(n=n, expected=3000)
        degrees = [0] * n
        for _ in range(3000):
            x, y = rnd.randrange(n), rnd.randrange(n)
            if g.add_edge(x, y):
                degrees[x] += 1
        for x in range(n):
            before = g.counters.enumerate.total
            seq = g.neighbors(x)
            assert g.counters.enumerate.total - before == len(seq) == degrees[x]


class TestWeights:
    def test_requires_config(self):
        g = make()
        with pytest.raises(ConfigError):
            g.set_weight(0, 1, 2.0)
        with pytest.raises(ConfigError):
            g.get_weight(0, 1)

    def test_set_on_missing_edge(self):
        g = make(weighted=True)
        assert g.set_weight(1, 2, 5.0) is False
        assert g.get_weight(1, 2) is None

    def test_write_then_read(self):
        g = make(weighted=True)
        g.add_edge(1, 2)
        assert g.set_weight(1, 2, 7) is True
        assert g.get_weight(1, 2) == 7

    def test_duplicate_add_keeps_weight(self):
        g = make(weighted=True)
        g.add_edge(1, 2)
        g.set_weight(1, 2, 7)
        assert g.add_edge(1, 2) is False
        assert g.get_weight(1, 2) == 7

    def test_weights_survive_growth(self):
        rnd = random.Random(13)
        g = make(n=200, expected=1, weighted=True)  # capacity 16: plenty of rebuilds
        expected = {}
        k = 0
        while len(expected) < 1000:
            x, y = rnd.randrange(200), rnd.randrange(200)
            if g.add_edge(x, y):
                g.set_weight(x, y, float(k))
                expected[(x, y)] = float(k)
                k += 1
        assert g.rebuilds >= 2
        g.grow()
        for (x, y), w in expected.items():
            assert g.get_weight(x, y) == w


class TestGrowth:
    def _filled(self, seed=3, n=150, adds=1200):
        rnd = random.Random(seed)
        g = make(n=n, expected=2 * adds)
        for _ in range(adds):
            g.add_edge(rnd.randrange(n), rnd.randrange(n))
        return g

    def test_grow_preserves_everything(self):
        g = self._filled()
        n = g.vertex_count
        rnd = random.Random(44)
        probes = [(rnd.randrange(n), rnd.randrange(n)) for _ in range(3000)]
        contains_before = [g.contains(x, y) for x, y in probes]
        neighbors_before = [g.neighbors(x) for x in range(n)]
        count, cap = g.edge_count, g.capacity
        g.grow()
        assert g.capacity == 2 * cap
        assert g.edge_count == count
        assert [g.contains(x, y) for x, y in probes] == contains_before
        assert [g.neighbors(x) for x in range(n)] == neighbors_before

    def test_load_halves(self):
        g = self._filled()
        load = g.load_factor
        g.grow()
        assert g.load_factor == load / 2


class TestInvariants:
    def _random(self, seed=21, n=120, adds=4000):
        rnd = random.Random(seed)
        g = make(n=n, expected=4)
        for _ in range(adds):
            g.add_edge(rnd.randrange(n), rnd.randrange(n))
        return g

    def test_chain_table_consistency(self):
        # every occupied slot appears on exactly one chain, owned by the
        # vertex in its code's high half
        g = self._random()
        seen = {}
        for x in range(g.vertex_count):
            i = g._heads[x]
            while i != NONE:
                assert i not in seen
                seen[i] = x
                assert g._data[i] != NONE
                assert g._data[i] >> 32 == x
                i = g._next[i]
        occupied = {s for s in range(g.capacity) if g._data[s] != NONE}
        assert set(seen) == occupied
        assert len(occupied) == g.edge_count

    def test_degree_sum_equals_count(self):
        g = self._random()
        assert sum(len(g.neighbors(x)) for x in range(g.vertex_count)) == g.edge_count

    def test_probe_chain_integrity(self):
        g = self._random()
        cap = g.capacity
        for s in range(cap):
            if g._data[s] == NONE:
                continue
            code = g._data[s]
            slot = mixer_hash(code, cap)
            for _ in range(cap):
                assert g._data[slot] != NONE
                if slot == s:
                    break
                slot = (slot + 1) & (cap - 1)
            else:
                pytest.fail("slot unreachable from home")

    def test_memory_accounting(self):
        g = make(n=50, expected=100)
        assert g.slots_allocated == 256
        gw = make(n=50, expected=100, weighted=True)
        assert gw.slots_allocated == 256

    def test_compat_mode_full_agreement(self):
        rnd = random.Random(55)
        n = 80
        g = make(n=n, expected=4, hash_mode="paper_compat")
        naive = EdgeSetOracle(n)
        for _ in range(5000):
            x, y = rnd.randrange(n), rnd.randrange(n)
            if rnd.random() < 0.6:
                assert g.add_edge(x, y) == naive.add(x, y)
            else:
                assert g.contains(x, y) == naive.has(x, y)
        for x in range(n):
            assert g.neighbors(x) == naive.newest_first(x)


class TestMemory:
    def test_chain_arrays_keep_bytes_per_edge_near_the_edge_hash(self):
        # Same presized input for both stores. The ids are made before
        # tracing starts, so only the store's own allocations are counted.
        n, m = 2048, 8192
        rnd = random.Random(0xB17E)
        edges = {}
        while len(edges) < m:
            edges[(rnd.randrange(n), rnd.randrange(n))] = None

        def traced(cls):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                store = cls(StoreConfig(vertex_count=n, expected_edges=m))
                for x, y in edges:
                    store.add_edge(x, y)
                per_edge = (tracemalloc.get_traced_memory()[0] - base) / m
            finally:
                tracemalloc.stop()
            assert store.edge_count == m and store.rebuilds == 0
            return store, per_edge

        fused, fused_bytes = traced(HashList)
        _, hash_bytes = traced(EdgeHash)
        assert fused_bytes < 64
        assert fused_bytes < 1.35 * hash_bytes
        assert fused._heads.itemsize == fused._next.itemsize == 4

    def test_chain_cell_width_follows_capacity(self):
        # Length 0 on both sides of the limit: nothing near 2**31 cells is made.
        assert _chain_cells(0, 1 << 31).format == "i"
        assert _chain_cells(0, (1 << 31) + 1).format == "q"
        assert _chain_cells(0, (1 << 31) + 1).itemsize == 8
        cells = _chain_cells(2, 1 << 31)
        assert cells.itemsize == 4 and list(cells) == [NONE, NONE]
        cells[1] = (1 << 31) - 1
        assert list(cells) == [NONE, (1 << 31) - 1]


WALK_HALVES = {"rounds": 0, "scalar": 2**31}


@pytest.mark.parametrize("cells", ["4-byte", "8-byte"])
@pytest.mark.parametrize("mode", ["mixer", "paper_compat"])
@pytest.mark.parametrize("half", WALK_HALVES)
def test_rebuild_through_each_half_of_the_walk(half, mode, cells):
    """A rebuild seats vertex by vertex, each chain oldest-first, and threads
    the chains as ``add_edge`` does, so a grown weighted store equals a twin
    grown while empty and then given the same edges by scalar calls in that
    seat order. The rebuild's walk runs in numpy rounds alone, or in
    the scalar tail alone."""
    n = 1000
    rnd = random.Random(17)
    pairs = [(hub, rnd.randrange(n)) for hub in (3, 500, 999) for _ in range(150)]
    pairs += [(rnd.randrange(n), rnd.randrange(n)) for _ in range(400)]
    rnd.shuffle(pairs)
    edges = list(dict.fromkeys(pairs))
    weights = [None if k % 3 == 0 else float(k) for k in range(len(edges))]
    seat_order = sorted(range(len(edges)), key=lambda k: edges[k][0])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hashlist, "_ROUND_MIN", WALK_HALVES[half])
        if cells == "8-byte":
            patch.setattr(hashlist, "_chain_cells",
                          lambda length, cap: memoryview(array("q", [NONE]) * length))
        store, twin = (make(n=n, expected=len(edges), weighted=True, hash_mode=mode)
                       for _ in range(2))
        for k, (x, y) in enumerate(edges):
            assert store.add_edge(x, y)
            if weights[k] is not None:
                store.set_weight(x, y, weights[k])
        assert store.rebuilds == 0
        store.grow()
        twin.grow()
        for k in seat_order:
            twin.add_edge(*edges[k])
            if weights[k] is not None:
                twin.set_weight(*edges[k], weights[k])
        assert store._heads.format == twin._heads.format == ("q" if cells == "8-byte" else "i")
        assert (store.capacity, store._data) == (twin.capacity, twin._data)
        assert store._heads.tolist() == twin._heads.tolist()
        assert store._next.tolist() == twin._next.tolist()
        assert store._weights == twin._weights
        everyone = list(range(n))
        scalar = [twin.neighbors(v) for v in everyone]
        targets, ends = store.neighbors_many(everyone)
        assert [targets[a:b] for a, b in zip([0] + ends, ends)] == scalar
