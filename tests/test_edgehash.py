from __future__ import annotations

import random

import pytest

from graphstores import (
    EdgeHash,
    NONE,
    StoreConfig,
    UnsupportedOperationError,
    VertexRangeError,
    compat_hash,
    mixer_hash,
    pack_edge,
)

from _reference import EdgeSetOracle


def make(n=1000, expected=100, **kwargs) -> EdgeHash:
    return EdgeHash(StoreConfig(vertex_count=n, expected_edges=expected, **kwargs))


class TestConstruction:
    def test_capacity_from_expected_edges(self):
        assert make(expected=100).capacity == 256
        assert make(expected=1).capacity == 16

    def test_fresh_table_contains_nothing(self):
        t = make()
        rnd = random.Random(0)
        assert not any(t.contains(rnd.randrange(1000), rnd.randrange(1000)) for _ in range(500))


class TestAddContains:
    def test_add_then_duplicate(self):
        t = make()
        assert t.add_edge(0, 1) is True
        assert t.add_edge(0, 1) is False
        assert t.edge_count == 1

    def test_range_errors(self):
        t = make(n=10)
        for pair in [(-1, 0), (0, 10), (10, 0)]:
            with pytest.raises(VertexRangeError):
                t.add_edge(*pair)
            with pytest.raises(VertexRangeError):
                t.contains(*pair)

    def test_neighbors_unsupported(self):
        with pytest.raises(UnsupportedOperationError):
            make().neighbors(0)

    def test_compat_mode_collision_displacement(self):
        # y = 333333 forces a zero product, so every such edge homes to slot 0;
        # linear probing must displace the second one to slot 1
        t = make(n=400_000, expected=4, hash_mode="paper_compat")
        assert t.capacity == 16
        assert compat_hash(5, 333333, 16) == 0
        assert compat_hash(6, 333333, 16) == 0
        assert t.add_edge(5, 333333) is True
        assert t.add_edge(6, 333333) is True
        assert t._data[0] != NONE and t._data[1] != NONE
        assert t._data[0] == pack_edge(5, 333333)
        assert t._data[1] == pack_edge(6, 333333)
        assert t.contains(5, 333333) and t.contains(6, 333333)
        assert not t.contains(7, 333333)

    def test_random_ops_agree_with_oracle(self):
        rnd = random.Random(99)
        n = 500
        t = make(n=n, expected=4)  # starts tiny: exercises growth
        naive = EdgeSetOracle(n)
        for _ in range(100_000):
            x, y = rnd.randrange(n), rnd.randrange(n)
            if rnd.random() < 0.4:
                assert t.add_edge(x, y) == naive.add(x, y)
            else:
                assert t.contains(x, y) == naive.has(x, y)
        assert t.edge_count == len(naive.edges)


class TestProbeCosts:
    def test_mean_probes_at_half_load(self):
        # classical linear-probing expectations at load 0.5 are about 1.5
        # probes for a hit and 2.5 for a miss; assert with x1.5 headroom
        rnd = random.Random(123)
        n = 2000
        edges = 8192
        t = make(n=n, expected=edges)
        assert t.capacity == 16384
        added = set()
        while len(added) < edges:
            x, y = rnd.randrange(n), rnd.randrange(n)
            if (x, y) not in added and t.add_edge(x, y):
                added.add((x, y))
        assert t.load_factor == 0.5
        assert t.rebuilds == 0
        t.counters.reset()
        for x, y in added:
            assert t.contains(x, y)
        hit_mean = t.counters.contains.mean
        t.counters.reset()
        missed = 0
        while missed < edges:
            x, y = rnd.randrange(n), rnd.randrange(n)
            if (x, y) not in added:
                assert not t.contains(x, y)
                missed += 1
        miss_mean = t.counters.contains.mean
        assert hit_mean <= 2.0
        assert miss_mean <= 4.0


class TestGrowth:
    def test_grow_empty(self):
        t = make(expected=1)
        assert t.capacity == 16
        t.grow()
        assert t.capacity == 32
        assert t.edge_count == 0

    def test_grow_preserves_membership(self):
        rnd = random.Random(5)
        n = 1000
        t = make(n=n, expected=20_000)
        pairs = set()
        while len(pairs) < 10_000:
            x, y = rnd.randrange(n), rnd.randrange(n)
            if (x, y) not in pairs:
                t.add_edge(x, y)
                pairs.add((x, y))
        absent = [(rnd.randrange(n), rnd.randrange(n)) for _ in range(2000)]
        before = {p: t.contains(*p) for p in list(pairs) + absent}
        old_cap = t.capacity
        count = t.edge_count
        t.grow()
        assert t.capacity == 2 * old_cap
        assert t.edge_count == count
        assert t.load_factor == count / (2 * old_cap)
        for p, answer in before.items():
            assert t.contains(*p) == answer

    def test_growth_triggers_on_threshold(self):
        t = make(n=100, expected=1)  # capacity 16, grows past floor(0.7*16)=11
        for i in range(12):
            t.add_edge(i % 100, i // 100)
        assert t.capacity == 32
        assert t.rebuilds == 1


class TestInvariants:
    def _filled(self, seed=7, n=300, adds=5000):
        rnd = random.Random(seed)
        t = make(n=n, expected=4)
        pairs = []
        for _ in range(adds):
            x, y = rnd.randrange(n), rnd.randrange(n)
            if t.add_edge(x, y):
                pairs.append((x, y))
        return t, pairs

    def test_probe_chain_integrity(self):
        # every stored code is reachable from its home slot without
        # crossing an empty slot (no deletions make this invariant exact)
        t, pairs = self._filled()
        cap = t.capacity
        for x, y in pairs:
            slot = mixer_hash(pack_edge(x, y), cap)
            for _ in range(cap):
                assert t._data[slot] != NONE, "probe chain crossed an empty slot"
                if t._data[slot] == pack_edge(x, y):
                    break
                slot = (slot + 1) & (cap - 1)
            else:
                pytest.fail("code unreachable from its home slot")

    def test_no_code_stored_twice(self):
        t, _ = self._filled()
        stored = [t._data[s] for s in range(t.capacity) if t._data[s] != NONE]
        assert len(stored) == len(set(stored)) == t.edge_count

    def test_monotone_membership(self):
        t, pairs = self._filled(adds=800)
        sample = pairs[: len(pairs) // 2]
        for x, y in sample:
            assert t.contains(x, y)
        t.grow()
        for _ in range(200):
            t.add_edge(random.Random(1).randrange(300), 0)
        for x, y in sample:
            assert t.contains(x, y)

    def test_idempotent_replay(self):
        t, pairs = self._filled(adds=600)
        count = t.edge_count
        for x, y in pairs:
            assert t.add_edge(x, y) is False
        assert t.edge_count == count

    def test_count_tracks_true_adds(self):
        t, pairs = self._filled()
        assert t.edge_count == len(pairs)

    def test_load_stays_under_threshold_with_growth(self):
        t, _ = self._filled()
        assert t.edge_count <= t.config.growth_limit(t.capacity)

    def test_memory_accounting(self):
        t = make(expected=100)
        assert t.slots_allocated == 256
