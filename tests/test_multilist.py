from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstores import CapacityError, ConfigError, MultiList, OracleGraph, VertexRangeError

from _reference import EdgeSetOracle


class TestConstruction:
    def test_small(self):
        g = MultiList(3, 5)
        assert g.vertex_count == 3
        assert g.edge_capacity == 5
        assert all(g.neighbors(v) == [] for v in range(3))

    def test_zero_capacity_accepts_no_edges(self):
        g = MultiList(1, 0)
        assert g.edge_count == 0
        with pytest.raises(CapacityError):
            g.add_edge(0, 0)

    def test_large_empty(self):
        g = MultiList(1000, 100_000)
        assert all(g.neighbors(v) == [] for v in range(1000))
        assert g.edge_count == 0

    def test_rejects_zero_vertices(self):
        with pytest.raises(ConfigError):
            MultiList(0, 5)

    @pytest.mark.parametrize("n,capacity", [(2**32 + 1, -1), (10**12, 1)])
    def test_rejects_ids_beyond_32_bits(self, n, capacity):
        # The vertex count is checked first; without that check the -1 would
        # fail on its own message, and 10**12 heads on a MemoryError, before
        # any list of n entries could be filled.
        with pytest.raises(ConfigError, match="vertex ids are limited to 32 bits"):
            MultiList(n, capacity)


class TestAddContains:
    def test_single_insert(self):
        g = MultiList(4, 4)
        assert g.add_edge(1, 2) is True
        assert g.contains(1, 2) is True

    def test_duplicate_rejected(self):
        g = MultiList(4, 4)
        assert g.add_edge(1, 2) is True
        assert g.add_edge(1, 2) is False
        assert g.edge_count == 1

    def test_directed(self):
        g = MultiList(4, 4)
        g.add_edge(2, 3)
        assert g.contains(2, 3) is True
        assert g.contains(3, 2) is False

    def test_lifo_order(self):
        g = MultiList(8, 8)
        for y in (2, 3, 4):
            g.add_edge(1, y)
        assert g.neighbors(1) == [4, 3, 2]

    def test_head_insertion_pair(self):
        g = MultiList(10, 4)
        g.add_edge(0, 5)
        g.add_edge(0, 9)
        assert g.neighbors(0) == [9, 5]

    def test_empty_contains(self):
        g = MultiList(2, 2)
        assert g.contains(0, 1) is False

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (5, 0), (0, 5)])
    def test_range_errors(self, pair):
        g = MultiList(5, 4)
        with pytest.raises(VertexRangeError):
            g.add_edge(*pair)
        with pytest.raises(VertexRangeError):
            g.contains(*pair)

    def test_neighbors_range_error(self):
        g = MultiList(5, 4)
        with pytest.raises(VertexRangeError):
            g.neighbors(5)

    def test_capacity_error_only_for_new_edges(self):
        g = MultiList(4, 2)
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        assert g.add_edge(0, 1) is False  # duplicate stays fine at full capacity
        with pytest.raises(CapacityError):
            g.add_edge(0, 3)
        assert g.edge_count == 2


class TestAgainstOracle:
    def test_random_ops_agree(self):
        import random

        rnd = random.Random(42)
        n = 40
        g = MultiList(n, 10_000)
        oracle = OracleGraph(n)
        naive = EdgeSetOracle(n)
        for _ in range(10_000):
            x, y = rnd.randrange(n), rnd.randrange(n)
            if rnd.random() < 0.5:
                assert g.add_edge(x, y) == oracle.add_edge(x, y) == naive.add(x, y)
            else:
                assert g.contains(x, y) == oracle.contains(x, y) == naive.has(x, y)
        assert g.edge_count == oracle.edge_count
        for x in range(n):
            seq = g.neighbors(x)
            assert seq == oracle.neighbors(x)
            assert seq == naive.newest_first(x)
            assert len(seq) == len(set(seq))  # set semantics: no duplicates

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=64))
    def test_set_semantics_property(self, pairs):
        g = MultiList(8, len(pairs) + 1)
        naive = EdgeSetOracle(8)
        for x, y in pairs:
            assert g.add_edge(x, y) == naive.add(x, y)
        for x in range(8):
            assert g.neighbors(x) == naive.newest_first(x)
        assert g.edge_count == len(naive.edges)


class TestInvariants:
    def _random_graph(self, n=50, ops=3000, seed=9):
        import random

        rnd = random.Random(seed)
        g = MultiList(n, ops)
        for _ in range(ops):
            g.add_edge(rnd.randrange(n), rnd.randrange(n))
        return g

    def test_degree_sum_equals_used(self):
        g = self._random_graph()
        assert sum(len(g.neighbors(x)) for x in range(g.vertex_count)) == g.edge_count

    def test_sentinel_discipline(self):
        g = self._random_graph()
        for x in range(g.vertex_count):
            empty = g.neighbors(x) == []
            assert (g._heads[x] == 0) == empty
        # the last cell of every chain points at the sentinel
        for x in range(g.vertex_count):
            i = g._heads[x]
            while i and g._next[i]:
                i = g._next[i]
            if i:
                assert g._next[i] == 0

    def test_cell_zero_never_used(self):
        g = self._random_graph()
        for x in range(g.vertex_count):
            i = g._heads[x]
            steps = 0
            while i:
                assert i != 0
                i = g._next[i]
                steps += 1
                assert steps <= g.edge_count  # acyclic: terminates within used cells

    def test_every_cell_reachable_once(self):
        g = self._random_graph()
        seen = set()
        for x in range(g.vertex_count):
            i = g._heads[x]
            while i:
                assert i not in seen
                seen.add(i)
                i = g._next[i]
        assert seen == set(range(1, g.edge_count + 1))

    def test_memory_accounting(self):
        g = MultiList(100, 5000)
        assert g.memory_ints() == 100 + 2 * 5001
        assert g.slots_allocated == 5001


class TestInstrumentation:
    def test_add_to_empty_costs_one(self):
        g = MultiList(4, 4)
        g.add_edge(0, 1)
        assert g.counters.add.total == 1

    def test_contains_miss_on_empty_costs_zero(self):
        g = MultiList(4, 4)
        g.contains(0, 1)
        assert g.counters.contains.ops == 1
        assert g.counters.contains.total == 0

    def test_contains_cost_is_chain_position(self):
        g = MultiList(8, 8)
        for y in (1, 2, 3):
            g.add_edge(0, y)
        g.counters.reset()
        g.contains(0, 3)  # newest: first cell
        assert g.counters.contains.total == 1
        g.contains(0, 1)  # oldest: full scan
        assert g.counters.contains.total == 1 + 3
