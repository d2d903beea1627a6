from __future__ import annotations

from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstores import CapacityError, ConfigError, MultiList, OracleGraph, VertexRangeError
from graphstores.counters import OP_CLASSES
from graphstores.multilist import _ONE_SCAN_FROM

from _reference import EdgeSetOracle, multilist_add_edge


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

    def test_edgeless_vertex_holds_no_list(self):
        g = self._random_graph(n=200, ops=300)
        degrees = [len(g.neighbors(x)) for x in range(g.vertex_count)]
        assert 0 in degrees and max(degrees) > 0
        for x, degree in enumerate(degrees):
            assert isinstance(g._lists[x], list) == (degree > 0)
            assert degree or g._lists[x] == ()

    def test_no_two_vertices_share_a_list(self):
        g = self._random_graph(n=200, ops=300)
        owned = [id(t) for t in g._lists if isinstance(t, list)]
        assert len(owned) == len(set(owned))

    def test_lists_are_newest_first_and_sum_to_edge_count(self):
        import random

        rnd = random.Random(9)
        n = 50
        g = MultiList(n, 3000)
        naive = EdgeSetOracle(n)
        for _ in range(3000):
            x, y = rnd.randrange(n), rnd.randrange(n)
            g.add_edge(x, y)
            naive.add(x, y)
        for x in range(n):
            assert list(g._lists[x]) == naive.newest_first(x)
            assert len(set(g._lists[x])) == len(g._lists[x])
        assert sum(map(len, g._lists)) == g.edge_count

    def test_neighbors_returns_a_copy(self):
        g = MultiList(4, 8)
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        g.neighbors(0).clear()
        g.neighbors(0).append(3)
        g.neighbors(3).append(2)  # an edgeless vertex
        assert g.neighbors(0) == [2, 1]
        assert g.neighbors(3) == []
        assert g.contains(0, 1) and not g.contains(0, 3) and not g.contains(3, 2)
        assert g.add_edge(0, 3) is True
        assert g.add_edge(3, 2) is True
        assert g.neighbors(0) == [3, 2, 1]
        assert g.neighbors(3) == [2]

    def test_memory_accounting(self):
        g = MultiList(100, 5000)
        assert g.slots_allocated == 5001
        for y in range(40):
            g.add_edge(y % 7, y)
        g.add_edge(0, 0)  # a duplicate stores nothing
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

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.sampled_from(OP_CLASSES), st.integers(0, 7),
                              st.one_of(st.integers(0, 7), st.integers(0, 4095))), max_size=200))
    def test_counters_follow_a_newest_first_model(self, seed, ops):
        """Every op's counter delta is what a walk over its newest-first list costs.

        The model keeps each vertex's targets with their arrival numbers, so a
        target's position newest first is degree - 1 - arrival. A hit costs
        its position + 1, a contains miss the degree, an insert the degree + 1
        and an enumerate the degree. Vertex 0 starts as a hub of degree 2048.
        """
        import random

        n, hub_degree = 4096, 2048
        g = MultiList(n, hub_degree + len(ops))
        arrivals = [{} for _ in range(8)]  # per vertex: target -> arrival number
        hub = [("add", 0, y) for y in random.Random(seed).sample(range(n), hub_degree)]
        for op, x, y in hub + ops:
            seen = arrivals[x]
            degree = len(seen)
            if op == "enumerate":
                cost, answer = degree, sorted(seen, key=seen.get, reverse=True)
            else:
                hit = y in seen
                cost = degree - seen[y] if hit else degree + (op == "add")
                answer = hit if op == "contains" else not hit
                if op == "add" and not hit:
                    seen[y] = degree
            before = {c: astuple(g.counters.channel(c)) for c in OP_CLASSES}
            if op == "enumerate":
                got = g.neighbors(x)
            else:
                got = g.add_edge(x, y) if op == "add" else g.contains(x, y)
            assert got == answer, (op, x, y)
            for c in OP_CLASSES:
                count, total, peak = before[c]
                if c == op:
                    count, total, peak = count + 1, total + cost, max(peak, cost)
                assert astuple(g.counters.channel(c)) == (count, total, peak), (op, x, y)
        assert g.counters.add.peak >= hub_degree


class Reference(MultiList):
    """MultiList with the add kept in ``_reference``: ``in``, then ``index`` for a duplicate."""

    add_edge = multilist_add_edge


def add_both(lib: MultiList, ref: MultiList, x: int, y: int):
    """One add on each store; both must answer, count and store alike, and a refused
    add must leave x's list as it was. Returns the answer, or "refused"."""
    outcomes = []
    for store in (lib, ref):
        before = list(store._lists[x])
        try:
            outcomes.append(store.add_edge(x, y))
        except CapacityError:
            outcomes.append("refused")
            assert list(store._lists[x]) == before, "a refused add changed the list"
    assert outcomes[0] == outcomes[1], (x, y)
    assert lib._lists == ref._lists, (x, y)
    assert astuple(lib.counters.add) == astuple(ref.counters.add), (x, y)
    assert lib.edge_count == ref.edge_count
    return outcomes[0]


class TestAddAgainstReference:
    """Lists at least ``_ONE_SCAN_FROM`` long check a duplicate in one scan past a
    sentinel; every add must still match the two-scan add kept in ``_reference``."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_hub_heavy_streams(self, data):
        """Vertex 0 takes most adds, so its list crosses the cutoff; half the adds
        repeat a target at a drawn depth. The stream ends by offering vertex 0 every
        target, so the small capacity refuses adds there."""
        n = 4 * _ONE_SCAN_FROM
        capacity = data.draw(st.integers(_ONE_SCAN_FROM - 1, 3 * _ONE_SCAN_FROM), label="capacity")
        lib, ref = MultiList(n, capacity), Reference(n, capacity)
        steps = data.draw(st.lists(
            st.tuples(st.sampled_from([0, 0, 0, 0, 1, 2]), st.integers(0, n - 1), st.booleans()),
            max_size=400), label="steps")
        for x, y, repeat in steps:
            targets = ref._lists[x]
            if repeat and targets:
                y = targets[y % len(targets)]  # a duplicate at any depth
            add_both(lib, ref, x, y)
        answers = [add_both(lib, ref, 0, y) for y in range(n)]
        assert "refused" in answers and lib.edge_count == capacity

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_lists_at_the_cutoff(self, offset):
        """A list one shorter than the cutoff, at it and one longer: a duplicate at
        every depth, a new target, every depth again one longer, then a refused add."""
        k = _ONE_SCAN_FROM + offset
        lib, ref = MultiList(k + 2, k + 1), Reference(k + 2, k + 1)
        for y in range(k):
            assert add_both(lib, ref, 0, y) is True
        for y in list(lib._lists[0]):
            assert add_both(lib, ref, 0, y) is False
        assert add_both(lib, ref, 0, k) is True
        for y in list(lib._lists[0]):
            assert add_both(lib, ref, 0, y) is False
        assert add_both(lib, ref, 0, k + 1) == "refused"
        assert len(lib._lists[0]) == lib.edge_count == k + 1
        assert lib.counters.add.peak == k + 1
