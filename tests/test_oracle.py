from __future__ import annotations

import random

import numpy as np
import pytest

from graphstores import (ORACLE_MAX_VERTICES, ConfigError, EdgeHash, HashList, MultiList, OracleGraph,
                         StoreConfig, VertexRangeError)

from _reference import EdgeSetOracle


class TestBasics:
    def test_add_sets_cell(self):
        o = OracleGraph(4)
        assert o.add_edge(0, 1) is True
        assert o.contains(0, 1) is True
        assert o.contains(1, 0) is False

    def test_duplicate(self):
        o = OracleGraph(4)
        o.add_edge(0, 1)
        assert o.add_edge(0, 1) is False
        assert o.edge_count == 1

    def test_empty(self):
        o = OracleGraph(4)
        assert o.contains(2, 3) is False
        assert o.neighbors(2) == []

    def test_rejects_zero_vertices(self):
        with pytest.raises(ConfigError):
            OracleGraph(0)

    def test_refuses_more_than_its_cap(self):
        assert OracleGraph(ORACLE_MAX_VERTICES).vertex_count == 4096
        with pytest.raises(ConfigError, match="4096"):
            OracleGraph(ORACLE_MAX_VERTICES + 1)

    def test_range_errors(self):
        o = OracleGraph(4)
        with pytest.raises(VertexRangeError):
            o.add_edge(0, 4)
        with pytest.raises(VertexRangeError):
            o.contains(4, 0)
        with pytest.raises(VertexRangeError):
            o.neighbors(-1)


class TestConsistency:
    def _random(self, seed=17, n=60, ops=4000):
        rnd = random.Random(seed)
        o = OracleGraph(n)
        for _ in range(ops):
            o.add_edge(rnd.randrange(n), rnd.randrange(n))
        return o

    def test_recount_matches_edge_count(self):
        # the same draws as _random, tallied apart from the store
        rnd = random.Random(17)
        pairs = {(rnd.randrange(60), rnd.randrange(60)) for _ in range(4000)}
        assert self._random().edge_count == len(pairs)

    def test_logs_match_matrix(self):
        o = self._random()
        for x in range(o.vertex_count):
            log = o.neighbors(x)
            assert len(log) == len(set(log))
            assert set(log) == {y for y in range(o.vertex_count) if o.contains(x, y)}

    def test_newest_first_is_reversed_log(self):
        rnd = random.Random(17)
        n = 60
        o = OracleGraph(n)
        naive = EdgeSetOracle(n)
        for _ in range(4000):
            x, y = rnd.randrange(n), rnd.randrange(n)
            assert o.add_edge(x, y) == naive.add(x, y)
        for x in range(n):
            assert o.neighbors(x) == naive.newest_first(x)

    def test_quadratic_footprint(self):
        o = OracleGraph(128)
        assert o.slots_allocated == 128 * 128


BOOL_STORES = {
    "oracle": lambda: OracleGraph(5),
    "multilist": lambda: MultiList(5, 10),
    "edgehash": lambda: EdgeHash(StoreConfig(vertex_count=5, expected_edges=4)),
    "hashlist": lambda: HashList(StoreConfig(vertex_count=5, expected_edges=4)),
}


def bool_calls(store) -> list:
    """A bool id reads as vertex 0 or 1, as a list index does."""
    return [store.add_edge(True, 3), store.contains(True, 3), store.add_edges([True], [2]),
            store.contains_many([True, False], [2, True]), store.add_edge(1, 3),
            store.contains(1, 2), store.contains(False, 3), store.edge_count]


def test_bool_ids_answer_alike_on_every_store():
    stores = {name: make() for name, make in BOOL_STORES.items()}
    got = {name: bool_calls(store) for name, store in stores.items()}
    assert got == dict.fromkeys(stores, [True, True, [True], [True, False], False, True, False, 2])
    del stores["edgehash"]  # it does not enumerate
    assert {name: s.neighbors(True) for name, s in stores.items()} == dict.fromkeys(stores, [2, 3])


@pytest.mark.parametrize("name", BOOL_STORES)
def test_float_source_raises_type_error(name):
    """Unlike a bool, a float id is no index; the rest of the float rule is open."""
    store = BOOL_STORES[name]()
    with pytest.raises(TypeError):
        store.add_edge(1.0, 3)
    with pytest.raises(TypeError):
        store.contains(1.0, 3)


@pytest.mark.parametrize("name", BOOL_STORES)
def test_float_target_raises_type_error(name):
    """A float target is refused on insert, and the store is left as it was."""
    store = BOOL_STORES[name]()
    with pytest.raises(TypeError):
        store.add_edge(1, 2.0)
    assert store.edge_count == 0
    if store.enumerates:
        assert store.neighbors(1) == []


@pytest.mark.parametrize("name", [name for name in BOOL_STORES if name != "edgehash"])
def test_bool_target_enumerates_as_an_int(name):
    store = BOOL_STORES[name]()
    store.add_edge(1, True)
    store.add_edges([1], [False])
    assert [(v, type(v)) for v in store.neighbors(1)] == [(0, int), (1, int)]
    assert store.neighbors_many([1]) == ([0, 1], [2])


def test_refused_float_calls_are_not_counted():
    """A call that raises TypeError counts no op, on any store."""
    stores = {name: make() for name, make in BOOL_STORES.items()}
    for store in stores.values():
        store.add_edge(1, 2)
        store.contains(1, 2)
        for call in (lambda: store.add_edge(1.0, 2), lambda: store.contains(1.0, 2),
                     lambda: store.add_edge(1, 2.5), lambda: store.add_edge(1, 3.0)):
            with pytest.raises(TypeError):
                call()
    ops = {name: (s.counters.add.ops, s.counters.contains.ops) for name, s in stores.items()}
    assert ops == dict.fromkeys(stores, (1, 1))


@pytest.mark.parametrize("name", BOOL_STORES)
def test_float_query_of_a_present_edge_raises_type_error(name):
    """A float target is refused before the lookup, even where it equals a stored one."""
    store = BOOL_STORES[name]()
    store.add_edge(1, 2)
    add_total = store.counters.add.total
    for call in (lambda: store.contains(1, 2.0), lambda: store.contains(1, 3.5),
                 lambda: store.contains(1, float("nan")), lambda: store.add_edge(1, 2.0)):
        with pytest.raises(TypeError):
            call()
    counters = store.counters
    assert (counters.add.ops, counters.add.total) == (1, add_total)
    assert (counters.contains.ops, counters.contains.total) == (0, 0)
    assert store.edge_count == 1


@pytest.mark.parametrize("name", BOOL_STORES)
@pytest.mark.parametrize("x, y", [(1, 5), (5, 1), (-1, 2), (7, -3)])
def test_range_errors_read_alike_on_every_store(name, x, y):
    """A bad pair gives one message from the scalar calls and from the bulk tail,
    with list or array input, on every store; so does a bad vertex to enumerate."""
    store = BOOL_STORES[name]()
    calls = [lambda: store.add_edge(x, y), lambda: store.contains(x, y)]
    for wrap in (list, np.array):
        xs, ys = wrap([0, 2, x]), wrap([1, 3, y])
        calls += [lambda xs=xs, ys=ys: store.add_edges(xs, ys),
                  lambda xs=xs, ys=ys: store.contains_many(xs, ys)]
    messages = []
    for call in calls:
        with pytest.raises(VertexRangeError) as err:
            call()
        messages.append(str(err.value))
    assert messages == [f"edge ({x}, {y}) outside vertex range [0, 5)"] * len(calls)
    if not store.enumerates:
        return
    bad = x if not 0 <= x < 5 else y
    messages = []
    for call in (lambda: store.neighbors(bad), lambda: store.neighbors_many([0, bad]),
                 lambda: store.neighbors_many(np.array([0, bad]))):
        with pytest.raises(VertexRangeError) as err:
            call()
        messages.append(str(err.value))
    assert messages == [f"vertex {bad} outside range [0, 5)"] * 3


#: Every sized constructor, from a vertex count n and an edge size m: the
#: expected edges of a StoreConfig, or MultiList's edge capacity.
SIZED = {
    "config": StoreConfig,
    "oracle": lambda n, m: OracleGraph(n),
    "multilist": MultiList,
    "edgehash": lambda n, m: EdgeHash(StoreConfig(n, m)),
    "hashlist": lambda n, m: HashList(StoreConfig(n, m)),
}


@pytest.mark.parametrize("name", SIZED)
@pytest.mark.parametrize("n", [1.5, "5", None, 5.0])
def test_non_integer_vertex_count_is_a_config_error(name, n):
    with pytest.raises(ConfigError, match="^vertex_count must be an integer, got "):
        SIZED[name](n, 4)


@pytest.mark.parametrize("name", [name for name in SIZED if name != "oracle"])
@pytest.mark.parametrize("m", [2.5, "4", None])
def test_non_integer_edge_size_is_a_config_error(name, m):
    field = "edge_capacity" if name == "multilist" else "expected_edges"
    with pytest.raises(ConfigError, match=f"^{field} must be an integer, got "):
        SIZED[name](5, m)


@pytest.mark.parametrize("name", SIZED)
def test_size_messages(name):
    """The too-small and too-large messages, one per rule, on every constructor."""
    make = SIZED[name]
    cases = [((0, 4), "vertex_count must be positive"),
             ((1 << 33, 4), "vertex ids are limited to 32 bits")]
    if name == "multilist":
        cases.append(((5, -1), "edge_capacity must be nonnegative"))
    elif name != "oracle":
        cases.append(((5, 0), "expected_edges must be positive"))
    for args, message in cases:
        with pytest.raises(ConfigError) as err:
            make(*args)
        assert str(err.value) == message


@pytest.mark.parametrize("n, m", [(np.int64(5), np.int64(4)), (np.uint8(5), True),
                                  (True, np.int32(1))])
def test_numpy_and_bool_sizes_read_back_as_ints(n, m):
    config = StoreConfig(n, m)
    multi = MultiList(n, m)
    sizes = [config.vertex_count, OracleGraph(n).vertex_count, multi.vertex_count,
             EdgeHash(config).vertex_count, HashList(config).vertex_count]
    assert [(v, type(v)) for v in sizes] == [(int(n), int)] * 5
    edges = [config.expected_edges, multi.edge_capacity, EdgeHash(config).config.expected_edges]
    assert [(v, type(v)) for v in edges] == [(int(m), int)] * 3


def test_numpy_expected_edges_size_a_hash_store():
    assert EdgeHash(StoreConfig(5, np.int64(4))).capacity == 16
    assert HashList(StoreConfig(5, np.int64(40))).capacity == 128
    store = HashList(StoreConfig(np.int64(5), np.int64(4)))
    assert store.add_edge(4, 0) is True and store.neighbors(4) == [0]
