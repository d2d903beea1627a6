"""The int64 view of the slots that the hash stores keep for their read batches.

An ``EdgeHash`` (and so a ``HashList``) keeps at most one view, the pair
``(edge_count, table)``. It is current while the store's edge count is the
one it was keyed at: every install of a table, the only change of capacity,
drops it, and nothing is ever removed, so then it holds the slots as they
are. A bulk add into an empty table, of at least capacity / 8 pairs and
at most its growth limit, starts it, and each bulk add that numpy takes
scatters its seats into it while it is current. The read batches
(``contains_many``'s rounds, ``HashList``'s enumeration) read it exactly
while it is current, and nothing copies the slots. A stale view is freed by the next read batch or bulk add,
and every install of a table (rebuild, ``grow``) drops it.

Every test runs twin stores: one fed through the bulk calls, one through the
scalar calls. After every step the twins must agree on answers, slots,
chains, weights and counters, and a current view must equal the slots.
"""

from __future__ import annotations

import sys
import threading
from array import array
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstores import NONE, EdgeHash, HashList, StoreConfig, edgehash, hashlist
from graphstores.core import EdgeStore

STORES = [
    pytest.param(EdgeHash, False, "4-byte", id="edgehash"),
    pytest.param(HashList, False, "4-byte", id="hashlist"),
    pytest.param(HashList, False, "8-byte", id="hashlist-8-byte-cells"),
    pytest.param(HashList, True, "4-byte", id="hashlist-weighted"),
]
MODES = ["mixer", "paper_compat"]


def chain_cells(cells: str):
    """A context in which new HashList chain arrays have cells of that width."""
    if cells == "4-byte":
        return nullcontext()
    return mock.patch.object(hashlist, "_chain_cells",
                             lambda length, cap: memoryview(array("q", [NONE]) * length))


def state(store) -> dict:
    c = store.counters
    got = {"channels": [(ch.ops, ch.total, ch.peak) for ch in (c.add, c.contains, c.enumerate)],
           "edge_count": store.edge_count, "rebuilds": store.rebuilds, "capacity": store.capacity}
    for name in ("_data", "_heads", "_next", "_weights"):
        value = getattr(store, name, None)
        got[name] = list(value) if value is not None else None
    return got


def check_view(store) -> bool:
    """Whether the store has a current view, read off ``_view`` so that a stale one is
    left in place; a current one must equal the slots."""
    view = store._view
    if view is None or view[0] != store.edge_count:
        return False
    table = view[1]
    assert table.dtype == np.int64
    assert np.array_equal(table, np.fromiter(store._data, np.int64, store.capacity))
    return True


def check_reads(bulk, scalar, n: int, draw) -> None:
    """Two ``contains_many`` batches, of cap/8 - 1 and cap/8 pairs, on the path the view
    picks, and, on a HashList, one ``neighbors_many`` of every vertex: the answers and
    counters of the scalar calls."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    cap = bulk.capacity
    for size in (max(cap // 8 - 1, 1), max(cap // 8, 2)):
        asked = draw(st.lists(pair, min_size=size, max_size=size))
        qx, qy = [x for x, _ in asked], [y for _, y in asked]
        assert bulk.contains_many(qx, qy) == [scalar.contains(x, y) for x, y in zip(qx, qy)]
    if isinstance(bulk, HashList):
        vs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
        got = bulk.neighbors_many(np.array(vs))
        assert got == EdgeStore.neighbors_many(scalar, vs)
        assert all(type(v) is int for v in got[0] + got[1])
    assert state(bulk) == state(scalar)


step = st.one_of(
    st.tuples(st.just("bulk"), st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                                        max_size=120)),
    st.tuples(st.just("add"), st.integers(0, 63), st.integers(0, 63)),
    st.tuples(st.just("again"), st.integers(0, 1 << 20)),
    st.tuples(st.just("grow")),
)


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted,cells", STORES)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(1, 64), presized=st.booleans(),
       steps=st.lists(step, min_size=1, max_size=10))
def test_interleaved_history(cls, weighted, cells, hash_mode, data, n, presized, steps):
    """Large and small ``add_edges`` on presized and unsized stores (the unsized ones
    rebuild mid-batch), scalar adds of new and old pairs, and ``grow``, in any order.
    A bulk add into an empty table of at least capacity / 8 pairs and at most its
    growth limit leaves a current view; ``grow`` leaves none."""
    cfg = StoreConfig(vertex_count=n, expected_edges=64 if presized else 1,
                      hash_mode=hash_mode, weighted=weighted)
    with chain_cells(cells):
        bulk, scalar = cls(cfg), cls(cfg)
        added = []
        for op, *args in steps:
            if op == "bulk":
                pairs = [(x % n, y % n) for x, y in args[0]]
                xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
                starts = (not bulk.edge_count and len(pairs) * 8 >= bulk.capacity
                          and len(pairs) <= bulk.config.growth_limit(bulk.capacity))
                rebuilds, before = bulk.rebuilds, bulk._view
                assert bulk.add_edges(np.array(xs, np.int64), ys) == [
                    scalar.add_edge(x, y) for x, y in pairs]
                if weighted:
                    for i, (x, y) in enumerate(pairs):
                        assert bulk.set_weight(x, y, i) and scalar.set_weight(x, y, i)
                if starts and pairs and bulk.rebuilds == rebuilds:
                    assert bulk._current_view() is not None
                elif not starts:  # no view is started: the add keeps its table or drops it
                    assert bulk._view is None or bulk._view[1] is before[1]
                added += pairs
            elif op == "add":
                x, y = args[0] % n, args[1] % n
                assert bulk.add_edge(x, y) == scalar.add_edge(x, y)
                added.append((x, y))
            elif op == "again" and added:  # a duplicate: the view stays as current as it was,
                x, y = added[args[0] % len(added)]  # unless the add rebuilds first, at the limit
                current, rebuilds = bulk._current_view(), bulk.rebuilds
                assert bulk.add_edge(x, y) is scalar.add_edge(x, y) is False
                assert bulk._current_view() is (current if bulk.rebuilds == rebuilds else None)
            elif op == "grow":
                bulk.grow()
                scalar.grow()
                assert bulk._view is None
            check_view(bulk)
            assert state(bulk) == state(scalar)
            check_reads(bulk, scalar, n, data.draw)
            check_view(bulk)
        if cells == "8-byte":
            assert bulk._next.format == scalar._next.format == "q"


def distinct(count: int, n: int, seed: int):
    codes = np.random.default_rng(seed).choice(n * n, size=count, replace=False)
    return (codes // n).tolist(), (codes % n).tolist()


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted,cells", STORES)
def test_view_lifecycle(cls, weighted, cells, hash_mode):
    """The load of ``graphstores query`` leaves a current view, which read batches share
    and a later bulk add scatters into; a duplicate or a weight keeps it current. A new
    scalar seat makes it stale, the next read batch runs no round over it (its probe
    gets no view and the Python tail does it all) and frees it, and ``grow`` drops any
    view."""
    n = 256
    xs, ys = distinct(600, n, 7)
    cfg = StoreConfig(vertex_count=n, expected_edges=512, hash_mode=hash_mode, weighted=weighted)
    with chain_cells(cells):
        bulk, scalar = cls(cfg), cls(cfg)
        assert bulk.add_edges(xs[:512], ys[:512]) == [scalar.add_edge(x, y)
                                                        for x, y in zip(xs[:512], ys[:512])]
    assert bulk.capacity == 1024 and bulk.rebuilds == 0
    table = bulk._current_view()
    assert table is not None and check_view(bulk)
    qx, qy = xs[256:], ys[256:]  # half hits, half misses
    want = [scalar.contains(x, y) for x, y in zip(qx, qy)]
    assert bulk.contains_many(qx, qy) == want
    assert bulk._current_view() is table
    if cls is HashList:
        with mock.patch.object(hashlist, "_gather", side_effect=AssertionError("gathered")):
            assert bulk.neighbors_many(range(n)) == EdgeStore.neighbors_many(scalar, range(n))
        if weighted:
            assert bulk.set_weight(xs[0], ys[0], 2.5) and scalar.set_weight(xs[0], ys[0], 2.5)
        assert bulk._current_view() is table
    assert bulk.add_edge(xs[0], ys[0]) is scalar.add_edge(xs[0], ys[0]) is False
    assert bulk._current_view() is table
    # A later bulk add, of any size, scatters its seats into a current view.
    assert bulk.add_edges(xs[512:599], ys[512:599]) == [scalar.add_edge(x, y)
                                                        for x, y in zip(xs[512:599], ys[512:599])]
    assert bulk._current_view() is table and check_view(bulk)
    assert bulk.add_edge(xs[-1], ys[-1]) is scalar.add_edge(xs[-1], ys[-1]) is True
    assert not check_view(bulk) and bulk._view[1] is table  # stale, still held
    tables = []
    probe = edgehash._probe_rounds

    def spy(table, *args):
        tables.append(table)
        return probe(table, *args)

    with mock.patch.object(edgehash, "_probe_rounds", spy):
        assert bulk.contains_many(qx, qy) == [scalar.contains(x, y) for x, y in zip(qx, qy)]
    assert tables == [None]  # no round reads a stale view
    assert bulk._view is None
    if cls is HashList:
        assert bulk.neighbors_many(range(n)) == EdgeStore.neighbors_many(scalar, range(n))
    bulk.grow()
    scalar.grow()
    assert bulk._view is None
    assert state(bulk) == state(scalar)


FREEING = [
    pytest.param(EdgeHash, "contains_many", id="edgehash-contains_many"),
    pytest.param(EdgeHash, "add_edges", id="edgehash-add_edges"),
    pytest.param(HashList, "contains_many", id="hashlist-contains_many"),
    pytest.param(HashList, "neighbors_many", id="hashlist-neighbors_many"),
    pytest.param(HashList, "add_edges", id="hashlist-add_edges"),
]


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,call", FREEING)
def test_stale_view_is_freed_by_the_next_batch(cls, call, hash_mode):
    """A stale view never becomes current again, so the next read batch or bulk add
    frees it; the scalar calls leave it held, as their bodies never touch it."""
    n = 256
    xs, ys = distinct(600, n, 5)
    cfg = StoreConfig(vertex_count=n, expected_edges=512, hash_mode=hash_mode)
    bulk, scalar = cls(cfg), cls(cfg)
    assert bulk.add_edges(xs[:512], ys[:512]) == [scalar.add_edge(x, y)
                                                    for x, y in zip(xs[:512], ys[:512])]
    table = bulk._current_view()
    assert bulk.add_edge(xs[-1], ys[-1]) is scalar.add_edge(xs[-1], ys[-1]) is True
    assert bulk.contains(xs[0], ys[0]) is scalar.contains(xs[0], ys[0]) is True
    if cls is HashList:
        assert bulk.neighbors(xs[0]) == scalar.neighbors(xs[0])
    assert bulk._view[1] is table
    if call == "contains_many":
        got = bulk.contains_many(xs[256:], ys[256:])
        assert got == [scalar.contains(x, y) for x, y in zip(xs[256:], ys[256:])]
    elif call == "neighbors_many":
        assert bulk.neighbors_many(range(n)) == EdgeStore.neighbors_many(scalar, range(n))
    else:
        got = bulk.add_edges(xs[512:599], ys[512:599])
        assert got == [scalar.add_edge(x, y) for x, y in zip(xs[512:599], ys[512:599])]
    assert bulk._view is None
    assert bulk.rebuilds == 0
    assert state(bulk) == state(scalar)


@pytest.mark.parametrize("cls", [EdgeHash, HashList])
@pytest.mark.parametrize("size", [10, 1000])
def test_small_batches_start_no_view(cls, size):
    """A batch of fewer than capacity / 8 pairs into an empty presized table starts no
    view, so it pays nothing for one."""
    n = 1 << 10
    store = cls(StoreConfig(vertex_count=n, expected_edges=1 << 16))
    assert size * 8 < store.capacity
    xs, ys = distinct(size, n, 3)
    store.add_edges(xs, ys)
    assert store._view is None  # a view started by the add would still be current


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("n", [(1 << 31) + 1, 1 << 32])
def test_large_vertex_counts_build_no_view(n, hash_mode):
    """Past 2**31 vertices a code may not fit int64, so no add or read makes a view,
    and every batch answers as the scalar calls do. Only EdgeHash: a HashList would
    hold n heads here."""
    top = n - 1
    xs = [top, top, 0, (1 << 31) - 1, 1 << 31, 5]
    ys = [top, 0, top, 1 << 31, (1 << 31) - 1, 6]
    cfg = StoreConfig(vertex_count=n, expected_edges=1, hash_mode=hash_mode)
    bulk, scalar = EdgeHash(cfg), EdgeHash(cfg)
    assert bulk.add_edges(np.array(xs, np.uint64), ys) == [scalar.add_edge(x, y)
                                                           for x, y in zip(xs, ys)]
    assert bulk._view is None
    qx, qy = xs + ys + [1, 2], ys + xs + [1, 2]
    assert bulk.contains_many(np.array(qx, np.uint64), qy) == [
        scalar.contains(x, y) for x, y in zip(qx, qy)]
    assert bulk._view is None
    assert state(bulk) == state(scalar)


def test_concurrent_readers_on_a_stale_view():
    """Once mutation stops, readers may run at once: more reader threads than cores,
    switching often, each finding the view stale. All get the scalar answers, the view
    ends up freed, and no reader copies the slots."""
    n = 512
    xs, ys = distinct(3000, n, 11)
    store = HashList(StoreConfig(vertex_count=n, expected_edges=2048))
    store.add_edges(xs[:2048], ys[:2048])
    store.add_edge(xs[-1], ys[-1])  # the view is stale now
    assert store._view is not None and not check_view(store)
    qx, qy = xs[1024:], ys[1024:]
    want_hits = [store.contains(x, y) for x, y in zip(qx, qy)]
    want_runs = EdgeStore.neighbors_many(store, range(n))
    copies, wrong = [], []

    class Watched(list):
        """A slot list that logs each pass over it: a copy of the slots makes one,
        while the read paths only index it."""

        def __iter__(self):
            copies.append(threading.get_ident())
            return super().__iter__()

    store._data = Watched(store._data)

    def read():
        try:
            for _ in range(5):
                if store.contains_many(qx, qy) != want_hits:
                    wrong.append("contains_many")
                if store.neighbors_many(range(n)) != want_runs:
                    wrong.append("neighbors_many")
        except Exception as exc:  # a reader that dies must fail the test too
            wrong.append(repr(exc))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert store._view is None
    assert copies == []
    np.fromiter(store._data, np.int64, store.capacity)  # the watch does see a copy
    assert len(copies) == 1
