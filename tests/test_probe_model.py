"""The scalar hash-store calls against a slot-by-slot linear-probing model.

Every op's answer, counter delta and channel peaks, the whole slot array
and the newest-first neighbor lists are compared with
:class:`_reference.LinearProbeModel` after each call, through at least four
rebuilds in both hash modes. After every call the edge count is also at
most the growth limit of the capacity, which is below the capacity, so an
empty slot always ends the probe. Weighted HashLists also carry every
edge's weight, or its lack of one, through drawn and explicit growth,
on 4-byte and on 8-byte chain cells. After each HashList rebuild the
chain arrays themselves are read: NONE in every empty slot's link, in
each oldest slot's link and in the head of every vertex without edges,
also for an empty store, a sparse one and one hub chain.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstores import (
    NONE,
    EdgeHash,
    GraphStoreError,
    HashList,
    StoreConfig,
    UnsupportedOperationError,
    hashlist,
)

from _reference import LinearProbeModel, unpack_by_arithmetic

CHANNELS = {"add": "add", "has": "contains", "newest_first": "enumerate"}
KINDS = st.sampled_from(("add", "add", "has", "newest_first"))
TOP = 2**32


def pair(cls, mode, *, n, weighted=False):
    store = cls(StoreConfig(vertex_count=n, expected_edges=1, hash_mode=mode, weighted=weighted))
    # One expected edge gives the smallest table, 16 slots.
    model = LinearProbeModel(n, 16, mode=mode, chained=cls is HashList)
    return store, model


def counters(store) -> dict:
    c = store.counters
    return {name: (c.channel(ch).ops, c.channel(ch).total, c.channel(ch).peak)
            for name, ch in CHANNELS.items()}


def model_counters(model) -> dict:
    return {name: tuple(model.counters[ch]) for name, ch in CHANNELS.items()}


def step(store, model, op: str, *args) -> None:
    """One call on both sides, then everything compared."""
    call = {"add": store.add_edge, "has": store.contains, "newest_first": store.neighbors}[op]
    if op == "newest_first" and not model.chained:
        with pytest.raises(UnsupportedOperationError):
            call(*args)
    else:
        channel = store.counters.channel(CHANNELS[op])
        before = channel.total
        expected = getattr(model, op)(*args)
        try:
            got = call(*args)
            got = (got, channel.total - before)
        except GraphStoreError as exc:
            got = (type(exc).__name__, str(exc))
        assert got == expected, (op, args)
    assert counters(store) == model_counters(model), (op, args)
    assert (store.rebuilds, store.capacity, store.edge_count) == (model.rebuilds, model.cap, model.count)
    assert store.edge_count <= store.config.growth_limit(store.capacity) < store.capacity
    assert [None if v == NONE else v for v in store._data] == model.slots, (op, args)


def drive(store, model, ops, fill, done=lambda: False) -> None:
    """The drawn ops, then add / reverse lookup / enumerate over ``fill`` until ``done()``."""
    for op, x, y in ops:
        step(store, model, op, *((x,) if op == "newest_first" else (x, y)))
    for x, y in fill:
        if done():
            break
        step(store, model, "add", x, y)
        step(store, model, "has", y, x)
        step(store, model, "newest_first", x)


@st.composite
def streams(draw, full_width=False):
    """(n, drawn ops with ids one past either end, every in-range pair shuffled)."""
    if not full_width:
        n = draw(st.integers(10, 24))
        ids = st.integers(-1, n)
        top = range(n)
    else:
        n = TOP
        ids = st.one_of(st.integers(-1, 3), st.integers(TOP - 16, TOP))
        top = range(TOP - 12, TOP)
    ops = draw(st.lists(st.tuples(KINDS, ids, ids), max_size=300))
    fill = [(x, y) for x in top for y in top]
    draw(st.randoms(use_true_random=False)).shuffle(fill)
    return n, ops, fill


@pytest.mark.parametrize("mode", ["mixer", "paper_compat"])
@pytest.mark.parametrize("cls", [EdgeHash, HashList])
@settings(max_examples=30, deadline=None)
@given(stream=streams())
def test_growing_store_follows_the_model(cls, mode, stream):
    n, ops, fill = stream
    store, model = pair(cls, mode, n=n)
    drive(store, model, ops, fill, lambda: model.rebuilds >= 4)
    assert model.rebuilds >= 4
    if cls is HashList:
        for x in range(n):
            step(store, model, "newest_first", x)


@pytest.mark.parametrize("mode", ["mixer", "paper_compat"])
@settings(max_examples=20, deadline=None)
@given(stream=streams(full_width=True))
def test_full_width_ids_follow_the_model(mode, stream):
    # Sources at or above 2**31 give codes of 2**63 and more, which a
    # rebuild has to carry through its unsigned 64-bit arithmetic.
    n, ops, fill = stream
    store, model = pair(EdgeHash, mode, n=n)
    drive(store, model, ops, fill, lambda: model.rebuilds >= 4)
    assert model.rebuilds >= 4
    assert max(code for code in model.slots if code is not None) >= 2**63


def weigh(store, model, x: int, y: int, weight: float) -> None:
    """One ``set_weight`` on both sides; it answers as the model does and records nothing."""
    before = counters(store)
    expected = model.set_weight(x, y, weight)
    try:
        got = store.set_weight(x, y, weight)
    except GraphStoreError as exc:
        got = (type(exc).__name__, str(exc))
    assert got == expected, (x, y, weight)
    assert counters(store) == before


def chains_as_the_model(store, model) -> None:
    """Slots, chain links and heads read directly, uncounted, after a rebuild."""
    assert (store.rebuilds, store.capacity, store.edge_count) == (model.rebuilds, model.cap, model.count)
    assert [None if v == NONE else v for v in store._data] == model.slots
    data, heads, nxt = store._data, store._heads, store._next
    assert all(nxt[s] == NONE for s, code in enumerate(model.slots) if code is None)
    for x in range(model.n):
        targets = model.targets.get(x, [])
        if not targets:
            assert heads[x] == NONE, x
            continue
        chain = [heads[x]]
        while len(chain) < len(targets):
            chain.append(nxt[chain[-1]])
        assert nxt[chain[-1]] == NONE, x
        assert [unpack_by_arithmetic(data[s])[1] for s in chain] == targets[::-1], x


def rebuilt_as_the_model(store, model) -> None:
    """Slots, chains and the weight of every added edge, after a rebuild."""
    chains_as_the_model(store, model)
    edges = [(x, y) for x, ys in model.targets.items() for y in ys]
    before = counters(store)
    assert [store.get_weight(x, y) for x, y in edges] == [model.get_weight(x, y) for x, y in edges]
    assert counters(store) == before
    for x in range(model.n):
        step(store, model, "newest_first", x)


def keeps_weights_through_rebuilds(mode, stream, grow_at, seed) -> HashList:
    # The drawn ops add unweighted edges; of the filled ones about a quarter
    # stay unweighted, and some are weighted while absent or weighted again.
    n, ops, fill = stream
    rnd = random.Random(seed)
    store, model = pair(HashList, mode, n=n, weighted=True)
    drive(store, model, ops, [])
    weigh(store, model, n, 0, 1.0)
    added = []
    for i, (x, y) in enumerate(fill):
        if model.rebuilds >= 4 and i > max(grow_at):
            break
        if i in grow_at:
            store.grow()
            model._grow()
            rebuilt_as_the_model(store, model)
        if rnd.random() < 0.1:
            weigh(store, model, x, y, rnd.uniform(-1e3, 1e3))
        rebuilds = model.rebuilds
        step(store, model, "add", x, y)
        added.append((x, y))
        if rnd.random() < 0.75:
            weigh(store, model, x, y, rnd.uniform(-1e3, 1e3))
        if rnd.random() < 0.1:
            weigh(store, model, *rnd.choice(added), rnd.uniform(-1e3, 1e3))
        if model.rebuilds != rebuilds:
            rebuilt_as_the_model(store, model)
    assert model.rebuilds >= 4
    rebuilt_as_the_model(store, model)
    return store


@pytest.mark.parametrize("mode", ["mixer", "paper_compat"])
@settings(max_examples=15, deadline=None)
@given(stream=streams(), grow_at=st.sets(st.integers(0, 60), min_size=1, max_size=3),
       seed=st.integers(0, 2**32))
def test_weighted_store_keeps_weights_through_rebuilds(mode, stream, grow_at, seed):
    keeps_weights_through_rebuilds(mode, stream, grow_at, seed)


@pytest.mark.parametrize("mode", ["mixer", "paper_compat"])
@settings(max_examples=5, deadline=None)
@given(stream=streams(), grow_at=st.sets(st.integers(0, 60), min_size=1, max_size=3),
       seed=st.integers(0, 2**32))
def test_eight_byte_chain_cells_keep_weights_through_rebuilds(mode, stream, grow_at, seed):
    # 8-byte cells are chosen only past 2**31 slots; patching the width in
    # runs the same rebuilds on them without allocating that many.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hashlist, "_chain_cells",
                      lambda length, cap: memoryview(array("q", [NONE]) * length))
        store = keeps_weights_through_rebuilds(mode, stream, grow_at, seed)
    assert store._heads.format == store._next.format == "q"


def _edge_cases():
    hub = [(7, y) for y in range(260)] + [(x, 7) for x in range(20)]
    random.Random(9).shuffle(hub)
    return {
        "empty": (10, []),
        "sparse": (50_000, [(49_999, 0), (0, 49_999), (25_000, 25_000)]),
        "hub": (300, hub),
    }


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("mode", ["mixer", "paper_compat"])
@pytest.mark.parametrize("case", ["empty", "sparse", "hub"])
def test_rebuilt_chains_at_the_edges(case, mode, weighted):
    # No edges at all, n far above the edge count, and one chain of 260
    # edges: each rebuild must leave NONE wherever no slot follows.
    n, edges = _edge_cases()[case]
    store, model = pair(HashList, mode, n=n, weighted=weighted)
    for k, (x, y) in enumerate(edges):
        rebuilds = model.rebuilds
        step(store, model, "add", x, y)
        if weighted and k % 3:
            weigh(store, model, x, y, float(k))
        if model.rebuilds != rebuilds:
            chains_as_the_model(store, model)
    for _ in range(2):
        store.grow()
        model._grow()
        chains_as_the_model(store, model)
        added = [(x, y) for x, ys in model.targets.items() for y in ys]
        assert [store.get_weight(x, y) if weighted else None for x, y in added] == \
            [model.get_weight(x, y) for x, y in added]
