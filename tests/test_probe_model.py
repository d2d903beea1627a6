"""The scalar hash-store calls against a slot-by-slot linear-probing model.

Every op's answer, counter delta and channel peaks, the whole slot array
and the newest-first neighbor lists are compared with
:class:`_reference.LinearProbeModel` after each call, through at least four
rebuilds in both hash modes, and with growth off up to and past the
CapacityError of a full table. Weighted HashLists also carry every
edge's weight, or its lack of one, through drawn and explicit growth.
"""

from __future__ import annotations

import random

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
)

from _reference import LinearProbeModel, pow2_at_least

CHANNELS = {"add": "add", "has": "contains", "newest_first": "enumerate"}
KINDS = st.sampled_from(("add", "add", "has", "newest_first"))
TOP = 2**32


def pair(cls, mode, *, n, expected=1, growth=True, weighted=False):
    store = cls(StoreConfig(vertex_count=n, expected_edges=expected, hash_mode=mode,
                            growth_enabled=growth, weighted=weighted))
    # expected_edges at a max load factor of 1/2, and never below 16 slots.
    model = LinearProbeModel(n, max(16, pow2_at_least(2 * expected)), mode=mode,
                             chained=cls is HashList, growth=growth)
    return store, model


def counters(store) -> dict:
    c = store.counters
    return {name: (c.channel(ch).ops, c.channel(ch).probes, c.channel(ch).max_probes,
                   c.channel(ch).traversals, c.channel(ch).max_traversals)
            for name, ch in CHANNELS.items()}


def model_counters(model) -> dict:
    out = {}
    for name, ch in CHANNELS.items():
        ops, cost, peak = model.counters[ch]
        out[name] = (ops, 0, 0, cost, peak) if ch == "enumerate" else (ops, cost, peak, 0, 0)
    return out


def step(store, model, op: str, *args):
    """One call on both sides; returns the model's outcome after comparing everything."""
    call = {"add": store.add_edge, "has": store.contains, "newest_first": store.neighbors}[op]
    if op == "newest_first" and not model.chained:
        with pytest.raises(UnsupportedOperationError):
            call(*args)
        expected = None
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
    assert [None if v == NONE else v for v in store._data] == model.slots, (op, args)
    return expected


def drive(store, model, ops, fill, done=lambda: False) -> list:
    """The drawn ops, then add / reverse lookup / enumerate over ``fill`` until ``done()``."""
    outcomes = []
    for op, x, y in ops:
        outcomes.append(step(store, model, op, x) if op == "newest_first" else step(store, model, op, x, y))
    for x, y in fill:
        if done():
            break
        outcomes.append(step(store, model, "add", x, y))
        step(store, model, "has", y, x)
        step(store, model, "newest_first", x)
    return outcomes


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
@pytest.mark.parametrize("cls", [EdgeHash, HashList])
@settings(max_examples=20, deadline=None)
@given(stream=streams(), expected=st.integers(1, 32))
def test_full_table_without_growth_follows_the_model(cls, mode, stream, expected):
    n, ops, fill = stream
    store, model = pair(cls, mode, n=n, expected=expected, growth=False)
    outcomes = drive(store, model, ops, fill)
    assert store.edge_count == store.capacity
    assert any(out and out[0] == "CapacityError" for out in outcomes)


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


def rebuilt_as_the_model(store, model) -> None:
    """Slots, chains and the weight of every added edge, after a rebuild."""
    assert (store.rebuilds, store.capacity, store.edge_count) == (model.rebuilds, model.cap, model.count)
    assert [None if v == NONE else v for v in store._data] == model.slots
    edges = [(x, y) for x, ys in model.targets.items() for y in ys]
    before = counters(store)
    assert [store.get_weight(x, y) for x, y in edges] == [model.get_weight(x, y) for x, y in edges]
    assert counters(store) == before
    for x in range(model.n):
        step(store, model, "newest_first", x)


@pytest.mark.parametrize("mode", ["mixer", "paper_compat"])
@settings(max_examples=15, deadline=None)
@given(stream=streams(), grow_at=st.sets(st.integers(0, 60), min_size=1, max_size=3),
       seed=st.integers(0, 2**32))
def test_weighted_store_keeps_weights_through_rebuilds(mode, stream, grow_at, seed):
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
