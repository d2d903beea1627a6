"""Bulk methods against the scalar calls they stand for.

Every test runs twin stores: one fed through ``add_edges`` /
``contains_many``, one through a loop of ``add_edge`` (+ ``set_weight``) /
``contains`` over the same ids as Python ints. A weighted batch's weights
are set with ``set_weight`` on both twins, on the bulk one after its
``add_edges``, so every later batch's rebuilds must carry them. The twins
must agree on answers, raised errors and every piece of state a caller or
the counters can see: slot contents, chains, weights, rebuilds, capacity
and each channel's (ops, total, peak).
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphstores import (
    EdgeHash,
    HashList,
    MultiList,
    NONE,
    OracleGraph,
    StoreConfig,
    VertexRangeError,
)
from graphstores import edgehash

STORES = [
    pytest.param(EdgeHash, False, id="edgehash"),
    pytest.param(HashList, False, id="hashlist"),
    pytest.param(HashList, True, id="hashlist-weighted"),
]
MODES = ["mixer", "paper_compat"]
# uint32 holds every id below 2**32; the parse kernel computes in it for tokens of up to 9 digits.
FORMS = ["list", "int64", "uint64", "uint32"]


def state(store) -> dict:
    """Everything the twins must agree on after each batch.

    Also asserts that the edge count is at most the growth limit of the
    capacity, which is below the capacity: an empty slot ends every probe.
    """
    assert store.edge_count <= store.config.growth_limit(store.capacity) < store.capacity
    c = store.counters
    got = {"channels": [(ch.ops, ch.total, ch.peak) for ch in (c.add, c.contains, c.enumerate)],
           "edge_count": store.edge_count}
    for name in ("_data", "_heads", "_next", "_weights", "rebuilds", "capacity"):
        got[name] = getattr(store, name, None)
    return got


def scalar_adds(store, xs, ys, ws=None):
    out = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        out.append(store.add_edge(x, y))
        if ws is not None and ws[i] is not None:
            store.set_weight(x, y, ws[i])
    return out


def bulk_adds(store, xs, ys, ws=None):
    """``add_edges``, then ``set_weight`` per pair in order where ``ws`` holds a weight,
    with the ids as Python ints."""
    out = store.add_edges(xs, ys)
    if ws is not None:
        for x, y, w in zip(np.asarray(xs).tolist(), np.asarray(ys).tolist(), ws):
            if w is not None:
                store.set_weight(x, y, w)
    return out


def run_scalar(fn, *args):
    """(answers, None) or (None, (error class, message)) from a scalar loop."""
    try:
        return fn(*args), None
    except Exception as exc:  # the twin must raise the same class and message
        return None, (type(exc), str(exc))


def shaped(ids: list[int], form: str):
    """The same ids as a plain list or an int64, uint64 or uint32 array. A case whose
    ids do not fit in uint32 skips that form."""
    if form == "list":
        return list(ids)
    if form == "uint32" and not all(0 <= v <= 0xFFFFFFFF for v in ids):
        pytest.skip("ids do not fit in uint32")
    return np.array(ids, dtype=np.dtype(form))


batch = st.lists(
    st.tuples(st.booleans(), st.integers(0, 11), st.integers(0, 11),
              st.one_of(st.none(), st.integers(-5, 5))),
    max_size=40,
)


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), batches=st.lists(batch, max_size=6),
       form=st.sampled_from(FORMS), expected=st.sampled_from([1, 16, 256]))
def test_bulk_matches_scalar(cls, weighted, hash_mode, n, batches, form, expected):
    """Stores grow from expected_edges=1, so rebuilds fall inside batches, which then
    run the scalar calls; presized stores take whole batches, duplicates included, in
    numpy."""
    cfg = StoreConfig(vertex_count=n, expected_edges=expected, hash_mode=hash_mode,
                      weighted=weighted)
    bulk, scalar = cls(cfg), cls(cfg)
    for ops in batches:
        is_add = bool(ops) and ops[0][0]
        xs = [x % n for _, x, _, _ in ops]
        ys = [n - 1 if y >= n else y for _, _, y, _ in ops]  # ids at n - 1 on purpose
        ws = [w for _, _, _, w in ops] if weighted else None
        if is_add:
            want = scalar_adds(scalar, xs, ys, ws)
            args = (shaped(xs, form), shaped(ys, form))
            got = bulk_adds(bulk, *args, ws)
        else:
            want = [scalar.contains(x, y) for x, y in zip(xs, ys)]
            got = bulk.contains_many(shaped(xs, form), shaped(ys, form))
        assert got == want
        assert state(bulk) == state(scalar)
    if cls is HashList:
        assert [bulk.neighbors(v) for v in range(n)] == [scalar.neighbors(v) for v in range(n)]


def snapshot(store) -> dict:
    """``state`` with every slot, chain and weight array copied, to compare across a call."""
    return {name: list(v) if isinstance(v, (list, memoryview)) else v
            for name, v in state(store).items()}


@contextmanager
def read_path():
    """Yields a list that gains, for each batch ``contains_many`` hands to
    ``_probe_rounds``, "view" if the call got the int64 view of the slots to run
    its rounds over, else "no-view"; a batch the scalar calls take adds nothing."""
    paths = []
    rounds = edgehash._probe_rounds

    def spy(table, *args):
        paths.append("no-view" if table is None else "view")
        return rounds(table, *args)

    with mock.patch.object(edgehash, "_probe_rounds", spy):
        yield paths


def expected_path(store) -> str:
    """What a valid batch hands ``_probe_rounds``: the view iff it is current."""
    view = store._view
    return "view" if view is not None and view[0] == store.edge_count else "no-view"


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), edges=st.integers(2, 80),
       built=st.sampled_from(["bulk", "scalar", "seat"]),
       side=st.sampled_from(["one", "below", "above"]), form=st.sampled_from(FORMS))
def test_read_paths_match_scalar(cls, weighted, hash_mode, data, n, edges, built, side, form):
    """A store bulk-loaded into a presized table holds a current view, and batches of
    1, cap/8 - 1 and 4 * cap valid pairs all hand it to ``_probe_rounds``; a store built
    by scalar adds, or given one new scalar seat after the load, holds none, and its
    batches are probed by the Python tail alone. Either way: the same answers and
    counters as the scalar loop, and the reads change no slot, chain, weight or other
    counter."""
    cfg = StoreConfig(vertex_count=n, expected_edges=edges, hash_mode=hash_mode,
                      weighted=weighted)
    bulk, scalar = cls(cfg), cls(cfg)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    stored = data.draw(st.lists(pair, min_size=edges, max_size=edges))
    xs, ys = [x for x, _ in stored], [y for _, y in stored]
    want = scalar_adds(scalar, xs, ys)
    assert (scalar_adds(bulk, xs, ys) if built == "scalar" else bulk.add_edges(xs, ys)) == want
    if built == "seat":
        seen = set(stored)
        fresh = [(x, y) for x in range(n) for y in range(n) if (x, y) not in seen]
        assume(fresh)
        assert bulk.add_edge(*fresh[0]) is scalar.add_edge(*fresh[0]) is True
    assert expected_path(bulk) == ("view" if built == "bulk" else "no-view")
    cap = bulk.capacity
    size = {"one": 1, "below": cap // 8 - 1, "above": 4 * cap}[side]
    asked = data.draw(st.lists(st.one_of(st.sampled_from(stored), pair),
                               min_size=size, max_size=size))
    qx, qy = [x for x, _ in asked], [y for _, y in asked]
    before = snapshot(bulk)
    with read_path() as paths:
        got = bulk.contains_many(shaped(qx, form), shaped(qy, form))
    assert paths == (["view"] if built == "bulk" else ["no-view"])
    assert (bulk._view is None) == (built != "bulk")  # a stale view is freed by the read
    assert got == [scalar.contains(x, y) for x, y in zip(qx, qy)]
    after = snapshot(bulk)
    assert after == snapshot(scalar)
    assert {**after, "channels": None} == {**before, "channels": None}
    assert after["channels"][0] == before["channels"][0]  # the add channel


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("n,path", [(1 << 31, "view"), ((1 << 31) + 1, "no-view")])
def test_read_path_by_vertex_count(n, path, hash_mode, form, monkeypatch):
    """At n = 2**31 every code fits int64, up to 2**63 - 1, so the load makes a view
    and, with the tail cut to nothing, every probe runs in rounds over it; at 2**31 + 1
    a code may reach 2**63, so no view is made and the Python tail probes alone. Its
    codes must be the uint64 ones: their int64 view would turn a code of 2**63 or more
    negative, and it would match no slot. Only EdgeHash: a HashList or MultiList would
    hold n heads here."""
    monkeypatch.setattr(edgehash, "_ROUND_MIN", 0)
    top = n - 1
    ids = [top, top - 1, top - 2, (1 << 31) - 1, 1 << 30, 0]
    xs = [top, top, top - 1, 0, 1 << 30, top - 2]
    ys = [top, 0, top - 2, top, 1 << 30, top - 1]
    qx, qy = ids + xs + [top] * 6, xs + ids + ids
    cfg = StoreConfig(vertex_count=n, expected_edges=1, hash_mode=hash_mode)
    bulk, scalar = EdgeHash(cfg), EdgeHash(cfg)
    assert bulk.add_edges(shaped(xs, form), shaped(ys, form)) == scalar_adds(scalar, xs, ys)
    assert max(bulk._data) == (top << 32) | top
    with read_path() as paths:
        got = bulk.contains_many(shaped(qx, form), shaped(qy, form))
    assert expected_path(bulk) == path
    assert paths == [path]
    assert got == [scalar.contains(x, y) for x, y in zip(qx, qy)]
    assert any(got) and not all(got)
    assert snapshot(bulk) == snapshot(scalar)


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
@pytest.mark.parametrize("j", [2, 5, 9])
def test_bad_id_on_the_rounds_path(cls, weighted, hash_mode, j):
    """A bad id at index j of a 10-pair batch on a 16-slot table, which
    ``_probe_rounds`` would take whole (the load left a current view): the j valid pairs
    before it take the scalar calls, are counted as a scalar loop stopped at j counts
    them, and then the same VertexRangeError is raised."""
    cfg = StoreConfig(vertex_count=8, expected_edges=4, hash_mode=hash_mode, weighted=weighted)
    bulk, scalar = cls(cfg), cls(cfg)
    xs, ys = [0, 5, 7, 3, 1, 2], [0, 5, 7, 1, 3, 2]
    bulk.add_edges(xs, ys)
    scalar_adds(scalar, xs, ys)
    assert bulk.capacity == 16
    qx, qy = [0, 5, 1, 3, 7, 6, 2, 4, 5, 0], [0, 5, 3, 3, 7, 6, 2, 4, 0, 1]
    qy[j] = 8
    _, want = run_scalar(lambda: [scalar.contains(x, y) for x, y in zip(qx, qy)])
    with read_path() as paths, pytest.raises(VertexRangeError) as info:
        bulk.contains_many(np.array(qx), qy)
    assert paths == []
    assert (info.type, str(info.value)) == want
    assert snapshot(bulk) == snapshot(scalar)
    assert bulk.counters.contains.ops == j


EDGE_CASES = [
    pytest.param([], [], [], id="empty"),
    pytest.param([1, 2], [2, 1], ["view"], id="two-pairs-16-slots"),
    pytest.param(np.array([1.0, 2.0, 3.0, 0.0]), np.array([2.0, 1.0, 3.0, 0.0]), [],
                 id="float-ids"),
]


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
@pytest.mark.parametrize("qx,qy,path", EDGE_CASES)
def test_read_path_edge_cases(cls, weighted, hash_mode, qx, qy, path):
    """An empty batch and float ids go to the scalar calls, which answer or raise what
    they always do; two pairs take ``_probe_rounds`` with the view the load left."""
    cfg = StoreConfig(vertex_count=4, expected_edges=2, hash_mode=hash_mode, weighted=weighted)
    bulk, scalar = cls(cfg), cls(cfg)
    bulk.add_edges([1, 3], [2, 3])
    scalar_adds(scalar, [1, 3], [2, 3])
    assert bulk.capacity == 16
    want = run_scalar(lambda: [scalar.contains(x, y) for x, y in zip(qx, qy)])
    with read_path() as paths:
        got = run_scalar(bulk.contains_many, qx, qy)
    assert paths == path
    assert got == want
    assert snapshot(bulk) == snapshot(scalar)


class Reads:
    """Counts the slots ``contains_many`` reads from here on: off the int64 view in a
    round, and off ``_data`` in the Python tail. Every probe reads one slot, so the two
    sum to the probes the contains channel records."""

    def __init__(self, store):
        self.view = self.slots = 0
        reads = self

        class View(np.ndarray):
            def __getitem__(self, index):
                if isinstance(index, np.ndarray):  # a round's gather, one slot per query
                    reads.view += len(index)
                return super().__getitem__(index)

        class Slots(list):
            def __getitem__(self, index):
                reads.slots += 1
                return super().__getitem__(index)

        store._data = Slots(store._data)
        if store._view is not None:
            store._view = (store._view[0], store._view[1].view(View))


def deep_cluster(cls, weighted):
    """Twin stores, bulk-loaded and scalar-loaded, whose 240 edges (x, 333333) fill one
    cluster from slot 0: in paper_compat mode every such edge homes to slot 0."""
    xs, ys = list(range(240)), [333333] * 240
    cfg = StoreConfig(vertex_count=1 << 19, expected_edges=240, hash_mode="paper_compat",
                      weighted=weighted)
    bulk, scalar = cls(cfg), cls(cfg)
    assert bulk.add_edges(np.array(xs), ys) == scalar_adds(scalar, xs, ys)
    assert bulk._data[:240] == [(x << 32) | 333333 for x in xs]  # one cluster from slot 0
    return bulk, scalar


@pytest.mark.parametrize("cls,weighted", STORES)
@pytest.mark.parametrize("size", [1, 16])
def test_deep_cluster_through_the_rounds(cls, weighted, size):
    """Batches of 1 and 16 pairs into the cluster get the view the load left, but are
    no more than ``_ROUND_MIN`` queries, so the Python tail probes them alone, down to
    the cluster's end, and no round reads a slot of the view. They give the answers and
    counters of the scalar calls."""
    bulk, scalar = deep_cluster(cls, weighted)
    n = bulk.vertex_count
    asked = [(239, 333333), (240, 333333), (100, 333333), (0, 333333), (5, 6),
             (n - 1, 333333), (150, 333333), (333333, 333333)]
    for batch in [[q] for q in asked] if size == 1 else [asked * 2, asked[::-1] * 2]:
        qx, qy = [x for x, _ in batch], [y for _, y in batch]
        total = bulk.counters.contains.total
        reads = Reads(bulk)
        with read_path() as paths:
            got = bulk.contains_many(np.array(qx, np.uint64), qy)
        assert paths == ["view"]
        assert (reads.view, reads.slots) == (0, bulk.counters.contains.total - total)
        assert got == [scalar.contains(x, y) for x, y in zip(qx, qy)]
        assert snapshot(bulk) == snapshot(scalar)
    assert bulk.counters.contains.peak == 241  # a miss walks the whole cluster


@pytest.mark.parametrize("cls,weighted", STORES)
def test_cluster_crosses_the_round_threshold(cls, weighted):
    """150 queries into the cluster, shuffled: 130 hits, query (k, 333333) ending at
    probe k + 1, and 20 misses that walk all 240 slots and the empty one after. After
    round r, 150 - r are live, so the rounds stop at ``_ROUND_MIN`` live queries, each
    in mid-probe, and the tail finishes them from the slot the rounds left each at. The
    rounds read exactly their own probes off the view, the tail the rest off ``_data``,
    and answers and counters are those of the scalar calls."""
    bulk, scalar = deep_cluster(cls, weighted)
    batch = [(k, 333333) for k in range(130)] + [(240 + k, 333333) for k in range(20)]
    np.random.default_rng(3).shuffle(batch)
    qx, qy = [x for x, _ in batch], [y for _, y in batch]
    rounds = len(batch) - edgehash._ROUND_MIN
    assert 0 < rounds < 130  # hits as well as misses are live at the seam
    reads = Reads(bulk)
    got = bulk.contains_many(np.array(qx), np.array(qy))
    assert reads.view == sum(len(batch) - r for r in range(rounds))
    assert reads.view + reads.slots == bulk.counters.contains.total
    assert got == [scalar.contains(x, y) for x, y in zip(qx, qy)]
    assert snapshot(bulk) == snapshot(scalar)
    assert bulk.counters.contains.peak == 241


PROBE_HALVES = {"rounds": 0, "tail": 1 << 31}


@pytest.mark.parametrize("view", [True, False], ids=["view", "no-view"])
@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
@pytest.mark.parametrize("half", PROBE_HALVES)
def test_probe_through_each_half(half, cls, weighted, hash_mode, view, monkeypatch):
    """``edgehash._ROUND_MIN`` at 0 runs a batch's probe in rounds alone, down to the
    last query, when the view is current; above the batch, in the Python tail alone.
    Without a view no round runs. (``hashlist`` binds the name by import, so patching
    ``edgehash`` leaves ``_walk`` as it is.) Each way: the answers, counters and slots of
    the scalar calls; the rounds read their slots off the view, the tail off ``_data``;
    and a batch that runs no round makes no bool array, but answers with the tail's list
    as it is."""
    monkeypatch.setattr(edgehash, "_ROUND_MIN", PROBE_HALVES[half])
    n = 64
    rng = np.random.default_rng(11)
    xs, ys = rng.integers(0, n, 300).tolist(), rng.integers(0, n, 300).tolist()
    cfg = StoreConfig(vertex_count=n, expected_edges=300, hash_mode=hash_mode,
                      weighted=weighted)
    bulk, scalar = cls(cfg), cls(cfg)
    assert bulk.add_edges(xs, ys) == scalar_adds(scalar, xs, ys)
    if not view:  # one new scalar seat makes the view stale
        seen = set(zip(xs, ys))
        fresh = next((x, y) for x in range(n) for y in range(n) if (x, y) not in seen)
        assert bulk.add_edge(*fresh) is scalar.add_edge(*fresh) is True
    qx, qy = rng.integers(0, n, 200), rng.integers(0, n, 200)
    reads = Reads(bulk)
    with read_path() as paths, mock.patch.object(np, "zeros", wraps=np.zeros) as zeros:
        got = bulk.contains_many(qx, qy)
    rounds = view and half == "rounds"
    total = bulk.counters.contains.total
    assert (reads.view, reads.slots) == ((total, 0) if rounds else (0, total))
    assert zeros.call_count == int(rounds)
    assert paths == ["view" if view else "no-view"]
    assert got == [scalar.contains(x, y) for x, y in zip(qx.tolist(), qy.tolist())]
    assert any(got) and not all(got)
    assert snapshot(bulk) == snapshot(scalar)


def test_mid_batch_rebuilds_in_one_call():
    """A 3000-edge batch from 16 slots crosses every growth step inside the call; the
    weights of a first, 40-edge batch ride through all of them."""
    rng = np.random.default_rng(5)
    xs, ys = rng.integers(0, 64, 3040), rng.integers(0, 64, 3040)
    ws = rng.integers(0, 100, 40).tolist()
    for hash_mode in MODES:
        cfg = StoreConfig(vertex_count=64, expected_edges=1, hash_mode=hash_mode, weighted=True)
        bulk, scalar = HashList(cfg), HashList(cfg)
        first = (xs[:40].tolist(), ys[:40].tolist())
        assert bulk_adds(bulk, *first, ws) == scalar_adds(scalar, *first, ws)
        assert bulk.rebuilds == 2
        assert bulk.add_edges(xs[40:], ys[40:]) == scalar_adds(scalar, xs[40:].tolist(), ys[40:].tolist())
        assert bulk.rebuilds >= 6
        assert state(bulk) == state(scalar)
        assert [bulk.get_weight(*e) for e in zip(*first)] == [scalar.get_weight(*e) for e in zip(*first)]
        assert any(bulk.get_weight(*e) for e in zip(*first))
        qx, qy = rng.integers(0, 64, 2000), rng.integers(0, 64, 2000)
        assert bulk.contains_many(qx, qy) == [scalar.contains(x, y) for x, y in zip(qx.tolist(), qy.tolist())]
        assert state(bulk) == state(scalar)


# --- the growth limit: numpy takes a batch that fits below it, the scalar calls any other ---

NAN = float("nan")
# 16 slots at expected_edges=1: growth_limit(16) = 11 seats fit before a rebuild.
LIMIT16 = 11


def weights_seen(store):
    """The weight list with nan spelled out, so two nan weights compare equal."""
    weights = getattr(store, "_weights", None)
    return None if weights is None else ["nan" if w != w else w for w in weights]


def assert_same_segments(cls, weighted, hash_mode, n, before, batches):
    """Twins grown from 16 slots: ``before`` added one pair at a time on both, then each
    batch of (x, y, weight) triples through ``add_edges`` and then ``set_weight`` on
    one and the scalar calls on the other. Answers, slots, chain-cell bytes, weights,
    counters and rebuilds must agree after every batch."""
    cfg = StoreConfig(vertex_count=n, expected_edges=1, hash_mode=hash_mode, weighted=weighted)
    bulk, scalar = cls(cfg), cls(cfg)
    for store in (bulk, scalar):
        scalar_adds(store, [x for x, _ in before], [y for _, y in before])
    for triples in batches:
        xs, ys, ws = ([t[i] for t in triples] for i in range(3))
        want = scalar_adds(scalar, xs, ys, ws if weighted else None)
        got = bulk_adds(bulk, xs, ys, ws if weighted else None)
        assert got == want
        assert state(bulk) == {**state(scalar), "_weights": getattr(bulk, "_weights", None)}
        assert weights_seen(bulk) == weights_seen(scalar)
        if cls is HashList:
            assert bytes(bulk._heads) == bytes(scalar._heads)
            assert bytes(bulk._next) == bytes(scalar._next)
    return bulk


def distinct_pairs(count: int, n: int, seed: int) -> list:
    return np.random.default_rng(seed).permutation(n * n)[:count].tolist()


def triples(codes, n: int, weights=None) -> list:
    ws = weights if weights is not None else [None] * len(codes)
    return [(c // n, c % n, w) for c, w in zip(codes, ws)]


# Each batch of the fit test, from the distinct pairs it may seat: its length over the room,
# and how many of those pairs it seats.
FITS = {
    "room-one-duplicate": lambda fresh: fresh[:-1] + fresh[:1],
    "room-all-new": lambda fresh: fresh,
    "room+1-two-duplicates": lambda fresh: fresh[:-1] + fresh[:2],
}


@pytest.mark.parametrize("case", FITS)
@pytest.mark.parametrize("before", [0, 10])
@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
def test_numpy_takes_a_batch_that_fits_below_the_growth_limit(cls, weighted, hash_mode,
                                                              before, case):
    """``room`` is the seats left below the growth limit after ``before`` scalar adds.
    A batch of ``room`` pairs goes to numpy: one ``_book`` call and no ``add_edge``
    call, and on an empty table it starts the view; one that fills the table to the
    limit rebuilds nothing. A batch of ``room + 1`` pairs runs ``add_edge`` for every
    pair, though it seats what the first room batch seats and stays below the limit.
    Either way the twins agree."""
    n = 40
    cfg = StoreConfig(vertex_count=n, expected_edges=64, hash_mode=hash_mode, weighted=weighted)
    bulk, scalar = cls(cfg), cls(cfg)
    room = cfg.growth_limit(bulk.capacity) - before
    codes = distinct_pairs(before + room, n, 8)
    for store in (bulk, scalar):
        scalar_adds(store, [c // n for c in codes[:before]], [c % n for c in codes[:before]])
    seq = FITS[case](codes[before:])
    fits = len(seq) <= room
    xs, ys = [c // n for c in seq], [c % n for c in seq]
    ws = [k / 4 for k in range(len(seq))] if weighted else None
    want = scalar_adds(scalar, xs, ys, ws)
    with mock.patch.object(cls, "add_edge", autospec=True, side_effect=cls.add_edge) as add, \
            mock.patch.object(cls, "_book", autospec=True, side_effect=cls._book) as book:
        got = bulk.add_edges(np.array(xs), np.array(ys))
    if weighted:
        for x, y, w in zip(xs, ys, ws):
            bulk.set_weight(x, y, w)
    assert len(seq) == room + (not fits)
    assert got == want
    assert (book.call_count, add.call_count) == ((1, 0) if fits else (0, len(seq)))
    assert (bulk._current_view() is not None) == (fits and not before)
    if fits and not before:
        assert np.array_equal(bulk._view[1], np.fromiter(bulk._data, np.int64, bulk.capacity))
    assert bulk.rebuilds == 0 and bulk.edge_count == before + len(set(seq))
    assert state(bulk) == state(scalar)
    assert weights_seen(bulk) == weights_seen(scalar)


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
def test_batch_ending_exactly_at_the_growth_limit(cls, weighted, hash_mode):
    """A batch whose last pair fills the table to the limit rebuilds nothing; the next
    add, a duplicate here, rebuilds first, as ``add_edge`` does."""
    codes = distinct_pairs(LIMIT16, 20, 1)
    batch = triples(codes[:6] + codes[:2] + codes[6:], 20, [0.5, None] * 6 + [NAN])
    bulk = assert_same_segments(cls, weighted, hash_mode, 20, [], [batch])
    assert (bulk.rebuilds, bulk.edge_count, bulk.capacity) == (0, LIMIT16, 16)
    bulk = assert_same_segments(cls, weighted, hash_mode, 20, [], [batch, triples(codes[3:4], 20)])
    assert (bulk.rebuilds, bulk.edge_count) == (1, LIMIT16)


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
def test_one_batch_across_several_rebuilds(cls, weighted, hash_mode):
    codes = distinct_pairs(300, 40, 2)
    weights = [None if k % 4 == 0 else k / 8 for k in range(300)]
    bulk = assert_same_segments(cls, weighted, hash_mode, 40, [], [triples(codes, 40, weights)])
    assert bulk.rebuilds >= 5


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
def test_duplicate_of_a_code_from_an_earlier_segment(cls, weighted, hash_mode):
    """The second half repeats codes seated before the batch's first rebuild (now moved
    by it) and gives some of them new weights, some None."""
    codes = distinct_pairs(40, 30, 3)
    again = codes[:12][::-1]
    weights = [1.0] * 40 + [None, 2.5, NAN, None] * 3
    bulk = assert_same_segments(cls, weighted, hash_mode, 30, [],
                                [triples(codes + again, 30, weights)])
    assert bulk.rebuilds >= 2


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
def test_batch_into_a_non_empty_store(cls, weighted, hash_mode):
    """Seven edges are in before the batch, so its first pass has room for four
    seats; the batch also repeats two of the seven and adds to their sources' chains."""
    codes = distinct_pairs(60, 25, 4)
    before = [(c // 25, c % 25) for c in codes[:7]]
    batch = triples(codes[7:9] + codes[:2] + codes[9:], 25, [NAN, 3.0] * 30)
    bulk = assert_same_segments(cls, weighted, hash_mode, 25, before, [batch, batch[:5]])
    assert bulk.rebuilds >= 3


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
def test_weights_with_none_gaps(cls, weighted, hash_mode):
    """Per edge, the last weight that is not None wins, nan included; None keeps it."""
    codes = distinct_pairs(8, 10, 5)
    seq = codes + codes[:4] + codes[:4] + codes[2:6]
    weights = ([None, 1.0, NAN, None, 4.0, None, 6.0, 7.0] + [NAN, None, 2.0, None]
               + [None, None, 9.0, 0.0] + [None, 5.0, None, NAN])
    bulk = assert_same_segments(cls, weighted, hash_mode, 10, [], [triples(seq, 10, weights)] * 2)
    if weighted:
        got = {(x, y): bulk.get_weight(x, y) for x, y, _ in triples(codes, 10)}
        x, y = divmod(codes[2], 10)
        assert got[x, y] == 9.0
        x, y = divmod(codes[5], 10)
        assert got[x, y] != got[x, y]  # nan, given last, after 6.0


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
def test_duplicates_into_a_store_one_seat_short_of_its_limit(cls, weighted, hash_mode):
    """A batch of more than 8,192 duplicates into a table with room for one seat seats
    nothing. The second batch's one new code fills the table to its limit, and the
    duplicate after it rebuilds first."""
    codes = distinct_pairs(LIMIT16 - 1, 20, 7)
    before = [divmod(c, 20) for c in codes]
    dups = codes * (8192 // len(codes) + 1)
    new = distinct_pairs(LIMIT16, 20, 7)[-1:]
    weights = [(None, 1.5, NAN)[k % 3] for k in range(len(dups))]
    bulk = assert_same_segments(cls, weighted, hash_mode, 20, before,
                                [triples(dups, 20, weights), triples(dups[:7] + new + dups[:5], 20)])
    assert (bulk.rebuilds, bulk.edge_count) == (1, LIMIT16)


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
def test_homes_masked_a_chunk_at_a_time(cls, weighted, hash_mode):
    """Duplicates make the table reach its limit only after more pairs than it has
    seats, several times within one batch. The last ten pairs are in the store before
    the batch."""
    codes = distinct_pairs(200, 30, 6)
    before = [divmod(c, 30) for c in codes[190:]]
    seq = codes[:50] + codes[:20] + codes[50:120] + codes[10:60] + codes[120:] + codes[::7]
    bulk = assert_same_segments(cls, weighted, hash_mode, 30, before,
                                [triples(seq, 30), triples(codes[::3], 30)])
    assert bulk.rebuilds >= 4


def test_all_ones_code_at_32_bit_vertex_count():
    """With 2**32 vertices, (2**32-1, 2**32-1) packs to 2**64-1 and is a legal edge."""
    top = (1 << 32) - 1
    xs, ys = [top, 0, top, top, 5], [top, top, 0, top, 6]
    for hash_mode in MODES:
        cfg = StoreConfig(vertex_count=1 << 32, expected_edges=1, hash_mode=hash_mode)
        for form in ("list", "uint64", "int64"):
            bulk, scalar = EdgeHash(cfg), EdgeHash(cfg)
            assert bulk.add_edges(shaped(xs, form), shaped(ys, form)) == scalar_adds(scalar, xs, ys)
            assert (1 << 64) - 1 in bulk._data
            qx, qy = [top, top, 0, 1], [top, 1, top, top]
            got = bulk.contains_many(shaped(qx, form), shaped(qy, form))
            assert got == [scalar.contains(x, y) for x, y in zip(qx, qy)] == [True, False, True, False]
            assert state(bulk) == state(scalar)


FULL = 1 << 32
# Full-width ids, plus the ids around compat's zero line y = 333333 and
# around 2**31 + 333333, where the wrapped product reaches -2**63.
wide_id = st.one_of(
    st.integers(0, FULL - 1),
    st.integers(333333 - 2, 333333 + 2),
    st.integers(2**31 + 333333 - 2, 2**31 + 333333 + 2),
    st.sampled_from([FULL - 111111, FULL - 1]),
)


def run_full_width_twins(hash_mode, form, batches):
    """EdgeHash twins over 2**32 vertices, growing from 16 slots, so codes at
    and above 2**63 are keyed in each batch and re-keyed by mid-batch
    rebuilds. Only EdgeHash: a HashList would hold 2**32 heads here."""
    cfg = StoreConfig(vertex_count=FULL, expected_edges=1, hash_mode=hash_mode)
    bulk, scalar = EdgeHash(cfg), EdgeHash(cfg)
    for pairs in batches:
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        assert bulk.add_edges(shaped(xs, form), shaped(ys, form)) == scalar_adds(scalar, xs, ys)
        assert state(bulk) == state(scalar)
        qx, qy = xs + ys, ys + xs  # every stored pair, then mostly misses
        got = bulk.contains_many(shaped(qx, form), shaped(qy, form))
        assert got == [scalar.contains(x, y) for x, y in zip(qx, qy)]
        assert state(bulk) == state(scalar)
    return bulk



@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("hash_mode", MODES)
@settings(max_examples=30, deadline=None)
@given(batches=st.lists(st.lists(st.tuples(wide_id, wide_id), min_size=1, max_size=60),
                        min_size=1, max_size=4))
def test_full_width_bulk_matches_scalar(hash_mode, form, batches):
    run_full_width_twins(hash_mode, form, batches)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("hash_mode", MODES)
def test_full_width_rebuilds_rekey_high_codes(hash_mode, form):
    rng = np.random.default_rng(12)
    near = rng.choice([333333, 2**31 + 333333, FULL - 111111], 2400) + rng.integers(-2, 3, 2400)
    ids = np.where(rng.random(2400) < 0.5, rng.integers(0, FULL, 2400), near).tolist()
    pairs = list(zip(ids[:1200], ids[1200:]))
    bulk = run_full_width_twins(hash_mode, form, [pairs[:400], pairs[400:]])
    assert bulk.rebuilds >= 6
    assert max(bulk._data) >= 1 << 63


@pytest.mark.parametrize("make", [lambda: MultiList(10, 30), lambda: OracleGraph(10)],
                         ids=["multilist", "oracle"])
def test_edge_store_defaults(make):
    bulk, scalar = make(), make()
    xs, ys = [1, 2, 1, 9, 0, 1], [2, 1, 2, 9, 0, 3]
    assert bulk.add_edges(np.array(xs), ys) == scalar_adds(scalar, xs, ys) == [True] * 2 + [False] + [True] * 3
    qx, qy = [1, 2, 3, 9], [2, 2, 1, 9]
    assert bulk.contains_many(qx, np.array(qy)) == [scalar.contains(x, y) for x, y in zip(qx, qy)]
    c, d = bulk.counters, scalar.counters
    for a, b in ((c.add, d.add), (c.contains, d.contains)):
        assert (a.ops, a.total, a.peak) == (b.ops, b.total, b.peak)
    assert [bulk.neighbors(v) for v in range(10)] == [scalar.neighbors(v) for v in range(10)]
    with pytest.raises(VertexRangeError):
        bulk.add_edges([1, 10], [2, 3])
    assert bulk.edge_count == scalar.edge_count


# --- empty slots: the bulk loops test ``held is NONE`` ---

def assert_empty_slots_are_none(store):
    """Every slot holds a code, a Python int >= 0, or the NONE object itself, and the
    NONE slots number capacity - edge_count: so ``held is NONE`` finds exactly the
    empty slots."""
    data = store._data
    assert all(held is NONE or (type(held) is int and held >= 0) for held in data)
    assert sum(held is NONE for held in data) == store.capacity - store.edge_count


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls", [EdgeHash, HashList])
def test_empty_slots_are_the_none_object(cls, hash_mode):
    rng = np.random.default_rng(9)
    xs, ys = rng.integers(0, 64, 700), rng.integers(0, 64, 700)
    fresh = cls(StoreConfig(vertex_count=64, expected_edges=700, hash_mode=hash_mode))
    fresh.add_edges(xs, ys)
    assert fresh.rebuilds == 0
    assert_empty_slots_are_none(fresh)

    store = cls(StoreConfig(vertex_count=64, expected_edges=1, hash_mode=hash_mode))
    for x, y in zip(xs[:20].tolist(), ys[:20].tolist()):
        store.add_edge(x, y)
    assert store.rebuilds == 1
    assert_empty_slots_are_none(store)
    store.add_edges(xs[20:400], ys[20:400])
    assert store.rebuilds >= 4
    assert_empty_slots_are_none(store)
    with pytest.raises(VertexRangeError):  # refused: the scalar calls seat the pairs before 64
        store.add_edges(xs[400:].tolist() + [64], ys[400:].tolist() + [0])
    assert store.edge_count > fresh.edge_count - 40
    assert_empty_slots_are_none(store)
    store.grow()
    assert_empty_slots_are_none(store)


# --- errors: the same class and message, with the same ops applied before it ---

BAD = [
    pytest.param([0, 1, -1, 2], [1, 2, 3, 3], "list", id="negative-source"),
    pytest.param([0, 1, 2, 3], [1, 2, 8, 3], "int64", id="target-at-n"),
    pytest.param([0, 1, 2, 3], [1, 2, 3, 1 << 40], "uint64", id="target-beyond-32-bits"),
    pytest.param([0, 1 << 70, 2, 3], [1, 2, 3, 3], "list", id="source-2**70"),
    pytest.param([0, 1, 2, 99999999999999999999999], [1, 2, 3, 0], "list", id="25-digit-source"),
    pytest.param([-1], [0], "list", id="only-op"),
    # Twelve new distinct pairs before the bad id: the 16-slot table rebuilds to 32.
    pytest.param([1, 2, 3, 4, 6, 7, 1, 2, 3, 4, 6, 7, 2], [0] * 6 + [1] * 6 + [-3], "int64",
                 id="rebuild-then-negative-target"),
    pytest.param([0, 1, 2, 3, 4, 6, 7, 0, 1, 2, 3, 4, 9], [2] * 7 + [3] * 5 + [0], "list",
                 id="rebuild-then-source-at-9"),
]


@pytest.mark.parametrize("xs,ys,form", BAD)
@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
def test_bad_id_parity(cls, weighted, hash_mode, xs, ys, form):
    cfg = StoreConfig(vertex_count=8, expected_edges=1, hash_mode=hash_mode, weighted=weighted)
    bulk, scalar = cls(cfg), cls(cfg)
    scalar_adds(scalar, [0, 5], [0, 5])
    bulk.add_edges([0, 5], [0, 5])
    ax, ay = (xs, ys) if form == "list" else (shaped(xs, form), shaped(ys, form))

    _, want = run_scalar(scalar_adds, scalar, xs, ys)
    with pytest.raises(VertexRangeError) as info:
        bulk.add_edges(ax, ay)
    assert (info.type, str(info.value)) == want
    assert state(bulk) == state(scalar)

    _, want = run_scalar(lambda: [scalar.contains(x, y) for x, y in zip(xs, ys)])
    with pytest.raises(VertexRangeError) as info:
        bulk.contains_many(ax, ay)
    assert (info.type, str(info.value)) == want
    assert state(bulk) == state(scalar)


@pytest.mark.parametrize("cls", [EdgeHash, HashList])
def test_no_overflow_error(cls):
    g = cls(StoreConfig(vertex_count=10, expected_edges=4))
    for xs, ys in (([1 << 70], [1]), ([1], [-1]), (np.array([-1]), np.array([2]))):
        with pytest.raises(VertexRangeError):
            g.add_edges(xs, ys)
        with pytest.raises(VertexRangeError):
            g.contains_many(xs, ys)
    assert g.edge_count == 0


@pytest.mark.parametrize("cls", [EdgeHash, HashList])
def test_float_ids_behave_like_the_scalar_loop(cls):
    """Also a ragged batch, which numpy cannot make an array of: its first pair is
    applied and counted, then the second raises ``TypeError``, as in the scalar loop."""
    cfg = StoreConfig(vertex_count=10, expected_edges=4)
    for xs, ys in ((np.array([1.0, 2.0]), np.array([3.0, 4.0])), ([0, [1]], [1, 2])):
        bulk, scalar = cls(cfg), cls(cfg)
        _, want = run_scalar(scalar_adds, scalar, xs, ys)
        assert want is not None
        with pytest.raises(want[0]) as info:
            bulk.add_edges(xs, ys)
        assert str(info.value) == want[1]
        _, want = run_scalar(lambda: [scalar.contains(x, y) for x, y in zip(xs, ys)])
        with pytest.raises(want[0]) as info:
            bulk.contains_many(xs, ys)
        assert str(info.value) == want[1]
        assert state(bulk) == state(scalar)
    assert want[0] is TypeError and bulk.contains(0, 1) and bulk.counters.add.ops == 1


def test_empty_and_mismatched_batches():
    g = HashList(StoreConfig(vertex_count=4, expected_edges=4, weighted=True))
    assert g.add_edges([], []) == [] and g.contains_many(np.array([], dtype=np.int64), []) == []
    assert g.counters.add.ops == 0
    with pytest.raises(ValueError):
        g.add_edges([1, 2], [1])
    with pytest.raises(ValueError):
        g.contains_many([1], [])
    assert g.edge_count == 0
