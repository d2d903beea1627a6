"""Bulk methods against the scalar calls they stand for.

Every test runs twin stores: one fed through ``add_edges`` /
``contains_many``, one through a loop of ``add_edge`` (+ ``set_weight``) /
``contains`` over the same ids as Python ints. The twins must agree on
answers, raised errors and every piece of state a caller or the counters
can see: slot contents, chains, weights, rebuilds, capacity and each
channel's (ops, total, peak).
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstores import (
    ConfigError,
    EdgeHash,
    HashList,
    MultiList,
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
FORMS = ["list", "int64", "uint64"]


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


def run_scalar(fn, *args):
    """(answers, None) or (None, (error class, message)) from a scalar loop."""
    try:
        return fn(*args), None
    except Exception as exc:  # the twin must raise the same class and message
        return None, (type(exc), str(exc))


def shaped(ids: list[int], form: str):
    """The same ids as a plain list, an int64 array or a uint64 array."""
    if form == "list":
        return list(ids)
    return np.array(ids, dtype=np.int64 if form == "int64" else np.uint64)


batch = st.lists(
    st.tuples(st.booleans(), st.integers(0, 11), st.integers(0, 11),
              st.one_of(st.none(), st.integers(-5, 5))),
    max_size=40,
)


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), batches=st.lists(batch, max_size=6),
       form=st.sampled_from(["list", "int64", "uint64"]))
def test_bulk_matches_scalar(cls, weighted, hash_mode, n, batches, form):
    """Stores grow from expected_edges=1, so rebuilds fall inside batches."""
    cfg = StoreConfig(vertex_count=n, expected_edges=1, hash_mode=hash_mode, weighted=weighted)
    bulk, scalar = cls(cfg), cls(cfg)
    for ops in batches:
        is_add = bool(ops) and ops[0][0]
        xs = [x % n for _, x, _, _ in ops]
        ys = [n - 1 if y >= n else y for _, _, y, _ in ops]  # ids at n - 1 on purpose
        ws = [w for _, _, _, w in ops] if weighted else None
        if is_add:
            want = scalar_adds(scalar, xs, ys, ws)
            args = (shaped(xs, form), shaped(ys, form))
            got = bulk.add_edges(*args, ws) if weighted else bulk.add_edges(*args)
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
    """Yields a list that gains one "rounds" for each batch ``contains_many`` probes in
    rounds; a batch probed by the Python loop adds nothing."""
    paths = []
    rounds = edgehash._probe_rounds

    def spy(*args):
        paths.append("rounds")
        return rounds(*args)

    with mock.patch.object(edgehash, "_probe_rounds", spy):
        yield paths


def expected_path(store, k: int) -> str:
    return "rounds" if k * 8 >= store.capacity and store.vertex_count <= 1 << 31 else "loop"


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), edges=st.integers(0, 80),
       side=st.sampled_from(["below", "at", "above"]), form=st.sampled_from(FORMS))
def test_read_paths_match_scalar(cls, weighted, hash_mode, data, n, edges, side, form):
    """Batches of cap/8 - 1 and cap/8 valid pairs, on each side of the rounds rule, and
    of 4 * cap, well above it: the same answers and counters as the scalar loop, and
    the reads change no slot, chain, weight or other counter."""
    cfg = StoreConfig(vertex_count=n, expected_edges=1 + edges // 3, hash_mode=hash_mode,
                      weighted=weighted)
    bulk, scalar = cls(cfg), cls(cfg)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    stored = data.draw(st.lists(pair, min_size=edges, max_size=edges))
    xs, ys = [x for x, _ in stored], [y for _, y in stored]
    assert bulk.add_edges(xs, ys) == scalar_adds(scalar, xs, ys)
    cap = bulk.capacity
    size = {"below": cap // 8 - 1, "at": cap // 8, "above": 4 * cap}[side]
    asked = data.draw(st.lists(st.one_of(st.sampled_from(stored or [(0, 0)]), pair),
                               min_size=size, max_size=size))
    qx, qy = [x for x, _ in asked], [y for _, y in asked]
    before = snapshot(bulk)
    with read_path() as paths:
        got = bulk.contains_many(shaped(qx, form), shaped(qy, form))
    assert paths == (["rounds"] if expected_path(bulk, size) == "rounds" else [])
    assert got == [scalar.contains(x, y) for x, y in zip(qx, qy)]
    after = snapshot(bulk)
    assert after == snapshot(scalar)
    assert {**after, "channels": None} == {**before, "channels": None}
    assert after["channels"][0] == before["channels"][0]  # the add channel


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("n,path", [(1 << 31, "rounds"), ((1 << 31) + 1, "loop")])
def test_read_path_by_vertex_count(n, path, hash_mode, form):
    """At n = 2**31 every code fits int64, up to 2**63 - 1, so the rounds run; at
    2**31 + 1 a code may reach 2**63, so the loop runs. Only EdgeHash: a HashList or
    MultiList would hold n heads here."""
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
    assert expected_path(bulk, len(qx)) == path
    assert paths == ([path] if path == "rounds" else [])
    assert got == [scalar.contains(x, y) for x, y in zip(qx, qy)]
    assert any(got) and not all(got)
    assert snapshot(bulk) == snapshot(scalar)


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
@pytest.mark.parametrize("j", [2, 5, 9])
def test_bad_id_on_the_rounds_path(cls, weighted, hash_mode, j):
    """A bad id at index j of a 10-pair batch on a 16-slot table: the j valid pairs
    before it take the rounds (j * 8 >= 16), are counted as a scalar loop stopped at j
    counts them, and then the same VertexRangeError is raised."""
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
    assert paths == ["rounds"]
    assert (info.type, str(info.value)) == want
    assert snapshot(bulk) == snapshot(scalar)
    assert bulk.counters.contains.ops == j


EDGE_CASES = [
    pytest.param([], [], [], id="empty"),
    pytest.param([1, 2], [2, 1], ["rounds"], id="two-pairs-16-slots"),
    pytest.param(np.array([1.0, 2.0, 3.0, 0.0]), np.array([2.0, 1.0, 3.0, 0.0]), [],
                 id="float-ids"),
]


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted", STORES)
@pytest.mark.parametrize("qx,qy,path", EDGE_CASES)
def test_read_path_edge_cases(cls, weighted, hash_mode, qx, qy, path):
    """An empty batch takes the loop (0 < 16 / 8); two pairs are enough for rounds on
    16 slots; float ids go to the scalar calls, which raise what they always raise."""
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


def test_mid_batch_rebuilds_in_one_call():
    """One 3000-edge batch from 16 slots crosses every growth step inside the call."""
    rng = np.random.default_rng(5)
    xs, ys = rng.integers(0, 64, 3000), rng.integers(0, 64, 3000)
    ws = rng.integers(0, 100, 3000).tolist()
    for hash_mode in MODES:
        cfg = StoreConfig(vertex_count=64, expected_edges=1, hash_mode=hash_mode, weighted=True)
        bulk, scalar = HashList(cfg), HashList(cfg)
        assert bulk.add_edges(xs, ys, ws) == scalar_adds(scalar, xs.tolist(), ys.tolist(), ws)
        assert bulk.rebuilds >= 6
        assert state(bulk) == state(scalar)
        qx, qy = rng.integers(0, 64, 2000), rng.integers(0, 64, 2000)
        assert bulk.contains_many(qx, qy) == [scalar.contains(x, y) for x, y in zip(qx.tolist(), qy.tolist())]
        assert state(bulk) == state(scalar)


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


# --- errors: the same class and message, with the same ops applied before it ---

BAD = [
    pytest.param([0, 1, -1, 2], [1, 2, 3, 3], "list", id="negative-source"),
    pytest.param([0, 1, 2, 3], [1, 2, 8, 3], "int64", id="target-at-n"),
    pytest.param([0, 1, 2, 3], [1, 2, 3, 1 << 40], "uint64", id="target-beyond-32-bits"),
    pytest.param([0, 1 << 70, 2, 3], [1, 2, 3, 3], "list", id="source-2**70"),
    pytest.param([0, 1, 2, 99999999999999999999999], [1, 2, 3, 0], "list", id="25-digit-source"),
    pytest.param([-1], [0], "list", id="only-op"),
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
    cfg = StoreConfig(vertex_count=10, expected_edges=4)
    bulk, scalar = cls(cfg), cls(cfg)
    xs, ys = np.array([1.0, 2.0]), np.array([3.0, 4.0])
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


def test_empty_and_mismatched_batches():
    g = HashList(StoreConfig(vertex_count=4, expected_edges=4, weighted=True))
    assert g.add_edges([], []) == [] and g.contains_many(np.array([], dtype=np.int64), []) == []
    assert g.counters.add.ops == 0
    with pytest.raises(ValueError):
        g.add_edges([1, 2], [1])
    with pytest.raises(ValueError):
        g.add_edges([1, 2], [1, 2], [0.5])
    with pytest.raises(ValueError):
        g.contains_many([1], [])
    unweighted = HashList(StoreConfig(vertex_count=4, expected_edges=4))
    with pytest.raises(ConfigError):
        unweighted.add_edges([1], [2], [0.5])
    assert unweighted.edge_count == 0 and g.edge_count == 0
