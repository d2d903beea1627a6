"""A growth rebuild that fails leaves the hash store as it was.

Each test raises MemoryError inside a rebuild: from the store's array key
(``_key``), or from one of the two chain-cell allocations of a HashList
(``hashlist._chain_cells``, heads first, then links). The failed store is
compared with a twin that never failed and stopped at the same pair: the
raw arrays, counters, answers, neighbor lists and weights must match, and
so must everything after both go on with the real key. Weights are set with
``set_weight`` on both, so on a weighted store the failed rebuild must keep
them and the rebuild that then succeeds must carry them.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

from graphstores import EdgeHash, HashList, StoreConfig, hashlist

MODES = ["mixer", "paper_compat"]
CASES = [
    pytest.param(EdgeHash, False, "key", id="edgehash-key"),
    pytest.param(HashList, False, "key", id="hashlist-key"),
    pytest.param(HashList, False, "heads", id="hashlist-heads"),
    pytest.param(HashList, False, "links", id="hashlist-links"),
    pytest.param(HashList, True, "key", id="weighted-key"),
    pytest.param(HashList, True, "heads", id="weighted-heads"),
    pytest.param(HashList, True, "links", id="weighted-links"),
]

N = 100
# 16 slots: the 12th distinct edge finds 11 = growth_limit(16) and rebuilds.
LIMIT = 11
# Edges added and weighted one at a time before the failing batch.
PRE = 4
EDGES = random.Random(3).sample([(x, y) for x in range(N) for y in range(N)], 20)
WEIGHTS = [None if k % 3 == 0 else k / 4 for k in range(len(EDGES))]


def fail_on(fn, at: int):
    """``fn``, except that its ``at``-th call raises MemoryError."""
    calls = 0

    def wrapped(*args):
        nonlocal calls
        calls += 1
        if calls == at:
            raise MemoryError("injected")
        return fn(*args)

    return wrapped


@contextmanager
def failing(store, where: str, key_calls_before: int):
    """The rebuild's key call, or its heads or links allocation, raises MemoryError."""
    with pytest.MonkeyPatch.context() as patch:
        if where == "key":
            patch.setattr(store, "_key", fail_on(store._key, key_calls_before + 1))
        else:
            cells = fail_on(hashlist._chain_cells, 1 if where == "heads" else 2)
            patch.setattr(hashlist, "_chain_cells", cells)
        yield


def seen(store) -> dict:
    """Raw arrays and counters first, then every answer a caller can get."""
    c = store.counters
    got = {"channels": [(ch.ops, ch.total, ch.peak) for ch in (c.add, c.contains, c.enumerate)]}
    for name in ("edge_count", "capacity", "rebuilds", "_data", "_heads", "_next", "_weights"):
        got[name] = getattr(store, name, None)
    got["contains"] = [store.contains(x, y) for x, y in EDGES] + [store.contains(y, x) for x, y in EDGES]
    if isinstance(store, HashList):
        got["neighbors"] = [store.neighbors(v) for v in range(N)]
        if store._weights is not None:
            got["weights"] = [store.get_weight(x, y) for x, y in EDGES]
    return got


def add(store, pairs, weights) -> None:
    for (x, y), w in zip(pairs, weights):
        store.add_edge(x, y)
        weigh(store, [(x, y)], [w])


def weigh(store, pairs, weights) -> None:
    """``set_weight`` per pair whose weight is not None, on a weighted store."""
    if getattr(store, "_weights", None) is not None:
        for (x, y), w in zip(pairs, weights):
            if w is not None:
                store.set_weight(x, y, w)


def stores(cls, weighted, hash_mode):
    cfg = StoreConfig(vertex_count=N, expected_edges=8, hash_mode=hash_mode, weighted=weighted)
    return cls(cfg), cls(cfg)


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted,where", CASES)
def test_failed_scalar_rebuild_keeps_the_store(cls, weighted, where, hash_mode):
    store, twin = stores(cls, weighted, hash_mode)
    for s in (store, twin):
        add(s, EDGES[:LIMIT], WEIGHTS)
    assert (store.capacity, store.edge_count, store.config.growth_limit(16)) == (16, LIMIT, LIMIT)
    with failing(store, where, 0), pytest.raises(MemoryError):
        store.add_edge(*EDGES[LIMIT])
    assert seen(store) == seen(twin)
    for s in (store, twin):
        add(s, EDGES[LIMIT:], WEIGHTS[LIMIT:])
    assert store.rebuilds == 1
    assert seen(store) == seen(twin)
    if weighted:  # the rebuild that succeeded carried every weight
        assert [store.get_weight(x, y) for x, y in EDGES] == WEIGHTS


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("cls,weighted,where", CASES)
def test_failed_batch_rebuild_keeps_the_pairs_before_it(cls, weighted, where, hash_mode):
    """The first PRE edges are in and weighted before the batch; the batch repeats
    them, seats the rest up to the limit, and fails at the rebuild after."""
    store, twin = stores(cls, weighted, hash_mode)
    for s in (store, twin):
        add(s, EDGES[:PRE], WEIGHTS)
    xs, ys = [x for x, _ in EDGES], [y for _, y in EDGES]
    # The batch's front end calls the key once before the rebuild does.
    with failing(store, where, 1), pytest.raises(MemoryError):
        store.add_edges(xs, ys)
    add(twin, EDGES[:LIMIT], [None] * LIMIT)
    assert seen(store) == seen(twin)
    assert store.counters.add.ops == PRE + LIMIT
    for s in (store, twin):
        weigh(s, EDGES[PRE:LIMIT], WEIGHTS[PRE:LIMIT])
        s.add_edges(xs[LIMIT:], ys[LIMIT:])
        weigh(s, EDGES[LIMIT:], WEIGHTS[LIMIT:])
    assert store.rebuilds == 1
    assert seen(store) == seen(twin)
    if weighted:  # the rebuild that succeeded carried every weight
        assert [store.get_weight(x, y) for x, y in EDGES] == WEIGHTS
