"""HashList's rebuild and chain threading against the copies kept in ``_reference``.

``_reference._rebuild`` and ``_reference._thread`` group the new chains by
sorting the seated codes; the library's rebuild reads the sources off its
chain walk, and its ``_thread`` skips the sort when they are already grouped.
A twin store runs the reference copies in place of the library's, for its
rebuilds and for the threading of its bulk adds. Both stores get the same
stream of batch adds, scalar adds, weights and grows, and after every
rebuild, whether from ``grow()``, a scalar add or the middle of an
``add_edges`` batch, both must hold the same slots, chain cells and weights.

``_thread`` is also checked case by case against ``add_edge`` calls made one
at a time: an empty batch, a single source, grouped sources and shuffled ones.
"""

from __future__ import annotations

import random
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _reference
from _reference import _rebuild as reference_rebuild
from _reference import _thread as reference_thread
from graphstores import NONE, HashList, StoreConfig, hashlist, pack_edge
from graphstores.hashlist import _cells, _thread

SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def snapshot(store) -> tuple:
    weights = None if store._weights is None else list(store._weights)
    return store.capacity, list(store._data), bytes(store._heads), bytes(store._next), weights


class Library(HashList):
    """The library's HashList, keeping a snapshot after each rebuild."""

    def __init__(self, config: StoreConfig) -> None:
        self.rebuilt = []
        super().__init__(config)

    def _rebuild(self, new_cap: int) -> None:
        super()._rebuild(new_cap)
        self.rebuilt.append(snapshot(self))


class Reference(Library):
    """The same store, rebuilding and threading with the ``_reference`` copies."""

    def _rebuild(self, new_cap: int) -> None:
        reference_rebuild(self, new_cap)
        self.rebuilt.append(snapshot(self))

    def _link(self, codes, new_slots) -> None:
        reference_thread(_cells(self._heads), _cells(self._next), codes, new_slots)


STEPS = st.lists(
    st.tuples(st.sampled_from(["batch", "scalar", "grow", "weigh"]), st.integers(0, 150)),
    min_size=1, max_size=10,
)


@pytest.mark.parametrize("cells", ["4-byte", "8-byte"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("mode", ["mixer", "paper_compat"])
@SETTINGS
@given(shape=st.sampled_from(["hubs", "uniform"]), n=st.integers(1, 300),
       seed=st.integers(0, 2**32), rounds=st.booleans(), steps=STEPS)
def test_rebuilds_match_the_reference(mode, weighted, cells, shape, n, seed, rounds, steps):
    rnd = random.Random(seed)
    hubs = [rnd.randrange(n) for _ in range(3)]

    def pairs(k: int) -> list[tuple[int, int]]:
        if shape == "hubs":
            return [(rnd.choice(hubs) if rnd.random() < 0.7 else rnd.randrange(n), rnd.randrange(n))
                    for _ in range(k)]
        return [(rnd.randrange(n), rnd.randrange(n)) for _ in range(k)]

    with pytest.MonkeyPatch.context() as patch:
        if rounds:  # the walk runs in numpy rounds down to the last chain
            patch.setattr(hashlist, "_ROUND_MIN", 0)
        if cells == "8-byte":
            wide = lambda length, cap: memoryview(array("q", [NONE]) * length)  # noqa: E731
            patch.setattr(hashlist, "_chain_cells", wide)
            patch.setattr(_reference, "_chain_cells", wide)
        cfg = StoreConfig(vertex_count=n, expected_edges=1, hash_mode=mode, weighted=weighted)
        store, twin = Library(cfg), Reference(cfg)
        for kind, k in steps:
            if kind == "batch":
                xs, ys = map(list, zip(*pairs(k))) if k else ([], [])
                assert store.add_edges(xs, ys) == twin.add_edges(xs, ys)
            elif kind == "scalar":
                for x, y in pairs(k):
                    assert store.add_edge(x, y) == twin.add_edge(x, y)
            elif kind == "grow":
                store.grow()
                twin.grow()
            elif weighted:
                for x, y in pairs(k):
                    w = rnd.random()
                    assert store.set_weight(x, y, w) == twin.set_weight(x, y, w)
            assert store.rebuilt == twin.rebuilt
        assert snapshot(store) == snapshot(twin)
        assert store.rebuilds == twin.rebuilds == len(store.rebuilt)


# Each case: edges added before the batch (their chains are the old heads),
# then the batch, whose new slots ``_thread`` must link as add_edge did.
THREAD_CASES = {
    "empty": ([(1, 2), (3, 4)], []),
    "single source": ([(5, 0), (2, 2)], [(5, 1), (5, 7), (5, 3), (5, 9)]),
    "grouped": ([(3, 1), (6, 6)], [(1, 0), (1, 5), (3, 2), (3, 8), (3, 4), (6, 1), (9, 9)]),
    "shuffled": ([(3, 1), (6, 6)], [(6, 1), (1, 0), (3, 2), (9, 9), (1, 5), (3, 8), (3, 4)]),
}


@pytest.mark.parametrize("case", THREAD_CASES)
def test_thread_matches_add_edge_one_at_a_time(case):
    before, batch = THREAD_CASES[case]
    store = HashList(StoreConfig(vertex_count=10, expected_edges=16))
    for x, y in before:
        store.add_edge(x, y)
    start = bytes(store._heads), bytes(store._next)
    for x, y in batch:
        assert store.add_edge(x, y)
    assert store.rebuilds == 0
    src = np.array([x for x, _ in batch], np.int64)
    slots = np.array([store._data.index(pack_edge(x, y)) for x, y in batch], np.intp)
    codes = np.array([pack_edge(x, y) for x, y in batch], np.uint64)
    for thread, first in ((_thread, src), (reference_thread, codes)):
        heads, nxt = (memoryview(array(store._heads.format, cells)) for cells in start)
        thread(_cells(heads), _cells(nxt), first, slots.copy())
        assert heads.tolist() == store._heads.tolist()
        assert nxt.tolist() == store._next.tolist()
