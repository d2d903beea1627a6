"""``neighbors_many`` against the loop of ``neighbors`` calls it stands for.

Every test runs twin stores built by the same adds: one asked with one
``neighbors_many`` call, the other with ``neighbors`` per vertex. The flat
targets must be the loop's lists joined, with each vertex's run ending at
its ``ends`` entry; both sides must raise the same error class and message
at the same vertex; and the enumerate channels must agree afterwards, so
the vertices before a bad one are counted. Covered: all four stores, both
hash modes, weighted HashLists, stores grown through rebuilds, repeated
vertices, lists and numpy integer arrays, a star hub that outlives every
other chain, and ids numpy cannot hold. HashList walks its chains in numpy
rounds while more than ``_ROUND_MIN`` are live; the tests run with
the real cut-off and with rounds forced down to the last chain.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstores import (
    EdgeHash,
    HashList,
    MultiList,
    OracleGraph,
    StoreConfig,
    UnsupportedOperationError,
    hashlist,
)

STORES = ["hashlist", "hashlist-weighted", "multilist", "oracle"]
MODES = ["mixer", "paper_compat"]
FORMS = ["list", "int64", "uint64", "uint32"]


def make(name: str, n: int, hash_mode: str, edges: int):
    """A store grown from the smallest table, so the adds cross rebuilds."""
    if name == "multilist":
        return MultiList(n, max(edges, 1))
    if name == "oracle":
        return OracleGraph(n)
    cls = EdgeHash if name == "edgehash" else HashList
    return cls(StoreConfig(vertex_count=n, expected_edges=1, hash_mode=hash_mode,
                           weighted=name == "hashlist-weighted"))


def twins(name: str, n: int, hash_mode: str, pairs):
    out = []
    for _ in range(2):
        store = make(name, n, hash_mode, len(pairs))
        for x, y in pairs:
            store.add_edge(x, y)
        out.append(store)
    return out


def enumerate_channel(store) -> tuple:
    c = store.counters.enumerate
    return c.ops, c.total, c.peak


def outcome(fn):
    """(result, None) or (None, (error class, message))."""
    try:
        return fn(), None
    except Exception as exc:  # the twin must raise the same class and message
        return None, (type(exc), str(exc))


def loop(store, vs) -> tuple[list[int], list[int]]:
    targets, ends = [], []
    for v in vs:
        targets += store.neighbors(v)
        ends.append(len(targets))
    return targets, ends


def shaped(vs: list, form: str):
    if form == "list":
        return list(vs)
    if form == "uint32" and not all(0 <= v <= 0xFFFFFFFF for v in vs):
        return np.array(vs, dtype=np.int64)
    return np.array(vs, dtype=np.dtype(form))


def assert_same(bulk, scalar, vs, asked) -> None:
    want = outcome(lambda: loop(scalar, vs))
    got = outcome(lambda: bulk.neighbors_many(asked))
    assert got == want
    if got[0] is not None:
        targets, ends = got[0]
        assert all(type(v) is int for v in targets + ends)
    assert enumerate_channel(bulk) == enumerate_channel(scalar)


CUTOFFS = ["cut-off", "rounds-only"]


@contextmanager
def cutoff(which: str):
    """The real scalar cut-off, or numpy rounds until no chain is live."""
    with pytest.MonkeyPatch.context() as patch:
        if which == "rounds-only":
            patch.setattr(hashlist, "_ROUND_MIN", 0)
        yield


@st.composite
def graphs(draw):
    """(n, pairs, vs): a few hubs and a uniform rest, and up to 300 asked vertices."""
    n = draw(st.integers(1, 30))
    hubs = draw(st.lists(st.integers(0, n - 1), max_size=3))
    vertex = st.integers(0, n - 1)
    source = st.one_of(vertex, st.sampled_from(hubs)) if hubs else vertex
    pairs = draw(st.lists(st.tuples(source, vertex), max_size=200))
    vs = draw(st.lists(st.one_of(vertex, st.sampled_from(hubs)) if hubs else vertex, max_size=300))
    return n, pairs, vs


@pytest.mark.parametrize("which", CUTOFFS)
@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("name", STORES)
@settings(max_examples=40, deadline=None)
@given(graph=graphs(), form=st.sampled_from(FORMS))
def test_neighbors_many_matches_neighbors(which, name, hash_mode, graph, form):
    n, pairs, vs = graph
    bulk, scalar = twins(name, n, hash_mode, pairs)
    with cutoff(which):
        assert_same(bulk, scalar, vs, shaped(vs, form))


@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("name", STORES)
def test_empty_request(name, hash_mode):
    bulk, scalar = twins(name, 5, hash_mode, [(1, 2), (1, 3)])
    for asked in ([], np.array([], dtype=np.int64), np.array([], dtype=np.uint64)):
        assert bulk.neighbors_many(asked) == ([], [])
    assert enumerate_channel(bulk) == (0, 0, 0)


@pytest.mark.parametrize("which", CUTOFFS)
@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("hash_mode", MODES)
def test_star_hub_outlives_every_other_chain(which, hash_mode, weighted):
    """A hub of degree 500 among 200 chains of length 1 to 3, grown through rebuilds:
    the rounds run while the short chains live, and the hub is finished alone."""
    n = 600
    pairs = [(0, y) for y in range(1, 501)]
    pairs += [(x, (x * 7 + k) % n) for x in range(1, 201) for k in range(1 + x % 3)]
    np.random.default_rng(4).shuffle(pairs)
    bulk, scalar = twins("hashlist-weighted" if weighted else "hashlist", n, hash_mode, pairs)
    assert bulk.rebuilds >= 6
    vs = list(range(201)) + [0, 5, 0]
    with cutoff(which):
        assert_same(bulk, scalar, vs, vs)
        targets, ends = bulk.neighbors_many([0])
    assert ends == [500] and targets == scalar.neighbors(0)


BAD = [
    pytest.param([1, 2, -1, 3], id="negative"),
    pytest.param([1, 2, 40, 3], id="at-n"),
    pytest.param([1, 2, 1 << 40, 3], id="beyond-32-bits"),
    pytest.param([1, 2, 1 << 64, 3], id="2**64"),
    pytest.param([1, 2, -(1 << 63) - 1, 3], id="below-int64"),
    pytest.param([1, 2, 2.0, 3], id="float-in-range"),
    pytest.param([1, 2, 40.5, 3], id="float-past-n"),
    pytest.param([-1], id="only-vertex"),
]


@pytest.mark.parametrize("which", CUTOFFS)
@pytest.mark.parametrize("vs", BAD)
@pytest.mark.parametrize("hash_mode", MODES)
@pytest.mark.parametrize("name", STORES)
def test_first_bad_vertex_raises_after_the_ones_before_it(which, name, hash_mode, vs):
    pairs = [(x, (x * 3) % 40) for x in range(40)] + [(1, 5), (2, 6), (2, 7)]
    forms = [vs]
    if all(isinstance(v, int) and -(1 << 63) <= v < 1 << 63 for v in vs):
        forms.append(np.array(vs, dtype=np.int64))
    for asked in forms:
        bulk, scalar = twins(name, 40, hash_mode, pairs)
        with cutoff(which):
            assert_same(bulk, scalar, vs, asked)
        assert outcome(lambda: loop(scalar, vs))[1] is not None


@pytest.mark.parametrize("hash_mode", MODES)
def test_edgehash_raises_on_any_vertex(hash_mode):
    store = make("edgehash", 10, hash_mode, 0)
    store.add_edge(1, 2)
    assert store.neighbors_many([]) == ([], [])
    assert store.neighbors_many(np.array([], dtype=np.int64)) == ([], [])
    for vs in ([1], [1, 1], np.array([3, 4]), [-1], [10], [2.0]):
        with pytest.raises(UnsupportedOperationError):
            store.neighbors_many(vs)
    assert enumerate_channel(store) == (0, 0, 0)
