"""Open-addressing edge table with linear probing; add and membership only.

Entries are packed edge codes in one flat slot array. Packed codes are
never negative, so an empty slot holds the out-of-band NONE (-1); no
separate occupancy array is needed, even though pack(0, 0) == 0 is a legal
edge. There is no removal, which keeps probe chains intact forever: an
entry is always reachable from its home slot without crossing an empty
slot. Every table grows: an add that finds ``edge_count`` at
``config.growth_limit(capacity)``, 7/10 of the slots, rebuilds at double
the capacity before it seats. So a table always keeps an empty slot, and
every probe ends at its code or at an empty slot; none needs a bound.
A rebuild builds the whole new table before it installs any of it, so
one that fails leaves the old table in place.

``add_edge`` and ``contains`` are each one flat body: range check, growth
check, packing, the mixer finalizer, the probe, the counter fields and,
on add, the seat all run in one frame, because in CPython a nested
call costs more than the work of most of these steps. ``pack_edge``,
``mixer_hash`` and ``Channel.record`` spell out the same steps as
standalone functions. This is also the probe core of
:class:`~graphstores.hashlist.HashList`, which inherits both bodies: they
thread a new slot onto its source's chain whenever ``_heads`` is set, and
it is None on an EdgeHash. HashList extends ``_allocate`` and
``_rebuild``: it walks the chains of its live vertices, and only those,
into the order ``_reseat`` seats its codes in. The seat is one pass: one
array key call for every home, then each code is seated, and on a
HashList its weight carried and its slot recorded. HashList then threads
its chains from the recorded slots in a few numpy operations, outside the
per-code loop.

``add_edges`` and ``contains_many`` take whole batches. One vectorized
front end, :func:`_bulk_codes`, serves both methods and both classes: a
numpy range check, the packed codes, and the hash mode's 64-bit key
(:data:`~graphstores.core.HASH_KEYS`) without its capacity mask. Then one
Python loop per method walks the batch in order, masks each key with the
current capacity, and probes, seats and threads exactly as the scalar
calls would, so answers, slot layout, chain order, weights, rebuilds and
counters all come out the same.
Counters are recorded once per batch. A rebuild mid-batch changes only
the mask, because in both modes the key does not depend on capacity.
Input numpy cannot hold exactly (floats, ids beyond 64 bits) goes through
the scalar calls instead.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .core import (
    _MIX_MULT_1,
    _MIX_MULT_2,
    HASH_KEYS,
    NONE,
    U64_MASK,
    EdgeStore,
    StoreConfig,
    UnsupportedOperationError,
    VertexRangeError,
    check_lengths,
    compat_hash,
)
from .counters import OpCounters


def _bulk_codes(xs, ys, n: int, key):
    """The vectorized front end of the bulk methods.

    Returns ``(codes, keys, k)``: k is the number of leading pairs
    with both ids in [0, n), and the two lists hold, for those pairs, the
    packed codes and their capacity-independent keys under ``key``, one of
    :data:`~graphstores.core.HASH_KEYS`. Returns None when numpy cannot
    hold the ids exactly as integers; the caller then runs the scalar
    calls, which raise what they always raise.
    """
    check_lengths(xs, ys)
    try:
        ax = np.asarray(xs)
        ay = np.asarray(ys)
    except (OverflowError, TypeError, ValueError):
        return None
    if ax.ndim != 1 or ay.ndim != 1 or ax.dtype.kind not in "iu" or ay.dtype.kind not in "iu":
        return None
    bad = (ax < 0) | (ax >= n) | (ay < 0) | (ay >= n)
    k = int(bad.argmax()) if bad.any() else len(bad)
    codes = (ax[:k].astype(np.uint64) << np.uint64(32)) | ay[:k].astype(np.uint64)
    return codes.tolist(), key(codes).tolist(), k


class EdgeHash(EdgeStore):
    """Hash table of directed edges keyed by their packed 64-bit codes.

    Membership cost does not depend on vertex degree, only on load factor.
    Per-vertex enumeration is deliberately unsupported: nothing short of a
    full slot scan could answer it, and pretending otherwise would hide an
    O(capacity) cost behind an innocent-looking call.

    Single-writer: mutation needs exclusive access; once mutation stops,
    any number of threads may read concurrently.
    """

    __slots__ = (
        "config",
        "counters",
        "rebuilds",
        "_n",
        "_cap",
        "_mask",
        "_data",
        "_count",
        "_mixer",
        "_key",
        "_growth_limit",
    )

    # HashList's chain arrays; its slots shadow these, so on an EdgeHash the
    # scalar and bulk adds see None and skip the threading.
    _heads = _next = _weights = None

    def __init__(self, config: StoreConfig) -> None:
        self.config = config
        self._n = config.vertex_count
        self._count = 0
        self._mixer = config.hash_mode == "mixer"
        self._key = HASH_KEYS[config.hash_mode]
        self.rebuilds = 0
        self.counters = OpCounters()
        self._allocate(config.initial_capacity)

    def _allocate(self, cap: int) -> None:
        """Install an empty table of ``cap`` slots."""
        self._install(cap, [NONE] * cap)

    def _install(self, cap: int, data: list) -> None:
        """Make ``data``, a slot list of length ``cap``, the store's table."""
        self._growth_limit = self.config.growth_limit(cap)
        self._cap = cap
        self._mask = cap - 1
        self._data = data

    def add_edge(self, x: int, y: int) -> bool:
        n = self._n
        if x < 0 or x >= n or y < 0 or y >= n:
            raise VertexRangeError(f"edge ({x}, {y}) outside vertex range [0, {n})")
        if self._count >= self._growth_limit:
            self._rebuild(self._cap * 2)
        code = (x << 32) | y
        mask = self._mask
        if self._mixer:
            z = code & U64_MASK
            z = ((z ^ (z >> 33)) * _MIX_MULT_1) & U64_MASK
            z = ((z ^ (z >> 33)) * _MIX_MULT_2) & U64_MASK
            slot = (z ^ (z >> 33)) & mask
        else:
            slot = compat_hash(x, y, self._cap)
        data = self._data
        probes = 1
        held = data[slot]
        while held != code and held != NONE:
            slot = (slot + 1) & mask
            held = data[slot]
            probes += 1
        channel = self.counters.add
        channel.ops += 1
        channel.total += probes
        if probes > channel.peak:
            channel.peak = probes
        if held == code:
            return False
        data[slot] = code
        self._count += 1
        heads = self._heads
        if heads is not None:
            self._next[slot] = heads[x]
            heads[x] = slot
        return True

    def contains(self, x: int, y: int) -> bool:
        n = self._n
        if x < 0 or x >= n or y < 0 or y >= n:
            raise VertexRangeError(f"edge ({x}, {y}) outside vertex range [0, {n})")
        code = (x << 32) | y
        mask = self._mask
        if self._mixer:
            z = code & U64_MASK
            z = ((z ^ (z >> 33)) * _MIX_MULT_1) & U64_MASK
            z = ((z ^ (z >> 33)) * _MIX_MULT_2) & U64_MASK
            slot = (z ^ (z >> 33)) & mask
        else:
            slot = compat_hash(x, y, self._cap)
        data = self._data
        probes = 1
        held = data[slot]
        while held != code and held != NONE:
            slot = (slot + 1) & mask
            held = data[slot]
            probes += 1
        channel = self.counters.contains
        channel.ops += 1
        channel.total += probes
        if probes > channel.peak:
            channel.peak = probes
        return held == code

    def add_edges(self, xs, ys) -> list[bool]:
        return self._add_batch(xs, ys, None)

    def _add_batch(self, xs, ys, weights) -> list[bool]:
        """``add_edge`` per pair, and ``set_weight`` where ``weights`` holds a weight."""
        front = _bulk_codes(xs, ys, self._n, self._key)
        ws = repeat(None) if weights is None else weights
        if front is None:
            out = []
            for x, y, w in zip(xs, ys, ws):
                out.append(self.add_edge(x, y))
                if w is not None:
                    self.set_weight(x, y, w)
            return out
        codes, keys, k = front
        data, heads, nxt, wts = self._data, self._heads, self._next, self._weights
        mask = self._mask
        limit = self._growth_limit
        count = self._count
        total = peak = 0
        out = []
        append = out.append
        try:
            for code, key, w in zip(codes, keys, ws):
                if count >= limit:
                    self._rebuild(self._cap * 2)
                    data, heads, nxt, wts = self._data, self._heads, self._next, self._weights
                    mask = self._mask
                    limit = self._growth_limit
                slot = key & mask
                held = data[slot]
                probes = 1
                while held != code and held != NONE:
                    slot = (slot + 1) & mask
                    held = data[slot]
                    probes += 1
                total += probes
                if probes > peak:
                    peak = probes
                if held == NONE:
                    data[slot] = code
                    count += 1
                    if heads is not None:
                        x = code >> 32
                        nxt[slot] = heads[x]
                        heads[x] = slot
                    append(True)
                else:
                    append(False)
                if w is not None:
                    wts[slot] = w
        finally:
            self._count = count
            self.counters.add.record_batch(len(out), total, peak)
        if k < len(xs):
            self._check_pair(xs[k], ys[k])
        return out

    def contains_many(self, xs, ys) -> list[bool]:
        front = _bulk_codes(xs, ys, self._n, self._key)
        if front is None:
            return super().contains_many(xs, ys)
        codes, keys, k = front
        data = self._data
        mask = self._mask
        total = peak = 0
        out = []
        append = out.append
        for code, key in zip(codes, keys):
            slot = key & mask
            held = data[slot]
            probes = 1
            while held != code and held != NONE:
                slot = (slot + 1) & mask
                held = data[slot]
                probes += 1
            total += probes
            if probes > peak:
                peak = probes
            append(held == code)
        self.counters.contains.record_batch(len(out), total, peak)
        if k < len(xs):
            self._check_pair(xs[k], ys[k])
        return out

    def neighbors(self, x: int) -> list[int]:
        raise UnsupportedOperationError(
            "EdgeHash cannot enumerate neighbors; use HashList or MultiList"
        )

    def grow(self) -> None:
        """Double capacity and re-seat every code; observable answers are unchanged."""
        self._rebuild(self._cap * 2)

    def _rebuild(self, new_cap: int) -> None:
        data, _, _ = self._reseat(new_cap, [code for code in self._data if code != NONE], None)
        self._install(new_cap, data)
        self.rebuilds += 1

    def _reseat(self, new_cap: int, codes: list[int], weights: list | None) -> tuple:
        """Seat ``codes``, in that order, in a fresh slot list of ``new_cap`` slots.

        Linear probing is order-dependent, so the order fixes the layout.
        Every home is the hash mode's key, from one array call, masked to
        the new capacity; the probe is inline, since a rebuild re-seats
        every edge. Returns ``(data, weights, seated)`` for the caller to
        install, and changes nothing in the store. When ``_heads`` is set,
        the same pass carries each code's weight from ``weights`` (aligned
        with ``codes``, or None) into a fresh weight list and records the
        seated slots in seat order, from which the caller threads the
        chains; otherwise both are None.
        """
        mask = new_cap - 1
        homes = (self._key(codes) & np.uint64(mask)).tolist()
        data = [NONE] * new_cap
        wts = None if weights is None else [None] * new_cap
        seated = None if self._heads is None else []
        ws = repeat(None) if weights is None else weights
        for code, slot, w in zip(codes, homes, ws):
            while data[slot] != NONE:
                slot = (slot + 1) & mask
            data[slot] = code
            if seated is not None:
                seated.append(slot)
                if w is not None:
                    wts[slot] = w
        return data, wts, seated

    @property
    def edge_count(self) -> int:
        return self._count

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def capacity(self) -> int:
        return self._cap

    @property
    def load_factor(self) -> float:
        return self._count / self._cap

    @property
    def slots_allocated(self) -> int:
        return self._cap

    def memory_ints(self) -> int:
        """Cells, not bytes, in the data array: capacity."""
        return self._cap
