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
standalone functions; the bodies' first mixer step takes ``x >> 1`` for
``code >> 33`` and drops the 64-bit mask, both exact for ids below 2**32.
This is also the probe core of
:class:`~graphstores.hashlist.HashList`, which inherits both bodies: they
thread a new slot onto its source's chain whenever ``_heads`` is set, and
it is None on an EdgeHash. HashList extends ``_allocate`` and
``_rebuild``: it walks its live chains, as its ``neighbors_many`` does,
into the order ``_reseat`` seats its codes in. The seat is one loop: one
array key call for every home, then each code is seated, and on a
HashList its slot recorded. HashList then threads its chains in numpy,
as after its bulk add, from the recorded slots and their sources, which
the walk's chain lengths give already grouped.

``add_edges`` and ``contains_many`` take whole batches. One vectorized
front end, :func:`_bulk_codes`, serves both methods and both classes: a
numpy range check, the packed codes, and the hash mode's 64-bit key
(:data:`~graphstores.core.HASH_KEYS`) without its capacity mask. An
add batch goes to numpy only if it fits in the room left below the
growth limit, so no rebuild falls inside it; a longer one runs the
scalar calls. A fitting batch's keys are masked once in numpy and made
Python ints by ``tolist``, so the seat loop does no 64-bit ``&`` per
pair. The loop walks the pairs in order and only probes and seats: the
order in which codes are seated fixes the layout. It tests a slot for
empty by identity, ``held is NONE``: every empty slot holds the one NONE
object that ``[NONE] * cap`` put there, every other slot a code, and
codes are never negative, so no code is that object. The Python tail of
``contains_many`` and the rebuild probe the same way. After the loop,
numpy derives the rest from the slots it reached: the answers, the probe
counts, the edge count and, on a HashList, the chains. So answers, slot
layout, chain order, rebuilds and counters all come out as the scalar
calls give them.

``contains_many`` has one probe, :func:`_probe_rounds`. While the int64
view of the slots (below) is current and more than ``_ROUND_MIN``
queries are live, it probes them all at once, one slot per numpy round;
a Python loop over the slot list finishes the rest from where the rounds
left them, as ``HashList._walk`` finishes its chains. Reads move
nothing, so each query takes the same probes in rounds as alone. Adds
stay in the loop: a round that seated codes together would change the
layout. Counters are recorded once per batch that numpy takes. Numpy
takes a batch only whole and in range: one with an id numpy cannot hold
exactly (a float, an id beyond 64 bits) or an id outside [0, n) goes
through the scalar calls instead, which apply and count the pairs before
the first bad one and then raise its error.

The store keeps at most one such view, in ``_view``, as one pair
``(edge_count, table)``. It is current while the store has that edge
count: only ``_install`` changes the capacity, and it drops the view, and
nothing is ever removed, so then it holds the slots as they are. Only a
bulk add that numpy takes makes one: into an empty table, on a store of
at most 2**31 vertices (so int64 holds every code and NONE), with a
batch of at least capacity / 8 pairs, it starts the view as all NONE,
and ``_book`` scatters the seats of each such add into a current view.
So the load of ``graphstores query`` leaves one. The read rule: the read
batches (the rounds of ``contains_many``, HashList's enumeration) read
the view only while it is current, and otherwise the slot list; nothing
copies the slots. A scalar seat makes the view stale, and a stale view
never becomes current again, since counts only grow and every install
of a table drops it; so the next read batch or bulk add frees it, as
``_install`` does on every rebuild and ``grow``. While held it costs
8 B per slot, about 32 B per edge at the load of 1/4 that ``graphstores
query`` sizes for; the scalar bodies never touch it. Readers need no lock
once mutation stops: each reads ``_view`` once, so it never pairs a table
with another table's key, and a reader can only store None there.
"""

from __future__ import annotations

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
    check_lengths,
    compat_hash,
)


def _id_array(ids, n: int):
    """``ids`` as a 1-D numpy integer array, or None unless numpy holds every id
    exactly as an integer (no floats, no ids beyond 64 bits, not empty) and every
    id lies in [0, n)."""
    try:
        a = np.asarray(ids)
    except (OverflowError, TypeError, ValueError):
        return None
    if a.ndim == 1 and a.dtype.kind in "iu" and len(a) and a.min() >= 0 and a.max() < n:
        return a
    return None


def _bulk_codes(xs, ys, n: int, key):
    """The vectorized front end of the bulk methods.

    Returns ``(codes, keys)``, two uint64 arrays: the packed codes of the
    pairs and their capacity-independent keys under ``key``, one of
    :data:`~graphstores.core.HASH_KEYS`. Returns None unless
    :func:`_id_array` takes both id sequences whole; the caller then runs
    the scalar calls, which apply the pairs before the first bad one and
    raise what they always raise.
    """
    check_lengths(xs, ys)
    ax, ay = _id_array(xs, n), _id_array(ys, n)
    if ax is None or ay is None:
        return None
    codes = (ax.astype(np.uint64) << np.uint64(32)) | ay.astype(np.uint64)
    return codes, key(codes)


#: A batch read runs numpy rounds while more than this many of its walks are
#: live, and finishes the rest in Python: a round costs about as much as this
#: many scalar steps. Both batch reads break even near it: ``HashList._walk``'s
#: chain rounds on 2,000-step chains, and :func:`_probe_rounds`'s probe rounds
#: on a 2,000-slot cluster (about 70 queries). 16, 32 and 128 gained nothing
#: measurable on a star hub's walk or on ``graphstores query``'s C batches.
_ROUND_MIN = 64


def _probe_rounds(table, data: list, codes, slots, mask: int) -> tuple:
    """Probe every query of a batch: numpy rounds over ``table``, then a Python tail.

    ``codes`` is a uint64 array of the sought codes, ``slots`` an int64
    array of their home slots, and ``table`` the current int64 view of the
    slot list ``data``, or None. While a table is given and more than
    ``_ROUND_MIN`` queries are live, each round reads the slot of every
    live one; a query stops when it reads its code or NONE (a table always
    keeps an empty slot), and every other one moves one slot on. The Python
    loop then finishes each query still live over ``data``, from the slot
    the rounds left it at, adding only its own probes; it compares the
    uint64 codes, since past 2**31 vertices (where there is no view) a code
    may not fit int64. So each query takes exactly the probes it takes
    alone. Returns ``(answers, total, peak)``: a list of bools aligned with
    ``codes`` (the loop's own list when no round ran), the sum of the
    probes and the longest.
    """
    total = rounds = peak = 0
    if table is not None and len(codes) > _ROUND_MIN:
        found = np.zeros(len(codes), dtype=bool)
        live = np.arange(len(codes))
        want = codes.view(np.int64)
        while len(live) > _ROUND_MIN:
            total += len(live)
            rounds += 1
            held = table[slots]
            hit = held == want
            found[live[hit]] = True
            going = ~hit & (held != NONE)
            live, want, slots = live[going], want[going], (slots[going] + 1) & mask
        codes = codes[live]
    out = []
    append = out.append
    for slot, code in zip(slots.tolist(), codes.tolist()):
        held = data[slot]
        probes = 1
        while held is not NONE and held != code:
            slot = (slot + 1) & mask
            held = data[slot]
            probes += 1
        total += probes
        if probes > peak:
            peak = probes
        append(held is not NONE)
    if not rounds:
        return out, total, peak
    found[live] = out
    return found.tolist(), total, rounds + peak


class EdgeHash(EdgeStore):
    """Hash table of directed edges keyed by their packed 64-bit codes.

    Membership cost does not depend on vertex degree, only on load factor.
    Per-vertex enumeration is deliberately unsupported: nothing short of a
    full slot scan could answer it, and pretending otherwise would hide an
    O(capacity) cost behind an innocent-looking call.

    Single-writer: mutation needs exclusive access; once mutation stops,
    any number of threads may read concurrently.
    """

    __slots__ = ("config", "rebuilds", "_cap", "_mask", "_data", "_mixer", "_key", "_growth_limit",
                 "_view")

    enumerates = False

    # HashList's chain arrays; its slots shadow these, so on an EdgeHash the
    # scalar and bulk adds see None and skip the threading.
    _heads = _next = None

    def __init__(self, config: StoreConfig) -> None:
        super().__init__(config.vertex_count)
        self.config = config
        self._mixer = config.hash_mode == "mixer"
        self._key = HASH_KEYS[config.hash_mode]
        self.rebuilds = 0
        self._allocate(config.initial_capacity)

    def _allocate(self, cap: int) -> None:
        """Install an empty table of ``cap`` slots."""
        self._install(cap, [NONE] * cap)

    def _install(self, cap: int, data: list) -> None:
        """Make ``data``, a slot list of length ``cap``, the store's table; drop the view."""
        self._growth_limit = self.config.growth_limit(cap)
        self._cap = cap
        self._mask = cap - 1
        self._data = data
        self._view = None

    def _current_view(self):
        """The view's int64 table if it is current, else None; a stale view is
        dropped (see the module docstring)."""
        view = self._view
        if view is not None and view[0] == self._count:
            return view[1]
        self._view = None
        return None

    def add_edge(self, x: int, y: int) -> bool:
        n = self._n
        if x < 0 or x >= n or y < 0 or y >= n:
            raise self._pair_error(x, y)
        if self._count >= self._growth_limit:
            self._rebuild(self._cap * 2)
        code = (x << 32) | y
        mask = self._mask
        if self._mixer:
            z = ((code ^ (x >> 1)) * _MIX_MULT_1) & U64_MASK  # code >> 33 is x >> 1
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
            raise self._pair_error(x, y)
        code = (x << 32) | y
        mask = self._mask
        if self._mixer:
            z = ((code ^ (x >> 1)) * _MIX_MULT_1) & U64_MASK  # code >> 33 is x >> 1
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
        """``add_edge`` per pair; the answers and counters are those of the scalar calls.

        Numpy takes a batch that fits in the room left below the growth
        limit and that ``_bulk_codes`` takes whole; every other batch runs
        the scalar calls. A fitting batch cannot reach a rebuild, so its
        homes are masked once, and one Python loop probes and seats the
        pairs in order. It records for each pair the slot it reached: the
        slot itself where it seated, its complement where it found the
        code. ``_book`` derives the rest in numpy.
        """
        front = _bulk_codes(xs, ys, self._n, self._key)
        if front is None or len(front[0]) > self._growth_limit - self._count:
            return super().add_edges(xs, ys)
        codes, keys = front
        if not self._count and len(codes) * 8 >= self._cap and self._n <= 1 << 31:
            # The view the read batches use (module docstring); ``_book`` fills it.
            self._view = (0, np.full(self._cap, NONE, np.int64))
        data, mask = self._data, self._mask
        homes = (keys & np.uint64(mask)).view(np.int64)
        reached = []
        append = reached.append
        try:
            for slot, code in zip(homes.tolist(), codes.tolist()):
                held = data[slot]
                while held is not NONE and held != code:
                    slot = (slot + 1) & mask
                    held = data[slot]
                if held is NONE:
                    data[slot] = code
                    append(slot)
                else:
                    append(~slot)
        finally:
            out = self._book(codes[: len(reached)], homes[: len(reached)], reached)
        return out

    def _book(self, codes, homes, reached: list) -> list[bool]:
        """Everything the add loop leaves out; returns its answers.

        ``reached`` holds one entry per pair of ``codes`` (with their
        ``homes``): the slot it seated at, or the complement of the slot
        that held its code. A probe ends at its slot, and no table is ever
        full, so it took ``((slot - home) & mask) + 1`` probes. The counts
        go to the add channel in one ``record_batch``, the seats to the
        edge count, the seated codes to their slots of the view while it
        is current, and the seated codes with their slots to ``_link``.
        """
        if not reached:
            return []
        got = np.array(reached, dtype=np.int64)
        seated = got >= 0
        slots = np.where(seated, got, ~got)
        probes = ((slots - homes) & self._mask) + 1
        self.counters.add.record_batch(len(got), int(probes.sum()), int(probes.max()))
        table = self._current_view()
        self._count += int(np.count_nonzero(seated))
        new_codes, new_slots = codes[seated], slots[seated]
        if table is not None:
            table[new_slots] = new_codes.view(np.int64)
            self._view = (self._count, table)
        self._link(new_codes, new_slots)
        return seated.tolist()

    def _link(self, codes, new_slots) -> None:
        """A batch's chains; an edge hash keeps none."""

    def contains_many(self, xs, ys) -> list[bool]:
        """``contains`` per pair, with the answers and counters of the scalar calls.

        A batch that ``_bulk_codes`` refuses, any bad id included, runs the
        scalar calls. Every other batch is one :func:`_probe_rounds` call,
        given the view while it is current (the read rule of the module
        docstring), and one ``record_batch``.
        """
        front = _bulk_codes(xs, ys, self._n, self._key)
        if front is None:
            return super().contains_many(xs, ys)
        codes, keys = front
        mask = self._mask
        homes = (keys & np.uint64(mask)).view(np.int64)
        out, total, peak = _probe_rounds(self._current_view(), self._data, codes, homes, mask)
        self.counters.contains.record_batch(len(out), total, peak)
        return out

    def neighbors(self, x: int) -> list[int]:
        raise UnsupportedOperationError(
            "EdgeHash cannot enumerate neighbors; use HashList or MultiList"
        )

    def grow(self) -> None:
        """Double capacity and re-seat every code; observable answers are unchanged."""
        self._rebuild(self._cap * 2)

    def _rebuild(self, new_cap: int) -> None:
        data, _ = self._reseat(new_cap, [code for code in self._data if code is not NONE])
        self._install(new_cap, data)
        self.rebuilds += 1

    def _reseat(self, new_cap: int, codes: list[int]) -> tuple:
        """Seat ``codes``, in that order, in a fresh slot list of ``new_cap`` slots.

        Linear probing is order-dependent, so the order fixes the layout.
        Every home is the hash mode's key, from one array call on the codes
        made uint64 by ``np.fromiter``, masked to the new capacity; the
        probe is inline, since a rebuild re-seats every edge. Returns
        ``(data, seated)`` for the caller to install, and changes nothing
        in the store. When ``_heads`` is set, the same pass records the
        seated slots in seat order, from which the caller threads the
        chains; otherwise ``seated`` is None.
        """
        mask = new_cap - 1
        keys = self._key(np.fromiter(codes, np.uint64, len(codes)))
        homes = (keys & np.uint64(mask)).tolist()
        data = [NONE] * new_cap
        seated = None if self._heads is None else []
        for code, slot in zip(codes, homes):
            while data[slot] is not NONE:
                slot = (slot + 1) & mask
            data[slot] = code
            if seated is not None:
                seated.append(slot)
        return data, seated

    @property
    def capacity(self) -> int:
        return self._cap

    @property
    def load_factor(self) -> float:
        return self._count / self._cap

    slots_allocated = capacity
