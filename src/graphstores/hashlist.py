"""Fused store: every occupied hash slot is also an adjacency-list node.

Insertion picks the slot by probing exactly as the edge hash does (it is
the edge hash, see :class:`~graphstores.edgehash.EdgeHash`, whose flat
``add_edge`` and ``contains`` it inherits), then threads the slot onto the
source vertex's chain (``next[slot] = heads[x]; heads[x] = slot``).
Membership inherits the hash table's degree-independent cost; enumeration
walks the chain and touches exactly deg(x) slots. Chains use the
out-of-band NONE sentinel because slot 0 is a legitimate hash slot. This
class adds only the chain arrays, one walk of many chains (``_walk``), one
threading of many new slots (``_thread``), enumeration, the rebuild's
order and weights, and the weight lookups.

``_walk`` takes one numpy step on every live chain per round, until at
most ``edgehash._ROUND_MIN`` are live, and a scalar walk finishes those,
as the edge hash's ``contains_many`` probe does. ``_thread`` groups new
slots by source in arrival order, by one sort unless the sources come
grouped, and puts each group at the front of its chain, as ``add_edge``
would one slot at a time. The edge hash's bulk add threads each pass with
it (``_link``), and ``neighbors_many`` walks with ``_walk``. Its targets
come from the edge hash's int64 view of the slots while that is current,
and otherwise from one gather over ``_data`` (the read rule of
:mod:`~graphstores.edgehash`). ``_neighbor_runs`` hands the targets
and run ends on as numpy arrays, which is what ``graphstores query``
formats, and ``neighbors_many`` is their ``tolist``. A rebuild walks
with ``_walk`` too: it walks the chains of the vertices that have edges
from the last one, and reversed, that walk is the seat order: vertex by
vertex, each chain oldest-first, and each live vertex repeated by its
chain length gives the sources, grouped. After the seat each weight moves
from its old slot to its new one, and ``_thread`` threads fresh chain
arrays. Only then are the new slots, chains and weights installed, so a
rebuild that fails on the way leaves the store as it was. Weights are set
one edge at a time with ``set_weight``.

The chain arrays hold only slot indices and NONE, so they are 4-byte
cells (8-byte past 2**31 slots) in an ``array`` behind a ``memoryview``,
not lists of pointers to int objects: about 57 B/edge instead of 95. The
inherited bodies index them exactly as they index lists, and a store or
load through a memoryview costs about half what it does on a bare
``array``. ``_data`` stays a list, because every probe reads it and
unboxing a typed cell on each read slows the probe loop; the read
batches use the int64 view instead. It holds codes only, never weights,
and costs 8 B more per slot while it is held (about 32 B per edge at the
load of 1/4 that ``graphstores query`` sizes for), beyond the 57.
``_weights`` stays a list, because ``nan`` is a legal weight, so no float value can
mean "unset"; a list holds None for that.
"""

from __future__ import annotations

from array import array
from operator import itemgetter

import numpy as np

from .core import NONE, U32_MASK, ConfigError, compat_hash, mixer_hash, pack_edge
from .edgehash import _ROUND_MIN, EdgeHash, _id_array


def _chain_cells(length: int, cap: int) -> memoryview:
    """``length`` NONE cells, each wide enough for any slot index below ``cap``."""
    return memoryview(array("i" if cap <= 1 << 31 else "q", [NONE]) * length)


def _cells(cells: memoryview) -> np.ndarray:
    """A writable numpy view of chain cells."""
    return np.frombuffer(cells, dtype=cells.format)


def _gather(data: list, slots: list):
    """``data[i]`` for each i in ``slots``, in order, as a sequence."""
    return itemgetter(*slots)(data) if len(slots) > 1 else [data[i] for i in slots]


def _thread(heads: np.ndarray, nxt: np.ndarray, src: np.ndarray, slots) -> None:
    """Thread new ``slots``, seated in that order for sources ``src``, onto their chains.

    ``heads`` and ``nxt`` are views of chain cells, ``src`` an int64 array.
    The slots are grouped by source in arrival order: as they come when
    ``src`` never decreases (as in a rebuild), else by one sort of each
    source shifted over its arrival index, which fits while there are fewer
    than 2**32 slots. Each group's first slot links to its source's old
    head, every other slot to the one before it, and its last slot becomes
    the head: the links ``add_edge`` makes one slot at a time.
    """
    if not len(src):
        return
    if (src[1:] < src[:-1]).any():
        keys = (src.view(np.uint64) << np.uint64(32)) | np.arange(len(src), dtype=np.uint64)
        keys.sort()
        src = (keys >> np.uint64(32)).view(np.int64)
        slots = slots[(keys & np.uint64(U32_MASK)).view(np.int64)]
    firsts = np.flatnonzero(np.diff(src, prepend=-1))
    lasts = np.append(firsts[1:], len(src)) - 1
    prev = np.empty_like(slots)
    prev[1:] = slots[:-1]
    prev[firsts] = heads[src[firsts]]
    nxt[slots] = prev
    heads[src[lasts]] = slots[lasts]


class HashList(EdgeHash):
    """Edge hash whose slots double as linked-list nodes, one list per source.

    Growth rebuilds preserve observable enumeration order: vertex by vertex,
    each chain is re-seated oldest-first, so the rebuilt chains enumerate
    exactly as before. An optional weight array (``StoreConfig.weighted``)
    rides along with the slots and survives rebuilds too.

    ``_heads`` (one cell per vertex) and ``_next`` (one per slot) are
    4-byte cells in memoryviews; ``_data`` and ``_weights`` are lists (see
    the module docstring for why). A bulk-loaded store may also hold the
    inherited int64 view of its slots, 8 B per slot, which batch
    enumeration reads while it is current (see :mod:`~graphstores.edgehash`).

    Single-writer: mutation needs exclusive access; once mutation stops,
    any number of threads may read concurrently, with no internal locking.
    """

    __slots__ = ("_heads", "_next", "_weights")

    enumerates = True

    def _allocate(self, cap: int) -> None:
        super()._allocate(cap)
        self._heads = _chain_cells(self._n, cap)
        self._next = _chain_cells(cap, cap)
        self._weights: list | None = [None] * cap if self.config.weighted else None

    def _link(self, codes, new_slots) -> None:
        """Thread a pass's new slots onto the store's chains."""
        src = (codes >> np.uint64(32)).view(np.int64)
        _thread(_cells(self._heads), _cells(self._next), src, new_slots)

    def neighbors(self, x: int) -> list[int]:
        if x < 0 or x >= self._n:
            raise self._vertex_error(x)
        nxt = self._next
        data = self._data
        out = []
        i = self._heads[x]
        while i != NONE:
            out.append(data[i] & U32_MASK)
            i = nxt[i]
        steps = len(out)
        channel = self.counters.enumerate
        channel.ops += 1
        channel.total += steps
        if steps > channel.peak:
            channel.peak = steps
        return out

    def _walk(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The chains of the vertices ``vs``, uncounted: ``(slots, counts)``.

        ``slots`` holds each chain's slots newest-first, chain after chain
        in the order of ``vs``, and ``counts`` each chain's length. Every
        chain is walked at once: each numpy round over views of ``_heads``
        and ``_next`` takes one step on every chain still live, until at
        most ``_ROUND_MIN`` are, and the scalar walk finishes those (a star
        hub alone would otherwise take one round per edge). The threshold,
        shared with ``_probe_rounds``, is near the break-even of chain
        rounds on 2,000-step chains.
        """
        nxt = _cells(self._next)
        req = np.arange(len(vs))
        cur = _cells(self._heads)[vs].astype(np.intp)
        owners, steps = [], []
        while True:
            live = cur != NONE
            req, cur = req[live], cur[live]
            if len(cur) <= _ROUND_MIN:
                break
            owners.append(req)
            steps.append(cur)
            cur = nxt[cur]
        rounds = len(owners)
        tails = []
        chain = self._next
        for i in cur.tolist():
            run = []
            while i != NONE:
                run.append(i)
                i = chain[i]
            tails.append(run)
        # Place each slot at its run's start plus its depth in the chain; a
        # chain still live after the rounds has taken a step in every one.
        none = req[:0]
        owner = np.concatenate([*owners, none])
        counts = np.bincount(owner, minlength=len(vs))
        counts[req] += np.fromiter(map(len, tails), np.intp, len(tails))
        starts = np.cumsum(counts) - counts
        slots = np.empty(int(counts.sum()), np.intp)
        depth = np.repeat(np.arange(rounds), list(map(len, owners)))
        slots[starts[owner] + depth] = np.concatenate([*steps, none])
        for at, run in zip((starts[req] + rounds).tolist(), tails):
            slots[at : at + len(run)] = run
        return slots, counts

    def neighbors_many(self, vs) -> tuple[list[int], list[int]]:
        """``neighbors`` per vertex, as the flat pair of ``EdgeStore.neighbors_many``:
        the ``tolist`` of ``_neighbor_runs``."""
        targets, ends = self._neighbor_runs(vs)
        return targets.tolist(), ends.tolist()

    def _neighbor_runs(self, vs) -> tuple[np.ndarray, np.ndarray]:
        """``neighbors_many(vs)`` as a uint64 array of targets and an intp array of ends.

        ``_walk`` finds the slots of every requested chain at once. Their
        codes come from the int64 view of the slots while it is current,
        and otherwise from one gather over ``_data`` (the read rule of
        :mod:`~graphstores.edgehash`). Numpy masks the targets out, and the
        counters are recorded once. Numpy takes the batch only whole and in
        range (``_id_array``); any other batch, a bad vertex included, goes
        through the scalar calls.
        """
        ids = _id_array(vs, self._n)
        if ids is None:
            return super()._neighbor_runs(vs)
        slots, counts = self._walk(ids)
        table = self._current_view()
        if table is None:
            codes = np.fromiter(_gather(self._data, slots.tolist()), np.uint64, len(slots))
        else:
            codes = table[slots].view(np.uint64)
        targets = codes & np.uint64(U32_MASK)
        self.counters.enumerate.record_batch(len(ids), len(targets), int(counts.max()))
        return targets, np.cumsum(counts)

    def _weight_slot(self, x: int, y: int) -> int:
        """Slot of (x, y) by an uncounted probe; NONE when the edge is absent."""
        if self._weights is None:
            raise ConfigError("weights are not enabled (StoreConfig.weighted)")
        self._check_pair(x, y)
        code = pack_edge(x, y)
        cap = self._cap
        slot = mixer_hash(code, cap) if self._mixer else compat_hash(x, y, cap)
        data = self._data
        mask = self._mask
        held = data[slot]
        while held != code and held != NONE:
            slot = (slot + 1) & mask
            held = data[slot]
        return slot if held == code else NONE

    def set_weight(self, x: int, y: int, weight: float) -> bool:
        """Attach a weight to an existing edge; False if the edge is absent."""
        slot = self._weight_slot(x, y)
        if slot == NONE:
            return False
        self._weights[slot] = weight
        return True

    def get_weight(self, x: int, y: int) -> float | None:
        """Stored weight of (x, y); None when the edge is absent or unweighted."""
        slot = self._weight_slot(x, y)
        return None if slot == NONE else self._weights[slot]

    def _rebuild(self, new_cap: int) -> None:
        # Chains enumerate newest-first, so walking the live vertices from
        # the last one and reversing the whole walk gives the seat order:
        # vertex by vertex, each chain oldest-first.
        live = np.flatnonzero(_cells(self._heads) != NONE)
        walked, counts = self._walk(live[::-1])
        order = walked[::-1].tolist()
        codes = _gather(self._data, order)
        data, seated = self._reseat(new_cap, codes)
        weights, old_weights = None, self._weights
        if old_weights is not None:
            weights = [None] * new_cap
            for old, new in zip(order, seated):
                weights[new] = old_weights[old]
        heads, nxt = _chain_cells(self._n, new_cap), _chain_cells(new_cap, new_cap)
        src = live.repeat(counts[::-1])
        _thread(_cells(heads), _cells(nxt), src, np.fromiter(seated, np.intp, len(seated)))
        self._install(new_cap, data)
        self._heads, self._next, self._weights = heads, nxt, weights
        self.rebuilds += 1
