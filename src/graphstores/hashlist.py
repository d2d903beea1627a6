"""Fused store: every occupied hash slot is also an adjacency-list node.

Insertion picks the slot by probing exactly as the edge hash does (it is
the edge hash, see :class:`~graphstores.edgehash.EdgeHash`, whose flat
``add_edge`` and ``contains`` it inherits), then threads the slot onto the
source vertex's chain (``next[slot] = heads[x]; heads[x] = slot``).
Membership inherits the hash table's degree-independent cost; enumeration
walks the chain and touches exactly deg(x) slots. Chains use the
out-of-band NONE sentinel because slot 0 is a legitimate hash slot. This
class adds only the chain arrays (``_allocate``), the rebuild's order and
threading (``_rebuild``), enumeration, and the weight lookups.

A rebuild finds the vertices that have edges with one numpy pass over
``_heads`` and walks only their chains, in Python, into the seat order:
vertex by vertex, each chain oldest-first as one run. The edge hash's
seat pass places the codes, carries the weights and returns the seated
slots. The chains are then threaded with numpy over views of the fresh
chain arrays: ``heads[v]`` is the last slot of v's run, every other slot
links to the one seated before it, and each run's first slot keeps NONE.
Only then are the new slots, chains and weights installed, so a rebuild
that fails on the way leaves the store as it was.

The bulk ``add_edges`` and ``contains_many`` come from the edge hash's
vectorized front end and batch paths; the add loop threads each new slot
onto its chain as ``add_edge`` does, and takes an optional weight per pair,
so a weighted batch probes each edge once rather than once more for
``set_weight``.

The chain arrays hold only slot indices and NONE, so they are 4-byte
cells (8-byte past 2**31 slots) in an ``array`` behind a ``memoryview``,
not lists of pointers to int objects: about 57 B/edge instead of 95. The
inherited bodies index them exactly as they index lists, and a store or
load through a memoryview costs about half what it does on a bare
``array``. ``_data`` stays a list, because every probe reads it and
unboxing a typed cell on each read slows the probe loop. ``_weights``
stays a list, because ``nan`` is a legal weight, so no float value can
mean "unset"; a list holds None for that.
"""

from __future__ import annotations

from array import array

import numpy as np

from .core import (NONE, U32_MASK, ConfigError, VertexRangeError, check_lengths, compat_hash,
                   mixer_hash, pack_edge)
from .edgehash import EdgeHash


def _chain_cells(length: int, cap: int) -> memoryview:
    """``length`` NONE cells, each wide enough for any slot index below ``cap``."""
    return memoryview(array("i" if cap <= 1 << 31 else "q", [NONE]) * length)


class HashList(EdgeHash):
    """Edge hash whose slots double as linked-list nodes, one list per source.

    Growth rebuilds preserve observable enumeration order: vertex by vertex,
    each chain is re-seated oldest-first, so the rebuilt chains enumerate
    exactly as before. An optional weight array (``StoreConfig.weighted``)
    rides along with the slots and survives rebuilds too.

    ``_heads`` (one cell per vertex) and ``_next`` (one per slot) are
    4-byte cells in memoryviews; ``_data`` and ``_weights`` are lists (see
    the module docstring for why).

    Single-writer: mutation needs exclusive access; once mutation stops,
    any number of threads may read concurrently. No internal locking.
    """

    __slots__ = ("_heads", "_next", "_weights")

    def _allocate(self, cap: int) -> None:
        super()._allocate(cap)
        self._heads = _chain_cells(self._n, cap)
        self._next = _chain_cells(cap, cap)
        self._weights: list | None = [None] * cap if self.config.weighted else None

    def add_edges(self, xs, ys, weights=None) -> list[bool]:
        """``add_edge`` per pair in order; then, where ``weights[i]`` is not None,
        ``set_weight`` with it, so the last weight given for an edge wins.

        Weights need a weighted store: passing them to any other raises
        ConfigError before any pair is added.
        """
        if weights is not None:
            if self._weights is None:
                raise ConfigError("weights are not enabled (StoreConfig.weighted)")
            check_lengths(xs, weights)
        return self._add_batch(xs, ys, weights)

    def neighbors(self, x: int) -> list[int]:
        if x < 0 or x >= self._n:
            raise VertexRangeError(f"vertex {x} outside range [0, {self._n})")
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
        data, nxt, old_weights = self._data, self._next, self._weights
        old_heads = np.frombuffer(self._heads, dtype=self._heads.format)
        live = np.flatnonzero(old_heads != NONE)
        order = []
        append = order.append
        starts = []
        for i in reversed(old_heads[live].tolist()):
            starts.append(len(order))
            while i != NONE:
                append(i)
                i = nxt[i]
        order.reverse()
        weights = None if old_weights is None else [old_weights[s] for s in order]
        data, weights, seated = self._reseat(new_cap, [data[s] for s in order], weights)
        heads, nxt = _chain_cells(self._n, new_cap), _chain_cells(new_cap, new_cap)
        # A run that starts at k in the walk ends at len(order) - 1 - k in
        # the seat order. heads[v] is the last slot of v's run, every other
        # slot links to the one seated before it, and each run's first slot
        # keeps NONE.
        new_heads = np.frombuffer(heads, dtype=heads.format)
        new_next = np.frombuffer(nxt, dtype=nxt.format)
        slots = np.array(seated, dtype=np.intp)
        last = len(order) - 1 - np.array(starts[::-1], dtype=np.intp)
        new_heads[live] = slots[last]
        new_next[slots[1:]] = slots[:-1]
        new_next[slots[last[:-1] + 1]] = NONE
        self._install(new_cap, data)
        self._heads, self._next, self._weights = heads, nxt, weights
        self.rebuilds += 1

    def memory_ints(self) -> int:
        """Cells, not bytes: n heads + data/next slot arrays (+ weights): n + 2*cap (+ cap)."""
        total = self._n + 2 * self._cap
        if self._weights is not None:
            total += self._cap
        return total
