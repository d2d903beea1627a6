"""Adjacency lists as one Python list of targets per vertex, newest first.

``_lists[x]`` holds x's targets in reverse order of arrival, so
enumeration yields them newest first. Every vertex without an edge shares
the immutable ``()``, and its first edge gives it a list of its own. The
counters count the entries a chain walk would visit: a hit at position i
newest first counts i + 1, a miss the whole list and a new edge the list
+ 1. A target is taken through ``operator.index`` before the search, so a
float one raises TypeError, as on the other stores.

A list shorter than ``_ONE_INDEX_FROM`` is searched as a list, in C. An
add checks a short list with ``in`` and, for a duplicate, ``index``. A
list of ``_ONE_SCAN_FROM`` or more targets is scanned once: the target
goes on at the oldest end as a sentinel, one ``index`` finds it, at the
list's old length if it is new, and the sentinel is popped before the
capacity check can raise. The sentinel lives only inside an add, which is
already a mutation under the single-writer contract. ``contains`` may not
mutate, so it takes no sentinel: ``in``, and then ``index`` on a hit.

A list of ``_ONE_INDEX_FROM`` or more targets (a hub) also has a packed
twin, ``_twins[x]``: an ``array("I")`` of the same targets, oldest first,
at 4 B per target. The add that brings the list to the cutoff builds it,
and each later new edge appends to it when the capacity check will pass.
On a hub, ``add_edge`` and ``contains`` find the target with one numpy
pass over the twin (``_twin_index``); a hit at twin index i is at position
k - 1 - i newest first, so it counts k - i. ``neighbors`` still copies the
list. The twins are a dict keyed by vertex, so a store whose lists all
stay short holds only one empty dict more.
"""

from __future__ import annotations

from array import array
from operator import index

import numpy as np

from .core import CapacityError, EdgeStore, _checked_size

#: An add to a list at least this long checks for a duplicate in one scan.
#: Break-even (measured, see CHANGES.md): when a quarter of the adds are
#: duplicates, the sentinel's append and pop cost what a duplicate's second
#: scan saves at about 48 targets; at 16 targets it needs about 60%.
_ONE_SCAN_FROM = 48

#: ``add_edge`` and ``contains`` on a list at least this long search its twin.
#: Break-even (measured, see CHANGES.md): the numpy pass costs 1.7-2.0 µs at
#: 128 to 1,024 targets. At 128 a list search (``in``, then ``index`` on a
#: hit) takes 1.5-1.6 µs and the add's sentinel scan 0.8 µs for a duplicate and
#: 1.5 µs for a new target; at 256 the pass is 1.6-1.8x faster than the list
#: search and than the sentinel on a new target, at 512 about 3x and at
#: 1,024 about 6x.
_ONE_INDEX_FROM = 256


def _twin_index(twin: array, y: int) -> int:
    """Index of ``y`` in a packed twin (oldest first), or -1: one numpy pass."""
    i = int((np.frombuffer(twin, np.uintc) == y).argmax())
    return i if twin[i] == y else -1


class MultiList(EdgeStore):
    """Fixed-capacity collection of per-vertex adjacency lists.

    Duplicate edges are rejected (the add scans the target list first), so
    this store carries the same set semantics as the hash-backed ones and
    can be compared against them operation for operation.

    Single-writer: mutation needs exclusive access; once mutation stops,
    any number of threads may read concurrently.
    """

    __slots__ = ("_m", "_lists", "_twins")

    def __init__(self, vertex_count: int, edge_capacity: int) -> None:
        super().__init__(vertex_count)
        self._m = _checked_size("edge_capacity", edge_capacity, 0)
        self._lists = [()] * self._n
        self._twins: dict[int, array] = {}

    def add_edge(self, x: int, y: int) -> bool:
        n = self._n
        if x < 0 or x >= n or y < 0 or y >= n:
            raise self._pair_error(x, y)
        y = index(y)
        lists = self._lists
        targets = lists[x]
        k = len(targets)
        if k < _ONE_SCAN_FROM:
            new = y not in targets
            steps = k + 1 if new else targets.index(y) + 1
        elif k < _ONE_INDEX_FROM:  # y at the oldest end ends the one scan, at k if y is new
            targets.append(y)
            steps = targets.index(y) + 1
            targets.pop()
            new = steps > k
            if new and k == _ONE_INDEX_FROM - 1 and self._count < self._m:  # y makes a hub
                twin = self._twins[index(x)] = array("I", reversed(targets))
                twin.append(y)
        else:  # a hub: one numpy pass over its twin
            twin = self._twins[x]
            i = _twin_index(twin, y)
            new = i < 0
            steps = k + 1 if new else k - i
            if new and self._count < self._m:  # the twin takes y if the check below passes
                twin.append(y)
        if new:
            if self._count >= self._m:
                raise CapacityError(f"all {self._m} cells are in use")
            self._count += 1
            if k:
                targets.insert(0, y)
            else:
                lists[x] = [y]
        channel = self.counters.add
        channel.ops += 1
        channel.total += steps
        if steps > channel.peak:
            channel.peak = steps
        return new

    def contains(self, x: int, y: int) -> bool:
        n = self._n
        if x < 0 or x >= n or y < 0 or y >= n:
            raise self._pair_error(x, y)
        y = index(y)
        targets = self._lists[x]
        k = len(targets)
        if k < _ONE_INDEX_FROM:
            found = y in targets
            steps = targets.index(y) + 1 if found else k
        else:
            i = _twin_index(self._twins[x], y)
            found = i >= 0
            steps = k - i if found else k
        channel = self.counters.contains
        channel.ops += 1
        channel.total += steps
        if steps > channel.peak:
            channel.peak = steps
        return found

    def neighbors(self, x: int) -> list[int]:
        if x < 0 or x >= self._n:
            raise self._vertex_error(x)
        out = list(self._lists[x])
        steps = len(out)
        channel = self.counters.enumerate
        channel.ops += 1
        channel.total += steps
        if steps > channel.peak:
            channel.peak = steps
        return out

    @property
    def edge_capacity(self) -> int:
        return self._m

    @property
    def slots_allocated(self) -> int:
        """The fixed edge budget plus one, m + 1, as the bench CSV has always reported it."""
        return self._m + 1
