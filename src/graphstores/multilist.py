"""Adjacency lists as one Python list of targets per vertex, newest first.

``_lists[x]`` holds x's targets in reverse order of arrival, so
enumeration yields them newest first. Every vertex without an edge shares
the immutable ``()``, and its first edge gives it a list of its own. The
counters count the entries a chain walk would visit: a hit at position i
newest first counts i + 1, a miss the whole list and a new edge the list
+ 1. A target is taken through ``operator.index`` before the search, so a
float one raises TypeError, as on the other stores.

A list is of one of two kinds, each with one search. A plain list,
shorter than ``_ONE_INDEX_FROM``, is searched as a list, in C: ``in``
decides the answer, and on a hit ``index`` finds the position, for an add
and a read alike. A list that reaches ``_ONE_INDEX_FROM`` targets (a hub)
becomes a ``_Hub``: the same newest-first list, which also keeps its
targets sorted with their arrival numbers beside them. Its ``in`` and
``index`` bisect the sorted targets, and a hit with arrival a of k targets
is at position k - 1 - a newest first. The new edge that makes a list a
hub turns it into one only when the capacity check will pass, and each
new edge on a hub is filed in the index as it goes on at the front. So
``contains`` is one body for every list, and a store whose lists all stay
short holds plain lists only.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from operator import index

from .core import CapacityError, EdgeStore, _checked_size

#: A list that reaches this many targets becomes a ``_Hub``, searched by bisection.
#: Speed alone would put it near 64 (measured, see CHANGES.md; per call through
#: ``add_edge`` and ``contains``): against a plain list's ``in`` and ``index``, a
#: hub takes 0.5-1.1x the time for a contains hit or miss, a duplicate and a new
#: edge at 64 targets, 0.3-0.8x at 128 and 0.2-0.9x at 256. Memory sets it: an
#: index costs about 13 B a target beside the list's 9, and skewed-growing's
#: scaled memory build has 32 lists of 96-171 targets holding half its edges. A
#: cutoff of 144 raises that build's ``multilist.bytes_per_edge`` 1.9% and one of
#: 128 17%, past its 5% bound. No benchmark stream has a list of 180-255 targets,
#: so a cutoff there would spend memory on no measured time; 256 stays.
_ONE_INDEX_FROM = 256
#: The longest plain list: a new edge that will be stored makes it a hub.
_LONGEST_LIST = _ONE_INDEX_FROM - 1


class _Hub(list):
    """A hub's targets, newest first. Its index: ``_sorted``, the same ints ascending,
    and ``_arrivals[i]``, the arrival number (0 for the oldest) of ``_sorted[i]``."""

    __slots__ = ("_sorted", "_arrivals")

    def __init__(self, targets: list[int]) -> None:
        super().__init__(targets)
        last = len(targets) - 1
        order = sorted(range(last + 1), key=targets.__getitem__)
        self._sorted = [targets[p] for p in order]
        self._arrivals = array("I", [last - p for p in order])

    def __contains__(self, y: int) -> bool:
        keys = self._sorted
        i = bisect_left(keys, y)
        return i < len(keys) and keys[i] == y

    def index(self, y: int) -> int:
        """Newest-first position of ``y``; ValueError if absent, as ``list.index``."""
        keys = self._sorted
        i = bisect_left(keys, y)
        if i < len(keys) and keys[i] == y:
            return len(keys) - 1 - self._arrivals[i]
        raise ValueError(f"{y!r} is not in list")

    def insert(self, _front: int, y: int) -> None:
        """Put the new target ``y`` at the front, newest first, and file it in the index."""
        keys = self._sorted
        i = bisect_left(keys, y)
        self._arrivals.insert(i, len(keys))
        keys.insert(i, y)
        list.insert(self, 0, y)


class MultiList(EdgeStore):
    """Fixed-capacity collection of per-vertex adjacency lists.

    Duplicate edges are rejected (the add scans the target list first), so
    this store carries the same set semantics as the hash-backed ones and
    can be compared against them operation for operation.

    Single-writer: mutation needs exclusive access; once mutation stops,
    any number of threads may read concurrently.
    """

    __slots__ = ("_m", "_lists")

    def __init__(self, vertex_count: int, edge_capacity: int) -> None:
        super().__init__(vertex_count)
        self._m = _checked_size("edge_capacity", edge_capacity, 0)
        self._lists = [()] * self._n

    def add_edge(self, x: int, y: int) -> bool:
        n = self._n
        if x < 0 or x >= n or y < 0 or y >= n:
            raise self._pair_error(x, y)
        y = index(y)
        lists = self._lists
        targets = lists[x]
        k = len(targets)
        if k < _LONGEST_LIST:
            new = y not in targets
            steps = k + 1 if new else targets.index(y) + 1
        elif k >= _ONE_INDEX_FROM:  # a hub: one bisection of its index
            keys = targets._sorted
            i = bisect_left(keys, y)
            new = i == k or keys[i] != y
            steps = k + 1 if new else k - targets._arrivals[i]
        else:  # the longest plain list
            new = y not in targets
            steps = k + 1 if new else targets.index(y) + 1
            if new and self._count < self._m:
                targets = lists[x] = _Hub(targets)
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
        found = y in targets
        steps = targets.index(y) + 1 if found else len(targets)
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
