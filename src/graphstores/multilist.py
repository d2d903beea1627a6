"""Adjacency lists as one Python list of targets per vertex, newest first.

``_lists[x]`` holds x's targets in reverse order of arrival, so
enumeration yields them newest first. Every vertex without an edge shares
the immutable ``()``, and its first edge gives it a list of its own.
Membership, the duplicate check and enumeration run as list operations in
C. The counters still count the entries a chain walk would visit: the
list is newest first, so ``list.index`` compares exactly those. A target
is taken through ``operator.index`` before the scan, so a float one
raises TypeError, as on the other stores.

An add checks a short list with ``in`` and, for a duplicate, ``index``.
A list of ``_ONE_SCAN_FROM`` or more targets is scanned once: the target
goes on at the oldest end as a sentinel, one ``index`` finds it, at the
list's old length if it is new, and the sentinel is popped before the
capacity check can raise. The sentinel lives only inside an add, which is
already a mutation under the single-writer contract. ``contains`` keeps
``in`` and then ``index`` on a hit: a read may not mutate, and an
``index`` that catches ValueError costs about 1 µs on every miss.
"""

from __future__ import annotations

from operator import index

from .core import CapacityError, EdgeStore, _checked_size

#: An add to a list at least this long checks for a duplicate in one scan.
#: Break-even (measured, see CHANGES.md): when a quarter of the adds are
#: duplicates, the sentinel's append and pop cost what a duplicate's second
#: scan saves at about 48 targets; at 16 targets it needs about 60%.
_ONE_SCAN_FROM = 48


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
        if k < _ONE_SCAN_FROM:
            new = y not in targets
            steps = k + 1 if new else targets.index(y) + 1
        else:  # y appended at the oldest end ends the one scan, at k if y is new
            targets.append(y)
            steps = targets.index(y) + 1
            targets.pop()
            new = steps > k
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
