"""Adjacency lists as one Python list of targets per vertex, newest first.

``_lists[x]`` holds x's targets in reverse order of arrival, so
enumeration yields them newest first. Every vertex without an edge shares
the immutable ``()``, and its first edge gives it a list of its own.
Membership, the duplicate check and enumeration run as list operations in
C. The counters still count the entries a chain walk would visit: the
list is newest first, so ``list.index`` compares exactly those. A target
is taken through ``operator.index`` before the scan, so a float one
raises TypeError, as on the other stores.
"""

from __future__ import annotations

from operator import index

from .core import CapacityError, ConfigError, EdgeStore, VertexRangeError
from .counters import OpCounters


class MultiList(EdgeStore):
    """Fixed-capacity collection of per-vertex adjacency lists.

    Duplicate edges are rejected (the add scans the target list first), so
    this store carries the same set semantics as the hash-backed ones and
    can be compared against them operation for operation.

    Single-writer: mutation needs exclusive access; once mutation stops,
    any number of threads may read concurrently.
    """

    __slots__ = ("_n", "_m", "_lists", "_count", "counters")

    def __init__(self, vertex_count: int, edge_capacity: int) -> None:
        if vertex_count < 1:
            raise ConfigError("vertex_count must be positive")
        if vertex_count > 1 << 32:
            raise ConfigError("vertex ids are limited to 32 bits")
        if edge_capacity < 0:
            raise ConfigError("edge_capacity must be nonnegative")
        self._n = vertex_count
        self._m = edge_capacity
        self._lists = [()] * vertex_count
        self._count = 0
        self.counters = OpCounters()

    def add_edge(self, x: int, y: int) -> bool:
        n = self._n
        if x < 0 or x >= n or y < 0 or y >= n:
            raise VertexRangeError(f"edge ({x}, {y}) outside vertex range [0, {n})")
        y = index(y)
        lists = self._lists
        targets = lists[x]
        new = y not in targets
        if new:
            if self._count >= self._m:
                raise CapacityError(f"all {self._m} cells are in use")
            self._count += 1
            steps = len(targets) + 1
            if targets:
                targets.insert(0, y)
            else:
                lists[x] = [y]
        else:
            steps = targets.index(y) + 1
        channel = self.counters.add
        channel.ops += 1
        channel.total += steps
        if steps > channel.peak:
            channel.peak = steps
        return new

    def contains(self, x: int, y: int) -> bool:
        n = self._n
        if x < 0 or x >= n or y < 0 or y >= n:
            raise VertexRangeError(f"edge ({x}, {y}) outside vertex range [0, {n})")
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
            raise VertexRangeError(f"vertex {x} outside range [0, {self._n})")
        out = list(self._lists[x])
        steps = len(out)
        channel = self.counters.enumerate
        channel.ops += 1
        channel.total += steps
        if steps > channel.peak:
            channel.peak = steps
        return out

    @property
    def edge_count(self) -> int:
        return self._count

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_capacity(self) -> int:
        return self._m

    @property
    def slots_allocated(self) -> int:
        """The fixed edge budget plus one, m + 1, as the bench CSV has always reported it."""
        return self._m + 1

    def memory_ints(self) -> int:
        """Cells, not bytes: one per vertex plus one per stored target, n + edge_count."""
        return self._n + self._count
