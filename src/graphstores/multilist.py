"""Adjacency lists over three flat int arrays with a shared cell pool.

``heads[x]`` holds the index of the newest cell in x's list, ``next``
chains cells together, ``data`` holds the target vertex. Index 0 is the
end-of-chain sentinel, so cell 0 is never handed out; the edge count
doubles as the allocator (next free cell is ``count + 1``). Insertion
prepends, so enumeration yields targets newest first. A new target is
stored as ``operator.index`` gives it, so a float one raises TypeError.
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

    __slots__ = ("_n", "_m", "_heads", "_next", "_data", "_count", "counters")

    def __init__(self, vertex_count: int, edge_capacity: int) -> None:
        if vertex_count < 1:
            raise ConfigError("vertex_count must be positive")
        if vertex_count > 1 << 32:
            raise ConfigError("vertex ids are limited to 32 bits")
        if edge_capacity < 0:
            raise ConfigError("edge_capacity must be nonnegative")
        self._n = vertex_count
        self._m = edge_capacity
        self._heads = [0] * vertex_count
        self._next = [0] * (edge_capacity + 1)
        self._data = [0] * (edge_capacity + 1)
        self._count = 0
        self.counters = OpCounters()

    def add_edge(self, x: int, y: int) -> bool:
        n = self._n
        if x < 0 or x >= n or y < 0 or y >= n:
            raise VertexRangeError(f"edge ({x}, {y}) outside vertex range [0, {n})")
        nxt = self._next
        data = self._data
        steps = 0
        i = self._heads[x]
        while i:
            steps += 1
            if data[i] == y:
                break
            i = nxt[i]
        else:
            y = index(y)
            if self._count >= self._m:
                raise CapacityError(f"all {self._m} cells are in use")
            self._count += 1
            cell = self._count
            data[cell] = y
            nxt[cell] = self._heads[x]
            self._heads[x] = cell
            steps += 1
        channel = self.counters.add
        channel.ops += 1
        channel.total += steps
        if steps > channel.peak:
            channel.peak = steps
        # i is still the duplicate's cell, or 0 when the scan ran out and the edge went in.
        return i == 0

    def contains(self, x: int, y: int) -> bool:
        n = self._n
        if x < 0 or x >= n or y < 0 or y >= n:
            raise VertexRangeError(f"edge ({x}, {y}) outside vertex range [0, {n})")
        nxt = self._next
        data = self._data
        steps = 0
        i = self._heads[x]
        while i:
            steps += 1
            if data[i] == y:
                break
            i = nxt[i]
        channel = self.counters.contains
        channel.ops += 1
        channel.total += steps
        if steps > channel.peak:
            channel.peak = steps
        return i != 0

    def neighbors(self, x: int) -> list[int]:
        if x < 0 or x >= self._n:
            raise VertexRangeError(f"vertex {x} outside range [0, {self._n})")
        nxt = self._next
        data = self._data
        out = []
        i = self._heads[x]
        while i:
            out.append(data[i])
            i = nxt[i]
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
        """Cells in the shared pool, including the reserved sentinel cell 0."""
        return self._m + 1

    def memory_ints(self) -> int:
        """Cells, not bytes, across heads/next/data: n + 2*(m + 1)."""
        return self._n + 2 * (self._m + 1)
