"""Ground-truth reference store for differential testing.

A dense adjacency matrix, one ``bytearray`` row per source, answers
membership by direct indexing, and per-vertex insertion logs keep the
exact order in which targets arrived. It exists to be obviously correct,
not fast, and its n-squared matrix is the memory cost the compact stores
avoid. Rows are indexed as lists are, so a bool id reads as 0 or 1, as
on the hash stores, and a float id raises TypeError. Logs hold plain ints.
"""

from __future__ import annotations

from operator import index

from .core import ConfigError, EdgeStore

#: Matrix stores are kept at desk scale; 4096 vertices is a 16 MiB matrix.
ORACLE_MAX_VERTICES = 4096


class OracleGraph(EdgeStore):
    """Adjacency matrix plus insertion logs; the correctness baseline.

    Refuses more than :data:`ORACLE_MAX_VERTICES` vertices with ConfigError.
    """

    __slots__ = ("_matrix", "_logs")

    def __init__(self, vertex_count: int) -> None:
        super().__init__(vertex_count)
        n = self._n
        if n > ORACLE_MAX_VERTICES:
            raise ConfigError(f"oracle is capped at {ORACLE_MAX_VERTICES} vertices, got n={n}")
        self._matrix = [bytearray(n) for _ in range(n)]
        self._logs: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, x: int, y: int) -> bool:
        self._check_pair(x, y)
        row = self._matrix[x]
        present = row[y]  # a float id raises TypeError here, before the op is counted
        self.counters.add.record(1)
        if present:
            return False
        row[y] = 1
        self._logs[x].append(index(y))
        self._count += 1
        return True

    def contains(self, x: int, y: int) -> bool:
        self._check_pair(x, y)
        present = self._matrix[x][y]
        self.counters.contains.record(1)
        return bool(present)

    def neighbors(self, x: int) -> list[int]:
        """Reversed log: newest first, like the head-insertion stores."""
        if x < 0 or x >= self._n:
            raise self._vertex_error(x)
        log = self._logs[x]
        self.counters.enumerate.record(len(log))
        return log[::-1]

    @property
    def slots_allocated(self) -> int:
        """Matrix cells: n * n, the quadratic footprint the other stores avoid."""
        return self._n * self._n
