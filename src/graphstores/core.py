"""Shared vocabulary for the graph edge stores.

Vertex ids are plain ints below 2**32. A directed edge (x, y) is packed
into a single 64-bit code with x in the high half, so one integer compare
decides edge equality. Two slot-hash functions are provided: a production
avalanche mixer, and a legacy multiply-offset hash kept bit-exact for
compatibility tests. ``StoreConfig.hash_mode`` selects between them.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from fractions import Fraction
from operator import index

import numpy as np

from .counters import OpCounters

U32_MASK = 0xFFFFFFFF
U64_MASK = 0xFFFFFFFFFFFFFFFF

#: Out-of-band end marker for slot-index chains (slot 0 is a legal hash slot,
#: so "no slot" must live outside the index range).
NONE = -1

#: Smallest slot capacity any hash-backed store will allocate.
MIN_CAPACITY = 16

_MIX_MULT_1 = 0xFF51AFD7ED558CCD
_MIX_MULT_2 = 0xC4CEB9FE1A85EC53


class GraphStoreError(Exception):
    """Base class for every error raised by this package."""


class VertexRangeError(GraphStoreError):
    """A vertex id is negative or >= the store's declared vertex count."""


class CapacityError(GraphStoreError):
    """A fixed-size store ran out of cells; only MultiList raises it, hash tables grow."""


class ConfigError(GraphStoreError):
    """Invalid construction parameters, or an operation the configuration forbids."""


class UnsupportedOperationError(GraphStoreError):
    """The store cannot perform the requested operation at all."""


def pack_edge(x: int, y: int) -> int:
    """Pack the directed edge (x, y) into one 64-bit code, x in the high half.

    Callers validate that x and y fit in 32 bits; this stays a bare shift
    because it sits on every store's hot path.
    """
    return (x << 32) | y


def compat_hash(x: int, y: int, size: int) -> int:
    """Legacy multiply-offset slot hash, reproduced bit-for-bit.

    Computes ``(x + 111111) * (y - 333333)`` in wrapping signed 64-bit
    arithmetic, takes the *truncated* remainder by ``size`` (the remainder
    carries the sign of the dividend, unlike Python's floored ``%``), then
    the absolute value. For a positive ``size`` the absolute value of the
    truncated remainder equals ``abs(product) % size``, which is how it is
    evaluated here.

    Kept only for ``hash_mode="paper_compat"`` fidelity: it collides
    heavily whenever ``y == 333333`` or ``x + 111111`` is a multiple of
    ``size``, so it is not the default. The most-negative product
    ``-2**63`` has no well-defined absolute value in the original signed
    arithmetic; Python ints make it unambiguous here, and callers should
    not rely on that corner.
    """
    product = ((x + 111111) * (y - 333333)) & U64_MASK
    if product >= 1 << 63:
        product -= 1 << 64
    return abs(product) % size


def mixer_hash(code: int, capacity: int) -> int:
    """Slot index from a fixed 64-bit avalanche finalizer, masked to capacity.

    The finalizer is xor-shift by 33, multiply by 0xFF51AFD7ED558CCD,
    xor-shift by 33, multiply by 0xC4CEB9FE1A85EC53, xor-shift by 33.
    ``capacity`` must be a power of two; the result is ``finalized & (capacity - 1)``,
    deterministic across runs and platforms.
    """
    z = code & U64_MASK
    z = ((z ^ (z >> 33)) * _MIX_MULT_1) & U64_MASK
    z = ((z ^ (z >> 33)) * _MIX_MULT_2) & U64_MASK
    z ^= z >> 33
    return z & (capacity - 1)


def mixer_finalize_array(codes: np.ndarray) -> np.ndarray:
    """The finalizer of :func:`mixer_hash` over an array of codes, before the mask.

    The result does not depend on capacity: ``mixer_hash(c, cap)`` is
    ``finalized & (cap - 1)`` for every power-of-two ``cap``.
    """
    z = np.asarray(codes, dtype=np.uint64)
    s33 = np.uint64(33)
    z = (z ^ (z >> s33)) * np.uint64(_MIX_MULT_1)
    z = (z ^ (z >> s33)) * np.uint64(_MIX_MULT_2)
    return z ^ (z >> s33)


def compat_finalize_array(codes: np.ndarray) -> np.ndarray:
    """The key of :func:`compat_hash` over an array of codes, before the mask.

    The product wraps in int64 as in the original arithmetic, and its
    absolute value is read as uint64, so the product -2**63 keys to 2**63.
    For every power-of-two ``size``, ``compat_hash(x, y, size)`` is
    ``key & (size - 1)``, where (x, y) is the code unpacked.
    """
    z = np.asarray(codes, dtype=np.uint64)
    x = (z >> np.uint64(32)).astype(np.int64) + 111111
    y = (z & np.uint64(U32_MASK)).astype(np.int64) - 333333
    return np.abs(x * y).view(np.uint64)


def _checked_int(name: str, value) -> int:
    """``value`` through ``operator.index``, so numpy integers and bools count as
    the ints they stand for, and 1.5, "5" or None are a ConfigError."""
    try:
        return index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _checked_size(name: str, value, least: int) -> int:
    """``value`` as a plain int (see ``_checked_int``) of at least ``least`` (0 or 1),
    else ConfigError."""
    size = _checked_int(name, value)
    if size < least:
        raise ConfigError(f"{name} must be {'positive' if least else 'nonnegative'}")
    return size


def _vertex_count(value) -> int:
    """A checked vertex count: a positive int, at most 2**32 so ids fit in 32 bits."""
    n = _checked_size("vertex_count", value, 1)
    if n > 1 << 32:
        raise ConfigError("vertex ids are limited to 32 bits")
    return n


def ceil_pow2(value: int) -> int:
    """Smallest power of two >= value (value >= 1)."""
    return 1 << (value - 1).bit_length()


#: The capacity-independent array key of each hash mode; a home slot is
#: ``key & (capacity - 1)``.
HASH_KEYS = {"mixer": mixer_finalize_array, "paper_compat": compat_finalize_array}
HASH_MODES = tuple(HASH_KEYS)

#: Sizing policy of every hash-backed store: a table starts at a load factor
#: of at most MAX_LOAD_FACTOR and doubles before its occupancy would pass
#: GROWTH_THRESHOLD.
MAX_LOAD_FACTOR = Fraction(1, 2)
GROWTH_THRESHOLD = Fraction(7, 10)


@dataclass(frozen=True)
class StoreConfig:
    """Sizing and behavior knobs shared by the hash-backed stores.

    The initial slot capacity is the smallest power of two >=
    expected_edges / MAX_LOAD_FACTOR, never below MIN_CAPACITY. Every
    table grows: an add that finds GROWTH_THRESHOLD occupancy reached first
    doubles the table, so a table always keeps an empty slot, at which
    every probe ends. Both fractions are fixed policy, not fields.
    ``weighted`` is HashList-only: it gives the store a weight per slot,
    set with ``set_weight``; an EdgeHash ignores it. Both sizes are kept
    as the plain ints they stand for.
    """

    vertex_count: int
    expected_edges: int
    hash_mode: str = "mixer"
    weighted: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertex_count", _vertex_count(self.vertex_count))
        object.__setattr__(self, "expected_edges",
                           _checked_size("expected_edges", self.expected_edges, 1))
        if self.hash_mode not in HASH_MODES:
            raise ConfigError(f"hash_mode must be one of {HASH_MODES}, got {self.hash_mode!r}")

    @property
    def initial_capacity(self) -> int:
        mlf = MAX_LOAD_FACTOR
        needed = -(-self.expected_edges * mlf.denominator // mlf.numerator)
        return max(MIN_CAPACITY, ceil_pow2(needed))

    def growth_limit(self, capacity: int) -> int:
        """Largest occupied count that does not force a rebuild at this capacity."""
        thr = GROWTH_THRESHOLD
        return thr.numerator * capacity // thr.denominator


def _python_ids(ids):
    """A numpy integer array as a list of Python ints, so the scalar calls of a
    bulk loop never hold numpy scalars; any other sequence as it is."""
    return ids.tolist() if isinstance(ids, np.ndarray) and ids.dtype.kind in "iu" else ids


def check_lengths(xs, *others) -> None:
    """Raise ValueError unless every bulk argument is as long as ``xs``."""
    for seq in others:
        if len(seq) != len(xs):
            raise ValueError(f"bulk arguments differ in length: {len(xs)} and {len(seq)}")


class EdgeStore(abc.ABC):
    """Contract shared by every store: a *set* of directed edges.

    After any operation sequence, ``contains(x, y)`` is true iff some
    ``add_edge(x, y)`` occurred. There is no removal.

    Every store keeps its vertex count n in ``_n``, its edge count in
    ``_count`` and its operation counters in ``counters``. The flat hot
    paths test their ids inline and raise the errors built here, so the
    messages are the same on every store.
    """

    __slots__ = ("_n", "_count", "counters")

    #: Whether ``neighbors`` answers; the bare edge hash refuses it.
    enumerates = True

    def __init__(self, vertex_count: int) -> None:
        self._n = _vertex_count(vertex_count)
        self._count = 0
        self.counters = OpCounters()

    def _pair_error(self, x: int, y: int) -> VertexRangeError:
        return VertexRangeError(f"edge ({x}, {y}) outside vertex range [0, {self._n})")

    def _vertex_error(self, x: int) -> VertexRangeError:
        return VertexRangeError(f"vertex {x} outside range [0, {self._n})")

    def _check_pair(self, x: int, y: int) -> None:
        """Raise VertexRangeError unless both ids lie in [0, n)."""
        n = self._n
        if x < 0 or x >= n or y < 0 or y >= n:
            raise self._pair_error(x, y)

    @abc.abstractmethod
    def add_edge(self, x: int, y: int) -> bool:
        """Insert (x, y); returns True if the edge is new, False on duplicate."""

    @abc.abstractmethod
    def contains(self, x: int, y: int) -> bool:
        """True iff (x, y) was ever added."""

    def add_edges(self, xs, ys) -> list[bool]:
        """``add_edge(xs[i], ys[i])`` for each i in order; its answers, one per pair.

        ``xs`` and ``ys`` are sequences of equal length. An error at pair k
        leaves pairs 0..k-1 added and counted, as the loop of calls would.
        """
        check_lengths(xs, ys)
        return [self.add_edge(x, y) for x, y in zip(_python_ids(xs), _python_ids(ys))]

    def contains_many(self, xs, ys) -> list[bool]:
        """``contains(xs[i], ys[i])`` for each i in order; same contract as add_edges."""
        check_lengths(xs, ys)
        return [self.contains(x, y) for x, y in zip(_python_ids(xs), _python_ids(ys))]

    @abc.abstractmethod
    def neighbors(self, x: int) -> list[int]:
        """Targets of x's outgoing edges, in the store's enumeration order."""

    def neighbors_many(self, vs) -> tuple[list[int], list[int]]:
        """``neighbors(v)`` for each v in ``vs``, in order, as one flat pair.

        Returns ``(targets, ends)``: ``targets`` is the concatenation of the
        lists, and ``vs[i]``'s run ends at ``ends[i]``, so it is
        ``targets[ends[i - 1]:ends[i]]`` (from 0 for i = 0). An error at
        vertex k leaves vertices 0..k-1 enumerated and counted, as the loop
        of calls would.
        """
        targets: list[int] = []
        ends = []
        for v in _python_ids(vs):
            targets += self.neighbors(v)
            ends.append(len(targets))
        return targets, ends

    def _neighbor_runs(self, vs) -> tuple[np.ndarray, np.ndarray]:
        """The scalar calls' ``neighbors_many(vs)`` as numpy arrays: uint64 targets, intp ends.

        The pair goes to ``formats.join_runs`` as it is. A store with a
        batch path of its own overrides this; the default runs
        ``EdgeStore.neighbors_many``, so an override may fall back on it.
        """
        targets, ends = EdgeStore.neighbors_many(self, vs)
        return np.array(targets, np.uint64), np.array(ends, np.intp)

    @property
    def edge_count(self) -> int:
        """Number of distinct edges accepted so far."""
        return self._count

    @property
    def vertex_count(self) -> int:
        """Declared vertex count n; valid ids are 0..n-1."""
        return self._n
