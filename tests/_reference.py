"""Independent oracles the tests check the library against.

Everything here deliberately takes a different route from the library:
packing by arithmetic instead of shifts, two's-complement wrapping through
struct instead of conditional subtraction, truncated remainder spelled out
from quotient arithmetic, power-of-two rounding by doubling, a parse
kernel that works byte by byte where the library's works token by token,
a HashList rebuild that groups its new chains by sorting the seated
codes where the library's reads their sources off the chain walk, and a
MultiList add that scans a list for a duplicate with ``in`` and then
``index``, where the library's scans a long list once past a sentinel.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from time import perf_counter_ns

import numpy as np

from graphstores.core import NONE, U32_MASK, CapacityError
from graphstores.formats import GraphFile, QueryFile
from graphstores.hashlist import _cells, _chain_cells, _gather


def pack_by_arithmetic(x: int, y: int) -> int:
    return x * 2**32 + y


def unpack_by_arithmetic(code: int) -> tuple[int, int]:
    return code // 2**32, code % 2**32


def wrap_signed64(value: int) -> int:
    """Two's-complement reinterpretation of the low 64 bits."""
    return struct.unpack("<q", struct.pack("<Q", value & (2**64 - 1)))[0]


def truncated_remainder(dividend: int, divisor: int) -> int:
    """Remainder carrying the dividend's sign (divisor > 0)."""
    quotient = abs(dividend) // divisor
    remainder = abs(dividend) - quotient * divisor
    return remainder if dividend >= 0 else -remainder


def reference_compat_hash(x: int, y: int, size: int) -> int:
    product = wrap_signed64((x + 111111) * (y - 333333))
    return abs(truncated_remainder(product, size))


def pow2_at_least(value: int) -> int:
    power = 1
    while power < value:
        power *= 2
    return power


class EdgeSetOracle:
    """Plain dict-of-sets edge store; the simplest possible reference."""

    def __init__(self, n: int):
        self.n = n
        self.edges: set[tuple[int, int]] = set()
        self.order: dict[int, list[int]] = {}

    def add(self, x: int, y: int) -> bool:
        if (x, y) in self.edges:
            return False
        self.edges.add((x, y))
        self.order.setdefault(x, []).append(y)
        return True

    def has(self, x: int, y: int) -> bool:
        return (x, y) in self.edges

    def newest_first(self, x: int) -> list[int]:
        return self.order.get(x, [])[::-1]


def reference_mixer_hash(code: int, size: int) -> int:
    """The 64-bit avalanche finalizer with shifts as floor division and masks as remainders."""
    z = code % 2**64
    for mult in (0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53):
        z = ((z ^ (z // 2**33)) * mult) % 2**64
    z ^= z // 2**33
    return z % size


class LinearProbeModel:
    """The hash stores' specified behavior, slot by slot and counter by counter.

    One list of slots (None when empty) probed linearly from the home slot
    of the reference hash. Before each in-range add, a table whose edge
    count has reached floor(7/10 * capacity) doubles and re-seats every
    edge, so a slot is always empty and every probe ends: ``chained``
    tables (HashList) vertex by vertex, each vertex's edges oldest-first;
    the others (EdgeHash) in old slot order. Each op
    returns ``(answer, cost)`` or ``(error name, message)``; ``counters``
    holds ``[ops, cost, peak]`` per operation class. Weights are kept per
    edge, apart from the slots, and set and read without being counted.
    """

    #: The stores' fixed growth threshold, core.GROWTH_THRESHOLD, restated here.
    THRESHOLD = Fraction(7, 10)

    def __init__(self, n: int, capacity: int, *, mode: str, chained: bool) -> None:
        self.n = n
        self.cap = capacity
        self.slots: list[int | None] = [None] * capacity
        self.mode = mode
        self.chained = chained
        self.targets: dict[int, list[int]] = {}
        self.count = 0
        self.rebuilds = 0
        self.weights: dict[tuple[int, int], float] = {}
        self.counters = {"add": [0, 0, 0], "contains": [0, 0, 0], "enumerate": [0, 0, 0]}

    def _home(self, code: int, size: int) -> int:
        if self.mode == "mixer":
            return reference_mixer_hash(code, size)
        return reference_compat_hash(*unpack_by_arithmetic(code), size)

    def _record(self, name: str, cost: int) -> None:
        ops_cost_peak = self.counters[name]
        ops_cost_peak[0] += 1
        ops_cost_peak[1] += cost
        ops_cost_peak[2] = max(ops_cost_peak[2], cost)

    def _out_of_range(self, x: int, y: int):
        if 0 <= x < self.n and 0 <= y < self.n:
            return None
        return ("VertexRangeError", f"edge ({x}, {y}) outside vertex range [0, {self.n})")

    def _find(self, code: int) -> tuple[int, int]:
        """(slot holding ``code`` or the empty slot it belongs in, probes)."""
        slot = self._home(code, self.cap)
        probes = 1
        while self.slots[slot] is not None and self.slots[slot] != code:
            slot = (slot + 1) % self.cap
            probes += 1
        return slot, probes

    def _grow(self) -> None:
        if self.chained:
            codes = [pack_by_arithmetic(x, y) for x in sorted(self.targets) for y in self.targets[x]]
        else:
            codes = [code for code in self.slots if code is not None]
        self.cap *= 2
        self.slots = [None] * self.cap
        for code in codes:
            slot = self._home(code, self.cap)
            while self.slots[slot] is not None:
                slot = (slot + 1) % self.cap
            self.slots[slot] = code
        self.rebuilds += 1

    def add(self, x: int, y: int):
        error = self._out_of_range(x, y)
        if error:
            return error
        if self.count >= int(self.THRESHOLD * self.cap):
            self._grow()
        code = pack_by_arithmetic(x, y)
        slot, probes = self._find(code)
        self._record("add", probes)
        if self.slots[slot] == code:
            return (False, probes)
        self.slots[slot] = code
        self.count += 1
        self.targets.setdefault(x, []).append(y)
        return (True, probes)

    def has(self, x: int, y: int):
        error = self._out_of_range(x, y)
        if error:
            return error
        code = pack_by_arithmetic(x, y)
        slot, probes = self._find(code)
        self._record("contains", probes)
        return (self.slots[slot] == code, probes)

    def set_weight(self, x: int, y: int, weight: float):
        """True after weighting a stored edge, False for an absent one; uncounted."""
        error = self._out_of_range(x, y)
        if error:
            return error
        if y not in self.targets.get(x, ()):
            return False
        self.weights[x, y] = weight
        return True

    def get_weight(self, x: int, y: int):
        """The last weight set on (x, y), None if none was; uncounted."""
        return self._out_of_range(x, y) or self.weights.get((x, y))

    def newest_first(self, x: int):
        if not 0 <= x < self.n:
            return ("VertexRangeError", f"vertex {x} outside range [0, {self.n})")
        out = self.targets.get(x, [])[::-1]
        self._record("enumerate", len(out))
        return (out, len(out))


# The op-by-op differential executor: each op goes through every store, and
# the answers are compared before the next op runs. ``graphstores.bench._execute``
# must return or raise exactly what this does.
def op_by_op_execute(ops, stores, wall=None):
    """Run the stream against every store, comparing answers op by op.

    Returns None on full agreement, else (index, op, answers). ``wall``
    optionally accumulates per-(structure, class) nanoseconds.
    """
    timing = wall is not None
    for index, op in enumerate(ops):
        kind = op[0]
        answers = []
        if kind == "nbrs":
            x = op[1]
            for name, store in stores:
                if name == "edgehash":
                    continue  # no per-vertex enumeration on the bare table
                if timing:
                    t0 = perf_counter_ns()
                ans = store.neighbors(x)
                if timing:
                    wall[name, "enumerate"] += perf_counter_ns() - t0
                answers.append((name, ans))
        else:
            x, y = op[1], op[2]
            cls = "add" if kind == "add" else "contains"
            for name, store in stores:
                if timing:
                    t0 = perf_counter_ns()
                ans = store.add_edge(x, y) if kind == "add" else store.contains(x, y)
                if timing:
                    wall[name, cls] += perf_counter_ns() - t0
                answers.append((name, ans))
        if len(answers) > 1:
            base = answers[0][1]
            for _, other in answers[1:]:
                if other != base:
                    return index, op, answers
    return None


# The byte-granular parse kernel: a running count of newlines for line ids and
# a per-byte digit table summed per token. ``graphstores.formats._scan`` and the
# two bulk parsers must decline exactly the texts these decline and return
# exactly what these return.
_MAX_ID_DIGITS = 19  # 10**19 - 1 < 2**64
_MAX_WEIGHT_DIGITS = 15  # mantissa < 2**53, and 10**k is exact for k <= 15
_MAX_BYTES = 2**31 - 1  # running counts fit in int32
_POW10 = 10 ** np.arange(_MAX_ID_DIGITS, dtype=np.uint64)
_POW10_FLOAT = _POW10[: _MAX_WEIGHT_DIGITS + 1].astype(np.float64)
# _DIGIT_VALUE[p * 256 + byte]: the byte's digit times 10**p, 0 for a non-digit byte
_DIGIT_VALUE = np.zeros((_MAX_ID_DIGITS, 256), dtype=np.uint64)
_DIGIT_VALUE[:, ord("0"): ord("9") + 1] = _POW10[:, None] * np.arange(10, dtype=np.uint64)
_DIGIT_VALUE = _DIGIT_VALUE.ravel()


def _byte_set(chars: bytes) -> np.ndarray:
    table = np.zeros(256, dtype=bool)
    table[np.frombuffer(chars, np.uint8)] = True
    return table


_EDGE_BYTES = _byte_set(b"0123456789 \n.")
_QUERY_BYTES = _byte_set(b"0123456789 \nCN")


@dataclass(frozen=True)
class _Scan:
    """Token layout of a file. Per line that holds tokens: its ``first``
    token and ``width``. Per token: ``lead`` byte, ``length``, ``digits``,
    ``value`` (the integer its digits spell, other bytes skipped) and
    ``scale`` (digits after its last ``.``)."""

    first: np.ndarray
    width: np.ndarray
    lead: np.ndarray
    length: np.ndarray
    digits: np.ndarray
    value: np.ndarray
    scale: np.ndarray


def _scan(text: str, allowed: np.ndarray) -> _Scan | None:
    """Whole-buffer token scan, or None on a byte outside ``allowed``, a
    token over 19 bytes or a text of 2 GiB or more."""
    if not text.isascii() or len(text) > _MAX_BYTES:
        return None
    buf = np.frombuffer(text.encode("ascii"), np.uint8)
    if not allowed.take(buf).all():
        return None
    in_token = buf > ord(" ")  # the allowed separators are space and newline
    bounds = np.flatnonzero(np.diff(in_token.view(np.int8), prepend=np.int8(0), append=np.int8(0)))
    starts = bounds[0::2]
    length = bounds[1::2] - starts
    if len(starts) and length.max() > _MAX_ID_DIGITS:
        return None
    line = np.cumsum(buf == ord("\n"), dtype=np.int32)[starts]
    first = np.flatnonzero(np.diff(line, prepend=-1))
    width = np.diff(first, append=len(starts))

    chars = buf[in_token]
    is_digit = chars - ord("0") < 10  # uint8 wraps below '0'
    seen = np.cumsum(is_digit, dtype=np.int32)
    begin = np.cumsum(length) - length
    last_seen = seen[begin + length - 1]
    after = np.repeat(last_seen, length) - seen
    value = np.add.reduceat(_DIGIT_VALUE.take(after * 256 + chars), begin) if len(begin) else begin
    digits = last_seen - seen[begin] + is_digit[begin]
    dots = np.flatnonzero(chars == ord("."))
    scale = np.zeros(len(starts), dtype=np.int64)
    scale[np.searchsorted(begin, dots, side="right") - 1] = after[dots]
    return _Scan(first, width, buf[starts], length, digits, value, scale)


def _bulk_edge_list(text: str) -> GraphFile | None:
    s = _scan(text, _EDGE_BYTES)
    if s is None or len(s.first) == 0 or s.width[0] != 2:
        return None
    whole = s.digits == s.length  # the token is a plain decimal integer
    if not (whole[0] and whole[1]):
        return None
    n, m = int(s.value[0]), int(s.value[1])
    first, width = s.first[1:], s.width[1:]
    if n < 1 or len(first) > m or not ((width == 2) | (width == 3)).all():
        return None
    if not (whole[first].all() and whole[first + 1].all()):
        return None
    xs, ys = s.value[first], s.value[first + 1]
    if len(first) and max(xs.max(), ys.max()) >= n:
        return None

    weighted = width == 3
    w = first[weighted] + 2
    digits = s.digits[w]
    if not ((digits >= 1) & (digits <= _MAX_WEIGHT_DIGITS) & (s.length[w] - digits <= 1)).all():
        return None
    weights = s.value[w].astype(np.float64) / _POW10_FLOAT[s.scale[w]]

    if weighted.all():
        ws = weights.tolist()
    elif not weighted.any():
        ws = [None] * len(first)
    else:
        column = np.full(len(first), None, dtype=object)
        column[weighted] = weights
        ws = column.tolist()
    return GraphFile(n=n, m=m, xs=xs.tolist(), ys=ys.tolist(), ws=ws)


def _bulk_queries(text: str) -> QueryFile | None:
    s = _scan(text, _QUERY_BYTES)
    if s is None:
        return None
    first, width = s.first, s.width
    head = s.lead[first]
    is_c = head == ord("C")
    shape = (s.length[first] == 1) & np.where(is_c, width == 3, (head == ord("N")) & (width == 2))
    whole = s.digits == s.length
    if not (shape.all() and whole[first + 1].all() and whole[first[is_c] + 2].all()):
        return None
    c = first[is_c]
    return QueryFile(
        is_c=is_c.tolist(), cxs=s.value[c + 1].tolist(), cys=s.value[c + 2].tolist(),
        nvs=s.value[first[~is_c] + 1].tolist(),
    )



# HashList's rebuild and chain threading as they were before the rebuild threaded
# its chains from the walk's sources: ``_thread`` sorts the seated codes by source,
# and ``_rebuild`` (a HashList method) hands it a uint64 array of the gathered
# codes. A rebuild and a bulk add must leave exactly the slots, chain cells and
# weights these leave.
def _thread(heads: np.ndarray, nxt: np.ndarray, codes, slots) -> None:
    if not len(codes):
        return
    keys = (codes >> np.uint64(32) << np.uint64(32)) | np.arange(len(codes), dtype=np.uint64)
    keys.sort()
    src = (keys >> np.uint64(32)).astype(np.intp)
    slots = slots[(keys & np.uint64(U32_MASK)).astype(np.intp)]
    firsts = np.flatnonzero(np.diff(src, prepend=-1))
    lasts = np.append(firsts[1:], len(src)) - 1
    prev = np.empty_like(slots)
    prev[1:] = slots[:-1]
    prev[firsts] = heads[src[firsts]]
    nxt[slots] = prev
    heads[src[lasts]] = slots[lasts]


def _rebuild(self, new_cap: int) -> None:
    # Chains enumerate newest-first, so walking the live vertices from
    # the last one and reversing the whole walk gives the seat order:
    # vertex by vertex, each chain oldest-first.
    live = np.flatnonzero(_cells(self._heads) != NONE)
    order = self._walk(live[::-1])[0][::-1].tolist()
    codes = _gather(self._data, order)
    data, seated = self._reseat(new_cap, codes)
    weights, old_weights = None, self._weights
    if old_weights is not None:
        weights = [None] * new_cap
        for old, new in zip(order, seated):
            weights[new] = old_weights[old]
    heads, nxt = _chain_cells(self._n, new_cap), _chain_cells(new_cap, new_cap)
    _thread(_cells(heads), _cells(nxt), np.array(codes, np.uint64), np.array(seated, np.intp))
    self._install(new_cap, data)
    self._heads, self._next, self._weights = heads, nxt, weights
    self.rebuilds += 1


# MultiList's add as it was before long lists were scanned once past a
# sentinel: ``in`` decides the answer and ``index`` counts a duplicate's
# position. It is a MultiList method; an add must leave the same lists,
# edge count and add-channel counters as this one, and raise where it raises.
def multilist_add_edge(self, x: int, y: int) -> bool:
    n = self._n
    if x < 0 or x >= n or y < 0 or y >= n:
        raise self._pair_error(x, y)
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
