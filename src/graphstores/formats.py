"""Text file formats for the command-line front end.

Edge-list files: a header line ``n m``, then one edge per line as ``x y``
with an optional third token holding a weight; ``#`` lines and blank lines
are ignored. Query files: ``C x y`` asks membership, ``N x`` asks for the
neighbor list. Result files carry exactly one line per query: ``1``/``0``
for C, a space-separated target list (store enumeration order) for N.

Both parsers return columns (:class:`GraphFile`, :class:`QueryFile`). The
edge ids and the C queries' ids are 1-D ``uint64`` arrays, which the bulk
store methods take without a copy; weights, the query kinds and the N
vertices are lists, because their consumers iterate in Python.
``GraphFile.edges`` and :func:`parse_queries` give tuples of Python ints.
The parsers keep no state between calls and start no thread, so they are
safe to call from any thread; ``graphstores query`` parses its two files
on two threads at once.

Both parsers first try a bulk kernel. One ``bytes.translate`` checks the
file's bytes. Whole-buffer numpy passes over one zero-padded copy of it
find the token bounds, and one over the bytes finds the newlines; the rest
works per token. The first token of each line is the
one after a newline, found by binary search. Every token's value comes from
a Horner loop over byte positions, one vectorized step per position up to
the longest token, so every id of up to 19 digits is an exact integer
(computed in ``uint32`` while no token is longer than 9 bytes, else in
``uint64``, and returned as ``uint64``). Every
weight of up to 15 digits and at most one ``.`` is mantissa / 10**k, which
is exactly ``float(token)`` because both operands are exact doubles
(Clinger's fast path). The kernel never raises: it declines any file it
cannot settle exactly, such as one holding a byte other than digits,
space, newline, ``.``, ``C`` or ``N`` (so ``#`` comments, tabs, carriage
returns, signs, ``_``, exponents and non-ASCII text), a longer token, a
bad line shape, an out-of-range id or more edge lines than ``m``. The
per-line parser then reads the whole text. It is the reference the kernel
is tested against, and the only code that reports errors, so error
classes, messages and line numbers do not depend on the kernel. It returns
the kernel's column types, except that ids a ``uint64`` cannot hold (a
negative query id, say, which the store then refuses) make that column an
object array of Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import GraphStoreError, VertexRangeError


class ParseError(GraphStoreError):
    """Malformed input file; ``line`` is the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _id_column(ids: list[int]) -> np.ndarray:
    """The per-line parser's ids as the kernel's ``uint64`` column; as an object
    array of the Python ints when one of them is negative or 2**64 or more."""
    try:
        return np.array(ids, np.uint64)
    except OverflowError:
        return np.array(ids, object)


@dataclass(frozen=True, eq=False)
class GraphFile:
    """A parsed edge list as columns, one entry per edge line in file order.

    ``xs`` and ``ys`` are 1-D ``uint64`` arrays (object arrays of Python
    ints only for ids beyond 64 bits). ``ws`` is a list, and ``ws[i]`` is
    None for a line without a weight.
    """

    n: int
    m: int
    xs: np.ndarray
    ys: np.ndarray
    ws: list[float | None]

    @property
    def has_weights(self) -> bool:
        """True when some edge line holds a weight."""
        return any(w is not None for w in self.ws)

    @property
    def edges(self) -> list[tuple[int, int, float | None]]:
        """``(x, y, weight)`` per edge line, the ids as Python ints."""
        return list(zip(self.xs.tolist(), self.ys.tolist(), self.ws))


@dataclass(frozen=True, eq=False)
class QueryFile:
    """Parsed queries as columns: ``is_c``, a list of bools, per query in file
    order; the C queries' ids in ``cxs``/``cys``, typed as ``GraphFile.xs``;
    and the N queries' vertices in ``nvs``, a list of Python ints."""

    is_c: list[bool]
    cxs: np.ndarray
    cys: np.ndarray
    nvs: list[int]


# ---------------------------------------------------------------- bulk kernel

_MAX_ID_DIGITS = 19  # 10**19 - 1 < 2**64
_MAX_WEIGHT_DIGITS = 15  # mantissa < 2**53, and 10**k is exact for k <= 15
# Larger texts go to the per-line parser. Every kernel index is int64, so the
# limit guards no arithmetic; it is kept because no test runs the kernel on a
# text this large.
_MAX_BYTES = 2**31 - 1
_POW10_FLOAT = (10 ** np.arange(_MAX_WEIGHT_DIGITS + 1)).astype(np.float64)
_EDGE_BYTES = b"0123456789 \n."
_QUERY_BYTES = b"0123456789 \nCN"
_POW10_U64 = 10 ** np.arange(1, 20, dtype=np.uint64)  # 10 .. 10**19: digit counts


@dataclass(frozen=True)
class _Scan:
    """Token layout of a file. Per line that holds tokens: its ``first``
    token and ``width``. Per token: ``lead`` byte, ``length``, ``digits``,
    ``value`` (the integer its digits spell, other bytes skipped; ``uint64``)
    and ``scale`` (digits after its last ``.``, 0 without one)."""

    first: np.ndarray
    width: np.ndarray
    lead: np.ndarray
    length: np.ndarray
    digits: np.ndarray
    value: np.ndarray
    scale: np.ndarray


def _scan(text: str, allowed: bytes) -> _Scan | None:
    """Token scan, or None on a byte outside ``allowed``, a token over 19
    bytes or a text of 2 GiB or more."""
    if not text.isascii() or len(text) > _MAX_BYTES:
        return None
    raw = text.encode("ascii")
    if raw.translate(None, allowed):
        return None
    buf = np.frombuffer(raw, np.uint8)
    # One zero byte before the text and one more than the longest token after it: the
    # token bounds and the Horner gather below read this one copy.
    padded = np.zeros(len(buf) + 2 + _MAX_ID_DIGITS, np.uint8)
    padded[1 : len(buf) + 1] = buf
    in_token = padded > ord(" ")  # the allowed separators are space and newline
    bounds = np.flatnonzero(in_token[1:] != in_token[:-1])  # byte offsets in ``buf``
    starts = bounds[0::2]
    length = bounds[1::2] - starts
    longest = int(length.max()) if len(starts) else 0
    if longest > _MAX_ID_DIGITS:
        return None
    opens = np.zeros(len(starts) + 1, dtype=bool)  # opens[i]: token i is the first of its line
    opens[0] = True
    opens[np.searchsorted(starts, np.flatnonzero(buf == ord("\n")))] = True
    first = np.flatnonzero(opens[:-1])
    width = np.diff(first, append=len(starts))

    # Horner over byte positions p: at a digit, value = 10 * value + digit; other bytes are skipped.
    value = np.zeros(len(starts), np.uint32 if longest <= 9 else np.uint64)
    digits = np.zeros(len(starts), np.uint8)
    scale = np.zeros(len(starts), np.uint8)
    dots = b"." in allowed  # no token of a file without dots has a scale
    dotted = np.zeros(len(starts), dtype=bool)
    for p in range(longest):
        byte = padded[starts + (p + 1)]  # past a token's end: a separator, the next token or padding
        live = length > p
        digit = byte - np.uint8(ord("0"))  # uint8 wraps below '0'
        is_digit = (digit < 10) & live
        value *= is_digit * np.uint8(9) + np.uint8(1)  # 10 at a digit, else 1
        value += digit * is_digit
        digits += is_digit
        if dots:
            dot = (byte == ord(".")) & live
            dotted |= dot
            scale *= ~dot  # a dot restarts the count
            scale += is_digit
    scale *= dotted
    return _Scan(first, width, buf[starts], length, digits, value.astype(np.uint64, copy=False), scale)


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
    return GraphFile(n=n, m=m, xs=xs, ys=ys, ws=ws)


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
        is_c=is_c.tolist(), cxs=s.value[c + 1], cys=s.value[c + 2],
        nvs=s.value[first[~is_c] + 1].tolist(),
    )


# ---------------------------------------------------- per-line reference parser

def _significant_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def _int_token(token: str, number: int, what: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise ParseError(number, f"{what} must be a decimal integer, got {token!r}") from None


def _edge_list_lines(text: str) -> GraphFile:
    lines = _significant_lines(text)
    try:
        number, header = next(lines)
    except StopIteration:
        raise ParseError(1, "missing 'n m' header") from None
    tokens = header.split()
    if len(tokens) != 2:
        raise ParseError(number, f"header must be 'n m', got {header!r}")
    n = _int_token(tokens[0], number, "vertex count")
    m = _int_token(tokens[1], number, "edge count")
    if n < 1:
        raise ParseError(number, f"vertex count must be positive, got {n}")
    if m < 0:
        raise ParseError(number, f"edge count must be nonnegative, got {m}")

    xs: list[int] = []
    ys: list[int] = []
    ws: list[float | None] = []
    for number, line in lines:
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise ParseError(number, f"edge line must be 'x y [weight]', got {line!r}")
        if len(xs) >= m:
            raise ParseError(number, f"more than {m} edge lines")
        x = _int_token(tokens[0], number, "source vertex")
        y = _int_token(tokens[1], number, "target vertex")
        if not (0 <= x < n and 0 <= y < n):
            raise VertexRangeError(f"line {number}: edge ({x}, {y}) outside vertex range [0, {n})")
        weight: float | None = None
        if len(tokens) == 3:
            try:
                weight = float(tokens[2])
            except ValueError:
                raise ParseError(number, f"weight must be a number, got {tokens[2]!r}") from None
        xs.append(x)
        ys.append(y)
        ws.append(weight)
    return GraphFile(n=n, m=m, xs=_id_column(xs), ys=_id_column(ys), ws=ws)


def _queries_lines(text: str) -> QueryFile:
    is_c: list[bool] = []
    cxs: list[int] = []
    cys: list[int] = []
    nvs: list[int] = []
    for number, line in _significant_lines(text):
        tokens = line.split()
        if tokens[0] == "C" and len(tokens) == 3:
            cxs.append(_int_token(tokens[1], number, "source vertex"))
            cys.append(_int_token(tokens[2], number, "target vertex"))
        elif tokens[0] == "N" and len(tokens) == 2:
            nvs.append(_int_token(tokens[1], number, "vertex"))
        else:
            raise ParseError(number, f"query must be 'C x y' or 'N x', got {line!r}")
        is_c.append(tokens[0] == "C")
    return QueryFile(is_c=is_c, cxs=_id_column(cxs), cys=_id_column(cys), nvs=nvs)


# ------------------------------------------------------------------ public API

def parse_edge_list(text: str) -> GraphFile:
    """Parse an edge-list file; raises ParseError / VertexRangeError."""
    graph = _bulk_edge_list(text)
    return graph if graph is not None else _edge_list_lines(text)


def parse_query_file(text: str) -> QueryFile:
    """Parse a query file into columns; raises ParseError."""
    queries = _bulk_queries(text)
    return queries if queries is not None else _queries_lines(text)


def parse_queries(text: str) -> list[tuple]:
    """Parse a query file into ("C", x, y) / ("N", x) tuples of Python ints."""
    q = parse_query_file(text)
    cs, ns = zip(repeat("C"), q.cxs.tolist(), q.cys.tolist()), zip(repeat("N"), q.nvs)
    return [next(cs) if c else next(ns) for c in q.is_c]


def join_runs(values, ends) -> list[str]:
    """``" ".join(map(str, values[a:b]))`` for each run ``[a, b)`` of ``ends``.

    ``values`` are integers in [0, 2**64) and ``ends`` the runs' running
    ends, as lists, as :meth:`~graphstores.core.EdgeStore.neighbors_many`
    returns them, or as the uint64 and intp arrays of the stores'
    ``_neighbor_runs``, which are taken without a copy. One numpy pass
    per digit position writes every value's digits, each value followed
    by a space, into one byte buffer; one decode makes it a str, and each
    run's line is one slice of it, its last space left out. So an N line
    costs one slice however long it is.
    """
    v = np.asarray(values, np.uint64)
    stop = np.searchsorted(_POW10_U64, v, side="right") + 2  # digits and a space
    np.cumsum(stop, out=stop)
    buf = np.full(int(stop[-1]) if len(v) else 0, ord(" "), np.uint8)
    at, rest = stop - 2, v  # the last digit's byte
    while len(rest):
        rest, digit = np.divmod(rest, np.uint64(10))
        buf[at] = digit + np.uint8(ord("0"))
        more = rest > 0
        at, rest = at[more] - 1, rest[more]
    text = buf.tobytes().decode("ascii")
    bounds = np.concatenate(([0], stop))  # each value's first byte; the buffer's end
    last = np.asarray(ends, np.intp)
    begin = bounds[np.concatenate(([0], last[:-1]))]
    end = np.maximum(bounds[last] - 1, begin)  # an empty run is an empty slice
    return [text[a:b] for a, b in zip(begin.tolist(), end.tolist())]


def format_results(lines: list[str]) -> str:
    """One result line per query, newline-terminated; empty for no queries."""
    return "\n".join(lines) + "\n" if lines else ""
