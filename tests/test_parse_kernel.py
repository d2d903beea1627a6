"""Differential test of the bulk parse against the per-line parser.

``parse_edge_list`` and ``parse_queries`` first try a whole-buffer numpy
kernel, which declines any byte outside digits, space, newline, ``.``,
``C`` and ``N``. A ``#`` line appended to a file therefore sends the same
significant lines through the per-line parser, which is the reference:
both calls must give the same values with the same Python types, or raise
the same exception class with the same message and line number.

The kernel itself is also checked against the byte-granular kernel it
replaced, kept in ``_reference``: on texts over each kernel's own bytes,
both decline or both return the same token layout and the same file.

``graphstores query`` parses the query file on a worker thread while the
calling thread parses the edge file, so every case also parses on a worker
beside a parse of the same text on the calling thread, with the outcome of
a parse on the calling thread alone.
"""

from __future__ import annotations

import importlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _reference import _EDGE_BYTES as REFERENCE_EDGE_BYTES
from _reference import _QUERY_BYTES as REFERENCE_QUERY_BYTES
from _reference import _bulk_edge_list as reference_bulk_edge_list
from _reference import _bulk_queries as reference_bulk_queries
from _reference import _scan as reference_scan
from graphstores import GraphStoreError, formats, parse_edge_list, parse_queries

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def per_line(parse, text: str):
    """``parse`` on ``text`` plus a ``#`` line, which only the per-line parser reads."""
    return parse(text + "\n#\n")


def outcome(parse, text: str):
    try:
        return "ok", parse(text)
    except GraphStoreError as exc:
        return "raised", (type(exc), str(exc), getattr(exc, "line", None))


def beside(parse, text: str):
    """``outcome`` of ``parse`` on a worker thread and on this thread, run at the same time."""
    with ThreadPoolExecutor(1) as pool:
        pending = pool.submit(outcome, parse, text)
        here = outcome(parse, text)
        return pending.result(), here


def same(a, b) -> bool:
    """``a == b``, except that a NaN weight equals a NaN weight: each ``float("nan")`` of
    the per-line parser is a new object, and a list compares NaNs by identity."""
    return a == b or repr(a) == repr(b)


def assert_same_columns(got, ref, text: str) -> None:
    """Field by field: an array field equals an array of the same dtype and values. The
    reference kernel keeps its ids in lists; against those, the id columns are ``uint64``
    arrays of the same values."""
    for f in fields(ref):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.dtype == b.dtype, (text, f.name, a, b)
            assert a.shape == b.shape and np.array_equal(a, b), (text, f.name, a, b)
        elif isinstance(a, np.ndarray):
            assert a.dtype == np.uint64 and a.tolist() == b, (text, f.name, a, b)
        else:
            assert same(a, b), (text, f.name, a, b)


def assert_same_graph(text: str) -> None:
    got, ref = outcome(parse_edge_list, text), outcome(lambda t: per_line(parse_edge_list, t), text)
    assert got[0] == ref[0], (text, got, ref)
    if got[0] == "raised":
        assert got[1] == ref[1], text
        return
    g, r = got[1], ref[1]
    assert_same_columns(g, r, text)
    assert same(g.edges, r.edges) and g.has_weights == r.has_weights, text
    assert type(g.n) is int and type(g.m) is int
    for x, y, w in g.edges:
        assert type(x) is int and type(y) is int, text
        assert w is None or type(w) is float, text


def assert_same_queries(text: str) -> None:
    got, ref = outcome(parse_queries, text), outcome(lambda t: per_line(parse_queries, t), text)
    assert got == ref, text
    if got[0] == "ok":
        for q in got[1]:
            assert type(q[0]) is str and all(type(v) is int for v in q[1:]), text


# --- strategies: canonical files, plus the odd forms the per-line parser accepts or rejects.
# Each file carries at most one kind of noise, so one odd token, line shape, header or line
# count sits in an otherwise canonical file, where only the kernel's own checks can decline it.

NOISE = st.sampled_from(["none"] * 3 + ["tokens", "layout", "header"] + ["shapes", "count"] * 2)
ODD_IDS = ["-1", "+1", "1_0", "1e1", "1.0", "0x1", "a", "C", "N", "٣", "１", "1#", "9" * 19, "9" * 20,
           "1" + "0" * 19, "0" * 19 + "1", "0" * 18 + "1"]
ODD_WEIGHTS = [".", ".5", "5.", "0.", "00.50", "-1.5", "+2", "1e3", "1E-2", "nan", "inf", "1_0.5", "1..2",
               "1.2.3", "123456789012345", "12345678901234.5", ".123456789012345",
               "1234567890123456", "1234567890123.456", "0.1234567890123456", "99999999999999999999",
               "a", "0x1p3", "٣.5"]
SEPARATORS = [" ", " ", " ", "  ", "\t", " \t"]


def id_token(n: int):
    return st.one_of(
        st.integers(0, n - 1).map(str),
        st.integers(0, min(n - 1, 99)).map(str),
        st.integers(0, min(n - 1, 99)).map(lambda v: "00" + str(v)),
    )


@st.composite
def weight_token(draw):
    if draw(st.booleans()):
        return f"0.{draw(st.integers(0, 999)):03d}"
    digits = draw(st.text("0123456789", min_size=1, max_size=16))
    dot = draw(st.integers(-1, len(digits)))
    return digits if dot < 0 else digits[:dot] + "." + digits[dot:]


def layout(draw, noise, rows, header=None):
    """Join token rows into a file, with the separators, blank lines and comments ``noise`` allows."""
    sep = SEPARATORS if noise == "layout" else [" ", "  "]
    lines = [] if header is None else [header]
    for row in rows:
        pad = draw(st.sampled_from(["", " ", "  "]))
        lines.append(pad + "".join(t + draw(st.sampled_from(sep)) for t in row).rstrip("\t "))
    for _ in range(draw(st.integers(0, 2))):
        extra = ["", "   ", "# comment", "  # indented", "\t"] if noise == "layout" else ["", " "]
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(extra)))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n", " \n"]))


@st.composite
def edge_files(draw):
    n = draw(st.sampled_from([1, 2, 3, 7, 1000, 10**18 + 3, 10**19 - 1, 10**19 + 1]))
    noise = draw(NOISE)
    weights = draw(st.sampled_from(["all", "none", "mixed"]))

    def row(width):
        return [draw(id_token(n)) for _ in range(min(width, 2))] + [draw(weight_token()) for _ in range(width - 2)]

    rows = [row(3 if weights == "all" else 2 if weights == "none" else draw(st.sampled_from([2, 3])))
            for _ in range(draw(st.integers(0, 8)))]
    if noise == "tokens" and rows:
        r = draw(st.sampled_from(rows))
        i = draw(st.integers(0, len(r) - 1))
        r[i] = draw(st.sampled_from(ODD_WEIGHTS if i == 2 else ODD_IDS + [str(n), str(n + 1)]))
    if noise == "shapes":
        rows.insert(draw(st.integers(0, len(rows))), row(draw(st.sampled_from([1, 4, 4, 5]))))
    m = len(rows) + draw(st.sampled_from([-1, -2] if rows and noise == "count" else [0, 0, 1, 5]))
    header = f"{n} {max(m, 0)}"
    if noise == "header":
        header = draw(st.sampled_from(
            [f"{n}", f"{n} {m} 1", f"0 {m}", f"-1 {m}", f"{n} -1", f"{n} 1e3", f"{n}.0 {m}",
             f"{n} {10**19 + m}", f"00{n} 0{m}", f"{n}\t{m}", "", "# graph"]
        ))
    return layout(draw, noise, rows, header)


@st.composite
def query_files(draw):
    noise = draw(NOISE)
    n = draw(st.sampled_from([5, 10**19 - 1, 10**19 + 1]))
    rows = [["C", draw(id_token(n)), draw(id_token(n))] if draw(st.booleans()) else ["N", draw(id_token(n))]
            for _ in range(draw(st.integers(0, 10)))]
    if noise == "tokens" and rows:
        r = draw(st.sampled_from(rows))
        r[draw(st.integers(1, len(r) - 1))] = draw(st.sampled_from(ODD_IDS))
    if noise == "shapes":
        kind = draw(st.sampled_from(["C", "N", "X", "c", "CC", "contains", "C1", "0"]))
        odd = [kind] + [draw(id_token(n)) for _ in range(draw(st.integers(0, 3)))]
        rows.insert(draw(st.integers(0, len(rows))), odd)
    return layout(draw, noise, rows)


@SETTINGS
@given(edge_files())
def test_edge_lists_match_per_line(text):
    assert_same_graph(text)


@SETTINGS
@given(query_files())
def test_queries_match_per_line(text):
    assert_same_queries(text)


# --- the kernel against the byte-granular kernel it replaced, on texts over its own bytes.

def column_types(parsed) -> dict:
    columns = {f.name: getattr(parsed, f.name) for f in fields(parsed)}
    return {name: [type(v) for v in (c.tolist() if isinstance(c, np.ndarray) else c)]
            for name, c in columns.items() if isinstance(c, (list, np.ndarray))}


def assert_same_kernel(text: str, kernel: str) -> None:
    edges = kernel == "edges"
    scans = (formats._scan(text, formats._EDGE_BYTES if edges else formats._QUERY_BYTES),
             reference_scan(text, REFERENCE_EDGE_BYTES if edges else REFERENCE_QUERY_BYTES))
    assert (scans[0] is None) == (scans[1] is None), text
    if scans[0] is not None:
        for f in fields(scans[1]):
            assert np.array_equal(getattr(scans[0], f.name), getattr(scans[1], f.name)), (text, f.name)
    got = formats._bulk_edge_list(text) if edges else formats._bulk_queries(text)
    ref = reference_bulk_edge_list(text) if edges else reference_bulk_queries(text)
    assert (got is None) == (ref is None), text
    if got is not None:
        assert_same_columns(got, ref, text)
        assert column_types(got) == column_types(ref), text
        if edges:
            assert type(got.n) is int and type(got.m) is int and type(got.has_weights) is bool


def run(chars: str):
    return st.text(chars, max_size=3)


DIGITS = "0123456789"
NUMBER = st.one_of(st.integers(0, 99999).map(str), st.integers(0, 99999).map(str),
                   st.text(DIGITS, min_size=1, max_size=20))


@st.composite
def decimal(draw):
    digits = draw(st.text(DIGITS, min_size=1, max_size=16))
    dot = draw(st.integers(-1, len(digits)))
    return digits if dot < 0 else digits[:dot] + "." + digits[dot:]


def edge_row(draw):
    return [draw(NUMBER), draw(NUMBER)] + [draw(decimal())] * draw(st.integers(0, 1))


def query_row(draw):
    return ["C", draw(NUMBER), draw(NUMBER)] if draw(st.booleans()) else ["N", draw(NUMBER)]


@st.composite
def kernel_texts(draw, token_bytes: str, header, row):
    """A plain string over ``token_bytes``, blank and newline; or rows of tokens, one of them
    sometimes swapped for 1–20 bytes over ``token_bytes`` or its row's width changed, joined
    by runs of blanks and newlines, with or without a trailing newline. Now and then one
    character from outside the alphabet goes in, which the kernel must decline."""
    if draw(st.integers(0, 7)) == 0:
        text = draw(st.text(token_bytes + " \n", max_size=40))
    else:
        rows = ([draw(header)] if header is not None else []) + [row(draw) for _ in range(draw(st.integers(0, 8)))]
        if rows and draw(st.booleans()):
            r = draw(st.sampled_from(rows))
            i = draw(st.integers(0, len(r)))
            odd = st.text(token_bytes, min_size=1, max_size=20)
            r[i:i + 1] = draw(st.sampled_from([[], [draw(odd)], [draw(odd), draw(NUMBER)]]))
        text = draw(run(" \n"))
        for r in rows:
            text += draw(run(" ")) + " ".join(r) + draw(run(" ")) + draw(st.sampled_from(["\n", "\n\n", "\n \n "]))
        text = text[: len(text) - draw(st.integers(0, 3))]
    if draw(st.integers(0, 7)) == 0:
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from("\t\r\x0b\x0c#-+e_.CN\xe9")) + text[i:]
    return text


EDGE_HEADER = st.tuples(st.sampled_from(["9" * 19, "1000", "1"]), st.sampled_from(["9" * 19, "8", "0"])).map(list)


@SETTINGS
@given(st.one_of(st.just(""), kernel_texts("0123456789.", EDGE_HEADER, edge_row)))
def test_edge_kernel_matches_reference(text):
    assert_same_kernel(text, "edges")


@SETTINGS
@given(st.one_of(st.just(""), kernel_texts("0123456789CN", None, query_row)))
def test_query_kernel_matches_reference(text):
    assert_same_kernel(text, "queries")


# Every malformed shape in test_formats.py, and the boundary tokens one at a time.
EDGE_CASES = [
    "", "3\n", "3 2 1\n", "x 2\n", "0 2\n", "3 -1\n", "4 2.5\n0 1\n", "3 2\n0\n", "3 2\n0 1 2 3\n",
    "3 2\na b\n",
    "3 1\n0 1\n1 2\n", "3 2\n0 1 abc\n", "3 2\n0 3\n", "3 2\n3 0\n", "3 2\n-1 0\n",
    "3 2\n0 1\n1 2\n", "# header comment\n\n3 1\n# edge below\n0 2\n\n", "3 2\n0 1 2.5\n1 2\n",
    "3 3\n0 1\n0 1\n0 1\n", "3 5\n0 1\n", "3 0\n", "3 0\n0 1\n", "1 1\n0 0 0\n", "  3   2  \n  0  1 \n",
    "3 2\n0 1\t2.5\n", "3\t2\n0 1\n", "3 2\r\n0 1\r\n", "3 2\n0 1\r1 2\n", "3 2\n0 1 2.5e0\n",
    f"{10**19 - 1} 1\n{10**19 - 2} 0 1.5\n", f"{10**19} 1\n{10**19 - 1} 0\n", f"3 {10**19}\n0 1\n",
    f"3 {10**19 - 1}\n0 1\n", "3 1\n0 1 .\n", "3 1\n0 1 .5\n", "3 1\n0 1 5.\n",
    "3 1\n0 1 123456789012345\n", "3 1\n0 1 1234567890123456\n", "3 1\n0 1 12345678901234.5\n",
    "3 1\n0 1 0.000000000000001\n", "3 1\n0 1 0.0000000000000001\n", "3 1\n0 1 9007199254740993\n",
    "3 1\n0 1 0.1\n", "3 1\n0 1 0.3\n", "3 1\n0 1 2.675\n", "3 1\n0 1 1.\n", "3 1\n0 1 ..\n", "1 1\n0 0 nan\n",
    "3 2\n0 1 1.5\n1 2\n", "3 2\n0 1\n1 2 1.5\n", "3 1\n00 01 000.500\n", "3 1\n0 1 C\n", "3 1\nC 0 1\n",
    "3 1\n0 1  \n", "3 1\n0 1 \x0c\n", "3 1\n0\x0b1\n",
    # the kernel's own boundaries: tokens at end of file, id widths around 2**32, line starts
    f"{10**19 - 1} 1\n0 {'9' * 19}", f"{10**19 - 1} 1\n0 {'9' * 20}", "3 1\n0 1 123456789012345",
    "3 1\n0 1 12345678901.2345", f"{10**10} 2\n999999999 9999999999\n4294967295 4294967296\n",
    f"{2**32} 1\n4294967295 0\n", f"{2**32} 1\n4294967296 0\n", "\n\n3 1\n\n \n0 1", "   ", "\n \n  ",
    "3 100000\n0 1.5 .25\n",
    # runs of blank lines, an over-long token on line 3, a header-only file, leading blank lines
    "3 2\n0 1\n\n\n1 2\n", "3 1\n0 1 0.5", "3 1\n" + " " * 30 + "\n0 " + "9" * 20 + "\n", "3 0\n\n\n",
    "\n\n\n\n\n3 0\n",
]
QUERY_CASES = [
    "", "C 0 1\nN 2\n", "# q\nC 1 1\n", "C 0\n", "N 0 1\n", "X 0 1\n", "C a b\n", "contains 0 1\n",
    "C 0 1", "  C   0  1  \n\n N 2 \n", "C\t0 1\n", "c 0 1\n", "CN 0\n", "C 0 N\n", "N C\n", "C0 1\n",
    "N 1.5\n", f"C {10**19 - 1} 0\n", f"C {10**19} 0\n", f"N {'0' * 19}1\n", "C -1 0\n", "N +1\n",
    "C 0 1\r\nN 2\r\n", "N 1\nN\n", "C\n", "N\n", "\n\n\n",
    f"C 0 {'9' * 19}", f"C 0 {'9' * 20}", f"N {'0' * 18}1", "C 999999999 9999999999\nN 4294967295\nN 4294967296",
    "\n\nN 3\n\n \nC 0 1", "   ", " \n ",
    "C 0 1\nN 2\n\nC 1 1\n", "C 0 1\n", "C 0 1\n" + " " * 30 + "\nN " + "1" * 20 + "\n",
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_list_cases(text):
    assert_same_graph(text)
    assert_same_kernel(text, "edges")


@pytest.mark.parametrize("text", QUERY_CASES)
def test_query_cases(text):
    assert_same_queries(text)
    assert_same_kernel(text, "queries")


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_list_cases_beside_a_worker(text):
    alone = outcome(parse_edge_list, text)
    for got in beside(parse_edge_list, text):
        assert got[0] == alone[0], (text, got, alone)
        if got[0] == "raised":
            assert got[1] == alone[1], text
        else:
            assert_same_columns(got[1], alone[1], text)


@pytest.mark.parametrize("text", QUERY_CASES)
def test_query_cases_beside_a_worker(text):
    alone = outcome(parse_queries, text)
    assert beside(parse_queries, text) == (alone, alone), text


@pytest.mark.parametrize("workload", ["uniform-presized", "skewed-growing", "cli-query", "selftest"])
def test_kernel_accepts_benchmark_files(monkeypatch, workload):
    """The files every perfbench workload writes take the bulk path, never the per-line parser."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    bench_inputs = importlib.import_module("bench_inputs")
    inp = bench_inputs.make_inputs(bench_inputs.WORKLOADS[workload], 5)
    graph = formats._bulk_edge_list(inp.graph_text)
    queries = formats._bulk_queries(inp.query_text)
    assert graph is not None and queries is not None
    assert_same_columns(graph, formats._edge_list_lines(inp.graph_text), workload)
    assert_same_columns(queries, formats._queries_lines(inp.query_text), workload)
    assert graph.has_weights and len(queries.cxs) and queries.nvs


@pytest.mark.parametrize("text,kernel", [
    ("3 2\n0 1 2.5\n1 2\n", formats._bulk_edge_list),
    ("C 0 1\nN 2\n", formats._bulk_queries),
])
def test_comment_line_sends_text_to_the_per_line_parser(text, kernel):
    assert kernel(text) is not None
    assert kernel(text + "\n#\n") is None
