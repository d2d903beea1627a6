from __future__ import annotations

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphstores import ParseError, VertexRangeError, parse_edge_list, parse_queries
from graphstores.formats import format_results, join_runs, parse_query_file


class TestEdgeListParsing:
    def test_basic(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g.n == 3 and g.m == 2
        assert g.edges == [(0, 1, None), (1, 2, None)]
        assert not g.has_weights

    def test_comments_and_blanks_ignored(self):
        g = parse_edge_list("# header comment\n\n3 1\n# edge below\n0 2\n\n")
        assert g.edges == [(0, 2, None)]

    def test_weights(self):
        g = parse_edge_list("3 2\n0 1 2.5\n1 2\n")
        assert g.edges == [(0, 1, 2.5), (1, 2, None)]
        assert g.has_weights

    def test_duplicate_lines_legal(self):
        g = parse_edge_list("3 3\n0 1\n0 1\n0 1\n")
        assert len(g.edges) == 3

    def test_fewer_edges_than_m_is_fine(self):
        assert parse_edge_list("3 5\n0 1\n").edges == [(0, 1, None)]

    @pytest.mark.parametrize(
        "text,line",
        [
            ("", 1),
            ("3\n", 1),
            ("3 2 1\n", 1),
            ("x 2\n", 1),
            ("0 2\n", 1),
            ("3 -1\n", 1),
            ("4 2.5\n0 1\n", 1),
            ("3 2\n0\n", 2),
            ("3 2\n0 1 2 3\n", 2),
            ("3 2\na b\n", 2),
            ("3 1\n0 1\n1 2\n", 3),
            ("3 2\n0 1 abc\n", 2),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as excinfo:
            parse_edge_list(text)
        assert excinfo.value.line == line

    @pytest.mark.parametrize("text", ["3 2\n0 3\n", "3 2\n3 0\n", "3 2\n-1 0\n"])
    def test_out_of_range_vertices(self, text):
        with pytest.raises(VertexRangeError):
            parse_edge_list(text)


class TestQueryParsing:
    def test_basic(self):
        qs = parse_queries("C 0 1\nN 2\n")
        assert qs == [("C", 0, 1), ("N", 2)]

    def test_comments_ignored(self):
        assert parse_queries("# q\nC 1 1\n") == [("C", 1, 1)]

    @pytest.mark.parametrize("text", ["C 0\n", "N 0 1\n", "X 0 1\n", "C a b\n", "contains 0 1\n"])
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_queries(text)


class TestResults:
    def test_empty(self):
        assert format_results([]) == ""

    def test_lines(self):
        assert format_results(["1", "0 2", ""]) == "1\n0 2\n\n"


def joined(runs: list[list[int]]) -> tuple[list[str], list[str]]:
    """``join_runs`` on the flattened runs, and ``" ".join`` per run."""
    flat = [v for run in runs for v in run]
    return join_runs(flat, list(accumulate(map(len, runs)))), [" ".join(map(str, r)) for r in runs]


EDGE_VALUES = [0, 9, 10, 2**32 - 1]
value = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1))


EDGE_RUNS = [
    [],
    [[]],
    [[], [], []],
    [[], EDGE_VALUES, [7]],
    [EDGE_VALUES, [], [10, 9]],
    [[0], [9, 10], []],
    [[], [2**32 - 1], [], [0, 0], []],
    [[99, 100, 999, 1000, 10**19 - 1, 10**19, 2**64 - 1]],
]
EDGE_RUN_IDS = ["no-runs", "one-empty", "all-empty", "empty-first", "empty-middle", "empty-last",
                "alternating", "digit-boundaries"]


class TestJoinRuns:
    """``join_runs`` gives each run the line ``" ".join(map(str, run))`` gives it."""

    @settings(max_examples=300, deadline=None)
    @given(runs=st.lists(st.lists(value, max_size=6), max_size=8))
    def test_matches_join(self, runs):
        got, want = joined(runs)
        assert got == want

    @pytest.mark.parametrize("runs", EDGE_RUNS, ids=EDGE_RUN_IDS)
    def test_edge_cases(self, runs):
        got, want = joined(runs)
        assert got == want

    @pytest.mark.parametrize("runs", EDGE_RUNS + [[[2**32 - 1]]], ids=EDGE_RUN_IDS + ["one-run"])
    def test_arrays_give_the_lines_of_lists(self, runs):
        """The uint64 targets and intp ends of ``_neighbor_runs`` give the same lines
        as the lists of ``neighbors_many``."""
        flat = [v for run in runs for v in run]
        ends = list(accumulate(map(len, runs)))
        got = join_runs(np.array(flat, np.uint64), np.array(ends, np.intp))
        assert got == join_runs(flat, ends) == joined(runs)[1]


class TestColumns:
    """Both parsers hand the ids over as uint64 arrays; the per-line parser falls back to
    an object array of Python ints only for ids a uint64 cannot hold."""

    @pytest.mark.parametrize("suffix", ["", "# the per-line parser\n"])
    def test_id_columns_are_uint64(self, suffix):
        graph = parse_edge_list("5 3\n0 1 2.5\n4 3\n2 2\n" + suffix)
        queries = parse_query_file("C 0 1\nN 4\nC 3 2\n" + suffix)
        for column, want in ((graph.xs, [0, 4, 2]), (graph.ys, [1, 3, 2]),
                             (queries.cxs, [0, 3]), (queries.cys, [1, 2])):
            assert isinstance(column, np.ndarray) and column.dtype == np.uint64
            assert column.tolist() == want
        assert graph.ws == [2.5, None, None]
        assert queries.nvs == [4] and queries.is_c == [True, False, True]
        assert type(queries.nvs[0]) is int

    def test_empty_columns_are_uint64(self):
        for queries in (parse_query_file(""), parse_query_file("N 1\n"), parse_query_file("#\n")):
            assert queries.cxs.dtype == queries.cys.dtype == np.uint64 and len(queries.cxs) == 0

    @pytest.mark.parametrize("x", [-1, 2**64, 10**30])
    def test_ids_beyond_uint64_stay_python_ints(self, x):
        queries = parse_query_file(f"C {x} 0\nC 1 2\n")
        assert queries.cxs.dtype == object and queries.cxs.tolist() == [x, 1]
        assert all(type(v) is int for v in queries.cxs)
        assert queries.cys.dtype == np.uint64
        assert parse_queries(f"C {x} 0\n") == [("C", x, 0)]
