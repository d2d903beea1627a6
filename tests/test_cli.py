from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from graphstores import (
    HASH_MODES,
    STRUCTURE_NAMES,
    DifferentialMismatch,
    EdgeHash,
    HashList,
    MultiList,
    StoreConfig,
    cli,
    parse_edge_list,
    scaling_sweep,
)
from graphstores.cli import _answer_queries, _build_query_store, _load_query_store, main
from graphstores import formats
from graphstores.formats import ParseError, parse_query_file

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def small_graph(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    return path


class TestQuery:
    def test_contains_hit(self, tmp_path, capsys, small_graph):
        q = tmp_path / "q.txt"
        q.write_text("C 0 1\n")
        code, out, _ = run_cli(capsys, "query", str(small_graph), str(q))
        assert code == 0
        assert out == "1\n"

    def test_contains_directed_miss(self, tmp_path, capsys, small_graph):
        q = tmp_path / "q.txt"
        q.write_text("C 1 0\n")
        code, out, _ = run_cli(capsys, "query", str(small_graph), str(q))
        assert code == 0
        assert out == "0\n"

    def test_neighbors_reverse_insertion(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_text("3 2\n1 2\n1 0\n")
        q = tmp_path / "q.txt"
        q.write_text("N 1\n")
        code, out, _ = run_cli(capsys, "query", str(g), str(q))
        assert code == 0
        assert out == "0 2\n"

    def test_out_file(self, tmp_path, capsys, small_graph):
        q = tmp_path / "q.txt"
        q.write_text("C 0 1\nN 0\n")
        out_path = tmp_path / "results.txt"
        code, _, _ = run_cli(capsys, "query", str(small_graph), str(q), "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == "1\n1\n"

    def test_byte_identical_across_structures(self, tmp_path, capsys):
        import random

        rnd = random.Random(64)
        n, m = 30, 200
        lines = [f"{n} {m}"] + [f"{rnd.randrange(n)} {rnd.randrange(n)}" for _ in range(m)]
        g = tmp_path / "g.txt"
        g.write_text("\n".join(lines) + "\n")
        queries = []
        for _ in range(100):
            if rnd.random() < 0.6:
                queries.append(f"C {rnd.randrange(n)} {rnd.randrange(n)}")
            else:
                queries.append(f"N {rnd.randrange(n)}")
        q = tmp_path / "q.txt"
        q.write_text("\n".join(queries) + "\n")
        outputs = {}
        for structure in ("hashlist", "multilist", "oracle"):
            code, out, _ = run_cli(capsys, "query", str(g), str(q), "--structure", structure)
            assert code == 0
            outputs[structure] = out
        assert len(set(outputs.values())) == 1

    def test_paper_compat_mode(self, tmp_path, capsys, small_graph):
        q = tmp_path / "q.txt"
        q.write_text("C 0 1\nC 2 0\n")
        code, out, _ = run_cli(
            capsys, "query", str(small_graph), str(q), "--hash-mode", "paper_compat"
        )
        assert code == 0
        assert out == "1\n0\n"

    def test_undirected_flag(self, tmp_path, capsys, small_graph):
        q = tmp_path / "q.txt"
        q.write_text("C 1 0\nC 2 1\n")
        code, out, _ = run_cli(capsys, "query", str(small_graph), str(q), "--undirected")
        assert code == 0
        assert out == "1\n1\n"

    def test_weighted_file(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_text("3 2\n0 1 4.5\n1 2 0.5\n")
        q = tmp_path / "q.txt"
        q.write_text("C 0 1\n")
        code, out, _ = run_cli(capsys, "query", str(g), str(q), "--structure", "hashlist")
        assert code == 0
        assert out == "1\n"


class TestQueryErrors:
    def test_parse_error_exit_2(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_text("not a header\n")
        q = tmp_path / "q.txt"
        q.write_text("C 0 1\n")
        code, _, err = run_cli(capsys, "query", str(g), str(q))
        assert code == 2
        assert "line 1" in err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        q = tmp_path / "q.txt"
        q.write_text("C 0 1\n")
        code, _, _ = run_cli(capsys, "query", str(tmp_path / "nope.txt"), str(q))
        assert code == 2

    def test_edge_out_of_range_exit_3(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_text("3 1\n0 7\n")
        q = tmp_path / "q.txt"
        q.write_text("C 0 1\n")
        code, _, _ = run_cli(capsys, "query", str(g), str(q))
        assert code == 3

    def test_query_vertex_out_of_range_exit_3(self, tmp_path, capsys, small_graph):
        q = tmp_path / "q.txt"
        q.write_text("C 0 99\n")
        code, _, _ = run_cli(capsys, "query", str(small_graph), str(q))
        assert code == 3

    def test_neighbors_on_edgehash_exit_3(self, tmp_path, capsys, small_graph):
        q = tmp_path / "q.txt"
        q.write_text("N 0\n")
        code, _, err = run_cli(capsys, "query", str(small_graph), str(q), "--structure", "edgehash")
        assert code == 3
        assert "enumerate" in err

    def test_query_id_beyond_64_bits_exit_3(self, tmp_path, capsys, small_graph):
        q = tmp_path / "q.txt"
        q.write_text("C 0 1\nC 0 99999999999999999999999\n")
        for structure in ("hashlist", "edgehash", "multilist", "oracle"):
            code, out, err = run_cli(capsys, "query", str(small_graph), str(q),
                                     "--structure", structure)
            assert code == 3
            assert out == "" and "Traceback" not in err
            assert "outside vertex range" in err

    def test_neighbors_on_edgehash_among_contains_exit_3(self, tmp_path, capsys, small_graph):
        q = tmp_path / "q.txt"
        q.write_text("C 0 1\nN 0\nC 1 2\n")
        code, out, err = run_cli(capsys, "query", str(small_graph), str(q), "--structure", "edgehash")
        assert code == 3
        assert out == "" and "enumerate" in err

    @pytest.mark.parametrize("structure", ["hashlist", "multilist", "oracle"])
    def test_first_bad_n_vertex_among_repeats_exit_3(self, tmp_path, capsys, structure):
        g, q = tmp_path / "g.txt", tmp_path / "q.txt"
        g.write_text("8 2\n0 1\n1 2\n")
        q.write_text("N 1\nN 9\nN 1\nN 12\n")
        code, out, err = run_cli(capsys, "query", str(g), str(q), "--structure", structure)
        assert (code, out) == (3, "")
        assert "vertex 9 " in err and "12" not in err

    def test_repeated_neighbors_on_edgehash_exit_3(self, tmp_path, capsys, small_graph):
        q = tmp_path / "q.txt"
        q.write_text("C 0 1\nN 0\nN 0\n")
        code, out, err = run_cli(capsys, "query", str(small_graph), str(q), "--structure", "edgehash")
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "enumerate" in err

    @pytest.mark.parametrize("bad,line", [("graph", 3), ("queries", 2)])
    def test_invalid_utf8_exit_2(self, tmp_path, capsys, bad, line):
        files = {"graph": b"3 2\n0 1\n", "queries": b"C 0 1\n"}
        files[bad] += b"1 \xff\n"
        paths = []
        for name, data in files.items():
            paths.append(tmp_path / f"{name}.txt")
            paths[-1].write_bytes(data)
        code, out, err = run_cli(capsys, "query", *map(str, paths))
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert err.startswith(f"parse error: line {line}: ") and f"{bad}.txt is not UTF-8" in err

    @pytest.mark.parametrize("structure,exit_code",
                             [("hashlist", 1), ("edgehash", 1), ("multilist", 1), ("oracle", 1)])
    def test_huge_header_n_one_line_error(self, tmp_path, capsys, structure, exit_code):
        g, q = tmp_path / "g.txt", tmp_path / "q.txt"
        g.write_text("1000000000000 1\n0 1\n")
        q.write_text("C 0 1\n")
        code, out, err = run_cli(capsys, "query", str(g), str(q), "--structure", structure)
        assert (code, out) == (exit_code, "")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_oracle_over_its_cap_exit_1(self, tmp_path, capsys):
        """A 5000-vertex file on the oracle: OracleGraph refuses it with ConfigError,
        exit 1 in one line, as bench's refusal does."""
        g, q = tmp_path / "g.txt", tmp_path / "q.txt"
        g.write_text("5000 1\n0 4999\n")
        q.write_text("C 0 4999\n")
        code, out, err = run_cli(capsys, "query", str(g), str(q), "--structure", "oracle")
        assert (code, out) == (1, "")
        assert "4096" in err and err.count("\n") == 1 and "Traceback" not in err

    # Errors come in the order of the steps: graph read and parse, query read and parse,
    # build and load, answers. Each case holds an error of two steps.
    BAD_QUERIES = "C 0 1\nX 0 1\n"
    BAD_QUERIES_ERR = "parse error: line 2: query must be 'C x y' or 'N x', got 'X 0 1'\n"

    def run_joined(self, capsys, *argv):
        """``run_cli``, checking that no thread outlives the call."""
        before = threading.active_count()
        result = run_cli(capsys, *argv)
        assert threading.active_count() == before
        return result

    def test_bad_graph_beats_bad_queries(self, tmp_path, capsys):
        g, q = tmp_path / "g.txt", tmp_path / "q.txt"
        g.write_text("not a header\n")
        q.write_text(self.BAD_QUERIES)
        assert self.run_joined(capsys, "query", str(g), str(q)) == (
            2, "", "parse error: line 1: header must be 'n m', got 'not a header'\n")

    def test_missing_graph_beats_bad_queries(self, tmp_path, capsys):
        g, q = tmp_path / "nope.txt", tmp_path / "q.txt"
        q.write_text(self.BAD_QUERIES)
        assert self.run_joined(capsys, "query", str(g), str(q)) == (
            2, "", f"i/o error: [Errno 2] No such file or directory: {str(g)!r}\n")

    @pytest.mark.parametrize("structure", STRUCTURE_NAMES)
    def test_bad_queries_beat_a_refused_build(self, tmp_path, capsys, structure):
        """A header n above 2**32 is refused at build time (exit 1), but the query file is
        read first."""
        g, q = tmp_path / "g.txt", tmp_path / "q.txt"
        g.write_text("5000000000 1\n")
        q.write_text(self.BAD_QUERIES)
        argv = ("query", str(g), str(q), "--structure", structure)
        assert self.run_joined(capsys, *argv) == (2, "", self.BAD_QUERIES_ERR)

    def test_missing_queries_beat_the_oracle_cap(self, tmp_path, capsys):
        g, q = tmp_path / "g.txt", tmp_path / "nope.txt"
        g.write_text("5000 1\n0 4999\n")
        assert self.run_joined(capsys, "query", str(g), str(q), "--structure", "oracle") == (
            2, "", f"i/o error: [Errno 2] No such file or directory: {str(q)!r}\n")

    @pytest.mark.parametrize("structure", ["hashlist", "multilist"])
    def test_memory_error_one_line_exit_1(self, tmp_path, capsys, monkeypatch, small_graph, structure):
        """A store that cannot be allocated (say, for a header n of 2**32) exits 1 in one line.

        The store classes the factory calls raise instead, so nothing is allocated.
        """
        import graphstores.bench as bench  # where the CLI's stores are built

        def refuse(*args):
            raise MemoryError

        monkeypatch.setattr(bench, "HashList", refuse)
        monkeypatch.setattr(bench, "MultiList", refuse)
        q = tmp_path / "q.txt"
        q.write_text("C 0 1\n")
        code, out, err = run_cli(capsys, "query", str(small_graph), str(q), "--structure", structure)
        assert (code, out) == (1, "")
        assert err == "configuration error: out of memory\n"

    def test_query_worker_memory_error_one_line_exit_1(self, tmp_path, capsys, monkeypatch,
                                                        small_graph):
        """A MemoryError in the thread that parses the query file reaches the caller:
        exit 1, one stderr line, and no thread outlives the call."""
        caller = threading.current_thread()
        ran_on = []

        def fails(text):
            ran_on.append(threading.current_thread())
            raise MemoryError

        monkeypatch.setattr(cli, "parse_query_file", fails)
        q = tmp_path / "q.txt"
        q.write_text("C 0 1\n")
        code, out, err = self.run_joined(capsys, "query", str(small_graph), str(q))
        assert len(ran_on) == 1 and ran_on[0] is not caller
        assert (code, out, err) == (1, "", "configuration error: out of memory\n")

    def test_edge_error_while_the_query_worker_parses(self, tmp_path, capsys, monkeypatch,
                                                       small_graph):
        """The edge parse raises on the calling thread while the worker still parses the
        query file: the edge file's error is reported, and the worker is joined first."""
        started, finished = threading.Event(), threading.Event()
        running_at_raise = []

        def slow_queries(text):
            started.set()
            finished.wait(0.2)  # nothing sets it: the worker is still busy when the edge parse raises
            finished.set()
            return parse_query_file(text)

        def bad_edges(text):
            assert started.wait(5)
            running_at_raise.append(not finished.is_set())
            raise ParseError(1, "bad graph")

        monkeypatch.setattr(cli, "parse_query_file", slow_queries)
        monkeypatch.setattr(cli, "parse_edge_list", bad_edges)
        q = tmp_path / "q.txt"
        q.write_text("C 0 1\n")
        result = self.run_joined(capsys, "query", str(small_graph), str(q))
        assert running_at_raise == [True] and finished.is_set()
        assert result == (2, "", "parse error: line 1: bad graph\n")

    def test_unknown_flag_exit_1(self, tmp_path, capsys, small_graph):
        code, _, _ = run_cli(capsys, "query", str(small_graph), str(small_graph), "--frobnicate")
        assert code == 1

    def test_bad_structure_exit_1(self, tmp_path, capsys, small_graph):
        code, _, _ = run_cli(
            capsys, "query", str(small_graph), str(small_graph), "--structure", "csr"
        )
        assert code == 1


# --- hostile files: generated graph and query files through the whole query command.
# Every integer token is at most 4,096 or above 2**32, so no header n makes a store
# allocate per-vertex arrays of more than 4,096 cells.

EXIT_PREFIXES = {1: ("usage error: ", "configuration error: "), 2: ("parse error: ", "i/o error: "),
                 3: ("error: ",)}
SWEEP_IDS = st.integers(0, 7).map(str)
ODD_TOKENS = ["4096", "007", "-1", "+2", "1.5", ".5", "1e3", "2E1", "9" * 20, "1" + "0" * 19,
              str(2**32 + 1), "C", "N", "X", "#"]
SWEEP_NOISE = ["# c\n", "\n", "\t", "\r", " ", ".", "e3", "-", "+", "C", "N", "X", "#", "9" * 20]


@st.composite
def hostile_file(draw, rows):
    """None (a missing path), an empty file, or the bytes of ``rows`` joined with drawn
    separators and line ends. Now and then one token is odd, one noise fragment goes in
    anywhere, or a byte that is not UTF-8 does."""
    form = draw(st.integers(0, 11))
    if form < 2:
        return (None, b"")[form]
    rows = draw(rows)
    if rows and draw(st.integers(0, 2)) == 0:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_TOKENS))
    sep, end = draw(st.sampled_from([" ", " ", "  ", "\t"])), draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = end.join(sep.join(row) for row in rows) + draw(st.sampled_from([end, ""]))
    if draw(st.integers(0, 2)) == 0:
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(SWEEP_NOISE)) + text[i:]
    data = text.encode()
    if draw(st.integers(0, 11)) == 0:
        i = draw(st.integers(0, len(data)))
        data = data[:i] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe9\x80"])) + data[i:]
    return data


EDGE_ROWS = st.lists(st.tuples(SWEEP_IDS, SWEEP_IDS, st.lists(st.sampled_from(["1", "0.5", "2.25"]), max_size=1))
                     .map(lambda r: [r[0], r[1], *r[2]]), max_size=6)
GRAPH_ROWS = st.builds(lambda n, m, rows: [[n, m], *rows],
                       st.sampled_from(["8", "8", "8", "1", "4096", "0", str(2**32 + 1), "9" * 20]),
                       st.sampled_from(["6", "6", "2", "1" + "0" * 19]), EDGE_ROWS)
QUERY_ROWS = st.lists(st.one_of(st.tuples(st.just("C"), SWEEP_IDS, SWEEP_IDS).map(list),
                                st.tuples(st.just("N"), SWEEP_IDS).map(list)), max_size=6)


@settings(max_examples=200, deadline=None)
@given(graph=hostile_file(GRAPH_ROWS), queries=hostile_file(QUERY_ROWS),
       structure=st.sampled_from(STRUCTURE_NAMES), hash_mode=st.sampled_from(HASH_MODES),
       undirected=st.booleans())
def test_hostile_files_exit_with_a_documented_code(graph, queries, structure, hash_mode, undirected):
    """Exit 0 with one result line per query, or a documented code with one stderr line
    under its prefix; no thread outlives the call."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, name) for name in ("g.txt", "q.txt")]
        for path, data in zip(paths, (graph, queries)):
            if data is not None:
                path.write_bytes(data)
        argv = ["query", *map(str, paths), "--structure", structure, "--hash-mode", hash_mode]
        before = threading.active_count()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--undirected"] * undirected)
        assert threading.active_count() == before
    out, err = out.getvalue(), err.getvalue()
    event(f"exit {code}")
    if code == 0:
        asked = [line for line in queries.decode().splitlines() if line.strip()[:1] not in ("", "#")]
        assert err == "" and out.count("\n") == len(asked)
    else:
        assert code in EXIT_PREFIXES and out == "", (code, err)
        assert err.endswith("\n") and err.count("\n") == 1 and err.startswith(EXIT_PREFIXES[code]), err


class TestQuerySizing:
    """The store is sized from the edge lines parsed; the header's m only bounds them."""

    HUGE_M = "3 1000000000000\n0 1\n1 2\n"

    @pytest.fixture
    def guarded(self, monkeypatch):
        """Refuse any store asked for more than 16 edges, before it allocates."""
        import graphstores.bench as bench  # where the CLI's stores are built

        def config(**kwargs):
            assert kwargs["expected_edges"] <= 16, kwargs
            return StoreConfig(**kwargs)

        def multilist(n, capacity):
            assert capacity <= 16, capacity
            return MultiList(n, capacity)

        monkeypatch.setattr(bench, "StoreConfig", config)
        monkeypatch.setattr(bench, "MultiList", multilist)

    @pytest.mark.parametrize("structure", ["hashlist", "edgehash", "multilist", "oracle"])
    @pytest.mark.parametrize("undirected", [False, True])
    def test_huge_header_m_builds_a_small_store(self, guarded, structure, undirected):
        graph = parse_edge_list(self.HUGE_M)
        store = _build_query_store(structure, graph, "mixer", undirected)
        _load_query_store(store, graph, undirected)
        if structure in ("hashlist", "edgehash"):
            assert store.capacity <= 16
            assert store.rebuilds == 0  # the load fits the store it was sized for, in one pass
        assert store.contains(0, 1) and store.contains(1, 0) == undirected

    def test_huge_header_m_through_the_cli(self, guarded, tmp_path, capsys):
        g, q = tmp_path / "g.txt", tmp_path / "q.txt"
        g.write_text(self.HUGE_M)
        q.write_text("C 0 1\nN 1\n")
        assert run_cli(capsys, "query", str(g), str(q)) == (0, "1\n2\n", "")


class TestQueryWeights:
    """Weight tokens are checked by the parser and then dropped: the CLI builds the plain
    store, and its result bytes are those of the same file without the weights."""

    @staticmethod
    def weighted_text(seed, kernel=True):
        """300 edge lines on 40 vertices, 70% with a weight. With ``kernel`` the weights
        are plain decimals the parse kernel takes; without it, signs, exponents and a
        comment send the file to the per-line parser."""
        import random

        rnd = random.Random(seed)
        tokens = ["0.5", "4.25", "7", "0.125"] + ([] if kernel else ["-2", "1e3", ".5", "-0.0"])
        lines = ["40 300"] + ([] if kernel else ["# a comment", ""])
        for _ in range(300):
            x, y = rnd.randrange(40), rnd.randrange(40)
            lines.append(f"{x} {y} {rnd.choice(tokens)}" if rnd.random() < 0.7 else f"{x} {y}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def strip_weights(text):
        return "".join(
            " ".join(line.split()[:2]) + "\n" if not line.startswith("#") else line + "\n"
            for line in text.splitlines()
        )

    def result_bytes(self, tmp_path, capsys, text, queries, *flags):
        g, q, out = tmp_path / "g.txt", tmp_path / "q.txt", tmp_path / "out.txt"
        g.write_text(text)
        q.write_text(queries)
        assert run_cli(capsys, "query", str(g), str(q), "--out", str(out), *flags) == (0, "", "")
        return out.read_bytes()

    @pytest.mark.parametrize("kernel", [True, False])
    @pytest.mark.parametrize("undirected", [False, True])
    @pytest.mark.parametrize("structure", ["hashlist", "multilist", "oracle"])
    def test_weights_do_not_change_the_result_bytes(self, tmp_path, capsys, structure, undirected,
                                                    kernel):
        text = self.weighted_text(11, kernel)
        plain = self.strip_weights(text)
        assert (formats._bulk_edge_list(text) is not None) == kernel
        assert parse_edge_list(text).has_weights and not parse_edge_list(plain).has_weights
        assert len(parse_edge_list(plain).edges) == 300
        queries = "".join([f"N {v}\n" for v in range(40)] + [f"C {v} {(v * 7) % 40}\n" for v in range(40)])
        flags = ["--structure", structure] + (["--undirected"] if undirected else [])
        weighted = self.result_bytes(tmp_path, capsys, text, queries, *flags)
        assert weighted == self.result_bytes(tmp_path, capsys, plain, queries, *flags)
        assert weighted.count(b"\n") == 80

    @pytest.mark.parametrize("undirected", [False, True])
    def test_hashlist_is_built_unweighted(self, undirected):
        graph = parse_edge_list(self.weighted_text(12))
        store = _build_query_store("hashlist", graph, "mixer", undirected)
        _load_query_store(store, graph, undirected)
        assert not store.config.weighted
        assert store.counters.add.ops == len(graph.edges) * (2 if undirected else 1)
        assert store.rebuilds == 0

    @pytest.mark.parametrize("bad, line", [("0 1 1.2.3", 4), ("0 1 abc", 3)])
    def test_malformed_weight_exit_2(self, tmp_path, capsys, bad, line):
        g, q = tmp_path / "g.txt", tmp_path / "q.txt"
        g.write_text("3 3\n1 2 0.5\n" + ("# comment\n" if line == 4 else "") + bad + "\n")
        q.write_text("C 0 1\n")
        code, out, err = run_cli(capsys, "query", str(g), str(q))
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: line {line}: ") and err.count("\n") == 1
        assert bad.split()[2] in err


class TestKernelColumns:
    """The parse kernel's uint64 id columns go to the stores as they are; the stores that
    keep ids as Python values hold and enumerate Python ints."""

    @pytest.mark.parametrize("undirected", [False, True])
    @pytest.mark.parametrize("structure", ["hashlist", "multilist", "oracle"])
    def test_neighbors_are_python_ints(self, structure, undirected):
        text = "6 7\n0 1\n0 2 1.5\n3 4\n4 0\n5 5\n0 1\n2 0\n"
        graph = parse_edge_list(text)
        assert formats._bulk_edge_list(text) is not None  # the kernel parses this file
        assert graph.xs.dtype == graph.ys.dtype == np.uint64
        store = _build_query_store(structure, graph, "mixer", undirected)
        _load_query_store(store, graph, undirected)
        nbrs = [store.neighbors(v) for v in range(6)]
        assert all(type(v) is int for vs in nbrs for v in vs)
        assert nbrs[0] == ([4, 2, 1] if undirected else [2, 1])
        queries = parse_query_file("C 0 1\nC 1 0\nN 0\n")
        want = ["1", "1" if undirected else "0", " ".join(map(str, nbrs[0]))]
        assert _answer_queries(store, queries) == want


class TestQueryAnswers:
    """The answer phase enumerates each distinct N vertex once and reuses its line."""

    @pytest.mark.parametrize("structure", ["hashlist", "multilist", "oracle"])
    def test_each_distinct_n_vertex_enumerated_once(self, structure):
        graph = parse_edge_list("6 5\n0 1\n0 2\n3 4\n4 0\n5 5\n")
        queries = parse_query_file("N 0\nC 0 1\nN 3\nN 0\nN 1\nC 4 0\nN 3\nN 0\n")
        store = _build_query_store(structure, graph, "mixer", False)
        _load_query_store(store, graph, False)
        lines = _answer_queries(store, queries)
        assert lines == ["2 1", "1", "4", "2 1", "", "1", "4", "2 1"]
        assert store.counters.enumerate.ops == len(set(queries.nvs)) == 3

    @pytest.mark.parametrize("structure", ["hashlist", "multilist", "oracle"])
    def test_n_lines_come_from_neighbor_runs(self, structure, monkeypatch):
        """Every structure that answers N queries hands ``join_runs`` the numpy pair of
        its ``_neighbor_runs``, in one call for the distinct N vertices."""
        graph = parse_edge_list("6 5\n0 1\n0 2\n3 4\n4 0\n5 5\n")
        queries = parse_query_file("N 0\nC 0 1\nN 3\nN 0\nN 1\n")
        store = _build_query_store(structure, graph, "mixer", False)
        _load_query_store(store, graph, False)
        joined, join = [], cli.join_runs

        def join_runs(values, ends):
            joined.append((values.dtype, ends.dtype, values.tolist(), ends.tolist()))
            return join(values, ends)

        monkeypatch.setattr(cli, "join_runs", join_runs)
        cls = type(store)
        with mock.patch.object(cls, "_neighbor_runs", autospec=True,
                               side_effect=cls._neighbor_runs) as runs:
            assert _answer_queries(store, queries) == ["2 1", "1", "4", "2 1", ""]
        runs.assert_called_once_with(store, [0, 3, 1])
        assert joined == [(np.uint64, np.intp, [2, 1, 4], [2, 3, 3])]


class TestQueryLoadView:
    """The answer phase's read paths rest on the load: it leaves a hash store's int64
    view of its slots current (see ``edgehash``), so the C queries take the numpy
    rounds and HashList's N answers read the view."""

    @pytest.mark.parametrize("hash_mode", HASH_MODES)
    @pytest.mark.parametrize("undirected", [False, True])
    @pytest.mark.parametrize("structure", ["hashlist", "edgehash"])
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 300),
           lines=st.lists(st.tuples(st.integers(0, 299), st.integers(0, 299)),
                          min_size=2, max_size=300))
    def test_load_leaves_a_current_view(self, structure, undirected, hash_mode, n, lines):
        """Every file of at least two edge lines."""
        text = f"{n} {len(lines)}\n" + "".join(f"{x % n} {y % n}\n" for x, y in lines)
        graph = parse_edge_list(text)
        store = _build_query_store(structure, graph, hash_mode, undirected)
        _load_query_store(store, graph, undirected)
        table = store._current_view()
        assert table is not None
        assert np.array_equal(table, np.fromiter(store._data, np.int64, store.capacity))

    @pytest.mark.parametrize("undirected", [False, True])
    @pytest.mark.parametrize("structure", ["hashlist", "edgehash"])
    def test_query_loads_in_numpy(self, tmp_path, capsys, structure, undirected):
        """``graphstores query`` sizes its store so that the whole load fits below the
        growth limit: ``add_edges`` takes it in numpy, one ``_book`` call and no scalar
        ``add_edge``, duplicate and reversed lines included. The answers are multilist's."""
        rng = np.random.default_rng(40)
        n = 50
        pairs = rng.integers(0, n, (400, 2)).tolist()
        pairs += pairs[:30] + [[y, x] for x, y in pairs[30:60]] + [[7, 7]]
        g, q = tmp_path / "g.txt", tmp_path / "q.txt"
        g.write_text(f"{n} {len(pairs)}\n" + "".join(f"{x} {y}\n" for x, y in pairs))
        q.write_text("".join(f"C {x} {y}\n" for x, y in rng.integers(0, n, (200, 2)).tolist()))
        flags = ["--undirected"] if undirected else []
        cls = HashList if structure == "hashlist" else EdgeHash
        with mock.patch.object(cls, "add_edge", side_effect=AssertionError("scalar add")), \
                mock.patch.object(cls, "_book", autospec=True, side_effect=cls._book) as book:
            got = run_cli(capsys, "query", str(g), str(q), "--structure", structure, *flags)
        assert book.call_count == 1
        assert got == run_cli(capsys, "query", str(g), str(q), "--structure", "multilist", *flags)
        assert got[0] == 0 and "1" in got[1].split()

    @pytest.mark.parametrize("hash_mode", HASH_MODES)
    @pytest.mark.parametrize("undirected", [False, True])
    def test_no_view_past_2_31_vertices(self, undirected, hash_mode):
        """A code may not fit int64 there, so the load starts none. Only edgehash: a
        hashlist would hold n heads here."""
        big = 1 << 31
        graph = parse_edge_list(f"{big + 1} 3\n0 1\n{big} 5\n7 {big}\n")
        store = _build_query_store("edgehash", graph, hash_mode, undirected)
        _load_query_store(store, graph, undirected)
        assert store.edge_count == (6 if undirected else 3)
        assert store._view is None


class TestBench:
    def test_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, _, _ = run_cli(
            capsys, "bench", "--n", "100", "--m", "2000",
            "--structures", "hashlist,multilist", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == (
            "structure,operation,count_ops,mean_counter,max_counter,wall_ns,slots_allocated"
        )
        assert len(lines) == 1 + 2 * 3

    def test_deterministic_counters(self, tmp_path, capsys):
        args = ["bench", "--n", "200", "--m", "5000", "--seed", "7",
                "--structures", "hashlist,multilist,edgehash,oracle"]
        csvs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run_cli(capsys, *args, "--out", str(out))[0] == 0
            csvs.append(out.read_text())

        def stable_columns(text):
            rows = [line.split(",") for line in text.strip().split("\n")[1:]]
            return [(r[0], r[1], r[2], r[3], r[4], r[6]) for r in rows]

        assert stable_columns(csvs[0]) == stable_columns(csvs[1])

    def test_sweep_single_header(self, tmp_path, capsys, monkeypatch):
        seen = []

        def recording_sweep(*args):
            seen.extend(scaling_sweep(*args))
            return seen

        monkeypatch.setattr(cli, "scaling_sweep", recording_sweep)
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(
            capsys, "bench", "--n", "100", "--m", "1000", "--sweep", "1,2",
            "--structures", "hashlist", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 3
        assert sum(1 for line in lines if line.startswith("structure,")) == 1
        # The bytes are the header once, then each factor's report rows in order.
        parts = [report.to_csv().splitlines() for _, report in seen]
        body = [line for part in parts for line in part[1:]]
        assert out.read_text() == "\n".join(parts[0][:1] + body) + "\n"

    def test_stdout_default(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--n", "50", "--m", "200",
                               "--structures", "hashlist")
        assert code == 0
        assert out.startswith("structure,operation,")

    def test_oracle_cap_refused(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--n", "5000", "--m", "10",
                               "--structures", "oracle")
        assert code == 1
        assert "4096" in err

    def test_bad_mix_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--n", "10", "--m", "10", "--mix", "1,2")
        assert code == 1
        code, _, err = run_cli(capsys, "bench", "--n", "10", "--m", "10", "--mix", "a,b,c,d")
        assert code == 1 and err.startswith("usage error: --mix must be comma-separated numbers")

    def test_bad_sweep_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--n", "10", "--m", "10", "--sweep", "1,x")
        assert (code, out) == (1, "")
        assert err.startswith("usage error: --sweep must be comma-separated integers")

    def test_differential_failure_exit_4(self, capsys, monkeypatch):
        def mismatch(*args):
            op = ("has", 0, 1)
            raise DifferentialMismatch([op], 0, op, [("hashlist", True), ("oracle", False)])

        monkeypatch.setattr(cli, "run_workload", mismatch)
        code, out, err = run_cli(capsys, "bench", "--n", "10", "--m", "10")
        assert (code, out) == (4, "")
        assert err.startswith("differential failure: structures disagree on ('has', 0, 1)")

    @pytest.mark.parametrize("mix", ["nan,0,0,1", "0.5,nan,0.5,0"])
    def test_nan_mix_one_line_exit_1(self, capsys, mix):
        code, out, err = run_cli(capsys, "bench", "--n", "10", "--m", "10", "--mix", mix)
        assert (code, out) == (1, "")
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unknown_structure_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--n", "10", "--m", "10",
                             "--structures", "skiplist")
        assert code == 1

    @pytest.mark.parametrize("flags", [[], ["--sweep", "1,2"]])
    @pytest.mark.parametrize("structures", [",", "", " , ,"])
    def test_empty_structure_selection_exit_1(self, capsys, structures, flags):
        """A selection that names no structure is refused, not answered with a
        header-only CSV."""
        code, out, err = run_cli(capsys, "bench", "--n", "10", "--m", "10",
                                 "--structures", structures, *flags)
        assert (code, out) == (1, "")
        assert err == "configuration error: no structure selected\n"


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "selftest: PASS" in out
        for name in ("hashlist", "multilist", "edgehash", "oracle"):
            assert name in out
        assert "add=" in out and "contains=" in out

    def test_corrupted_build_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(HashList, "contains", lambda self, x, y: False)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 4
        assert "selftest: FAIL" in out
        assert "minimized stream" in out


def console_script_target(name: str) -> str:
    """The ``module:function`` that ``[project.scripts]`` in pyproject.toml binds to ``name``.

    A line-based read rather than tomllib, which only exists from Python 3.11.
    """
    section = None
    for line in (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            key, _, value = line.partition("=")
            if key.strip().strip("\"'") == name:
                return value.strip().strip("\"'")
    raise AssertionError(f"no [project.scripts] entry named {name!r}")


class TestEntryPoint:
    def test_console_script(self):
        args = ["bench", "--n", "50", "--m", "300", "--structures", "hashlist"]
        exe = shutil.which("graphstores")
        if exe:
            command, env = [exe], None
        else:
            # Not installed: run the entry point as pip's generated wrapper does.
            module, _, func = console_script_target("graphstores").partition(":")
            wrapper = (f"import sys; from {module} import {func}; "
                       f"sys.argv[0] = 'graphstores'; sys.exit({func}())")
            command = [sys.executable, "-c", wrapper]
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
            )
        result = subprocess.run(command + args, capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("structure,operation,")

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "graphstores.cli", "bench", "--n", "50", "--m", "300",
             "--structures", "multilist"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
