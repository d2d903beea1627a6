from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from graphstores import HashList, MultiList, StoreConfig, cli, parse_edge_list, scaling_sweep
from graphstores.cli import _answer_queries, _build_query_store, _load_query_store, main
from graphstores.formats import parse_query_file

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
                             [("hashlist", 1), ("edgehash", 1), ("multilist", 1), ("oracle", 3)])
    def test_huge_header_n_one_line_error(self, tmp_path, capsys, structure, exit_code):
        g, q = tmp_path / "g.txt", tmp_path / "q.txt"
        g.write_text("1000000000000 1\n0 1\n")
        q.write_text("C 0 1\n")
        code, out, err = run_cli(capsys, "query", str(g), str(q), "--structure", structure)
        assert (code, out) == (exit_code, "")
        assert err.count("\n") == 1 and "Traceback" not in err

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

    def test_unknown_flag_exit_1(self, tmp_path, capsys, small_graph):
        code, _, _ = run_cli(capsys, "query", str(small_graph), str(small_graph), "--frobnicate")
        assert code == 1

    def test_bad_structure_exit_1(self, tmp_path, capsys, small_graph):
        code, _, _ = run_cli(
            capsys, "query", str(small_graph), str(small_graph), "--structure", "csr"
        )
        assert code == 1


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
        assert store.contains(0, 1) and store.contains(1, 0) == undirected

    def test_huge_header_m_through_the_cli(self, guarded, tmp_path, capsys):
        g, q = tmp_path / "g.txt", tmp_path / "q.txt"
        g.write_text(self.HUGE_M)
        q.write_text("C 0 1\nN 1\n")
        assert run_cli(capsys, "query", str(g), str(q)) == (0, "1\n2\n", "")


class TestQueryLoad:
    """The CLI's bulk load against add_edge + set_weight, line by line."""

    TEXT = "\n".join(
        ["6 40", "0 1 0.5", "0 1", "1 2 2.0", "# comment", "0 1 0.75", "0 1", "2 2 3",
         "3 4", "4 3 1.5", "3 4 -2", "3 4", "5 0 1e3", "0 5", "1 2", "2 1 4.25", ""]
    )

    @staticmethod
    def reference(graph, undirected):
        store = HashList(StoreConfig(vertex_count=graph.n, expected_edges=1, weighted=True))
        for x, y, w in graph.edges:
            for a, b in ((x, y), (y, x)) if undirected else ((x, y),):
                store.add_edge(a, b)
                if w is not None:
                    store.set_weight(a, b, w)
        return store

    @pytest.mark.parametrize("undirected", [False, True])
    def test_weights_match_line_by_line(self, undirected):
        graph = parse_edge_list(self.TEXT)
        store = _build_query_store("hashlist", graph, "mixer", undirected)
        assert store.config.weighted
        _load_query_store(store, graph, undirected)
        ref = self.reference(graph, undirected)
        pairs = [(x, y) for x in range(graph.n) for y in range(graph.n)]
        assert [store.get_weight(x, y) for x, y in pairs] == [ref.get_weight(x, y) for x, y in pairs]
        assert store.get_weight(0, 1) == 0.75  # the last weighted line wins
        assert store.get_weight(3, 4) == -2.0  # a line without a weight keeps it
        assert store.get_weight(0, 5) == (1e3 if undirected else None)
        assert store.counters.add.ops == len(graph.edges) * (2 if undirected else 1)

    def test_random_file_matches_line_by_line(self):
        import random

        rnd = random.Random(7)
        lines = ["50 600"]
        for _ in range(600):
            x, y = rnd.randrange(50), rnd.randrange(50)
            lines.append(f"{x} {y} {rnd.randrange(1000) / 8}" if rnd.random() < 0.7 else f"{x} {y}")
        graph = parse_edge_list("\n".join(lines) + "\n")
        for undirected in (False, True):
            store = _build_query_store("hashlist", graph, "paper_compat", undirected)
            _load_query_store(store, graph, undirected)
            ref = self.reference(graph, undirected)
            pairs = [(x, y) for x in range(50) for y in range(50)]
            assert [store.get_weight(x, y) for x, y in pairs] == [ref.get_weight(x, y) for x, y in pairs]
            assert [store.neighbors(v) for v in range(50)] == [ref.neighbors(v) for v in range(50)]


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
