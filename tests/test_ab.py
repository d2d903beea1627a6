"""tools/ab.py loads two source trees side by side and alternates run_workload, or
``graphstores query`` on one perfbench workload's files, between them."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# A tiny graphstores: run_workload reports one row per structure, with a mean
# counter that comes from a submodule and a wall time that differs per tree;
# cli.main writes the query file's line count and TOTAL, and exits CODE.
TREE = {
    "__init__.py": "from .bench import WorkloadSpec, run_workload\n",
    "counts.py": "TOTAL = {total}\nWALL = {wall}\nCODE = {code}\n",
    "cli.py": """\
from pathlib import Path

from .counts import CODE, TOTAL


def main(argv):
    _, graph, queries, _, out = argv
    Path(out).write_text(f"{len(Path(queries).read_text().splitlines())} {TOTAL}\\n")
    return CODE
""",
    "bench.py": """\
from dataclasses import dataclass, field

from .counts import TOTAL, WALL


@dataclass(frozen=True)
class WorkloadSpec:
    generator: str
    n: int
    m: int
    seed: int = 1


@dataclass(frozen=True)
class BenchRow:
    structure: str
    operation: str
    count_ops: int
    mean_counter: float
    max_counter: int
    wall_ns: int
    slots_allocated: int


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)


def run_workload(spec, structures):
    return BenchReport([BenchRow(s, "add", spec.m, TOTAL / spec.m, spec.n, WALL, spec.n + 1)
                        for s in structures])
""",
}


def make_tree(root: Path, total: int, wall: int, code: int = 0) -> Path:
    pkg = root / "src" / "graphstores"
    pkg.mkdir(parents=True)
    for name, body in TREE.items():
        for key, value in (("total", total), ("wall", wall), ("code", code)):
            body = body.replace("{" + key + "}", str(value))
        (pkg / name).write_text(body)
    return root / "src"


def test_trees_load_side_by_side(tmp_path):
    """Each tree is its own package, its relative imports resolve in its own files,
    and loading a name again replaces every module of the earlier load."""
    before = sys.modules.get("graphstores")
    one = ab.load_tree(make_tree(tmp_path / "one", 10, 1), "ab_test_one")
    two = ab.load_tree(make_tree(tmp_path / "two", 20, 2), "ab_test_two")
    assert one.WorkloadSpec is not two.WorkloadSpec
    assert sys.modules["ab_test_one.counts"].TOTAL == 10
    assert sys.modules["ab_test_two.counts"].TOTAL == 20
    again = ab.load_tree(make_tree(tmp_path / "three", 30, 3), "ab_test_one")
    assert again is not one and sys.modules["ab_test_one.counts"].TOTAL == 30
    assert sys.modules.get("graphstores") is before


def test_rounds_alternate_and_count_wins(tmp_path, monkeypatch):
    """After a warm-up round the first side alternates, parent first in round 1. With a
    clock that makes every run slower than the one before, the change wins exactly
    the rounds it ran first in."""
    packages = {"parent": ab.load_tree(make_tree(tmp_path / "p", 10, 1), "ab_test_p"),
                "change": ab.load_tree(make_tree(tmp_path / "c", 10, 2), "ab_test_c")}
    calls = [0]

    def clock() -> int:  # run i (warm-up runs are 0 and 1) takes 4i + 3 ns
        calls[0] += 1
        return calls[0] ** 2

    monkeypatch.setattr(ab, "perf_counter_ns", clock)
    spec = {"generator": "star", "n": 8, "m": 100}
    out = ab.alternate(ab.workload_runner(packages, spec), 4)
    assert out == {"times": {"parent": [11, 23, 27, 39], "change": [15, 19, 31, 35]},
                   "wins": 2, "mismatch": None}


def test_equal_counts_report_medians(tmp_path, capsys):
    """Trees whose reports differ only in wall_ns agree; the script prints both
    medians, the ratio and the wins."""
    parent = make_tree(tmp_path / "p", 10, 1)
    change = make_tree(tmp_path / "c", 10, 2)
    code = ab.main([str(parent), str(change), "--gen", "star", "--n", "8", "--m", "100",
                    "--runs", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "3 rounds" in out and "parent median" in out and "change median" in out
    assert "change/parent" in out and "/3" in out
    assert "counter columns equal in every round" in out


def test_differing_counts_exit_1(tmp_path, capsys):
    parent = make_tree(tmp_path / "p", 10, 1)
    change = make_tree(tmp_path / "c", 11, 1)
    code = ab.main([str(parent), str(change), "--gen", "star", "--n", "8", "--m", "100",
                    "--runs", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "counter columns differ in round 0" in captured.err
    assert captured.out == ""


def test_real_tree_against_itself(capsys):
    """The repository's own src, loaded twice, runs a tiny spec with equal counters."""
    src = str(ROOT / "src")
    code = ab.main([src, src, "--gen", "star", "--n", "16", "--m", "200", "--runs", "1"])
    assert code == 0
    assert "counter columns equal in every round" in capsys.readouterr().out


def test_query_equal_results_report_medians(tmp_path, capsys):
    """Query mode writes the selftest workload's files once and runs each tree's
    cli.main on them; equal result files give the medians and the wins."""
    parent = make_tree(tmp_path / "p", 10, 1)
    change = make_tree(tmp_path / "c", 10, 2)
    code = ab.main([str(parent), str(change), "query", "--workload", "selftest", "--runs", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "graphstores query, selftest seed=1" in out and "3 rounds" in out
    assert "parent median" in out and "change median" in out and "/3" in out
    assert "result files equal in every round" in out


def test_query_differing_results_exit_1(tmp_path, capsys):
    parent = make_tree(tmp_path / "p", 10, 1)
    change = make_tree(tmp_path / "c", 11, 1)
    code = ab.main([str(parent), str(change), "query", "--workload", "selftest", "--runs", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "result files differ in round 0" in captured.err
    assert captured.out == ""


def test_query_failing_side_exits_1(tmp_path):
    parent = make_tree(tmp_path / "p", 10, 1)
    change = make_tree(tmp_path / "c", 10, 1, code=2)
    with pytest.raises(SystemExit, match="exited 2 on the change side"):
        ab.main([str(parent), str(change), "query", "--workload", "selftest", "--runs", "1"])


@pytest.mark.parametrize("args,message", [
    (["query"], "query needs --workload"),
    (["query", "--workload", "nope"], "unknown workload 'nope'"),
    (["--gen", "star"], "workload needs --n, --m"),
])
def test_missing_or_unknown_options_are_usage_errors(tmp_path, args, message, capsys):
    tree = make_tree(tmp_path / "t", 10, 1)
    with pytest.raises(SystemExit) as exc:
        ab.main([str(tree), str(tree)] + args)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_real_tree_query_against_itself(capsys):
    """The repository's own src, loaded twice, answers the selftest workload's files alike."""
    src = str(ROOT / "src")
    code = ab.main([src, src, "query", "--workload", "selftest", "--runs", "1"])
    assert code == 0
    assert "result files equal in every round" in capsys.readouterr().out
