"""tools/bench_record.py pairs perfbench detail files and summarises them by the claim rule."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


COUNTS = {"hashlist.add": [81920, 93411, 17], "hashlist.table": [13, 131072, 65536],
          "bench.rows": [[1, 2], [3, 4]]}


def write_detail(checkout: Path, workload: str, seed: int, query_s: float, mtime: int,
                 add_ops_s: float = 1e6, commit: str | None = None,
                 counts: dict | None = None, raw_query_s: float | None = None) -> None:
    out = checkout / ".bench_out"
    out.mkdir(parents=True, exist_ok=True)
    detail = {
        "provenance": {"git_commit": commit or checkout.name, "python": "3", "numpy": "2",
                       "cpu": "x", "nproc": 2, "workload": workload, "seed": seed},
        "repetitions": 5, "attempted": 10, "failed": 0, "counts": COUNTS if counts is None else counts,
        "metrics": {"query_s": {"value": query_s, "unit": "s"},
                    "hashlist.bytes_per_edge": {"value": 40.0, "unit": "B/edge"},
                    "hashlist.add_ops_s": {"value": add_ops_s, "unit": "ops/s"}},
    }
    if raw_query_s is not None:
        detail["raw_metrics"] = {"query_s": raw_query_s}
    path = out / f"{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps(detail))
    os.utime(path, (mtime, mtime))


@pytest.fixture
def sides(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i, seed in enumerate(range(1, 11)):  # change faster in 9 of 10 pairs
        first, second = (parent, change) if i % 2 == 0 else (change, parent)
        times = {parent: 1.00 + i / 100, change: 0.90 + i / 100 if seed != 4 else 1.5}
        write_detail(first, "w", seed, times[first], 1000 + 2 * i)
        write_detail(second, "w", seed, times[second], 1001 + 2 * i)
    for seed in (20, 21):
        write_detail(parent, "w", seed, 1.0, 2000)
        write_detail(change, "w", seed, 0.8, 2001)
    write_detail(parent, "other", 1, 1.0, 3000)  # no partner: not a pair
    return parent, change


def test_pairs_wins_and_claim(sides):
    record = bench_record.build(18, *sides, ("w", "query_s"), {20, 21})
    block = record["workloads"]["w"]
    assert list(record["workloads"]) == ["w"]
    assert [p["first"] for p in block["pairs"][:4]] == ["parent", "change", "parent", "change"]
    q = block["summary"]["query_s"]
    assert (q["wins"], q["pairs"], q["ties"]) == (9, 10, 0)
    assert q["parent_median"] == pytest.approx(1.045) and q["change_median"] == pytest.approx(0.955)
    assert block["summary"]["hashlist.bytes_per_edge"]["ties"] == 10
    assert block["held_out_summary"]["query_s"]["wins"] == 2
    assert record["claim"] == {"workload": "w", "metric": "query_s", "holds": True,
                               "held_out_wins": "2/2"}
    assert record["regressions"] == []
    assert record["provenance"] == {
        side: {"git_commit": side, "python": "3", "numpy": "2", "cpu": "x", "nproc": 2}
        for side in ("parent", "change")
    }


def test_claim_shows_raw_beside_calibrated(tmp_path):
    """Raw metrics ride along in each run; the claim reports the claimed metric's raw
    summary over the pairs it counts, which does not decide it: here raw wins 7/10."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i, seed in enumerate(range(1, 11)):
        write_detail(parent, "w", seed, 1.0 + i / 100, 1000 + 2 * i, raw_query_s=0.7 + i / 100)
        write_detail(change, "w", seed, 0.8 + i / 100, 1001 + 2 * i,
                     raw_query_s=0.6 + i / 100 if i < 7 else 0.9)
    for i, seed in enumerate((20, 21)):
        write_detail(parent, "w", seed, 1.0, 3000 + 2 * i, raw_query_s=0.1)
        write_detail(change, "w", seed, 0.8, 3001 + 2 * i, raw_query_s=0.9)
    parent_first = [0, 2, 4, 6, 8]
    for i in range(10):  # alternate the run order
        if i not in parent_first:
            os.utime(parent / ".bench_out" / f"w-seed{i + 1}-trace0.json", (1002 + 2 * i,) * 2)
    record = bench_record.build(30, parent, change, ("w", "query_s"), {20, 21})
    assert record["workloads"]["w"]["pairs"][0]["parent"]["raw_metrics"] == {"query_s": 0.7}
    assert record["claim"]["holds"] is True
    raw = record["claim"]["raw"]
    assert (raw["wins"], raw["pairs"]) == (7, 10)
    assert raw["parent_median"] == pytest.approx(0.745)
    assert raw["change_median"] == pytest.approx(0.645)


def test_claim_fails_on_eight_wins(sides):
    parent, change = sides
    write_detail(change, "w", 5, 2.0, 5000)
    record = bench_record.build(18, parent, change, ("w", "query_s"), {20, 21})
    assert record["workloads"]["w"]["summary"]["query_s"]["wins"] == 8
    assert record["claim"]["holds"] is False


def test_claim_needs_ten_pairs(tmp_path):
    """Five clear wins in five pairs are too few to hold; held-out pairs do not count."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(1, 6):
        write_detail(parent, "w", seed, 1.0 + seed / 100, 1000 + 2 * seed)
        write_detail(change, "w", seed, 0.5 + seed / 100, 1001 + 2 * seed)
    for seed in range(20, 25):
        write_detail(parent, "w", seed, 1.0, 2000)
        write_detail(change, "w", seed, 0.5, 2001)
    record = bench_record.build(20, parent, change, ("w", "query_s"), set(range(20, 25)))
    q = record["workloads"]["w"]["summary"]["query_s"]
    assert (q["wins"], q["pairs"]) == (5, 5) and q["gap_exceeds_iqr"]
    assert record["claim"]["holds"] is False
    assert record["claim"]["held_out_wins"] == "5/5"


def test_mixed_commits_are_flagged(sides):
    """A side whose detail files name two commits lists both; a side with one does not."""
    parent, change = sides
    write_detail(change, "w", 7, 0.96, 5000, commit="stale")
    record = bench_record.build(20, parent, change, None, set())
    assert record["provenance"]["change"]["mixed_commits"] == ["change", "stale"]
    assert "mixed_commits" not in record["provenance"]["parent"]


def test_bound_flags_and_regressions(tmp_path):
    """query_s has bound 0.25 in BENCHMARK.json. On tight runs 30% worse is flagged
    and 10% worse is not; runs whose parent IQR is wider than the bound are
    unresolved unless every change run beats every parent run. A throughput 30% lower
    is worse, as its ``better`` is "higher"."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    runs = {  # workload -> (parent query_s, change query_s) per seed
        "worse30": ([1.00, 1.01, 0.99, 1.02, 0.98], [1.30, 1.31, 1.29, 1.32, 1.28]),
        "worse10": ([1.00, 1.01, 0.99, 1.02, 0.98], [1.10, 1.11, 1.09, 1.12, 1.08]),
        "noisy": ([0.5, 1.5, 1.0, 0.6, 1.4], [1.4, 0.6, 1.0, 1.5, 0.5]),
        "noisy-but-clear": ([0.5, 1.5, 1.0, 0.6, 1.4], [0.40, 0.30, 0.35, 0.45, 0.25]),
    }
    for workload, (before, after) in runs.items():
        for seed, (b, a) in enumerate(zip(before, after)):
            write_detail(parent, workload, seed, b, 1000 + 2 * seed)
            write_detail(change, workload, seed, a, 1001 + 2 * seed,
                         add_ops_s=7e5 if workload == "worse30" else 1.1e6)
    record = bench_record.build(19, parent, change, None, set())
    flags = {w: {k: record["workloads"][w]["summary"]["query_s"][k]
                 for k in ("bound", "worse_beyond_bound", "unresolved")} for w in runs}
    assert flags == {
        "worse30": {"bound": 0.25, "worse_beyond_bound": True, "unresolved": False},
        "worse10": {"bound": 0.25, "worse_beyond_bound": False, "unresolved": False},
        "noisy": {"bound": 0.25, "worse_beyond_bound": False, "unresolved": True},
        "noisy-but-clear": {"bound": 0.25, "worse_beyond_bound": False, "unresolved": False},
    }
    assert record["claim"] is None
    assert record["regressions"] == [
        {"workload": "noisy", "metric": "query_s", "held_out": False, "flags": ["unresolved"]},
        {"workload": "worse30", "metric": "hashlist.add_ops_s", "held_out": False,
         "flags": ["worse_beyond_bound"]},
        {"workload": "worse30", "metric": "query_s", "held_out": False,
         "flags": ["worse_beyond_bound"]},
    ]


def test_src_lines_and_delta(sides):
    """Each side records the lines of its src/**/*.py; the delta is change minus parent.
    Files outside src, or not Python, do not count, and a side without src records none."""
    parent, change = sides
    for checkout, bodies in ((parent, ["a\nb\nc\n", "d\n"]), (change, ["a\nb\n"])):
        (checkout / "src" / "pkg").mkdir(parents=True)
        for i, body in enumerate(bodies):
            (checkout / "src" / "pkg" / f"m{i}.py").write_text(body)
        (checkout / "src" / "notes.txt").write_text("x\n" * 50)
        (checkout / "setup.py").write_text("x\n" * 50)
    record = bench_record.build(23, parent, change, None, set())
    assert record["provenance"]["parent"]["src_lines"] == 4
    assert record["provenance"]["change"]["src_lines"] == 2
    assert record["src_line_delta"] == -2
    shutil.rmtree(change / "src")
    record = bench_record.build(23, parent, change, None, set())
    assert "src_lines" not in record["provenance"]["change"]
    assert record["src_line_delta"] is None


def test_count_changes(sides):
    """Equal counts on both sides record nothing. A changed value, a key on one side
    only, and a pair with no partner are told apart: only pairs are compared."""
    parent, change = sides
    assert bench_record.build(24, parent, change, None, set())["count_changes"] == []
    moved = {**COUNTS, "hashlist.add": [81920, 93412, 17], "edgehash.table": [13, 131072, 65536]}
    write_detail(change, "w", 3, 0.93, 5000, counts=moved)
    write_detail(change, "other", 2, 1.0, 5000, counts={})  # no parent run: not a pair
    record = bench_record.build(24, parent, change, None, set())
    assert record["count_changes"] == [
        {"workload": "w", "seed": 3, "key": "edgehash.table", "parent": None,
         "change": [13, 131072, 65536]},
        {"workload": "w", "seed": 3, "key": "hashlist.add", "parent": [81920, 93411, 17],
         "change": [81920, 93412, 17]},
    ]


def test_medians_by_order(sides):
    """Every metric splits its pairs by the side that ran first; held-out pairs are
    split apart, in their own summary."""
    record = bench_record.build(26, *sides, None, {20, 21})
    block = record["workloads"]["w"]
    assert block["summary"]["query_s"]["by_order"] == {
        "parent_first": {"pairs": 5, "parent_median": pytest.approx(1.04),
                         "change_median": pytest.approx(0.94)},
        "change_first": {"pairs": 5, "parent_median": pytest.approx(1.05),
                         "change_median": pytest.approx(0.97)},
    }
    assert block["summary"]["hashlist.bytes_per_edge"]["by_order"]["change_first"] == {
        "pairs": 5, "parent_median": 40.0, "change_median": 40.0}
    assert block["held_out_summary"]["query_s"]["by_order"] == {
        "parent_first": {"pairs": 2, "parent_median": 1.0, "change_median": 0.8}}
    assert record["one_order"] == []


def test_one_order_is_flagged_and_holds_no_claim(sides):
    """A workload whose pairs all ran parent first is listed in ``one_order``, and ten
    clear wins there hold no claim. Once one pair runs the change first the workload
    has both orders, but a 9+1 split still holds none; a 6+4 split does."""
    parent, change = sides
    for seed in range(1, 11):
        write_detail(parent, "solo", seed, 1.0 + seed / 100, 1000 + 2 * seed)
        write_detail(change, "solo", seed, 0.8 + seed / 100, 1001 + 2 * seed)
    record = bench_record.build(26, parent, change, ("solo", "query_s"), set())
    summary = record["workloads"]["solo"]["summary"]["query_s"]
    assert (summary["wins"], summary["pairs"]) == (10, 10)
    assert list(summary["by_order"]) == ["parent_first"]
    assert record["one_order"] == ["solo"]
    assert record["claim"]["holds"] is False
    write_detail(parent, "solo", 5, 1.05, 3001)  # now after the change's run of seed 5
    record = bench_record.build(26, parent, change, ("solo", "query_s"), set())
    assert record["one_order"] == []
    assert record["workloads"]["solo"]["summary"]["query_s"]["by_order"]["change_first"]["pairs"] == 1
    assert record["claim"]["holds"] is False
    for seed in (6, 7, 8):
        write_detail(parent, "solo", seed, 1.0 + seed / 100, 3000 + seed)
    record = bench_record.build(26, parent, change, ("solo", "query_s"), set())
    by_order = record["workloads"]["solo"]["summary"]["query_s"]["by_order"]
    assert (by_order["parent_first"]["pairs"], by_order["change_first"]["pairs"]) == (6, 4)
    assert record["claim"]["holds"] is True
