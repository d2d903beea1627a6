"""tools/bench_record.py pairs perfbench detail files and summarises them by the claim rule."""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def write_detail(checkout: Path, workload: str, seed: int, query_s: float, mtime: int) -> None:
    out = checkout / ".bench_out"
    out.mkdir(parents=True, exist_ok=True)
    detail = {
        "provenance": {"git_commit": checkout.name, "python": "3", "numpy": "2", "cpu": "x",
                       "nproc": 2, "workload": workload, "seed": seed},
        "repetitions": 5, "attempted": 10, "failed": 0,
        "metrics": {"query_s": {"value": query_s, "unit": "s"},
                    "hashlist.bytes_per_edge": {"value": 40.0, "unit": "B/edge"}},
    }
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
    assert record["provenance"] == {
        side: {"git_commit": side, "python": "3", "numpy": "2", "cpu": "x", "nproc": 2}
        for side in ("parent", "change")
    }


def test_claim_fails_on_eight_wins(sides):
    parent, change = sides
    write_detail(change, "w", 5, 2.0, 5000)
    record = bench_record.build(18, parent, change, ("w", "query_s"), {20, 21})
    assert record["workloads"]["w"]["summary"]["query_s"]["wins"] == 8
    assert record["claim"]["holds"] is False
