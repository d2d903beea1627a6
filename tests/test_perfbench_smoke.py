"""Smoke test of the benchmark harness under ``perfbench/`` against the package.

Each workload, shrunk to 1/64 of its sizes, runs one untraced repetition,
one traced repetition and the memory build, as ``perfbench/run.py`` does.
Every answer the harness checks must be right. So a change to the package
that breaks a name or an option the harness uses fails here, not only in a
benchmark run.
"""

from __future__ import annotations

import importlib
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SHRINK = 64


def shrunk(w):
    """``w`` at 1/SHRINK of its sizes: n at least 16, the differential spec capped at
    n = 256 and m = 512, and the memory build on the workload itself."""
    gen, dn, dm = w.diff
    return replace(
        w, n=max(16, w.n // SHRINK), edges=w.edges // SHRINK, hubs=w.hubs // SHRINK,
        hits=w.hits // SHRINK, misses=w.misses // SHRINK,
        random_neighbors=w.random_neighbors // SHRINK,
        diff=(gen, min(dn, 256), min(dm, 512)), memory_scale=1,
    )


@pytest.mark.parametrize("workload", ["uniform-presized", "skewed-growing", "cli-query", "selftest"])
def test_workload_runs_clean(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench_inputs = importlib.import_module("bench_inputs")
    bench_phases = importlib.import_module("bench_phases")
    bench_trace = importlib.import_module("bench_trace")
    w = shrunk(bench_inputs.WORKLOADS[workload])
    files = {k: tmp_path / f"{k}.txt" for k in ("graph", "queries", "out")}
    tally = bench_phases.Tally()

    bench_phases.untraced_rep(w, 7, files, tally, bench_phases.Calibration())
    bench_trace.traced_rep(w, 7, files, tally, bench_trace.Tracer())
    memory = bench_phases.bytes_per_edge(w, 7)

    assert tally.attempted > 0
    assert (tally.failed, tally.errors) == (0, [])
    assert set(memory) == set(bench_phases.STORES)
    assert all(b > 0 for b in memory.values())
