"""Smoke test: every demo runs to completion against the source tree."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    done = run_demo(path)
    assert done.returncode == 0, done.stderr
    if path.name == "01_store_tour.py":
        checks = [line for line in done.stdout.splitlines() if "runs == [neighbors(v)" in line]
        assert len(checks) == 1 and checks[0].endswith("True"), done.stdout
    if path.name == "03_growth_and_memory.py":
        checks = [line for line in done.stdout.splitlines() if line.startswith("memory check:")]
        assert len(checks) == 1 and checks[0].endswith("True"), done.stdout
