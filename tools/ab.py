"""Alternate ``run_workload`` between two source trees in one process.

Run from the repository root, with two ``src`` directories, the parent
commit's and the change's::

    python3 tools/ab.py ../parent/src src --gen star --n 1024 --m 8192 --seed 97 --runs 21

Each tree's ``graphstores`` package is imported under a name of its own
(``ab_parent`` and ``ab_change``), so the two sides are distinct classes
and functions side by side. After one untimed warm-up run of each side,
the two sides take turns, each run of one ``WorkloadSpec`` over all four
structures (``STRUCTURES``) with a ``gc.collect()`` before it; the side
that goes first alternates from one round to the next. Every round checks
that the two reports' counter columns (every column but ``wall_ns``) are
equal. The script prints both medians of the wall time, the change's
median over the parent's, the parent's interquartile range and the number
of rounds the change ran faster in; it exits 1 if the counters ever differ.

It backs perfbench's pair rule and never replaces it. The two sides share
one process: one allocator, whose free lists and arenas each side's runs
leave to the other, and caches that both sides keep warm. A fresh process,
as perfbench starts for each run, pays neither. What a shared process shows
well is a small difference between sides on the same inputs under the same
machine state; a gain it finds is claimed only from perfbench's pairs.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter_ns
from types import ModuleType

SIDES = ("parent", "change")
STRUCTURES = ("hashlist", "multilist", "edgehash", "oracle")


def load_tree(src: Path, name: str) -> ModuleType:
    """Import ``src/graphstores`` as the package ``name``; a second tree loads beside it.

    Modules left under ``name`` by an earlier load are dropped first, so the
    package's relative imports resolve in ``src`` alone.
    """
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    pkg = Path(src) / "graphstores"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # the package's relative imports resolve through it
    spec.loader.exec_module(module)
    return module


def counter_columns(report) -> list[tuple]:
    """The report's rows without ``wall_ns``: what depends only on the program and the spec."""
    return [(r.structure, r.operation, r.count_ops, r.mean_counter, r.max_counter,
             r.slots_allocated) for r in report.rows]


def alternate(packages: dict[str, ModuleType], spec_args: dict, runs: int) -> dict:
    """Time ``runs`` rounds of ``run_workload`` on each side, alternating which goes first.

    Returns each side's wall times in ns, the rounds the change was faster in,
    and the first round (0 is the warm-up) whose counter columns differ, or None.
    """
    times: dict[str, list[int]] = {side: [] for side in SIDES}
    mismatch = None
    for round_no in range(runs + 1):
        order = SIDES if round_no % 2 else SIDES[::-1]
        columns = {}
        for side in order:
            pkg = packages[side]
            spec = pkg.WorkloadSpec(**spec_args)
            gc.collect()
            t0 = perf_counter_ns()
            report = pkg.run_workload(spec, STRUCTURES)
            elapsed = perf_counter_ns() - t0
            columns[side] = counter_columns(report)
            if round_no:
                times[side].append(elapsed)
        if mismatch is None and columns["parent"] != columns["change"]:
            mismatch = round_no
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    return {"times": times, "wins": wins, "mismatch": mismatch}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the parent commit")
    parser.add_argument("change_src", type=Path, help="src directory of the change")
    parser.add_argument("--gen", required=True, help="workload generator: uniform, star or grid")
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=21, help="timed rounds per side")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    packages = {side: load_tree(src, f"ab_{side}")
                for side, src in zip(SIDES, (args.parent_src, args.change_src))}
    spec_args = {"generator": args.gen, "n": args.n, "m": args.m, "seed": args.seed}
    out = alternate(packages, spec_args, args.runs)
    if out["mismatch"] is not None:
        print(f"ab: counter columns differ in round {out['mismatch']}", file=sys.stderr)
        return 1
    parent, change = (median(out["times"][side]) / 1e6 for side in SIDES)
    before = out["times"]["parent"]
    q1, _, q3 = quantiles(before, n=4) if len(before) > 1 else (before[0],) * 3
    print(f"run_workload {args.gen} n={args.n} m={args.m} seed={args.seed}, "
          f"{','.join(STRUCTURES)}, {args.runs} rounds")
    print(f"parent median {parent:.2f} ms (IQR {(q3 - q1) / 1e6:.2f} ms)")
    print(f"change median {change:.2f} ms")
    print(f"change/parent {change / parent:.3f}; change faster in {out['wins']}/{args.runs}")
    print("counter columns equal in every round")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
