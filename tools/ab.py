"""Alternate one timed call between two source trees in one process.

Run from the repository root, with two ``src`` directories, the parent
commit's and the change's::

    python3 tools/ab.py ../parent/src src --gen star --n 1024 --m 8192 --seed 97 --runs 21
    python3 tools/ab.py ../parent/src src --gen uniform --n 1000 --m 100000 \
        --structures hashlist,multilist,edgehash
    python3 tools/ab.py ../parent/src src query --workload cli-query --seed 5 --runs 21
    python3 tools/ab.py ../parent/src src query --workload cli-query --structure multilist

Each tree's ``graphstores`` package is imported under a name of its own
(``ab_parent`` and ``ab_change``), so the two sides are distinct classes
and functions side by side. After one untimed warm-up run of each side,
the two sides take turns, with a ``gc.collect()`` before each run; the
side that goes first alternates from one round to the next. The script
prints both medians of the wall time, the change's median over the
parent's, the parent's interquartile range and the number of rounds the
change ran faster in. It exits 1 if the two sides ever disagree.

Two calls can be timed:

- ``workload`` (the default): ``run_workload`` of one ``WorkloadSpec``
  (``--gen --n --m --seed``) over ``--structures``, a comma-separated
  list of distinct names (blanks around them are dropped) that defaults
  to all four structures (``STRUCTURES``).
  Every round checks that the two reports' counter columns (every column
  but ``wall_ns``) are equal.
- ``query``: ``cli.main(["query", ...])`` on one perfbench workload's
  files (``--workload --seed``), with ``--structure`` hashlist (the
  default, which perfbench's ``query_s`` times), multilist or oracle
  (which refuses more than 4096 vertices, so only the selftest workload).
  ``perfbench/bench_inputs.make_inputs`` writes the files once, and every
  round checks that both sides exit 0 and write the same result bytes.

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
import importlib
import importlib.util
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter_ns
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
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


def load_bench_inputs(src: Path) -> ModuleType:
    """``perfbench/bench_inputs.py`` as a module. It imports ``graphstores``, which comes
    from ``src`` only when no other copy is importable."""
    sys.path.append(str(src))
    try:
        spec = importlib.util.spec_from_file_location(
            "ab_bench_inputs", ROOT / "perfbench" / "bench_inputs.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up there
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(src))
    return module


def counter_columns(report) -> list[tuple]:
    """The report's rows without ``wall_ns``: what depends only on the program and the spec."""
    return [(r.structure, r.operation, r.count_ops, r.mean_counter, r.max_counter,
             r.slots_allocated) for r in report.rows]


def workload_runner(packages: dict[str, ModuleType], spec_args: dict,
                    structures: tuple[str, ...] = STRUCTURES):
    """``run(side)`` -> (ns, counter columns) of one ``run_workload`` over ``structures``
    on that side."""
    def run(side: str):
        pkg = packages[side]
        spec = pkg.WorkloadSpec(**spec_args)
        t0 = perf_counter_ns()
        report = pkg.run_workload(spec, structures)
        return perf_counter_ns() - t0, counter_columns(report)
    return run


def query_runner(packages: dict[str, ModuleType], graph: Path, queries: Path, out_dir: Path,
                 structure: str):
    """``run(side)`` -> (ns, result bytes) of one ``graphstores query --structure structure``
    on that side; a run that exits with a code other than 0 ends the script with exit code 1."""
    mains = {side: importlib.import_module(f"{pkg.__name__}.cli").main
             for side, pkg in packages.items()}

    def run(side: str):
        out = out_dir / f"{side}.out"
        out.unlink(missing_ok=True)
        argv = ["query", str(graph), str(queries), "--structure", structure, "--out", str(out)]
        t0 = perf_counter_ns()
        code = mains[side](argv)
        elapsed = perf_counter_ns() - t0
        if code != 0:
            raise SystemExit(f"ab: graphstores query exited {code} on the {side} side")
        return elapsed, out.read_bytes()
    return run


def alternate(run, runs: int) -> dict:
    """Time ``runs`` rounds of ``run(side)`` on each side, alternating which goes first.

    ``run(side)`` returns its ns and what it observed. Returns each side's
    wall times in ns, the rounds the change was faster in, and the first
    round (0 is the warm-up) whose two observations differ, or None.
    """
    times: dict[str, list[int]] = {side: [] for side in SIDES}
    mismatch = None
    for round_no in range(runs + 1):
        order = SIDES if round_no % 2 else SIDES[::-1]
        seen = {}
        for side in order:
            gc.collect()
            elapsed, seen[side] = run(side)
            if round_no:
                times[side].append(elapsed)
        if mismatch is None and seen["parent"] != seen["change"]:
            mismatch = round_no
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    return {"times": times, "wins": wins, "mismatch": mismatch}


def print_times(out: dict, title: str, runs: int) -> None:
    parent, change = (median(out["times"][side]) / 1e6 for side in SIDES)
    before = out["times"]["parent"]
    q1, _, q3 = quantiles(before, n=4) if len(before) > 1 else (before[0],) * 3
    print(f"{title}, {runs} rounds")
    print(f"parent median {parent:.2f} ms (IQR {(q3 - q1) / 1e6:.2f} ms)")
    print(f"change median {change:.2f} ms")
    print(f"change/parent {change / parent:.3f}; change faster in {out['wins']}/{runs}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the parent commit")
    parser.add_argument("change_src", type=Path, help="src directory of the change")
    parser.add_argument("call", nargs="?", choices=("workload", "query"), default="workload",
                        help="the call to time (default: workload)")
    parser.add_argument("--gen", help="workload: generator, uniform, star or grid")
    parser.add_argument("--n", type=int, help="workload: vertex count")
    parser.add_argument("--m", type=int, help="workload: operation count")
    parser.add_argument("--structures", default=",".join(STRUCTURES),
                        help="workload: comma-separated structures (default: all four)")
    parser.add_argument("--workload", help="query: a perfbench workload, such as cli-query")
    parser.add_argument("--structure", choices=("hashlist", "multilist", "oracle"),
                        default="hashlist", help="query: the store to build (default: hashlist)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=21, help="timed rounds per side")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    needed = ("gen", "n", "m") if args.call == "workload" else ("workload",)
    missing = [f"--{name}" for name in needed if getattr(args, name) is None]
    if missing:
        parser.error(f"{args.call} needs {', '.join(missing)}")
    structures = tuple(s.strip() for s in args.structures.split(",") if s.strip())
    if not structures or len(set(structures)) < len(structures) or set(structures) - set(STRUCTURES):
        parser.error(f"--structures must name distinct structures from {', '.join(STRUCTURES)}; "
                     f"got {args.structures!r}")
    packages = {side: load_tree(src, f"ab_{side}")
                for side, src in zip(SIDES, (args.parent_src, args.change_src))}

    if args.call == "workload":
        spec_args = {"generator": args.gen, "n": args.n, "m": args.m, "seed": args.seed}
        out = alternate(workload_runner(packages, spec_args, structures), args.runs)
        if out["mismatch"] is not None:
            print(f"ab: counter columns differ in round {out['mismatch']}", file=sys.stderr)
            return 1
        print_times(out, f"run_workload {args.gen} n={args.n} m={args.m} seed={args.seed}, "
                         f"{','.join(structures)}", args.runs)
        print("counter columns equal in every round")
        return 0

    bench_inputs = load_bench_inputs(args.change_src)
    if args.workload not in bench_inputs.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(bench_inputs.WORKLOADS)}")
    inp = bench_inputs.make_inputs(bench_inputs.WORKLOADS[args.workload], args.seed)
    with tempfile.TemporaryDirectory(prefix="ab-query-") as tmp:
        graph, queries = Path(tmp) / "graph.txt", Path(tmp) / "queries.txt"
        graph.write_text(inp.graph_text, encoding="utf-8")
        queries.write_text(inp.query_text, encoding="utf-8")
        out = alternate(query_runner(packages, graph, queries, Path(tmp), args.structure),
                        args.runs)
    if out["mismatch"] is not None:
        print(f"ab: result files differ in round {out['mismatch']}", file=sys.stderr)
        return 1
    print_times(out, f"graphstores query, {args.workload} seed={args.seed}, "
                     f"--structure {args.structure}, "
                     f"{len(inp.graph_text)} + {len(inp.query_text)} bytes", args.runs)
    print("result files equal in every round")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
