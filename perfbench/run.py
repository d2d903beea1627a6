"""graphstores benchmark: one seeded, checked, time-bounded run of one workload.

Run from the repository root::

    python3 perfbench/run.py --workload uniform-presized --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` beside this directory, never from an
installed copy. ``--trace 0`` repeats the workload's whole pipeline (see
``bench_inputs``) for ``--seconds`` and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics, with ``trace.overhead_frac`` comparing the two. Every
answer is checked. Provenance, exact counts and the metrics are printed and
written to ``.bench_out/`` at the repository root, spans too in a traced
run. The last line of standard output is the JSON result.

Each end-to-end time is calibrated: divided by the time of a fixed kernel
run beside it and scaled to the kernel's nominal time (see
``bench_phases.Calibration``), because the speed of a shared machine can
change twofold within a run. Raw times are printed beside them. Each
end-to-end time is the lower quartile, across repetitions, of that
repetition's time (see ``low_quartile``). Per-layer numbers are raw
medians over the traced repetitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import asdict
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3
MIN_TRACED = 2
#: add_stall_ms is the slowest run of this many consecutive add batches
#: (8192 adds): long enough to average out noise, short enough that a
#: rebuild pause dominates the group it falls in.
STALL_BATCHES = 8


def load_package() -> None:
    """Put ``src/`` first on the path and make sure that is where graphstores comes from."""
    src = ROOT / "src"
    if not (src / "graphstores" / "__init__.py").is_file():
        sys.exit(f"perfbench: graphstores source not found under {src}")
    sys.path.insert(0, str(src))
    import graphstores

    if Path(graphstores.__file__).resolve().parent != src / "graphstores":
        sys.exit(f"perfbench: imported graphstores from {graphstores.__file__}, not {src}")


def git_commit() -> str | None:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "cpu": cpu, "git_commit": git_commit(), "workload": workload.name, "seed": seed,
        "sizes": asdict(workload),
    }


def unit_of(name: str) -> str:
    """Unit of a metric, read off its name."""
    if name.endswith(("add_ops_s", "contains_ops_s")):
        return "ops/s"
    if name.endswith("_edges_s"):
        return "edges/s"
    if name.endswith("bytes_per_edge"):
        return "B/edge"
    if name.endswith("ns_per_edge"):
        return "ns/edge"
    for suffix, unit in (("_ns", "ns"), ("_ms", "ms"), ("_s", "s"), ("probes_mean", "probes"),
                         ("probes_max", "probes"), ("traversals_mean", "traversals"),
                         ("traversals_max", "traversals"), ("capacity", "slots"), ("rebuilds", "count")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def low_quartile(values) -> float:
    """Lower quartile of the repetitions' values.

    Interference on a shared machine only ever slows a repetition, and it
    can last for several repetitions; the lower quartile stays with the
    undisturbed ones where the median moves.
    """
    v = sorted(values)
    return v[(len(v) - 1) // 4]


def phase_ns(recs: list[dict], kind: str, *keys: str) -> float:
    """Lower quartile across repetitions of the phases' total ns."""
    return low_quartile(sum(sum(r[kind][k]) for k in keys) for r in recs)


def stall_ns(batch_ns: list[float]) -> float:
    """The slowest run of STALL_BATCHES consecutive batches in one repetition."""
    return max(sum(batch_ns[i:i + STALL_BATCHES]) for i in range(0, len(batch_ns), STALL_BATCHES))


def end_to_end(recs: list[dict], inp, memory: dict, calibrated: bool = True) -> dict:
    """The end-to-end metrics, from calibrated times or, for display, from raw ones."""
    from bench_phases import ENUMERABLE, HASHED, STORES

    kind, scalars = ("batches", "scalars") if calibrated else ("raw", "raw_scalars")
    adds = len(inp.add_expected)
    reads = sum(len(x) for x, _ in inp.hit_batches + inp.miss_batches)
    m = {"setup_s": low_quartile(r[scalars]["setup_s"] for r in recs)}
    for s in STORES:
        m[f"{s}.add_ops_s"] = adds / phase_ns(recs, kind, f"{s}.add") * 1e9
        m[f"{s}.contains_ops_s"] = reads / phase_ns(recs, kind, f"{s}.contains_hit", f"{s}.contains_miss") * 1e9
    for s in ENUMERABLE:
        m[f"{s}.neighbors_edges_s"] = inp.nbr_edges / phase_ns(recs, kind, f"{s}.neighbors") * 1e9
    for s in STORES:
        m[f"{s}.bytes_per_edge"] = memory[s]
    for s in HASHED:
        m[f"{s}.add_stall_ms"] = low_quartile(stall_ns(r[kind][f"{s}.add"]) for r in recs) / 1e6
    m["query_s"] = low_quartile(r[scalars]["query_s"] for r in recs)
    m["selftest_s"] = low_quartile(r[scalars]["selftest_s"] for r in recs)
    return m


def ref_ns(recs: list[dict], inp) -> dict:
    adds = len(inp.add_expected)
    reads = sum(len(x) for x, _ in inp.hit_batches + inp.miss_batches)
    return {
        "ref.dictset.add_ns": phase_ns(recs, "raw", "ref.add") / adds,
        "ref.dictset.contains_ns": phase_ns(recs, "raw", "ref.contains") / reads,
    }


def store_call_ns(rec: dict) -> float:
    """Raw ns of one repetition's store phases: the calls a traced repetition re-runs."""
    from bench_phases import STORES

    return sum(sum(t) for k, t in rec["raw"].items() if k.split(".")[0] in STORES)


def check_counts(recs: list[dict], tally) -> dict:
    """Counts must repeat exactly from repetition to repetition."""
    counts = recs[0]["counts"]
    for i, r in enumerate(recs[1:], 1):
        if r["counts"] != counts:
            tally.fail("counts", 1, f"repetition {i} counted differently from repetition 0")
    return counts


def count_note(name: str, counts: dict) -> str:
    """The exact counts behind one end-to-end metric, for printing beside it."""
    store, _, metric = name.partition(".")
    keys = {
        "add_ops_s": ["add"], "contains_ops_s": ["contains_hit", "contains_miss"],
        "neighbors_edges_s": ["neighbors"], "add_stall_ms": ["table"],
    }.get(metric, [])
    parts = []
    for k in keys:
        c = counts.get(f"{store}.{k}")
        if c is None:
            continue
        if k == "table":
            parts.append(f"rebuilds={c[0]} capacity={c[1]} load={c[2] / c[1]:.4f}")
        else:
            parts.append(f"{k}: ops={c[0]} total={c[1]} mean={c[1] / max(c[0], 1):.4f} max={c[2]}")
    return "; ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()

    from bench_inputs import WORKLOADS
    from bench_phases import Calibration, Tally, bytes_per_edge, untraced_rep
    from bench_trace import Tracer, layer_names, traced_rep

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must fit in 64 bits")
    w = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    files = {k: out_dir / f"{tag}.{k}.txt" for k in ("graph", "queries", "out")}
    prov = provenance(w, args.seed)
    print("provenance:", json.dumps(prov))

    tally = Tally()
    cal = Calibration()
    _, inp = untraced_rep(w, args.seed, files, tally, cal)  # warm-up: allocator and caches settle
    recs, traced, traced_ns = [], [], []
    deadline = perf_counter() + args.seconds
    last = 0.0
    while True:
        t0 = perf_counter()
        rec, inp = untraced_rep(w, args.seed, files, tally, cal)
        recs.append(rec)
        if args.trace:
            tracer = Tracer()
            layer, store_ns = traced_rep(w, args.seed, files, tally, tracer)
            traced.append(layer)
            traced_ns.append(store_ns)
        last = perf_counter() - t0
        enough = len(recs) >= (MIN_TRACED if args.trace else MIN_REPS)
        if enough and perf_counter() + last > deadline:
            break

    counts = check_counts(recs, tally)
    if args.trace:
        metrics = {k: median(t[k] for t in traced) for k in traced[0]}
        metrics.update(ref_ns(recs, inp))
        untraced_ns = median(map(store_call_ns, recs))
        metrics["trace.overhead_frac"] = median(traced_ns) / untraced_ns - 1
        metrics = {k: metrics[k] for k in layer_names()}
        tracer.write(out_dir / f"{tag}.spans.npz")
        raw = {}
    else:
        memory = bytes_per_edge(w, args.seed)
        metrics = end_to_end(recs, inp, memory)
        raw = end_to_end(recs, inp, memory, calibrated=False)

    for name, value in metrics.items():
        shown = f"{value:16.6f} {unit_of(name):10s}"
        if name in raw:
            shown += f" raw {raw[name]:16.6f}"
        print(f"{name:36s} {shown} {count_note(name, counts)}")
    if not args.trace:
        for name, value in ref_ns(recs, inp).items():
            print(f"{name:36s} {value:16.6f} {'ns':10s} reference store, raw")
    print(f"repetitions={len(recs)} attempted={tally.attempted} failed={tally.failed}")
    for err in tally.errors:
        print("FAILED", err)

    detail = {
        "provenance": prov, "repetitions": len(recs), "counts": counts,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "raw_metrics": raw,
        "samples": {k: [r["scalars"][k] for r in recs] for k in recs[0]["scalars"]},
        "raw_samples": {k: [r["raw_scalars"][k] for r in recs] for k in recs[0]["raw_scalars"]},
        "phase_ns": {k: [sum(r["batches"][k]) for r in recs] for k in recs[0]["batches"]},
        "raw_phase_ns": {k: [sum(r["raw"][k]) for r in recs] for k in recs[0]["raw"]},
        "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    for f in files.values():
        f.unlink(missing_ok=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
