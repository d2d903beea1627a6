"""Build a ``BENCH_<pr>.json`` record from paired perfbench runs.

Run ``perfbench/run.py`` in two checkouts, the parent commit and the
change, once per (workload, seed) on each side, alternating which side
runs first. Each run leaves ``.bench_out/<workload>-seed<seed>-trace0.json``
in its checkout. Then, from the repository root::

    python3 tools/bench_record.py --pr 18 --parent ../parent --change ../change \\
        --claim uniform-presized:query_s --held-out 18101,18102,18103 --out BENCH_18.json

A pair is a (workload, seed) present on both sides; the side whose detail
file is older ran first. The record holds each side's provenance, every
pair's end-to-end metrics and check tallies, and per workload and metric
the two medians, the parent's interquartile range and the change's wins.
Held-out seeds are summarised apart from the others. Each run also keeps
perfbench's uncalibrated ``raw_metrics``, and the claim shows the claimed
metric's raw medians, parent IQR and wins beside the calibrated verdict,
which alone decides it. The claim rule is
the one the benchmark applies: at least nine wins in ten pairs, over at
least ten pairs that are not held out, and a gap between the medians wider
than the parent's interquartile range; each run order must also hold at
least four of those pairs. A side's provenance is that of its first detail file;
when its files name more than one ``git_commit``, it also lists them all
under ``mixed_commits``, since its runs then measured more than one tree.
Each side's provenance also holds ``src_lines``, the lines of its
checkout's ``src/**/*.py``, and the top-level ``src_line_delta`` is the
change's count minus the parent's; a checkout with no ``src`` directory
records neither.

The side that runs first may gain a few percent, so every metric's summary
also holds ``by_order``: the count and both medians of the pairs the
parent ran first in (``parent_first``) and of those the change ran first
in (``change_first``). The top-level ``one_order`` list names every
workload whose pairs all ran in one order, whose medians may then carry
that bias.

Each metric's ``bound`` in BENCHMARK.json is a fraction of the parent
median. A metric is ``worse_beyond_bound`` when the change median is worse
than the parent median by more than that, and ``unresolved`` when the
parent's interquartile range is wider than it and not every change run
beats every parent run: the runs then spread too widely to tell. The
top-level ``regressions`` list names every workload and metric with
either flag, so a record of a change that claims nothing reads at a glance.

perfbench's exact counts (probe and traversal totals and peaks, rebuilds,
capacity and the bench rows) depend only on the program and the seed, not on
the machine. The top-level ``count_changes`` list names every workload, seed
and count key whose value differs between the two sides of a pair, with
both values, so a record shows whether a change kept these observables.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent

#: Fewest pairs, held-out seeds not counted, on which a claim can hold.
MIN_CLAIM_PAIRS = 10
#: Fewest of those pairs that each side must have run first in.
MIN_ORDER_PAIRS = 4


def end_to_end_metrics(benchmark: Path) -> dict[str, dict]:
    """Metric name -> its entry (``better``, ``bound``, ...) in the end-to-end list of
    BENCHMARK.json."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"]}


def detail_files(checkout: Path) -> dict[tuple[str, int], Path]:
    """(workload, seed) -> the untraced detail file perfbench wrote in ``checkout``."""
    out = {}
    for path in (checkout / ".bench_out").glob("*-seed*-trace0.json"):
        workload, _, seed = path.name[: -len("-trace0.json")].rpartition("-seed")
        out[workload, int(seed)] = path
    return out


def src_lines(checkout: Path) -> int | None:
    """Lines of ``src/**/*.py`` in ``checkout``, as ``wc -l`` counts them; None
    when it has no ``src`` directory."""
    src = checkout / "src"
    if not src.is_dir():
        return None
    return sum(path.read_bytes().count(b"\n") for path in src.rglob("*.py"))


def run_entry(detail: dict, metrics: dict[str, dict]) -> dict:
    raw = detail.get("raw_metrics", {})
    return {
        "metrics": {k: detail["metrics"][k]["value"] for k in metrics if k in detail["metrics"]},
        "raw_metrics": {k: raw[k] for k in metrics if k in raw},
        "repetitions": detail["repetitions"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
    }


def count_changes(workload: str, seed: int, before: dict, after: dict) -> list[dict]:
    """One entry per count key whose value differs between a pair's two sides;
    a key one side lacks reads as None there."""
    return [{"workload": workload, "seed": seed, "key": k, "parent": before.get(k),
             "change": after.get(k)}
            for k in sorted(before.keys() | after.keys()) if before.get(k) != after.get(k)]


def summarise(pairs: list[dict], metrics: dict[str, dict], field: str = "metrics") -> dict:
    """Per metric: medians, the parent's IQR, wins and ties of the change, the two
    bound flags, and the medians of the pairs each side ran first in, over ``pairs``;
    the values are each run's ``field``, its calibrated or its raw metrics."""
    out = {}
    for name, spec in metrics.items():
        better, bound = spec["better"], spec.get("bound")
        runs = [(p["parent"][field][name], p["change"][field][name], p["first"])
                for p in pairs if name in p["parent"][field] and name in p["change"][field]]
        if not runs:
            continue
        both = [(b, a) for b, a, _ in runs]
        before, after = [b for b, _ in both], [a for _, a in both]
        sign = 1 if better == "higher" else -1
        q1, _, q3 = quantiles(before, n=4) if len(before) > 1 else (before[0],) * 3
        gap = median(after) - median(before)
        # Worse and spread beyond the bound, both as fractions of the parent median.
        limit = None if bound is None else bound * abs(median(before))
        beats_all = min(sign * a for a in after) > max(sign * b for b in before)
        by_order = {}
        for first in ("parent", "change"):
            some = [(b, a) for b, a, f in runs if f == first]
            if some:
                by_order[f"{first}_first"] = {"pairs": len(some),
                                              "parent_median": median(b for b, _ in some),
                                              "change_median": median(a for _, a in some)}
        out[name] = {
            "better": better,
            "parent_median": median(before),
            "change_median": median(after),
            "change_frac": gap / median(before) if median(before) else None,
            "parent_iqr": q3 - q1,
            "gap_exceeds_iqr": abs(gap) > q3 - q1,
            "wins": sum(sign * (a - b) > 0 for b, a in both),
            "ties": sum(a == b for b, a in both),
            "pairs": len(both),
            "by_order": by_order,
            "bound": bound,
            "worse_beyond_bound": limit is not None and -sign * gap > limit,
            "unresolved": limit is not None and q3 - q1 > limit and not beats_all,
        }
    return out


def build(pr: int, parent: Path, change: Path, claim: tuple[str, str] | None,
          held_out: set[int]) -> dict:
    metrics = end_to_end_metrics(ROOT / "BENCHMARK.json")
    before, after = detail_files(parent), detail_files(change)
    record = {"pr": pr, "provenance": {}, "src_line_delta": None, "claim": None,
              "regressions": [], "one_order": [], "count_changes": [], "workloads": {}}
    commits: dict[str, set] = {}
    for key in sorted(before.keys() & after.keys()):
        workload, seed = key
        details = {side: json.loads(paths[key].read_text(encoding="utf-8"))
                   for side, paths in (("parent", before), ("change", after))}
        entry = {
            "seed": seed,
            "held_out": seed in held_out,
            "first": "parent" if before[key].stat().st_mtime < after[key].stat().st_mtime else "change",
            "parent": run_entry(details["parent"], metrics),
            "change": run_entry(details["change"], metrics),
        }
        record["workloads"].setdefault(workload, {"pairs": []})["pairs"].append(entry)
        for side, detail in details.items():
            prov = detail["provenance"]
            kept = {k: prov[k] for k in ("git_commit", "python", "numpy", "cpu", "nproc")}
            record["provenance"].setdefault(side, kept)
            commits.setdefault(side, set()).add(prov["git_commit"])
        record["count_changes"] += count_changes(
            workload, seed, details["parent"]["counts"], details["change"]["counts"])
    for side, seen in commits.items():
        if len(seen) > 1:
            record["provenance"][side]["mixed_commits"] = sorted(seen, key=str)
    lines = {"parent": src_lines(parent), "change": src_lines(change)}
    for side, count in lines.items():
        if count is not None:
            record["provenance"].setdefault(side, {})["src_lines"] = count
    if None not in lines.values():
        record["src_line_delta"] = lines["change"] - lines["parent"]
    for workload, block in record["workloads"].items():
        pairs = block["pairs"]
        if len({p["first"] for p in pairs}) == 1:
            record["one_order"].append(workload)
        block["summary"] = summarise([p for p in pairs if not p["held_out"]], metrics)
        if any(p["held_out"] for p in pairs):
            block["held_out_summary"] = summarise([p for p in pairs if p["held_out"]], metrics)
        for held_out, key in ((False, "summary"), (True, "held_out_summary")):
            for name, s in block.get(key, {}).items():
                flags = [f for f in ("worse_beyond_bound", "unresolved") if s[f]]
                if flags:
                    record["regressions"].append({"workload": workload, "metric": name,
                                                  "held_out": held_out, "flags": flags})
    if claim is not None:
        workload, name = claim
        s = record["workloads"][workload]["summary"][name]
        gain = s["change_median"] - s["parent_median"]
        if s["better"] == "lower":
            gain = -gain
        record["claim"] = {
            "workload": workload, "metric": name,
            "holds": (s["pairs"] >= MIN_CLAIM_PAIRS and s["wins"] * 10 >= 9 * s["pairs"]
                      and gain > s["parent_iqr"] and len(s["by_order"]) == 2
                      and min(o["pairs"] for o in s["by_order"].values()) >= MIN_ORDER_PAIRS),
        }
        if "held_out_summary" in record["workloads"][workload]:
            h = record["workloads"][workload]["held_out_summary"][name]
            record["claim"]["held_out_wins"] = f'{h["wins"]}/{h["pairs"]}'
        counted = [p for p in record["workloads"][workload]["pairs"] if not p["held_out"]]
        raw = summarise(counted, {name: metrics[name]}, "raw_metrics").get(name)
        if raw is not None:
            record["claim"]["raw"] = {k: raw[k] for k in (
                "parent_median", "change_median", "change_frac", "parent_iqr", "wins", "pairs")}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--held-out", default="", help="comma-separated seeds kept out of the claim")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    held_out = {int(s) for s in args.held_out.split(",") if s}
    record = build(args.pr, args.parent, args.change, claim, held_out)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
