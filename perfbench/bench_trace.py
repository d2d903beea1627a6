"""The traced repetition: a span around every public call, kept in memory.

A span is (name, parent span, start ns, end ns); ops of one phase share the
phase's span as parent. Layer numbers come from the spans and from the
stores' own counters. The core and counters layers are timed per batch of
calls over this workload's own codes and counts, because a per-call timer
would cost more than the call.
"""

from __future__ import annotations

import gc
from array import array
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter_ns as now

import numpy as np

from graphstores import (
    STRUCTURE_NAMES,
    Channel,
    HashList,
    StoreConfig,
    generate_ops,
    mixer_hash,
    pack_edge,
    parse_edge_list,
    parse_queries,
)
from graphstores.formats import format_results

from bench_inputs import BATCH, Inputs, Workload
from bench_phases import ENUMERABLE, HASHED, STORES, Tally, build_store, run_cli, run_diff, write_inputs


class Tracer:
    """Spans in four flat arrays, written out once at the end of the run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, nid: int, parent: int, t0: int, t1: int) -> None:
        self.name.append(nid)
        self.parent.append(parent)
        self.start.append(t0)
        self.end.append(t1)

    @contextmanager
    def span(self, name: str, parent: int = -1):
        sid = len(self.start)
        self.add(self.nid(name), parent, now(), 0)
        try:
            yield sid
        finally:
            self.end[sid] = now()

    def seconds(self, sid: int) -> float:
        return (self.end[sid] - self.start[sid]) / 1e9

    def durations(self, first: int) -> np.ndarray:
        """ns of every span recorded since index ``first``."""
        return np.frombuffer(self.end, np.int64)[first:] - np.frombuffer(self.start, np.int64)[first:]

    def write(self, path: Path) -> None:
        np.savez(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            parent=np.frombuffer(self.parent, np.int32), start=np.frombuffer(self.start, np.int64),
            end=np.frombuffer(self.end, np.int64),
        )


def traced_calls(tr: Tracer, name: str, parent: int, fn, args: list, store=None):
    """Call ``fn`` on each argument tuple under its own span.

    With ``store`` given, also returns each call's counter delta and the
    ns spent in calls during which ``store.rebuilds`` went up.
    """
    nid, rec = tr.nid(name), tr.add
    out, deltas = [], []
    rebuild_ns = 0
    if store is None:
        for a in args:
            t0 = now()
            r = fn(*a)
            rec(nid, parent, t0, now())
            out.append(r)
        return out
    ch = store.counters.add
    rebuilds = getattr(store, "rebuilds", 0)
    before = ch.total
    for a in args:
        t0 = now()
        r = fn(*a)
        t1 = now()
        rec(nid, parent, t0, t1)
        out.append(r)
        total = ch.total
        deltas.append(total - before)
        before = total
        if getattr(store, "rebuilds", 0) != rebuilds:
            rebuilds = store.rebuilds
            rebuild_ns += t1 - t0
    return out, deltas, rebuild_ns


def per_call_ns(fn, arg_batches: list) -> float:
    """Median over batches of ns per call of ``fn`` mapped over a batch."""
    samples = []
    for b in arg_batches:
        t0 = now()
        list(map(fn, *b))
        samples.append((now() - t0) / len(b[0]))
    return median(samples)


def _flat(batch_list: list) -> list[tuple]:
    if isinstance(batch_list[0], tuple):
        return [a for xs, ys in batch_list for a in zip(xs, ys)]
    return [(v,) for vs in batch_list for v in vs]


def _knuth(alpha: float) -> tuple[float, float]:
    """Knuth's linear-probing expectations (hit, miss) at load factor alpha."""
    return 0.5 * (1 + 1 / (1 - alpha)), 0.5 * (1 + 1 / (1 - alpha) ** 2)


def traced_phase(tr: Tracer, parent: int, label: str, call: str, fn, args: list, store=None):
    """One phase under its own span: the calls' results, their ns, and the phase's ns."""
    with tr.span(label, parent) as pid:
        res = traced_calls(tr, call, pid, fn, args, store)
    return res, tr.durations(pid + 1), tr.end[pid] - tr.start[pid]


def traced_store(tr: Tracer, root: int, name: str, store, inp: Inputs, out: dict, tally: Tally, deltas: dict) -> int:
    """The untraced store phases again, one span per call; returns the phases' ns."""
    c = store.counters
    unit = "probes" if name in HASHED else "traversals"
    phases_ns = 0
    with tr.span(f"store.{name}", root) as sid:
        c.reset()
        (got, deltas[name], rebuild_ns), add_ns, ns = traced_phase(
            tr, sid, f"{name}.add", f"{name}.add_edge", store.add_edge, _flat(inp.add_batches), store
        )
        phases_ns += ns
        tally.check(f"{name}.add", got, inp.add_expected)
        out[f"{name}.add.{unit}_mean"] = c.add.mean
        out[f"{name}.add.{unit}_max"] = c.add.peak
        out[f"{name}.add.p50_ns"], out[f"{name}.add.p99_ns"] = np.percentile(add_ns, [50, 99])

        contains_ns = []
        for phase, batch_list in (("contains_hit", inp.hit_batches), ("contains_miss", inp.miss_batches)):
            c.reset()
            got, calls_ns, ns = traced_phase(
                tr, sid, f"{name}.{phase}", f"{name}.contains", store.contains, _flat(batch_list)
            )
            phases_ns += ns
            contains_ns.append(calls_ns)
            tally.check(f"{name}.{phase}", got, [phase == "contains_hit"] * len(got))
            out[f"{name}.{phase}.{unit}_mean"] = c.contains.mean
            out[f"{name}.{phase}.{unit}_max"] = c.contains.peak
        p50, p99 = np.percentile(np.concatenate(contains_ns), [50, 99])
        out[f"{name}.contains.p50_ns"], out[f"{name}.contains.p99_ns"] = p50, p99

        if name in ENUMERABLE:
            got, calls_ns, ns = traced_phase(
                tr, sid, f"{name}.neighbors", f"{name}.neighbors_call", store.neighbors, _flat(inp.nbr_batches)
            )
            phases_ns += ns
            tally.check(f"{name}.neighbors", got, inp.nbr_expected)
            out[f"{name}.neighbors.ns_per_edge"] = calls_ns.sum() / inp.nbr_edges

        if name in HASHED:
            alpha = store.load_factor
            hit, miss = _knuth(alpha)
            out[f"{name}.load_factor"] = alpha
            out[f"{name}.capacity"] = store.capacity
            out[f"{name}.rebuilds"] = store.rebuilds
            out[f"{name}.rebuild_share"] = rebuild_ns / add_ns.sum()
            out[f"{name}.knuth_hit_ratio"] = out[f"{name}.contains_hit.probes_mean"] / hit
            out[f"{name}.knuth_miss_ratio"] = out[f"{name}.contains_miss.probes_mean"] / miss
    return phases_ns


def traced_cli(tr: Tracer, root: int, files: dict[str, Path], inp: Inputs, out: dict, tally: Tally) -> None:
    """Run the CLI, then replay ``cmd_query`` through the same public functions under spans."""
    with tr.span("cli.main", root):
        run_cli(files, inp, tally)
    cli_bytes = files["out"].read_bytes()
    with tr.span("cli.replay", root) as rid:
        with tr.span("formats.parse_edge_list", rid) as sid:
            graph = parse_edge_list(files["graph"].read_text(encoding="utf-8"))
        out["formats.parse_edge_list_s"] = tr.seconds(sid)
        with tr.span("formats.parse_queries", rid) as sid:
            queries = parse_queries(files["queries"].read_text(encoding="utf-8"))
        out["formats.parse_queries_s"] = tr.seconds(sid)

        with tr.span("cli.build", rid) as sid:
            store = HashList(StoreConfig(
                vertex_count=graph.n, expected_edges=max(1, graph.m), weighted=graph.has_weights,
            ))
            add_id, weight_id = tr.nid("hashlist.add_edge"), tr.nid("hashlist.set_weight")
            weight_ns = []
            for x, y, wt in graph.edges:
                t0 = now()
                store.add_edge(x, y)
                t1 = now()
                tr.add(add_id, sid, t0, t1)
                if wt is not None:
                    store.set_weight(x, y, wt)
                    t2 = now()
                    tr.add(weight_id, sid, t1, t2)
                    weight_ns.append(t2 - t1)
        out["cli.build_s"] = tr.seconds(sid)
        out["hashlist.set_weight_ns"] = median(weight_ns)

        with tr.span("cli.answer", rid) as sid:
            results = []
            con_id, nbr_id = tr.nid("hashlist.contains"), tr.nid("hashlist.neighbors")
            for q in queries:
                t0 = now()
                if q[0] == "C":
                    r = "1" if store.contains(q[1], q[2]) else "0"
                    tr.add(con_id, sid, t0, now())
                else:
                    seq = store.neighbors(q[1])
                    tr.add(nbr_id, sid, t0, now())
                    r = " ".join(str(v) for v in seq)
                results.append(r)
        out["cli.answer_s"] = tr.seconds(sid)
        with tr.span("formats.format_results", rid) as sid:
            text = format_results(results)
        out["formats.format_results_s"] = tr.seconds(sid)
    replay = text.encode("utf-8")
    tally.attempted += 1
    if replay != cli_bytes:
        tally.fail("cli.replay", 1, "replayed cmd_query output differs from the CLI's result file")


def traced_rep(w: Workload, seed: int, files: dict[str, Path], tally: Tally, tr: Tracer) -> tuple[dict, int]:
    """One traced repetition: the per-layer values, and the ns of its store phases."""
    out: dict = {}
    with tr.span("rep") as root:
        with tr.span("setup", root):
            inp = write_inputs(w, seed, files)
        gc.collect()
        gc.freeze()
        try:
            deltas: dict = {}
            stores = {name: build_store(name, w) for name in STORES}
            store_ns = sum(
                traced_store(tr, root, name, store, inp, out, tally, deltas) for name, store in stores.items()
            )

            with tr.span("core", root):
                out["core.pack_edge_ns"] = per_call_ns(pack_edge, inp.add_batches)
                cap = stores["hashlist"].capacity
                code_batches = [
                    (list(map(pack_edge, xs, ys)), [cap] * len(xs)) for xs, ys in inp.add_batches
                ]
                out["core.mixer_hash_ns"] = per_call_ns(mixer_hash, code_batches)
            with tr.span("counters", root):
                for unit, name in (("probes", "hashlist"), ("traversals", "multilist")):
                    counts = deltas[name]
                    method = getattr(Channel(), f"record_{unit}")
                    out[f"counters.record_{unit}_ns"] = per_call_ns(
                        method, [(counts[i:i + BATCH],) for i in range(0, len(counts), BATCH)]
                    )
            del stores

            traced_cli(tr, root, files, inp, out, tally)

            spec = w.diff_spec(seed)
            with tr.span("bench.generate_ops", root) as sid:
                generate_ops(spec)
            out["bench.generate_ops_s"] = tr.seconds(sid)
            with tr.span("bench.run_workload", root):
                report = run_diff(spec, tally)
            for s in STRUCTURE_NAMES:
                for op in ("add", "contains", "enumerate"):
                    if s == "edgehash" and op == "enumerate":
                        continue  # run_workload never enumerates the bare table
                    wall = report.find(s, op).wall_ns / 1e6 if report else 0.0
                    out[f"bench.{s}.{op}.wall_ms"] = wall
        finally:
            gc.unfreeze()
    return out, store_ns


def layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in print order."""
    names = ["core.pack_edge_ns", "core.mixer_hash_ns", "counters.record_probes_ns",
             "counters.record_traversals_ns"]
    for s in STORES:
        unit = "probes" if s in HASHED else "traversals"
        for phase in ("add", "contains_hit", "contains_miss"):
            names += [f"{s}.{phase}.{unit}_mean", f"{s}.{phase}.{unit}_max"]
        names += [f"{s}.add.p50_ns", f"{s}.add.p99_ns", f"{s}.contains.p50_ns", f"{s}.contains.p99_ns"]
        if s in HASHED:
            names += [f"{s}.{k}" for k in ("load_factor", "capacity", "rebuilds", "rebuild_share",
                                             "knuth_hit_ratio", "knuth_miss_ratio")]
        if s in ENUMERABLE:
            names.append(f"{s}.neighbors.ns_per_edge")
    names += ["formats.parse_edge_list_s", "formats.parse_queries_s", "formats.format_results_s",
              "cli.build_s", "cli.answer_s", "hashlist.set_weight_ns", "bench.generate_ops_s"]
    names += [f"bench.{s}.{op}.wall_ms" for s in STRUCTURE_NAMES for op in ("add", "contains", "enumerate")
              if not (s == "edgehash" and op == "enumerate")]
    names += ["ref.dictset.add_ns", "ref.dictset.contains_ns", "trace.overhead_frac"]
    return names
