"""One untraced repetition of a workload's pipeline, plus its memory build.

Store calls run in tight ``map`` loops with one timer pair per batch of
``BATCH`` ops and no per-op timers. Every answer is checked after its
phase, outside the timed region. Counts are read from ``store.counters``
with ``OpCounters.reset()`` between phases, so each phase's counts are its
own. Each time is kept raw and calibrated (see ``Calibration``).
"""

from __future__ import annotations

import gc
import random
import signal
import tracemalloc
from pathlib import Path
from statistics import median
from time import perf_counter_ns as now

from graphstores import (
    STRUCTURE_NAMES,
    DifferentialMismatch,
    EdgeHash,
    HashList,
    MultiList,
    StoreConfig,
    run_workload,
)
from graphstores.cli import main as cli_main

from bench_inputs import Inputs, Workload, make_inputs

STORES = ("hashlist", "edgehash", "multilist")
ENUMERABLE = ("hashlist", "multilist")
HASHED = ("hashlist", "edgehash")


class Tally:
    """Ops attempted and failed; a wrong answer or a raised exception fails an op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str, count: int, detail: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {detail}")

    def check(self, what: str, got: list, expected: list) -> None:
        self.attempted += len(expected)
        if got != expected:
            bad = sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))
            self.fail(what, bad, f"{bad} wrong answers")


class DictOfSets:
    """Reference store (``ref.dictset``): the plain-Python structure a user would write first."""

    __slots__ = ("_adj",)

    def __init__(self) -> None:
        self._adj: dict[int, set[int]] = {}

    def add_edge(self, x: int, y: int) -> bool:
        s = self._adj.get(x)
        if s is None:
            self._adj[x] = {y}
            return True
        if y in s:
            return False
        s.add(y)
        return True

    def contains(self, x: int, y: int) -> bool:
        s = self._adj.get(x)
        return s is not None and y in s


def build_store(name: str, w: Workload):
    if name == "multilist":
        return MultiList(w.n, w.edges)  # sized exactly: it cannot grow
    cfg = StoreConfig(vertex_count=w.n, expected_edges=1 if w.growing else w.edges)
    return HashList(cfg) if name == "hashlist" else EdgeHash(cfg)


class Calibration:
    """A fixed pure-Python kernel, timed next to the work it calibrates.

    On a shared 2-vCPU KVM guest (Intel Xeon) the speed of CPython code was
    seen to switch by up to twofold, back and forth, on time scales from a
    tenth of a second to half a minute, in wall and CPU time alike. Such a
    switch slows this kernel and the stores by similar factors, so a time
    divided by the kernel's time taken beside it varies far less from run to
    run than the raw time; what remains is the part of a slowdown that hits
    the stores and the kernel unequally. The kernel walks adjacency chains
    held in flat lists, the kind of bytecode the stores run; of the kernels
    tried (dict-of-sets lookups, 64-bit mixing, random reads of a large
    list) it tracked the stores best. It does not depend on the seed or the
    workload, and no part of the program runs in it.
    """

    #: Calibrated ns = measured ns * NOMINAL_NS / (ns of a kernel batch timed
    #: beside it): the time on a machine whose kernel batch takes exactly
    #: NOMINAL_NS, about what the guest above takes in its faster state.
    NOMINAL_NS = 20_000

    def __init__(self) -> None:
        rng = random.Random(0)
        heads, nxt, data = [0] * 256, [0], [0]
        for _ in range(1024):  # 1024 cells on 256 chains; cell 0 ends a chain
            x = rng.randrange(256)
            nxt.append(heads[x])
            data.append(rng.randrange(256))
            heads[x] = len(data) - 1
        self._chains = (heads, nxt, data)
        self._xs = [rng.randrange(256) for _ in range(64)]
        self._ys = [rng.randrange(256) for _ in range(64)]

    def _has(self, x: int, y: int) -> bool:
        heads, nxt, data = self._chains
        i = heads[x]
        while i:
            if data[i] == y:
                return True
            i = nxt[i]
        return False

    def batch(self) -> int:
        """ns of one kernel batch: 64 chain walks.

        An untimed pass first brings the kernel's data back into cache, so
        the timing does not depend on what the program's work evicted.
        """
        test, xs, ys = self._has, self._xs, self._ys
        list(map(test, xs, ys))
        t0 = now()
        list(map(test, xs, ys))
        return now() - t0

    def around(self) -> int:
        """Median ns of a few kernel batches."""
        return median(self.batch() for _ in range(5))


class Sampler:
    """Calibrates whole-path times, which cannot be split into batches.

    While active, a 20 ms interval timer runs one kernel batch from a signal
    handler, so kernel samples are spread through the path. Handler time is
    taken out of every time the sampler measures; the calibrated time is the
    measured time times the mean of NOMINAL_NS over the samples.
    """

    INTERVAL_S = 0.02

    def __init__(self, cal: Calibration) -> None:
        self.cal = cal
        self.samples: list[int] = []
        self.spent = 0  # ns inside the handler so far
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = now()
        self.samples.append(self.cal.batch())
        self.spent += now() - t0

    def __enter__(self) -> "Sampler":
        self.samples.append(self.cal.around())
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(self.cal.around())

    def time(self, fn, *args):
        """``fn(*args)`` and its ns, less the handler's ns."""
        s0 = self.spent
        t0 = now()
        r = fn(*args)
        return r, now() - t0 - (self.spent - s0)

    def calibrate(self, ns: int) -> float:
        nominal = self.cal.NOMINAL_NS
        return ns * sum(nominal / c for c in self.samples) / len(self.samples)


def plain_time(fn, *args):
    t0 = now()
    r = fn(*args)
    return r, now() - t0


def timed(fn, batch_list: list, cal: Calibration) -> tuple[list, list[int], list[float]]:
    """Answers, raw ns and calibrated ns of ``fn`` mapped over each batch."""
    out: list = []
    raw: list[int] = []
    calibrated: list[float] = []
    kernel = cal.batch
    scale = 2 * cal.NOMINAL_NS
    before = kernel()
    for b in batch_list:
        t0 = now()
        r = list(map(fn, *b)) if isinstance(b, tuple) else list(map(fn, b))
        t = now() - t0
        after = kernel()  # the kernel runs bracket each batch
        raw.append(t)
        calibrated.append(t * scale / (before + after))
        before = after
        out += r
    return out, raw, calibrated


def phase_ops(batch_list: list) -> int:
    return sum(len(b[0]) if isinstance(b, tuple) else len(b) for b in batch_list)


def store_phases(name: str, store, inp: Inputs, rec: dict, tally: Tally, cal: Calibration) -> None:
    """Add, contains-hit, contains-miss, then neighbors; check and count each."""
    c = store.counters
    phases = [
        ("add", store.add_edge, inp.add_batches, inp.add_expected, c.add),
        ("contains_hit", store.contains, inp.hit_batches, None, c.contains),
        ("contains_miss", store.contains, inp.miss_batches, None, c.contains),
    ]
    if name in ENUMERABLE:
        phases.append(("neighbors", store.neighbors, inp.nbr_batches, inp.nbr_expected, c.enumerate))
    total = sum(phase_ops(p[2]) for p in phases)
    start = tally.attempted
    try:
        for phase, fn, batch_list, expected, channel in phases:
            c.reset()
            got, raw, calibrated = timed(fn, batch_list, cal)
            rec["raw"][f"{name}.{phase}"] = raw
            rec["batches"][f"{name}.{phase}"] = calibrated
            if expected is None:
                expected = [phase == "contains_hit"] * len(got)
            tally.check(f"{name}.{phase}", got, expected)
            rec["counts"][f"{name}.{phase}"] = [channel.ops, channel.total, channel.peak]
        if name in HASHED:
            rec["counts"][f"{name}.table"] = [store.rebuilds, store.capacity, store.edge_count]
    except Exception as exc:  # a raising store fails every op it has not answered
        left = total - (tally.attempted - start)
        tally.attempted += left
        tally.fail(name, left, repr(exc))


def untraced_rep(
    w: Workload, seed: int, files: dict[str, Path], tally: Tally, cal: Calibration
) -> tuple[dict, Inputs]:
    """One repetition: set-up, store phases, reference, CLI query, differential run."""
    rec: dict = {"batches": {}, "raw": {}, "scalars": {}, "raw_scalars": {}, "counts": {}}

    def record(name: str, ns: int, calibrated: float) -> None:
        rec["raw_scalars"][name] = ns / 1e9
        rec["scalars"][name] = calibrated / 1e9

    with Sampler(cal) as smp:
        inp, t_inputs = smp.time(write_inputs, w, seed, files)
    setup = smp.calibrate(t_inputs)
    gc.collect()
    gc.freeze()  # the inputs are long-lived; keep them out of collections
    try:
        with Sampler(cal) as smp:
            stores, t_stores = smp.time(lambda: {name: build_store(name, w) for name in STORES})
        record("setup_s", t_inputs + t_stores, setup + smp.calibrate(t_stores))

        for name, store in stores.items():
            store_phases(name, store, inp, rec, tally, cal)
        del stores

        ref = DictOfSets()
        rec["raw"]["ref.add"] = timed(ref.add_edge, inp.add_batches, cal)[1]
        rec["raw"]["ref.contains"] = timed(ref.contains, inp.hit_batches + inp.miss_batches, cal)[1]

        with Sampler(cal) as smp:
            ns = run_cli(files, inp, tally, smp.time)
        record("query_s", ns, smp.calibrate(ns))

        spec = w.diff_spec(seed)
        with Sampler(cal) as smp:
            report, ns = smp.time(run_diff, spec, tally)
        record("selftest_s", ns, smp.calibrate(ns))
        if report is not None:
            rec["counts"]["bench.rows"] = [
                [r.structure, r.operation, r.count_ops, r.mean_counter, r.max_counter, r.slots_allocated]
                for r in report.rows
            ]
    finally:
        gc.unfreeze()
    return rec, inp


def write_inputs(w: Workload, seed: int, files: dict[str, Path]) -> Inputs:
    inp = make_inputs(w, seed)
    files["graph"].write_text(inp.graph_text, encoding="utf-8")
    files["queries"].write_text(inp.query_text, encoding="utf-8")
    return inp


def run_diff(spec, tally: Tally):
    """``run_workload`` over all four structures; a mismatch fails the whole stream."""
    tally.attempted += spec.m
    try:
        return run_workload(spec, STRUCTURE_NAMES)
    except DifferentialMismatch as exc:
        tally.fail("run_workload", spec.m, str(exc).splitlines()[0])
        return None


def run_cli(files: dict[str, Path], inp: Inputs, tally: Tally, timer=plain_time) -> int:
    """``graphstores query`` in-process with the default structure; returns its ns."""
    out = files["out"]
    out.unlink(missing_ok=True)
    argv = ["query", str(files["graph"]), str(files["queries"]), "--out", str(out)]
    code, elapsed = timer(cli_main, argv)
    expected = inp.cli_expected.splitlines()
    if code != 0:
        tally.attempted += len(expected)
        tally.fail("cli", len(expected), f"exit code {code}")
        return elapsed
    got = out.read_bytes()
    tally.check("cli", got.splitlines(), expected)
    if got != inp.cli_expected and got.splitlines() == expected:
        tally.fail("cli", 1, "result file differs from the expected bytes between lines")
    return elapsed


def bytes_per_edge(w: Workload, seed: int) -> dict[str, float]:
    """Traced bytes of each store after its add stream, per distinct edge.

    Runs on the scaled copy of the workload: tracemalloc slows a build about
    tenfold, and the copy keeps the degree and the final load factor.
    """
    sw = w.scaled()
    inp = make_inputs(sw, seed)
    out = {}
    for name in STORES:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            store = build_store(name, sw)
            add = store.add_edge
            for xs, ys in inp.add_batches:
                for x, y in zip(xs, ys):
                    add(x, y)
            out[name] = (tracemalloc.get_traced_memory()[0] - base) / sw.edges
        finally:
            tracemalloc.stop()
        del store, add
    return out
