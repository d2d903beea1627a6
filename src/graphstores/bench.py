"""Workload generation, differential execution, and operation-count reports.

Complexity claims are validated by counting probes and traversals, never by
asserting on wall time; the clock is reported for context only. Workloads
are generated by a self-contained 64-bit linear congruential generator so
that a (spec, seed) pair reproduces the identical operation stream on any
platform or language:

    state' = state * 6364136223846793005 + 1442695040888963407  (mod 2**64)

with the high 32 bits of the state as each draw, and bounded draws taken by
the multiply-shift reduction ``(u64 * n) >> 64``. ``Lcg64`` is the scalar
reference; ``generate_ops`` draws the same states a numpy block at a time,
by jump-ahead from the last state of the previous block.

Every structure in a run executes the same operation stream. Each store
runs one chunk of the stream on its own before the chunk's answers are
compared with the first store's. So a store's calls run back to back, with
its bound methods and working set at hand, rather than taking turns with
the other stores op by op; and only one chunk of answers is held, whatever
the stream length. The outcome is still that of op-by-op agreement: the
earliest disagreeing op, or the earliest exception, decides, and any
disagreement aborts with a bisection-minimized failing stream. A store's
wall time per class sums its runs of same-class calls, with the clock read
only where the class changes, not around every call. One loop serves every
run: ``_runs`` yields each chunk's runs over a list of stores, and
``_judge`` compares them, finds the op that decides, and sums the times.

A stream of at least ``_SPLIT_FROM`` ops over three or more structures
runs split over two processes where the host allows it (``_can_split``):
a forked child runs the stores between the first and the last and pipes
each chunk's runs back, and the parent hands ``_judge`` the runs of its
first store, the child's and its last store's. The outcome is always the
serial one: any disagreement, exception or broken pipe sends the parent
back to the serial run on fresh stores, which alone raises or minimizes.
The caller pays for a split later: the parent's heap is shared
copy-on-write with the child, so the first write to each of its pages
after the fork faults (in a 211 MB frozen heap, a pass over 600,000 of its
tuples took 9.5-11 ms after a serial run and 22-28 ms after a split, on a
2-vCPU VM). On Python 3.12 and later ``os.fork`` warns when the process
has other OS threads, and numpy's BLAS thread counts as one.
"""

from __future__ import annotations

import gc
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field, replace
from itertools import chain
from time import perf_counter_ns
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import ConfigError, GraphStoreError, StoreConfig, U64_MASK, _checked_int, _checked_size
from .counters import OP_CLASSES
from .edgehash import EdgeHash
from .hashlist import HashList
from .multilist import MultiList
from .oracle import OracleGraph

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407

STRUCTURE_NAMES = ("hashlist", "multilist", "edgehash", "oracle")
GENERATORS = ("uniform", "star", "grid")

CSV_HEADER = "structure,operation,count_ops,mean_counter,max_counter,wall_ns,slots_allocated"

#: Rejection budget when sampling an absent edge before falling back.
_MISS_TRIES = 256

#: Ops each store runs before the answers are compared; answers are held for
#: one chunk at a time, so memory stays bounded whatever the stream length.
_CHUNK = 4096

#: Streams of at least this many ops may run split over two processes. Set
#: from paired runs on a perfbench-sized heap (see CHANGES.md): below it the
#: fork and the copy-on-write faults cost more than the second CPU saves.
_SPLIT_FROM = 16384

#: LCG states drawn per numpy block by ``generate_ops``.
_LCG_BLOCK = 4096


class Lcg64:
    """Seeded 64-bit LCG (constants above); deterministic across platforms."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & U64_MASK

    def next_u64(self) -> int:
        self._state = (self._state * LCG_MULTIPLIER + LCG_INCREMENT) & U64_MASK
        return self._state

    def next_below(self, n: int) -> int:
        """Uniform draw in [0, n) via multiply-shift reduction."""
        return (self.next_u64() * n) >> 64


@dataclass(frozen=True)
class WorkloadSpec:
    """A reproducible operation stream: generator shape, sizes, mix, seed.

    ``m`` is the total operation budget; the add fraction of the mix decides
    how many of those are insertions. mix = (add, contains-hit,
    contains-miss, enumerate) fractions, summing to 1. ``n``, ``m`` and
    ``seed`` are kept as the plain ints they stand for.
    """

    generator: str
    n: int
    m: int
    mix: tuple[float, float, float, float] = (0.6, 0.2, 0.15, 0.05)
    seed: int = 1

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            raise ConfigError(f"generator must be one of {GENERATORS}, got {self.generator!r}")
        object.__setattr__(self, "n", _checked_size("n", self.n, 1))
        if self.generator == "star" and self.n < 2:
            raise ConfigError("star workloads need at least 2 vertices")
        if self.generator == "grid" and math.isqrt(self.n) < 2:
            raise ConfigError("grid workloads need at least 4 vertices")
        object.__setattr__(self, "m", _checked_size("m", self.m, 0))
        # NaN >= 0 is False, so a NaN fraction fails this; it would pass "f < 0".
        if len(self.mix) != 4 or not all(f >= 0 for f in self.mix):
            raise ConfigError("mix must be four nonnegative fractions")
        if abs(sum(self.mix) - 1.0) > 1e-9:
            raise ConfigError(f"mix fractions must sum to 1, got {sum(self.mix)}")
        object.__setattr__(self, "seed", _checked_int("seed", self.seed))
        if not 0 <= self.seed <= U64_MASK:
            raise ConfigError("seed must fit in 64 bits")


def _lcg_block_tables() -> tuple[np.ndarray, np.ndarray]:
    """Jump-ahead tables for ``_LCG_BLOCK`` steps: Aʲ and C·(1 + A + … + Aʲ⁻¹).

    Row j - 1 holds the pair for j steps, so state sⱼ = Aʲ·s₀ + C·(1 + … + Aʲ⁻¹)
    mod 2**64 (F. Brown, "Random Number Generation with Arbitrary Strides",
    1994). uint64 array arithmetic wraps modulo 2**64 without a warning.
    """
    powers = np.multiply.accumulate(np.full(_LCG_BLOCK, LCG_MULTIPLIER, dtype=np.uint64))
    sums = np.cumsum(np.concatenate((np.ones(1, np.uint64), powers[:-1])), dtype=np.uint64)
    return powers, sums * np.uint64(LCG_INCREMENT)


_LCG_POWERS, _LCG_SUMS = _lcg_block_tables()


def _lcg_blocks(seed: int) -> Iterator[list[int]]:
    """``Lcg64(seed).next_u64()``'s states, ``_LCG_BLOCK`` at a time, as ints."""
    state = np.uint64(seed)
    while True:
        block = _LCG_POWERS * state + _LCG_SUMS
        state = block[-1]
        yield block.tolist()


def generate_ops(spec: WorkloadSpec) -> list[tuple]:
    """The deterministic operation stream for a spec.

    Ops are ``("add", x, y)``, ``("has", x, y)``, ``("nbrs", x)``. A
    contains-hit drawn before any edge exists degrades to a miss, and a
    miss that cannot find an absent pair within the rejection budget
    degrades to an enumerate, so every stream is well-formed for any mix.

    The draws are ``Lcg64(spec.seed).next_u64()``'s, computed a block of
    states at a time by jump-ahead and refilled whenever a block runs out,
    since the miss rejection loop makes the draw count depend on the data.
    A state is compared with ``cut << 32`` rather than shifted to its high
    32 bits, and a bounded draw is ``(state * n) >> 64`` as in ``next_below``.
    """
    draw = chain.from_iterable(_lcg_blocks(spec.seed)).__next__
    n = spec.n
    star = spec.generator == "star"

    acc = 0.0
    cut = []
    for frac in spec.mix:
        acc += frac
        cut.append(min(int(round(acc * (1 << 32))), 1 << 32) << 32)
    cut_add, cut_hit, cut_miss = cut[:3]

    if spec.generator == "uniform":
        def sample_add() -> tuple[int, int]:
            return (draw() * n) >> 64, (draw() * n) >> 64
    elif star:
        def sample_add() -> tuple[int, int]:
            return 0, 1 + ((draw() * (n - 1)) >> 64)
    else:  # grid: torus with right/down neighbors, vertices 0..side*side-1
        side = math.isqrt(n)

        def sample_add() -> tuple[int, int]:
            v = (draw() * (side * side)) >> 64
            row, col = divmod(v, side)
            if draw() >> 63:
                return v, row * side + (col + 1) % side
            return v, ((row + 1) % side) * side + col

    def sample_miss() -> tuple[int, int] | None:
        for _ in range(_MISS_TRIES):
            if star:
                pair = 0, 1 + ((draw() * (n - 1)) >> 64)
            else:
                pair = (draw() * n) >> 64, (draw() * n) >> 64
            if pair not in present_set:
                return pair
        if star:
            return 1 + ((draw() * (n - 1)) >> 64), 0  # star never adds edges out of spokes
        return None

    present_list: list[tuple[int, int]] = []
    present_set: set[tuple[int, int]] = set()
    ops: list[tuple] = []
    append = ops.append

    for _ in range(spec.m):
        r = draw()
        if r < cut_add:
            pair = sample_add()
            append(("add", pair[0], pair[1]))
            if pair not in present_set:
                present_set.add(pair)
                present_list.append(pair)
            continue
        if r < cut_hit and present_list:
            pair = present_list[(draw() * len(present_list)) >> 64]
            append(("has", pair[0], pair[1]))
            continue
        if r < cut_miss:  # a miss, or a hit drawn before any edge exists
            pair = sample_miss()
            if pair is not None:
                append(("has", pair[0], pair[1]))
                continue
        append(("nbrs", (draw() * n) >> 64))

    return ops


@dataclass(frozen=True)
class BenchRow:
    structure: str
    operation: str
    count_ops: int
    mean_counter: float
    max_counter: int
    wall_ns: int
    slots_allocated: int

    def csv_line(self) -> str:
        return (
            f"{self.structure},{self.operation},{self.count_ops},"
            f"{self.mean_counter:.6f},{self.max_counter},{self.wall_ns},{self.slots_allocated}"
        )


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(row.csv_line() for row in self.rows)
        return "\n".join(lines) + "\n"

    def find(self, structure: str, operation: str) -> BenchRow:
        for row in self.rows:
            if row.structure == structure and row.operation == operation:
                return row
        raise KeyError((structure, operation))


class DifferentialMismatch(GraphStoreError):
    """Structures disagreed on an answer; carries a minimized failing stream."""

    def __init__(self, ops: list[tuple], index: int, op: tuple, answers: list[tuple[str, object]]):
        self.ops = ops
        self.index = index
        self.op = op
        self.answers = answers
        shown = ", ".join(repr(o) for o in ops[:20])
        if len(ops) > 20:
            shown += f", ... ({len(ops) - 20} more)"
        got = "; ".join(f"{name}={value!r}" for name, value in answers)
        super().__init__(
            f"structures disagree on {op!r} (op {index} of minimized stream): {got}\n"
            f"minimized stream ({len(ops)} ops): [{shown}]"
        )


def _new_store(name: str, n: int, edges: int, hash_mode: str):
    """The store called ``name`` over n vertices, sized for ``edges`` adds."""
    if name == "multilist":
        return MultiList(n, edges)
    if name == "oracle":
        return OracleGraph(n)
    cfg = StoreConfig(vertex_count=n, expected_edges=max(1, edges), hash_mode=hash_mode)
    return HashList(cfg) if name == "hashlist" else EdgeHash(cfg)


def _build_stores(spec: WorkloadSpec, structures: Sequence[str], hash_mode: str, adds: int):
    return [(name, _new_store(name, spec.n, adds, hash_mode)) for name in structures]


def _counted(stores):
    """What the report reads of each store: (name, counters, slots_allocated)."""
    return [(name, store.counters, store.slots_allocated) for name, store in stores]


def _run_chunk(chunk, add, has, nbrs):
    """One store over one chunk of ops.

    Returns the answers to the pair ops, the answers to the ``nbrs`` ops
    (None when ``nbrs`` is None), the ns spent in the add / contains /
    enumerate classes, the count of ops run, and the exception that stopped
    the store, if any.
    The clock is read only where the class of the store's calls changes, so
    each class's time is the sum over its maximal runs of same-class calls;
    an ``nbrs`` op the store does not run neither ends nor starts a run.
    """
    pairs, lists = [], []
    spent = [0, 0, 0, 0]  # add, contains, enumerate; the last slot precedes the first call
    last, t = 3, 0
    error = None
    try:
        for op in chunk:
            kind = op[0]
            if kind == "add":
                if last:
                    now = perf_counter_ns()
                    spent[last] += now - t
                    last, t = 0, now
                pairs.append(add(op[1], op[2]))
            elif kind == "has":
                if last != 1:
                    now = perf_counter_ns()
                    spent[last] += now - t
                    last, t = 1, now
                pairs.append(has(op[1], op[2]))
            elif nbrs is None:
                lists.append(None)
            else:
                if last != 2:
                    now = perf_counter_ns()
                    spent[last] += now - t
                    last, t = 2, now
                lists.append(nbrs(op[1]))
    except Exception as exc:
        error = exc
    spent[last] += perf_counter_ns() - t
    return pairs, None if nbrs is None else lists, spent[:3], len(pairs) + len(lists), error


def _runs(ops, stores):
    """Per ``_CHUNK`` ops, each store's run over them in store order: its name
    and ``_run_chunk``'s results, with no neighbors call for a store that
    does not enumerate (the bare edge hash)."""
    bound = [
        (name, store.add_edge, store.contains, store.neighbors if store.enumerates else None)
        for name, store in stores
    ]
    for start in range(0, len(ops), _CHUNK):
        chunk = ops[start:start + _CHUNK]
        yield [(name, *_run_chunk(chunk, add, has, nbrs)) for name, add, has, nbrs in bound]


def _agree(runs) -> bool:
    """Whether every run (see ``_runs``) answered as the first did."""
    listed = [lists for _, _, lists, *_ in runs if lists is not None]
    return all(pairs == runs[0][1] for _, pairs, *_ in runs) and all(
        lists == listed[0] for lists in listed
    )


def _execute(ops, stores, wall=None):
    """``_judge`` over ``_runs``: the stream through every store, ``_CHUNK`` ops at a time.

    Returns None on full agreement, else (index, op, answers) for the first
    op on which the stores disagree, with ``answers`` as (name, answer)
    pairs in store order; a store whose ``enumerates`` is False (the bare
    edge hash) takes no part in ``nbrs`` ops.
    A store that raises stops at that op, and the earliest op decides the
    outcome: at one op an exception beats a disagreement, and of two stores
    raising at the same op the first in store order wins, so the outcome is
    the one an op-by-op run gives. ``wall`` optionally accumulates
    per-(structure, class) nanoseconds spent in the stores' runs of
    same-class calls (see ``_run_chunk``).
    """
    return _judge(ops, _runs(ops, stores), wall)


def _judge(ops, chunks, wall):
    """``_execute``'s outcome from each chunk's runs (see ``_runs``), wherever they ran."""
    for start, runs in zip(range(0, len(ops), _CHUNK), chunks):
        stop, error = _CHUNK, None
        for name, _, _, spent, done, exc in runs:
            if wall is not None:
                for cls, ns in zip(OP_CLASSES, spent):
                    wall[name, cls] += ns
            if exc is not None and done < stop:
                stop, error = done, exc
        if error is None and _agree(runs):
            continue
        p = q = 0
        for i, op in enumerate(ops[start:start + stop]):
            if op[0] == "nbrs":
                answers = [(name, lists[q]) for name, _, lists, *_ in runs if lists is not None]
                q += 1
            else:
                answers = [(name, pairs[p]) for name, pairs, *_ in runs]
                p += 1
            if any(other != answers[0][1] for _, other in answers[1:]):
                return start + i, op, answers
        if error is not None:
            raise error
    return None


def _can_split(structures) -> bool:
    """Whether a split run may fork here: three or more structures, ``os.fork`` and
    ``os.sched_getaffinity`` present, two usable CPUs, and no other Python thread."""
    return (
        len(structures) >= 3
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _serve(ops, spec, names, hash_mode, adds, out) -> None:
    """The child's half of a split run, over the stores ``names``.

    Per chunk it pickles the stores' runs (see ``_runs``) to ``out``, then
    the stores' ``_counted``. A store that raises, here or while built,
    ends the stream early: the short stream is the parent's error flag.
    """
    stores = _build_stores(spec, names, hash_mode, adds)
    for runs in _runs(ops, stores):
        if any(exc is not None for *_, exc in runs):
            return
        pickle.dump(runs, out)
        out.flush()
    pickle.dump(_counted(stores), out)


def _split_execute(ops, spec, structures, hash_mode, adds):
    """``_judge`` over this process's first and last store around a child's ``_serve``.

    Nothing more is read from the child once a store here has raised.
    Returns (``_counted`` of every store in structure order, wall) on full
    agreement; None on a failed fork, any disagreement, exception or short
    read. The child freezes its inherited heap out of its collections, never
    flushes the caller's stdio buffers, and leaves by ``os._exit`` once it
    has sent its counters. The parent reaps it whatever the outcome, and
    kills it first unless the run agreed to the end.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            gc.freeze()
            with open(w, "wb") as out:
                _serve(ops, spec, structures[1:-1], hash_mode, adds, out)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    result = None
    try:
        with open(r, "rb") as inp:
            stores = _build_stores(spec, (structures[0], structures[-1]), hash_mode, adds)

            def chunks():
                for first, last in _runs(ops, stores):
                    middle = pickle.load(inp) if first[-1] is None and last[-1] is None else []
                    yield [first, *middle, last]

            wall = {(name, cls): 0 for name in structures for cls in OP_CLASSES}
            if _judge(ops, chunks(), wall) is None:
                first, last = _counted(stores)
                result = [first, *pickle.load(inp), last], wall
    except Exception:
        pass  # the serial run decides, and alone raises or minimizes
    finally:
        if result is None:  # the child may still run: it sent no counters, or they went unread
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    return result


def _minimize(ops: list[tuple], fails: Callable[[list[tuple]], bool]) -> list[tuple]:
    """Shrink a failing stream by chunked bisection while it keeps failing."""
    current = list(ops)
    granularity = 2
    while len(current) >= 2:
        chunk = -(-len(current) // granularity)
        reduced = False
        for start in range(0, len(current), chunk):
            candidate = current[:start] + current[start + chunk:]
            if candidate and fails(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current


def run_workload(
    spec: WorkloadSpec,
    structures: Sequence[str] = ("hashlist", "multilist", "edgehash"),
    hash_mode: str = "mixer",
) -> BenchReport:
    """Execute one spec against the selected structures and report counters.

    Raises :class:`DifferentialMismatch` if any two structures ever
    disagree; the exception carries a minimized failing stream.

    A stream of at least ``_SPLIT_FROM`` ops over three or more structures
    runs split where ``_can_split`` allows: a forked child runs every store
    but the first and the last, and this process runs those two and
    compares each chunk's answers in the serial run's loop. On any
    disagreement, exception or failed fork the run starts again serially on
    fresh stores, so the report, the exception raised and the minimized
    stream are those of the serial run; only ``wall_ns`` can differ.
    """
    structures = tuple(structures)
    if not structures:
        raise ConfigError("no structure selected")
    for name in structures:
        if name not in STRUCTURE_NAMES:
            raise ConfigError(f"unknown structure {name!r}; choose from {STRUCTURE_NAMES}")
    if len(set(structures)) != len(structures):
        raise ConfigError("duplicate structure selection")

    ops = generate_ops(spec)
    adds = sum(1 for op in ops if op[0] == "add")
    split = None
    if len(ops) >= _SPLIT_FROM and _can_split(structures):
        split = _split_execute(ops, spec, structures, hash_mode, adds)
    if split is not None:
        counted, wall = split
    else:
        stores = _build_stores(spec, structures, hash_mode, adds)
        wall = {(name, cls): 0 for name, _ in stores for cls in OP_CLASSES}
        mismatch = _execute(ops, stores, wall)
        if mismatch is not None:
            index = mismatch[0]

            def fails(candidate: list[tuple]) -> bool:
                fresh = _build_stores(spec, structures, hash_mode, adds)
                return _execute(candidate, fresh) is not None

            minimized = _minimize(ops[: index + 1], fails)
            fresh = _build_stores(spec, structures, hash_mode, adds)
            final = _execute(minimized, fresh)
            raise DifferentialMismatch(minimized, final[0], final[1], final[2])
        counted = _counted(stores)

    report = BenchReport()
    for name, counters, slots in counted:
        for cls in OP_CLASSES:
            channel = counters.channel(cls)
            report.rows.append(
                BenchRow(
                    structure=name,
                    operation=cls,
                    count_ops=channel.ops,
                    mean_counter=channel.mean,
                    max_counter=channel.peak,
                    wall_ns=wall[name, cls],
                    slots_allocated=slots,
                )
            )
    return report


def scaling_sweep(
    base: WorkloadSpec,
    factors: Sequence[int],
    structures: Sequence[str] = ("hashlist", "multilist", "edgehash"),
    hash_mode: str = "mixer",
) -> list[tuple[int, BenchReport]]:
    """Run the base spec at several operation budgets (m scaled by factor).

    Store capacities are derived from each run's own add count, so the
    hash structures sit at the same load factor at every size; flat mean
    probe counts across factors are the constant-cost witness, while list
    scans grow with the mean degree.
    """
    results = []
    for factor in factors:
        if factor < 1:
            raise ConfigError("sweep factors must be >= 1")
        spec = replace(base, m=base.m * factor)
        results.append((factor, run_workload(spec, structures, hash_mode)))
    return results
