from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphstores.bench as bench_module
from graphstores import (
    CSV_HEADER,
    HASH_MODES,
    NONE,
    CapacityError,
    ConfigError,
    DifferentialMismatch,
    HashList,
    Lcg64,
    MultiList,
    WorkloadSpec,
    generate_ops,
    run_workload,
    scaling_sweep,
)
from graphstores.bench import GENERATORS, STRUCTURE_NAMES
from graphstores.cli import SELFTEST_SPEC
from graphstores.counters import OP_CLASSES

from _reference import EdgeSetOracle, op_by_op_execute

CHUNK = bench_module._CHUNK

#: The class ``bench`` builds for each structure name.
STORE_CLASSES = {
    "hashlist": "HashList",
    "multilist": "MultiList",
    "edgehash": "EdgeHash",
    "oracle": "OracleGraph",
}
FAULTS = ("lie", "reverse", "raise_add", "raise_has", "raise_nbrs")


def faulty_class(cls, fault: str, k: int):
    """``cls`` with one injected fault, switched on at the store's k-th call of that kind."""

    class Faulty(cls):
        def __init__(self, *args):
            super().__init__(*args)
            self.calls = 0

        if fault == "lie":
            def contains(self, x, y):
                self.calls += 1
                answer = cls.contains(self, x, y)
                return (not answer) if self.calls >= k and y % 3 == 0 else answer
        elif fault == "reverse":
            def neighbors(self, x):
                self.calls += 1
                out = cls.neighbors(self, x)
                return out[::-1] if self.calls >= k else out
        elif fault == "raise_nbrs":
            def neighbors(self, x):
                self.calls += 1
                if self.calls == k:
                    raise IndexError(f"injected {cls.__name__} failure at neighbors call {k}")
                return cls.neighbors(self, x)
        elif fault == "raise_add":
            def add_edge(self, x, y):
                self.calls += 1
                if self.calls == k:
                    raise CapacityError(f"injected {cls.__name__} failure at add call {k}")
                return cls.add_edge(self, x, y)
        else:
            def contains(self, x, y):
                self.calls += 1
                if self.calls == k:
                    raise CapacityError(f"injected {cls.__name__} failure at contains call {k}")
                return cls.contains(self, x, y)

    return Faulty


@st.composite
def differential_cases(draw, split: bool = False):
    """A spec, structures, hash mode, faults and chunk size. With ``split``: three or
    more structures, and streams of at most 300 ops in small chunks, so that a
    mismatch's stream minimizes quickly."""
    generator = draw(st.sampled_from(GENERATORS))
    n = draw(st.integers(4, 40))
    long = st.nothing() if split else st.integers(CHUNK + 1, CHUNK + 300)
    m = draw(st.one_of(st.integers(0, 300), long))
    weights = [draw(st.integers(0, 6)) for _ in range(4)]
    weights[0] += not any(weights)
    mix = tuple(w / sum(weights) for w in weights)
    spec = WorkloadSpec(generator, n=n, m=m, mix=mix, seed=draw(st.integers(0, 2**64 - 1)))
    structures = tuple(draw(st.permutations(STRUCTURE_NAMES))[: draw(st.integers(3 if split else 1, 4))])
    faults = draw(
        st.dictionaries(
            st.sampled_from(structures),
            st.tuples(st.sampled_from(FAULTS), st.integers(1, max(1, m // 3))),
            min_size=1,
            max_size=2,
        )
    )
    chunk = draw(st.sampled_from([1, 2, 7, 64] if split else [1, 2, 7, 64, CHUNK]))
    return spec, structures, draw(st.sampled_from(HASH_MODES)), faults, chunk


def run_executor(execute, ops, spec, structures, hash_mode, adds):
    """Outcome of one executor on fresh stores, plus per-store counters on agreement."""
    stores = bench_module._build_stores(spec, structures, hash_mode, adds)
    wall = {(name, cls): 0 for name in structures for cls in OP_CLASSES}
    try:
        result = execute(ops, stores, wall)
    except Exception as exc:
        return ("raised", type(exc), str(exc)), None
    if result is not None:
        return ("mismatch", result), None
    counters = []
    for name, store in stores:
        for cls in OP_CLASSES:
            channel = store.counters.channel(cls)
            counters.append((name, cls, channel.ops, channel.total, channel.peak))
    return ("agree", None), counters


class TestLcg64:
    def test_reproducible(self):
        a, b = Lcg64(12345), Lcg64(12345)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_constants_pinned(self):
        # first step of the documented recurrence, computed independently
        seed = 42
        expected = (seed * 6364136223846793005 + 1442695040888963407) % 2**64
        assert Lcg64(seed).next_u64() == expected

    def test_next_below_range(self):
        rng = Lcg64(7)
        draws = [rng.next_below(13) for _ in range(5000)]
        assert set(draws) == set(range(13))

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_block_draws_are_the_scalar_stream(self, seed):
        # generate_ops draws its states a numpy block at a time; they must be
        # next_u64's draw for draw, across block boundaries, as plain ints.
        blocks = bench_module._lcg_blocks(seed)
        drawn = [state for _ in range(3) for state in next(blocks)] + next(blocks)[:5]
        assert len(drawn) == 3 * bench_module._LCG_BLOCK + 5
        rng = Lcg64(seed)
        assert drawn == [rng.next_u64() for _ in drawn]
        assert all(type(state) is int for state in drawn)


class TestWorkloadSpec:
    def test_valid(self):
        WorkloadSpec("uniform", n=10, m=100)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(generator="ring", n=10, m=10),
            dict(generator="uniform", n=0, m=10),
            dict(generator="star", n=1, m=10),
            dict(generator="grid", n=3, m=10),
            dict(generator="uniform", n=10, m=-1),
            dict(generator="uniform", n=10, m=10, mix=(0.5, 0.5, 0.5, 0.5)),
            dict(generator="uniform", n=10, m=10, mix=(1.5, -0.5, 0, 0)),
            dict(generator="uniform", n=10, m=10, seed=2**64),
            # NaN passes both "f < 0" and the sum test, as it compares false
            dict(generator="uniform", n=10, m=10, mix=(float("nan"), 0, 0, 1)),
            dict(generator="uniform", n=10, m=10, mix=(0.5, float("nan"), 0.5, 0)),
            # sizes and seeds must be integers, not values that merely compare like them
            dict(generator="uniform", n=10.5, m=20),
            dict(generator="uniform", n="10", m=20),
            dict(generator="uniform", n=None, m=20),
            dict(generator="uniform", n=10, m=20.5),
            dict(generator="uniform", n=10, m="20"),
            dict(generator="uniform", n=10, m=None),
            dict(generator="uniform", n=10, m=20, seed=1.5),
            dict(generator="uniform", n=10, m=20, seed="1"),
            dict(generator="uniform", n=10, m=20, seed=None),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            WorkloadSpec(**kwargs)

    def test_size_messages(self):
        with pytest.raises(ConfigError, match="^n must be positive$"):
            WorkloadSpec("uniform", n=0, m=10)
        with pytest.raises(ConfigError, match="^m must be nonnegative$"):
            WorkloadSpec("uniform", n=10, m=-1)
        with pytest.raises(ConfigError, match="^seed must fit in 64 bits$"):
            WorkloadSpec("uniform", n=10, m=10, seed=-1)
        with pytest.raises(ConfigError, match="^n must be an integer, got 10.5$"):
            WorkloadSpec("uniform", n=10.5, m=10)

    def test_numpy_integers_are_kept_as_ints(self):
        spec = WorkloadSpec("grid", n=np.int64(16), m=np.uint32(20), seed=np.uint64(2**64 - 1))
        assert (spec.n, spec.m, spec.seed) == (16, 20, 2**64 - 1)
        assert all(type(v) is int for v in (spec.n, spec.m, spec.seed))
        assert generate_ops(spec) == generate_ops(WorkloadSpec("grid", n=16, m=20, seed=2**64 - 1))


class TestGenerateOps:
    def test_byte_for_byte_determinism(self):
        spec = WorkloadSpec("uniform", n=50, m=5000, seed=99)
        assert repr(generate_ops(spec)) == repr(generate_ops(spec))

    def test_different_seeds_differ(self):
        a = generate_ops(WorkloadSpec("uniform", n=50, m=500, seed=1))
        b = generate_ops(WorkloadSpec("uniform", n=50, m=500, seed=2))
        assert a != b

    def test_stream_well_formed(self):
        spec = WorkloadSpec("uniform", n=30, m=4000, seed=4)
        ops = generate_ops(spec)
        assert len(ops) == 4000
        shadow = EdgeSetOracle(30)
        for op in ops:
            if op[0] == "add":
                shadow.add(op[1], op[2])
            elif op[0] == "nbrs":
                assert 0 <= op[1] < 30
            else:
                assert op[0] == "has"
            for v in op[1:]:
                assert 0 <= v < 30

    def test_hit_queries_target_present_edges(self):
        # replaying the shadow: every hit drawn from edges added earlier
        spec = WorkloadSpec("uniform", n=20, m=3000, mix=(0.3, 0.7, 0.0, 0.0), seed=5)
        ops = generate_ops(spec)
        shadow = EdgeSetOracle(20)
        for op in ops:
            if op[0] == "add":
                shadow.add(op[1], op[2])
            elif shadow.edges:
                assert shadow.has(op[1], op[2])

    def test_miss_queries_target_absent_edges(self):
        spec = WorkloadSpec("uniform", n=40, m=3000, mix=(0.3, 0.0, 0.7, 0.0), seed=6)
        shadow = EdgeSetOracle(40)
        for op in generate_ops(spec):
            if op[0] == "add":
                shadow.add(op[1], op[2])
            elif op[0] == "has":
                assert not shadow.has(op[1], op[2])

    def test_star_ops_center_out(self):
        for op in generate_ops(WorkloadSpec("star", n=50, m=1000, seed=3)):
            if op[0] == "add":
                assert op[1] == 0 and op[2] != 0

    def test_mix_fractions_respected(self):
        spec = WorkloadSpec("uniform", n=100, m=20_000, seed=8)
        ops = generate_ops(spec)
        adds = sum(1 for op in ops if op[0] == "add")
        nbrs = sum(1 for op in ops if op[0] == "nbrs")
        assert abs(adds / len(ops) - 0.6) < 0.02
        assert abs(nbrs / len(ops) - 0.05) < 0.01


#: Specs whose streams are pinned. The miss-heavy ones sit on n = 2, so their misses run
#: out of absent pairs: star's fall back to a spoke-to-hub pair, uniform's to an enumerate.
PINNED_SPECS = {
    "uniform": dict(generator="uniform", n=300, m=3000),
    "star": dict(generator="star", n=300, m=3000),
    "grid": dict(generator="grid", n=300, m=3000),
    "star-miss-heavy": dict(generator="star", n=2, m=400, mix=(0.3, 0.0, 0.7, 0.0)),
    "uniform-miss-heavy": dict(generator="uniform", n=2, m=400, mix=(0.3, 0.0, 0.7, 0.0)),
}
#: Leading 32 hex digits of sha256(repr(generate_ops(spec))).
PINNED_STREAMS = {
    ("uniform", 0): "db8e7932945836f75b9cc0071365b5fe",
    ("star", 0): "e021815cb7687ae2cec70b6d664d6411",
    ("grid", 0): "ec49744c91d62c9dd941037beb99e48d",
    ("star-miss-heavy", 0): "6e41a53640d410c11fff1b3cb972b863",
    ("uniform-miss-heavy", 0): "5903b25ca67949633ec86e2f33e1ac5f",
    ("uniform", 1): "6ddd06c732faa30db45e6b73918aa217",
    ("star", 1): "d249b30cb6735ca655a7c59db3137505",
    ("grid", 1): "a82fc00956058ba7f9c6e5120a231288",
    ("star-miss-heavy", 1): "80d3dac2650f30a24124ffa656cbdab1",
    ("uniform-miss-heavy", 1): "d6db62e24734ab81c78f7868070d48ae",
    ("uniform", 2**64 - 1): "dd3adf530cf3e344f759cd90f0e88639",
    ("star", 2**64 - 1): "3171b07964ffa50e9b96e76fcab1554b",
    ("grid", 2**64 - 1): "b35c6267f04e96a05c6d1da159f3e757",
    ("star-miss-heavy", 2**64 - 1): "3523906be2b35462f855fb421da390c8",
    ("uniform-miss-heavy", 2**64 - 1): "d34d5230d26feef2bc7bc70361023cfa",
}


@pytest.mark.parametrize("name,seed", list(PINNED_STREAMS))
def test_generate_ops_stream_pinned(name, seed):
    """The exact stream for each pinned spec and seed, so a faster generator can be
    checked op for op; the miss-heavy specs show that both fallbacks fired."""
    ops = generate_ops(WorkloadSpec(seed=seed, **PINNED_SPECS[name]))
    assert hashlib.sha256(repr(ops).encode()).hexdigest()[:32] == PINNED_STREAMS[name, seed]
    if name == "star-miss-heavy":
        assert ("has", 1, 0) in ops  # star never adds (1, 0); only the fallback asks it
    if name == "uniform-miss-heavy":
        assert any(op[0] == "nbrs" for op in ops)  # the mix has no enumerates


#: Streams long enough to draw many blocks of LCG states: the selftest spec
#: (about 276,000 draws) and a grid spec (about 55,000), with the leading 32 hex
#: digits of sha256(repr(generate_ops(spec))) as the scalar ``Lcg64`` gave them.
LONG_STREAMS = [
    (SELFTEST_SPEC, "55e53c5cd734a8cd345b6efba0418116"),
    (WorkloadSpec("grid", n=400, m=20_000, seed=7), "f62c9390b0054e11f1f1e7ec72517266"),
]


@pytest.mark.parametrize("spec,digest", LONG_STREAMS, ids=["selftest", "grid"])
def test_long_stream_pinned(spec, digest):
    ops = generate_ops(spec)
    assert hashlib.sha256(repr(ops).encode()).hexdigest()[:32] == digest


class TestRunWorkload:
    @pytest.mark.parametrize("generator", ["uniform", "star", "grid"])
    def test_all_structures_agree(self, generator):
        spec = WorkloadSpec(generator, n=64, m=4000, seed=11)
        report = run_workload(spec, ("hashlist", "multilist", "edgehash", "oracle"))
        assert len(report.rows) == 4 * 3

    def test_compat_mode_agrees(self):
        spec = WorkloadSpec("uniform", n=64, m=3000, seed=12)
        run_workload(spec, ("hashlist", "multilist", "edgehash", "oracle"), hash_mode="paper_compat")

    def test_counter_determinism(self):
        spec = WorkloadSpec("uniform", n=80, m=5000, seed=13)
        a = run_workload(spec, ("hashlist", "multilist"))
        b = run_workload(spec, ("hashlist", "multilist"))
        strip = lambda rows: [
            (r.structure, r.operation, r.count_ops, r.mean_counter, r.max_counter, r.slots_allocated)
            for r in rows
        ]
        assert strip(a.rows) == strip(b.rows)

    def test_enumerate_counts_equal_across_list_stores(self):
        spec = WorkloadSpec("uniform", n=50, m=4000, seed=14)
        report = run_workload(spec, ("hashlist", "multilist", "oracle"))
        totals = {
            name: report.find(name, "enumerate")
            for name in ("hashlist", "multilist", "oracle")
        }
        base = totals["hashlist"]
        for row in totals.values():
            assert row.count_ops == base.count_ops
            assert row.mean_counter == base.mean_counter

    def test_uniform_hash_contains_cheap(self):
        spec = WorkloadSpec("uniform", n=1000, m=100_000, seed=19)
        report = run_workload(spec, ("hashlist", "edgehash"))
        assert report.find("hashlist", "contains").mean_counter <= 4.0
        assert report.find("edgehash", "contains").mean_counter <= 4.0

    def test_star_contrast_through_workload(self):
        # membership on the star center: chain scans grow with degree,
        # probing does not
        spec = WorkloadSpec("star", n=2001, m=5000, seed=20)
        report = run_workload(spec, ("hashlist", "multilist"))
        list_mean = report.find("multilist", "contains").mean_counter
        hash_mean = report.find("hashlist", "contains").mean_counter
        assert hash_mean <= 4.0
        assert list_mean >= 50 * hash_mean

    def test_enumerate_total_is_sum_of_degrees_seen(self):
        spec = WorkloadSpec("uniform", n=50, m=4000, seed=14)
        ops = generate_ops(spec)
        shadow = EdgeSetOracle(50)
        expected_total = 0
        expected_ops = 0
        for op in ops:
            if op[0] == "add":
                shadow.add(op[1], op[2])
            elif op[0] == "nbrs":
                expected_total += len(shadow.newest_first(op[1]))
                expected_ops += 1
        row = run_workload(spec, ("hashlist",)).find("hashlist", "enumerate")
        assert row.count_ops == expected_ops
        assert row.mean_counter == expected_total / expected_ops

    def test_unknown_structure_rejected(self):
        with pytest.raises(ConfigError):
            run_workload(WorkloadSpec("uniform", n=10, m=10), ("btree",))
        with pytest.raises(ConfigError, match="^duplicate structure selection$"):
            run_workload(WorkloadSpec("uniform", n=10, m=10), ("hashlist", "edgehash", "hashlist"))

    def test_oracle_size_cap(self):
        with pytest.raises(ConfigError):
            run_workload(WorkloadSpec("uniform", n=5000, m=10), ("oracle",))

    def test_csv_schema(self):
        spec = WorkloadSpec("uniform", n=30, m=500, seed=2)
        report = run_workload(spec, ("hashlist",))
        with pytest.raises(KeyError):
            report.find("multilist", "add")
        csv = report.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3
        assert all(len(line.split(",")) == 7 for line in lines[1:])


class TestScalingSweep:
    def test_flat_hash_costs_growing_list_costs(self):
        base = WorkloadSpec("uniform", n=500, m=10_000, seed=21)
        results = scaling_sweep(base, [1, 2, 4], ("hashlist", "multilist"))
        hash_adds = [rep.find("hashlist", "add").mean_counter for _, rep in results]
        list_contains = [rep.find("multilist", "contains").mean_counter for _, rep in results]
        spread = max(hash_adds) / min(hash_adds)
        assert spread <= 1.10
        # mean degree doubles with m, so list scans roughly double
        assert list_contains[2] > list_contains[0] * 2
        assert hash_adds[0] <= 3.0

    def test_rejects_bad_factor(self):
        with pytest.raises(ConfigError):
            scaling_sweep(WorkloadSpec("uniform", n=10, m=10), [0])


class TestExecuteMatchesOpByOp:
    @settings(max_examples=40, deadline=None)
    @given(differential_cases())
    def test_same_outcome_as_op_by_op(self, case):
        spec, structures, hash_mode, faults, chunk = case
        ops = generate_ops(spec)
        adds = sum(1 for op in ops if op[0] == "add")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench_module, "_CHUNK", chunk)
            for name, (fault, k) in faults.items():
                attr = STORE_CLASSES[name]
                mp.setattr(bench_module, attr, faulty_class(getattr(bench_module, attr), fault, k))
            got = run_executor(bench_module._execute, ops, spec, structures, hash_mode, adds)
            want = run_executor(op_by_op_execute, ops, spec, structures, hash_mode, adds)
        assert got == want

    def test_mismatch_past_the_first_chunk_has_its_global_index(self):
        spec = WorkloadSpec("uniform", n=50, m=2 * CHUNK + 100, seed=23)
        ops = generate_ops(spec)
        adds = sum(1 for op in ops if op[0] == "add")
        has_at = [i for i, op in enumerate(ops) if op[0] == "has"]
        k = next(j for j, i in enumerate(has_at) if i > CHUNK + 10) + 1
        expected = next(i for i in has_at[k - 1:] if ops[i][2] % 3 == 0)
        stores = bench_module._build_stores(spec, ("hashlist", "oracle"), "mixer", adds)
        stores.insert(1, ("multilist", faulty_class(MultiList, "lie", k)(spec.n, adds)))
        index, op, answers = bench_module._execute(ops, stores)
        assert CHUNK < index == expected
        assert op == ops[expected]
        assert [name for name, _ in answers] == ["hashlist", "multilist", "oracle"]
        answers = dict(answers)
        assert answers["multilist"] != answers["oracle"] == answers["hashlist"]

    @pytest.mark.parametrize("mix", [(0.6, 0.2, 0.15, 0.05), (0.5, 0.3, 0.2, 0.0)])
    def test_wall_time_recorded_exactly_where_ops_ran(self, mix):
        spec = WorkloadSpec("uniform", n=64, m=CHUNK + 500, mix=mix, seed=24)
        report = run_workload(spec, STRUCTURE_NAMES)
        assert any(row.count_ops == 0 for row in report.rows)
        for row in report.rows:
            assert (row.wall_ns > 0) == (row.count_ops > 0), row

    def test_wall_time_is_summed_per_store_and_class(self, monkeypatch):
        # A clock that ticks once per read times every maximal run of one store's
        # same-class calls within a chunk at 1 ns; the bare edge hash runs no nbrs
        # op, so its runs are those of the stream without them.
        ticks = iter(range(10**9))
        monkeypatch.setattr(bench_module, "perf_counter_ns", lambda: next(ticks))
        spec = WorkloadSpec("uniform", n=64, m=2 * CHUNK + 500, seed=24)
        ops = generate_ops(spec)
        report = run_workload(spec, STRUCTURE_NAMES)
        op_class = {"add": "add", "has": "contains", "nbrs": "enumerate"}
        for row in report.rows:
            runs = 0
            for start in range(0, len(ops), CHUNK):
                calls = [
                    op_class[op[0]]
                    for op in ops[start:start + CHUNK]
                    if op[0] != "nbrs" or row.structure != "edgehash"
                ]
                runs += sum(1 for cls, _ in groupby(calls) if cls == row.operation)
            assert row.wall_ns == runs, row
        assert report.find("edgehash", "enumerate").wall_ns == 0
        assert sum(row.wall_ns for row in report.rows) < sum(row.count_ops for row in report.rows)


def nth_op_index(ops, kind: str, k: int) -> int:
    """Global index of the k-th op of ``kind`` (1-based) in the stream."""
    return [i for i, op in enumerate(ops) if op[0] == kind][k - 1]


class TestHarnessCatchesStoreBugs:
    def test_dropped_chain_link_is_caught_and_minimized(self, monkeypatch):
        # A new edge seated in every 7th slot is threaded without its next
        # link: the vertex's older edges fall off the chain (no cycle).
        class DroppedLink(HashList):
            def add_edge(self, x, y):
                added = super().add_edge(x, y)
                slot = self._heads[x]
                if added and slot % 7 == 0:
                    self._next[slot] = NONE
                return added

        monkeypatch.setattr(bench_module, "HashList", DroppedLink)
        spec = WorkloadSpec("uniform", n=30, m=3000, seed=25)
        with pytest.raises(DifferentialMismatch) as excinfo:
            run_workload(spec, ("hashlist", "multilist", "edgehash", "oracle"))
        assert len(excinfo.value.ops) <= 4
        assert excinfo.value.op[0] == "nbrs"

    def test_exception_before_a_later_lie_propagates(self, monkeypatch):
        spec = WorkloadSpec("uniform", n=30, m=3000, seed=26)
        ops = generate_ops(spec)
        assert nth_op_index(ops, "add", 900) < nth_op_index(ops, "has", 700)
        monkeypatch.setattr(bench_module, "HashList", faulty_class(HashList, "lie", 700))
        monkeypatch.setattr(bench_module, "MultiList", faulty_class(MultiList, "raise_add", 900))
        with pytest.raises(CapacityError, match="MultiList failure at add call 900"):
            run_workload(spec, ("hashlist", "multilist", "oracle"))

    def test_first_store_in_order_wins_a_tie_of_exceptions(self, monkeypatch):
        monkeypatch.setattr(bench_module, "HashList", faulty_class(HashList, "raise_add", 50))
        monkeypatch.setattr(bench_module, "MultiList", faulty_class(MultiList, "raise_add", 50))
        spec = WorkloadSpec("uniform", n=30, m=3000, seed=26)
        with pytest.raises(CapacityError, match="MultiList failure at add call 50"):
            run_workload(spec, ("multilist", "hashlist", "oracle"))

    @pytest.mark.parametrize("fault, kind, k", [("raise_add", "add", 1500), ("raise_nbrs", "nbrs", 100)])
    def test_lie_before_a_later_exception_is_a_mismatch(self, monkeypatch, fault, kind, k):
        spec = WorkloadSpec("uniform", n=30, m=3000, seed=26)
        ops = generate_ops(spec)
        assert nth_op_index(ops, "has", 3) < nth_op_index(ops, kind, k)
        monkeypatch.setattr(bench_module, "HashList", faulty_class(HashList, "lie", 3))
        monkeypatch.setattr(bench_module, "MultiList", faulty_class(MultiList, fault, k))
        with pytest.raises(DifferentialMismatch) as excinfo:
            run_workload(spec, ("hashlist", "multilist", "oracle"))
        answers = dict(excinfo.value.answers)
        assert answers["hashlist"] != answers["multilist"] == answers["oracle"]


class TestMismatchShrinking:
    def test_broken_store_yields_minimized_stream(self, monkeypatch):
        # corrupt the build: membership lies whenever the target is even
        original = HashList.contains

        def lying_contains(self, x, y):
            answer = original(self, x, y)
            return False if y % 2 == 0 else answer

        monkeypatch.setattr(bench_module.HashList, "contains", lying_contains)
        spec = WorkloadSpec("uniform", n=30, m=3000, seed=17)
        with pytest.raises(DifferentialMismatch) as excinfo:
            run_workload(spec, ("hashlist", "multilist", "oracle"))
        err = excinfo.value
        # bisection should strip the stream to an add plus the lying query
        assert len(err.ops) <= 4
        assert err.op[0] == "has"
        answers = dict(err.answers)
        assert answers["hashlist"] != answers["oracle"]

    def test_message_mentions_stream(self, monkeypatch):
        monkeypatch.setattr(
            bench_module.HashList, "add_edge", lambda self, x, y: True
        )
        spec = WorkloadSpec("uniform", n=10, m=500, seed=18)
        with pytest.raises(DifferentialMismatch) as excinfo:
            run_workload(spec, ("hashlist", "oracle"))
        assert "minimized stream" in str(excinfo.value)
        ops = [("add", i, 0) for i in range(23)]
        long = str(DifferentialMismatch(ops, 22, ops[22], [("hashlist", True), ("oracle", False)]))
        assert long.endswith(", ('add', 19, 0), ... (3 more)]") and "('add', 20, 0)" not in long


#: Whether this host and test process can fork a split run at all.
CAN_SPLIT = bench_module._can_split(STRUCTURE_NAMES)
needs_split = pytest.mark.skipif(not CAN_SPLIT, reason="no split run here: one CPU or no fork")
ROOT = Path(__file__).resolve().parent.parent


def workload_outcome(spec, structures, hash_mode="mixer"):
    """run_workload's outcome as comparable data: the report's rows but ``wall_ns``,
    the mismatch's stream and answers, or the exception's class and message."""
    try:
        report = run_workload(spec, structures, hash_mode)
    except DifferentialMismatch as exc:
        return ("mismatch", exc.ops, exc.index, exc.op, exc.answers), None
    except Exception as exc:
        return ("raised", type(exc), str(exc)), None
    rows = [(r.structure, r.operation, r.count_ops, r.mean_counter, r.max_counter, r.slots_allocated)
            for r in report.rows]
    return ("agree", rows), report


def assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def spy_split(mp) -> list:
    """Record, per split run, whether it ran to the end (True) or fell back (False)."""
    seen = []
    split = bench_module._split_execute

    def spy(*args):
        result = split(*args)
        seen.append(result is not None)
        return result

    mp.setattr(bench_module, "_split_execute", spy)
    return seen


def refuse_fork(mp) -> list:
    """Make ``os.fork`` fail with OSError and record each attempt."""
    calls = []

    def fork():
        calls.append(1)
        raise OSError("fork refused")

    mp.setattr(os, "fork", fork)
    return calls


@needs_split
class TestSplitRun:
    """A stream run split over two processes gives the serial outcome exactly."""

    @settings(max_examples=40, deadline=None)
    @given(differential_cases(split=True))
    def test_split_gives_the_serial_outcome(self, case):
        spec, structures, hash_mode, faults, chunk = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench_module, "_CHUNK", chunk)
            for name, (fault, k) in faults.items():
                attr = STORE_CLASSES[name]
                mp.setattr(bench_module, attr, faulty_class(getattr(bench_module, attr), fault, k))
            mp.setattr(bench_module, "_SPLIT_FROM", 2**63)
            want, _ = workload_outcome(spec, structures, hash_mode)
            mp.setattr(bench_module, "_SPLIT_FROM", 0)
            seen = spy_split(mp)
            got, report = workload_outcome(spec, structures, hash_mode)
        assert_no_child()
        assert got == want
        # the split runs to the end exactly when the stores agree, and falls back otherwise
        assert seen == [want[0] == "agree"]
        if report is not None:
            for row in report.rows:
                assert (row.wall_ns > 0) == (row.count_ops > 0), row

    SPEC = WorkloadSpec("uniform", n=30, m=3 * CHUNK, seed=26)
    ALL = ("hashlist", "multilist", "edgehash", "oracle")

    def serial(self, structures=ALL):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench_module, "_SPLIT_FROM", 2**63)
            return workload_outcome(self.SPEC, structures)[0]

    @pytest.mark.parametrize("fault,store,k", [
        (None, None, 0),
        ("lie", "hashlist", 3),  # a mismatch in a store of the parent
        ("lie", "multilist", 3),  # a mismatch in a store of the child
        ("raise_add", "multilist", 5000),  # a store raising in the child, past the first chunk
        ("raise_add", "hashlist", 5000),  # a store raising in the parent
    ])
    def test_each_outcome_leaves_no_child(self, monkeypatch, fault, store, k):
        if fault is not None:
            attr = STORE_CLASSES[store]
            monkeypatch.setattr(bench_module, attr, faulty_class(getattr(bench_module, attr), fault, k))
        want = self.serial()
        assert want[0] == ("agree" if fault is None else "raised" if fault == "raise_add" else "mismatch")
        monkeypatch.setattr(bench_module, "_SPLIT_FROM", 0)
        seen = spy_split(monkeypatch)
        assert workload_outcome(self.SPEC, self.ALL)[0] == want
        assert seen == [fault is None]
        assert_no_child()

    def test_a_fallback_kills_a_running_child(self, monkeypatch):
        """A parent whose own store raises falls back at once, without waiting for
        the child: a child stalled in its first add is reaped killed, and the serial
        run raises the store's exception."""
        parent = os.getpid()

        class Stalled(MultiList):
            def add_edge(self, x, y):
                if os.getpid() != parent and not self.edge_count:
                    time.sleep(60)  # once: a child left running would go on, and die of EPIPE
                return MultiList.add_edge(self, x, y)

        statuses = []
        waitpid = os.waitpid

        def spy(pid, options):
            reaped = waitpid(pid, options)
            statuses.append(reaped[1])
            return reaped

        monkeypatch.setattr(bench_module, "MultiList", Stalled)
        monkeypatch.setattr(bench_module, "HashList", faulty_class(HashList, "raise_add", 5))
        monkeypatch.setattr(os, "waitpid", spy)
        monkeypatch.setattr(bench_module, "_SPLIT_FROM", 0)
        with pytest.raises(CapacityError, match="HashList failure at add call 5"):
            run_workload(self.SPEC, self.ALL)
        assert len(statuses) == 1
        assert os.WIFSIGNALED(statuses[0]) and os.WTERMSIG(statuses[0]) == signal.SIGKILL
        assert_no_child()

    def test_exception_in_the_parent_mid_run_leaves_no_child(self, monkeypatch):
        agree = bench_module._agree
        calls = []

        def interrupted(runs):
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return agree(runs)

        monkeypatch.setattr(bench_module, "_agree", interrupted)
        monkeypatch.setattr(bench_module, "_SPLIT_FROM", 0)
        with pytest.raises(KeyboardInterrupt):
            run_workload(self.SPEC, self.ALL)
        assert len(calls) == 2
        assert_no_child()

    def test_two_structures_and_short_streams_stay_serial(self, monkeypatch):
        calls = refuse_fork(monkeypatch)
        monkeypatch.setattr(bench_module, "_SPLIT_FROM", self.SPEC.m + 1)
        assert workload_outcome(self.SPEC, self.ALL)[0] == self.serial()
        monkeypatch.setattr(bench_module, "_SPLIT_FROM", 0)
        assert workload_outcome(self.SPEC, self.ALL[:2])[0] == self.serial(self.ALL[:2])
        assert calls == []

    def test_another_thread_keeps_the_run_serial(self, monkeypatch):
        calls = refuse_fork(monkeypatch)
        monkeypatch.setattr(bench_module, "_SPLIT_FROM", 0)
        done = threading.Event()
        worker = threading.Thread(target=done.wait)
        worker.start()
        try:
            got = workload_outcome(self.SPEC, self.ALL)[0]
        finally:
            done.set()
            worker.join()
        assert calls == [] and got == self.serial()

    def test_one_usable_cpu_keeps_the_run_serial(self, monkeypatch):
        calls = refuse_fork(monkeypatch)
        monkeypatch.setattr(bench_module, "_SPLIT_FROM", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert workload_outcome(self.SPEC, self.ALL)[0] == self.serial()
        assert calls == []

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_missing_os_calls_keep_the_run_serial(self, monkeypatch, missing):
        calls = refuse_fork(monkeypatch)
        monkeypatch.delattr(os, missing)
        monkeypatch.setattr(bench_module, "_SPLIT_FROM", 0)
        assert workload_outcome(self.SPEC, self.ALL)[0] == self.serial()
        assert calls == []

    def test_failed_fork_falls_back_to_serial(self, monkeypatch):
        calls = refuse_fork(monkeypatch)
        monkeypatch.setattr(bench_module, "_SPLIT_FROM", 0)
        seen = spy_split(monkeypatch)
        assert workload_outcome(self.SPEC, self.ALL)[0] == self.serial()
        assert calls == [1] and seen == [False]
        assert_no_child()

    def test_selftest_prints_buffered_output_once(self):
        """The child never flushes the caller's stdio buffers: a print still in the
        buffer of a piped stdout when ``graphstores selftest`` forks appears once."""
        script = (
            "import os, sys\n"
            "forks = []\n"
            "fork = os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "print('printed before the selftest')\n"
            "from graphstores.cli import main\n"
            "code = main(['selftest'])\n"
            "print('forks', len(forks), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # keep stdout buffered
        env["PYTHONPATH"] = str(ROOT / "src")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("printed before the selftest") == 1
        assert done.stdout.count("selftest: PASS") == 1
        assert done.stderr.strip() == "forks 1"
