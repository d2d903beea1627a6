"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Complexity witnesses are operation counts (probes / node traversals), not
wall time; the only timed criterion is the differential run's 10-second
budget. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

from __future__ import annotations

import time
from fractions import Fraction

from graphstores import (
    EdgeHash,
    HashList,
    Lcg64,
    MultiList,
    MIN_CAPACITY,
    StoreConfig,
    WorkloadSpec,
    compat_hash,
    run_workload,
    scaling_sweep,
)
from graphstores.cli import main as cli_main

from _reference import reference_compat_hash


def report(num: int, name: str, problems: list[str]) -> None:
    status = "FAIL" if problems else "PASS"
    print(f"[criterion {num}] {name}: {status}")
    assert not problems, f"criterion {num} ({name}): " + "; ".join(problems[:5])


def test_criterion_1_differential_correctness():
    problems = []
    spec = WorkloadSpec(
        generator="uniform", n=1000, m=100_000, mix=(0.6, 0.2, 0.15, 0.05), seed=0xACCE91
    )
    start = time.perf_counter()
    # run_workload compares every answer across all four structures as it
    # goes (exact neighbor sequences included) and raises on disagreement
    report_rows = run_workload(spec, ("hashlist", "multilist", "edgehash", "oracle"))
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        problems.append(f"run took {elapsed:.2f}s, budget is 10s")
    ops_covered = sum(row.count_ops for row in report_rows.rows if row.structure == "hashlist")
    if ops_covered != spec.m:
        problems.append(f"expected {spec.m} ops executed, counted {ops_covered}")
    report(1, f"differential correctness ({elapsed:.2f}s)", problems)


def test_criterion_2_search_cost_independent_of_degree():
    problems = []
    hash_means = {}
    for degree in (1_000, 10_000):
        n = degree + 1
        hl = HashList(StoreConfig(vertex_count=n, expected_edges=degree))
        ml = MultiList(n, degree)
        for y in range(1, degree + 1):
            hl.add_edge(0, y)
            ml.add_edge(0, y)
        if hl.load_factor > 0.7:
            problems.append(f"load {hl.load_factor:.2f} above 0.7 at degree {degree}")
        rng = Lcg64(degree)
        queries = [1 + rng.next_below(degree) for _ in range(1000)]
        hl.counters.reset()
        ml.counters.reset()
        for y in queries:
            if not (hl.contains(0, y) and ml.contains(0, y)):
                problems.append(f"star edge (0, {y}) missing")
        hash_means[degree] = hl.counters.contains.mean
        list_mean = ml.counters.contains.mean
        if hash_means[degree] > 4.0:
            problems.append(f"hash mean probes {hash_means[degree]:.2f} > 4.0 at degree {degree}")
        if list_mean < degree / 4:
            problems.append(f"list mean traversals {list_mean:.0f} < K/4 at degree {degree}")
    if hash_means[10_000] > 1.10 * hash_means[1_000]:
        problems.append(
            f"hash probes grew {hash_means[1_000]:.3f} -> {hash_means[10_000]:.3f} (>10%)"
        )
    report(2, "membership cost flat in degree", problems)


def test_criterion_3_enumeration_touches_exactly_degree():
    problems = []
    n, adds = 1000, 100_000
    rng = Lcg64(0x5EED)
    hl = HashList(StoreConfig(vertex_count=n, expected_edges=adds))
    ml = MultiList(n, adds)
    degree = [0] * n
    for _ in range(adds):
        x, y = rng.next_below(n), rng.next_below(n)
        if hl.add_edge(x, y):
            degree[x] += 1
        ml.add_edge(x, y)
    for x in range(n):
        for store in (hl, ml):
            before = store.counters.enumerate.total
            seq = store.neighbors(x)
            touched = store.counters.enumerate.total - before
            if touched != degree[x] or len(seq) != degree[x]:
                problems.append(
                    f"vertex {x}: touched {touched}, |seq| {len(seq)}, degree {degree[x]}"
                )
                break
    if sum(degree) != hl.edge_count:
        problems.append("degree total does not match edge count")
    report(3, "enumeration touch count equals degree", problems)


def test_criterion_4_add_cost_flat_across_sizes():
    problems = []
    base = WorkloadSpec(generator="uniform", n=1000, m=10_000, mix=(1.0, 0.0, 0.0, 0.0), seed=4)
    results = scaling_sweep(base, [1, 2, 4], structures=("hashlist",))
    means = [rep.find("hashlist", "add").mean_counter for _, rep in results]
    for factor, mean in zip((1, 2, 4), means):
        if mean > 3.0:
            problems.append(f"mean add probes {mean:.3f} > 3.0 at factor {factor}")
    if max(means) > 1.10 * min(means):
        problems.append(f"add probes not flat within 10%: {['%.3f' % m for m in means]}")
    report(4, "insertion cost flat across sizes", problems)


def test_criterion_5_linear_memory_bound():
    problems = []
    mlf = Fraction(1, 2)  # the stores' fixed maximum load factor
    rng = Lcg64(0xBEEF)
    n = 1000
    for edges in (100, 1_000, 12_345, 50_000):
        for store_cls in (HashList, EdgeHash):
            store = store_cls(StoreConfig(vertex_count=n, expected_edges=1))
            added = 0
            while added < edges:
                if store.add_edge(rng.next_below(n), rng.next_below(n)):
                    added += 1
            cap = store.slots_allocated
            if cap & (cap - 1):
                problems.append(f"{store_cls.__name__}: capacity {cap} not a power of two")
            # exact bound: capacity <= 2E / max_load_factor once growth is active
            if cap > MIN_CAPACITY and cap * mlf.numerator > 2 * edges * mlf.denominator:
                problems.append(
                    f"{store_cls.__name__}: capacity {cap} exceeds 2*{edges}/{mlf}"
                )
            if store.edge_count != edges:
                problems.append(f"{store_cls.__name__}: lost edges at E={edges}")
    # duplicate-heavy sequences only shrink the occupied count, never the bound
    store = HashList(StoreConfig(vertex_count=8, expected_edges=1))
    for _ in range(10_000):
        store.add_edge(rng.next_below(8), rng.next_below(8))
    if store.slots_allocated * mlf.numerator > 2 * 10_000 * mlf.denominator:
        problems.append("duplicate-heavy sequence broke the bound")
    report(5, "allocated slots linear in edges", problems)


def test_criterion_6_compat_hash_bit_exact():
    problems = []
    for (x, y), expected in [((0, 333333), 0), ((1, 2), 74072), ((3, 4), 518506)]:
        if reference_compat_hash(x, y, 1_000_000) != expected:
            problems.append(f"reference oracle disagrees with frozen value for ({x}, {y})")
        if compat_hash(x, y, 1_000_000) != expected:
            problems.append(f"compat_hash({x}, {y}) != {expected}")
    rng = Lcg64(0xFACE)
    for _ in range(10_000):
        x = rng.next_below(2**32)
        y = rng.next_below(2**32)
        size = 1 + rng.next_below(2**24)
        if compat_hash(x, y, size) != reference_compat_hash(x, y, size):
            problems.append(f"mismatch at ({x}, {y}, {size})")
            break
    report(6, "legacy hash bit-exact", problems)


def _snapshot(store: HashList, n: int):
    contains = [[store.contains(x, y) for y in range(n)] for x in range(n)]
    neighbors = [store.neighbors(x) for x in range(n)]
    weights = {
        (x, y): store.get_weight(x, y)
        for x in range(n)
        for y in range(n)
        if contains[x][y]
    }
    return contains, neighbors, weights


def test_criterion_7_growth_transparency():
    problems = []
    n = 12
    for graph_id in range(1000):
        rng = Lcg64(graph_id + 1)
        store = HashList(
            StoreConfig(vertex_count=n, expected_edges=1, weighted=True)
        )
        weight_serial = 0
        while store.rebuilds < 2 and not problems:
            x, y = rng.next_below(n), rng.next_below(n)
            imminent = (
                store.edge_count + 1 > store.config.growth_limit(store.capacity)
            )
            if not imminent:
                if store.add_edge(x, y):
                    store.set_weight(x, y, weight_serial)
                    weight_serial += 1
                continue
            before = _snapshot(store, n)
            cap = store.capacity
            if store.rebuilds == 0:
                # first rebuild through the public grow(): strict identity
                store.grow()
                if store.capacity != 2 * cap:
                    problems.append(f"graph {graph_id}: grow() did not double capacity")
                if _snapshot(store, n) != before:
                    problems.append(f"graph {graph_id}: grow() changed observable state")
            else:
                # second rebuild triggered inside add_edge: everything but
                # the freshly added edge must read back unchanged
                was_new = store.add_edge(x, y)
                if store.capacity != 2 * cap:
                    problems.append(f"graph {graph_id}: add did not trigger the rebuild")
                after = _snapshot(store, n)
                for px in range(n):
                    expected_nbrs = before[1][px]
                    if was_new and px == x:
                        expected_nbrs = [y] + expected_nbrs
                    if after[1][px] != expected_nbrs:
                        problems.append(f"graph {graph_id}: neighbors({px}) changed")
                    for py in range(n):
                        expected = before[0][px][py] or (was_new and (px, py) == (x, y))
                        if after[0][px][py] != expected:
                            problems.append(f"graph {graph_id}: contains({px},{py}) flipped")
                for pair, w in before[2].items():
                    if after[2].get(pair) != w:
                        problems.append(f"graph {graph_id}: weight {pair} changed")
                if was_new:
                    store.set_weight(x, y, weight_serial)
                    weight_serial += 1
        if store.rebuilds < 2 and not problems:
            problems.append(f"graph {graph_id}: only {store.rebuilds} rebuilds")
        if problems:
            break
    report(7, "growth rebuilds are transparent", problems)


def test_criterion_8_bench_determinism(tmp_path):
    problems = []
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = cli_main(
            ["bench", "--gen", "uniform", "--n", "300", "--m", "20000", "--seed", "97",
             "--structures", "hashlist,multilist,edgehash,oracle", "--out", str(out)]
        )
        if code != 0:
            problems.append(f"bench exited {code}")
        outputs.append(out.read_text())

    def stable(text: str):
        rows = [line.split(",") for line in text.strip().split("\n")]
        # drop the wall_ns column; everything else must be identical
        return [r[:5] + r[6:] for r in rows]

    if stable(outputs[0]) != stable(outputs[1]):
        problems.append("mean_counter columns differ between identical runs")
    report(8, "bench output deterministic under fixed seed", problems)
