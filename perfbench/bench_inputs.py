"""Workload definitions and the seeded inputs each one runs.

Every workload is one graph plus one read stream. The same pipeline runs on
each: the three library stores phase by phase, the ``graphstores query`` CLI
over the graph and read stream written as files, and a differential
``run_workload`` over a spec of the workload's own. Workloads differ in the
input properties the stores' costs depend on: source-degree skew, whether
the hash tables are pre-sized or grow, the read mix, and working-set size.

Inputs come from ``numpy.random.default_rng(seed)`` only, so one seed gives
the same edges, queries, files and expected answers in any run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from graphstores import WorkloadSpec

#: Ops per timed batch. A batch is the unit the benchmark times, so per-op
#: timer cost stays out of the untraced phases (one timer pair per ~2 ms).
BATCH = 1024


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    edges: int  # distinct edges
    dup_frac: float  # duplicate re-adds, as a share of distinct edges
    hubs: int  # 0: uniform sources; else hubs that carry half the edges
    growing: bool  # hash stores start at expected_edges=1 and rebuild
    hits: int
    misses: int
    vertex_rounds: int  # neighbors of every vertex, this many times
    hub_rounds: int  # extra neighbors calls per hub
    random_neighbors: int  # neighbors of uniformly drawn vertices
    diff: tuple[str, int, int]  # (generator, n, m) for run_workload
    memory_scale: int  # tracemalloc build runs on edges / memory_scale

    def scaled(self) -> "Workload":
        """Copy with n, edges and hubs divided by memory_scale: same degree and load factor."""
        k = self.memory_scale
        return replace(self, n=self.n // k, edges=self.edges // k, hubs=self.hubs // k)

    def diff_spec(self, seed: int) -> WorkloadSpec:
        gen, n, m = self.diff
        return WorkloadSpec(generator=gen, n=n, m=m, seed=seed)


# Sizes are a quarter of n = 2**16, 2**18 edges so that one repetition of
# the whole pipeline takes 2-4 s and a 20 s run holds several repetitions.
WORKLOADS = {
    # Probe loop, mixer_hash and counter recording do nearly all the work:
    # mean degree 4, tables sized up front, about 6 MB per hash store.
    "uniform-presized": Workload(
        "uniform-presized", n=1 << 14, edges=1 << 16, dup_frac=0.25, hubs=0, growing=False,
        hits=1 << 15, misses=1 << 15, vertex_rounds=2, hub_rounds=0, random_neighbors=0,
        diff=("uniform", 4096, 1 << 15), memory_scale=8,
    ),
    # 256 hubs of out-degree ~128 carry half the edges, and the hash stores
    # grow from 16 slots (13 rebuilds): rebuild, chain walks and MultiList's
    # degree-linear scans dominate. Reads are enumerate-heavy.
    "skewed-growing": Workload(
        "skewed-growing", n=1 << 14, edges=1 << 16, dup_frac=0.25, hubs=256, growing=True,
        hits=1 << 13, misses=1 << 13, vertex_rounds=1, hub_rounds=8, random_neighbors=0,
        diff=("star", 1024, 1 << 13), memory_scale=8,
    ),
    # 2**17 reads (90% contains, split hits/misses, 10% neighbors) over a
    # weighted file with 10% duplicate lines: parsing, set_weight and result
    # formatting carry the largest share of the run here.
    "cli-query": Workload(
        "cli-query", n=1 << 14, edges=1 << 16, dup_frac=0.10, hubs=0, growing=False,
        hits=58982, misses=58982, vertex_rounds=0, hub_rounds=0, random_neighbors=13108,
        diff=("uniform", 1000, 1 << 14), memory_scale=8,
    ),
    # The work of ``graphstores selftest``: run_workload over uniform n=1000,
    # m=100000 with all four structures. Its own graph is small (degree 8,
    # under 1 MB per store), so the stores' working set stays in cache.
    "selftest": Workload(
        "selftest", n=1000, edges=1 << 13, dup_frac=0.05, hubs=0, growing=False,
        hits=1 << 13, misses=1 << 13, vertex_rounds=16, hub_rounds=0, random_neighbors=0,
        diff=("uniform", 1000, 100_000), memory_scale=2,
    ),
}


def batches(xs: list, ys: list | None = None) -> list:
    """Split one phase's arguments into BATCH-sized slices."""
    if ys is None:
        return [xs[i:i + BATCH] for i in range(0, len(xs), BATCH)]
    return [(xs[i:i + BATCH], ys[i:i + BATCH]) for i in range(0, len(xs), BATCH)]


@dataclass
class Inputs:
    """One workload's inputs and the answers the stores must give."""

    add_batches: list  # [(xs, ys)], the add stream with duplicates mixed in
    add_expected: list  # True for a new edge, False for a duplicate re-add
    hit_batches: list
    miss_batches: list
    nbr_batches: list  # [vs]
    nbr_expected: list  # newest-first target lists, one per neighbors call
    nbr_edges: int  # targets the neighbors phase returns in total
    graph_text: str  # edge-list file: the add stream with a weight per line
    query_text: str  # query file: every read of the workload, shuffled
    cli_expected: bytes  # the result file the CLI must write


def make_inputs(w: Workload, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    n, m = w.n, w.edges

    # Distinct edges in arrival order: draw candidates, keep first occurrences.
    cand = 2 * m + 1024
    src = rng.integers(0, n, cand)
    hubs = np.empty(0, dtype=np.int64)
    if w.hubs:
        hubs = rng.choice(n, w.hubs, replace=False)
        from_hub = rng.random(cand) < 0.5
        src = np.where(from_hub, hubs[rng.integers(0, w.hubs, cand)], src)
    dst = rng.integers(0, n, cand)
    codes = src * n + dst
    _, first = np.unique(codes, return_index=True)
    if len(first) < m:
        raise ValueError(f"{w.name}: only {len(first)} distinct edges drawn, need {m}")
    keep = np.sort(first)[:m]
    dx, dy = src[keep], dst[keep]
    edge_codes = codes[keep]

    # Duplicate re-adds, each a copy of an edge that arrived earlier.
    dups = round(m * w.dup_frac)
    total = m + dups
    is_dup = np.zeros(total, dtype=bool)
    is_dup[1 + rng.choice(total - 1, dups, replace=False)] = True
    is_new = ~is_dup
    seen = np.cumsum(is_new) - is_new
    order = np.empty(total, dtype=np.int64)
    order[is_new] = np.arange(m)
    order[is_dup] = (rng.random(dups) * seen[is_dup]).astype(np.int64)
    ax, ay = dx[order].tolist(), dy[order].tolist()

    hit = rng.integers(0, m, w.hits)
    hx, hy = dx[hit], dy[hit]
    # Misses draw sources as edges do, so a miss scans the same degrees a hit does.
    k = 2 * w.misses + 1024
    mx, my = dx[rng.integers(0, m, k)], rng.integers(0, n, k)
    absent = ~np.isin(mx * n + my, edge_codes)
    mx, my = mx[absent][: w.misses], my[absent][: w.misses]
    if len(mx) < w.misses:
        raise ValueError(f"{w.name}: only {len(mx)} misses drawn, need {w.misses}")

    nv = np.concatenate([
        np.tile(np.arange(n), w.vertex_rounds),
        np.repeat(hubs, w.hub_rounds),
        rng.integers(0, n, w.random_neighbors),
    ])
    rng.shuffle(nv)
    nv = nv.tolist()

    adj: list[list[int]] = [[] for _ in range(n)]
    for x, y in zip(dx.tolist(), dy.tolist()):
        adj[x].append(y)
    newest = [a[::-1] for a in adj]
    nbr_expected = [newest[v] for v in nv]

    hx, hy, mx, my = hx.tolist(), hy.tolist(), mx.tolist(), my.tolist()
    weights = rng.integers(1, 1000, total).tolist()
    graph_text = f"{n} {total}\n" + "".join(
        f"{x} {y} 0.{wt:03d}\n" for x, y, wt in zip(ax, ay, weights)
    )
    reads = [("C", x, y, "1") for x, y in zip(hx, hy)]
    reads += [("C", x, y, "0") for x, y in zip(mx, my)]
    reads += [("N", v) for v in nv]
    perm = rng.permutation(len(reads)).tolist()
    qlines, rlines = [], []
    for i in perm:
        q = reads[i]
        if q[0] == "C":
            qlines.append(f"C {q[1]} {q[2]}\n")
            rlines.append(q[3])
        else:
            qlines.append(f"N {q[1]}\n")
            rlines.append(" ".join(map(str, newest[q[1]])))

    return Inputs(
        add_batches=batches(ax, ay),
        add_expected=is_new.tolist(),
        hit_batches=batches(hx, hy),
        miss_batches=batches(mx, my),
        nbr_batches=batches(nv),
        nbr_expected=nbr_expected,
        nbr_edges=sum(map(len, nbr_expected)),
        graph_text=graph_text,
        query_text="".join(qlines),
        cli_expected=("\n".join(rlines) + "\n").encode(),
    )
