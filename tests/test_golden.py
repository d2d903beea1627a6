"""Golden pins: counter values and rebuild layouts, fixed as literals.

Criterion 8 only compares two runs of the same code, and the bench
pre-sizes its tables, so neither would notice a change that moved edges
to different slots after a rebuild. These literals were captured from a
known-good build; a refactor of the hash stores must reproduce them
exactly. The per-edge contains probe counts pin every edge's distance
from its home slot, which is the slot layout as far as any caller can see.
The CLI pins fix the result bytes of ``graphstores query`` for every
structure, hash mode and direction on one awkward edge-list file.
"""

from __future__ import annotations

import pytest

from graphstores import EdgeHash, HashList, Lcg64, StoreConfig
from graphstores.cli import main as cli_main

CRITERION_8_CSV = """\
structure,operation,count_ops,mean_counter,max_counter,slots_allocated
hashlist,add,12045,1.257285,13,32768
hashlist,contains,6918,1.188494,11,32768
hashlist,enumerate,1037,19.239151,53,32768
multilist,add,12045,19.382233,53,12046
multilist,contains,6918,14.311795,52,12046
multilist,enumerate,1037,19.239151,53,12046
edgehash,add,12045,1.257285,13,32768
edgehash,contains,6918,1.188494,11,32768
edgehash,enumerate,0,0.000000,0,32768
oracle,add,12045,1.000000,1,90000
oracle,contains,6918,1.000000,1,90000
oracle,enumerate,1037,19.239151,53,90000
"""


def test_criterion_8_csv_counter_columns(tmp_path):
    out = tmp_path / "bench.csv"
    code = cli_main(
        ["bench", "--gen", "uniform", "--n", "300", "--m", "20000", "--seed", "97",
         "--structures", "hashlist,multilist,edgehash,oracle", "--out", str(out)]
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")]
    stable = "".join(",".join(r[:5] + r[6:]) + "\n" for r in rows)  # drop wall_ns
    assert stable == CRITERION_8_CSV


# A star stream: one hub list of about 1,000 targets, most of its adds
# duplicates, so MultiList's add and contains counts pin scans far deeper than
# criterion 8's lists (at most 53 targets) reach.
STAR_CSV = """\
structure,operation,count_ops,mean_counter,max_counter,slots_allocated
hashlist,add,4896,1.035948,3,16384
hashlist,contains,2866,1.037334,3,16384
hashlist,enumerate,430,2.293023,986,16384
multilist,add,4896,463.065155,1015,4897
multilist,contains,2866,575.736218,1015,4897
multilist,enumerate,430,2.293023,986,4897
edgehash,add,4896,1.035948,3,16384
edgehash,contains,2866,1.037334,3,16384
edgehash,enumerate,0,0.000000,0,16384
oracle,add,4896,1.000000,1,1048576
oracle,contains,2866,1.000000,1,1048576
oracle,enumerate,430,2.293023,986,1048576
"""


def test_star_csv_counter_columns(tmp_path):
    out = tmp_path / "bench.csv"
    code = cli_main(
        ["bench", "--gen", "star", "--n", "1024", "--m", "8192", "--seed", "97",
         "--structures", "hashlist,multilist,edgehash,oracle", "--out", str(out)]
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")]
    stable = "".join(",".join(r[:5] + r[6:]) + "\n" for r in rows)  # drop wall_ns
    assert stable == STAR_CSV


N = 40
SHOWN = range(8)


def _grown(cls, hash_mode: str) -> dict:
    """Grow a store from expected_edges=1 through 3 rebuilds, then read it back."""
    weighted = cls is HashList
    store = cls(StoreConfig(vertex_count=N, expected_edges=1, hash_mode=hash_mode,
                            weighted=weighted))
    rng = Lcg64(0x601D)
    added = []
    while store.rebuilds < 3 or len(added) < 85:
        x, y = rng.next_below(N), rng.next_below(N)
        if store.add_edge(x, y):
            added.append((x, y))
            if weighted:
                store.set_weight(x, y, len(added))
        store.contains(rng.next_below(N), rng.next_below(N))
    got = {"rebuilds": store.rebuilds, "capacity": store.capacity,
           "edge_count": store.edge_count}
    if weighted:
        got["neighbors"] = [store.neighbors(x) for x in SHOWN]
        got["weights"] = [store.get_weight(x, y) for x, y in added[:8] + [(0, 0), (N - 1, 1)]]
    c = store.counters
    got["channels"] = [(ch.ops, ch.total, ch.peak) for ch in (c.add, c.contains, c.enumerate)]
    probes = []
    for x, y in added:
        before = c.contains.total
        assert store.contains(x, y)
        probes.append(c.contains.total - before)
    got["probes"] = probes
    return got


GOLDEN = {
    ("HashList", "mixer"): {
        "rebuilds": 3, "capacity": 128, "edge_count": 85,
        "neighbors": [[31], [14, 16, 9, 38], [35, 14, 15], [32, 38, 3, 18], [28, 0, 10, 3], [],
                      [33, 10], [21, 0, 24]],
        "weights": [1, 2, 3, 4, 5, 6, 7, 8, None, None],
        "channels": [(87, 197, 17), (87, 253, 14), (8, 21, 4)],
        "probes": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                   2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                   4, 1, 1, 1, 2, 1, 1, 5, 1, 1, 1, 2, 5, 1, 6, 4, 2, 6, 1, 1, 2, 5, 1, 7, 7, 1,
                   1, 6, 1, 2, 1, 2, 2],
    },
    ("HashList", "paper_compat"): {
        "rebuilds": 3, "capacity": 128, "edge_count": 85,
        "neighbors": [[31], [14, 16, 9, 38], [35, 14, 15], [32, 38, 3, 18], [28, 0, 10, 3], [],
                      [33, 10], [21, 0, 24]],
        "weights": [1, 2, 3, 4, 5, 6, 7, 8, None, None],
        "channels": [(87, 191, 12), (87, 205, 13), (8, 21, 4)],
        "probes": [1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 2, 1, 1, 2,
                   1, 3, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 2, 1, 3, 6,
                   1, 2, 2, 1, 2, 2, 1, 1, 1, 2, 1, 6, 1, 1, 4, 1, 3, 10, 2, 12, 5, 3, 4, 2, 6, 2,
                   3, 2, 4, 1, 5, 6, 1],
    },
    ("EdgeHash", "mixer"): {
        "rebuilds": 3, "capacity": 128, "edge_count": 85,
        "channels": [(87, 197, 17), (87, 253, 14), (0, 0, 0)],
        "probes": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                   2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                   4, 1, 1, 1, 2, 1, 1, 5, 1, 1, 1, 2, 5, 1, 6, 4, 2, 6, 1, 1, 2, 5, 1, 7, 7, 1,
                   1, 6, 1, 2, 1, 2, 2],
    },
    ("EdgeHash", "paper_compat"): {
        "rebuilds": 3, "capacity": 128, "edge_count": 85,
        "channels": [(87, 191, 12), (87, 205, 13), (0, 0, 0)],
        "probes": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 1, 1, 2,
                   1, 3, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 2, 1, 3, 6,
                   1, 2, 2, 1, 2, 2, 1, 1, 1, 2, 1, 6, 1, 1, 4, 1, 3, 10, 2, 12, 5, 3, 4, 2, 6, 2,
                   3, 2, 4, 1, 5, 6, 1],
    },
}


@pytest.mark.parametrize("cls", [HashList, EdgeHash], ids=["hashlist", "edgehash"])
@pytest.mark.parametrize("hash_mode", ["mixer", "paper_compat"])
def test_grown_store_pinned(cls, hash_mode):
    assert _grown(cls, hash_mode) == GOLDEN[cls.__name__, hash_mode]


# The query file asks N for every vertex, then C for every ordered pair;
# edgehash gets the C lines alone, since it cannot enumerate.
CLI_GRAPH = """\
# pinned graph: duplicate lines, comments, self-loops, re-weighted lines
8 24
0 1 0.5
0 2
# a comment between edge lines
1 1 2.0
3 4 1.5
0 1 0.75
3 5
5 5
2 7 3.25
7 2
0 1
6 0 1e3
6 0 -4
2 7
4 3 0.125
4 3
1 6
6 1 2.5

7 7 9
5 0
0 5 0.0
3 4
"""
CLI_N = [f"N {v}" for v in range(8)]
CLI_C = [f"C {x} {y}" for x in range(8) for y in range(8)]

CLI_GOLDEN = {
    False: (["5 2 1", "6 1", "7", "5 4", "3", "0 5", "1 0", "7 2"],
            "0110010001000010000000010000110000010000100001001100000000100001"),
    True: (["5 6 2 1", "6 1 0", "7 0", "5 4", "3", "0 5 3", "1 0", "7 2"],
           "0110011011000010100000010000110000010000100101001100000000100001"),
}


@pytest.mark.parametrize("undirected", [False, True], ids=["directed", "undirected"])
@pytest.mark.parametrize("hash_mode", ["mixer", "paper_compat"])
@pytest.mark.parametrize("structure", ["hashlist", "multilist", "oracle", "edgehash"])
def test_cli_query_bytes_pinned(tmp_path, structure, hash_mode, undirected):
    graph = tmp_path / "graph.txt"
    graph.write_text(CLI_GRAPH)
    queries = tmp_path / "queries.txt"
    asked = CLI_C if structure == "edgehash" else CLI_N + CLI_C
    queries.write_text("\n".join(asked) + "\n")
    out = tmp_path / "out.txt"
    argv = ["query", str(graph), str(queries), "--structure", structure,
            "--hash-mode", hash_mode, "--out", str(out)]
    assert cli_main(argv + ["--undirected"] if undirected else argv) == 0
    nbrs, bits = CLI_GOLDEN[undirected]
    lines = list(bits) if structure == "edgehash" else nbrs + list(bits)
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("undirected", [False, True], ids=["directed", "undirected"])
@pytest.mark.parametrize("hash_mode", ["mixer", "paper_compat"])
@pytest.mark.parametrize("structure", ["hashlist", "multilist", "oracle"])
def test_cli_repeated_n_queries_bytes_pinned(tmp_path, structure, hash_mode, undirected):
    """Every vertex asked twice, the first time alternating with C lines, gives the same lines twice."""
    graph = tmp_path / "graph.txt"
    graph.write_text(CLI_GRAPH)
    queries = tmp_path / "queries.txt"
    asked = [q for pair in zip(CLI_N, CLI_C) for q in pair] + CLI_C[8:] + CLI_N
    queries.write_text("\n".join(asked) + "\n")
    out = tmp_path / "out.txt"
    argv = ["query", str(graph), str(queries), "--structure", structure,
            "--hash-mode", hash_mode, "--out", str(out)]
    assert cli_main(argv + ["--undirected"] if undirected else argv) == 0
    nbrs, bits = CLI_GOLDEN[undirected]
    lines = [r for pair in zip(nbrs, bits) for r in pair] + list(bits[8:]) + nbrs
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
