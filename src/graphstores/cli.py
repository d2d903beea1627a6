"""Command-line front end: ingest edge lists, answer queries, run benchmarks.

Exit codes: 0 success, 1 usage or configuration error (out of memory
included), 2 parse error, 3 vertex-range or unsupported-operation error,
4 differential/selftest failure.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .bench import (
    GENERATORS,
    STRUCTURE_NAMES,
    BenchReport,
    DifferentialMismatch,
    WorkloadSpec,
    _new_store,
    run_workload,
    scaling_sweep,
)
from .core import (
    CapacityError,
    ConfigError,
    GraphStoreError,
    HASH_MODES,
    UnsupportedOperationError,
    VertexRangeError,
)
from .formats import (
    GraphFile,
    ParseError,
    QueryFile,
    format_results,
    join_runs,
    parse_edge_list,
    parse_query_file,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_RANGE = 3
EXIT_SELFTEST = 4

SELFTEST_SPEC = WorkloadSpec(generator="uniform", n=1000, m=100_000, seed=0xC0FFEE)


class UsageError(GraphStoreError):
    """Bad flags or flag combinations."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="graphstores", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="build a store from an edge list and answer queries")
    query.add_argument("graph", help="edge-list file ('n m' header, then 'x y [weight]' lines)")
    query.add_argument("queries", help="query file ('C x y' or 'N x' lines)")
    query.add_argument("--structure", choices=STRUCTURE_NAMES, default="hashlist")
    query.add_argument("--hash-mode", choices=HASH_MODES, default="mixer")
    query.add_argument("--out", help="result file path (default: stdout)")
    query.add_argument(
        "--undirected", action="store_true",
        help="insert both (x, y) and (y, x) for every edge line",
    )
    query.set_defaults(func=cmd_query)

    bench = sub.add_parser("bench", help="run an instrumented workload and emit a CSV report")
    bench.add_argument("--gen", choices=GENERATORS, default="uniform")
    bench.add_argument("--n", type=int, required=True, help="vertex count")
    bench.add_argument("--m", type=int, required=True, help="total operation count")
    bench.add_argument(
        "--mix", default=",".join(map(str, WorkloadSpec.mix)),
        help="add,contains-hit,contains-miss,enumerate fractions",
    )
    bench.add_argument("--seed", type=int, default=WorkloadSpec.seed)
    bench.add_argument("--structures", default="hashlist,multilist,edgehash")
    bench.add_argument("--hash-mode", choices=HASH_MODES, default="mixer")
    bench.add_argument("--sweep", help="comma-separated size multipliers, e.g. 1,2,4")
    bench.add_argument("--out", help="CSV path (default: stdout)")
    bench.set_defaults(func=cmd_bench)

    selftest = sub.add_parser(
        "selftest", help="run the differential suite (all structures vs oracle)"
    )
    selftest.set_defaults(func=cmd_selftest)

    return parser


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _build_query_store(structure: str, graph: GraphFile, hash_mode: str, undirected: bool):
    # Sized from the lines parsed, not the header's m, which only bounds them.
    capacity = len(graph.xs) * (2 if undirected else 1)
    return _new_store(structure, graph.n, capacity, hash_mode)


def _load_query_store(store, graph: GraphFile, undirected: bool) -> None:
    """Add every edge line in file order with one ``add_edges`` call.

    The id columns go to the store as the parser's arrays; ``--undirected``
    interleaves (x, y), (y, x) per line in numpy. Weights are not stored:
    no result line reads one, so the store is the plain one for every
    structure.
    """
    xs, ys = graph.xs, graph.ys
    if undirected:
        xs, ys = np.column_stack((xs, ys)).ravel(), np.column_stack((ys, xs)).ravel()
    store.add_edges(xs, ys)


def _answer_queries(store, queries: QueryFile) -> list[str]:
    """Result lines in query order: one ``contains_many`` for the C queries, then the N lines.

    The store no longer changes, so a hash store whose load left its int64
    view of the slots current probes the C queries in numpy rounds over it
    while more than ``edgehash._ROUND_MIN`` are live, and its Python loop
    finishes the rest (the read rule of ``edgehash``); the answers and
    counters are those of asking one at a time. The distinct N vertices, in
    the order of their first N query, are enumerated with one
    ``_neighbor_runs`` call, ``neighbors_many`` as numpy arrays (on a
    HashList, all chains at once in numpy rounds, their targets read off the
    same view). ``formats.join_runs`` takes the arrays as they are, writes
    the digits of every target into one buffer in numpy, decodes it once,
    and gives each vertex's line as one slice of it; every later query of a
    vertex reuses that line, one shared str. The first bad N vertex still
    raises first.
    """
    hits = iter(store.contains_many(queries.cxs, queries.cys))
    # EdgeHash._neighbor_runs raises UnsupportedOperationError on any vertex
    vertices = list(dict.fromkeys(queries.nvs))
    lines = dict(zip(vertices, join_runs(*store._neighbor_runs(vertices))))
    nbrs = map(lines.__getitem__, queries.nvs)
    return [("1" if next(hits) else "0") if c else next(nbrs) for c in queries.is_c]


def _read_text(path: str) -> str:
    """The file's text; bytes that are not UTF-8 are a ParseError on their line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # read() decodes the whole file at once
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None


def cmd_query(args) -> int:
    """Build the chosen store from the edge list, answer the queries, write the results.

    Both files are parsed into columns (see ``formats``). The edge ids and
    the C queries' ids are ``uint64`` arrays, which ``add_edges`` and
    ``contains_many`` read without a copy; the stores that loop in Python
    turn them into Python ints first. Weight tokens are checked by the
    parser but not stored, since no answer reads them. The store is sized
    from the edge lines parsed, not from the header's ``m``; a header ``n``
    the oracle refuses is a configuration error. The adds run in file
    order, since the order fixes a hash store's layout; the C queries go
    to ``contains_many`` in one batch, since reads move nothing. The load
    of a hash store of at most 2**31 vertices leaves an int64 view of its
    slots (``edgehash`` says when; 8 B per slot, about 32 B per edge at
    this sizing's load of 1/4, freed with the store), which the C queries'
    rounds and HashList's N answers read. Each distinct N vertex is
    enumerated once, however often it is asked, and the lines of all of
    them come from one numpy pass over the digits of their targets, handed
    over as arrays, one slice of the decoded text per vertex. The result
    bytes are those of adding and asking one edge at a time. Because all C
    queries are asked before any N query, a file with several bad queries
    may report a different one of them first; the exit code is the same.

    One worker thread reads and parses the query file while this thread
    parses the edge file and builds and loads the store. Errors keep the
    order of running the steps in turn: graph read and parse, query read
    and parse, build and load, answers. The worker is joined before any
    error leaves.
    """
    with ThreadPoolExecutor(1) as pool:
        pending = pool.submit(lambda: parse_query_file(_read_text(args.queries)))
        graph = parse_edge_list(_read_text(args.graph))
        try:
            store = _build_query_store(args.structure, graph, args.hash_mode, args.undirected)
            _load_query_store(store, graph, args.undirected)
        finally:  # a query-file error replaces a build or load error
            queries = pending.result()
    _write_output(format_results(_answer_queries(store, queries)), args.out)
    return EXIT_OK


def _parse_mix(text: str) -> tuple[float, float, float, float]:
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"--mix must be comma-separated numbers, got {text!r}") from None
    if len(parts) != 4:
        raise UsageError("--mix needs exactly four fractions")
    return parts


def cmd_bench(args) -> int:
    # run_workload refuses unknown structures, and OracleGraph more than 4096 vertices (exit 1).
    structures = tuple(s.strip() for s in args.structures.split(",") if s.strip())
    spec = WorkloadSpec(
        generator=args.gen, n=args.n, m=args.m, mix=_parse_mix(args.mix), seed=args.seed
    )
    if args.sweep:
        try:
            factors = [int(f) for f in args.sweep.split(",")]
        except ValueError:
            raise UsageError(f"--sweep must be comma-separated integers, got {args.sweep!r}") from None
        results = scaling_sweep(spec, factors, structures, args.hash_mode)
        report = BenchReport([row for _, part in results for row in part.rows])
    else:
        report = run_workload(spec, structures, args.hash_mode)
    _write_output(report.to_csv(), args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    spec = SELFTEST_SPEC
    print(
        f"selftest: {spec.m} ops, generator={spec.generator}, n={spec.n}, "
        f"seed={spec.seed:#x}, structures={','.join(STRUCTURE_NAMES)}"
    )
    try:
        report = run_workload(spec, STRUCTURE_NAMES)
    except DifferentialMismatch as exc:
        print("selftest: FAIL")
        print(exc)
        return EXIT_SELFTEST
    for name in STRUCTURE_NAMES:
        counts = {op: report.find(name, op).count_ops for op in ("add", "contains", "enumerate")}
        print(
            f"  {name:<9} add={counts['add']} contains={counts['contains']} "
            f"enumerate={counts['enumerate']}"
        )
    print("selftest: PASS")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # e.g. a header n whose per-vertex heads do not fit
        print(f"configuration error: out of memory {exc}".rstrip(), file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (VertexRangeError, CapacityError, UnsupportedOperationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except DifferentialMismatch as exc:
        print(f"differential failure: {exc}", file=sys.stderr)
        return EXIT_SELFTEST


if __name__ == "__main__":
    sys.exit(main())
