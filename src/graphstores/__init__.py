"""Directed-graph edge stores behind one contract.

Three compact structures: :class:`MultiList` (one Python list of
targets per vertex), :class:`EdgeHash` (open-addressing table of packed
edges), and :class:`HashList` (their fusion, where every hash slot is
also a list node). :class:`OracleGraph` is the dense ground-truth
reference, and the :mod:`graphstores.bench` module replays identical
operation streams against any selection of them while counting probes
and traversals.
"""

from .bench import (
    BenchReport,
    BenchRow,
    CSV_HEADER,
    DifferentialMismatch,
    Lcg64,
    STRUCTURE_NAMES,
    WorkloadSpec,
    generate_ops,
    run_workload,
    scaling_sweep,
)
from .core import (
    CapacityError,
    ConfigError,
    EdgeStore,
    GraphStoreError,
    HASH_MODES,
    MIN_CAPACITY,
    NONE,
    StoreConfig,
    UnsupportedOperationError,
    VertexRangeError,
    ceil_pow2,
    compat_hash,
    mixer_hash,
    pack_edge,
)
from .counters import Channel, OpCounters
from .edgehash import EdgeHash
from .formats import GraphFile, ParseError, QueryFile, parse_edge_list, parse_queries
from .hashlist import HashList
from .multilist import MultiList
from .oracle import ORACLE_MAX_VERTICES, OracleGraph

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "BenchRow",
    "CSV_HEADER",
    "CapacityError",
    "Channel",
    "ConfigError",
    "DifferentialMismatch",
    "EdgeHash",
    "EdgeStore",
    "GraphFile",
    "GraphStoreError",
    "HASH_MODES",
    "HashList",
    "Lcg64",
    "MIN_CAPACITY",
    "MultiList",
    "NONE",
    "ORACLE_MAX_VERTICES",
    "OpCounters",
    "OracleGraph",
    "ParseError",
    "QueryFile",
    "STRUCTURE_NAMES",
    "StoreConfig",
    "UnsupportedOperationError",
    "VertexRangeError",
    "WorkloadSpec",
    "ceil_pow2",
    "compat_hash",
    "generate_ops",
    "mixer_hash",
    "pack_edge",
    "parse_edge_list",
    "parse_queries",
    "run_workload",
    "scaling_sweep",
]
