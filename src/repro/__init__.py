"""repro — Incremental Graph Computations: Doable and Undoable.

A from-scratch reproduction of Fan, Hu & Tian (SIGMOD 2017): incremental
algorithms with performance guarantees for four graph query classes —

* **KWS** (keyword search)      — localizable:        :class:`repro.kws.KWSIndex`
* **ISO** (subgraph isomorphism)— localizable:        :class:`repro.iso.ISOIndex`
* **RPQ** (regular path queries)— relatively bounded: :class:`repro.rpq.RPQIndex`
* **SCC** (strong components)   — relatively bounded: :class:`repro.scc.SCCIndex`

plus every batch substrate (Tarjan, VF2, NFA-guided RPQ, BLINKS-style
KWS), the theory artifacts of Theorem 1 (Δ-reductions, lower-bound
gadgets), workload/dataset generators, and a benchmark harness that
regenerates every figure of the paper's evaluation.

Quickstart::

    from repro import DiGraph, Delta, insert, delete
    from repro.kws import KWSIndex, KWSQuery

    g = DiGraph(labels={1: "paper", 2: "author", 3: "venue"},
                edges=[(1, 2), (1, 3)])
    index = KWSIndex(g, KWSQuery(("author", "venue"), bound=2))
    index.roots()                       # {1}
    index.delete_edge(1, 3)             # incremental ΔO, not recompute
"""

from repro.core.cost import CostLedger, CostMeter
from repro.core.delta import Delta, InvalidDeltaError, Update, delete, insert
from repro.dataflow import Dataflow, DataflowView, register_program
from repro.engine import (
    Engine,
    EngineError,
    EngineReport,
    IncrementalSession,
    IncrementalView,
    ViewSnapshot,
)
from repro.graph.digraph import DiGraph
from repro.graph.sharding import ShardedGraphStore, ShardMap
from repro.graph.updates import delta_fraction, random_delta
from repro.persist import (
    SegmentedDeltaLog,
    SnapshotPolicy,
    SnapshotStore,
    load_session,
    save_session,
)
from repro.serving import (
    ReadSession,
    Repository,
    ServingError,
    ServingFrontend,
    SessionLimitError,
)

__version__ = "1.2.0"

__all__ = [
    "CostLedger",
    "CostMeter",
    "Dataflow",
    "DataflowView",
    "Delta",
    "DiGraph",
    "Engine",
    "EngineError",
    "EngineReport",
    "IncrementalSession",
    "IncrementalView",
    "InvalidDeltaError",
    "ReadSession",
    "Repository",
    "SegmentedDeltaLog",
    "ShardMap",
    "ShardedGraphStore",
    "ServingError",
    "ServingFrontend",
    "SessionLimitError",
    "SnapshotPolicy",
    "SnapshotStore",
    "Update",
    "ViewSnapshot",
    "delete",
    "delta_fraction",
    "insert",
    "load_session",
    "random_delta",
    "register_program",
    "save_session",
    "__version__",
]
