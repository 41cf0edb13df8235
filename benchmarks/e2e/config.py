"""Fixed parameters of the end-to-end benchmark.

Everything here is a constant of the benchmark: the two graphs, the
five standing queries per graph, the read mix and the three workloads.
``--seed`` varies only the op stream (see :mod:`workload`).  The queries
were drawn once from ``repro.workloads.queries`` and kept because their
answers are non-trivial on the fixed graphs; ``workload.check_nontrivial``
re-checks that (>= 100 kws roots, >= 100 rpq matches, >= 10 iso
matches) so a changed generator cannot silently empty a view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Unit updates per write batch.
BATCH_SIZE = 4

#: Open-loop write rate (batches/s).  25/s x 4 updates keeps the server
#: below saturation beside one closed-loop reader on this 2-core box.
WRITE_RATE = 25.0

#: Closed-loop writers pre-generate this many batches per measured
#: second; the window ends on the clock, never on an exhausted stream.
CLOSED_LOOP_BATCHES_PER_SECOND = 700

#: Reads pre-generated per measured second (same reasoning).
READS_PER_SECOND_CAP = 4000

#: Seconds of un-measured traffic before the window: fills the cache
#: and lets the open-loop writer settle.
WARMUP_SECONDS = 1.0

#: Times the system is set up per run; ``setup_s`` is the median.
SETUPS_PER_RUN = 3


@dataclass(frozen=True)
class GraphSpec:
    """One constant graph and its five standing queries."""

    profile: str  # repro.workloads dataset name
    scale: float
    seed: int
    #: Extra isolated-from-the-queries nodes (see workload.base_graph).
    cold_nodes: int
    cold_edges: int
    kws_keywords: tuple[str, ...]
    kws_bound: int
    rpq: str
    iso_labels: dict[int, str]
    iso_edges: tuple[tuple[int, int], ...]


GRAPHS = {
    # ~6k hot nodes / 56k edges plus a 1.5k-node cold sink region.
    "dbpedia": GraphSpec(
        profile="dbpedia",
        scale=3.0,
        seed=5,
        cold_nodes=1500,
        cold_edges=6000,
        kws_keywords=("T001", "T002", "T012"),
        kws_bound=3,
        rpq="(T046 . T002 . T001 + T001)*",
        iso_labels={0: "T000", 1: "T000", 2: "T028"},
        iso_edges=((0, 1), (0, 2)),
    ),
    # Hub-heavy social profile with a giant SCC (2.4k nodes / 34k edges):
    # as large as the triangle dataflow lets three set-ups per run be.
    "livej": GraphSpec(
        profile="livej",
        scale=1.2,
        seed=5,
        cold_nodes=0,
        cold_edges=0,
        kws_keywords=("C001", "C002", "C012"),
        kws_bound=2,
        rpq="(C063 . C017 + C000)*",
        iso_labels={0: "C000", 1: "C000", 2: "C001"},
        iso_edges=((0, 1), (0, 2)),
    ),
}

#: Shape of hub-stream insertions.  The dataset profiles are
#: hierarchical: dbpedia_like is generated with forward_bias=1.0 (edges
#: run from the lower to the higher node id) plus ~1 % reciprocal edges
#: between nodes at most 10 ids apart.  The write stream keeps that
#: shape -- this share of insertions runs forward, the rest are back
#: edges spanning at most BACK_EDGE_SPAN ids -- because uniformly
#: oriented hub-to-hub edges close long cycles through the hierarchy at
#: a rate the data never shows, and the 150 ms SCC rank repairs they
#: trigger would own every tail percentile and differ seed to seed.
FORWARD_SHARE = 0.95
BACK_EDGE_SPAN = 10

#: Labels of the cold region: outside every query's label set.
COLD_LABELS = tuple(f"Z{index}" for index in range(8))

#: The read mix, as slots of a 100-read block.  Every block holds
#: exactly these counts (shuffled by the seed).  Sorted by cost the
#: cached reads form bands -- 28 % tiny (sizes, tri), 10 % small (iso,
#: scc.nontrivial), 42 % kws.roots (~27 KB), 20 % rpq.matches (~21 KB)
#: -- sized so that the median read falls well inside the kws.roots
#: band and the 95th percentile inside the rpq.matches band; a
#: percentile that sits on a band edge flips between two costs from
#: run to run.
READ_MIX = (
    ("kws", "roots", 42),
    ("rpq", "matches", 20),
    ("kws", "size", 12),
    ("iso", "matches", 8),
    ("tri", "value", 8),
    ("scc", "size", 8),
    ("scc", "nontrivial", 2),
)

#: Of every 25 reads, the last ``SESSION_READS`` go through one MVCC
#: session (open, pinned reads, close); the rest are one-shot
#: ``read_latest`` calls.  Pinned sessions are what make the writer
#: freeze answers before it overwrites them.
READ_CYCLE = 25
SESSION_READS = 5


@dataclass(frozen=True)
class Workload:
    """One traffic mix; BENCHMARK.json carries each one's rationale."""

    name: str
    graph: str
    #: "build": views constructed over the loaded graph, plain full
    #: save.  "bulk": ``Repository.bulk_load`` into empty views, then a
    #: zlib full save.
    load: str
    #: "cold": cold-region edges only.  "hub": all labels, endpoints
    #: skewed to high-degree nodes.
    write_kind: str
    insert_share: float
    #: None = closed loop (next batch when the last is acked).
    write_rate: Optional[float]
    snapshot_every: Optional[int]
    compact_every: Optional[int]
    #: Self-check bands, where the workload claims one: the window's
    #: cache hit rate, and the share of (batch, view) deliveries that
    #: relevance routing skipped.  ``serve_hot``'s and ``ingest_durable``'s
    #: bands are disjoint, so passing them proves the workloads differ.
    hit_rate: Optional[tuple[float, float]]
    skipped_share: Optional[tuple[float, float]]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="serve_hot",
            graph="dbpedia",
            load="build",
            write_kind="cold",
            insert_share=0.5,
            write_rate=WRITE_RATE,
            snapshot_every=None,
            compact_every=None,
            hit_rate=(0.8, 1.0),
            skipped_share=(0.55, 1.0),  # kws, rpq and iso skip every batch
        ),
        Workload(
            name="ingest_durable",
            graph="dbpedia",
            load="build",
            write_kind="hub",
            insert_share=0.6,
            write_rate=None,
            snapshot_every=64,
            compact_every=512,
            hit_rate=(0.0, 0.5),
            skipped_share=(0.0, 0.35),
        ),
        Workload(
            name="bulk_recover",
            graph="livej",
            load="bulk",
            write_kind="hub",
            insert_share=0.5,
            write_rate=WRITE_RATE,
            snapshot_every=None,
            compact_every=None,
            # claims no traffic shape: its self-check is on the lifecycle
            # (bulk_load ran, the whole journaled tail was replayed)
            hit_rate=None,
            skipped_share=None,
        ),
    )
}
