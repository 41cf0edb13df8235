"""The store's bytes at the benchmark's save/compact cadence are pinned.

``ingest_durable`` (``benchmarks/e2e``) journals into two range shards
under ``SnapshotPolicy(every_batches=64, compact_every_batches=512)``:
every compaction fires right after a save, so it finds nothing above
the floor and drops exactly what the snapshot covers.  This test drives
a seeded hub-skewed stream at that cadence and compares the sha256 of
every file the store leaves against digests recorded when compaction
still net-cancelled the uncovered tail — the two designs write the same
bytes for this traffic.
"""

import hashlib
import random

from repro import (
    Delta,
    Engine,
    ShardedGraphStore,
    ShardMap,
    SnapshotPolicy,
    SnapshotStore,
    delete,
    insert,
)
from repro.dataflow import DataflowView
from repro.kws import KWSIndex, KWSQuery
from repro.scc import SCCIndex

NODES = 400
BATCHES = 1_100
LABELS = ("a", "b", "c", "d")

#: sha256 of each file under the store root, by path relative to it.
EXPECTED = {
    "segments/segment-000.log": "b40dbf7a84f6d35ad277828abac7b6a380b6d60c240259a9aaaf9e425828c289",
    "segments/segment-001.log": "e0ae92d226e3607730cb905da49467b971c2466c873f5bc5c3c923e02f5cb3d1",
    "snapshot.repro": "ac5a0e45755ad274652c1819a513b9a872fba73dafc31f5f35a1ff24174d1dfe",
}


def build_session(root):
    rng = random.Random(7)
    labels = {node: rng.choice(LABELS) for node in range(NODES)}
    edges = set()
    while len(edges) < 3 * NODES:
        source, target = rng.sample(range(NODES), 2)
        edges.add((source, target))
    shard_map = ShardMap(kind="range", boundaries=[NODES // 2])
    graph = ShardedGraphStore.from_labeled_edges(labels, sorted(edges), shard_map)
    engine = Engine(graph, executor="serial")
    engine.register("kws", lambda g, m: KWSIndex(g, KWSQuery(("a", "b"), 2), meter=m))
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register("tri", lambda g, m: DataflowView(g, "triangle-count", meter=m))
    store = SnapshotStore(root, shard_map=shard_map)
    policy = SnapshotPolicy(every_batches=64, compact_every_batches=512)
    store.attach(engine, policy)
    store.save(engine, compact=True)
    return engine, policy


def drive(engine: Engine) -> None:
    """Hub-skewed batches of 1-4 updates, 60 % inserts."""
    rng = random.Random(11)
    hubs = list(range(0, NODES, 25))
    graph = engine.graph
    for _ in range(BATCHES):
        updates = []
        seen = set()
        for _ in range(rng.randint(1, 4)):
            source = rng.choice(hubs) if rng.random() < 0.5 else rng.randrange(NODES)
            if rng.random() < 0.6:
                target = rng.randrange(NODES)
                edge = (source, target)
                if source != target and edge not in seen and not graph.has_edge(*edge):
                    updates.append(insert(source, target))
                    seen.add(edge)
            else:
                targets = sorted(graph.successors(source))
                if targets:
                    edge = (source, rng.choice(targets))
                    if edge not in seen:
                        updates.append(delete(*edge))
                        seen.add(edge)
        if updates:
            engine.apply(Delta(updates))


def store_digests(root) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_store_bytes_at_the_benchmark_cadence_are_unchanged(tmp_path):
    engine, policy = build_session(tmp_path)
    drive(engine)
    assert policy.compactions >= 2 and policy.saves >= 16
    assert store_digests(tmp_path) == EXPECTED
