#!/usr/bin/env python
"""One log segment per shard vs. one segment, over the same one graph.

The scenario is a **sustained, shard-local, skewed update stream** — the
regime partitioned graph systems (Layph-style) target: most churn
concentrates on a hot region (60% of batches hit shard 0's node range,
20%/10%/10% the others), every batch's sources live inside one shard
(entity locality), and the session runs production persistence: a
write-ahead journal on every apply, periodic incremental snapshots, and
**background log compaction every few batches**.

Both configurations hold the graph the same way — one adjacency; a
``ShardedGraphStore`` is a ``DiGraph`` carrying its ``ShardMap`` — so
what the gate measures is the **log's rotating per-segment
compaction**, not a partitioned graph.  With one segment each
compaction firing rewrites the *whole* surviving log window, stalling
the apply path for a pause proportional to the entire log.  With a
4-shard map the log (`SegmentedDeltaLog`) keeps one append file per
shard and compacts **one shard's segment per firing**, in rotation —
the pause is bounded by a segment, and the hot shard's churn never
forces a rewrite of the cold shards' entries.  Appends are a wash in
this stream (a shard-local batch costs one fsync in both layouts), so
the measured speedup is the compaction scaling, which is exactly the
claim: maintenance cost should track the changed region, not the whole
log.

The run cross-checks every configuration to the identical final graph,
recovers each store from disk afterwards (`SnapshotStore.load`) and
compares again, and **asserts the acceptance criterion: >= 1.5x apply
throughput at 4 shards vs 1 shard under the `serial` executor** (the
`workers` tier is measured by ``bench_workers.py``).

Views are deliberately absent: this bench isolates the journal +
compaction path (view fan-out economics are measured by
``bench_engine_fanout.py`` and ``bench_delta_routing.py``).

Run:  PYTHONPATH=src python benchmarks/bench_sharding.py
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro import (
    Delta,
    DiGraph,
    Engine,
    ShardedGraphStore,
    ShardMap,
    SnapshotStore,
    delete,
    insert,
)
from repro.persist import SnapshotPolicy

#: Node-range boundaries of the 4-shard layout (range partitioning makes
#: the skew controllable and the shard of every update predictable).
BOUNDARIES = [1000, 2000, 3000]
RANGES = [(0, 1000), (1000, 2000), (2000, 3000), (3000, 4000)]
#: Fraction of batches whose sources land in each shard's range.
SKEW = [0.60, 0.20, 0.10, 0.10]

STREAM_BATCHES = 900
BATCH_SIZE = 6
#: Production-persistence cadence: incremental snapshot every 400
#: batches, background compaction firing every 5.
SNAPSHOT_EVERY = 400
COMPACT_EVERY = 5

SHARD_COUNTS = (1, 2, 4)
ACCEPTANCE_SHARDS = 4
ACCEPTANCE_SPEEDUP = 1.5


def emit(text: str = "") -> None:
    print(text, file=sys.stdout, flush=True)


def shard_of(node: int, count: int) -> int:
    """Range shard of a node under a ``count``-way split of [0, 4000)."""
    return min(node * count // 4000, count - 1)


def make_stream(seed: int) -> list[Delta]:
    """Deterministic shard-local skewed stream: each batch picks a shard
    by the skew weights, then churns edges whose *sources* live in that
    shard's node range (targets roam — cross-shard edges are normal)."""
    rng = random.Random(seed)
    live: list[set] = [set() for _ in RANGES]
    batches = []
    for _ in range(STREAM_BATCHES):
        shard = rng.choices(range(len(RANGES)), weights=SKEW)[0]
        low, high = RANGES[shard]
        pool = live[shard]
        updates, touched = [], set()
        while len(updates) < BATCH_SIZE:
            if pool and rng.random() < 0.35:
                edge = rng.choice(sorted(pool))
                if edge in touched:
                    break
                pool.discard(edge)
                touched.add(edge)
                updates.append(delete(*edge))
            else:
                source = rng.randrange(low, high)
                target = rng.randrange(0, 4000)
                edge = (source, target)
                if source == target or edge in pool or edge in touched:
                    continue
                pool.add(edge)
                touched.add(edge)
                updates.append(insert(source, target, "a", "b"))
        batches.append(Delta(updates))
    return batches


def boundaries_for(count: int) -> list[int]:
    return [4000 * k // count for k in range(1, count)]


def make_graph(shards: int) -> DiGraph | ShardedGraphStore:
    """A plain DiGraph for one shard, else a range-sharded store."""
    if shards == 1:
        return DiGraph()
    shard_map = ShardMap(kind="range", boundaries=boundaries_for(shards))
    return ShardedGraphStore(shard_map=shard_map)


def run_stream(
    shards: int, stream: list[Delta], root: Path
) -> tuple[float, SnapshotPolicy, SnapshotStore, Engine]:
    """One full configuration: journaling engine + snapshot policy +
    background compaction, timed end to end over the stream."""
    if root.exists():
        shutil.rmtree(root)
    store = SnapshotStore(root)  # the log follows the graph's layout
    engine = Engine(make_graph(shards), executor="serial")
    policy = SnapshotPolicy(
        every_batches=SNAPSHOT_EVERY, compact_every_batches=COMPACT_EVERY
    )
    store.attach(engine, policy=policy)
    store.save(engine)
    started = time.perf_counter()
    for batch in stream:
        engine.apply(batch)
    elapsed = time.perf_counter() - started
    return elapsed, policy, store, engine


def compaction_pause_profile(
    shards: int, stream: list[Delta], root: Path
) -> tuple[float, float, int]:
    """(max_pause_ms, mean_pause_ms, firings) of in-stream compaction:
    a one-segment log rewrites the whole survivor window per firing, a
    per-shard log one rotating segment."""
    if root.exists():
        shutil.rmtree(root)
    store = SnapshotStore(root)  # the log follows the graph's layout
    engine = Engine(make_graph(shards), executor="serial")
    store.attach(engine)
    store.save(engine)
    pauses = []
    for index, batch in enumerate(stream):
        engine.apply(batch)
        if (index + 1) % COMPACT_EVERY == 0:
            started = time.perf_counter()
            store.compact_log(engine, rotate=True)
            pauses.append(time.perf_counter() - started)
    return (
        max(pauses) * 1e3,
        sum(pauses) / len(pauses) * 1e3,
        len(pauses),
    )


def main() -> None:
    stream = make_stream(seed=42)
    total_updates = sum(len(batch) for batch in stream)
    hot = sum(
        1
        for batch in stream
        if batch and shard_of(batch[0].source, 4) == 0
    )
    emit(
        f"stream: {STREAM_BATCHES} shard-local batches, {total_updates} unit "
        f"updates, {hot / STREAM_BATCHES:.0%} on the hot shard; snapshot "
        f"every {SNAPSHOT_EVERY}, background compaction every "
        f"{COMPACT_EVERY} batches"
    )
    emit()

    workspace = Path(tempfile.mkdtemp(prefix="bench_sharding_"))
    header = (
        f"{'shards':>6} | {'applies/s':>9} | "
        f"{'vs 1 shard':>10} | {'saves':>5} | {'compactions':>11}"
    )
    emit(header)
    emit("-" * len(header))

    reference_graph = None
    baseline = None
    verdict = 0.0
    for shards in SHARD_COUNTS:
        root = workspace / f"serial-{shards}"
        elapsed, policy, store, engine = run_stream(shards, stream, root)
        throughput = STREAM_BATCHES / elapsed
        if baseline is None:
            baseline = throughput
        speedup = throughput / baseline
        if shards == ACCEPTANCE_SHARDS:
            verdict = speedup
        # every configuration must land on the identical final graph
        if reference_graph is None:
            reference_graph = engine.graph
        else:
            assert engine.graph == reference_graph, (
                f"{shards} shards diverged from the reference graph"
            )
        # and recover to it from disk
        revived = SnapshotStore(root).load(attach_journal=False)
        assert revived.graph == reference_graph, (
            f"{shards} shards: recovery diverged"
        )
        emit(
            f"{shards:>6} | {throughput:>9.0f} | "
            f"{speedup:>9.2f}x | {policy.saves:>5} | "
            f"{policy.compactions:>11}"
        )

    emit()
    emit("compaction pause per firing (rotate=True):")
    pause_header = (
        f"{'shards':>6} | {'max pause (ms)':>14} | {'mean pause (ms)':>15} | "
        f"{'firings':>7}"
    )
    emit(pause_header)
    emit("-" * len(pause_header))
    for shards in SHARD_COUNTS:
        max_ms, mean_ms, firings = compaction_pause_profile(
            shards, stream, workspace / f"pause-{shards}"
        )
        emit(
            f"{shards:>6} | {max_ms:>14.2f} | {mean_ms:>15.2f} | {firings:>7}"
        )

    emit()
    status = "PASS" if verdict >= ACCEPTANCE_SPEEDUP else "FAIL"
    emit(
        f"acceptance: {ACCEPTANCE_SHARDS} shards vs 1 under "
        f"'serial' = {verdict:.2f}x "
        f"(required >= {ACCEPTANCE_SPEEDUP}x) ... {status}"
    )
    emit()
    emit("applies/s   = end-to-end engine.apply throughput, journal fsyncs,")
    emit("              auto-snapshots and in-stream compactions included;")
    emit("vs 1 shard  = DiGraph + one-segment log;")
    emit("pause       = wall time of one background-compaction firing —")
    emit("              whole-log rewrite (1 shard) vs one rotating segment.")
    shutil.rmtree(workspace, ignore_errors=True)
    if status == "FAIL":
        raise SystemExit(1)


if __name__ == "__main__":
    main()
