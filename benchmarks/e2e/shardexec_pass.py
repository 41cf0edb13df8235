"""Counts-only pass of the resident-worker tier (``executor="workers"``,
2 shards, 16-batch group-commit windows) over the head of the ingest
stream: fsyncs per batch and seal latency, nothing else.

Wall-clock throughput of this tier is deliberately not reported: two
resident workers, the coordinator and the generator oversubscribe a
2-core box (measured +-10 % run to run).  Views are absent, as in
``benchmarks/bench_workers.py``: the pass isolates routing, journal
and seal.  Prints one JSON object.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

WINDOW_SIZE = 16


def main() -> None:
    import tracing
    from repro import Engine, ShardedGraphStore, ShardMap, SnapshotStore
    from repro.core.delta import Delta, delete, insert
    from repro.shardexec import ShardWorkerPool, shutdown_pools

    config = json.loads(sys.argv[1])
    tracer = tracing.install()
    # a worker seal fsyncs once in each touched worker, out of this
    # process's sight: count the segments each seal touches
    worker_fsyncs = 0
    traced_seal = ShardWorkerPool.seal

    def counting_seal(self, window, touched, participants):
        nonlocal worker_fsyncs
        worker_fsyncs += len(touched)
        return traced_seal(self, window, touched, participants)

    ShardWorkerPool.seal = counting_seal
    payload = json.loads(Path(config["graph_file"]).read_text())
    shard_map = ShardMap(kind="range", boundaries=[config["boundary"]])
    graph = ShardedGraphStore.from_labeled_edges(
        dict(map(tuple, payload["labels"])), map(tuple, payload["edges"]), shard_map
    )
    store = SnapshotStore(config["store"], shard_map=shard_map)
    engine = Engine(graph, executor="workers")
    try:
        store.attach(engine)
        store.log.window_size = WINDOW_SIZE
        store.save(engine)
        batches = json.loads(Path(config["batches_file"]).read_text())
        for batch in batches:
            engine.apply(
                Delta(
                    [
                        insert(source, target)
                        if kind == "insert"
                        else delete(source, target)
                        for kind, source, target in batch
                    ]
                )
            )
        store.log.flush()
    finally:
        shutdown_pools()
    seals = [
        row for row in tracer.spans if row[1] == "SegmentedDeltaLog.seal_window"
    ]
    # where workers cannot start the log seals in-process: those fsyncs
    # are spans here, children of the seal
    seal_ids = {row[0] for row in seals}
    local_fsyncs = sum(
        1 for row in tracer.spans if row[1] == "os.fsync" and row[4] in seal_ids
    )
    print(
        json.dumps(
            {
                "fsyncs_per_batch": (worker_fsyncs + local_fsyncs) / len(batches),
                "seal_ms_p50": tracing.percentile(
                    [(row[3] - row[2]) * 1e3 for row in seals], 0.50
                ),
            }
        )
    )


if __name__ == "__main__":
    main()
