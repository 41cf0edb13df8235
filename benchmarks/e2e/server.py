"""The system under test, as its own process.

``ShardedGraphStore`` (2 range shards) -> ``SnapshotStore`` with a
``SegmentedDeltaLog`` attached -> ``Engine(executor="serial")`` -> views
``kws`` ``rpq`` ``scc`` ``iso`` + dataflow ``tri`` -> ``Repository`` ->
``ServingFrontend`` on a loopback port.  With ``--recover`` the same
stack is brought back from the store directory instead of being built.

The generator drives it over the NDJSON socket.  A second, tiny control
channel runs over the process's own pipes, because the wire protocol
has no op for what a benchmark needs from the inside: the server prints
one ``ready`` line, answers each ``stats`` line on stdin with one JSON
line of counters, and shuts down cleanly on ``quit`` or on end-of-file
(so a generator that dies never leaves a server behind).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Optional

STARTED = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro import (  # noqa: E402
    DataflowView,
    Engine,
    Repository,
    ServingFrontend,
    ShardedGraphStore,
    ShardMap,
    SnapshotPolicy,
    SnapshotStore,
)
from repro.iso import ISOIndex  # noqa: E402
from repro.iso.patterns import Pattern  # noqa: E402
from repro.kws import KWSIndex, KWSQuery  # noqa: E402
from repro.rpq import RPQIndex  # noqa: E402
from repro.scc import SCCIndex  # noqa: E402
from repro.shardexec import shutdown_pools  # noqa: E402

#: The served surface: every view's answer plus ``*.size`` queries, so
#: answer size (8 B to ~27 KB) is a varied dimension.  ``iso.matches``
#: replaces the duck-typed default, whose ``Match`` objects the frontend
#: cannot encode as JSON.  SCC is served as its component count and its
#: components of two or more nodes, which together fix the partition;
#: the full partition (thousands of singletons, 16 ms to materialise)
#: would be frozen before every pinned write and drown the write path.
QUERIES = {
    ("kws", "roots"): lambda view: view.roots(),
    ("kws", "size"): lambda view: len(view.roots()),
    ("rpq", "matches"): lambda view: view.matches,
    ("iso", "matches"): lambda view: {
        tuple(sorted(match.edges)) for match in view.matches
    },
    ("tri", "value"): lambda view: view.value(),
    ("scc", "size"): lambda view: view.cond.num_components(),
    ("scc", "nontrivial"): lambda view: {
        frozenset(nodes) for nodes in view.cond.members.values() if len(nodes) > 1
    },
}


def view_factories(spec: dict[str, Any]) -> dict[str, Any]:
    query = KWSQuery(tuple(spec["kws_keywords"]), spec["kws_bound"])
    pattern = Pattern.from_edges(
        {int(node): label for node, label in spec["iso_labels"].items()},
        [tuple(edge) for edge in spec["iso_edges"]],
    )
    return {
        "kws": lambda g, m: KWSIndex(g, query, meter=m),
        "rpq": lambda g, m: RPQIndex(g, spec["rpq"], meter=m),
        "scc": lambda g, m: SCCIndex(g, meter=m),
        "iso": lambda g, m: ISOIndex(g, pattern, meter=m),
        "tri": lambda g, m: DataflowView(g, "triangle-count", meter=m),
    }


def build(
    config: dict[str, Any], phases: dict[str, float]
) -> tuple[Repository, Optional[SnapshotPolicy]]:
    """Fresh store: load the graph file, build the views, save."""
    mark = time.perf_counter()
    payload = json.loads(Path(config["graph_file"]).read_text())
    labels = {node: label for node, label in payload["labels"]}
    edges = [tuple(edge) for edge in payload["edges"]]
    shard_map = ShardMap(kind="range", boundaries=[config["boundary"]])
    bulk = config["load"] == "bulk"
    # bulk: the vertices are known, the edges arrive through bulk_load
    graph = ShardedGraphStore.from_labeled_edges(
        labels, () if bulk else edges, shard_map
    )
    phases["graph_s"] = time.perf_counter() - mark
    engine = Engine(graph, executor="serial")
    for name, factory in view_factories(config["spec"]).items():
        mark = time.perf_counter()
        engine.register(name, factory)
        phases[f"view.{name}.build_s"] = time.perf_counter() - mark
    store = SnapshotStore(
        config["store"], shard_map=shard_map, codec="zlib" if bulk else None
    )
    policy = None
    if config["snapshot_every"] or config["compact_every"]:
        policy = SnapshotPolicy(
            every_batches=config["snapshot_every"],
            compact_every_batches=config["compact_every"],
        )
    store.attach(engine, policy)
    repository = Repository(engine, auto_queries=False)
    if bulk:
        mark = time.perf_counter()
        report = repository.bulk_load(edges)
        phases["bulk_load_s"] = time.perf_counter() - mark
        for name, view_report in report.views.items():
            phases[f"view.{name}.build_s"] = view_report.wall_seconds
    mark = time.perf_counter()
    store.save(engine, compact=True)
    phases["save_s"] = time.perf_counter() - mark
    phases["snapshot_bytes"] = store.snapshot_path.stat().st_size
    return repository, policy


def recover(
    config: dict[str, Any], phases: dict[str, float]
) -> tuple[Repository, None]:
    """Crash recovery: snapshot restore plus routed log-tail replay."""
    store = SnapshotStore(config["store"])
    repository = Repository.recover(store, auto_queries=False)
    report = store.last_load_report
    phases["restore_s"] = report.restore_seconds
    phases["replay_s"] = report.replay_seconds
    phases["entries_replayed"] = report.entries_replayed
    return repository, None


class Counters:
    """What the engine did, summed by an apply listener (work is the
    paper's boundedness measure: ``CostMeter`` units per view)."""

    def __init__(self, engine: Engine) -> None:
        self.batches = 0
        self.updates = 0
        self.view_work = {name: 0 for name in engine.names()}
        engine.add_apply_listener(self._on_apply)

    def _on_apply(self, report: Any) -> None:
        self.batches += 1
        self.updates += len(report.delta)
        for name, view_report in report.views.items():
            self.view_work[name] += view_report.cost.total()


def stats(
    repository: Repository,
    frontend: ServingFrontend,
    counters: Counters,
    policy: Optional[SnapshotPolicy],
) -> dict[str, Any]:
    return {
        "now": time.perf_counter(),
        "batches": counters.batches,
        "updates": counters.updates,
        "view_work": dict(counters.view_work),
        "routing": {
            name: [route.batches_routed, route.batches_skipped, route.updates_delivered]
            for name, route in repository.engine.routing_stats().items()
        },
        "cache": repository.stats()["cache"],
        "shed": frontend.shed_count,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "saves": policy.saves if policy else 0,
    }


def emit(message: dict[str, Any]) -> None:
    print(json.dumps(message), flush=True)


async def serve(config: dict[str, Any], tracer: Optional[Any]) -> None:
    phases: dict[str, float] = {"import_s": time.perf_counter() - STARTED}
    repository, policy = (recover if config["recover"] else build)(config, phases)
    for (view, query), fn in QUERIES.items():
        if tracer is not None:
            fn = tracer.traced(f"query.{view}.{query}", fn)
        repository.register_query(view, query, fn)
    counters = Counters(repository.engine)
    frontend = ServingFrontend(repository)
    await frontend.start()
    loop = asyncio.get_running_loop()
    emit({"event": "ready", "port": frontend.port, "phases": phases})
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if line.strip() != "stats":
                break  # "quit", or end-of-file: the generator is gone
            emit(stats(repository, frontend, counters, policy))
    finally:
        await frontend.stop()
        repository.close()
        if tracer is not None:
            Path(config["trace_file"]).write_text(json.dumps(tracer.dump()))
        shutdown_pools()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    config = json.loads(parser.parse_args().config)
    tracer = None
    if config["trace_file"]:
        import tracing

        tracer = tracing.install()
    asyncio.run(serve(config, tracer))


if __name__ == "__main__":
    main()
