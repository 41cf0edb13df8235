"""Shard worker tier test suite (``repro.shardexec``).

Covers the tier plus its serving integration:

* :class:`ShardWorkerPool` — install/degrade/rebind, the scatter/seal
  hot path (routed ≡ broadcast ≡ workers equivalence under group-commit
  windows, and byte-identical segments from workers and the in-process
  windowed writer), and the error contract (latched pipelined failures
  surface at the seal, a dead worker fails the next write at once; the
  affected window stays torn and invisible to replay);
* the serving layer's durability split: under windowed journaling a
  published generation is visible immediately but
  :attr:`~repro.serving.Repository.durable_generation` trails until the
  window seals (auto-seal or :meth:`~repro.serving.Repository.flush`).

Worker processes are real (``spawn``); every test reaps its pool via
the module fixture so resident workers never outlive their scenario.
"""

import os
import random
import signal
import time

import pytest

from repro import (
    Delta,
    DiGraph,
    Engine,
    Repository,
    SegmentedDeltaLog,
    ShardedGraphStore,
    ShardMap,
    SnapshotStore,
    delete,
    insert,
)
from repro.iso import ISOIndex, Pattern
from repro.kws import KWSIndex, KWSQuery
from repro.rpq import RPQIndex
from repro.scc import SCCIndex
from repro.shardexec import ShardWorkerPool, WorkerPoolError, shutdown_pools

KWS_QUERY = KWSQuery(("a", "b"), bound=2)
RPQ_QUERY = "a . (b + c)* . c"
ISO_PATTERN = Pattern.from_edges({0: "a", 1: "b"}, [(0, 1)])
LABELS = ["a", "b", "c", "d"]


@pytest.fixture(autouse=True)
def _reap_pools():
    """No resident worker outlives its test."""
    yield
    shutdown_pools()


def four_view_engine(graph, executor=None) -> Engine:
    engine = Engine(graph) if executor is None else Engine(graph, executor=executor)
    engine.register("kws", lambda g, m: KWSIndex(g, KWS_QUERY, meter=m))
    engine.register("rpq", lambda g, m: RPQIndex(g, RPQ_QUERY, meter=m))
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register("iso", lambda g, m: ISOIndex(g, ISO_PATTERN, meter=m))
    return engine


def random_setup(rng, shards=4):
    labels = {n: rng.choice(LABELS) for n in range(10)}
    edges = [
        (s, t)
        for s in range(10)
        for t in range(10)
        if s != t and rng.random() < 0.2
    ]
    sharded = ShardedGraphStore(shards=shards, labels=labels, edges=edges)
    plain = DiGraph(labels=dict(labels), edges=list(edges))
    return sharded, plain


def random_batch(rng, graph, next_node):
    nodes = list(graph.nodes())
    edges = list(graph.edges())
    non_edges = [
        (s, t)
        for s in nodes
        for t in nodes
        if s != t and not graph.has_edge(s, t)
    ]
    updates = [
        delete(*edge)
        for edge in rng.sample(edges, k=min(len(edges), rng.randint(0, 2)))
    ]
    updates += [
        insert(*edge)
        for edge in rng.sample(non_edges, k=min(len(non_edges), rng.randint(0, 3)))
    ]
    if rng.random() < 0.4 and nodes:
        fresh = next_node[0]
        next_node[0] += 1
        updates.append(
            insert(rng.choice(nodes), fresh, target_label=rng.choice(LABELS))
        )
    rng.shuffle(updates)
    return Delta(updates)


# ----------------------------------------------------------------------
# Pool lifecycle
# ----------------------------------------------------------------------


class TestPoolLifecycle:
    def test_install_declines_unsharded_and_mismatched_graphs(self, tmp_path):
        log = SegmentedDeltaLog(tmp_path / "seg", ShardMap(2), window_size=2)
        plain = four_view_engine(DiGraph(labels={1: "a"}))
        assert ShardWorkerPool.install(plain, log) is None
        mismatched = four_view_engine(
            ShardedGraphStore(shards=3, labels={1: "a"})
        )
        assert ShardWorkerPool.install(mismatched, log) is None
        assert log._worker_pool is None

    def test_install_reuses_resident_workers_across_attaches(self, tmp_path):
        sharded, _ = random_setup(random.Random(1))
        engine = four_view_engine(sharded, executor="workers")
        store = SnapshotStore(tmp_path / "store", shard_map=sharded.shard_map)
        store.attach(engine)
        pool = store.log._worker_pool
        if pool is None:
            pytest.skip("worker processes unavailable in this interpreter")
        pids = [process.pid for process in pool._processes]
        # a second store over the same root re-binds, not re-spawns
        engine.apply(Delta([insert(1, 999, "a", "b")]))
        store.log.flush()
        store.save(engine)
        revived = SnapshotStore(tmp_path / "store").load()
        assert revived.graph == engine.graph
        again = SnapshotStore(tmp_path / "store", shard_map=sharded.shard_map)
        again.attach(engine)
        pool2 = again.log._worker_pool
        assert pool2 is pool
        assert [process.pid for process in pool2._processes] == pids
        # the re-adopted workers keep journaling into the same segments
        engine.apply(Delta([insert(2, 998, "a", "c")]))
        again.log.flush()
        recovered = SnapshotStore(tmp_path / "store").load(attach_journal=False)
        assert recovered.graph == engine.graph

    def test_dead_on_arrival_worker_degrades_install(self, tmp_path, monkeypatch):
        """The adoption round trip is what notices a worker that died
        before its first message: install reaps the pool and declines,
        leaving the log on its in-process windowed appends."""
        spawn = ShardWorkerPool._start
        spawned = []

        def spawn_then_kill(pool):
            started = spawn(pool)
            if started:
                spawned.append(pool)
                os.kill(pool._processes[0].pid, signal.SIGKILL)
                pool._processes[0].join(timeout=5.0)
            return started

        monkeypatch.setattr(ShardWorkerPool, "_start", spawn_then_kill)
        sharded, _ = random_setup(random.Random(3), shards=2)
        engine = four_view_engine(sharded, executor="workers")
        store = SnapshotStore(tmp_path / "store", shard_map=sharded.shard_map)
        store.attach(engine)
        if not spawned:
            pytest.skip("worker processes unavailable in this interpreter")
        assert store.log._worker_pool is None
        assert not spawned[0].alive()  # reaped, not left half-adopted
        store.save(engine)
        engine.apply(Delta([insert(1, 997, "a", "b")]))
        store.log.flush()
        recovered = SnapshotStore(tmp_path / "store").load(attach_journal=False)
        assert recovered.graph == engine.graph

    def test_shutdown_pools_reaps_workers(self, tmp_path):
        sharded, _ = random_setup(random.Random(2))
        engine = four_view_engine(sharded, executor="workers")
        store = SnapshotStore(tmp_path / "store", shard_map=sharded.shard_map)
        store.attach(engine)
        pool = store.log._worker_pool
        if pool is None:
            pytest.skip("worker processes unavailable in this interpreter")
        processes = list(pool._processes)
        shutdown_pools()
        assert all(not process.is_alive() for process in processes)
        assert not pool.alive()


# ----------------------------------------------------------------------
# The hot path: equivalence, cross-shard batches, the written bytes
# ----------------------------------------------------------------------


class TestWorkerEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_windowed_stream_matches_reference_and_recovers(
        self, seed, tmp_path, monkeypatch
    ):
        """Random batch streams through the full workers stack: the
        sharded engine equals the unsharded reference after every
        batch, and the windowed log the workers wrote replays to the
        same session routed and broadcast."""
        monkeypatch.setenv("REPRO_WINDOW_SIZE", "3")
        rng = random.Random(0x5EED + seed)
        sharded_graph, plain_graph = random_setup(rng)
        engine = four_view_engine(sharded_graph, executor="workers")
        reference = four_view_engine(plain_graph)
        store = SnapshotStore(
            tmp_path / "store", shard_map=sharded_graph.shard_map
        )
        store.attach(engine)
        store.save(engine)
        next_node = [100]
        for _ in range(12):
            batch = random_batch(rng, reference.graph, next_node)
            if not batch:
                continue
            engine.apply(batch)
            reference.apply(batch)
            assert engine.graph == reference.graph
            assert engine["kws"].roots() == reference["kws"].roots()
            assert engine["rpq"].matches == reference["rpq"].matches
            assert engine["scc"].components() == reference["scc"].components()
            assert engine["iso"].matches == reference["iso"].matches
        store.log.flush()
        routed = store.load(attach_journal=False)
        broadcast = store.load(attach_journal=False, routed=False)
        for recovered in (routed, broadcast):
            assert recovered.graph == engine.graph
            assert recovered["scc"].components() == engine["scc"].components()
            assert recovered["iso"].matches == engine["iso"].matches

    def test_cross_shard_and_foreign_targets_recover_graph_and_map(
        self, tmp_path
    ):
        """Inserts whose endpoints live on different shards — to existing
        nodes and to brand-new nodes that only a remote-source edge
        introduces — journal through the workers and recover the same
        graph under the same map, with the same per-shard counts."""
        shard_map = ShardMap(4)
        nodes = list(range(16))
        sharded = ShardedGraphStore(
            shard_map=shard_map, labels={n: "a" for n in nodes}
        )
        engine = four_view_engine(sharded, executor="workers")
        store = SnapshotStore(tmp_path / "store", shard_map=shard_map)
        store.attach(engine)
        store.save(engine)
        store.log.window_size = 4
        if store.log._worker_pool is None:
            pytest.skip("worker processes unavailable in this interpreter")
        batches = [
            Delta([insert(0, 1, "a", "a"), insert(2, 3, "a", "a")]),
            Delta([insert(1, 100, "a", "d"), insert(3, 101, "a", "b")]),
            Delta([insert(100, 101, "d", "b"), delete(0, 1)]),
        ]
        for batch in batches:
            engine.apply(batch)
        store.log.flush()
        revived = SnapshotStore(tmp_path / "store").load(attach_journal=False)
        assert revived.graph == engine.graph
        assert revived.graph.shard_map == engine.graph.shard_map == shard_map
        assert revived.graph.shard_sizes() == engine.graph.shard_sizes()
        assert engine.graph.cross_shard_edges() > 0

    def test_workers_and_serial_write_identical_segments(self, tmp_path):
        """One seeded stream — an empty batch and cross-shard inserts
        included — journaled once through the resident workers and once
        through the in-process windowed writer: the segment files come
        out byte for byte the same, so every routed sub-entry, the empty
        batch's frame included, reaches its segment."""
        rng = random.Random(0x10C)
        shard_map = ShardMap(4)
        labels = {n: rng.choice(LABELS) for n in range(12)}
        edges: set = set()
        stream = [Delta([])]
        for step in range(10):
            if step == 4:
                stream.append(Delta([]))
            if step == 7:
                gone = sorted(edges)[0]
                edges.discard(gone)
                stream.append(Delta([delete(*gone)]))
            updates = []
            for source in rng.sample(range(12), 3):
                target = rng.randrange(12 + 3 * step)  # new nodes too
                if target != source and (source, target) not in edges:
                    edges.add((source, target))
                    updates.append(insert(source, target, "a", "b"))
            stream.append(Delta(updates))
        assert any(
            shard_map.shard_of(update.source) != shard_map.shard_of(update.target)
            for batch in stream
            for update in batch
        )
        segments = {}
        for executor in ("workers", "serial"):
            graph = ShardedGraphStore(shard_map=shard_map, labels=dict(labels))
            engine = Engine(graph, executor=executor)
            root = tmp_path / executor
            store = SnapshotStore(root, shard_map=shard_map)
            store.attach(engine)
            store.log.window_size = 3
            if executor == "workers" and store.log._worker_pool is None:
                pytest.skip("worker processes unavailable in this interpreter")
            for batch in stream:
                engine.apply(batch)
            store.log.flush()
            segments[executor] = {
                path.name: path.read_bytes()
                for path in sorted((root / "segments").glob("*.log"))
            }
            shutdown_pools()
        assert segments["workers"] == segments["serial"]
        assert len(segments["serial"]) == shard_map.count
        # the last seq is the closing batch's, whoever wrote the frames
        assert SnapshotStore(tmp_path / "workers").log.last_seq() == len(stream)


# ----------------------------------------------------------------------
# Error contract
# ----------------------------------------------------------------------


class TestErrorContract:
    def _pooled_log(self, tmp_path, shards=2, window_size=4):
        shard_map = ShardMap(shards)
        sharded = ShardedGraphStore(
            shard_map=shard_map, labels={n: "a" for n in range(8)}
        )
        engine = Engine(sharded, executor="workers")
        engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
        store = SnapshotStore(tmp_path / "store", shard_map=shard_map)
        store.attach(engine)
        store.log.window_size = window_size
        return engine, store

    def test_latched_append_failure_tears_the_window(self, tmp_path):
        """A pipelined append that fails inside the worker's own
        ``DeltaLog.append`` (a float label the record format refuses)
        latches there, surfaces as a failed seal, and everything
        appended under the window stays invisible to replay — the
        discard-whole contract."""
        engine, store = self._pooled_log(tmp_path)
        if store.log._worker_pool is None:
            pytest.skip("worker processes unavailable in this interpreter")
        engine.apply(Delta([insert(0, 1, "a", "a")]))
        store.log.flush()
        durable = store.log.last_seq()
        # bypass engine validation: the log routes whatever it is given
        store.log.append(Delta([insert(6, 7, "a", 1.5)]))  # unwritable
        store.log.append(Delta([insert(2, 3, "a", "a")]))
        with pytest.raises(WorkerPoolError, match="SerializationError"):
            store.log.flush()
        # both appends rode the torn window: neither is durable
        assert store.log.last_seq() == durable
        assert [entry.seq for entry in store.log.entries()] == [durable]
        pool = store.log._worker_pool
        assert pool is not None and not pool.alive()
        with pytest.raises(WorkerPoolError, match="broken"):
            pool.append(1, 1, 1, [])

    def test_unregistered_message_is_rejected(self, tmp_path):
        engine, store = self._pooled_log(tmp_path)
        pool = store.log._worker_pool
        if pool is None:
            pytest.skip("worker processes unavailable in this interpreter")
        pool._send(0, {"not": "a registered message"})
        engine.apply(Delta([]))  # an empty batch's frame goes to segment 0
        with pytest.raises(WorkerPoolError, match="unregistered message"):
            store.log.flush()

    def test_broken_pool_reinstalls_fresh_workers(self, tmp_path):
        engine, store = self._pooled_log(tmp_path)
        pool = store.log._worker_pool
        if pool is None:
            pytest.skip("worker processes unavailable in this interpreter")
        store.save(engine)
        pool.terminate()
        assert not pool.alive()
        replacement = ShardWorkerPool.install(engine, store.log)
        assert replacement is not None and replacement is not pool
        assert store.log._worker_pool is replacement
        engine.apply(Delta([insert(0, 1, "a", "a")]))
        store.log.flush()
        recovered = SnapshotStore(tmp_path / "store").load(attach_journal=False)
        assert recovered.graph == engine.graph

    def test_killed_worker_fails_fast_and_recovers(self, tmp_path):
        """SIGKILL one worker while a window is open: the next write
        routed to it raises at once (broken pipe, not the seal timeout)
        and leaves the graph and its segment untouched, the flush raises
        too, recovery returns exactly the sealed windows, and install
        respawns the tier."""
        engine, store = self._pooled_log(tmp_path, window_size=100)
        pool = store.log._worker_pool
        if pool is None:
            pytest.skip("worker processes unavailable in this interpreter")
        shard_map = engine.graph.shard_map
        ones = [n for n in range(8) if shard_map.shard_of(n) == 1]
        zeros = [n for n in range(8) if shard_map.shard_of(n) == 0]
        store.save(engine)
        engine.apply(Delta([insert(ones[0], zeros[0], "a", "a")]))
        store.log.flush()  # the sealed prefix
        sealed = engine.graph.copy()
        # the open window: one sub-entry for each worker
        engine.apply(Delta([insert(ones[1], zeros[1], "a", "a")]))
        engine.apply(Delta([insert(zeros[1], ones[1], "a", "a")]))
        victim = pool._processes[1]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        before = engine.graph.copy()
        segment = store.log.segment_paths()[1]
        segment_bytes = segment.read_bytes()
        started = time.monotonic()
        with pytest.raises(WorkerPoolError, match="unreachable"):
            engine.apply(Delta([insert(ones[0], ones[1], "a", "a")]))
        with pytest.raises(WorkerPoolError):
            store.log.flush()
        assert time.monotonic() - started < 10.0  # nowhere near the timeout
        assert engine.graph == before  # write-ahead: nothing applied
        assert segment.read_bytes() == segment_bytes
        revived = SnapshotStore(tmp_path / "store").load(attach_journal=False)
        assert revived.graph == sealed
        replacement = ShardWorkerPool.install(engine, store.log)
        assert replacement is not None and replacement.alive()
        assert victim.pid not in [process.pid for process in replacement._processes]


# ----------------------------------------------------------------------
# Serving integration: visible now, durable at the seal
# ----------------------------------------------------------------------


class TestServingDurability:
    def _windowed_repo(self, tmp_path, window_size=3):
        shard_map = ShardMap(2)
        sharded = ShardedGraphStore(
            shard_map=shard_map, labels={n: "a" for n in range(6)}
        )
        engine = Engine(sharded)
        engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
        store = SnapshotStore(tmp_path / "store", shard_map=shard_map)
        store.attach(engine)
        # in-process windowed mode: deterministic, no worker processes
        store.log.window_size = window_size
        store.log.executor = "serial"
        return Repository(engine), store

    def test_durable_generation_trails_until_flush(self, tmp_path):
        repo, store = self._windowed_repo(tmp_path)
        assert repo.durable_generation == repo.generation == 0
        repo.apply([insert(0, 1, "a", "a")])
        repo.apply([insert(1, 2, "a", "a")])
        assert repo.generation == 2
        assert repo.durable_generation == 0  # window still open
        assert repo.stats()["durable_generation"] == 0
        assert repo.flush() == 2
        assert repo.durable_generation == 2

    def test_auto_seal_catches_durability_up(self, tmp_path):
        repo, store = self._windowed_repo(tmp_path, window_size=3)
        for step in range(3):
            repo.apply([insert(step, step + 1, "a", "a")])
        # the third append filled the window and sealed it mid-apply
        assert repo.generation == 3
        assert repo.durable_generation == 3
        repo.apply([insert(3, 4, "a", "a")])
        assert repo.durable_generation == 3  # a fresh window opened

    def test_save_is_a_durability_point(self, tmp_path):
        repo, store = self._windowed_repo(tmp_path)
        repo.apply([insert(0, 1, "a", "a")])
        assert repo.durable_generation == 0
        store.save(repo.engine)  # save flushes the open window
        assert repo.durable_generation == 1
        recovered = store.load(attach_journal=False)
        assert recovered.graph == repo.engine.graph

    def test_unwindowed_repository_is_always_durable(self, tmp_path):
        engine = Engine(DiGraph(labels={1: "a", 2: "a"}))
        engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
        store = SnapshotStore(tmp_path / "store")
        store.attach(engine)
        repo = Repository(engine)
        repo.apply([insert(1, 2)])
        assert repo.durable_generation == repo.generation == 1
        assert repo.flush() == 1

    def test_rollback_durability_follows_the_same_window(self, tmp_path):
        repo, store = self._windowed_repo(tmp_path)
        repo.apply([insert(0, 1, "a", "a")])
        repo.rollback(0)
        assert repo.generation == 2
        assert repo.durable_generation == 0  # undo rode the open window
        assert repo.flush() == 2
