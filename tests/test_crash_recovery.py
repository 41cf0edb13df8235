"""Crash-injection torture tests for the persistence layer.

Every byte boundary of a log append and compaction (one segment and
several), and of ``SnapshotStore.save`` (full *and* incremental,
including ``%graphdiff`` chunks and ``compact=True``) is a kill point:
the write is severed
there, the torn bytes really reach the disk, and a fresh process must
recover to a state equal to either the pre-operation or the
post-operation state — never a torn hybrid.

Tier-1 strides the byte space (every write-call boundary is still always
covered, because each record/directive is a separate ``write``);
``REPRO_CRASHSIM_EXHAUSTIVE=1`` (the nightly CI job) walks every single
byte.
"""

import os
import shutil

import pytest

from crashsim import FaultyStore
from repro import (
    Delta,
    DiGraph,
    Engine,
    ShardedGraphStore,
    ShardMap,
    delete,
    insert,
)
from repro.dataflow import DataflowView
from repro.iso import ISOIndex, Pattern
from repro.kws import KWSIndex, KWSQuery
from repro.persist import SegmentedDeltaLog, SnapshotStore
from repro.rpq import RPQIndex
from repro.scc import SCCIndex

EXHAUSTIVE = os.environ.get("REPRO_CRASHSIM_EXHAUSTIVE") == "1"
#: Byte stride between kill points in the quick configuration.  Chosen
#: co-prime with common record lengths so strided points drift across
#: line offsets instead of hitting the same column every time.
STRIDE = 1 if EXHAUSTIVE else 7
#: Snapshot saves are a few KB; a wider (still co-prime) stride keeps
#: tier-1 fast while every record boundary is still crossed — each
#: record is its own write call, so a kill point inside *any* record
#: severs at that record's boundary offset.  Nightly walks every byte.
SAVE_STRIDE = 1 if EXHAUSTIVE else 23

KWS_QUERY = KWSQuery(("a", "b"), bound=2)
RPQ_QUERY = "a . (b + c)* . c"
ISO_PATTERN = Pattern.from_edges({0: "a", 1: "b"}, [(0, 1)])
SHARD_MAP = ShardMap(3)


def clear_dir(root) -> None:
    """Reset a torture root between kill points (segment directories
    nest one level, so a flat unlink loop is not enough)."""
    if root.exists():
        for child in root.iterdir():
            if child.is_dir():
                shutil.rmtree(child)
            else:
                child.unlink()
    root.mkdir(exist_ok=True)


def sample_graph() -> DiGraph:
    return DiGraph(
        labels={1: "a", 2: "b", 3: "c", 4: "a", 5: "b", 6: "d", 7: "d"},
        edges=[(1, 2), (2, 3), (3, 1), (4, 5), (6, 7)],
    )


def four_view_engine(graph: DiGraph) -> Engine:
    """The four paper indexes plus a ``dataflow`` section (triangle
    count), so every save/load kill point also tortures the dataflow
    view kind's snapshot + restore + replay path."""
    engine = Engine(graph)
    engine.register("kws", lambda g, m: KWSIndex(g, KWS_QUERY, meter=m))
    engine.register("rpq", lambda g, m: RPQIndex(g, RPQ_QUERY, meter=m))
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register("iso", lambda g, m: ISOIndex(g, ISO_PATTERN, meter=m))
    engine.register(
        "tri", lambda g, m: DataflowView(g, "triangle-count", meter=m)
    )
    return engine


def assert_recovered_equals(recovered: Engine, reference: Engine) -> None:
    assert recovered.graph == reference.graph
    assert recovered["kws"].roots() == reference["kws"].roots()
    assert recovered["rpq"].matches == reference["rpq"].matches
    assert recovered["scc"].components() == reference["scc"].components()
    assert recovered["iso"].matches == reference["iso"].matches
    assert recovered["tri"].value() == reference["tri"].value()
    assert recovered["tri"].snapshot() == reference["tri"].snapshot()


# ----------------------------------------------------------------------
# One-segment log: append
# ----------------------------------------------------------------------


def open_one_segment(root) -> SegmentedDeltaLog:
    """A serial-executor one-segment log, the unsharded graph's journal
    (kill points must be deterministic, and the crash shims live in this
    process)."""
    return SegmentedDeltaLog(root / "segments", ShardMap(1), executor="serial")


class TestTornAppend:
    def test_append_recovers_at_every_kill_point(self, tmp_path):
        """A killed append leaves either the old committed entries or the
        old entries plus the new one — and the log stays appendable with
        never-reused seqs."""
        root = tmp_path / "log"
        pre = [
            Delta([insert(1, 2, "a", "b"), delete(3, 4)]),
            Delta([insert("spaced node", 'quo"ted', "x y", "")]),
        ]
        new_batch = Delta([insert(7, 8, "c", "d"), delete(1, 2)])

        def setup():
            clear_dir(root)
            log = open_one_segment(root)
            for batch in pre:
                log.append(batch)

        def operation():
            open_one_segment(root).append(new_batch)

        def recover(completed):
            log = open_one_segment(root)
            entries = log.entries()
            seqs = [entry.seq for entry in entries]
            # pre- or post-state, never a hybrid: a kill that tore only
            # the final newline leaves a fully parseable entry, which
            # recovery MAY keep (redo semantics — unacknowledged but
            # intact); every other kill must drop the whole entry.
            assert seqs in ([1, 2], [1, 2, 3])
            if completed:
                assert seqs == [1, 2, 3]
            if seqs == [1, 2, 3]:
                assert entries[-1].delta.updates == new_batch.updates
            assert entries[0].delta.updates == pre[0].updates
            assert entries[1].delta.updates == pre[1].updates
            # the log must stay appendable, without seq reuse
            next_seq = log.append(Delta([insert(9, 9)]))
            assert next_seq >= 3 and next_seq > max(seqs)
            tail = open_one_segment(root).entries()
            assert tail[-1].delta.updates == [insert(9, 9)]

        harness = FaultyStore(root, setup, operation, recover, stride=STRIDE)
        assert harness.torture() > 4

    def test_append_after_torn_append_never_reuses_a_mentioned_seq(
        self, tmp_path
    ):
        """If the torn fragment already mentioned its seq on disk, a
        fresh process must skip past it."""
        root = tmp_path / "log"
        root.mkdir()
        log = open_one_segment(root)
        log.append(Delta([insert(1, 2)]))
        harness = FaultyStore(root, lambda: None, lambda: None, lambda _: None)
        killed = harness.run(fuel=12)  # dies mid-entry, after "%batch 2\n"
        assert killed  # nothing ran; arming alone must not crash

        def torn_append():
            open_one_segment(root).append(Delta([insert(5, 6)]))

        harness.operation = torn_append
        assert not harness.run(fuel=9)  # "%batch 2\n" is 9 bytes: seq torn in
        fresh = open_one_segment(root)
        assert [entry.seq for entry in fresh.entries()] == [1]
        assert fresh.append(Delta([insert(6, 7)])) == 3  # 2 is spoken for


# ----------------------------------------------------------------------
# One-segment log: compact
# ----------------------------------------------------------------------


class TestTornCompact:
    def test_compact_recovers_at_every_kill_point(self, tmp_path):
        root = tmp_path / "log"
        batches = [Delta([insert(k, k + 1)]) for k in range(4)]

        def setup():
            clear_dir(root)
            log = open_one_segment(root)
            for batch in batches:
                log.append(batch)

        def operation():
            open_one_segment(root).compact(after=2)

        def recover(completed):
            log = open_one_segment(root)
            seqs = [entry.seq for entry in log.entries()]
            if completed:
                assert seqs == [3, 4]
                assert log.last_seq() == 4
            else:
                # temp-and-rename: the old log must be fully intact
                assert seqs == [1, 2, 3, 4]
            assert open_one_segment(root).append(Delta([insert(9, 9)])) == 5

        harness = FaultyStore(root, setup, operation, recover, stride=STRIDE)
        assert harness.torture() > 3


# ----------------------------------------------------------------------
# SnapshotStore.save — full, incremental (%graphdiff), compacting
# ----------------------------------------------------------------------


class SaveTorture:
    """Shared harness: build a journaling session with a snapshot and a
    journaled tail, torture one save variant, and require every recovery
    to equal the live session."""

    #: Batches journaled after the first save (the tail at crash time).
    TAIL = [
        Delta([delete(6, 7)]),
        Delta([insert(6, 1, "d", "a"), delete(3, 1)]),
    ]

    def build(self, root):
        """Returns (engine, store) with a saved snapshot + journaled tail."""
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(root)
        store.attach(engine)
        store.save(engine)
        for batch in self.TAIL:
            engine.apply(batch)
        return engine, store

    def tortured_save(self, engine, store):
        raise NotImplementedError

    def run(self, tmp_path):
        root = tmp_path / "store"
        state = {}

        def setup():
            clear_dir(root)
            state["engine"], state["store"] = self.build(root)

        def operation():
            self.tortured_save(state["engine"], state["store"])

        def recover(completed):
            # a fresh process: nothing but the disk survives
            revived = SnapshotStore(root).load(attach_journal=False)
            assert_recovered_equals(revived, state["engine"])

        harness = FaultyStore(root, setup, operation, recover, stride=SAVE_STRIDE)
        assert harness.torture() > 10


class TestTornFullSave(SaveTorture):
    def tortured_save(self, engine, store):
        store.save(engine)

    def test_full_save(self, tmp_path):
        self.run(tmp_path)


class TestTornIncrementalSave(SaveTorture):
    """The incremental writer path: carried view sections, carried graph
    base, and a fresh ``%graphdiff`` chunk."""

    def build(self, root):
        engine, store = super().build(root)
        # an intermediate incremental save seeds carried sections and a
        # first %graphdiff chunk; the tortured save then appends another
        store.save(engine, incremental=True)
        engine.apply(Delta([insert(7, 2, "d", "b")]))
        return engine, store

    def tortured_save(self, engine, store):
        store.save(engine, incremental=True)

    def test_incremental_save(self, tmp_path):
        self.run(tmp_path)


class TestTornCompactingSave(SaveTorture):
    """``save(compact=True)`` spans two atomic writes (snapshot rename,
    then log rewrite); a kill between them must leave the new snapshot
    with the old log — still consistent, because compaction only drops
    what the already-durable snapshot covers."""

    def tortured_save(self, engine, store):
        store.save(engine, compact=True)

    def test_compacting_save(self, tmp_path):
        self.run(tmp_path)


class TestTornCompressedFullSave(SaveTorture):
    """The v5 compressed writer: ``%packed`` bodies flow through the
    same temp-write/fsync/rename discipline as plaintext, so a torn
    compressed save must leave the previous snapshot intact and a
    completed one must read back exactly."""

    def build(self, root):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(root, codec="zlib")
        store.attach(engine)
        store.save(engine)
        for batch in self.TAIL:
            engine.apply(batch)
        return engine, store

    def tortured_save(self, engine, store):
        store.save(engine)

    def test_compressed_full_save(self, tmp_path):
        self.run(tmp_path)


class TestTornCompressedIncrementalSave(TestTornCompressedFullSave):
    """Compressed incremental saves carry earlier ``%packed`` blocks
    byte-for-byte and append fresh ones; a kill anywhere in that copy
    must not corrupt the carried bytes the next load depends on."""

    def build(self, root):
        engine, store = super().build(root)
        store.save(engine, incremental=True)
        engine.apply(Delta([insert(7, 2, "d", "b")]))
        return engine, store

    def tortured_save(self, engine, store):
        store.save(engine, incremental=True)

    def test_compressed_incremental_save(self, tmp_path):
        self.run(tmp_path)


class TestTornAppendInSession:
    """A crash inside the journal append of ``engine.apply``: the batch
    was never acknowledged, so recovery must equal the session *without*
    it (write-ahead ordering: the log may lead the session by at most the
    torn, unacknowledged entry — which recovery discards)."""

    def test_session_append_crash(self, tmp_path):
        root = tmp_path / "store"
        batch = Delta([delete(6, 7), insert(7, 1, "d", "a")])
        state = {}

        def setup():
            clear_dir(root)
            engine = four_view_engine(sample_graph())
            store = SnapshotStore(root)
            store.attach(engine)
            store.save(engine)
            state["engine"], state["store"] = engine, store

        def operation():
            state["engine"].apply(batch)

        def recover(completed):
            revived = SnapshotStore(root).load(attach_journal=False)
            with_batch = four_view_engine(sample_graph())
            with_batch.apply(batch)
            if completed or revived.graph == with_batch.graph:
                # redo semantics: a kill that tore only the entry's final
                # newline leaves it intact on disk, and recovery replays
                # it even though the session never acknowledged it.
                assert_recovered_equals(revived, with_batch)
            else:
                assert_recovered_equals(revived, four_view_engine(sample_graph()))

        harness = FaultyStore(root, setup, operation, recover, stride=STRIDE)
        assert harness.torture() > 3


# ----------------------------------------------------------------------
# SegmentedDeltaLog — cross-segment commit atomicity under crashes
# ----------------------------------------------------------------------


def sharded_sample_graph() -> ShardedGraphStore:
    return ShardedGraphStore.from_digraph(sample_graph(), SHARD_MAP)


def open_segmented(root) -> SegmentedDeltaLog:
    """A serial-executor segmented log (kill points must be
    deterministic, and the crash shims live in this process)."""
    return SegmentedDeltaLog(root / "segments", SHARD_MAP, executor="serial")


class TestTornSegmentedAppend:
    def test_append_recovers_at_every_kill_point(self, tmp_path):
        """A killed multi-segment append must recover to the old
        committed entries — or, when every participant's sub-entry
        landed intact, the old entries plus the new one (the same redo
        caveat as the one-segment log) — never a partially merged batch."""
        root = tmp_path / "log"
        pre = [
            Delta([insert(1, 2, "a", "b"), insert(6, 7, "d", "d")]),
            Delta([insert(4, 5, "a", "b")]),
        ]
        # spans several shards, so the kill space covers inter-segment gaps
        new_batch = Delta(
            [insert(10, 11, "c", "d"), insert(11, 12, "d", "a"), delete(1, 2)]
        )
        participants = len(
            {SHARD_MAP.shard_of(update.source) for update in new_batch}
        )
        assert participants >= 2  # the scenario must actually span segments

        def setup():
            clear_dir(root)
            log = open_segmented(root)
            for batch in pre:
                log.append(batch)

        def operation():
            open_segmented(root).append(new_batch)

        def recover(completed):
            log = open_segmented(root)
            entries = log.entries()
            seqs = [entry.seq for entry in entries]
            assert seqs in ([1, 2], [1, 2, 3])
            if completed:
                assert seqs == [1, 2, 3]
            if seqs == [1, 2, 3]:
                # all-or-nothing: the merged batch is complete, never a
                # subset of its updates
                assert {u.edge for u in entries[-1].delta} == {
                    u.edge for u in new_batch
                }
            assert {u.edge for u in entries[0].delta} == {
                u.edge for u in pre[0]
            }
            # appendable, without reusing any mentioned seq
            next_seq = log.append(Delta([insert(9, 9)]))
            assert next_seq > max(seqs) and next_seq >= 3
            tail = open_segmented(root).entries()
            assert tail[-1].delta.updates == [insert(9, 9)]

        harness = FaultyStore(root, setup, operation, recover, stride=STRIDE)
        assert harness.torture() > 4


class TestTornSegmentedCompact:
    def test_compact_recovers_at_every_kill_point(self, tmp_path):
        """Compaction rewrites one segment at a time (temp-and-rename
        each); a kill between segments leaves a mix of compacted and
        uncompacted files — which must still read consistently above
        the floor, keep every covered seq spoken for, and stay
        appendable."""
        root = tmp_path / "log"
        batches = [
            Delta([insert(k, k + 1, "a", "b"), insert(k + 10, k, "c", "d")])
            for k in range(4)
        ]

        def setup():
            clear_dir(root)
            log = open_segmented(root)
            for batch in batches:
                log.append(batch)

        def operation():
            open_segmented(root).compact(after=2)

        def recover(completed):
            log = open_segmented(root)
            tail = log.entries(after=2)
            assert [entry.seq for entry in tail] == [3, 4]
            for entry, batch in zip(tail, batches[2:]):
                assert {u.edge for u in entry.delta} == {u.edge for u in batch}
            assert log.last_seq() == 4
            if completed:
                # every segment carries the floor: nothing below it is
                # merged back
                assert [entry.seq for entry in log.entries()] == [3, 4]
            assert open_segmented(root).append(Delta([insert(9, 9)])) == 5

        harness = FaultyStore(root, setup, operation, recover, stride=STRIDE)
        assert harness.torture() > 3


class TestTornShardedSave(SaveTorture):
    """The full save path of a sharded session: v3 header + ``%meta
    sharding`` stamp + segmented journal, recovered by a fresh store
    that discovers the layout from disk."""

    def build(self, root):
        engine = four_view_engine(sharded_sample_graph())
        store = SnapshotStore(root, shard_map=SHARD_MAP)
        store.log.executor = "serial"
        store.attach(engine)
        store.save(engine)
        for batch in self.TAIL:
            engine.apply(batch)
        return engine, store

    def tortured_save(self, engine, store):
        store.save(engine)

    def test_sharded_save(self, tmp_path):
        self.run(tmp_path)


class TestTornShardedIncrementalSave(TestTornShardedSave):
    """Sharded + incremental: carried sections and %graphdiff chunks on
    top of the segmented journal."""

    def build(self, root):
        engine, store = super().build(root)
        store.save(engine, incremental=True)
        engine.apply(Delta([insert(7, 2, "d", "b")]))
        return engine, store

    def tortured_save(self, engine, store):
        store.save(engine, incremental=True)

    def test_sharded_incremental_save(self, tmp_path):
        self.run(tmp_path)


class TestTornShardSplit:
    """Every kill point of an online shard split — the pre-split seal,
    the snapshot temp write, and the committing rename.  Recovery must
    see the whole split (new map, migrated sub-graph) or none of it
    (the live session rolls the migration back and the disk still holds
    the old layout) — never a torn hybrid, and never a lost tail
    batch."""

    def test_split_recovers_at_every_kill_point(self, tmp_path):
        root = tmp_path / "store"
        old_map = SHARD_MAP
        new_map = SHARD_MAP.split(1)
        state = {}

        def setup():
            clear_dir(root)
            engine = four_view_engine(sharded_sample_graph())
            store = SnapshotStore(root, shard_map=old_map)
            store.log.executor = "serial"
            store.attach(engine)
            store.save(engine)
            for batch in SaveTorture.TAIL:
                engine.apply(batch)
            state["engine"], state["store"] = engine, store

        def operation():
            state["store"].split_shard(state["engine"], 1)

        def recover(completed):
            engine = state["engine"]
            # in-process rollback: a failed split restores the old map
            # before the error propagates, so the live session and the
            # disk agree on the layout either way
            live_map = engine.graph.shard_map
            assert live_map == (new_map if completed else old_map)
            revived = SnapshotStore(root).load(attach_journal=False)
            assert revived.graph.shard_map == live_map
            assert_recovered_equals(revived, engine)

        harness = FaultyStore(root, setup, operation, recover, stride=SAVE_STRIDE)
        assert harness.torture() > 10


class TestTornSegmentedAppendInSession:
    """A crash inside the segmented journal append of ``engine.apply``:
    the batch was never acknowledged, so recovery must equal the session
    without it — or with it entirely, when every sub-entry landed intact
    (redo semantics); never a partially applied batch."""

    def test_session_append_crash(self, tmp_path):
        root = tmp_path / "store"
        batch = Delta(
            [delete(6, 7), insert(7, 1, "d", "a"), insert(1, 6, "a", "d")]
        )
        state = {}

        def setup():
            clear_dir(root)
            engine = four_view_engine(sharded_sample_graph())
            store = SnapshotStore(root, shard_map=SHARD_MAP)
            store.log.executor = "serial"
            store.attach(engine)
            store.save(engine)
            state["engine"], state["store"] = engine, store

        def operation():
            state["engine"].apply(batch)

        def recover(completed):
            revived = SnapshotStore(root).load(attach_journal=False)
            with_batch = four_view_engine(sharded_sample_graph())
            with_batch.apply(batch)
            if completed or revived.graph == with_batch.graph:
                assert_recovered_equals(revived, with_batch)
            else:
                assert_recovered_equals(
                    revived, four_view_engine(sharded_sample_graph())
                )

        harness = FaultyStore(root, setup, operation, recover, stride=STRIDE)
        assert harness.torture() > 3


# ----------------------------------------------------------------------
# Group-commit windows (format v4) — discard-whole under crashes
# ----------------------------------------------------------------------


def open_windowed(root, window_size=4) -> SegmentedDeltaLog:
    """An in-process windowed segmented log (``executor="serial"``,
    explicit window size): same ``%window``/``%seal`` framing the worker
    tier writes, but every byte leaves *this* process, which is where
    the crash shims live."""
    return SegmentedDeltaLog(
        root / "segments", SHARD_MAP, executor="serial", window_size=window_size
    )


class TestTornWindowedAppend:
    def test_windowed_append_and_seal_recover_at_every_kill_point(
        self, tmp_path
    ):
        """Kill points across two windowed appends *and* the seal that
        makes them durable: recovery sees either the previously sealed
        prefix or the whole new window — never one of its batches
        without the other (invariant 11: torn windows are discarded
        whole)."""
        root = tmp_path / "log"
        pre = [
            Delta([insert(1, 2, "a", "b"), insert(6, 7, "d", "d")]),
            Delta([insert(4, 5, "a", "b")]),
        ]
        window_batches = [
            Delta([insert(10, 11, "c", "d"), insert(11, 12, "d", "a")]),
            Delta([delete(1, 2), insert(12, 13, "a", "b")]),
        ]

        def setup():
            clear_dir(root)
            log = open_windowed(root)
            for batch in pre:
                log.append(batch)
            log.flush()  # window 0 sealed: the durable prefix

        def operation():
            log = open_windowed(root)
            for batch in window_batches:
                log.append(batch)
            log.flush()

        def recover(completed):
            log = open_windowed(root)
            seqs = [entry.seq for entry in log.entries()]
            # all-or-nothing at window granularity: seq 3 without seq 4
            # (or vice versa) would be a torn window leaking through
            assert seqs in ([1, 2], [1, 2, 3, 4])
            if completed:
                assert seqs == [1, 2, 3, 4]
                assert log.last_seq() == 4
            # appendable after recovery, never reusing a mentioned seq
            next_seq = log.append(Delta([insert(9, 9)]))
            log.flush()
            assert next_seq > max(seqs)
            tail = open_windowed(root).entries()
            assert tail[-1].delta.updates == [insert(9, 9)]
            assert tail[-1].seq == next_seq

        harness = FaultyStore(root, setup, operation, recover, stride=STRIDE)
        assert harness.torture() > 4

    def test_seal_alone_recovers_at_every_kill_point(self, tmp_path):
        """The seal in isolation (appends already on disk, unsealed):
        a kill before the last participant's ``%seal`` fsync discards
        the window whole; after it, the window replays whole."""
        root = tmp_path / "log"
        state = {}
        window_batches = [
            Delta([insert(10, 11, "c", "d"), insert(11, 12, "d", "a")]),
            Delta([insert(12, 13, "a", "b")]),
        ]

        def setup():
            clear_dir(root)
            log = open_windowed(root)
            log.append(Delta([insert(1, 2, "a", "b")]))
            log.flush()  # sealed prefix: seq 1
            for batch in window_batches:
                log.append(batch)  # window open across both
            state["log"] = log

        def operation():
            state["log"].seal_window()

        def recover(completed):
            log = open_windowed(root)
            seqs = [entry.seq for entry in log.entries()]
            assert seqs in ([1], [1, 2, 3])
            if completed:
                assert seqs == [1, 2, 3]
                assert log.last_seq() == 3

        harness = FaultyStore(root, setup, operation, recover, stride=STRIDE)
        assert harness.torture() > 2


class TestCoordinatorDeathMidWindow:
    """The worker-tier crash story: the coordinator (and with it every
    resident worker) dies while a window is open mid-absorb.  Workers
    were appending pipelined sub-entries with no fsync — any prefix of
    them may have reached the segments — but no ``%seal`` ever landed,
    so a fresh process must recover exactly the sealed prefix."""

    def test_terminated_pool_leaves_only_sealed_windows(self, tmp_path):
        pytest.importorskip("multiprocessing")
        from repro.shardexec import shutdown_pools

        root = tmp_path / "store"
        shard_map = ShardMap(3)
        engine = four_view_engine(
            ShardedGraphStore.from_digraph(sample_graph(), shard_map)
        )
        engine.scheduler.executor = "workers"
        reference = four_view_engine(sample_graph())
        store = SnapshotStore(root, shard_map=shard_map)
        store.attach(engine)
        store.log.window_size = 100  # no auto-seal: flush() decides
        try:
            store.save(engine)
            durable = [
                Delta([delete(6, 7)]),
                Delta([insert(6, 1, "d", "a"), delete(3, 1)]),
            ]
            for batch in durable:
                engine.apply(batch)
                reference.apply(batch)
            store.log.flush()  # the sealed (durable) prefix
            pool = store.log._worker_pool
            if pool is None:
                pytest.skip("worker processes unavailable in this interpreter")
            # these ride the open window; the kill races their absorb
            for batch in [
                Delta([insert(7, 2, "d", "b")]),
                Delta([insert(2, 6, "b", "d"), delete(4, 5)]),
            ]:
                engine.apply(batch)
            pool.terminate()  # coordinator death: workers killed mid-pipeline
            revived = SnapshotStore(root).load(attach_journal=False)
            assert_recovered_equals(revived, reference)
            # the root stays serviceable: a fresh session re-spawns
            # workers and the next sealed window lands on top.  The
            # strategy is set on the log, where load()'s attach reads it
            fresh_store = SnapshotStore(root, shard_map=shard_map)
            fresh_store.log.executor = "workers"
            fresh_store.log.window_size = 100
            fresh = fresh_store.load()
            respawned = fresh_store.log._worker_pool
            assert respawned is not None and respawned is not pool
            assert respawned.alive()
            follow_up = Delta([insert(1, 5, "a", "b")])
            fresh.apply(follow_up)
            reference.apply(follow_up)
            fresh_store.log.flush()
            final = SnapshotStore(root).load(attach_journal=False)
            assert_recovered_equals(final, reference)
        finally:
            shutdown_pools()


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
