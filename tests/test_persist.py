"""Persistence tests: delta-log durability semantics, per-view
snapshot/restore equivalence, full SnapshotStore recovery (snapshot +
replayed tail equals the uninterrupted session), per-view replay cursors
and ``%graphdiff`` incremental graph sections (format v2, with v1
read-compat), relevance-aware log compaction equivalence, engine view
lifecycle (deregister / lazy build), and the save→load→replay property
against from-scratch recomputation after randomized batches (mirroring
``test_engine.py``'s consistency harness)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Delta, DiGraph, Engine, EngineError, delete, insert
from repro.graph.sharding import ShardMap
from repro.iso import ISOIndex, Pattern, vf2_matches
from repro.kws import KWSIndex, KWSQuery, batch_kws
from repro.persist import (
    PersistFormatError,
    SegmentedDeltaLog,
    SnapshotStore,
    load_session,
    save_session,
    split_snapshot_sections,
)
from repro.rpq import RPQIndex, matches_only, rpq_nfa
from repro.scc import SCCIndex, tarjan_scc

LABELS = ["a", "b", "c"]
KWS_QUERY = KWSQuery(("a", "b"), bound=2)
RPQ_QUERY = "a . (b + c)* . c"
ISO_PATTERN = Pattern.from_edges({0: "a", 1: "b"}, [(0, 1)])


def sample_graph() -> DiGraph:
    return DiGraph(
        labels={1: "a", 2: "b", 3: "c", 4: "a", 5: "b"},
        edges=[(1, 2), (2, 3), (3, 1), (4, 5)],
    )


def four_view_engine(graph: DiGraph) -> Engine:
    engine = Engine(graph)
    engine.register("kws", lambda g, m: KWSIndex(g, KWS_QUERY, meter=m))
    engine.register("rpq", lambda g, m: RPQIndex(g, RPQ_QUERY, meter=m))
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register("iso", lambda g, m: ISOIndex(g, ISO_PATTERN, meter=m))
    return engine


def assert_views_match_recompute(engine: Engine) -> None:
    graph = engine.graph
    assert engine["kws"].roots() == set(batch_kws(graph, KWS_QUERY))
    assert engine["rpq"].matches == matches_only(graph, RPQ_QUERY)
    assert engine["scc"].components() == tarjan_scc(graph).partition()
    assert engine["iso"].matches == vf2_matches(graph, ISO_PATTERN)
    engine["scc"].check_consistency()
    engine["iso"].check_consistency()


def assert_sessions_equal(recovered: Engine, reference: Engine) -> None:
    """Graph, view outputs, and query answers all agree."""
    assert recovered.graph == reference.graph
    assert set(recovered.names()) == set(reference.names())
    assert recovered["kws"].roots() == reference["kws"].roots()
    assert recovered["kws"].profile() == reference["kws"].profile()
    assert recovered["rpq"].matches == reference["rpq"].matches
    assert recovered["scc"].components() == reference["scc"].components()
    assert recovered["iso"].matches == reference["iso"].matches


# ----------------------------------------------------------------------
# The log: a one-segment SegmentedDeltaLog
# ----------------------------------------------------------------------


def one_segment(tmp_path) -> SegmentedDeltaLog:
    """A one-segment log over ``tmp_path / "segments"``, per-batch
    durable under any executor.  Each call is a fresh object that reads
    the files afresh, as a new process would."""
    return SegmentedDeltaLog(tmp_path / "segments", ShardMap(1), executor="serial")


def segment_file(tmp_path):
    """The one segment's file, its directory made (for hand-written
    log text)."""
    path = tmp_path / "segments" / SegmentedDeltaLog.SEGMENT_FORMAT.format(0)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


class TestDeltaLog:
    def test_append_and_read_back(self, tmp_path):
        log = one_segment(tmp_path)
        first = Delta([insert(1, 2, "a", "b"), delete(3, 4)])
        second = Delta([insert("spaced node", 'quo"ted', "x y", "")])
        assert log.append(first) == 1
        assert log.append(second) == 2
        entries = log.entries()
        assert [entry.seq for entry in entries] == [1, 2]
        assert entries[0].delta.updates == first.updates
        assert entries[1].delta.updates == second.updates

    def test_after_filter_and_last_seq(self, tmp_path):
        log = one_segment(tmp_path)
        assert log.last_seq() == 0
        for k in range(3):
            log.append(Delta([insert(k, k + 1)]))
        assert log.last_seq() == 3
        assert [entry.seq for entry in log.entries(after=2)] == [3]

    def test_seq_survives_reopen(self, tmp_path):
        path = segment_file(tmp_path)
        one_segment(tmp_path).append(Delta([insert(1, 2)]))
        assert one_segment(tmp_path).append(Delta([insert(2, 3)])) == 2

    def test_torn_tail_is_dropped(self, tmp_path):
        path = segment_file(tmp_path)
        log = one_segment(tmp_path)
        log.append(Delta([insert(1, 2)]))
        with open(path, "a", encoding="utf-8") as stream:
            stream.write("%batch 2\n+ 5 6")  # crash: no %commit, no newline
        assert [entry.seq for entry in one_segment(tmp_path).entries()] == [1]

    @pytest.mark.parametrize(
        "torn", ["%bat", "%batch", "%comm", '%batch "'],
        ids=["directive-prefix", "seq-missing", "commit-prefix", "mid-token"],
    )
    def test_torn_directive_tail_is_dropped(self, tmp_path, torn):
        """A crash can tear the framing directives themselves; every torn
        shape at EOF must be recoverable, not fatal."""
        path = segment_file(tmp_path)
        one_segment(tmp_path).append(Delta([insert(1, 2)]))
        with open(path, "a", encoding="utf-8") as stream:
            stream.write(torn)
        assert [entry.seq for entry in one_segment(tmp_path).entries()] == [1]

    def test_unserializable_batch_leaves_no_torn_entry(self, tmp_path):
        from repro.graph.io_tokens import SerializationError

        log = one_segment(tmp_path)
        log.append(Delta([insert(1, 2)]))
        with pytest.raises(SerializationError):
            log.append(Delta([insert(3, 4, source_label=("tu", "ple"))]))
        assert [entry.seq for entry in one_segment(tmp_path).entries()] == [1]

    def test_append_after_torn_tail_does_not_reuse_seq(self, tmp_path):
        path = segment_file(tmp_path)
        one_segment(tmp_path).append(Delta([insert(1, 2)]))
        with open(path, "a", encoding="utf-8") as stream:
            stream.write("%batch 2\n")  # torn entry claims seq 2
        fresh = one_segment(tmp_path)
        assert fresh.append(Delta([insert(2, 3)])) == 3
        assert [entry.seq for entry in fresh.entries()] == [1, 3]

    def test_corrupt_committed_entry_raises(self, tmp_path):
        """A %commit whose records did not parse is corruption of
        acknowledged data, not a torn fragment — it must raise."""
        path = segment_file(tmp_path)
        path.write_text(
            "%batch 1\n? 1 2\n%commit\n%batch 2\n+ 2 3\n%commit\n",
            encoding="utf-8",
        )
        with pytest.raises(PersistFormatError, match="corrupt committed data"):
            one_segment(tmp_path).entries()

    def test_mid_file_torn_entry_is_skipped(self, tmp_path):
        """A torn entry prefix that a later (healed) append wrote past —
        the realistic mid-file crash residue — is skipped, and the
        committed entries around it survive."""
        path = segment_file(tmp_path)
        log = one_segment(tmp_path)
        log.append(Delta([insert(1, 2)]))
        with open(path, "a", encoding="utf-8") as stream:
            stream.write("%batch 2\n- 1 ")  # crash mid-record, no commit
        fresh = one_segment(tmp_path)
        assert fresh.append(Delta([insert(5, 6)])) == 3
        assert [entry.seq for entry in fresh.entries()] == [1, 3]

    def test_non_increasing_seq_raises(self, tmp_path):
        path = segment_file(tmp_path)
        path.write_text(
            "%batch 2\n%commit\n%batch 1\n%commit\n", encoding="utf-8"
        )
        with pytest.raises(PersistFormatError, match="does not increase"):
            one_segment(tmp_path).entries()

    def test_compact_drops_covered_entries(self, tmp_path):
        log = one_segment(tmp_path)
        for k in range(4):
            log.append(Delta([insert(k, k + 1)]))
        assert log.compact(after=2) == 2
        assert [entry.seq for entry in log.entries()] == [3, 4]
        # seqs keep increasing after compaction
        assert one_segment(tmp_path).append(Delta([insert(9, 10)])) == 5

    def test_compact_floor_survives_fresh_process(self, tmp_path):
        """A fully compacted (empty) log must not reset seq allocation
        below the snapshot stamp — later appends would be invisible to
        the next recovery's entries(after=stamp)."""
        log = one_segment(tmp_path)
        log.append(Delta([insert(1, 2)]))
        log.append(Delta([insert(2, 3)]))
        log.compact(after=2)  # snapshot covered everything
        fresh = one_segment(tmp_path)  # a new process
        assert fresh.last_seq() == 2
        assert fresh.append(Delta([insert(3, 4)])) == 3
        assert [entry.seq for entry in fresh.entries(after=2)] == [3]

    def test_append_heals_missing_trailing_newline(self, tmp_path):
        """A torn final line without a newline must not glue onto the
        next entry's %batch directive."""
        path = segment_file(tmp_path)
        log = one_segment(tmp_path)
        log.append(Delta([insert(1, 2)]))
        with open(path, "a", encoding="utf-8") as stream:
            stream.write("%batch 2\n- 1 ")  # crash mid-record, no newline
        fresh = one_segment(tmp_path)
        assert fresh.append(Delta([insert(5, 6)])) == 3
        assert [entry.seq for entry in fresh.entries()] == [1, 3]

    def test_skipped_entries_are_not_parsed(self, tmp_path):
        """entries(after=N) must not tokenize records of covered entries
        (recovery reads are tail-sized)."""
        import repro.persist.deltalog as deltalog_module

        log = one_segment(tmp_path)
        for k in range(3):
            log.append(Delta([insert(k, k + 1)]))
        calls = []
        original = deltalog_module.update_from_fields
        deltalog_module.update_from_fields = lambda fields: (
            calls.append(1),
            original(fields),
        )[1]
        try:
            tail = log.entries(after=2)
        finally:
            deltalog_module.update_from_fields = original
        assert [entry.seq for entry in tail] == [3]
        assert len(calls) == 1  # only the tail entry's single record

    @pytest.mark.parametrize(
        "torn",
        ["%window 7", "%window 7\n%bat", "%window 7\n%"],
        ids=["tag-without-newline", "tag-then-torn-batch", "tag-then-bare-percent"],
    )
    def test_torn_window_tag_cannot_adopt_a_per_batch_append(self, tmp_path, torn):
        """Regression: a crash inside a windowed append can leave its
        ``%window`` tag followed by a torn line.  The next per-batch
        append was adopted into that never-sealed window — an
        acknowledged batch discarded by ``entries()`` (or counted by it
        but not by ``last_seq()``)."""
        path = segment_file(tmp_path)
        one_segment(tmp_path).append(Delta([insert(1, 2)]))
        with open(path, "a", encoding="utf-8") as stream:
            stream.write(torn)
        assert one_segment(tmp_path).append(Delta([insert(2, 3)])) == 2
        reopened = one_segment(tmp_path)
        assert [entry.seq for entry in reopened.entries()] == [1, 2]
        assert reopened.last_seq() == 2

    def test_torn_batch_line_reading_a_lower_seq_is_debris(self, tmp_path):
        """Regression: ``%batch 13`` cut after its first digit reads
        ``%batch 1``; the non-increasing seq of that uncommitted fragment
        used to raise instead of being skipped as torn debris."""
        path = segment_file(tmp_path)
        log = one_segment(tmp_path)
        for k in range(12):
            log.append(Delta([insert(k, k + 1)]))
        with open(path, "a", encoding="utf-8") as stream:
            stream.write("%batch 1")
        assert one_segment(tmp_path).append(Delta([insert(20, 21)])) == 13
        assert [entry.seq for entry in one_segment(tmp_path).entries()] == list(
            range(1, 14)
        )

    @pytest.mark.parametrize(
        "text",
        ["%batch 2\n%commit\n%batch 1\n%commit\n", "%truncated x\n"],
        ids=["non-increasing-commit", "malformed-floor"],
    )
    def test_every_reader_rejects_corrupt_committed_content(self, tmp_path, text):
        """``last_seq()`` and seq allocation read the same pass as
        ``entries()``, so they refuse what it refuses."""
        path = segment_file(tmp_path)
        path.write_text(text, encoding="utf-8")
        for read in (
            one_segment(tmp_path).entries,
            one_segment(tmp_path).last_seq,
            lambda: one_segment(tmp_path).append(Delta([insert(1, 2)])),
        ):
            with pytest.raises(PersistFormatError):
                read()


# ----------------------------------------------------------------------
# Per-view snapshot/restore
# ----------------------------------------------------------------------


class TestViewSnapshots:
    """restore(graph, index.snapshot()) must be behaviorally identical to
    the index itself — same answers now, same ΔO under further updates."""

    FOLLOW_UP = Delta([delete(1, 2), insert(5, 3), insert(2, 4)])

    def _roundtrip(self, make_index):
        graph = sample_graph()
        original = make_index(graph)
        twin_graph = graph.copy()
        restored = type(original).restore(twin_graph, original.snapshot())
        first = original.apply(self.FOLLOW_UP)
        second = restored.apply(self.FOLLOW_UP)
        assert first == second
        return original, restored

    def test_kws(self):
        original, restored = self._roundtrip(lambda g: KWSIndex(g, KWS_QUERY))
        assert restored.profile() == original.profile()
        assert restored.roots() == set(batch_kws(restored.graph, KWS_QUERY))

    def test_rpq(self):
        original, restored = self._roundtrip(lambda g: RPQIndex(g, RPQ_QUERY))
        assert restored.matches == matches_only(restored.graph, RPQ_QUERY)
        # the derived cpre/mpre must equal the incrementally maintained ones
        for source in original.markings.sources():
            marks = original.markings.get(source)
            mirror_marks = restored.markings.get(source)
            for node, states in marks.by_node.items():
                for state, entry in states.items():
                    mirror = mirror_marks.get(node, state)
                    assert mirror is not None
                    assert mirror.dist == entry.dist
                    assert mirror.cpre == entry.cpre
                    assert mirror.mpre == entry.mpre

    def test_scc(self):
        original, restored = self._roundtrip(lambda g: SCCIndex(g))
        assert restored.components() == tarjan_scc(restored.graph).partition()
        restored.check_consistency()

    def test_iso(self):
        original, restored = self._roundtrip(lambda g: ISOIndex(g, ISO_PATTERN))
        assert restored.pattern.shape() == original.pattern.shape()
        restored.check_consistency()

    def test_wrong_kind_rejected(self):
        graph = sample_graph()
        state = SCCIndex(graph).snapshot()
        with pytest.raises(ValueError, match="expected a 'kws' snapshot"):
            KWSIndex.restore(graph, state)


# ----------------------------------------------------------------------
# SnapshotStore recovery
# ----------------------------------------------------------------------

PRE_BATCHES = [
    Delta([delete(3, 1), insert(5, 4)]),
    Delta([insert(3, 5, "c", "b")]),
]
POST_BATCHES = [
    Delta([delete(1, 2)]),
    Delta([insert(6, 1, "b", "a"), delete(4, 5)]),
]


class TestSnapshotStore:
    def test_recovery_equals_uninterrupted_session(self, tmp_path):
        reference = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.attach(reference)
        for batch in PRE_BATCHES:
            reference.apply(batch)
        store.save(reference)
        for batch in POST_BATCHES:
            reference.apply(batch)  # journaled tail, not snapshotted

        recovered = store.load()  # the process was "discarded"
        assert_sessions_equal(recovered, reference)
        assert_views_match_recompute(recovered)

        # the recovered session keeps evolving identically
        follow_up = Delta([insert(4, 2), delete(2, 3)])
        assert (
            recovered.apply(follow_up).output("scc")
            == reference.apply(follow_up).output("scc")
        )
        assert_sessions_equal(recovered, reference)

    def test_load_without_tail(self, tmp_path):
        reference = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.save(reference)
        assert_sessions_equal(store.load(), reference)

    def test_recovered_session_journals_and_chains(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.save(engine)
        store.attach(engine)
        engine.apply(PRE_BATCHES[0])

        second = store.load()  # journal re-attached by default
        second.apply(PRE_BATCHES[1])
        third = store.load()
        engine.apply(PRE_BATCHES[1])
        assert_sessions_equal(third, engine)

    def test_save_compact_drops_replayed_tail(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.attach(engine)
        for batch in PRE_BATCHES:
            engine.apply(batch)
        store.save(engine, compact=True)
        assert store.log.entries() == []
        engine.apply(POST_BATCHES[0])
        assert_sessions_equal(store.load(), engine)

    def test_rollback_is_journaled(self, tmp_path):
        reference = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.save(reference)
        store.attach(reference)
        mark = reference.checkpoint()
        for batch in PRE_BATCHES:
            reference.apply(batch)
        reference.rollback(mark)
        recovered = store.load()
        assert_sessions_equal(recovered, reference)

    def test_lazy_views_are_materialized_by_save(self, tmp_path):
        engine = Engine(sample_graph())
        engine.register(
            "scc", lambda g, m: SCCIndex(g, meter=m), build="on_first_apply"
        )
        store = SnapshotStore(tmp_path / "store")
        store.save(engine)
        recovered = store.load()
        assert recovered["scc"].components() == engine["scc"].components()

    def test_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no snapshot"):
            SnapshotStore(tmp_path / "store").load()

    def test_version_mismatch_raises(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        store.snapshot_path.write_text(
            "%repro-snapshot 99\n%end\n", encoding="utf-8"
        )
        with pytest.raises(PersistFormatError, match="unsupported snapshot version"):
            store.load()

    def test_truncated_snapshot_raises(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        store.snapshot_path.write_text(
            "%repro-snapshot 1\n%section graph\nn 1 a\n", encoding="utf-8"
        )
        with pytest.raises(PersistFormatError, match="truncated snapshot"):
            store.load()

    def test_unknown_view_kind_raises(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        store.snapshot_path.write_text(
            "%repro-snapshot 1\n%section view w weird\n%config\n%end\n",
            encoding="utf-8",
        )
        with pytest.raises(PersistFormatError, match="unknown view kind"):
            store.load()

    def test_directive_like_labels_round_trip(self, tmp_path):
        """A node id or label starting with '%' must not masquerade as a
        directive line (the writer quotes it)."""
        graph = DiGraph(labels={"%cash": "%end", 2: "b"}, edges=[("%cash", 2)])
        engine = Engine(graph)
        engine.register("kws", lambda g, m: KWSIndex(g, KWSQuery(("%end", "b"), 2), meter=m))
        engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
        store = SnapshotStore(tmp_path / "store")
        store.save(engine)
        recovered = store.load()
        assert recovered.graph == engine.graph
        assert recovered["kws"].roots() == engine["kws"].roots()

    def test_unjournalable_batch_fails_before_mutation(self, tmp_path):
        """Write-ahead ordering: a batch the journal cannot serialize is
        rejected with graph, views, and log all untouched."""
        from repro.graph.io_tokens import SerializationError

        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.save(engine)
        store.attach(engine)
        edges_before = set(engine.graph.edges())
        roots_before = set(engine["kws"].roots())
        with pytest.raises(SerializationError):
            engine.apply(Delta([insert(9, 10, source_label=("tu", "ple"))]))
        assert set(engine.graph.edges()) == edges_before
        assert set(engine["kws"].roots()) == roots_before
        assert store.log.entries() == []
        engine.apply(PRE_BATCHES[0])  # journaling still works afterwards
        assert_sessions_equal(store.load(), engine)

    def test_convenience_wrappers(self, tmp_path):
        engine = four_view_engine(sample_graph())
        save_session(engine, tmp_path / "store")
        engine.apply(PRE_BATCHES[0])  # journaled by save_session's attach
        assert_sessions_equal(load_session(tmp_path / "store"), engine)

    def test_legacy_deltas_log_is_refused_then_migrates_by_rename(self, tmp_path):
        """A root holding a pre-segmented ``deltas.log`` — here compacted
        (``%truncated``) and with a torn tail — is refused untouched, and
        the documented one-step migration (move it to
        ``segments/segment-000.log``) recovers the session: the frames
        are the one-segment log's grammar."""
        reference = four_view_engine(sample_graph())
        writer = SnapshotStore(tmp_path / "writer")
        writer.attach(reference)
        for batch in PRE_BATCHES:
            reference.apply(batch)
        writer.save(reference)  # stamps last-seq 2
        for batch in POST_BATCHES:
            reference.apply(batch)
        root = tmp_path / "legacy"
        root.mkdir()
        (root / "snapshot.repro").write_bytes(writer.snapshot_path.read_bytes())
        legacy = root / "deltas.log"
        legacy.write_text(
            "%truncated 2\n"
            "%batch 3\n- 1 2\n%commit\n"
            "%batch 4\n+ 6 1 b a\n- 4 5\n%commit\n"
            "%batch 99\n+ 7 ",  # torn by a crash mid-append
            encoding="utf-8",
        )
        before = legacy.read_bytes()

        with pytest.raises(ValueError, match="orphan") as refused:
            SnapshotStore(root)
        assert "segments/segment-000.log" in str(refused.value)
        assert legacy.read_bytes() == before
        assert sorted(path.name for path in root.iterdir()) == [
            "deltas.log",
            "snapshot.repro",
        ]

        (root / "segments").mkdir()
        legacy.rename(root / "segments" / "segment-000.log")
        store = SnapshotStore(root)
        recovered = store.load()
        assert_sessions_equal(recovered, reference)
        follow_up = Delta([insert(4, 2)])
        assert recovered.apply(follow_up).seq == 100  # above the torn %batch 99
        reference.apply(follow_up)
        assert_sessions_equal(SnapshotStore(root).load(), reference)


# ----------------------------------------------------------------------
# Per-view replay cursors, %graphdiff, and compaction equivalences
# ----------------------------------------------------------------------


def canonical_save(engine: Engine, root) -> bytes:
    """A canonical full snapshot of ``engine``: fresh store, no log, so
    the bytes depend only on view state (canonical sorted records) and
    graph content."""
    probe = SnapshotStore(root)
    probe.save(engine)
    return probe.snapshot_path.read_bytes()


class TestReplayCursors:
    def test_fresh_sections_record_the_log_stamp(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.attach(engine)
        engine.apply(PRE_BATCHES[0])
        store.save(engine)
        with open(store.snapshot_path, encoding="utf-8") as stream:
            sections = split_snapshot_sections(stream)
        assert sections.last_seq == 1
        assert {s.cursor for s in sections.views.values()} == {1}

    def test_carried_sections_keep_their_serialization_cursor(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.attach(engine)
        store.save(engine)
        engine.apply(Delta([delete(2, 3)]))  # b→c edge: no a→b match dies
        store.save(engine, incremental=True)
        with open(store.snapshot_path, encoding="utf-8") as stream:
            sections = split_snapshot_sections(stream)
        assert sections.last_seq == 1
        assert sections.views["iso"].cursor == 0  # carried from the first save
        assert sections.views["scc"].cursor == 1  # re-serialized fresh

    def test_cursor_replay_equals_full_tail_broadcast_replay(self, tmp_path):
        """Per-view cursor-driven routed replay and full-tail broadcast
        replay must recover byte-identical sessions (canonical
        snapshots)."""
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.attach(engine)
        engine.apply(PRE_BATCHES[0])
        store.save(engine, incremental=True)
        for batch in POST_BATCHES:
            engine.apply(batch)  # the replayed tail
        routed = store.load(attach_journal=False)
        broadcast = store.load(attach_journal=False, routed=False)
        assert_sessions_equal(routed, engine)
        assert_sessions_equal(broadcast, engine)
        assert canonical_save(routed, tmp_path / "probe-r") == canonical_save(
            broadcast, tmp_path / "probe-b"
        )

    def test_divergent_cursor_file_loads_and_lagging_views_catch_up(
        self, tmp_path
    ):
        """An incremental save after batches irrelevant to some views
        leaves those views' cursors behind the graph stamp; load must
        deliver the lagging window through the relevance filters (which
        route it empty) and still recover the exact session."""
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.attach(engine)
        store.save(engine)
        engine.apply(Delta([delete(2, 3)]))  # iso stays clean
        store.save(engine, incremental=True)
        with open(store.snapshot_path, encoding="utf-8") as stream:
            sections = split_snapshot_sections(stream)
        assert sections.views["iso"].cursor < sections.last_seq
        recovered = store.load(attach_journal=False)
        assert_sessions_equal(recovered, engine)
        assert_views_match_recompute(recovered)

    def test_inconsistent_cursor_raises(self, tmp_path):
        """A file whose cursor claims a view is stale across entries its
        filter *wants* is a snapshot/log contradiction — load must raise,
        not corrupt the view."""
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.attach(engine)
        engine.apply(Delta([insert(5, 1)]))  # b→a: relevant to scc (all)
        store.save(engine)
        text = store.snapshot_path.read_text(encoding="utf-8")
        assert "%section view scc scc 1\n" in text
        store.snapshot_path.write_text(
            text.replace("%section view scc scc 1\n", "%section view scc scc 0\n"),
            encoding="utf-8",
        )
        with pytest.raises(PersistFormatError, match="disagree"):
            store.load()

    def test_negative_cursor_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        store.snapshot_path.write_text(
            "%repro-snapshot 2\n%meta last-seq 0\n%section graph\n"
            "%section view w scc -1\n%config 1\n%end\n",
            encoding="utf-8",
        )
        with pytest.raises(PersistFormatError, match="cursor"):
            store.load()


class TestGraphDiff:
    def test_incremental_save_appends_a_graphdiff_chunk(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.attach(engine)
        store.save(engine)
        engine.apply(PRE_BATCHES[0])
        store.save(engine, incremental=True)
        text = store.snapshot_path.read_text(encoding="utf-8")
        assert text.count("%graphdiff") == 1
        recovered = store.load(attach_journal=False)
        assert recovered.graph == engine.graph
        assert_sessions_equal(recovered, engine)

    def test_new_node_whose_edge_was_deleted_survives_the_diff(self, tmp_path):
        """The net delta alone would lose a node introduced by an insert
        that a later batch deleted; the chunk's ``n`` records must keep
        it (deletion never removes endpoints)."""
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.attach(engine)
        store.save(engine)
        engine.apply(Delta([insert(1, 99, "a", "c")]))
        engine.apply(Delta([delete(1, 99)]))
        store.save(engine, incremental=True)
        assert "%graphdiff" in store.snapshot_path.read_text(encoding="utf-8")
        recovered = store.load(attach_journal=False)
        assert recovered.graph.has_node(99)
        assert recovered.graph.label(99) == "c"
        assert recovered.graph == engine.graph

    def test_chunks_consolidate_at_the_limit(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store", graphdiff_limit=2)
        store.attach(engine)
        store.save(engine)
        chunk_counts = []
        for step in range(5):
            engine.apply(Delta([insert(100 + step, 1, "c", "a")]))
            store.save(engine, incremental=True)
            text = store.snapshot_path.read_text(encoding="utf-8")
            chunk_counts.append(text.count("%graphdiff"))
        assert max(chunk_counts) == 2  # never exceeds the limit
        assert 0 in chunk_counts[1:]  # a consolidation produced a fresh base
        recovered = store.load(attach_journal=False)
        assert recovered.graph == engine.graph
        assert_views_match_recompute(recovered)

    def test_rollback_window_diffs_correctly(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.attach(engine)
        store.save(engine)
        mark = engine.checkpoint()
        engine.apply(PRE_BATCHES[0])
        engine.apply(PRE_BATCHES[1])
        engine.rollback(mark)
        store.save(engine, incremental=True)
        recovered = store.load(attach_journal=False)
        assert recovered.graph == engine.graph
        assert_sessions_equal(recovered, engine)

    def test_journal_swap_forces_a_full_graph_write(self, tmp_path):
        """Batches journaled elsewhere make the store's log tail an
        incomplete diff source; the epoch tripwire must force a full
        rewrite instead of a wrong diff."""
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.attach(engine)
        store.save(engine)
        elsewhere = SegmentedDeltaLog(tmp_path / "elsewhere", ShardMap(1))
        engine.set_journal(elsewhere)
        engine.apply(PRE_BATCHES[0])  # invisible to store.log
        engine.set_journal(store.log)
        store.save(engine, incremental=True)
        assert "%graphdiff" not in store.snapshot_path.read_text(encoding="utf-8")
        recovered = store.load(attach_journal=False)
        assert recovered.graph == engine.graph

    def test_out_of_band_relabel_forces_a_full_graph_write(self, tmp_path):
        """Regression: a relabel through the public DiGraph API flows
        through no journaled delta, so a log-derived %graphdiff would
        silently drop it — the graph's out-of-band tripwire must force
        a full base rewrite that captures the new label."""
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.attach(engine)
        store.save(engine)
        engine.graph.set_label(3, "b")  # no batch can express this
        engine.apply(PRE_BATCHES[0])
        store.save(engine, incremental=True)
        assert "%graphdiff" not in store.snapshot_path.read_text(encoding="utf-8")
        recovered = store.load(attach_journal=False)
        assert recovered.graph.label(3) == "b"
        assert recovered.graph == engine.graph

    def test_v1_snapshot_still_loads(self, tmp_path):
        """v1 read-compat: strip the v2 constructs from a current file
        (downgrade header, drop cursors) and the reader must accept it —
        cursors default to the file's last-seq."""
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.attach(engine)
        engine.apply(PRE_BATCHES[0])
        store.save(engine)
        engine.apply(POST_BATCHES[0])  # journaled tail past the snapshot
        from repro.persist import FORMAT_VERSION

        text = store.snapshot_path.read_text(encoding="utf-8")
        downgraded = text.replace(
            f"%repro-snapshot {FORMAT_VERSION}\n", "%repro-snapshot 1\n"
        )
        for name in engine.names():
            kind = {"kws": "kws", "rpq": "rpq", "scc": "scc", "iso": "iso"}[name]
            downgraded = downgraded.replace(
                f"%section view {name} {kind} 1\n",
                f"%section view {name} {kind}\n",
            )
        assert "%repro-snapshot 1" in downgraded
        store.snapshot_path.write_text(downgraded, encoding="utf-8")
        recovered = SnapshotStore(tmp_path / "store").load(attach_journal=False)
        assert_sessions_equal(recovered, engine)
        assert_views_match_recompute(recovered)

    def test_graphdiff_in_v1_file_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        store.snapshot_path.write_text(
            "%repro-snapshot 1\n%section graph\nn 1 a\n%graphdiff 1\n%end\n",
            encoding="utf-8",
        )
        with pytest.raises(PersistFormatError, match="version-2 construct"):
            store.load()


class TestCompactionEquivalence:
    def test_save_compact_load_equals_save_load(self, tmp_path):
        """save→compact→load ≡ save→load, byte-compared via canonical
        re-saves of the recovered sessions."""
        engine = four_view_engine(sample_graph())
        plain_root = tmp_path / "plain"
        compact_root = tmp_path / "compacted"
        snapshots = {}
        for root, compact in ((plain_root, False), (compact_root, True)):
            twin = four_view_engine(sample_graph())
            store = SnapshotStore(root)
            store.attach(twin)
            for batch in PRE_BATCHES:
                twin.apply(batch)
            store.save(twin, compact=compact)
            for batch in POST_BATCHES:
                twin.apply(batch)
            recovered = store.load(attach_journal=False)
            assert_sessions_equal(recovered, twin)
            snapshots[compact] = canonical_save(
                recovered, tmp_path / f"probe-{compact}"
            )
        assert snapshots[False] == snapshots[True]

    def test_compaction_copies_the_uncovered_tail_verbatim(self, tmp_path):
        """No snapshot covers the tail, so compaction keeps every entry
        of it as written — opposing runs on one edge included."""
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.attach(engine)
        store.save(engine)
        engine.apply(Delta([insert(1, 4)]))
        engine.apply(Delta([delete(1, 4)]))
        engine.apply(Delta([insert(2, 99, "b", "c")]))
        engine.apply(Delta([delete(2, 99)]))
        tail = [(entry.seq, list(entry.delta)) for entry in store.log.entries()]
        assert store.compact_log(engine) == 4
        assert [
            (entry.seq, list(entry.delta)) for entry in store.log.entries()
        ] == tail
        sizes = [len(entry.delta) for entry in store.log.entries()]
        assert sizes == [1, 1, 1, 1]
        recovered = store.load(attach_journal=False)
        assert recovered.graph.has_node(99)
        assert_sessions_equal(recovered, engine)
        assert_views_match_recompute(recovered)

    def test_compaction_respects_lagging_cursors(self, tmp_path):
        """With a carried (lagging) section on disk, compaction must
        keep any entry the lagging view's filter still wants — and may
        drop the ones it provably does not."""
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.attach(engine)
        store.save(engine)
        engine.apply(Delta([delete(2, 3)]))  # irrelevant to iso
        store.save(engine, incremental=True)  # iso carried, cursor lags
        kept = store.compact_log(engine)
        assert kept == 0  # the lagging window was provably irrelevant
        recovered = store.load(attach_journal=False)
        assert_sessions_equal(recovered, engine)

    def test_selective_retention_never_shrinks_the_watermark(self, tmp_path):
        """Regression: lagging retention that keeps only a middle entry
        must not lower the %truncated watermark below the dropped
        covered seqs — a fresh process would re-allocate them, and the
        reused seq would read as snapshot-covered on the next recovery
        (the batch would never reach the graph)."""

        class OnlyEntryTwo:
            def wants_update(self, update, source_label, target_label):
                return update.source == 1  # seq 2 inserts (1, 2)

            def wants_node(self, node, label):
                return False

        log = one_segment(tmp_path)
        for k in range(4):
            log.append(Delta([insert(k, k + 1)]))
        log.compact(after=4, lagging=[(0, OnlyEntryTwo())], label_of=lambda n: "")
        assert [entry.seq for entry in log.entries()] == [2]
        fresh = one_segment(tmp_path)  # a fresh process
        assert fresh.last_seq() == 4  # covered seqs stay spoken for
        assert fresh.append(Delta([insert(9, 9)])) == 5  # never re-allocates 3/4

    def test_policy_compaction_trigger(self, tmp_path):
        from repro.persist import SnapshotPolicy

        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.save(engine)
        policy = SnapshotPolicy(every_batches=2, compact_every_batches=3)
        store.attach(engine, policy=policy)
        engine.apply(Delta([delete(4, 5)]))
        engine.apply(Delta([insert(5, 4)]))
        assert policy.saves == 1 and policy.compactions == 0
        engine.apply(Delta([delete(5, 4)]))
        assert policy.compactions == 1
        # entries covered by the policy's own incremental save are gone
        assert [entry.seq for entry in store.log.entries()] == [3]
        recovered = store.load(attach_journal=False)
        assert_sessions_equal(recovered, engine)


# ----------------------------------------------------------------------
# Engine view lifecycle
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_deregister_stops_fanout_and_frees_name(self):
        engine = four_view_engine(sample_graph())
        view = engine.deregister("iso")
        assert "iso" not in engine and len(engine) == 3
        report = engine.apply(Delta([delete(3, 1)]))
        assert "iso" not in report.views
        assert view.matches == vf2_matches(view.graph, ISO_PATTERN)
        engine.register("iso", lambda g, m: ISOIndex(g, ISO_PATTERN, meter=m))
        assert engine["iso"].matches == vf2_matches(engine.graph, ISO_PATTERN)

    def test_deregister_unknown_name(self):
        with pytest.raises(EngineError, match="no view named"):
            Engine(sample_graph()).deregister("nope")

    def test_lazy_register_defers_the_build(self):
        calls = []
        engine = Engine(sample_graph())

        def factory(graph, meter):
            calls.append("built")
            return SCCIndex(graph, meter=meter)

        assert engine.register("scc", factory, build="on_first_apply") is None
        assert "scc" in engine and len(engine) == 1 and calls == []
        report = engine.apply(Delta([delete(3, 1)]))
        assert calls == ["built"]
        # built on the pre-batch graph, then absorbed the batch
        gained, lost = report.output("scc")
        assert lost == {frozenset({1, 2, 3})}
        assert engine["scc"].components() == tarjan_scc(engine.graph).partition()

    def test_lazy_register_builds_on_first_access(self):
        engine = Engine(sample_graph())
        engine.register(
            "scc", lambda g, m: SCCIndex(g, meter=m), build="on_first_apply"
        )
        assert engine["scc"].components() == tarjan_scc(engine.graph).partition()
        assert engine.meter("scc").total() > 0

    def test_lazy_deregister_before_build(self):
        calls = []
        engine = Engine(sample_graph())
        engine.register(
            "scc",
            lambda g, m: calls.append("built") or SCCIndex(g, meter=m),
            build="on_first_apply",
        )
        assert engine.deregister("scc") is None
        engine.apply(Delta([delete(3, 1)]))
        assert calls == []

    def test_unknown_build_mode(self):
        with pytest.raises(EngineError, match="unknown build mode"):
            Engine(sample_graph()).register(
                "scc", lambda g, m: SCCIndex(g, meter=m), build="later"
            )

    def test_lazy_name_collision_still_rejected(self):
        engine = Engine(sample_graph())
        engine.register(
            "scc", lambda g, m: SCCIndex(g, meter=m), build="on_first_apply"
        )
        with pytest.raises(EngineError, match="already registered"):
            engine.register("scc", lambda g, m: SCCIndex(g, meter=m))


# ----------------------------------------------------------------------
# Property: save → load → replay ≡ from-scratch recomputation after
# randomized batches (mirrors test_engine.py's consistency harness).
# ----------------------------------------------------------------------


@st.composite
def persistence_workload(draw):
    """A random labeled graph, batches applied before the snapshot, and
    batches applied after it (the journaled tail)."""
    size = draw(st.integers(min_value=2, max_value=8))
    labels = {node: draw(st.sampled_from(LABELS)) for node in range(size)}
    graph = DiGraph(labels=labels)
    possible = [(s, t) for s in range(size) for t in range(size) if s != t]
    for source, target in draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=3 * size)
    ):
        graph.add_edge(source, target)

    batches = []
    scratch = graph.copy()
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        edges = list(scratch.edges())
        nodes = list(scratch.nodes())
        non_edges = [
            (s, t)
            for s in nodes
            for t in nodes
            if s != t and not scratch.has_edge(s, t)
        ]
        deletions = draw(
            st.lists(st.sampled_from(edges), unique=True, max_size=3)
            if edges
            else st.just([])
        )
        insertions = draw(
            st.lists(st.sampled_from(non_edges), unique=True, max_size=3)
            if non_edges
            else st.just([])
        )
        updates = [delete(*edge) for edge in deletions]
        updates += [insert(*edge) for edge in insertions]
        if draw(st.booleans()) and nodes:
            new_node = scratch.num_nodes + 100
            updates.append(
                insert(
                    draw(st.sampled_from(nodes)),
                    new_node,
                    target_label=draw(st.sampled_from(LABELS)),
                )
            )
        batch = Delta(list(draw(st.permutations(updates))))
        batch.apply_to(scratch)
        batches.append(batch)
    cut = draw(st.integers(min_value=0, max_value=len(batches)))
    return graph, batches[:cut], batches[cut:]


@settings(max_examples=25, deadline=None)
@given(persistence_workload())
def test_save_load_replay_property(tmp_path_factory, case):
    graph, before, after = case
    root = tmp_path_factory.mktemp("store")
    engine = four_view_engine(graph.copy())
    store = SnapshotStore(root)
    store.attach(engine)
    for batch in before:
        engine.apply(batch)
    store.save(engine)
    for batch in after:
        engine.apply(batch)

    recovered = store.load()
    assert_sessions_equal(recovered, engine)
    assert_views_match_recompute(recovered)


class TestLoadReportFreshness:
    """Regression: ``SnapshotStore.last_load_report`` used to survive a
    *failed* ``load()`` untouched, silently reporting the previous
    successful load's phase breakdown.  It must be reset at entry and
    carry a ``completed`` flag."""

    def test_failed_load_does_not_leave_stale_report(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.attach(engine)
        store.save(engine)
        engine.apply(PRE_BATCHES[0])
        store.load(attach_journal=False)
        good = store.last_load_report
        assert good is not None and good.completed
        assert good.entries_replayed == 1

        # corrupt the snapshot; the next load must fail...
        store.snapshot_path.write_text("%repro-snapshot 99\n", encoding="utf-8")
        with pytest.raises(PersistFormatError):
            store.load(attach_journal=False)
        # ...and must NOT leave the previous successful report behind
        stale = store.last_load_report
        assert stale is not good
        assert stale is not None and not stale.completed
        assert stale.entries_replayed == 0 and stale.entries_delivered == 0

    def test_missing_snapshot_also_resets_the_report(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "store")
        store.attach(engine)
        store.save(engine)
        store.load(attach_journal=False)
        assert store.last_load_report.completed
        store.snapshot_path.unlink()
        with pytest.raises(FileNotFoundError):
            store.load(attach_journal=False)
        assert store.last_load_report is not None
        assert not store.last_load_report.completed
