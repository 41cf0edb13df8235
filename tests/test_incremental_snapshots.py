"""Dirty-set incremental snapshot tests: dirty tracking through the
routed fan-out, carry-forward of clean view sections (no re-serialization,
load-equivalent to a full save), incremental → load round-trips, the
auto-:class:`~repro.persist.SnapshotPolicy`, and the save→load→replay
property over incremental saves."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Delta, DiGraph, Engine, SnapshotPolicy, SnapshotStore, delete, insert
from repro.dataflow import DataflowView
from repro.engine import AutosnapshotError, EngineError
from repro.iso import ISOIndex, Pattern
from repro.kws import KWSIndex, KWSQuery
from repro.kws.snapshot import extend_bound
from repro.persist.format import PersistFormatError, split_snapshot_sections
from repro.rpq import RPQIndex
from repro.scc import SCCIndex

KWS_QUERY = KWSQuery(("a", "b"), bound=2)
RPQ_QUERY = "a . (b + c)* . c"
ISO_PATTERN = Pattern.from_edges({0: "a", 1: "b"}, [(0, 1)])


def sample_graph() -> DiGraph:
    return DiGraph(
        labels={1: "a", 2: "b", 3: "c", 4: "a", 5: "b", 6: "d", 7: "d"},
        edges=[(1, 2), (2, 3), (3, 1), (4, 5), (6, 7)],
    )


def four_view_engine(graph: DiGraph) -> Engine:
    engine = Engine(graph)
    engine.register("kws", lambda g, m: KWSIndex(g, KWS_QUERY, meter=m))
    engine.register("rpq", lambda g, m: RPQIndex(g, RPQ_QUERY, meter=m))
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register("iso", lambda g, m: ISOIndex(g, ISO_PATTERN, meter=m))
    return engine


def snapshot_spy(monkeypatch):
    """Patch every view class's snapshot() to record which kinds ran."""
    calls: list[str] = []
    for view_class in (KWSIndex, RPQIndex, SCCIndex, ISOIndex):
        original = view_class.snapshot

        def spy(self, _original=original):
            state = _original(self)
            calls.append(state.kind)
            return state

        monkeypatch.setattr(view_class, "snapshot", spy)
    return calls


class TestDirtyTracking:
    def test_views_start_dirty_and_save_cleans(self, tmp_path):
        engine = four_view_engine(sample_graph())
        assert engine.dirty_views() == frozenset(engine.names())
        SnapshotStore(tmp_path).save(engine)
        assert engine.dirty_views() == frozenset()

    def test_routed_batch_dirties_only_absorbing_views(self, tmp_path):
        engine = four_view_engine(sample_graph())
        SnapshotStore(tmp_path).save(engine)
        engine.apply(Delta([delete(6, 7)]))  # d→d: only SCC subscribes
        assert engine.dirty_views() == frozenset({"scc"})

    def test_rollback_dirties_through_the_same_path(self, tmp_path):
        engine = four_view_engine(sample_graph())
        mark = engine.checkpoint()
        engine.apply(Delta([delete(6, 7)]))
        SnapshotStore(tmp_path).save(engine)
        engine.rollback(mark)
        assert "scc" in engine.dirty_views()

    def test_out_of_band_view_mutation_trips_the_dirty_wire(self, tmp_path):
        """Regression: extend_bound mutates a view outside the fan-out;
        the meter tripwire must report it dirty so an incremental save
        re-serializes it instead of carrying the stale section."""
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path)
        store.save(engine)
        assert engine.dirty_views() == frozenset()
        extend_bound(engine["kws"], KWS_QUERY.bound + 2)
        assert "kws" in engine.dirty_views()
        store.save(engine, incremental=True)
        revived = store.load()
        assert revived["kws"].query.bound == KWS_QUERY.bound + 2
        assert revived["kws"].roots() == engine["kws"].roots()

    def test_mark_views_dirty_escape_hatch(self, tmp_path):
        engine = four_view_engine(sample_graph())
        SnapshotStore(tmp_path).save(engine)
        engine.mark_views_dirty(["iso"])
        assert "iso" in engine.dirty_views()
        with pytest.raises(EngineError, match="no view named"):
            engine.mark_views_dirty(["ghost"])

    def test_load_starts_clean_then_tail_dirties(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path)
        store.save(engine)
        store.attach(engine)
        revived = store.load()
        assert revived.dirty_views() == frozenset()  # no tail to replay
        engine.apply(Delta([delete(6, 7)]))  # journaled after the save
        revived_with_tail = store.load()
        assert revived_with_tail.dirty_views() == frozenset({"scc"})


class TestIncrementalSave:
    def test_clean_sections_are_carried_not_reserialized(
        self, tmp_path, monkeypatch
    ):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path)
        store.save(engine)
        store.attach(engine)
        engine.apply(Delta([delete(6, 7)]))  # dirties only scc
        calls = snapshot_spy(monkeypatch)
        store.save(engine, incremental=True)
        assert calls == ["scc"], f"expected only scc to re-serialize, got {calls}"

    def test_incremental_file_is_load_equivalent_to_full_save(self, tmp_path):
        """Since format v2 an incremental file is *not* byte-identical to
        a full save (the graph section accumulates %graphdiff chunks and
        carried view sections keep their original replay cursors); the
        contract is load-equivalence — both files recover sessions whose
        canonical full re-saves agree byte-for-byte."""
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path / "inc")
        store.attach(engine)
        store.save(engine)
        engine.apply(Delta([delete(6, 7), insert(6, 1)]))
        store.save(engine, incremental=True)
        from_incremental = store.load(attach_journal=False)
        store.save(engine)  # full rewrite of the identical state
        from_full = store.load(attach_journal=False)
        assert from_incremental.graph == from_full.graph
        probe_a = SnapshotStore(tmp_path / "probe-a")
        probe_b = SnapshotStore(tmp_path / "probe-b")
        probe_a.save(from_incremental)
        probe_b.save(from_full)
        assert (
            probe_a.snapshot_path.read_bytes() == probe_b.snapshot_path.read_bytes()
        )

    def test_incremental_load_round_trips_like_full(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path)
        store.save(engine)
        store.attach(engine)
        engine.apply(Delta([delete(3, 1), insert(5, 4)]))
        engine.apply(Delta([insert(3, 5)]))
        store.save(engine, incremental=True)
        revived = store.load()
        assert revived.graph == engine.graph
        assert revived["kws"].roots() == engine["kws"].roots()
        assert revived["rpq"].matches == engine["rpq"].matches
        assert revived["scc"].components() == engine["scc"].components()
        assert revived["iso"].matches == engine["iso"].matches

    def test_incremental_without_previous_snapshot_is_a_full_save(
        self, tmp_path, monkeypatch
    ):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path)
        calls = snapshot_spy(monkeypatch)
        store.save(engine, incremental=True)
        assert sorted(calls) == ["iso", "kws", "rpq", "scc"]
        assert store.load().graph == engine.graph

    def test_newly_registered_view_is_written_fresh(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path)
        store.save(engine)
        engine.register(
            "scc2", lambda g, m: SCCIndex(g, meter=m), build="on_first_apply"
        )
        store.save(engine, incremental=True)  # materializes + serializes
        revived = store.load()
        assert revived["scc2"].components() == engine["scc"].components()

    def test_incremental_save_never_carries_from_a_stale_store(self, tmp_path):
        """Regression: the dirty set is relative to the engine's *last*
        save anywhere.  After saving to store A, an incremental save to
        store B (whose file predates A's) must re-serialize everything —
        carrying B's older sections would resurrect stale view state."""
        engine = four_view_engine(sample_graph())
        store_b = SnapshotStore(tmp_path / "b")
        store_b.save(engine)  # B holds the old state
        engine.apply(Delta([delete(3, 1)]))  # dirties kws/rpq/scc
        store_a = SnapshotStore(tmp_path / "a")
        store_a.save(engine)  # A captures the new state; dirty set clears
        store_b.save(engine, incremental=True)  # B's file is stale
        revived = store_b.load()
        assert revived["kws"].roots() == engine["kws"].roots()
        assert revived["scc"].components() == engine["scc"].components()
        # ... and the two stores now agree byte-for-byte.
        assert (
            store_b.snapshot_path.read_bytes() == store_a.snapshot_path.read_bytes()
        )

    def test_deregistered_view_drops_out_of_incremental_saves(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path)
        store.save(engine)
        engine.deregister("iso")
        store.save(engine, incremental=True)
        assert "iso" not in store.load().names()


class TestSplitViewSections:
    def test_rejects_unversioned_text(self):
        with pytest.raises(PersistFormatError, match="missing"):
            split_snapshot_sections(["%section view x kws\n", "%end\n"])

    def test_rejects_future_versions(self):
        with pytest.raises(PersistFormatError, match="unsupported"):
            split_snapshot_sections(["%repro-snapshot 99\n", "%end\n"])

    def test_bodies_are_verbatim_lines(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path)
        store.save(engine)
        with open(store.snapshot_path, encoding="utf-8") as stream:
            sections = split_snapshot_sections(stream).views
        assert set(sections) == set(engine.names())
        section = sections["kws"]
        assert section.kind == "kws"
        assert section.body[0].startswith("%config")
        text = store.snapshot_path.read_text(encoding="utf-8")
        for line in section.body:
            assert line in text


class TestSnapshotPolicy:
    def test_needs_at_least_one_trigger(self):
        with pytest.raises(ValueError, match="at least one trigger"):
            SnapshotPolicy()

    def test_validates_trigger_values(self):
        with pytest.raises(ValueError, match="every_batches"):
            SnapshotPolicy(every_batches=0)
        with pytest.raises(ValueError, match="every_seconds"):
            SnapshotPolicy(every_seconds=-1.0)

    def test_every_batches_auto_snapshots(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path)
        store.save(engine)
        policy = SnapshotPolicy(every_batches=2)
        store.attach(engine, policy=policy)
        engine.apply(Delta([delete(6, 7)]))
        assert policy.saves == 0
        engine.apply(Delta([insert(7, 6)]))
        assert policy.saves == 1
        assert engine.dirty_views() == frozenset()  # the save cleaned up
        engine.apply(Delta([delete(7, 6)]))
        engine.apply(Delta([insert(6, 7)]))
        assert policy.saves == 2

    def test_dirty_threshold_auto_snapshots(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path)
        store.save(engine)
        policy = SnapshotPolicy(dirty_threshold=2)
        store.attach(engine, policy=policy)
        engine.apply(Delta([delete(6, 7)]))  # dirties scc only
        assert policy.saves == 0
        engine.apply(Delta([insert(6, 1)]))  # dirties kws/rpq too
        assert policy.saves == 1

    def test_every_seconds_auto_snapshots(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path)
        store.save(engine)
        policy = SnapshotPolicy(every_seconds=0.0)  # due on every batch
        store.attach(engine, policy=policy)
        engine.apply(Delta([delete(6, 7)]))
        assert policy.saves == 1

    def test_hook_failure_raises_autosnapshot_error_with_report(self, tmp_path):
        """A failing snapshot write must not masquerade as a failed
        batch: the batch is applied and journaled, the report survives
        on the error, and the session stays usable."""
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path)
        store.save(engine)
        store.attach(engine, policy=SnapshotPolicy(every_batches=1))
        original_save = store.save
        store.save = lambda *a, **k: (_ for _ in ()).throw(OSError("disk full"))
        with pytest.raises(AutosnapshotError, match="after the batch") as info:
            engine.apply(Delta([delete(6, 7)]))
        report = info.value.report
        assert not engine.graph.has_edge(6, 7)  # the batch DID apply
        assert not report.skipped("scc")
        assert engine.applied_count == 1
        assert [entry.delta.updates for entry in store.log.entries()] == [
            report.delta.updates
        ]
        store.save = original_save
        engine.apply(Delta([insert(7, 6)]))  # next batch snapshots fine
        revived = store.load()
        assert revived.graph == engine.graph

    def test_auto_snapshot_is_recoverable_mid_stream(self, tmp_path):
        engine = four_view_engine(sample_graph())
        store = SnapshotStore(tmp_path)
        store.save(engine)
        store.attach(engine, policy=SnapshotPolicy(every_batches=1))
        engine.apply(Delta([delete(3, 1), insert(5, 4)]))
        engine.apply(Delta([insert(3, 5)]))
        revived = store.load()
        assert revived.graph == engine.graph
        assert revived["scc"].components() == engine["scc"].components()
        assert revived["kws"].roots() == engine["kws"].roots()


# ----------------------------------------------------------------------
# Property: a stream of batches interleaved with incremental saves always
# recovers to the live session's state.
# ----------------------------------------------------------------------


@st.composite
def stream_case(draw):
    size = draw(st.integers(min_value=3, max_value=8))
    labels = {node: draw(st.sampled_from(["a", "b", "c", "d"])) for node in range(size)}
    graph = DiGraph(labels=labels)
    possible = [(s, t) for s in range(size) for t in range(size) if s != t]
    for source, target in draw(
        st.lists(st.sampled_from(possible), unique=True, min_size=2, max_size=2 * size)
    ):
        graph.add_edge(source, target)
    batches = []
    scratch = graph.copy()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        edges = list(scratch.edges())
        nodes = list(scratch.nodes())
        non_edges = [
            (s, t)
            for s in nodes
            for t in nodes
            if s != t and not scratch.has_edge(s, t)
        ]
        updates = [
            delete(*edge)
            for edge in draw(
                st.lists(st.sampled_from(edges), unique=True, max_size=2)
                if edges
                else st.just([])
            )
        ]
        updates += [
            insert(*edge)
            for edge in draw(
                st.lists(st.sampled_from(non_edges), unique=True, max_size=2)
                if non_edges
                else st.just([])
            )
        ]
        if not updates:
            continue
        batch = Delta(updates)
        batch.apply_to(scratch)
        batches.append(batch)
    save_after = draw(
        st.lists(st.booleans(), min_size=len(batches), max_size=len(batches))
    )
    return graph, batches, save_after


@settings(max_examples=25, deadline=None)
@given(stream_case())
def test_incremental_save_load_replay_property(tmp_path_factory, case):
    graph, batches, save_after = case
    root = tmp_path_factory.mktemp("inc-store")
    engine = four_view_engine(graph.copy())
    store = SnapshotStore(root)
    store.save(engine)
    store.attach(engine)
    for batch, save_now in zip(batches, save_after):
        engine.apply(batch)
        if save_now:
            store.save(engine, incremental=True)
    revived = store.load()
    assert revived.graph == engine.graph
    assert revived["kws"].roots() == engine["kws"].roots()
    assert revived["rpq"].matches == engine["rpq"].matches
    assert revived["scc"].components() == engine["scc"].components()
    assert revived["iso"].matches == engine["iso"].matches


#: sha256 prefixes of the ten files below as the token writer produced
#: them before it grew a fast path: the files must stay byte-identical.
TEN_SAVE_DIGESTS = [
    "21d6e2c11ea74b04",
    "3fccaf8b8fc7dffb",
    "56afcfb2e61c7805",
    "afe78df627ac83e0",
    "dd17f4b9ac05b3bc",
    "e4e2f67860b8c1df",
    "136b9b8a743062d3",
    "6f576bbfa9524b40",
    "a4a2cf46325d5426",
    "70dffb11ca08f727",
]


def test_ten_incremental_saves_are_byte_identical_to_the_recorded_files(tmp_path):
    """Labels that are bare, quoted, int-lookalike, ``%``-leading, escaped
    and empty, written over and over through carried sections, graph
    diffs and a consolidation (integer node ids: their adjacency sets
    iterate the same in every process)."""
    awkward = ["a", "b c", "5", "%d", 'q"\\', "", "a", "b c", "a", "1_0"]
    labels = dict(enumerate(awkward, start=1))
    graph = DiGraph(
        labels=labels,
        edges=[(1, 2), (2, 3), (3, 1), (4, 5), (6, 7), (8, 9), (9, 10)],
    )
    engine = Engine(graph)
    query = KWSQuery(("a", "b c"), bound=2)
    engine.register("kws", lambda g, m: KWSIndex(g, query, meter=m))
    engine.register("rpq", lambda g, m: RPQIndex(g, "a . a*", meter=m))
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register("tri", lambda g, m: DataflowView(g, "triangle-count", meter=m))
    store = SnapshotStore(tmp_path)
    store.attach(engine)
    store.save(engine)
    digests = []
    for step in range(10):
        fresh = 100 + step
        second = (
            delete(*[(1, 2), (2, 3)][step]) if step < 2 else insert(fresh, 1)
        )
        target_label = ["a", "b c", "5", "%d"][step % 4]
        engine.apply(
            Delta([insert(1 + step % 7, fresh, target_label=target_label), second])
        )
        path = store.save(engine, incremental=True)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest()[:16])
    assert digests == TEN_SAVE_DIGESTS
