"""Byte-range carry: an incremental save copies the file it wrote itself.

Every save records the identity of the file it wrote and each section
body's byte span.  While the snapshot on disk keeps that identity, the
next incremental save parses nothing: it copies spans.  Without such a
layout — the first save after ``load()``, a file another writer replaced,
truncated or touched — it writes every section fresh, as a full save
would.  These tests pin both halves:

* **No save re-reads its file** — over a policy-driven stream after
  ``load()``, no save calls ``split_snapshot_sections``.
* **Fallbacks are full saves** — a touched, replaced or truncated file
  gives ``sections_carried == 0``, and the store recovers the session a
  full save would.
* **Crash coverage** — carried bytes go through the text layer's
  ``write``, so crashsim meters every byte of an incremental save.
* **One log read** — the ``last-seq`` stamp and the ``%graphdiff`` tail
  come from one scan per log segment.
"""

import os

import pytest

import repro.persist.deltalog as deltalog_module
import repro.persist.snapshot as snapshot_module
from crashsim import CrashInjector, SimulatedCrash
from repro import (
    Delta,
    DiGraph,
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
from repro.persist.format import split_snapshot_sections
from repro.scc import SCCIndex


def build_engine() -> Engine:
    engine = Engine(
        DiGraph(
            labels={1: "a", 2: "b", 3: "c", 4: "a"},
            edges=[(1, 2), (2, 3), (3, 1), (1, 4)],
        )
    )
    engine.register("kws", lambda g, m: KWSIndex(g, KWSQuery(("a", "b"), 2), meter=m))
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register("tri", lambda g, m: DataflowView(g, "triangle-count", meter=m))
    return engine


#: Batches that dirty different view subsets: fresh c-nodes reach only
#: scc and tri, the deletes and a-b inserts reach kws too.
STREAM = [
    Delta([insert(10, 3, "c", "c")]),
    Delta([insert(1, 11, "a", "b")]),
    Delta([insert(12, 10, "c", "c"), delete(1, 4)]),
    Delta([insert(3, 12)]),
    Delta([delete(2, 3)]),
    Delta([insert(13, 1, "d", "a")]),
    Delta([insert(2, 3)]),
    Delta([insert(4, 13)]),
]


def count_splits(monkeypatch) -> list:
    """Record every split_snapshot_sections call made through
    ``repro.persist.snapshot``'s module global."""
    calls = []
    original = snapshot_module.split_snapshot_sections

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(snapshot_module, "split_snapshot_sections", counted)
    return calls


def canonical_bytes(engine: Engine, root) -> bytes:
    store = SnapshotStore(root)
    store.save(engine)
    return store.snapshot_path.read_bytes()


def assert_recovers_like_a_full_save(root, engine: Engine, tmp_path) -> None:
    """The store at ``root`` recovers the session a full save of
    ``engine`` recovers: their canonical re-saves agree byte for byte."""
    recovered = SnapshotStore(root).load(attach_journal=False)
    canonical_bytes(engine, tmp_path / "full")
    from_full = SnapshotStore(tmp_path / "full").load(attach_journal=False)
    assert canonical_bytes(recovered, tmp_path / "probe-a") == canonical_bytes(
        from_full, tmp_path / "probe-b"
    )


def journaling_store(root, codec=None):
    engine = build_engine()
    store = SnapshotStore(root, codec=codec)
    store.attach(engine)
    store.save(engine)
    return engine, store


def test_no_save_after_load_splits_the_file(tmp_path, monkeypatch):
    SnapshotStore(tmp_path).save(build_engine())
    engine = build_engine()  # unjournaled twin of the recovered session
    store = SnapshotStore(tmp_path)
    revived = store.load(attach_journal=False)
    calls = count_splits(monkeypatch)
    policy = SnapshotPolicy(every_batches=2)
    store.attach(revived, policy=policy)
    carried = []
    for batch in STREAM:
        engine.apply(batch)
        saves = policy.saves
        revived.apply(batch)
        if policy.saves > saves:
            carried.append(store.last_save_report.sections_carried)
    assert calls == []
    # the first save after load() has no layout and writes every section
    assert carried[0] == 0 and all(carried[1:]), carried
    assert_recovers_like_a_full_save(tmp_path, engine, tmp_path / "check")


def test_a_zlib_store_carries_packed_bytes_verbatim(tmp_path):
    engine, store = journaling_store(tmp_path, codec="zlib")
    with open(store.snapshot_path, encoding="utf-8") as stream:
        before = split_snapshot_sections(stream)
    engine.mark_views_dirty(["scc"])
    store.save(engine, incremental=True)
    report = store.last_save_report
    assert (report.sections_carried, report.sections_rendered) == (3, 1)
    with open(store.snapshot_path, encoding="utf-8") as stream:
        after = split_snapshot_sections(stream)
    assert after.graph_lines == before.graph_lines
    for name in ("kws", "tri"):
        assert after.views[name].packed
        assert after.views[name].body == before.views[name].body
    assert report.bytes_carried == sum(
        len("".join(body).encode())
        for body in (after.graph_lines, after.views["kws"].body, after.views["tri"].body)
    )


@pytest.mark.parametrize("how", ["touched", "replaced", "truncated"])
@pytest.mark.parametrize("codec", [None, "zlib"])
def test_a_file_this_store_did_not_write_is_written_fresh(
    tmp_path, monkeypatch, codec, how
):
    root = tmp_path / "store"
    engine, store = journaling_store(root, codec=codec)
    engine.apply(STREAM[0])
    store.save(engine, incremental=True)
    assert store.last_save_report.sections_carried > 0  # the layout holds
    engine.apply(STREAM[1])
    path = store.snapshot_path
    if how == "touched":
        os.utime(path, ns=(1, 1))
    elif how == "replaced":
        other = SnapshotStore(root)
        other.save(other.load(attach_journal=False))  # same state, new file
    else:
        os.truncate(path, path.stat().st_size // 2)
    calls = count_splits(monkeypatch)
    store.save(engine, incremental=True)
    report = store.last_save_report
    assert calls == []
    assert (report.sections_carried, report.bytes_carried) == (0, 0)
    assert report.sections_rendered == 1 + len(engine.names())
    assert_recovers_like_a_full_save(root, engine, tmp_path)


def test_a_crashed_save_leaves_the_old_layout_in_force(tmp_path):
    engine, store = journaling_store(tmp_path / "crashed")
    twin, twin_store = journaling_store(tmp_path / "twin")
    for session in (engine, twin):
        session.apply(STREAM[0])
    with CrashInjector(tmp_path / "crashed").armed(fuel=200):
        with pytest.raises(SimulatedCrash):
            store.save(engine, incremental=True)
    assert store.last_save_report is None
    store.save(engine, incremental=True)  # the file on disk is unchanged
    twin_store.save(twin, incremental=True)
    assert store.last_save_report.sections_carried > 0  # still carried
    assert store.snapshot_path.read_bytes() == twin_store.snapshot_path.read_bytes()
    assert_recovers_like_a_full_save(tmp_path / "crashed", engine, tmp_path)


def test_crashsim_meters_every_byte_of_a_range_carry(tmp_path):
    """One fuel unit per written character plus one for the rename: a
    carried byte that bypassed the text layer would go uncounted."""
    engine, store = journaling_store(tmp_path)
    engine.apply(STREAM[0])
    store.save(engine, incremental=True)
    engine.apply(STREAM[1])
    injector = CrashInjector(tmp_path)
    with injector.armed(fuel=None):
        store.save(engine, incremental=True)
    report = store.last_save_report
    assert report.bytes_carried > 0
    written = store.snapshot_path.read_text(encoding="utf-8")
    assert injector.consumed == len(written) + 1


def test_an_incremental_save_scans_each_segment_once(tmp_path, monkeypatch):
    """The stamp and the ``%graphdiff`` tail come from one merge of the
    segments: one ``DeltaLog._scan`` per segment, not one per read."""
    shard_map = ShardMap(kind="range", boundaries=[3])
    base = build_engine().graph
    graph = ShardedGraphStore.from_labeled_edges(
        dict(base.labels), list(base.edges()), shard_map
    )
    engine = Engine(graph)
    engine.register("kws", lambda g, m: KWSIndex(g, KWSQuery(("a", "b"), 2), meter=m))
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    store = SnapshotStore(tmp_path, shard_map=shard_map)
    store.attach(engine)
    store.save(engine)
    for batch in STREAM[:4]:
        engine.apply(batch)
    assert store.log.num_segments == 2
    scans = []
    scan = deltalog_module.DeltaLog._scan

    def counted(self, *args, **kwargs):
        scans.append(self.path.name)
        return scan(self, *args, **kwargs)

    monkeypatch.setattr(deltalog_module.DeltaLog, "_scan", counted)
    store.save(engine, incremental=True)
    assert sorted(scans) == ["segment-000.log", "segment-001.log"]
    assert store.last_save_report.sections_carried > 0
    assert "%graphdiff" in store.snapshot_path.read_text(encoding="utf-8")
    monkeypatch.undo()
    assert_recovers_like_a_full_save(tmp_path, engine, tmp_path / "check")
