"""Byte-range carry: an incremental save copies the file it wrote itself.

Every save records the identity of the file it wrote and each section
body's byte span.  While the snapshot on disk keeps that identity, the
next incremental save parses nothing: it copies spans.  Without such a
layout — the first save after ``load()``, a file another writer replaced,
truncated or touched — it falls back to ``split_snapshot_sections`` and a
line copy.  These tests pin both halves:

* **Parse counts** — over a policy-driven stream the reader runs once
  after ``load()`` and never again, and ``SaveReport.lines_parsed`` says
  so save by save.
* **Same bytes either way** — a range carry and a split carry write
  identical files, plaintext and zlib, through ``%graphdiff`` chunks and
  a consolidation.
* **Fallbacks stay correct** — after an out-of-band writer, a
  truncation or a crashed save, the next incremental save recovers to
  the session a full save would.
* **Crash coverage** — carried bytes go through the text layer's
  ``write``, so crashsim meters every byte of an incremental save.
"""

import os

import pytest

import repro.persist.snapshot as snapshot_module
from crashsim import CrashInjector, SimulatedCrash
from repro import Delta, DiGraph, Engine, SnapshotPolicy, SnapshotStore, delete, insert
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


def journaling_store(root, codec=None, **kwargs):
    engine = build_engine()
    store = SnapshotStore(root, codec=codec, **kwargs)
    store.attach(engine)
    store.save(engine)
    return engine, store


def test_split_runs_once_after_load_and_never_again(tmp_path, monkeypatch):
    SnapshotStore(tmp_path).save(build_engine())
    engine = build_engine()  # unjournaled twin of the recovered session
    store = SnapshotStore(tmp_path)
    revived = store.load(attach_journal=False)
    calls = count_splits(monkeypatch)
    policy = SnapshotPolicy(every_batches=2)
    store.attach(revived, policy=policy)
    parsed = []
    for batch in STREAM:
        engine.apply(batch)
        saves = policy.saves
        revived.apply(batch)
        if policy.saves > saves:
            parsed.append(store.last_save_report.lines_parsed)
    assert len(calls) == 1  # the first save after load(); none after it
    assert parsed[0] > 0 and parsed[1:] == [0] * (len(STREAM) // 2 - 1)
    assert_recovers_like_a_full_save(tmp_path, engine, tmp_path / "check")


def run_stream(root, codec, touch: bool):
    """Save after every batch of STREAM; with ``touch`` an out-of-band
    ``utime`` changes the file's identity first, forcing the split."""
    engine, store = journaling_store(root, codec=codec, graphdiff_limit=3)
    files, parsed = [], []
    for batch in STREAM:
        engine.apply(batch)
        if touch:
            os.utime(store.snapshot_path, ns=(1, 1))
        store.save(engine, incremental=True)
        files.append(store.snapshot_path.read_bytes())
        parsed.append(store.last_save_report.lines_parsed)
    return engine, files, parsed


@pytest.mark.parametrize("codec", [None, "zlib"])
def test_range_carry_and_split_carry_write_the_same_bytes(tmp_path, codec):
    engine, by_range, parsed_range = run_stream(tmp_path / "range", codec, False)
    _, by_split, parsed_split = run_stream(tmp_path / "split", codec, True)
    assert by_range == by_split
    assert parsed_range == [0] * len(STREAM)
    assert all(parsed > 0 for parsed in parsed_split)
    assert_recovers_like_a_full_save(tmp_path / "range", engine, tmp_path)


def test_a_zlib_store_carries_packed_bytes_verbatim(tmp_path):
    engine, store = journaling_store(tmp_path, codec="zlib")
    with open(store.snapshot_path, encoding="utf-8") as stream:
        before = split_snapshot_sections(stream)
    engine.mark_views_dirty(["scc"])
    store.save(engine, incremental=True)
    report = store.last_save_report
    assert report.lines_parsed == 0
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


def test_a_file_another_store_wrote_is_split_and_carried(tmp_path):
    engine, store = journaling_store(tmp_path)
    engine.apply(STREAM[0])
    other = SnapshotStore(tmp_path)
    other.save(other.load(attach_journal=False))  # same state, new file
    engine.apply(STREAM[1])
    store.save(engine, incremental=True)
    report = store.last_save_report
    assert report.lines_parsed > 0 and report.sections_carried > 0
    assert_recovers_like_a_full_save(tmp_path, engine, tmp_path / "check")


def test_a_truncated_file_is_split_refused_and_rewritten(tmp_path):
    engine, store = journaling_store(tmp_path)
    engine.apply(STREAM[0])
    os.truncate(store.snapshot_path, store.snapshot_path.stat().st_size // 2)
    store.save(engine, incremental=True)
    report = store.last_save_report
    assert report.lines_parsed > 0
    assert (report.sections_carried, report.bytes_carried) == (0, 0)
    assert_recovers_like_a_full_save(tmp_path, engine, tmp_path / "check")


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
    assert store.last_save_report.lines_parsed == 0
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
    assert report.lines_parsed == 0 and report.bytes_carried > 0
    written = store.snapshot_path.read_text(encoding="utf-8")
    assert injector.consumed == len(written) + 1
