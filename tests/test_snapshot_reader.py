"""One snapshot reader: save and load accept exactly the same files.

:func:`~repro.persist.format.split_snapshot_sections` is the only code
that walks a snapshot file's lines; ``SnapshotStore.load`` parses the
bodies it returns.  These tests pin that contract:

* **Agreement** — every malformed file in the table is refused with a
  :class:`PersistFormatError` by both the sectioned parse and ``load``.
* **Pass counts** — a load splits the file once, and expands ``%packed``
  blocks only in bodies that hold one (never on a plaintext store).
* **Healing** — an incremental save whose previous file fails the reader
  writes every section fresh instead of carrying the corruption.
"""

import pytest

import repro.persist.snapshot as snapshot_module
from repro import Delta, DiGraph, Engine, insert
from repro.dataflow import DataflowView
from repro.kws import KWSIndex, KWSQuery
from repro.persist import PersistFormatError, SnapshotStore
from repro.persist.format import encode_packed_block, split_snapshot_sections
from repro.scc import SCCIndex

#: A minimal valid snapshot: one graph node, one scc view holding it.
BASE = (
    "%repro-snapshot 5\n"
    "%meta last-seq 0\n"
    "%section graph\n"
    "n 1 a\n"
    "%section view w scc 0\n"
    "%config 2\n"
    "1 0.0 1\n"
    "%end\n"
)

VIEW = "%section view w scc 0\n%config 2\n1 0.0 1\n"


def edited(old: str, new: str) -> str:
    assert BASE.count(old) == 1, old
    return BASE.replace(old, new)


MALFORMED = {
    "last-seq-word": edited("%meta last-seq 0\n", "%meta last-seq abc\n"),
    "last-seq-negative": edited("%meta last-seq 0\n", "%meta last-seq -4\n"),
    "duplicate-view": edited("%end\n", VIEW + "%end\n"),
    "view-without-kind": edited("%section view w scc 0\n", "%section view w\n"),
    "unknown-directive-in-view": edited("%config 2\n", "%config 2\n%bogus\n"),
    "content-after-end": BASE + "n 2 b\n",
    "no-end": edited("%end\n", ""),
    "record-before-section": edited("%section graph\n", "n 2 b\n%section graph\n"),
    "sharding-after-section": edited("n 1 a\n", "n 1 a\n%meta sharding hash 2\n"),
    "config-not-first": edited("%config 2\n1 0.0 1\n", "1 0.0 1\n%config 2\n"),
}


def write_store(root, text: str) -> SnapshotStore:
    store = SnapshotStore(root)
    store.snapshot_path.write_text(text, encoding="utf-8")
    return store


def test_the_base_file_is_valid_for_both_readers(tmp_path):
    """Control row: every malformed file below is one edit away from this."""
    split_snapshot_sections(BASE.splitlines(keepends=True))
    revived = write_store(tmp_path, BASE).load(attach_journal=False)
    assert revived["w"].components() == {frozenset({1})}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_both_readers_refuse_each_malformed_file(text, tmp_path):
    with pytest.raises(PersistFormatError):
        split_snapshot_sections(text.splitlines(keepends=True), source="<t>")
    with pytest.raises(PersistFormatError):
        write_store(tmp_path, text).load(attach_journal=False)


def test_a_packed_view_body_must_open_with_config(tmp_path):
    """Inside a ``%packed`` block the split cannot see the first body
    line; load checks it after expansion."""
    block = "".join(encode_packed_block(["1 0.0 1\n", "%config 2\n"], "zlib"))
    text = edited("%config 2\n1 0.0 1\n", block)
    with pytest.raises(PersistFormatError, match="open with %config"):
        write_store(tmp_path, text).load(attach_journal=False)


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


def count_calls(monkeypatch) -> dict:
    """Count calls to the two reader entry points ``load`` resolves
    through ``repro.persist.snapshot``'s module globals."""
    calls = {"split_snapshot_sections": 0, "expand_packed_lines": 0}
    for name in calls:
        original = getattr(snapshot_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(snapshot_module, name, counted)
    return calls


def test_plaintext_load_splits_once_and_never_expands(tmp_path, monkeypatch):
    engine = build_engine()
    SnapshotStore(tmp_path).save(engine)
    calls = count_calls(monkeypatch)
    revived = SnapshotStore(tmp_path).load(attach_journal=False)
    assert revived.graph == engine.graph
    assert calls == {"split_snapshot_sections": 1, "expand_packed_lines": 0}


def test_zlib_load_expands_once_per_packed_body(tmp_path, monkeypatch):
    engine = build_engine()
    store = SnapshotStore(tmp_path, codec="zlib")
    store.attach(engine)
    store.save(engine)
    engine.apply(Delta([insert(4, 2, "a", "b")]))
    store.save(engine, incremental=True)  # graph body: base block + diff block
    with open(store.snapshot_path, encoding="utf-8") as stream:
        sections = split_snapshot_sections(stream)
    assert sections.graphdiff_chunks == 1
    assert sections.graph_packed and all(v.packed for v in sections.views.values())
    calls = count_calls(monkeypatch)
    revived = SnapshotStore(tmp_path).load(attach_journal=False)
    assert revived.graph == engine.graph
    assert calls == {
        "split_snapshot_sections": 1,
        "expand_packed_lines": 1 + len(sections.views),
    }


def test_incremental_save_heals_a_file_the_reader_refuses(tmp_path):
    """A clean view body carrying an unknown directive used to be copied
    verbatim into the next file, which load then refused."""
    engine = build_engine()
    store = SnapshotStore(tmp_path)
    store.attach(engine)
    store.save(engine)
    text = store.snapshot_path.read_text(encoding="utf-8")
    store.snapshot_path.write_text(
        text.replace("%end\n", "%bogus\n%end\n"), encoding="utf-8"
    )
    assert engine.dirty_views() == frozenset()  # every section is carryable
    store.save(engine, incremental=True)
    assert "%bogus" not in store.snapshot_path.read_text(encoding="utf-8")
    revived = store.load(attach_journal=False)
    assert revived.graph == engine.graph
    assert revived["scc"].components() == engine["scc"].components()
    assert revived["tri"].value() == engine["tri"].value()
