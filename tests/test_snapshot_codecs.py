"""Property tests for format v5 compressed snapshots (``%packed``).

Three families of properties:

* **Round trips** — packing any section body and expanding it back is
  the identity, and a save→load→re-save cycle through a fresh store is
  byte-identical for every codec (including plaintext), so compression
  never leaks into the logical content.
* **Version gating** — a file *labeled* v4 that smuggles any v5
  construct (``%packed``, ``%meta codec``, ``%meta shard-split``) is
  rejected outright: a pre-v5 reader must refuse rather than mis-parse,
  and the constructs carry explicit version gates so the refusal is a
  clean format error, not a crash downstream.
* **Incremental equivalence** — a compressed incremental save (carried
  ``%packed`` sections copied byte-for-byte plus fresh blocks) loads to
  the same session as a compressed full save: canonically re-saving
  both into fresh stores yields identical bytes.
"""

import pytest

from repro import Delta, DiGraph, Engine, delete, insert
from repro.dataflow import DataflowView
from repro.kws import KWSIndex, KWSQuery
from repro.persist import (
    SNAPSHOT_CODECS,
    PersistFormatError,
    SnapshotStore,
    available_codecs,
)
from repro.persist.format import (
    decode_packed_payload,
    encode_packed_block,
    expand_packed_lines,
)
from repro.scc import SCCIndex

#: Every codec this interpreter can write, plus plaintext.
CODECS = (None,) + available_codecs()
KWS_QUERY = KWSQuery(("a", "b"), bound=2)


def build_engine() -> Engine:
    graph = DiGraph(
        labels={1: "a", 2: "b", 3: "c", 4: "a", 5: "b"},
        edges=[(1, 2), (2, 3), (3, 1), (1, 4), (4, 5)],
    )
    engine = Engine(graph)
    engine.register("kws", lambda g, m: KWSIndex(g, KWS_QUERY, meter=m))
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register(
        "tri", lambda g, m: DataflowView(g, "triangle-count", meter=m)
    )
    return engine


def test_zlib_is_always_available():
    """The default codec rides the standard library; a v5 writer can
    always compress and every interpreter can always read zlib files."""
    assert "zlib" in available_codecs()
    assert set(available_codecs()) <= set(SNAPSHOT_CODECS)


@pytest.mark.parametrize("codec", available_codecs())
@pytest.mark.parametrize(
    "body",
    [
        [],
        ["one line\n"],
        ["%config a b\n", 'I 1 2 "x" "y"\n'],
        [f"row {index} payload\n" for index in range(300)],
        ["unicode ☃ café\n", "\n", "  indented  \n"],
        ["# looks like a comment\n", "%section looks like a directive\n"],
    ],
    ids=["empty", "single", "records", "long", "unicode", "adversarial"],
)
def test_packed_block_round_trip(codec, body):
    """encode → decode is the identity for any body, including lines
    that would parse as directives or comments if left plaintext."""
    block = encode_packed_block(list(body), codec)
    assert block[0].startswith(f"%packed {codec} ")
    assert decode_packed_payload(codec, block[1:], "<doc>", 1) == body
    # the body-level expander splices the same lines in place of the
    # block and passes the plaintext lines around it through untouched
    around = ["%config 1\n"], ["r 2\n"]
    expanded = expand_packed_lines(around[0] + block + around[1], source="<doc>")
    assert expanded == around[0] + body + around[1]


@pytest.mark.parametrize("codec", CODECS, ids=str)
def test_save_load_resave_is_byte_identical(codec, tmp_path):
    """A snapshot survives a full save→load→re-save cycle byte-for-byte
    under every codec: compression changes the armor, never the
    content, and the writer is deterministic."""
    engine = build_engine()
    store = SnapshotStore(tmp_path / "first", codec=codec)
    store.attach(engine)
    original = store.save(engine).read_text(encoding="utf-8")
    if codec is None:
        assert "%packed" not in original
        assert "%meta codec" not in original
    else:
        assert f"%meta codec {codec}\n" in original
        assert f"%packed {codec} " in original
    # reading is codec-oblivious: a store built with no codec loads it
    revived = SnapshotStore(tmp_path / "first").load(attach_journal=False)
    assert revived.graph == engine.graph
    assert revived["scc"].components() == engine["scc"].components()
    second = SnapshotStore(tmp_path / "second", codec=codec)
    second.attach(revived)
    assert second.save(revived).read_text(encoding="utf-8") == original


@pytest.mark.parametrize("codec", available_codecs())
def test_compressed_incremental_equals_compressed_full(codec, tmp_path):
    """An incremental compressed save (carried ``%packed`` blocks plus
    fresh ones) is logically identical to a full compressed save of the
    same session: canonical re-saves of both load results are
    byte-identical."""
    tail = [
        Delta([insert(5, 1, "b", "a"), delete(2, 3)]),
        Delta([insert(3, 5, "c", "b")]),
    ]

    def build(root):
        engine = build_engine()
        store = SnapshotStore(root, codec=codec)
        store.attach(engine)
        store.save(engine)
        for batch in tail:
            engine.apply(batch)
        return engine, store

    def canonical(root, out):
        revived = SnapshotStore(root).load(attach_journal=False)
        fresh = SnapshotStore(out, codec=codec)
        fresh.attach(revived)
        return fresh.save(revived).read_text(encoding="utf-8")

    incr_engine, incr_store = build(tmp_path / "incr")
    incr_store.save(incr_engine, incremental=True)
    full_engine, full_store = build(tmp_path / "full")
    full_store.save(full_engine)
    assert canonical(tmp_path / "incr", tmp_path / "incr-canon") == canonical(
        tmp_path / "full", tmp_path / "full-canon"
    )


@pytest.mark.parametrize("codec", available_codecs())
def test_incremental_carries_packed_blocks_verbatim(codec, tmp_path):
    """Clean sections of a compressed snapshot are carried into the next
    incremental file as the *same compressed bytes* — compared, copied,
    never re-encoded — so carry cost is proportional to the armor, not
    the decompressed body."""
    engine = build_engine()
    store = SnapshotStore(tmp_path / "store", codec=codec)
    store.attach(engine)
    first = store.save(engine).read_text(encoding="utf-8")
    blocks = []
    lines = first.splitlines(keepends=True)
    for index, line in enumerate(lines):
        if line.startswith("%packed "):
            count = int(line.split()[2])
            blocks.append("".join(lines[index : index + 1 + count]))
    assert blocks  # a compressed save must actually pack its bodies
    # no intervening batch: every section is clean, the incremental save
    # must splice every original block back byte-for-byte
    second = store.save(engine, incremental=True).read_text(encoding="utf-8")
    for block in blocks:
        assert block in second


V4_HEADER = "%repro-snapshot 4\n%meta last-seq 0\n"
V4_BODY = "%section graph\nn 1 a\n%end\n"


@pytest.mark.parametrize(
    "construct",
    [
        "%packed zlib 1\neJzLUzBUSOTKUzBSSOJKBbKNuAAmMAOp\n",
        "%meta codec zlib\n",
        "%meta sharding hash 2\n%meta shard-split 0 2\n",
    ],
    ids=["packed", "codec-meta", "shard-split-meta"],
)
def test_v4_labeled_file_rejects_v5_constructs(construct, tmp_path):
    """A v5 construct inside a file claiming version 4 is a format
    error: pre-v5 readers reject these keywords, so a v5 writer must
    never stamp an older version — and a corrupted or hand-edited
    version line fails loudly instead of mis-parsing."""
    root = tmp_path / "store"
    root.mkdir()
    (root / SnapshotStore.SNAPSHOT_NAME).write_text(
        V4_HEADER + construct + V4_BODY, encoding="utf-8"
    )
    with pytest.raises(PersistFormatError, match="version-5 construct"):
        SnapshotStore(root).load(attach_journal=False)


def test_truncated_packed_block_is_rejected(tmp_path):
    """A ``%packed`` directive promising more payload lines than the
    file holds is a torn write, not a short section."""
    root = tmp_path / "store"
    root.mkdir()
    (root / SnapshotStore.SNAPSHOT_NAME).write_text(
        "%repro-snapshot 5\n%meta last-seq 0\n%section graph\n"
        "%packed zlib 3\neJzLUzBUSOTKUzBSSOJKBbKNuAAmMAOp\n",
        encoding="utf-8",
    )
    with pytest.raises(PersistFormatError, match="truncated %packed"):
        SnapshotStore(root).load(attach_journal=False)


def test_corrupt_packed_payload_is_rejected(tmp_path):
    """Flipped payload bytes fail the base64/decompress step with a
    format error naming the block, never silently decode."""
    root = tmp_path / "store"
    root.mkdir()
    (root / SnapshotStore.SNAPSHOT_NAME).write_text(
        "%repro-snapshot 5\n%meta last-seq 0\n%section graph\n"
        "%packed zlib 1\n!!!! not base64 !!!!\n%end\n",
        encoding="utf-8",
    )
    with pytest.raises(PersistFormatError, match="undecodable %packed"):
        SnapshotStore(root).load(attach_journal=False)


def test_unknown_and_unavailable_codecs_are_refused(tmp_path):
    with pytest.raises(ValueError, match="not available"):
        SnapshotStore(tmp_path / "bad", codec="rot13")
    if "zstd" not in available_codecs():
        with pytest.raises(ValueError, match="not available"):
            SnapshotStore(tmp_path / "zstd", codec="zstd")


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
