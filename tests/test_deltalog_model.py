"""Model test for the delta log: after a crash, every reader recovers
the same acknowledged prefix.

Hypothesis draws a 1–3-segment :class:`SegmentedDeltaLog` (one segment
is the unsharded graph's journal) and a history of appends, seals, compactions
(whole-log and one segment) and restarts.  Each process — the first
object and every restart — either appends per batch or under
group-commit windows; a restart drops the open window unsealed.
Compaction floors are values ``last_seq()`` had when no window was
open, as a snapshot's stamp is.  The history's last write is cut at a
random byte of its own bytes — the crash — then a fresh object appends
once more, so the heal path runs.  Reopened with fresh objects, the log
must hold what a model of the acknowledgments says:

* ``last_seq() == max([floor] + [e.seq for e in entries()])``;
* the next seq and the next window id exceed every seq and window id
  mentioned in any file;
* ``entries()`` above the floor holds exactly the acknowledged batches;
  the cut operation's own batches may surface, but all or none.

Seqs that were never acknowledged may surface only as empty frames:
compaction keeps a torn seq spoken for by rewriting it without updates.
"""

import hashlib
import re
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Delta, SegmentedDeltaLog, ShardMap, delete, insert

NODES = range(8)


def label(node: int) -> str:
    """One fixed label per node, so insert-label stabilization is a no-op
    and a merged segmented entry compares equal to the appended batch."""
    return "abcd"[node % 4]


updates = st.builds(
    lambda is_insert, source, target: (
        insert(source, target, label(source), label(target))
        if is_insert
        else delete(source, target)
    ),
    st.booleans(),
    st.sampled_from(NODES),
    st.sampled_from(NODES),
)
batches = st.lists(updates, max_size=3).map(Delta)
appends = st.tuples(st.just("append"), batches)
percent = st.integers(0, 100)
history_ops = st.one_of(
    appends,
    appends,
    appends,
    st.tuples(st.just("seal")),
    st.tuples(st.just("compact"), percent),
    st.tuples(st.just("compact_segment"), st.integers(0, 2), percent),
    st.tuples(st.just("restart"), st.booleans()),
)
cut_ops = st.one_of(appends, st.tuples(st.just("seal")))

SEQ_MENTIONS = re.compile(r"^%(?:batch|truncated) (\d+)", re.MULTILINE)
WINDOW_MENTIONS = re.compile(r"^%(?:window|seal|abort) (\d+)", re.MULTILINE)


class Model:
    """Drives one log and records which batches were acknowledged."""

    def __init__(
        self, root: Path, segments: int, window_size: int, windowed: bool
    ) -> None:
        self.root = root
        self.segments = segments
        self.window_size = window_size
        self.acked: dict[int, Delta] = {}
        self.pending: dict[int, Delta] = {}  # appended under an open window
        self.floor = 0
        #: last_seq() values taken with no window open: legal floors
        self.durable_points = [0]
        self.restart(windowed)

    def paths(self) -> list[Path]:
        return self.log.segment_paths()

    # -- operations ---------------------------------------------------

    def run(self, op) -> None:
        getattr(self, op[0])(*op[1:])

    def restart(self, windowed: bool) -> None:
        """A new process: the open window, if any, was never sealed."""
        self.pending.clear()
        self.windowed = windowed
        self.log = SegmentedDeltaLog(
            self.root / "segments",
            ShardMap(self.segments),
            executor="serial",
            window_size=self.window_size if windowed else None,
        )

    def append(self, delta: Delta) -> None:
        seq = self.log.append(delta)
        (self.pending if self.windowed else self.acked)[seq] = delta
        self.settle()

    def seal(self) -> None:
        self.log.flush()
        self.settle()

    def settle(self) -> None:
        """Move every sealed windowed batch from pending to acked."""
        still_open = set(self.log.open_window_seqs())
        for seq in list(self.pending):
            if seq not in still_open:
                self.acked[seq] = self.pending.pop(seq)
        if not self.pending:
            self.durable_points.append(max(self.acked, default=0))

    def target_floor(self, percent: int) -> int:
        points = sorted(set(self.durable_points))
        return points[percent * (len(points) - 1) // 100]

    def compact(self, percent: int) -> None:
        self.seal()
        floor = self.target_floor(percent)
        existed = any(path.exists() for path in self.paths())
        self.log.compact(floor)
        if existed:
            self.floor = max(self.floor, floor)

    def compact_segment(self, index: int, percent: int) -> None:
        self.seal()
        floor = self.target_floor(percent)
        index %= self.segments
        existed = self.log.segment(index).path.exists()
        self.log.compact_segment(index, floor)
        if existed:
            self.floor = max(self.floor, floor)

    def crash_during(self, op, cut: int) -> dict[int, Delta]:
        """Run ``op``, then truncate its writes to their first ``cut``
        bytes (writes land in segment order); returns the batches the op
        acknowledged, which may now surface or not, all or none."""
        before = {
            path: path.read_bytes() if path.exists() else None
            for path in self.paths()
        }
        acked_before = set(self.acked)
        self.run(op)
        written = []
        for path in sorted(self.paths()):
            old = before.get(path) or b""
            new = path.read_bytes() if path.exists() else b""
            assert new.startswith(old), "the cut operation must only append"
            if len(new) > len(old):
                written.append((path, old, new[len(old):], before.get(path)))
        total = sum(len(extra) for _, _, extra, _ in written)
        budget = cut % total if total else 0
        for path, old, extra, original in written:
            kept = extra[:budget]
            budget -= len(kept)
            if original is None and not kept:
                path.unlink()
            else:
                path.write_bytes(old + kept)
        return {seq: self.acked.pop(seq) for seq in set(self.acked) - acked_before}


def mentioned(paths, pattern) -> int:
    text = "".join(
        path.read_text(encoding="utf-8", errors="replace")
        for path in paths
        if path.exists()
    )
    return max((int(value) for value in pattern.findall(text)), default=0)


# Fixed examples, one per crash shape docs/FORMATS.md §6 spells out: a
# segment's compaction keeps the seal its sibling segments count; a
# %window tag torn before its newline, or followed by a torn line,
# adopts no later entry; %batch 13 torn to %batch 1 is debris.
@example(
    segments=2,
    window_size=1,
    windowed=True,
    history=[
        ("append", Delta([delete(0, 0), delete(4, 0)])),
        ("compact_segment", 0, 0),
    ],
    cut_op=("seal",),
    cut=0,
    heal_windowed=False,
    heal=Delta(),
)
@example(
    segments=1,
    window_size=2,
    windowed=True,
    history=[],
    cut_op=("append", Delta()),
    cut=9,
    heal_windowed=False,
    heal=Delta(),
)
@example(
    segments=1,
    window_size=2,
    windowed=True,
    history=[],
    cut_op=("append", Delta([delete(0, 0)])),
    cut=11,
    heal_windowed=False,
    heal=Delta(),
)
@example(
    segments=1,
    window_size=1,
    windowed=False,
    history=[("append", Delta())] * 12,
    cut_op=("append", Delta()),
    cut=8,
    heal_windowed=False,
    heal=Delta(),
)
@settings(max_examples=200, deadline=None)
@given(
    segments=st.integers(1, 3),
    window_size=st.integers(1, 3),
    windowed=st.booleans(),
    history=st.lists(history_ops, max_size=16),
    cut_op=cut_ops,
    cut=st.integers(0, 10**6),
    heal_windowed=st.booleans(),
    heal=batches,
)
def test_reopened_log_holds_exactly_the_acknowledged_prefix(
    segments, window_size, windowed, history, cut_op, cut, heal_windowed, heal
):
    with tempfile.TemporaryDirectory() as scratch:
        model = Model(Path(scratch), segments, window_size, windowed)
        for op in history:
            model.run(op)
        in_flight = model.crash_during(cut_op, cut)
        model.restart(heal_windowed)
        model.append(heal)
        model.seal()
        # a cut that left no mention of its seq lets the heal reuse it
        in_flight = {s: d for s, d in in_flight.items() if s not in model.acked}
        batches_by_seq = {**model.acked, **in_flight}
        model.restart(False)
        log = model.log

        got = log.entries()
        assert log.last_seq() == max([model.floor] + [e.seq for e in got])
        tail = [entry for entry in got if entry.seq > model.floor]
        assert [e.seq for e in log.entries(after=model.floor)] == [
            e.seq for e in tail
        ]
        tail_seqs = {entry.seq for entry in tail}
        assert {seq for seq in model.acked if seq > model.floor} <= tail_seqs
        assert tail_seqs & set(in_flight) in (set(), set(in_flight))
        for entry in got:
            if entry.seq not in batches_by_seq:
                assert not entry.delta, f"unacknowledged seq {entry.seq}"
                continue
            stored = Counter(entry.delta.updates)
            expected = Counter(batches_by_seq[entry.seq].updates)
            if entry.seq > model.floor:
                assert stored == expected
            else:  # a compacted segment may have dropped its part
                assert not stored - expected

        highest_seq = mentioned(model.paths(), SEQ_MENTIONS)
        highest_window = mentioned(model.paths(), WINDOW_MENTIONS)
        fresh = SegmentedDeltaLog(
            Path(scratch) / "segments",
            ShardMap(segments),
            executor="serial",
            window_size=2,
        )
        assert fresh.append(Delta()) > highest_seq
        assert fresh.flush() > highest_window


# ----------------------------------------------------------------------
# Byte pin: a fixed stream writes the same files as the recorded run
# ----------------------------------------------------------------------

#: sha256 over every file state the fixed stream leaves, per segment
#: count of the SegmentedDeltaLog.
RECORDED_STREAM_DIGESTS = {
    1: "46700e8b9f489977ac01306aea3e5010f8cff2925b08c5243389c9db09182bd7",
    2: "3e61e09b195fd8491677bbc636570776f992daa834348de36a9812eab4959ce9",
}


def fixed_batch(k: int) -> Delta:
    source, target = k % 10, (3 * k + 1) % 10
    return Delta(
        [
            insert(source, target, label(source), label(target)),
            delete((k + 5) % 10, (7 * k) % 10),
            insert(target, (k + 2) % 10, label(target), label((k + 2) % 10)),
        ]
    )


def run_fixed_stream(root: Path, segments: int) -> str:
    """Per-batch, windowed, compacted and torn-then-healed appends; the
    digest covers the files after every step."""
    digest = hashlib.sha256()

    def open_log(window_size=None):
        return SegmentedDeltaLog(
            root / "segments",
            ShardMap(segments),
            executor="serial",
            window_size=window_size,
        )

    def paths():
        return [
            root / "segments" / SegmentedDeltaLog.SEGMENT_FORMAT.format(i)
            for i in range(segments)
        ]

    def record():
        for path in paths():
            digest.update(path.name.encode())
            digest.update(path.read_bytes() if path.exists() else b"-")

    def tear(text: str) -> None:
        with open(paths()[0], "a", encoding="utf-8") as stream:
            stream.write(text)
        record()

    def append_windowed(log, k):
        log.append(fixed_batch(k))
        record()

    def seal(log):
        log.flush()
        record()

    log = open_log()
    for k in range(4):
        log.append(fixed_batch(k))
        record()
    # a crash mid-record, then a cross-segment append committed in one
    # segment only: both torn, both healed over by a fresh process
    tear("%batch 5 2\n+ 1 2 a")
    open_log().segment(0).append(fixed_batch(4), seq=6, participants=2)
    record()
    log = open_log()
    for k in range(5, 12):
        log.append(fixed_batch(k))
        record()
    log.compact(log.last_seq())
    record()
    # group-commit windows, compacted once sealed
    log = open_log(window_size=2)
    for k in range(12, 15):
        append_windowed(log, k)
    seal(log)
    log.compact_segment(0, log.last_seq())
    record()
    # a window left unsealed by a crash, then a dangling window tag
    log = open_log(window_size=3)
    append_windowed(log, 15)
    log = open_log()
    log.append(fixed_batch(16))
    record()
    tear("%window 50\n")
    log = open_log()
    for k in range(17, 20):
        log.append(fixed_batch(k))
        record()
    log.compact(log.last_seq())
    record()
    return digest.hexdigest()


@pytest.mark.parametrize("segments", [1, 2])
def test_fixed_stream_writes_the_recorded_bytes(tmp_path, segments):
    assert run_fixed_stream(tmp_path, segments) == RECORDED_STREAM_DIGESTS[segments]
