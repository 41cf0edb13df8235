"""The append-only write-ahead log of applied batch updates: one
directory of per-shard segment files under one global seq space.

Every batch an :class:`~repro.engine.session.Engine` successfully fans
out is appended as one *log entry*::

    %batch <seq> [<participants>]
    + <source> <target> <source_label> <target_label>
    - <source> <target>
    %commit

``seq`` is a strictly increasing integer; the update records are exactly
the lines of :func:`repro.graph.io.write_delta`.  The ``%commit``
trailer is the durability marker: an append flushes and fsyncs after
writing it, and the readers treat any entry whose ``%commit`` never made
it to disk (a torn tail from a crash mid-append) as not written — the
batch it described was also never acknowledged, so dropping it is the
correct recovery.

Replaying the committed entries, in order, over the graph they started
from reproduces the session state; :class:`repro.persist.SnapshotStore`
pairs this log with periodic snapshots so only the tail after the last
snapshot is ever replayed.  A compacted segment carries a ``%truncated
<seq>`` watermark recording the seqs that were committed and then
dropped (preceded by any snapshot-covered entries a lagging view's
relevance filter still retains), so sequence allocation and recovery
stay correct across processes.

**Segments** (:class:`SegmentedDeltaLog`): one append file per graph
shard — a single ``segment-000.log`` for an unsharded graph.  Each
applied batch gets one *global* seq, but its updates are routed to the
segments owning their source nodes
(:func:`repro.graph.sharding.route_updates`) and each touched segment
records a *sub-entry* under that seq; the optional ``<participants>``
operand of ``%batch`` counts the touched segments, and a seq is
committed exactly when every participant's sub-entry is.  Segments
append and fsync independently and compact independently too (one
rotating segment per background firing, run in the caller).
:class:`DeltaLog` is the per-file framing class behind each segment.
The full framing contract lives in ``docs/FORMATS.md``.

**Group-commit windows** (format v4): with a ``window_size`` set (or
under the ``workers`` executor), consecutive batches pipeline under a
shared window — each sub-entry is tagged by a ``%window <id>`` line and
written *without* an fsync, and the whole window becomes durable at
once when :meth:`SegmentedDeltaLog.seal_window` writes ``%seal <id>
<participants>`` to every touched segment and fsyncs there.  A window
missing its seal anywhere (a crash mid-window) is **discarded whole**
on recovery: none of its batches were acknowledged as durable, so
dropping all of them recovers to a prefix of sealed windows — the
cross-segment atomicity rule generalized from one batch to a window
(ARCHITECTURE.md invariant 11).  The fsync amortization — one per
window per segment instead of one per batch — is what the resident
shard workers of :mod:`repro.shardexec` buy their throughput with.

**One pass reads a file.**  The framing rules are stated once, in
:meth:`DeltaLog._scan`: a single pass records the truncation floor, the
highest seq and window id mentioned, every commit, seal and torn entry,
and the update bodies above a caller's ``after``.  Seq allocation and
compaction read that record, and :meth:`SegmentedDeltaLog._merge`
aggregates the per-segment records under the one cross-segment
admission rule behind ``entries`` and ``last_seq``.

Example::

    >>> import tempfile, pathlib
    >>> from repro.core.delta import Delta, insert
    >>> from repro.graph.sharding import ShardMap
    >>> root = pathlib.Path(tempfile.mkdtemp()) / "segments"
    >>> log = SegmentedDeltaLog(root, ShardMap(1))
    >>> log.append(Delta([insert(1, 2, "a", "b")]))
    1
    >>> log.append(Delta([insert(2, 3)]))
    2
    >>> [(entry.seq, len(entry.delta)) for entry in log.entries()]
    [(1, 1), (2, 1)]
    >>> [len(entry.delta) for entry in log.entries(after=1)]
    [1]
    >>> [path.name for path in log.segment_paths()]
    ['segment-000.log']
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.core.delta import Delta, insert
from repro.engine.scheduler import resolve_executor
from repro.graph.io import update_from_fields, update_to_line
from repro.graph.sharding import ShardMap, route_updates
from repro.persist.format import (
    PersistFormatError,
    is_directive,
    parse_directive,
    parse_record,
    render_directive,
)

PathLike = Union[str, Path]

__all__ = [
    "DeltaLog",
    "LogEntry",
    "SegmentedDeltaLog",
    "fsync_directory",
]


def fsync_directory(directory: Path) -> None:
    """Flush a directory's entry table, making renames/creations inside
    it durable.  Best-effort on platforms whose directories cannot be
    opened or fsynced (e.g. Windows)."""
    try:
        handle = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(handle)
    except OSError:
        pass
    finally:
        os.close(handle)


@dataclass(frozen=True)
class LogEntry:
    """One committed batch: its sequence number and the batch itself.

    ``participants`` is the number of log segments the batch's updates
    were routed to (:class:`SegmentedDeltaLog` merges per-segment
    sub-entries, and a seq only commits when all of its participants
    did).

    ``window`` is the group-commit window id the entry was written
    under (``None`` for per-batch-durable v1–v3 entries).  A windowed
    entry is durable only through its window's seal; readers that see
    a non-``None`` window here already verified the seal.
    """

    seq: int
    delta: Delta
    participants: int = 1
    window: Optional[int] = None


#: ``(participants, window, has_updates)`` of one committed entry.
_Commit = tuple[int, Optional[int], bool]


@dataclass
class _FileScan:
    """What one pass over a log file learns (:meth:`DeltaLog._scan`)."""

    #: Highest ``%truncated`` watermark (0 when absent).
    floor: int = 0
    #: Highest seq (``%batch``/``%truncated``) and window id
    #: (``%window``/``%seal``) *mentioned* — committed, torn or a floor.
    max_seq: int = 0
    max_window: int = 0
    #: Every durable committed entry: per batch, or sealed in its window.
    commits: dict[int, _Commit] = field(default_factory=dict)
    #: Committed entries of windows left unsealed or aborted here.
    torn: dict[int, _Commit] = field(default_factory=dict)
    #: ``{window: participants}`` of every ``%seal``.
    seals: dict[int, int] = field(default_factory=dict)
    #: Update batches of the committed entries with ``seq > after``.
    bodies: dict[int, Delta] = field(default_factory=dict)

    def entries(self, after: float) -> list[LogEntry]:
        """The durable entries with ``seq > after``, in seq order."""
        return [
            LogEntry(seq, self.bodies[seq], participants, window)
            for seq, (participants, window, _) in sorted(self.commits.items())
            if seq > after
        ]


@dataclass
class _MergedScan:
    """Every segment's scan under the cross-segment rules
    (:meth:`SegmentedDeltaLog._merge`)."""

    scans: list[_FileScan]
    #: Highest truncation floor of any segment.
    floor: int
    #: ``{seq: (participants, holders)}``: the indexes of the segments
    #: holding a durable, admitted sub-entry of the seq, ascending.
    parts: dict[int, tuple[int, list[int]]]
    #: Seqs with a sub-entry in a window that is not admitted.
    torn_windowed: set[int]

    def entries(self, after: float) -> list[LogEntry]:
        """:meth:`SegmentedDeltaLog.entries` for ``after`` no lower than
        the ``after`` this merge materialized bodies past."""
        result: list[LogEntry] = []
        for seq in sorted(self.parts):
            participants, holders = self.parts[seq]
            if seq <= after or (len(holders) < participants and seq > self.floor):
                continue  # covered, or a torn cross-segment append
            updates = [
                update
                for index in holders  # ascending: segments scan in order
                for update in self.scans[index].bodies[seq]
            ]
            result.append(LogEntry(seq, Delta(updates), participants))
        return result

    def last_seq(self) -> int:
        """:meth:`SegmentedDeltaLog.last_seq` of the merged segments."""
        return max(
            [self.floor]
            + [
                seq
                for seq, (participants, holders) in self.parts.items()
                if len(holders) == participants
            ]
        )


class DeltaLog:
    """One log file's framing: append, seal, scan and compact.

    This is the per-segment class behind :class:`SegmentedDeltaLog`
    (and the resident shard workers of :mod:`repro.shardexec`, which
    append to their own segment), not a log on its own: seqs are
    allocated by the segmented log and always arrive pinned, and
    reading is :meth:`_scan`, aggregated across segments by
    :meth:`SegmentedDeltaLog._merge`.

    The file need not exist yet; the first :meth:`append` creates it.
    Instances hold no open file handle — every operation opens, works,
    and closes, so a segment object is cheap and safe to share between
    a journaling engine and a :class:`~repro.persist.snapshot.
    SnapshotStore` reading it back.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        #: Lowest seq a pinned append may still use: one past the
        #: highest seq the file mentions (lazily derived from the file).
        self._next_seq: int | None = None
        self._tail_known_clean = False  # our own appends end in "\n"

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def append(
        self,
        delta: Delta,
        seq: int,
        participants: int = 1,
        window: Optional[int] = None,
    ) -> int:
        """Durably append one sub-entry under the pinned ``seq``;
        returns the seq.

        The whole entry is rendered in memory *before* the file is
        touched, so a batch that cannot be serialized (non-int/str
        labels) raises without leaving a torn entry on disk.  If a
        previous crash left the file without a trailing newline, one is
        prepended so the torn fragment cannot glue onto this entry's
        ``%batch`` line.  The entry is flushed and fsynced before
        returning, so once the caller sees the seq, recovery will
        replay the batch.

        ``seq`` is the global seq :class:`SegmentedDeltaLog` allocated
        and ``participants`` the number of segments the batch was
        routed to, recorded in the ``%batch`` frame.  A seq must not
        regress below seqs this file already mentions (that would
        violate commit monotonicity).

        ``window`` (format v4) tags the entry with a group-commit
        window id: a ``%window <id>`` line precedes the ``%batch``
        frame and the write is flushed but **not** fsynced — durability
        is deferred to :meth:`seal_window`, and until the seal lands
        the entry is torn debris that recovery discards whole with the
        rest of its window.
        """
        if self._next_seq is None:
            self._next_seq = self._scan().max_seq + 1
        if seq < self._next_seq:
            raise ValueError(
                f"pinned seq {seq} regresses below this segment's next "
                f"allocatable seq {self._next_seq}"
            )
        frame = (
            render_directive("batch", seq)
            if participants == 1
            else render_directive("batch", seq, participants)
        )
        if window is not None:
            frame = render_directive("window", window) + frame
        entry = "".join(
            [frame]
            + [update_to_line(update) for update in delta]
            + [render_directive("commit")]
        )
        created = not self.path.exists()
        entry = self._heal_prefix() + entry
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(entry)
            stream.flush()
            if window is None:
                os.fsync(stream.fileno())
        if created:
            fsync_directory(self.path.parent)  # the file's name itself
        self._next_seq = seq + 1
        return seq

    def seal_window(self, window: int, participants: int) -> None:
        """Seal group-commit window ``window``: write ``%seal <id>
        <participants>`` and fsync, making every entry appended under
        the window durable at once.

        ``participants`` is the number of *segments* holding entries of
        this window across the whole log.  Recovery admits the window
        only when that many segment files carry a matching seal, so a
        crash between sibling seals still discards the window whole.
        """
        line = self._heal_prefix() + render_directive("seal", window, participants)
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(line)
            stream.flush()
            os.fsync(stream.fileno())

    def _heal_prefix(self) -> str:
        """Healing prefix for this object's first append — afterwards our
        own writes always leave a clean tail, so the probe would be dead
        work on the per-batch hot path.

        Two crash shapes need healing: a torn final line without a
        newline (prefix a ``"\\n"`` so the fragment cannot glue onto our
        frame), and a file ending in a dangling ``%window <id>`` tag
        whose batch never followed — complete, or torn before its
        newline (prefix ``%abort <id>`` so the orphaned tag cannot adopt
        *our* per-batch-durable entry into its torn window — the reader
        would then discard an acknowledged append).
        """
        if self._tail_known_clean:
            return ""
        self._tail_known_clean = True
        try:
            with open(self.path, "rb") as stream:
                stream.seek(0, os.SEEK_END)
                size = stream.tell()
                if size == 0:
                    return ""
                stream.seek(-min(size, 4096), os.SEEK_END)
                tail = stream.read()
        except FileNotFoundError:
            return ""
        newline = "" if tail.endswith(b"\n") else "\n"
        last_line = tail.removesuffix(b"\n").rsplit(b"\n", 1)[-1]
        if last_line.startswith(b"%window"):
            try:
                _, operands = parse_directive(last_line.decode("utf-8").strip())
            except (ValueError, UnicodeDecodeError):
                return newline  # malformed tag never arms the reader
            if len(operands) == 1 and isinstance(operands[0], int):
                return newline + render_directive("abort", operands[0])
        return newline

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _scan(self, after: float = math.inf) -> _FileScan:
        """The one pass over this file behind every reader.

        Applies the framing rules of ``docs/FORMATS.md`` §6 line by
        line and returns a :class:`_FileScan`: the truncation floor,
        the highest seq and window id mentioned, every durable commit,
        the entries of windows left unsealed or aborted (``torn``), the
        seals, and the update bodies of committed entries with ``seq >
        after`` — records at or below ``after`` are framed, never
        tokenized.  The default reads framing only.

        A ``%window <id>`` tag binds to the ``%batch`` line right after
        it; any other line in between (a torn directive, an ``%abort``)
        cancels it, so a crash between tag and batch can never adopt a
        later entry into the torn window.  A windowed entry stays torn
        until a ``%seal`` of its window follows it.
        """
        scan = _FileScan()
        if not self.path.exists():
            return scan
        source = str(self.path)
        awaiting_seal: dict[int, list[int]] = {}  # window -> committed seqs
        open_seq: int | None = None
        open_participants = 1
        open_window: int | None = None
        open_updates: list | None = None  # None: at or below ``after``
        has_updates = False
        tag: int | None = None  # %window id awaiting its %batch line
        poisoned = False  # inside a torn fragment, awaiting the next %batch
        previous_seq = 0
        with open(self.path, "r", encoding="utf-8") as stream:
            for line_number, raw in enumerate(stream, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                window, tag = tag, None
                if not is_directive(line):
                    if poisoned:
                        continue  # torn fragment's records
                    if open_seq is None:
                        raise PersistFormatError(
                            source,
                            line_number,
                            "update record outside a %batch entry",
                        )
                    has_updates = True
                    if open_updates is None:
                        continue  # at or below ``after``: framing only
                    try:
                        fields = list(parse_record(line))
                        open_updates.append(update_from_fields(fields))
                    except ValueError:
                        open_seq = None  # torn mid-record
                        poisoned = True
                    continue
                try:
                    keyword, operands = parse_directive(line)
                except ValueError:
                    open_seq = None  # torn mid-directive
                    poisoned = True
                    continue
                integral = all(isinstance(op, int) for op in operands)
                if operands and isinstance(operands[0], int):
                    if keyword in ("batch", "truncated"):
                        scan.max_seq = max(scan.max_seq, operands[0])
                    elif keyword in ("window", "seal"):
                        scan.max_window = max(scan.max_window, operands[0])
                if keyword == "truncated":
                    # compaction floor: entries <= this seq were
                    # committed and then compacted away.
                    if len(operands) != 1 or not integral:
                        raise PersistFormatError(
                            source, line_number, "%truncated needs one integer seq"
                        )
                    scan.floor = max(scan.floor, operands[0])
                    previous_seq = max(previous_seq, operands[0])
                    continue
                if keyword == "commit":
                    if poisoned or open_seq is None:
                        raise PersistFormatError(
                            source,
                            line_number,
                            "%commit closes an entry that did not parse — "
                            "corrupt committed data",
                        )
                    if open_seq <= previous_seq:
                        raise PersistFormatError(
                            source,
                            line_number,
                            f"seq {open_seq} does not increase over {previous_seq}",
                        )
                    previous_seq = open_seq
                    commit = (open_participants, open_window, has_updates)
                    if open_updates is not None:
                        scan.bodies[open_seq] = Delta(open_updates)
                    if open_window is None:
                        scan.commits[open_seq] = commit
                    else:  # durable only through its window's seal
                        scan.torn[open_seq] = commit
                        awaiting_seal.setdefault(open_window, []).append(open_seq)
                    open_seq = None
                    continue
                # an entry still open at any other directive was never
                # committed; a malformed directive is a torn prefix
                open_seq = None
                poisoned = True
                if keyword == "batch":
                    if (
                        len(operands) not in (1, 2)
                        or not integral
                        or (len(operands) == 2 and operands[1] < 1)
                    ):
                        continue  # "%batch" torn before its seq
                    open_seq = operands[0]
                    open_participants = operands[1] if len(operands) == 2 else 1
                    open_window = window
                    open_updates = [] if open_seq > after else None
                    has_updates = False
                elif keyword == "window":
                    if len(operands) != 1 or not integral:
                        continue  # torn "%window" prefix
                    tag = operands[0]
                elif keyword == "seal":
                    if len(operands) != 2 or not integral or operands[1] < 1:
                        continue  # torn seal: the window stays unsealed
                    sealed, participants = operands
                    if sealed in scan.seals:
                        raise PersistFormatError(
                            source, line_number, f"window {sealed} sealed twice"
                        )
                    scan.seals[sealed] = participants
                    for seq in awaiting_seal.pop(sealed, ()):
                        scan.commits[seq] = scan.torn.pop(seq)
                elif keyword == "abort":
                    # heal marker: the preceding %window tag dangled
                    # (crash between the tag and its batch); entries
                    # already committed under the window are torn whole
                    if len(operands) != 1 or not integral:
                        continue
                    awaiting_seal.pop(operands[0], None)
                else:
                    continue  # torn directive prefix, e.g. "%bat"
                poisoned = False
        return scan

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(
        self,
        after: int,
        *,
        lagging=(),
        label_of=None,
        void_seqs=frozenset(),
    ) -> int:
        """Drop committed entries with ``seq <= after`` (they are covered
        by a snapshot); returns the number of entries kept.  Committed
        entries above the floor — the survivor window — are copied
        verbatim: a snapshot is the only thing that makes an entry
        redundant.  Torn and voided entries keep only their frames.

        ``void_seqs``: entries whose seq is in this set are **emptied**
        — their updates are dropped but their ``%batch``/``%commit``
        frame is kept, so the seq stays spoken for.  This is how a
        :class:`SegmentedDeltaLog` neutralizes the sub-entries of a
        torn cross-segment append before the floor passes its seq (a
        partial batch below the floor would otherwise read as
        legitimate lagging retention and resurrect half a batch).

        The compacted file opens with a ``%truncated <floor>`` marker so
        a fresh process reading the log still knows those seqs were used
        — without it, seq allocation could restart below the snapshot's
        ``last-seq`` stamp and newly journaled batches would be invisible
        to the next recovery.  Rewrites the file via a temp-and-rename so
        a crash mid-compaction leaves either the old or the new log,
        never a hybrid.

        **Relevance-aware retention** (``lagging``): a sequence of
        ``(cursor, filter)`` pairs, one per view whose snapshot replay
        cursor lags the snapshot's graph seq.  An entry with
        ``seq <= after`` is only dropped when every lagging pair with
        ``cursor < seq`` provably does not want it — ``filter`` is a
        :class:`~repro.engine.relevance.DeltaFilter` consulted per
        update (``None`` means the view broadcasts, so its entries are
        conservatively kept).  ``label_of`` resolves endpoint labels for
        the filters; without it no filter can be consulted, so every
        lagging window is conservatively retained.  Retained entries at
        or below the watermark are written *before* the ``%truncated``
        marker (readers fold a mid-file marker into their monotone
        floor), so the watermark itself never shrinks — dropping it
        below a committed seq would let a fresh process re-allocate that
        seq, and recovery would never apply the reused batch to the
        graph.
        """
        lagging = list(lagging)
        retained: list[LogEntry] = []
        read_from = after
        if lagging or void_seqs:
            read_from = min(
                [after]
                + [cursor for cursor, _ in lagging]
                + [seq - 1 for seq in void_seqs]
            )
        scan = self._scan(read_from)
        committed = scan.entries(read_from)
        if lagging or void_seqs:
            for entry in committed:
                if entry.seq in void_seqs:
                    retained.append(
                        LogEntry(entry.seq, Delta([]), entry.participants)
                    )
                elif entry.seq > after or self._wanted_by_lagging(
                    entry, lagging, label_of
                ):
                    retained.append(entry)
        else:
            retained = committed
        # entries of unsealed windows are torn debris from a crash: their
        # content must not survive the rewrite (recovery discards a torn
        # window whole), but their seqs must stay spoken for — keep the
        # frame, drop the updates.
        for seq, (participants, _, _) in scan.torn.items():
            if seq > read_from:
                retained.append(LogEntry(seq, Delta([]), participants))
        retained.sort(key=lambda entry: entry.seq)
        # The allocation watermark must never shrink: every seq <= after
        # was committed (whether or not a lagging view retains it), and a
        # previous compaction's floor may sit even higher.  Writing a
        # lower watermark would let a fresh process re-allocate a covered
        # seq, whose batch the next recovery would then never apply to
        # the graph (it reads as snapshot-covered) — silent data loss.
        watermark = max(after, scan.floor)
        low = [entry for entry in retained if entry.seq <= watermark]
        high = [entry for entry in retained if entry.seq > watermark]
        # Entries above the watermark keep their group-commit framing and
        # their window's seal: sibling segments count this segment's seal
        # when they admit the window, so dropping it would discard the
        # window everywhere else.  Below the watermark a partial merge is
        # legitimate, and those entries are written plain.
        last_in_window = {
            entry.window: entry.seq for entry in high if entry.window is not None
        }

        def write_entry(stream, entry: LogEntry, window=None) -> None:
            if window is not None:
                stream.write(render_directive("window", window))
            if entry.participants == 1:
                stream.write(render_directive("batch", entry.seq))
            else:  # segmented sub-entry: the participant count must survive
                stream.write(
                    render_directive("batch", entry.seq, entry.participants)
                )
            for update in entry.delta:
                stream.write(update_to_line(update))
            stream.write(render_directive("commit"))
            if window is not None and last_in_window[window] == entry.seq:
                stream.write(render_directive("seal", window, scan.seals[window]))

        temp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(temp, "w", encoding="utf-8") as stream:
            # retained lagging entries precede the watermark marker —
            # the reader folds a mid-file %truncated into its monotone
            # floor, so their (lower) seqs still parse cleanly.
            for entry in low:
                write_entry(stream, entry)
            stream.write(render_directive("truncated", watermark))
            for entry in high:
                write_entry(stream, entry, entry.window)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp, self.path)
        fsync_directory(self.path.parent)
        return len(retained)

    @staticmethod
    def _wanted_by_lagging(entry: LogEntry, lagging, label_of) -> bool:
        """Does any lagging view still need this snapshot-covered entry?"""
        for cursor, delta_filter in lagging:
            if cursor >= entry.seq:
                continue  # this view already absorbed the entry
            if delta_filter is None or (label_of is None and entry.delta):
                # broadcast view — or no label resolver to consult the
                # filter with: either way, conservatively retain (the
                # unsafe direction would be dropping an entry a lagging
                # view still needs).
                return True
            for update in entry.delta:
                if delta_filter.wants_update(
                    update, label_of(update.source), label_of(update.target)
                ):
                    return True
        return False


# ----------------------------------------------------------------------
# Segmented layout: one append file per graph shard
# ----------------------------------------------------------------------


#: Environment variable setting the default group-commit window size
#: for logs journaling under the ``workers`` executor (see
#: ``docs/OPERATIONS.md``).  Unset or empty → 1: windowed framing with
#: per-batch seals, i.e. the same durability cadence as v1–v3.
WINDOW_ENV = "REPRO_WINDOW_SIZE"


def _default_window_size() -> int:
    """The ``workers``-executor window size from :data:`WINDOW_ENV`;
    anything but an integer >= 1 raises ``ValueError``, as
    ``SegmentedDeltaLog(window_size=...)`` does."""
    value = os.environ.get(WINDOW_ENV) or "1"
    try:
        size = int(value)
    except ValueError:
        size = 0
    if size < 1:
        raise ValueError(
            f"{WINDOW_ENV} must be an integer >= 1, got {value!r}"
        )
    return size


def _stabilize_insert_labels(delta: Delta) -> Delta:
    """Rewrite insert labels so per-segment replay is order-independent.

    Within one batch, a node introduced by several inserts takes the
    label of the *first* update declaring it (``DiGraph.add_edge``
    creates missing endpoints, and labels of pre-existing endpoints are
    ignored).  A segmented log replays a batch as per-shard sub-deltas
    concatenated in shard order — not necessarily the original
    interleaving — so every insert is rewritten to carry each
    endpoint's first-declared label, making the winning label identical
    under any replay order.  Deletes never introduce nodes and pass
    through unchanged.
    """
    declared: dict = {}
    for update in delta:
        if update.is_insert:
            declared.setdefault(update.source, update.source_label)
            declared.setdefault(update.target, update.target_label)
    if not declared:
        return delta
    rebuilt = []
    changed = False
    for update in delta:
        if update.is_insert:
            source_label = declared[update.source]
            target_label = declared[update.target]
            if (source_label, target_label) != (
                update.source_label,
                update.target_label,
            ):
                update = insert(
                    update.source, update.target, source_label, target_label
                )
                changed = True
        rebuilt.append(update)
    return Delta(rebuilt) if changed else delta


class SegmentedDeltaLog:
    """A write-ahead log segmented by graph shard: one append file per
    shard, one *global* seq space.

    The only log class: an :class:`~repro.engine.session.Engine`
    journals into it (``append``) and a
    :class:`~repro.persist.snapshot.SnapshotStore` replays from it
    (``entries`` / ``last_seq``) and compacts it.  An unsharded graph
    journals through a one-segment log (``ShardMap(1)``).  Under the
    hood:

    * :meth:`append` allocates one global seq, routes the batch's
      updates to the segments owning their source nodes
      (:func:`repro.graph.sharding.route_updates`), and appends one
      *sub-entry* per touched segment, each framed ``%batch <seq>
      <participants>``.  The batch is acknowledged only after **every**
      touched segment fsynced — and on read a seq whose committed
      sub-entry count falls short of its participant count is discarded
      as torn (it was never acknowledged), which makes the cross-segment
      commit atomic without any coordinator record.
    * over two or more segments, insert labels are stabilized first
      (:func:`_stabilize_insert_labels`) so the merged replay —
      sub-deltas concatenated in shard order per seq — is equivalent to
      the original batch under any segment interleaving.  A one-segment
      log replays each batch in its original order and writes it as
      given.
    * with a ``window_size`` (or under the ``workers`` executor, whose
      :class:`~repro.shardexec.pool.ShardWorkerPool` installs one),
      appends pipeline under **group-commit windows**: sub-entries are
      tagged ``%window <id>`` and written without fsync, and
      :meth:`seal_window` — called automatically every ``window_size``
      appends, or explicitly via :meth:`flush` — writes ``%seal <id>
      <participants>`` to every touched segment and fsyncs once there.
      A window missing a seal anywhere is discarded whole on recovery
      (ARCHITECTURE.md invariant 11), so acknowledgment moves from the
      batch to the window: callers needing a durability barrier call
      :meth:`flush`.
    * :meth:`compact` runs per segment; :meth:`compact_segment` rewrites
      a single segment, which is what lets background compaction rotate
      through shards instead of pausing the whole log (see
      :meth:`repro.persist.snapshot.SnapshotStore.compact_log`).  Both
      seal the open window first — compaction is a durability point.

    Example::

        >>> import tempfile, pathlib
        >>> from repro.core.delta import Delta, insert
        >>> from repro.graph.sharding import ShardMap
        >>> root = pathlib.Path(tempfile.mkdtemp()) / "segments"
        >>> log = SegmentedDeltaLog(root, ShardMap(2))
        >>> log.append(Delta([insert(1, 2, "a", "b"), insert(2, 3, "b", "c")]))
        1
        >>> [(entry.seq, len(entry.delta)) for entry in log.entries()]
        [(1, 2)]
    """

    SEGMENT_FORMAT = "segment-{:03d}.log"
    SEGMENT_GLOB = "segment-*.log"

    def __init__(
        self,
        root: PathLike,
        shard_map: Optional[ShardMap] = None,
        executor: Optional[str] = None,
        window_size: Optional[int] = None,
    ) -> None:
        self.root = Path(root)
        #: Node → shard assignment used to route appends.  ``None`` is
        #: the read-only mode (segment files discovered from disk);
        #: :meth:`bind_map` attaches a map before the first append.
        self.shard_map: Optional[ShardMap] = None
        #: Executor strategy (``None`` → the ``REPRO_ENGINE_EXECUTOR``
        #: environment variable → serial; see
        #: :func:`repro.engine.scheduler.resolve_executor`).  ``workers``
        #: turns on windowed framing by default; an explicit name is
        #: validated here, before anything touches the disk.
        if executor is not None:
            resolve_executor(executor)
        self.executor = executor
        #: Group-commit window size: ``None`` disables windows (every
        #: append fsyncs per batch, v1–v3 behavior); ``N >= 1`` tags
        #: appends with a window id and auto-seals every N batches.
        #: ``N == 1`` keeps per-batch durability under windowed framing.
        if window_size is not None and window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {window_size}")
        self.window_size = window_size
        self._segments = [
            DeltaLog(self.root / self.SEGMENT_FORMAT.format(index))
            for index in range(self._discover())
        ]
        self._next_seq: Optional[int] = None
        #: Whether this object made (or found) :attr:`root` and fsynced
        #: its parent — done once, on the first append.
        self._root_created = False
        #: Highest floor :meth:`_void_torn` already vetted (per log
        #: object).  Torn debris at or below a vetted floor is already
        #: voided, and new torn seqs are always allocated *above* the
        #: current floor — so re-checking is only needed when the floor
        #: advances, not on every same-floor compaction rotation.
        self._torn_checked_floor = 0
        # -- group-commit window state (format v4) ---------------------
        #: Id of the currently open window (None between windows).
        self._current_window: Optional[int] = None
        #: Highest window id mentioned anywhere (read with the seqs on
        #: the first append, so ids never collide across processes).
        self._max_window: Optional[int] = None
        #: Segment indexes the open window has touched so far — the
        #: seal's participant count and fan-out target.
        self._window_touched: set[int] = set()
        #: Seqs appended under the open window, for seal listeners.
        self._window_seqs: list[int] = []
        #: Callables ``fn(window_id, seqs)`` invoked after a window is
        #: durably sealed — the serving layer's durable-generation hook.
        self._seal_listeners: list = []
        #: Resident shard-worker pool (duck-typed; installed by
        #: :meth:`repro.shardexec.pool.ShardWorkerPool.install`).  When
        #: present, windowed appends ship to worker processes instead
        #: of being written in-process.
        self._worker_pool = None
        if shard_map is not None:
            self.bind_map(shard_map)

    def _discover(self) -> int:
        """Segment count implied by the files on disk: one past the
        highest segment index present (segments are created lazily on
        first touch, so lower indexes may be absent)."""
        if not self.root.exists():
            return 0
        highest = 0
        for path in self.root.glob(self.SEGMENT_GLOB):
            stem = path.stem  # "segment-NNN"
            try:
                index = int(stem.rsplit("-", 1)[1])
            except (IndexError, ValueError):
                continue
            highest = max(highest, index + 1)
        return highest

    def bind_map(self, shard_map: ShardMap) -> None:
        """Attach (or validate) the shard map of a log opened in
        read-only discovery mode.  A :class:`~repro.persist.snapshot.
        SnapshotStore` binds its engine graph's layout here at attach or
        save, and recovery the snapshot's ``%meta sharding`` stamp
        (``ShardMap(1)`` without one).  A map with fewer shards than
        existing segment files is refused: it would orphan them."""
        if self.shard_map is not None:
            if self.shard_map != shard_map:
                raise ValueError(
                    f"shard map {shard_map!r} contradicts this log's "
                    f"existing map {self.shard_map!r}"
                )
            return
        if len(self._segments) > shard_map.count:
            raise ValueError(
                f"segment directory {self.root} holds segment files up to "
                f"index {len(self._segments) - 1} but the shard map has only "
                f"{shard_map.count} shards — refusing to orphan existing "
                "segments"
            )
        self.shard_map = shard_map
        for index in range(len(self._segments), shard_map.count):
            self._segments.append(
                DeltaLog(self.root / self.SEGMENT_FORMAT.format(index))
            )

    def rebind_map(self, shard_map: ShardMap) -> None:
        """Adopt a changed shard layout on a live log — the online
        shard-split path (:meth:`repro.persist.snapshot.SnapshotStore.
        split_shard`).

        Unlike :meth:`bind_map`, which only attaches a map to a log
        opened in discovery mode, this *replaces* an existing binding.
        The open group-commit window, if any, is sealed first: entries
        appended under the old layout stay in their old segments — the
        seq space is global and replay merges all segments, so recovery
        is layout-agnostic — and only future appends route under the new
        map.  Segment objects for new shard indexes are created lazily
        (their files appear on first append), so the rebind itself
        leaves no on-disk trace and the split's commit point stays the
        snapshot rename.  Shrinking is allowed only over trailing
        segments whose files were never created — the split's failure
        rollback.
        """
        self.seal_window()
        if shard_map.count < len(self._segments):
            for segment in self._segments[shard_map.count :]:
                if segment.path.exists():
                    raise ValueError(
                        f"cannot shrink to {shard_map.count} shards: "
                        f"segment file {segment.path} already exists"
                    )
            del self._segments[shard_map.count :]
        for index in range(len(self._segments), shard_map.count):
            self._segments.append(
                DeltaLog(self.root / self.SEGMENT_FORMAT.format(index))
            )
        self.shard_map = shard_map

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_segments(self) -> int:
        """Number of segment files in the layout."""
        return len(self._segments)

    def segment(self, index: int) -> DeltaLog:
        """The per-segment :class:`DeltaLog` (its file may not exist yet)."""
        return self._segments[index]

    def segment_paths(self) -> list[Path]:
        """Every segment's file path, in shard order."""
        return [segment.path for segment in self._segments]

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def _allocate_seq(self) -> int:
        if self._next_seq is None:
            highest_seq, highest_window = self._read_mentions()
            self._next_seq = highest_seq + 1
            if self._max_window is None:
                self._max_window = highest_window
        return self._next_seq

    def _read_mentions(self) -> tuple[int, int]:
        """The highest seq and window id any segment mentions, from one
        framing pass per segment — which also seeds each segment's own
        pinned-seq guard, so the first append reads every file once."""
        highest_seq = highest_window = 0
        for segment in self._segments:
            scan = segment._scan()
            if segment._next_seq is None:
                segment._next_seq = scan.max_seq + 1
            highest_seq = max(highest_seq, scan.max_seq)
            highest_window = max(highest_window, scan.max_window)
        return highest_seq, highest_window

    def append(self, delta: Delta) -> int:
        """Durably append one batch across its owning segments; returns
        the batch's global sequence number.

        Sub-entries are written in ascending shard order; the call
        returns only after every touched segment flushed and fsynced
        its sub-entry.
        A crash part-way leaves some segments with a sub-entry whose
        sibling segments have none — :meth:`entries` discards such a seq
        (its committed count falls short of its recorded participant
        count), matching the fact that the append was never
        acknowledged.  The seq itself stays spoken for: allocation scans
        every segment for the highest *mentioned* seq across processes,
        and within this process the seq is burned even when the append
        **fails** part-way (e.g. one segment hits ``ENOSPC``) — reusing
        it would either wedge the journal on the segment that already
        committed a sub-entry under it, or commit the same seq with
        disagreeing participant counts.
        """
        if self.shard_map is None:
            raise ValueError(
                "this segmented log has no shard map bound; construct it "
                "with shard_map=... or call bind_map() first"
            )
        window_size = self._effective_window_size()
        if not self._root_created:
            self.root.mkdir(parents=True, exist_ok=True)
            fsync_directory(self.root.parent)  # the directory's own name
            self._root_created = True
        seq = self._allocate_seq()
        # one segment replays a batch in its own order: nothing to stabilize
        stable = (
            delta if self.shard_map.count == 1 else _stabilize_insert_labels(delta)
        )
        routed = route_updates(stable, self.shard_map)
        if not routed:  # an empty batch still burns its seq frame
            routed = {0: []}
        participants = len(routed)
        tasks = sorted(routed.items())
        if window_size is not None:
            return self._append_windowed(seq, tasks, participants, window_size)
        try:
            for index, updates in tasks:
                self._segments[index].append(
                    Delta(updates), seq=seq, participants=participants
                )
        finally:
            # burn the seq even on failure: a partial append may have
            # committed sub-entries under it in some segments
            self._next_seq = seq + 1
        return seq

    # ------------------------------------------------------------------
    # Group-commit windows (format v4)
    # ------------------------------------------------------------------

    def _effective_window_size(self) -> Optional[int]:
        """Windowed framing in effect?  An explicit :attr:`window_size`
        always wins; the ``workers`` strategy defaults to the
        ``REPRO_WINDOW_SIZE`` environment knob (1 when unset, keeping
        per-batch durability cadence).  The strategy is resolved — and
        an unknown ``REPRO_ENGINE_EXECUTOR`` refused — either way."""
        strategy = resolve_executor(self.executor)
        if self.window_size is not None:
            return self.window_size
        if strategy == "workers":
            return _default_window_size()
        return None

    def _ensure_window(self) -> int:
        """Open a window if none is open; returns the current window id.
        Ids strictly increase across the whole log's history (scanned
        once per object), so torn debris from an earlier process can
        never collide with a live window."""
        if self._current_window is None:
            if self._max_window is None:
                self._max_window = self._read_mentions()[1]
            self._max_window += 1
            self._current_window = self._max_window
            self._window_touched = set()
            self._window_seqs = []
        return self._current_window

    def _append_windowed(
        self, seq: int, tasks: list, participants: int, window_size: int
    ) -> int:
        """Append one batch under the open group-commit window.

        Sub-entries are written flush-only (no fsync — the seal pays
        one fsync per touched segment for the whole window).  With a
        worker pool installed the sub-deltas ship to the resident shard
        workers and this call returns without waiting for the writes:
        acknowledgment is deferred to the seal, which is exactly the
        group-commit contract.  Auto-seals after ``window_size``
        batches.
        """
        window = self._ensure_window()
        try:
            if self._worker_pool is not None:
                self._worker_pool.append(window, seq, participants, tasks)
            else:
                for index, updates in tasks:
                    self._segments[index].append(
                        Delta(updates),
                        seq=seq,
                        participants=participants,
                        window=window,
                    )
        finally:
            self._next_seq = seq + 1
        self._window_touched.update(index for index, _ in tasks)
        self._window_seqs.append(seq)
        if len(self._window_seqs) >= window_size:
            self.seal_window()
        return seq

    def seal_window(self) -> Optional[int]:
        """Seal the open group-commit window, making every batch
        appended under it durable at once; returns the sealed window id
        (``None`` when no window is open — sealing is idempotent).

        Writes ``%seal <id> <participants>`` to every segment the
        window touched and fsyncs there; the window is durable only
        once **all** participant seals landed, so a crash part-way
        discards it whole.  Seal listeners (:meth:`add_seal_listener`)
        fire after durability.
        """
        window = self._current_window
        if window is None:
            return None
        touched = sorted(self._window_touched)
        seqs = tuple(self._window_seqs)
        # reset first: a failed seal must not let a retry glue new
        # batches onto a half-sealed window
        self._current_window = None
        self._window_touched = set()
        self._window_seqs = []
        if not touched:
            return None  # an empty window wrote nothing anywhere
        seal_participants = len(touched)
        try:
            if self._worker_pool is not None:
                self._worker_pool.seal(window, touched, seal_participants)
                for index in touched:  # parent-side caches went stale
                    self._segments[index]._next_seq = None
            else:
                for index in touched:
                    self._segments[index].seal_window(window, seal_participants)
        except BaseException:
            # a half-sealed window is globally torn debris that may sit
            # above the vetted floor — force the next void sweep to
            # re-check from scratch
            self._torn_checked_floor = -1
            raise
        for listener in list(self._seal_listeners):
            listener(window, seqs)
        return window

    def flush(self) -> Optional[int]:
        """Durability barrier: seal the open window (no-op without
        one); returns the sealed window id, if any.  Call before
        reading the log from another process or taking a snapshot —
        unsealed batches are deliberately not yet durable."""
        return self.seal_window()

    def add_seal_listener(self, listener) -> None:
        """Register ``fn(window_id, seqs)`` to run after each window
        seals (after durability, in the sealing thread).  The serving
        layer uses this to advance its durable generation."""
        self._seal_listeners.append(listener)

    def remove_seal_listener(self, listener) -> None:
        """Unregister a seal listener (no-op if absent)."""
        try:
            self._seal_listeners.remove(listener)
        except ValueError:
            pass

    def open_window_seqs(self) -> tuple[int, ...]:
        """Seqs appended under the currently open (unsealed) window —
        the content the next :meth:`flush` makes durable.  Empty when
        no window is open, i.e. everything appended so far is durable."""
        return tuple(self._window_seqs)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def entries(self, after: int = 0) -> list[LogEntry]:
        """All globally committed entries with ``seq > after``, merged
        across segments in ascending seq order.

        Within one seq the sub-deltas are concatenated in shard order —
        sound because updates on one edge always share a segment (the
        source owns the edge) and insert labels were stabilized at
        append time.  The cross-segment rules are :meth:`_merge`'s: a
        seq above every truncation floor whose committed sub-entries
        fall short of its participant count is torn debris from an
        unacknowledged append and is skipped; *below* a floor a partial
        merge is legitimate (compaction dropped the segments' parts
        that every lagging view provably no longer wants).

        Group-commit windows (format v4, invariant 11): a windowed
        sub-entry counts only when its window is **globally admitted**
        (:meth:`_admit_windows`).  Sub-entries of torn windows are
        discarded whole, even where a single segment managed to seal
        before the crash; a fresh writer's later windows (always under
        fresh, higher ids) seal and admit independently of any torn
        debris below them.
        """
        return self._merge(after).entries(after)

    def last_seq(self) -> int:
        """Seq of the newest *globally durable* committed entry, or the
        highest truncation floor when that is higher (0 when empty).

        A seq counts only when every declared participant segment
        committed its sub-entry **and** its group-commit window, if
        any, is globally admitted — the same :meth:`_merge` that
        :meth:`entries` reads, without materializing any :class:`Delta`.
        """
        return self._merge().last_seq()

    def tail(self, after: float = math.inf) -> tuple[int, list[LogEntry]]:
        """``(last_seq(), entries(after))`` from one :meth:`_merge` —
        one scan per segment where the two calls make two.  With the
        default ``after`` the entries are ``[]`` and no body is parsed."""
        merged = self._merge(after)
        return merged.last_seq(), merged.entries(after)

    def _merge(self, after: float = math.inf) -> _MergedScan:
        """Aggregate one :meth:`DeltaLog._scan` per segment under the
        cross-segment rules — the one pass behind :meth:`entries`,
        :meth:`last_seq`, :meth:`tail` and :meth:`_void_torn`.

        * All of a window's seals must declare the same participant
          count, and windows are admitted by :meth:`_admit_windows`
          (a window with entries left unsealed or aborted anywhere is
          torn).
        * Every sub-entry of a seq must declare the same participant
          count, and a seq may not hold more sub-entries than that.
        * Sub-entries of unadmitted windows do not count toward their
          seq; the seq is recorded in ``torn_windowed`` instead.

        Violations are structural corruption of committed data and
        raise :class:`PersistFormatError`.  Bodies are materialized for
        ``seq > after`` only.
        """
        scans = [segment._scan(after) for segment in self._segments]
        seal_decl: dict[int, int] = {}
        seal_count: dict[int, int] = {}
        for segment, scan in zip(self._segments, scans):
            for window, participants in scan.seals.items():
                known = seal_decl.setdefault(window, participants)
                if known != participants:
                    raise PersistFormatError(
                        str(segment.path),
                        0,
                        f"window {window} declares {participants} "
                        f"participants here but {known} elsewhere",
                    )
                seal_count[window] = seal_count.get(window, 0) + 1
        admitted = self._admit_windows(
            seal_decl,
            seal_count,
            {window for scan in scans for _, window, _ in scan.torn.values()},
        )
        parts: dict[int, tuple[int, list[int]]] = {}
        torn_windowed = {seq for scan in scans for seq in scan.torn}
        for index, (segment, scan) in enumerate(zip(self._segments, scans)):
            for seq, (participants, window, _) in scan.commits.items():
                if window is not None and window not in admitted:
                    torn_windowed.add(seq)  # never acknowledged durable
                    continue
                known, holders = parts.setdefault(seq, (participants, []))
                if known != participants:
                    raise PersistFormatError(
                        str(segment.path),
                        0,
                        f"seq {seq} declares {participants} "
                        f"participants here but {known} elsewhere",
                    )
                holders.append(index)
        for seq, (participants, holders) in parts.items():
            if len(holders) > participants:
                raise PersistFormatError(
                    str(self.root),
                    0,
                    f"seq {seq} committed in {len(holders)} segments but "
                    f"declares only {participants} participants",
                )
        return _MergedScan(
            scans, max([0] + [scan.floor for scan in scans]), parts, torn_windowed
        )

    def _admit_windows(
        self,
        seal_decl: dict[int, int],
        seal_count: dict[int, int],
        torn_windows: set[int],
    ) -> frozenset:
        """Which group-commit windows are globally durable (invariant
        11)?  A window is **complete** when exactly its declared number
        of segments sealed it and no segment holds unsealed entries of
        it; anything else is torn and discarded whole.  Windows admit
        *independently*: each seal carries the window's global
        participant count, so a torn window (debris of a crashed
        writer) never blocks a later window a fresh writer sealed
        under a higher id — its discarded seqs simply stay burned, the
        same gap semantics voided batches have.  More seals than
        declared participants is structural corruption and raises."""
        complete: set[int] = set()
        for window, participants in seal_decl.items():
            count = seal_count.get(window, 0)
            if count > participants:
                raise PersistFormatError(
                    str(self.root),
                    0,
                    f"window {window} sealed in {count} segments but "
                    f"declares only {participants} participants",
                )
            if count == participants and window not in torn_windows:
                complete.add(window)
        return frozenset(complete)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self, after: int, *, lagging=(), label_of=None) -> int:
        """Compact every segment against the same floor; returns total
        entries kept.  Per-segment semantics are exactly
        :meth:`DeltaLog.compact`."""
        return sum(
            self.compact_segment(index, after, lagging=lagging, label_of=label_of)
            for index in range(len(self._segments))
        )

    def compact_segment(
        self, index: int, after: int, *, lagging=(), label_of=None
    ) -> int:
        """Compact one segment only; returns entries kept there.

        This is the bounded-pause unit background compaction rotates
        through: each call rewrites a single shard's file, so the apply
        path is never stalled behind a whole-log rewrite.  Skips (and
        returns 0 for) segments whose file does not exist yet.

        Before the floor moves, torn cross-segment debris at or below
        it is neutralized in **every** segment (:meth:`_void_torn`) —
        a no-op in the steady state; after a crash it may rewrite the
        few segments holding the torn batch's sub-entries.

        Compaction is a durability point: the open group-commit window,
        if any, is sealed first (:meth:`flush`), so the rewrite never
        races in-flight windowed appends and the stamped floor only
        ever covers durable content.
        """
        self.flush()
        self._void_torn(after)
        segment = self._segments[index]
        if not segment.path.exists():
            return 0
        return segment.compact(after, lagging=lagging, label_of=label_of)

    def _void_torn(self, after: int) -> None:
        """Empty the sub-entries of globally-torn seqs ``<= after``.

        A torn cross-segment append (committed in some participant
        segments, missing in others) is correctly discarded by
        :meth:`entries` while its seq sits **above** every truncation
        floor.  Once a compaction advances the floor past it, the
        partial would instead read as legitimate lagging-retention
        residue and resurrect *half a batch* — so before any floor
        advance, the surviving sub-entries are rewritten as empty
        frames (seq stays spoken for, content gone).  Detection reads
        :meth:`_merge` (one framing pass per segment); rewrites happen
        only for segments actually holding non-empty torn sub-entries,
        i.e. only after a crash.

        Globally-torn **group-commit windows** are voided here too, and
        *without* the ``<= after`` bound: segment-level compaction
        writes entries below its watermark as plain frames, so a
        locally-sealed sub-entry of a globally torn window left in
        place would, after its segment's next rotation, read back as
        legitimate committed content and resurrect part of a discarded
        window (invariant 11).  Safe to sweep above ``after`` because
        compaction sealed the open window first — no in-flight windowed
        append can be mistaken for torn.

        Memoized per floor: a fresh log object vets its floor once,
        and again only when a later snapshot advances it (new torn
        seqs are always above the floor current at their crash, so a
        same-floor rotation cannot need a re-check; a live seal
        failure resets the memo).
        """
        if after <= self._torn_checked_floor:
            return
        merged = self._merge()
        torn = merged.torn_windowed | {
            seq
            for seq, (participants, holders) in merged.parts.items()
            if len(holders) < participants and merged.floor < seq <= after
        }
        for segment, scan in zip(self._segments, merged.scans):
            held = {**scan.torn, **scan.commits}
            to_void = frozenset(
                seq for seq in torn if seq in held and held[seq][2]
            )
            if to_void:
                segment.compact(0, void_seqs=to_void)
        # memoize only once every rewrite landed: a transient rewrite
        # failure must leave the floor un-vetted so a retry re-voids
        # instead of advancing past still-intact torn content
        self._torn_checked_floor = after
