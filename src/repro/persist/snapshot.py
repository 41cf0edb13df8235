"""Durable session snapshots, paired with the delta log for recovery.

A :class:`SnapshotStore` owns one directory::

    <root>/snapshot.repro   # last saved snapshot (atomic rename on save)
    <root>/segments/        # write-ahead log: segment-NNN.log per shard

:meth:`SnapshotStore.save` serializes the authoritative graph (via the
lossless :mod:`repro.graph.io` records) plus every registered view's
:meth:`~repro.engine.view.IncrementalView.snapshot`, stamped with the
seq of the newest committed log entry.  :meth:`SnapshotStore.load`
rebuilds the graph, restores each view through its class's ``restore``
(the paper's four indexes from their records; a dataflow view by
re-running its program over the graph), then replays the delta-log
*tail* (entries newer than the stamp) through the engine's ordinary
``absorb`` fan-out — replay is itself an incremental computation.

The on-disk format is a documented contract — see ``docs/PERSISTENCE.md``.

Example — snapshot a session, lose the process, recover::

    >>> import tempfile, pathlib
    >>> from repro import DiGraph, Engine, insert
    >>> from repro.scc import SCCIndex
    >>> root = pathlib.Path(tempfile.mkdtemp())
    >>> engine = Engine(DiGraph(labels={1: "a", 2: "b"}, edges=[(1, 2)]))
    >>> _ = engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    >>> store = SnapshotStore(root)
    >>> _ = store.save(engine)              # durable point-in-time state
    >>> store.attach(engine)                # journal batches from now on
    >>> _ = engine.apply([insert(2, 1)])    # logged, not yet snapshotted
    >>> del engine                          # the "crash"
    >>> revived = store.load()              # snapshot + replayed tail
    >>> revived["scc"].components() == {frozenset({1, 2})}
    True
"""

from __future__ import annotations

import codecs
import math
import os
import time
import weakref
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, NamedTuple, Optional, Union

from repro.core.cost import CostMeter
from repro.core.delta import InvalidDeltaError, concat
from repro.dataflow import DataflowView
from repro.engine.session import Engine, EngineError
from repro.engine.view import ViewSnapshot
from repro.graph.digraph import DiGraph
from repro.graph.io_tokens import TokenMemo
from repro.graph.io import (
    apply_graph_record,
    graph_record_rows,
    update_from_fields,
    update_to_row,
)
from repro.graph.sharding import ShardedGraphStore, ShardMap
from repro.iso.incremental import ISOIndex
from repro.kws.incremental import KWSIndex
from repro.persist.deltalog import LogEntry, SegmentedDeltaLog, fsync_directory
from repro.persist.format import (
    FORMAT_VERSION,
    SNAPSHOT_MAGIC,
    PersistFormatError,
    SnapshotSections,
    ViewSection,
    available_codecs,
    encode_packed_block,
    expand_packed_lines,
    parse_body,
    parse_directive,
    render_codec_meta,
    render_directive,
    render_records,
    render_shard_split_meta,
    render_sharding_meta,
    split_snapshot_sections,
)
from repro.rpq.incremental import RPQIndex
from repro.scc.incremental import SCCIndex

PathLike = Union[str, Path]

__all__ = [
    "LoadReport",
    "SaveReport",
    "SnapshotPolicy",
    "SnapshotStore",
    "load_session",
    "register_view_kind",
    "save_session",
]

#: kind tag -> view class; extended via :func:`register_view_kind`.
VIEW_KINDS: dict[str, type] = {
    "kws": KWSIndex,
    "rpq": RPQIndex,
    "scc": SCCIndex,
    "iso": ISOIndex,
    "dataflow": DataflowView,
}


def register_view_kind(kind: str, view_class: type) -> None:
    """Register a custom view class for snapshot round-trips.

    ``view_class`` must implement the
    :class:`~repro.engine.view.IncrementalView` protocol including the
    ``snapshot``/``restore`` pair, and its ``snapshot()`` must use
    ``kind`` as its tag.
    """
    existing = VIEW_KINDS.get(kind)
    if existing is not None and existing is not view_class:
        raise ValueError(
            f"view kind {kind!r} is already registered to {existing.__name__}"
        )
    VIEW_KINDS[kind] = view_class


@dataclass(frozen=True)
class LoadReport:
    """Phase breakdown of one :meth:`SnapshotStore.load`.

    ``restore_seconds`` covers parsing the snapshot and rebuilding graph
    + views; ``replay_seconds`` covers driving the log tail through the
    engine.  Within ``restore_seconds``, ``parse_seconds`` is reading
    and splitting the file, parsing every section body and building
    the graph, and ``view_seconds`` maps each view name to its class's
    ``restore`` call (for a ``dataflow`` view, re-deriving its state
    from the graph).  ``entries_replayed`` counts log entries applied to the
    graph (past the snapshot's ``last-seq``), ``entries_delivered``
    counts lagging-window entries routed to cursor-lagging views only.

    ``completed`` is ``True`` only for a load that finished; a load
    that raised leaves a partial report with ``completed=False`` (and
    the phase timings measured up to the failure), never the previous
    successful load's report.
    """

    restore_seconds: float = 0.0
    replay_seconds: float = 0.0
    parse_seconds: float = 0.0
    view_seconds: dict[str, float] = field(default_factory=dict)
    entries_replayed: int = 0
    entries_delivered: int = 0
    completed: bool = False


@dataclass(frozen=True)
class SaveReport:
    """What one :meth:`SnapshotStore.save` copied and wrote.

    ``bytes_carried`` counts the section-body bytes copied from the
    previous file.  ``sections_carried`` and ``sections_rendered`` count
    section bodies copied and written fresh; the graph section counts
    once, as carried when its previous body was copied (a fresh
    ``%graphdiff`` chunk may follow it).  ``seconds`` is the wall time
    from entry to the durable rename (a ``compact=True`` compaction
    afterwards is not included).  Within it, ``view_seconds`` maps each
    freshly rendered view's name to its ``snapshot()`` call plus the
    rendering and writing of its body.
    """

    bytes_carried: int = 0
    sections_carried: int = 0
    sections_rendered: int = 0
    seconds: float = 0.0
    view_seconds: dict[str, float] = field(default_factory=dict)


#: A carryable section body: its ``[start, end)`` byte span in the file
#: this store wrote last.
Body = tuple[int, int]

#: Bytes one read of a byte-range carry moves (the carry's only buffer).
CARRY_CHUNK_BYTES = 1 << 16


class _PreviousFile(NamedTuple):
    """What an incremental save may carry from the snapshot on disk."""

    last_seq: int
    graphdiff_chunks: int
    graph: Body
    #: ``{view_name: (kind, replay cursor, body)}`` in file order.
    views: dict[str, tuple[str, int, Body]]


def _file_identity(stat: os.stat_result) -> tuple[int, int, int, int]:
    return (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns)


@dataclass
class SnapshotPolicy:
    """When should a journaling session auto-snapshot itself?

    Any combination of triggers may be set; the policy fires when *any*
    of them is reached (and at least one must be configured):

    * ``every_batches`` — after N applied batches;
    * ``every_seconds`` — when the last snapshot is older than N seconds
      (checked per batch; an idle session does not wake itself up);
    * ``dirty_threshold`` — when at least N views have absorbed changes
      since the last snapshot.

    Pass a policy to :meth:`SnapshotStore.attach` and every firing saves
    an *incremental* snapshot (only dirty view sections rewritten) and
    resets the counters.  ``saves`` counts the snapshots the policy has
    triggered.

    ``compact_every_batches`` is the background **log-compaction**
    trigger: every N applied batches the store runs a relevance-aware
    :meth:`SnapshotStore.compact_log` — entries covered by the last
    snapshot (respecting per-view replay cursors) are dropped and the
    rest is kept as written.  It counts as a trigger for
    validation purposes, so a compaction-only policy is legal.

    >>> policy = SnapshotPolicy(every_batches=2)
    >>> policy.note_batch(); policy.due(dirty_count=1)
    False
    >>> policy.note_batch(); policy.due(dirty_count=1)
    True
    >>> policy.note_save(); policy.due(dirty_count=1)
    False
    """

    every_batches: Optional[int] = None
    every_seconds: Optional[float] = None
    dirty_threshold: Optional[int] = None
    compact_every_batches: Optional[int] = None
    #: Snapshots triggered so far (incremented by :meth:`note_save`).
    saves: int = 0
    #: Log compactions triggered so far (incremented by :meth:`note_compaction`).
    compactions: int = 0
    _batches: int = field(default=0, repr=False)
    _batches_since_compact: int = field(default=0, repr=False)
    _last_save: float = field(default_factory=time.monotonic, repr=False)

    def __post_init__(self) -> None:
        if (
            self.every_batches is None
            and self.every_seconds is None
            and self.dirty_threshold is None
            and self.compact_every_batches is None
        ):
            raise ValueError(
                "a SnapshotPolicy needs at least one trigger: every_batches, "
                "every_seconds, dirty_threshold, or compact_every_batches"
            )
        for name in ("every_batches", "dirty_threshold", "compact_every_batches"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.every_seconds is not None and self.every_seconds < 0:
            raise ValueError(
                f"every_seconds must be non-negative, got {self.every_seconds}"
            )

    def note_batch(self) -> None:
        """Record one applied batch."""
        self._batches += 1
        self._batches_since_compact += 1

    def compaction_due(self) -> bool:
        """Should the delta log be compacted now?"""
        return (
            self.compact_every_batches is not None
            and self._batches_since_compact >= self.compact_every_batches
        )

    def note_compaction(self) -> None:
        """Reset the compaction counter after the log was compacted."""
        self.compactions += 1
        self._batches_since_compact = 0

    def due(self, dirty_count: int) -> bool:
        """Should a snapshot be taken now?"""
        if self.every_batches is not None and self._batches >= self.every_batches:
            return True
        if (
            self.every_seconds is not None
            and time.monotonic() - self._last_save >= self.every_seconds
        ):
            return True
        if self.dirty_threshold is not None and dirty_count >= self.dirty_threshold:
            return True
        return False

    def note_save(self) -> None:
        """Reset the counters after a snapshot was written."""
        self.saves += 1
        self._batches = 0
        self._last_save = time.monotonic()


class SnapshotStore:
    """Snapshot + delta-log persistence rooted at one directory.

    The write-ahead log is a :class:`~repro.persist.deltalog.
    SegmentedDeltaLog` under ``segments/``, and **it follows the
    graph**: one ``segment-NNN.log`` per shard of a
    :class:`~repro.graph.sharding.ShardedGraphStore`, one
    ``segment-000.log`` for a plain :class:`DiGraph`.  Pass
    ``shard_map`` to fix the layout up front; without it the log is
    bound to the engine graph's layout at :meth:`attach`/:meth:`save`,
    or to the snapshot's ``%meta sharding`` stamp (``ShardMap(1)``
    when there is none) at :meth:`load` — so re-opening a store's
    directory without repeating the map reads and resumes the same
    segments.

    A root holding a legacy monolithic ``deltas.log`` is refused,
    untouched: its frames are the segment grammar, so the one-step
    migration is to move it to ``segments/segment-000.log``.
    """

    SNAPSHOT_NAME = "snapshot.repro"
    SEGMENTS_NAME = "segments"
    #: The pre-segmented log file a store refuses to open over.
    LEGACY_LOG_NAME = "deltas.log"

    def __init__(
        self,
        root: PathLike,
        graphdiff_limit: int = 8,
        shard_map: Optional[ShardMap] = None,
        codec: Optional[str] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.snapshot_path = self.root / self.SNAPSHOT_NAME
        if codec is not None and codec not in available_codecs():
            raise ValueError(
                f"codec {codec!r} is not available; this interpreter "
                f"offers {available_codecs()}"
            )
        #: Compression codec for freshly-written section bodies (format
        #: v5 ``%packed`` blocks), or ``None`` for plaintext.  Reading
        #: is codec-oblivious either way; incremental saves copy carried
        #: sections byte-for-byte, whichever way they were written.
        self.codec = codec
        legacy = self.root / self.LEGACY_LOG_NAME
        segments_dir = self.root / self.SEGMENTS_NAME
        if legacy.exists():
            raise ValueError(
                f"{self.root} holds a legacy monolithic {self.LEGACY_LOG_NAME}; "
                "opening the store would silently orphan that log's "
                "committed entries.  Migrate it with one rename — the "
                f"frames are the same grammar: move {legacy} to "
                f"{segments_dir / SegmentedDeltaLog.SEGMENT_FORMAT.format(0)} "
                "(see docs/OPERATIONS.md)"
            )
        #: The write-ahead log (map-less until the first attach, save or
        #: load binds it, unless ``shard_map`` was given).
        self.log: SegmentedDeltaLog = SegmentedDeltaLog(segments_dir, shard_map)
        #: Next segment index background compaction will rewrite (see
        #: :meth:`compact_log` with ``rotate=True``).
        self._compact_rotation = 0
        #: Maximum ``%graphdiff`` chunks a snapshot accumulates before an
        #: incremental save consolidates the graph section into a fresh
        #: full base (bounds both file growth and load-time replay).
        self.graphdiff_limit = graphdiff_limit
        # Which engine capture this store's on-disk snapshot holds:
        # (weakref to the engine, its snapshot_epoch at write time, its
        # journal_epoch at write time, its graph's oob_version at write
        # time).  Incremental saves may only carry sections forward when
        # the previous file *is* the engine's most recent full capture —
        # an engine saved elsewhere
        # in between cleans its dirty set against that other store, and
        # carrying from ours would resurrect stale state.  The journal
        # epoch additionally gates graph diffs: the diff is derived from
        # this store's log tail, which only covers the window if the
        # engine journaled here, uninterrupted, since the capture, and
        # the graph's oob_version shows no relabel or node removal since.
        # Unknown provenance (fresh store, different engine) falls back
        # to a full write, which is always sound.
        self._captured: Optional[tuple[weakref.ref, int, int, int]] = None
        #: Per-view replay cursors as recorded in the snapshot on disk
        #: (mirrors the file; drives relevance-aware log compaction).
        self._cursors: dict[str, int] = {}
        #: ``%meta last-seq`` of the snapshot on disk (None before the
        #: first save/load through this store object).
        self._last_saved_seq: Optional[int] = None
        #: Phase breakdown of the most recent :meth:`load` (None before).
        self.last_load_report: Optional[LoadReport] = None
        #: Counts of the most recent :meth:`save` (None before the first
        #: and after a save that raised).
        self.last_save_report: Optional[SaveReport] = None
        # The layout of the file this store wrote last: its identity
        # (st_dev, st_ino, st_size, st_mtime_ns) and every body's byte
        # span.  While the file on disk still has that identity, an
        # incremental save copies byte ranges instead of re-reading it.
        self._layout: Optional[tuple[tuple[int, int, int, int], _PreviousFile]] = None

    # ------------------------------------------------------------------
    # Journaling
    # ------------------------------------------------------------------

    @property
    def shard_map(self) -> Optional[ShardMap]:
        """The shard layout this store journals under (``None`` until
        the log is bound)."""
        return self.log.shard_map

    def _bind_layout(self, engine: Engine) -> None:
        """The log follows the graph: bind a map-less log to the engine
        graph's layout, or refuse a graph whose layout contradicts the
        log's.  The log routes updates by the graph's ownership rule,
        and the snapshot's ``%meta sharding`` stamp (derived from the
        graph) is what lets recovery re-bind the segments, so a mismatch
        would journal fine and then fail recovery.  Binding never
        orphans existing segment files
        (:meth:`~repro.persist.deltalog.SegmentedDeltaLog.bind_map`)."""
        graph = engine.graph
        layout = (
            graph.shard_map if isinstance(graph, ShardedGraphStore) else ShardMap(1)
        )
        if self.log.shard_map is None:
            self.log.bind_map(layout)
        elif self.log.shard_map != layout:
            raise ValueError(
                f"engine graph's layout {layout!r} ({type(graph).__name__}) "
                f"differs from the store's log layout {self.log.shard_map!r}; "
                "recovery would refuse the contradiction — refusing it now "
                "instead"
            )

    def attach(self, engine: Engine, policy: Optional[SnapshotPolicy] = None) -> None:
        """Start journaling ``engine``'s applied batches into this
        store's delta log (sugar for ``engine.set_journal(store.log)``).

        With a :class:`SnapshotPolicy` the session also *auto-snapshots*:
        after every applied batch the policy is consulted, and when it
        fires the store writes an incremental snapshot (dirty view
        sections only — see :meth:`save`) before control returns from
        ``engine.apply``.

        Attaching binds a map-less log to the engine graph's layout and
        is also where the executor strategy reaches the journal: a log
        that has not chosen one explicitly adopts the engine's (already resolved by
        :func:`repro.engine.scheduler.resolve_executor`), and under
        ``workers`` a resident
        :class:`~repro.shardexec.pool.ShardWorkerPool` is wired into the
        log's windowed append path (degrading silently to in-process
        windowed appends where worker processes cannot start — same
        format-v4 framing, same durability rules).  Under ``serial``
        nothing is installed and the log writes its segments itself.
        """
        self._bind_layout(engine)
        if self.log.executor is None:
            self.log.executor = engine.scheduler.executor
        if self.log.executor == "workers" and self.log._worker_pool is None:
            # Function-level import: shardexec sits above persist in the
            # layer order (it journals through DeltaLog).
            from repro.shardexec.pool import ShardWorkerPool

            ShardWorkerPool.install(engine, self.log)
        engine.set_journal(self.log)
        if policy is not None:

            def autosnapshot(session: Engine) -> None:
                policy.note_batch()
                if policy.due(dirty_count=len(session.dirty_views())):
                    self.save(session, incremental=True)
                    policy.note_save()
                if policy.compaction_due():
                    # rotate: one shard's segment per firing, so the
                    # apply path never stalls behind a whole-log rewrite
                    self.compact_log(session, rotate=True)
                    policy.note_compaction()

            engine.set_autosnapshot(autosnapshot)

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------

    def save(
        self,
        engine: Engine,
        compact: bool = False,
        incremental: bool = False,
    ) -> Path:
        """Write a point-in-time snapshot of ``engine``; returns its path.

        Lazy views are materialized first (their state must be captured).
        The file is written to a temp path, fsynced, then atomically
        renamed over the previous snapshot, and the directory entry is
        fsynced before anything touches the log — a crash mid-save
        leaves the old snapshot and the intact log, so recovery never
        regresses, and a compaction can never outrun the snapshot that
        justifies it.  With ``compact=True`` the log entries the new
        snapshot covers are dropped afterwards.

        With ``incremental=True`` only *dirty* views (per
        :meth:`~repro.engine.session.Engine.dirty_views` — views that
        absorbed changes since the last save) are re-serialized through
        their ``snapshot()``; every clean view's body is carried forward
        from the previous snapshot file unchanged (sound because view
        snapshots are canonical — an unchanged view would re-render the
        same bytes), keeping the replay cursor it was originally
        serialized at.  **Carry is by byte range**: every save records
        the identity of the file it wrote and each body's byte span, and
        while the file on disk keeps that identity the next incremental
        save parses nothing — it copies the spans through a bounded
        buffer.  With no such layout (a fresh store, the first save
        after :meth:`load`, a file another writer replaced, truncated or
        touched) every section is written fresh, which records the
        layout for the next save.  The **graph section goes
        incremental too**: when the previous file is this store's own
        current capture and the engine has journaled here uninterrupted,
        the previous graph portion is carried verbatim and a
        ``%graphdiff`` chunk — the net edge diff derived from the log
        tail since the previous save — is appended, so steady-state
        snapshot serialization cost is proportional to the change, not
        to |G|.  After :attr:`graphdiff_limit` accumulated chunks the
        graph is consolidated into a fresh full base.  The result is a
        complete, self-contained snapshot; ``load()`` does not
        distinguish the two.  Falls back to a full write per view (and
        per graph) whenever carry provenance cannot be established —
        which is always sound.  Either way the save marks every view
        clean, and :attr:`last_save_report` counts what it carried and
        rendered.
        """
        self.last_save_report = None
        started = time.perf_counter()
        self._bind_layout(engine)
        # A save is a durability point: the open group-commit window, if
        # any, seals first — the stamped last-seq must cover every batch
        # whose effects the graph section contains, and unsealed entries
        # are invisible to last_seq() by design (a stamp excluding them
        # while the graph includes them would resurrect-or-lose them on
        # recovery).
        self.log.flush()
        bytes_carried = sections_carried = 0
        views: dict[str, tuple[str, int, Body]] = {}  # the new file's layout
        view_seconds: dict[str, float] = {}
        temp = self.snapshot_path.with_suffix(".tmp")
        with ExitStack() as stack:
            previous, source = (
                self._previous_file(stack)
                if incremental and self._holds_current_capture(engine)
                else (None, None)
            )
            carried_names: frozenset[str] = frozenset()
            carry_from: Optional[int] = None  # the stamp a graph diff starts at
            if previous is not None:
                carried_names = frozenset(previous.views) - engine.dirty_views()
                if self._may_carry_graph(engine, previous.graphdiff_chunks):
                    carry_from = previous.last_seq
            # one read of the log: the stamp, and the tail a diff needs
            last_seq, tail = self.log.tail(
                math.inf if carry_from is None else carry_from
            )
            diff_rows: Optional[list[tuple]] = None  # None: a fresh graph base
            if carry_from is not None:
                diff_rows = self._plan_graph_carry(engine, carry_from, last_seq, tail)
            stream = stack.enter_context(open(temp, "w", encoding="utf-8"))
            stream.write(render_directive(SNAPSHOT_MAGIC, FORMAT_VERSION))
            stream.write(render_directive("meta", "last-seq", last_seq))
            if self.codec is not None:
                # v5 codec stamp: informative (each %packed block names
                # its codec), but lets readers fail early and loudly
                stream.write(render_codec_meta(self.codec))
            if isinstance(engine.graph, ShardedGraphStore):
                # v3 layout stamp: recovery rebuilds identical ownership
                # (base layout; online splits stamp one line each, v5)
                stream.write(render_sharding_meta(engine.graph.shard_map))
                stream.write(render_shard_split_meta(engine.graph.shard_map))
            stream.write(render_directive("section", "graph"))
            start = stream.tell()
            if diff_rows is None:
                self._write_fresh_body(
                    stream, render_records(graph_record_rows(engine.graph))
                )
                graphdiff_chunks = 0
            else:
                assert previous is not None  # a diff plan implies a carry
                _carry_body(stream, previous.graph, source)
                bytes_carried += stream.tell() - start
                sections_carried += 1
                graphdiff_chunks = previous.graphdiff_chunks
                if diff_rows:
                    stream.write(render_directive("graphdiff", last_seq))
                    self._write_fresh_body(stream, render_records(diff_rows))
                    graphdiff_chunks += 1
            graph = (start, stream.tell())
            for name in engine.names():
                if name in carried_names:
                    assert previous is not None  # names come from its views
                    kind, cursor, body = previous.views[name]
                    stream.write(
                        render_directive("section", "view", name, kind, cursor)
                    )
                    start = stream.tell()
                    _carry_body(stream, body, source)
                    bytes_carried += stream.tell() - start
                    sections_carried += 1
                else:
                    mark = time.perf_counter()
                    state = engine.view(name).snapshot()  # materializes lazy views
                    kind, cursor = state.kind, last_seq
                    stream.write(
                        render_directive("section", "view", name, kind, cursor)
                    )
                    start = stream.tell()
                    self._write_fresh_body(
                        stream,
                        chain(
                            (render_directive("config", *state.config),),
                            render_records(state.records),
                        ),
                    )
                    view_seconds[name] = time.perf_counter() - mark
                views[name] = (kind, cursor, (start, stream.tell()))
            stream.write(render_directive("end"))
            stream.flush()
            os.fsync(stream.fileno())
            identity = _file_identity(os.fstat(stream.fileno()))
        os.replace(temp, self.snapshot_path)
        fsync_directory(self.root)  # the rename must be durable before
        engine.mark_views_clean()   # every section is now on disk
        self._note_capture(engine)
        self._layout = (
            identity,
            _PreviousFile(last_seq, graphdiff_chunks, graph, views),
        )
        self._cursors = {name: cursor for name, (_, cursor, _) in views.items()}
        self._last_saved_seq = last_seq
        self.last_save_report = SaveReport(
            bytes_carried=bytes_carried,
            sections_carried=sections_carried,
            sections_rendered=1 + len(views) - sections_carried,
            seconds=time.perf_counter() - started,
            view_seconds=view_seconds,
        )
        if compact:                 # the log below it is compacted
            self.compact_log(engine)
        return self.snapshot_path

    def _previous_file(
        self, stack: ExitStack
    ) -> tuple[Optional[_PreviousFile], Optional[BinaryIO]]:
        """The snapshot on disk as an incremental save may carry from it,
        and the handle its byte spans are copied from — ``(None, None)``
        unless the file keeps the identity this store recorded when it
        wrote it.  Nothing is parsed: a file without that identity is
        healed by writing every section fresh."""
        if self._layout is None:
            return None, None
        identity, layout = self._layout
        try:
            source = stack.enter_context(open(self.snapshot_path, "rb"))
        except FileNotFoundError:
            return None, None
        if _file_identity(os.fstat(source.fileno())) != identity:
            return None, None
        return layout, source

    def _write_fresh_body(self, stream, text) -> None:
        """Write a freshly rendered section body, packed into one
        ``%packed`` block when the store has a codec.  ``text`` is an
        iterable of strings, each one or more whole lines: a body comes
        as :func:`~repro.persist.format.render_records` chunks of about
        a thousand rows, each rendered by one ``%`` format when its
        tokens are ints and strs and row by row otherwise, in the same
        bytes either way.  A plaintext store writes each chunk as it
        comes, so a body is never held whole; a codec store collects it
        to compress.  Carried bodies never pass through here —
        incremental saves copy them unchanged (compressed bytes are
        copied, never re-encoded)."""
        if self.codec is None:
            stream.writelines(text)
            return
        body = list(text)
        if body:
            stream.writelines(encode_packed_block(body, self.codec))

    def _may_carry_graph(self, engine: Engine, graphdiff_chunks: int) -> bool:
        """May the graph section of the previous file, which holds
        ``graphdiff_chunks`` chunks, be carried forward with a diff?

        Not past :attr:`graphdiff_limit` chunks (consolidate: rewrite a
        fresh full base), and only when the diff can be derived from
        this store's own log tail, which covers the window exactly when
        the engine journaled into this log, uninterrupted, since the
        previous capture (``journal_epoch`` tripwire); the provenance
        check in :meth:`save` already established that the previous
        file captures this engine's state."""
        return (
            graphdiff_chunks < self.graphdiff_limit
            and engine.journal is self.log
            and self._journal_uninterrupted(engine)
        )

    def _plan_graph_carry(
        self,
        engine: Engine,
        previous_seq: int,
        last_seq: int,
        tail: list[LogEntry],
    ) -> Optional[list[tuple]]:
        """The ``%graphdiff`` chunk that carries the graph section from
        the previous file, stamped ``previous_seq``, to ``last_seq``.

        ``tail`` is the log's entries past ``previous_seq``.  Returns the
        chunk's records (empty when the tail is: the previous body is
        carried alone), or ``None`` to force a full rewrite.

        The chunk opens with one ``n <node> <label>`` record per node the
        tail touched (idempotent re-declarations for pre-existing nodes;
        creations, with the authoritative current label, for nodes the
        tail introduced — including nodes whose introducing edge was
        later deleted, which the net delta alone would lose), followed by
        the tail's net-normalized ``+``/``-`` update records.
        """
        if previous_seq > last_seq:
            return None  # foreign file: its stamp outruns our log
        if not tail:
            return []
        try:
            net = concat(entry.delta for entry in tail).normalized()
        except InvalidDeltaError:
            return None  # inconsistent window — full rewrite is always sound
        touched = set()
        for entry in tail:
            touched.update(entry.delta.touched_nodes())
        labels = engine.graph.labels
        try:
            diff_rows = [
                ("n", node, labels[node]) for node in sorted(touched, key=repr)
            ]
        except KeyError:
            return None  # a touched node left the graph out-of-band
        diff_rows.extend(map(update_to_row, net))
        return diff_rows

    def _note_capture(self, engine: Engine) -> None:
        self._captured = (
            weakref.ref(engine),
            engine.snapshot_epoch,
            engine.journal_epoch,
            engine.graph.oob_version,
        )

    def _holds_current_capture(self, engine: Engine) -> bool:
        if self._captured is None:
            return False
        ref, epoch, _, _ = self._captured
        return ref() is engine and epoch == engine.snapshot_epoch

    def _journal_uninterrupted(self, engine: Engine) -> bool:
        """Has every graph change since the capture flowed through this
        store's log?  Requires both an unswapped journal (epoch) and no
        out-of-band graph mutation (relabel / node removal — legal
        :class:`DiGraph` operations no journaled delta can express, so
        a log-derived diff would silently drop them)."""
        if self._captured is None:
            return False
        ref, _, journal_epoch, graph_oob = self._captured
        return (
            ref() is engine
            and journal_epoch == engine.journal_epoch
            and graph_oob == engine.graph.oob_version
        )

    # ------------------------------------------------------------------
    # Log compaction
    # ------------------------------------------------------------------

    def compact_log(self, engine: Engine, rotate: bool = False) -> int:
        """Relevance-aware log compaction; returns entries kept.

        The compaction floor is the last snapshot's ``last-seq`` stamp:
        entries at or below it are covered by the graph section on disk.
        Views whose replay cursor lags that stamp (sections an
        incremental save carried forward) keep the entries their
        relevance filter still wants — under the writer's invariant
        that is none of them, but the filter check makes the drop
        *provable* rather than assumed.  Entries above the floor are
        copied as written (see
        :meth:`~repro.persist.deltalog.DeltaLog.compact`).

        Wired into the batch stream via
        ``SnapshotPolicy(compact_every_batches=N)``; a free no-op
        (returning 0) until this store has saved or loaded a snapshot.
        Cost is O(|log|).

        With ``rotate=True`` only **one** segment is rewritten per call,
        in round-robin shard order — the bounded-pause mode the
        auto-compaction policy uses so a firing mid-stream stalls the
        apply path by at most one shard's file, never a whole-log
        rewrite.  An explicit :meth:`compact_log` call without it
        compacts every segment.
        """
        if self._last_saved_seq is None:
            return 0  # nothing is covered yet; don't even read the log
        floor = self._last_saved_seq
        lagging = []
        for name, cursor in self._cursors.items():
            if cursor >= floor:
                continue
            # engine.relevance_filter never materializes a lazy view and
            # returns None for unregistered-but-snapshotted names — the
            # conservative "retain everything it might still replay".
            lagging.append((cursor, engine.relevance_filter(name)))
        if rotate:  # a saved or loaded store's log is bound: >= 1 segment
            index = self._compact_rotation % self.log.num_segments
            self._compact_rotation = index + 1
            return self.log.compact_segment(
                index, floor, lagging=lagging, label_of=engine.graph.label
            )
        return self.log.compact(
            after=floor, lagging=lagging, label_of=engine.graph.label
        )

    # ------------------------------------------------------------------
    # Online shard split
    # ------------------------------------------------------------------

    def split_shard(self, engine: Engine, parent: int, boundary=None) -> ShardMap:
        """Split one shard of a live session online; returns the new map.

        Grows the engine graph's :class:`~repro.graph.sharding.ShardMap`
        by one shard (``graph.shard_map.split(parent, boundary)``) and
        routes every node through the new map before anything is
        touched, so a range boundary the map or the nodes cannot
        compare with raises :class:`ValueError` and commits nothing.
        Nothing moves in memory — the graph keeps its one adjacency and
        only swaps the map it carries — so the split re-routes future
        log appends (:meth:`~repro.persist.deltalog.SegmentedDeltaLog.
        rebind_map` — existing segment tails stay where they are; the
        seq space is global, so replay is layout-agnostic) and writes a
        full snapshot carrying the ``%meta shard-split`` stamp.

        **The snapshot's atomic rename is the commit point.**  Before
        it, nothing on disk mentions the child shard — the open window
        is sealed up front and the child's segment file is created
        lazily, on its first append — so a crash at any kill point
        recovers to a complete pre-split or post-split state, never a
        torn one.  On a non-crash failure the graph and the log get the
        old map back before the error propagates, so the live engine
        cannot journal into a child segment that recovery would refuse.

        A resident :class:`~repro.shardexec.pool.ShardWorkerPool`, if
        installed, is respawned against the new layout after the commit
        (one worker per segment of the new layout, each adopting its
        segment).

        The logical graph, every view, and MVCC read generations are
        unchanged — :meth:`repro.serving.repository.Repository.
        split_shard` wraps this under the write lock so concurrent
        readers simply observe the same answers throughout.
        """
        graph = engine.graph
        if not isinstance(graph, ShardedGraphStore):
            raise ValueError(
                "shard splitting needs an engine backed by a "
                "ShardedGraphStore"
            )
        self._bind_layout(engine)
        old_map = graph.shard_map
        new_map = old_map.split(parent, boundary=boundary)
        # Only the parent shard's nodes meet the new boundary; routing
        # every node finds one the boundary cannot order against.
        for node in graph.nodes():
            try:
                new_map.shard_of(node)
            except TypeError:
                raise ValueError(
                    f"split boundary {boundary!r} does not order against "
                    f"node {node!r} of shard {parent}"
                ) from None
        # Seal the open window first: the split must not share a
        # group-commit window with ordinary batches.
        self.log.flush()
        graph.shard_map = new_map
        try:
            self.log.rebind_map(new_map)
            self.save(engine)
        except BaseException:
            graph.shard_map = old_map
            self.log.rebind_map(old_map)
            raise
        if self.log._worker_pool is not None:
            # Function-level import: shardexec sits above persist in the
            # layer order (it journals through DeltaLog).
            from repro.shardexec.pool import ShardWorkerPool

            ShardWorkerPool.install(engine, self.log)
        return new_map

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------

    def load(self, attach_journal: bool = True, routed: bool = True) -> Engine:
        """Recover a session: restore the snapshot, replay the log tail.

        Returns a fresh :class:`Engine` whose graph, views, and query
        answers equal the session that was journaling at the moment of
        its last durable write.  With ``attach_journal=True`` (default)
        the recovered engine resumes journaling into the same log, so
        save/load cycles chain.

        Replay is **per-view and cursor-driven**: each view section
        carries the log seq at which its bytes were serialized (its
        *replay cursor* — older than the file's ``last-seq`` for
        sections an incremental save carried forward), and every log
        entry is delivered only to the views whose cursor it outruns.
        Entries past the graph's ``last-seq`` stamp go through the
        ordinary ``apply`` path (graph mutation + fan-out); entries at
        or below it reach only the lagging views, through
        :meth:`Engine.deliver` — routed through the relevance filters,
        which (per the writer's invariant: a section is only carried
        while its view stays clean) route them empty.  A lagging
        delivery that routes non-empty means snapshot and log disagree
        and raises :class:`~repro.persist.format.PersistFormatError`.

        ``routed=False`` replays the tail through broadcast fan-out (no
        relevance routing) — the reference mode the equivalence tests
        and ``benchmarks/bench_recovery.py`` compare cursor-driven
        routed replay against.

        A snapshot carrying a ``%meta sharding`` stamp (version 3)
        restores into a :class:`~repro.graph.sharding.ShardedGraphStore`
        with the identical layout; one without restores into a plain
        :class:`DiGraph`.  Either way the log follows: a log opened
        without a map is bound to the stamp (``ShardMap(1)`` when there
        is none) before the recovered engine resumes journaling, and a
        log whose map contradicts it is refused.

        The file is read by
        :func:`~repro.persist.format.split_snapshot_sections`; a
        malformed one raises
        :class:`~repro.persist.format.PersistFormatError` naming file
        and line.

        :attr:`last_load_report` is reset at entry; a load that raises
        records a :class:`LoadReport` with ``completed=False`` (elapsed
        time under ``restore_seconds``), never the previous successful
        load's report.
        """
        self.last_load_report = None  # a failed load must not surface
        started = time.perf_counter()  # the previous load's stale report
        # Seal the open group-commit window, if any: a load reads only
        # durable entries, so an unflushed live window would otherwise
        # be invisible to the recovered engine while the live engine's
        # graph already holds it.
        self.log.flush()
        try:
            return self._load(attach_journal, routed)
        except BaseException:
            if self.last_load_report is None:
                self.last_load_report = LoadReport(
                    restore_seconds=time.perf_counter() - started,
                    completed=False,
                )
            raise

    def _load(self, attach_journal: bool, routed: bool) -> Engine:
        """The body of :meth:`load` (which owns the failure-report
        bookkeeping around it).

        One pass of :func:`split_snapshot_sections` validates the file
        and splits it; the graph is then replayed from the graph lines
        (switching to diff records at each ``%graphdiff``) and each view
        restored from its body.  Only a body that holds a ``%packed``
        block goes through :func:`expand_packed_lines`.  Every body is
        parsed by :func:`~repro.persist.format.parse_body` through one
        :class:`~repro.graph.io_tokens.TokenMemo`, so a token text that
        recurs across the file is parsed once."""
        phase_started = time.perf_counter()
        source = str(self.snapshot_path)
        if not self.snapshot_path.exists():
            raise FileNotFoundError(
                f"no snapshot at {source}; call SnapshotStore.save first"
            )
        with open(self.snapshot_path, "r", encoding="utf-8") as stream:
            sections = split_snapshot_sections(stream, source=source)
        shard_map = sections.shard_map
        graph = DiGraph() if shard_map is None else ShardedGraphStore(shard_map)
        tokens = TokenMemo()
        _replay_graph_section(graph, sections, source, tokens)
        self.log.bind_map(shard_map or ShardMap(1))
        last_seq = sections.last_seq
        engine = Engine(graph)
        cursors: dict[str, int] = {}
        view_seconds: dict[str, float] = {}
        parse_seconds = time.perf_counter() - phase_started
        for name, section in sections.views.items():
            view_class = VIEW_KINDS.get(section.kind)
            if view_class is None:
                raise PersistFormatError(
                    source,
                    section.line_number,
                    f"unknown view kind {section.kind!r}; register it via "
                    "repro.persist.register_view_kind",
                )
            started = time.perf_counter()
            state = _view_snapshot(section, source, tokens)
            restoring = time.perf_counter()
            parse_seconds += restoring - started
            view = view_class.restore(graph, state, meter=CostMeter())
            view_seconds[name] = time.perf_counter() - restoring
            engine.attach(name, view)
            # v1 sections predate cursors: they were serialized by the
            # save that stamped last-seq.  A cursor can never outrun the
            # graph stamp; clamp defensively against foreign files.
            cursor = last_seq if section.cursor is None else section.cursor
            cursors[name] = min(cursor, last_seq)
        # The restored views are exactly what the snapshot on disk holds,
        # so they start clean; replaying the tail re-dirties the views it
        # actually touches, keeping incremental saves minimal after load.
        engine.mark_views_clean()
        restore_seconds = time.perf_counter() - phase_started
        replay_from = min([last_seq] + list(cursors.values()))
        entries_replayed = entries_delivered = 0
        previous_routing = engine.routing
        engine.routing = routed
        phase_started = time.perf_counter()
        applied_seq = 0
        try:
            for entry in self.log.entries(after=replay_from):
                if entry.seq > last_seq:
                    # journal not attached: no re-append.  Entries are
                    # seq-ordered, so no lagging delivery can follow the
                    # first applied entry — the per-view cursor fold
                    # happens once, after the loop.
                    engine.apply(entry.delta)
                    entries_replayed += 1
                    applied_seq = entry.seq
                    continue
                lagging = [
                    name for name, cursor in cursors.items() if cursor < entry.seq
                ]
                if lagging:
                    try:
                        engine.deliver(entry.delta, lagging, strict=True)
                    except EngineError as exc:
                        raise PersistFormatError(
                            str(self.snapshot_path), 0, str(exc)
                        ) from exc
                    entries_delivered += 1
                    for name in lagging:
                        cursors[name] = entry.seq
        finally:
            engine.routing = previous_routing
        if applied_seq:
            for name in cursors:
                cursors[name] = applied_seq
        self.last_load_report = LoadReport(
            restore_seconds=restore_seconds,
            replay_seconds=time.perf_counter() - phase_started,
            parse_seconds=parse_seconds,
            view_seconds=view_seconds,
            entries_replayed=entries_replayed,
            entries_delivered=entries_delivered,
            completed=True,
        )
        self._cursors = cursors
        self._last_saved_seq = last_seq
        if attach_journal:
            self.attach(engine)
        self._note_capture(engine)
        return engine


def _carry_body(stream, body: Body, source: Optional[BinaryIO]) -> None:
    """Copy a carried section body — a byte span of ``source`` — into
    ``stream`` one :data:`CARRY_CHUNK_BYTES` read at a time (never the
    whole body at once), through the text layer's ``write`` like every
    rendered line."""
    assert source is not None  # spans come only with the file they index
    start, end = body
    source.seek(start)
    decoder = codecs.getincrementaldecoder("utf-8")()
    remaining = end - start
    while remaining:
        chunk = source.read(min(CARRY_CHUNK_BYTES, remaining))
        if not chunk:
            raise OSError(f"{source.name} ended inside a carried section body")
        remaining -= len(chunk)
        stream.write(decoder.decode(chunk, final=not remaining))


def _replay_graph_section(
    graph: DiGraph, sections: SnapshotSections, source: str, tokens: TokenMemo
) -> None:
    """Replay the graph section into ``graph``: base ``n``/``e``
    records, then each ``%graphdiff`` chunk's records in file order."""
    lines = sections.graph_lines
    if sections.graph_packed:
        lines = expand_packed_lines(lines, source, sections.graph_line_number)
    try:
        records, directives, error = parse_body(lines, tokens)
        stops = [index for index, _ in directives] + [len(records)]
        _replay_base(graph, records[: stops[0]])
        for (index, line), stop in zip(directives, stops[1:]):
            if parse_directive(line)[0] != "graphdiff":
                raise ValueError(f"unexpected directive {line!r}")
            for record in records[index:stop]:
                _apply_graphdiff_record(graph, record)
        if error is not None:
            raise error[1]
    except (ValueError, KeyError) as exc:
        raise PersistFormatError(
            source, sections.graph_line_number, f"graph section: {exc}"
        ) from None


def _replay_base(graph: DiGraph, records: list) -> None:
    """Replay the base records: as a save writes them — ``n`` records,
    then ``e`` records — the ``n`` records one by one and the ``e``
    records in one :meth:`~repro.graph.digraph.DiGraph.add_edges`;
    in any other order record by record, so the first error is the one
    the record raises."""
    tags = list(map(itemgetter(0), records))
    nodes = tags.count("n")
    edges = records[nodes:]
    if tags[nodes:].count("e") == len(edges) and set(map(len, edges)) <= {3}:
        for record in records[:nodes]:
            apply_graph_record(graph, record)
        graph.add_edges(map(itemgetter(1, 2), edges))
    else:
        for record in records:
            apply_graph_record(graph, record)


def _view_snapshot(
    section: ViewSection, source: str, tokens: TokenMemo
) -> ViewSnapshot:
    """Parse one view section's body — ``%config``, then record rows —
    into the :class:`ViewSnapshot` its class restores from."""
    lines = section.body
    if section.packed:
        lines = expand_packed_lines(lines, source, section.line_number)
    records, directives, error = parse_body(lines, tokens)
    config: Optional[tuple] = None
    try:
        for index, line in directives:
            if index and config is None:
                break  # a record came first
            keyword, operands = parse_directive(line)
            if keyword != "config" or config is not None:
                raise ValueError(f"unexpected directive {line!r}")
            config = tuple(operands)
        if config is None and (records or error is not None):
            raise ValueError("a view body must open with %config")
        if error is not None:
            raise error[1]
    except ValueError as exc:
        raise PersistFormatError(
            source, section.line_number, f"view section: {exc}"
        ) from None
    if config is None:
        raise PersistFormatError(
            source, section.line_number, "view section is missing %config"
        )
    return ViewSnapshot(kind=section.kind, config=config, records=tuple(records))


def _apply_graphdiff_record(graph: DiGraph, fields: list) -> None:
    """Replay one ``%graphdiff`` chunk record into ``graph``.

    Chunk records are ``n <node> <label>`` node declarations (idempotent
    for pre-existing nodes — the writer emits the authoritative current
    label) followed by the window's net ``+``/``-`` update records.
    Raises plain :class:`ValueError`/:class:`KeyError` on malformed or
    inapplicable records; the caller wraps them with line context.
    """
    tag = fields[0]
    if tag == "n":
        apply_graph_record(graph, fields)
        return
    if tag in ("+", "-"):
        update = update_from_fields(fields)
        if update.is_insert:
            graph.add_edge(
                update.source,
                update.target,
                source_label=update.source_label,
                target_label=update.target_label,
            )
        else:
            graph.remove_edge(update.source, update.target)
        return
    raise ValueError(f"unknown graphdiff record tag {tag!r}")


def save_session(engine: Engine, root: PathLike, compact: bool = False) -> Path:
    """One-call convenience: snapshot ``engine`` into the store at
    ``root`` and keep it journaling there afterwards."""
    store = SnapshotStore(root)
    path = store.save(engine, compact=compact)
    store.attach(engine)
    return path


def load_session(root: PathLike, attach_journal: bool = True) -> Engine:
    """One-call convenience: recover the session stored at ``root``."""
    return SnapshotStore(root).load(attach_journal=attach_journal)
