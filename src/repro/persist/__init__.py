"""Persistent snapshots and write-ahead delta logs for engine sessions.

The paper's guarantees only pay off when index state survives across
sessions — recomputing every view from scratch on restart forfeits the
bounded/localizable wins the engine earned.  This package provides the
substrate:

* :class:`SegmentedDeltaLog` — the append-only, fsynced log of applied
  batches: one segment file per graph shard (one for an unsharded
  graph), each framed ``%batch``/``%commit`` around the
  :mod:`repro.graph.io` update records by :class:`DeltaLog`;
* :class:`SnapshotStore` — a directory pairing the log with versioned
  point-in-time snapshots of the graph and every registered view's
  :meth:`~repro.engine.view.IncrementalView.snapshot`; recovery restores
  the snapshot and replays the log tail through the ordinary ``absorb``
  fan-out, so it is incremental work proportional to the tail, not a
  rebuild proportional to |G|;
* :func:`register_view_kind` — extension point mapping snapshot kind
  tags to view classes.

The on-disk format is a documented contract: ``docs/PERSISTENCE.md``.
"""

from repro.persist.deltalog import DeltaLog, LogEntry, SegmentedDeltaLog
from repro.persist.format import (
    FORMAT_VERSION,
    SNAPSHOT_CODECS,
    SUPPORTED_VERSIONS,
    PersistFormatError,
    available_codecs,
    split_snapshot_sections,
)
from repro.persist.snapshot import (
    LoadReport,
    SaveReport,
    SnapshotPolicy,
    SnapshotStore,
    load_session,
    register_view_kind,
    save_session,
)

__all__ = [
    "DeltaLog",
    "FORMAT_VERSION",
    "LoadReport",
    "LogEntry",
    "PersistFormatError",
    "SNAPSHOT_CODECS",
    "SUPPORTED_VERSIONS",
    "SaveReport",
    "SegmentedDeltaLog",
    "SnapshotPolicy",
    "SnapshotStore",
    "available_codecs",
    "load_session",
    "register_view_kind",
    "save_session",
    "split_snapshot_sections",
]
