"""Shared-nothing shard journaling: resident worker processes that each
own one shard's log segment, coordinated by a thin scatter/seal driver
under group-commit windows (format v4).

The tier has three layers:

* :mod:`repro.shardexec.messages` — the closed wire vocabulary (the
  pipe allowlist the repro-lint ``ipc`` rule enforces);
* :mod:`repro.shardexec.worker` — the per-shard worker process loop:
  append, seal, report errors — nothing else;
* :mod:`repro.shardexec.pool` — the coordinator driver
  (:class:`ShardWorkerPool`), wired into
  :class:`repro.persist.deltalog.SegmentedDeltaLog` by the ``workers``
  executor strategy (see :meth:`repro.persist.snapshot.SnapshotStore.
  attach`).

Workers hold no graph and no view; the segment files they write are
the only state recovery reads.  See ``docs/ARCHITECTURE.md`` (worker
tier, invariant 11) and ``docs/OPERATIONS.md`` (tuning) for the
operational story.
"""

from repro.shardexec.messages import MESSAGE_TYPES, register_message
from repro.shardexec.pool import ShardWorkerPool, WorkerPoolError, shutdown_pools
from repro.shardexec.worker import shard_worker_main

__all__ = [
    "MESSAGE_TYPES",
    "register_message",
    "ShardWorkerPool",
    "WorkerPoolError",
    "shard_worker_main",
    "shutdown_pools",
]
