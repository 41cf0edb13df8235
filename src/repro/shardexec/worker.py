"""The resident shard worker: one process, one log segment, no shared
state.

:func:`shard_worker_main` is the entry point
:class:`repro.shardexec.pool.ShardWorkerPool` spawns one process per
shard around.  A worker owns exactly one thing for the lifetime of the
pool: its shard's **log segment**, a
:class:`~repro.persist.deltalog.DeltaLog` it appends routed sub-entries
to under ``%window`` tags (format v4), so per-batch writes are
flush-only and the seal pays one fsync for the whole window.  The
graph and every view stay on the coordinator; the segment files are
the only state recovery reads.

The loop is strictly message-driven over one duplex pipe and replies
only to :class:`~repro.shardexec.messages.AdoptSegment` and
:class:`~repro.shardexec.messages.SealWindow` — appends are pipelined
with no per-batch acknowledgment, which is exactly the group-commit
contract: durability is only ever claimed at a seal.  A failed append
does not kill the worker; it is latched and reported as an
:class:`~repro.shardexec.messages.ErrorReply` in place of the next
seal's acknowledgment, so the coordinator's seal fails (and the window
stays torn) instead of silently losing a sub-entry.
"""

from __future__ import annotations

import traceback
from typing import Optional

from repro.core.delta import Delta
from repro.persist.deltalog import DeltaLog
from repro.shardexec.messages import (
    AdoptSegment,
    Adopted,
    ErrorReply,
    SealAck,
    SealWindow,
    Shutdown,
    WindowAppend,
)

__all__ = ["shard_worker_main"]


def shard_worker_main(conn) -> None:
    """The worker process entry point: serve one duplex pipe until EOF
    or :class:`~repro.shardexec.messages.Shutdown`.

    Module-level (not a closure) so the ``spawn`` start method can
    import it by qualified name without dragging coordinator state into
    the child — the only state a worker ever holds arrived as a
    registered message.
    """
    log: Optional[DeltaLog] = None
    #: Latched failure of a pipelined append; reported (and the seal
    #: refused) at the next seal.
    error: Optional[str] = None
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return  # coordinator died or closed the pipe
            if isinstance(message, Shutdown):
                return
            try:
                if isinstance(message, AdoptSegment):
                    log = DeltaLog(message.segment_path)
                    error = None
                    conn.send(Adopted(segment_path=message.segment_path))
                elif log is None:
                    conn.send(ErrorReply(message="worker has adopted no segment"))
                elif isinstance(message, WindowAppend):
                    if error is None:
                        log.append(
                            Delta(list(message.updates)),
                            seq=message.seq,
                            participants=message.participants,
                            window=message.window,
                        )
                elif isinstance(message, SealWindow):
                    if error is not None:
                        conn.send(ErrorReply(message=error))
                        error = None
                    else:
                        log.seal_window(message.window, message.participants)
                        conn.send(SealAck(window=message.window))
                else:
                    conn.send(
                        ErrorReply(
                            message=f"unregistered message {type(message).__name__}"
                        )
                    )
            except Exception:
                failure = traceback.format_exc(limit=8)
                if isinstance(message, WindowAppend):
                    # pipelined: latch, surface at the next seal
                    if error is None:
                        error = failure
                else:
                    # the coordinator is blocked on a reply — fail it now
                    # (a failed seal leaves the window torn either way)
                    conn.send(ErrorReply(message=failure))
    finally:
        conn.close()
