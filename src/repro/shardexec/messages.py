"""Wire messages of the shard worker tier — the pipe allowlist.

Everything that crosses a :class:`repro.shardexec.pool.ShardWorkerPool`
pipe is an instance of one of the frozen dataclasses below, registered
in :data:`MESSAGE_TYPES` via :func:`register_message`.  The restriction
is enforced twice:

* at runtime — :meth:`ShardWorkerPool` and the worker loop only ever
  ``send`` registered messages, and the worker rejects anything else
  with an :class:`ErrorReply`;
* statically — the repro-lint ``ipc`` checker
  (:mod:`tools.analysis.checkers.ipc`) flags any ``.send(...)`` in
  :mod:`repro.shardexec` whose argument is not a registered-message
  constructor call.

Why an allowlist at all: ``multiprocessing`` pipes pickle whatever they
are handed, so the easy bug is shipping an object that *happens* to
pickle — a closure-captured engine, a view holding the coordinator's
graph, a thread lock three attributes deep — and either crashing the
worker at unpickle time or silently cloning megabytes of coordinator
state per batch.  Keeping the wire vocabulary closed keeps the
shared-nothing property honest: workers receive only routed sub-deltas
and primitive descriptors, never live coordinator objects.

Message payloads are primitives, tuples of primitives, or
:class:`~repro.core.delta.Update` values (frozen dataclasses of
node/label tokens — the same vocabulary the log's record lines carry).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "MESSAGE_TYPES",
    "register_message",
    "AdoptSegment",
    "WindowAppend",
    "SealWindow",
    "Shutdown",
    "Adopted",
    "SealAck",
    "ErrorReply",
]

#: Every type allowed across a worker pipe, in registration order.
#: Fully populated by the decorators below at import time, before any
#: pool (let alone a worker thread) can exist.
MESSAGE_TYPES: tuple[type, ...] = ()  # repro-lint: single-init


def register_message(cls: type) -> type:
    """Class decorator admitting a frozen dataclass to the pipe
    allowlist.  The ``ipc`` lint rule resolves this registry by name, so
    a message type that skips the decorator is flagged at its send
    site."""
    global MESSAGE_TYPES
    MESSAGE_TYPES = MESSAGE_TYPES + (cls,)
    return cls


@register_message
@dataclass(frozen=True)
class AdoptSegment:
    """Adopt one shard's log segment (replies :class:`Adopted`)."""

    segment_path: str


@register_message
@dataclass(frozen=True)
class WindowAppend:
    """One routed sub-delta of one batch, under a group-commit window.

    Pipelined: the worker appends the sub-entry to its segment (tagged
    ``%window``, no fsync — the seal pays that) and sends **no reply**;
    errors surface at the next :class:`SealWindow`.  An empty
    ``updates`` is an empty batch's sub-entry and is appended like any
    other, so its seq stays spoken for.
    """

    window: int
    seq: int
    participants: int
    updates: tuple = ()


@register_message
@dataclass(frozen=True)
class SealWindow:
    """Seal the window: fsync the segment and acknowledge everything
    appended under it (replies :class:`SealAck` or
    :class:`ErrorReply`)."""

    window: int
    participants: int


@register_message
@dataclass(frozen=True)
class Shutdown:
    """Exit the worker loop cleanly (no reply)."""


@register_message
@dataclass(frozen=True)
class Adopted:
    """The worker opened the segment named in :class:`AdoptSegment`."""

    segment_path: str


@register_message
@dataclass(frozen=True)
class SealAck:
    """Window sealed durably in this worker's segment."""

    window: int


@register_message
@dataclass(frozen=True)
class ErrorReply:
    """The worker failed processing an earlier message; ``message`` is
    the formatted cause.  Sent in place of the expected reply, so a
    pipelined append failure surfaces at the seal that would have
    acknowledged it."""

    message: str = ""
