"""The asyncio front door: newline-delimited JSON over TCP.

:class:`ServingFrontend` exposes a :class:`~repro.serving.repository.
Repository` on a socket.  The protocol is deliberately minimal — one
JSON object per line in, one JSON object per line out, same order —
because the interesting engineering is *behind* the socket (MVCC
sessions, the delta-invalidated cache) and *at* the socket
(backpressure), not in the framing:

* ``{"op": "open"}`` — admit a read session; replies with the session
  id and the pinned generation.  Sessions belong to the connection that
  opened them and are closed automatically on disconnect.
* ``{"op": "read", "view": V, "query": Q, "session": S}`` — answer at
  the session's pinned generation; omit ``"session"`` for a one-shot
  read at the latest generation.
* ``{"op": "close", "session": S}`` — release the session's pool slot.
* ``{"op": "apply", "updates": [["insert", u, v, lu, lv],
  ["delete", u, v], ...]}`` — push one batch through the write stream;
  replies with the newly published generation.
* ``{"op": "stats"}`` — the repository's operational snapshot.

Every reply carries ``"ok"``, and echoes the request's ``"id"`` when
one was sent — replies are written in request order per connection, so
the echo lets a pipelining client correlate without counting.
Failures are structured: ``"error"`` is a
stable token (``overloaded``, ``session_limit``, ``session_expired``,
``session_closed``, ``unknown_query``, ``bad_request``, ``poisoned``,
``serving_error``) and ``"message"`` is human-readable.

**Backpressure.**  The frontend bounds its in-flight work: at most
``max_inflight`` requests may be executing at once across all
connections.  A request arriving past the bound is not queued — it is
load-shed *immediately* with ``{"ok": false, "error": "overloaded",
"retry_after": r}`` so the client backs off instead of silently growing
an unbounded queue.  The same shape (with ``error: "session_limit"``)
is returned when the repository's session pool is exhausted — the two
bounds shed load at different depths (event loop vs. session pool) but
present one retry contract.

**Encode once.**  A cached answer is immutable, so its encoded form is
too: the first wire read of a ``(view, query, version)`` to finish
encoding stores the reply payload (:func:`jsonable`, then
``json.dumps``), the repository keeps the bytes beside the frozen
answer until the entry is evicted, and every later read of it —
one-shot or through any session whose generation resolves to that
version — splices the same bytes into its reply envelope.

The event loop never blocks on the engine: repository calls (which may
wait on the engine's read/write lock) run on the default thread-pool
executor.  All frontend state (in-flight counter, per-connection
session tables) is touched only from the event-loop thread, so the
frontend itself needs no locks — the thread-safety boundary is the
:class:`Repository`.
"""

from __future__ import annotations

import asyncio
import functools
import json
from typing import Any, NamedTuple, Optional, Union

from repro.core.delta import Update, delete, insert
from repro.serving.repository import (
    ATOMS,
    ROWS,
    SCALARS,
    Repository,
    RepositoryPoisonedError,
    ServingError,
    SessionClosedError,
    SessionExpiredError,
    SessionLimitError,
    UnknownQueryError,
    flat_shape,
)

__all__ = ["ServingFrontend", "jsonable"]

#: Maximum accepted request-line length (bytes); longer lines indicate a
#: confused or hostile client and drop the connection.
MAX_LINE_BYTES = 1 << 20

_ERROR_TOKENS = (
    (SessionLimitError, "session_limit"),
    (SessionExpiredError, "session_expired"),
    (SessionClosedError, "session_closed"),
    (UnknownQueryError, "unknown_query"),
    (RepositoryPoisonedError, "poisoned"),
    (ServingError, "serving_error"),
)


def jsonable(value: Any) -> Any:
    """Project a frozen query answer onto JSON types, deterministically.

    Frozen answers use frozensets and tuples (see
    :func:`repro.serving.repository.freeze_answer`); JSON has neither,
    so sets become sorted lists and tuples become lists.  Elements sort
    in their natural order; a set whose elements do not compare (mixed
    types) sorts by ``repr``, which is total.  A scalar returns after one
    type lookup, and a container of scalars or of scalar rows is copied
    and sorted by ``list()``/``sorted()`` with no call per element; every
    other shape recurses.

    >>> jsonable(frozenset({frozenset({2, 1}), frozenset({10})}))
    [[1, 2], [10]]
    >>> jsonable(frozenset({"b", 1}))
    ['b', 1]
    """
    if type(value) in ATOMS:
        return value
    if isinstance(value, (set, frozenset)):
        shape = flat_shape(value)
        if shape == ROWS:
            try:
                # a tuple sorts exactly as the list it becomes, only faster
                return list(map(list, sorted(value)))
            except TypeError:
                return sorted(map(list, value), key=repr)
        items = value if shape == SCALARS else list(map(jsonable, value))
        try:
            return sorted(items)
        except TypeError:
            return sorted(items, key=repr)
    if isinstance(value, (list, tuple)):
        shape = flat_shape(value)
        if shape == SCALARS:
            return list(value)
        if shape == ROWS:
            return list(map(list, value))
        return list(map(jsonable, value))
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    return value


def _encode_answer(answer: Any) -> bytes:
    """The ``"answer"`` member of a read reply: what the repository
    keeps beside each frozen answer.  ``jsonable`` is looked up in the
    module on every call so a tracer that replaces it sees each encode."""
    return json.dumps(jsonable(answer)).encode()


class _Answer(NamedTuple):
    """A successful read: the generation it resolved at and the encoded
    answer, spliced into the envelope without being parsed again."""

    generation: int
    payload: bytes


def _encode_reply(reply: Any) -> bytes:
    return json.dumps(reply).encode()


def _parse_updates(raw: Any) -> list[Update]:
    """Decode the wire form of a batch (see module docstring)."""
    if not isinstance(raw, list):
        raise ValueError("'updates' must be a list of update arrays")
    updates: list[Update] = []
    for entry in raw:
        if not isinstance(entry, list) or not entry:
            raise ValueError(f"malformed update entry: {entry!r}")
        kind, *rest = entry
        if kind == "insert" and len(rest) in (2, 4):
            updates.append(insert(*rest))
        elif kind == "delete" and len(rest) == 2:
            updates.append(delete(*rest))
        else:
            raise ValueError(f"malformed update entry: {entry!r}")
    return updates


class ServingFrontend:
    """Serve one repository over newline-delimited JSON on TCP.

    ``max_inflight`` bounds concurrently-executing requests (the
    load-shed knob); ``retry_after`` is the back-off hint (seconds)
    shed replies carry.  Use as an async context manager, or call
    :meth:`start` / :meth:`stop`:

    .. code-block:: python

        frontend = ServingFrontend(repo, host="127.0.0.1", port=0)
        await frontend.start()           # frontend.port is now bound
        ...
        await frontend.stop()
    """

    def __init__(
        self,
        repository: Repository,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 128,
        retry_after: float = 0.05,
    ) -> None:
        if max_inflight < 1:
            raise ServingError("max_inflight must be at least 1")
        self.repository = repository
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.retry_after = retry_after
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._connections: set["asyncio.Task[None]"] = set()
        self._inflight = 0
        self._shed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections; with ``port=0`` the
        chosen port is published on :attr:`port`."""
        if self._server is not None:
            raise ServingError("the frontend is already started")
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, close the listener, disconnect every client,
        and wait for their handlers to release the repository sessions
        they own (idempotent): after ``stop()`` returns, no frontend
        session remains open."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        for writer in tuple(self._writers):
            writer.close()
        connections = tuple(self._connections)
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)

    async def __aenter__(self) -> "ServingFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    @property
    def shed_count(self) -> int:
        """Requests load-shed with ``overloaded`` since start."""
        return self._shed

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Sessions opened over this connection, owned by it: the pool
        # slot of a client that vanishes must not leak until lease
        # expiry when the disconnect already told us it is gone.
        sessions: dict[int, Any] = {}
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    break  # oversized line: drop the connection
                if not line:
                    break
                writer.write(await self._handle_line(line, sessions) + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            self._writers.discard(writer)
            for session in sessions.values():
                session.close()
            sessions.clear()
            writer.close()
            try:
                # The handler is already done; a cancellation landing in
                # this last await (loop teardown racing the client's
                # close) must not surface as a task error.
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _handle_line(self, line: bytes, sessions: dict[int, Any]) -> bytes:
        """One request line in, one encoded reply (no newline) out."""
        try:
            request = json.loads(line)
        except json.JSONDecodeError as error:
            return _encode_reply(self._error("bad_request", f"not JSON: {error}"))
        if not isinstance(request, dict) or "op" not in request:
            return _encode_reply(
                self._error("bad_request", "request must be {'op': ...}")
            )
        reply: Union[dict[str, Any], _Answer]
        # The load-shed decision happens before any work is enqueued:
        # past max_inflight the request is refused *now*, not queued.
        if self._inflight >= self.max_inflight:
            self._shed += 1
            reply = {
                "ok": False,
                "error": "overloaded",
                "message": (
                    f"{self._inflight} requests in flight "
                    f"(max {self.max_inflight}); retry after back-off"
                ),
                "retry_after": self.retry_after,
            }
        else:
            self._inflight += 1
            try:
                reply = await self._dispatch(request, sessions)
            finally:
                self._inflight -= 1
        if isinstance(reply, _Answer):
            # the envelope json.dumps would write, around the kept bytes
            head = b'{"ok": true, "generation": %d, "answer": %b' % (
                reply.generation,
                reply.payload,
            )
            if "id" not in request:
                return head + b"}"
            return head + b', "id": %b}' % _encode_reply(request["id"])
        if "id" in request:
            reply["id"] = request["id"]
        return _encode_reply(reply)

    async def _dispatch(
        self, request: dict[str, Any], sessions: dict[int, Any]
    ) -> Union[dict[str, Any], _Answer]:
        op = request.get("op")
        loop = asyncio.get_running_loop()
        try:
            if op == "open":
                session = await loop.run_in_executor(
                    None, self.repository.session
                )
                sessions[session.session_id] = session
                return {
                    "ok": True,
                    "session": session.session_id,
                    "generation": session.generation,
                }
            if op == "read":
                view = request.get("view")
                query = request.get("query")
                if not isinstance(view, str) or not isinstance(query, str):
                    return self._error(
                        "bad_request", "read needs string 'view' and 'query'"
                    )
                session_id = request.get("session")
                session = None
                if session_id is not None:
                    session = sessions.get(session_id)
                    if session is None:
                        return self._error(
                            "session_closed",
                            f"session {session_id} is not open on this "
                            "connection",
                        )
                read = self.repository.read_latest if session is None else session.read
                return _Answer(
                    *await loop.run_in_executor(
                        None,
                        functools.partial(read, view, query, encode=_encode_answer),
                    )
                )
            if op == "close":
                session = sessions.pop(request.get("session"), None)
                if session is None:
                    return self._error(
                        "session_closed",
                        "no such open session on this connection",
                    )
                session.close()
                return {"ok": True}
            if op == "apply":
                try:
                    updates = _parse_updates(request.get("updates"))
                except ValueError as error:
                    return self._error("bad_request", str(error))
                report = await loop.run_in_executor(
                    None, self.repository.apply, updates
                )
                return {
                    "ok": True,
                    "generation": self.repository.generation,
                    "seq": report.seq,
                    "routed": sorted(
                        name
                        for name, view_report in report.views.items()
                        if view_report.changed
                    ),
                }
            if op == "stats":
                stats = await loop.run_in_executor(None, self.repository.stats)
                stats["frontend"] = {
                    "inflight": self._inflight,
                    "max_inflight": self.max_inflight,
                    "shed": self._shed,
                }
                return {"ok": True, "stats": jsonable(stats)}
            return self._error("bad_request", f"unknown op {op!r}")
        except tuple(kind for kind, _ in _ERROR_TOKENS) as error:
            for kind, token in _ERROR_TOKENS:
                if isinstance(error, kind):
                    reply = self._error(token, str(error))
                    if token == "session_limit":
                        reply["retry_after"] = self.retry_after
                    return reply
            raise  # unreachable: the except clause matched one of them
        except Exception as error:  # surface, do not kill the connection
            return self._error("serving_error", f"{type(error).__name__}: {error}")

    @staticmethod
    def _error(token: str, message: str) -> dict[str, Any]:
        return {"ok": False, "error": token, "message": message}
