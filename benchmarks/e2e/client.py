"""The load generator: one asyncio process, two connections.

One connection reads (closed loop: the next read goes out when the
last reply is in), the other writes (open loop at a fixed rate, timed
from each batch's *due* time so a stall is charged to every batch it
delays; or closed loop for the ingest workload).  Two connections is
``nproc`` on the box this was sized on.

Also owns the server process: spawn, ``ready`` handshake, ``stats``
control calls, clean ``quit`` and SIGKILL.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from workload import OpStream, is_session_read

SERVER = str(Path(__file__).resolve().parent / "server.py")

#: Seconds to wait for a server to come up or go down before giving up.
SERVER_TIMEOUT = 120.0


#: The CPUs the benchmark was started with, read once at import: after
#: :func:`pin` this process's own affinity is one CPU.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin() -> None:
    """Keep the generator, and every server it starts, on one CPU: the
    last, away from the interrupts of the first.  A request is a
    ping-pong between two processes; on two CPUs each hop wakes an idle
    virtual CPU, which on a shared host takes 0.1-0.4 ms and moves with
    the host's load from one minute to the next, and on one CPU it is a
    context switch (see README, "One CPU")."""
    if CPUS:
        os.sched_setaffinity(0, {CPUS[-1]})


def unpin() -> None:
    """For a child that starts processes of its own (the shardexec
    pass): give it back every CPU the benchmark was started with."""
    if CPUS:
        os.sched_setaffinity(0, set(CPUS))


class ServerProcess:
    """One ``server.py`` child and its control channel."""

    def __init__(self, config: dict[str, Any]) -> None:
        self.process = subprocess.Popen(
            [sys.executable, SERVER, "--config", json.dumps(config)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            # the code defaults are what is measured, whatever executor or
            # window size the caller's environment selects for its tests
            env={
                key: value
                for key, value in os.environ.items()
                if not key.startswith("REPRO_")
            },
        )
        self.port = 0
        self.phases: dict[str, float] = {}

    def _reply(self) -> dict[str, Any]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited with code {self.process.wait()} before replying"
            )
        return json.loads(line)

    def wait_ready(self) -> None:
        ready = self._reply()
        self.port = ready["port"]
        self.phases = ready["phases"]

    def stats(self) -> dict[str, Any]:
        self.process.stdin.write("stats\n")
        self.process.stdin.flush()
        return self._reply()

    def quit(self) -> None:
        """Clean shutdown (dumps the trace); SIGKILL if it hangs."""
        if self.process.poll() is None:
            try:
                self.process.stdin.write("quit\n")
                self.process.stdin.flush()
                self.process.wait(timeout=SERVER_TIMEOUT)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                pass
        self.kill()

    def kill(self) -> None:
        """The crash: SIGKILL, then reap."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()


class Connection:
    """One NDJSON connection; replies come back in request order."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.last_generation = 0
        self.regressions = 0

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 24
        )
        return cls(reader, writer)

    def send(self, request: dict[str, Any]) -> None:
        self.writer.write(json.dumps(request).encode() + b"\n")

    async def receive(self) -> tuple[dict[str, Any], int]:
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        reply = json.loads(line)
        generation = reply.get("generation")
        if generation is not None:
            # replies on one connection must never go back in time
            if generation < self.last_generation:
                self.regressions += 1
            self.last_generation = generation
        return reply, len(line)

    async def call(self, request: dict[str, Any]) -> tuple[dict[str, Any], int]:
        self.send(request)
        await self.writer.drain()
        return await self.receive()

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


@dataclass
class Samples:
    """What the generator saw.  Times are ``perf_counter`` seconds."""

    #: (sent_at, latency_s, view, query, reply_bytes)
    reads: list[tuple[float, float, str, str, int]] = field(default_factory=list)
    #: (due_at, latency_s from due, sent_at - due_at)
    writes: list[tuple[float, float, float]] = field(default_factory=list)
    #: session admissions: (sent_at, latency_s)
    opens: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: stream positions of the batches the server applied: a rejected
    #: batch must not reach the client's copy of the graph, or one
    #: failure would read as a cascade of wrong answers
    acked: list[int] = field(default_factory=list)
    backlog_max: int = 0

    def note(self, reply: dict[str, Any]) -> bool:
        self.attempted += 1
        if not reply.get("ok"):
            self.failed += 1  # errors and `overloaded` sheds alike
            return False
        return True


async def read_loop(
    connection: Connection,
    stream: OpStream,
    stop: asyncio.Event,
    samples: Samples,
) -> None:
    """Closed-loop reader over the pre-generated read sequence."""
    session: Optional[int] = None
    clock = time.perf_counter
    for position, (view, query) in enumerate(stream.reads):
        if stop.is_set():
            break
        pinned = is_session_read(position)
        if pinned and session is None:
            sent = clock()
            reply, _ = await connection.call({"op": "open"})
            samples.opens.append((sent, clock() - sent))
            if samples.note(reply):
                session = reply["session"]
        elif not pinned and session is not None:
            reply, _ = await connection.call({"op": "close", "session": session})
            samples.note(reply)
            session = None
        request = {"op": "read", "view": view, "query": query}
        if pinned and session is not None:
            request["session"] = session
        sent = clock()
        reply, size = await connection.call(request)
        samples.reads.append((sent, clock() - sent, view, query, size))
        samples.note(reply)
    else:
        raise RuntimeError("read stream ran out before the window closed")
    if session is not None:
        reply, _ = await connection.call({"op": "close", "session": session})
        samples.note(reply)


async def write_closed_loop(
    connection: Connection,
    stream: OpStream,
    stop: asyncio.Event,
    samples: Samples,
) -> None:
    clock = time.perf_counter
    for index, batch in enumerate(stream.batches):
        if stop.is_set():
            return
        sent = clock()
        reply, _ = await connection.call({"op": "apply", "updates": batch})
        samples.writes.append((sent, clock() - sent, 0.0))
        if samples.note(reply):
            samples.acked.append(index)
    raise RuntimeError("write stream ran out before the window closed")


async def write_open_loop(
    connection: Connection,
    stream: OpStream,
    rate: float,
    started: float,
    samples: Samples,
) -> None:
    """Send batch ``k`` at ``started + k / rate`` whether or not earlier
    batches were acked; a second task collects the replies in order.
    The whole stream is sent (it is sized to the run), so the counts a
    run reports depend on the seed alone, not on where the clock cut."""
    clock = time.perf_counter
    pending: asyncio.Queue[Optional[tuple[int, float, float]]] = asyncio.Queue()

    async def collect() -> None:
        while True:
            entry = await pending.get()
            if entry is None:
                return
            index, due, sent = entry
            reply, _ = await connection.receive()
            samples.writes.append((due, clock() - due, sent - due))
            if samples.note(reply):
                samples.acked.append(index)

    collector = asyncio.create_task(collect())
    try:
        for index, batch in enumerate(stream.batches):
            due = started + index / rate
            await asyncio.sleep(max(0.0, due - clock()))
            connection.send({"op": "apply", "updates": batch})
            pending.put_nowait((index, due, clock()))
            samples.backlog_max = max(samples.backlog_max, pending.qsize())
            await connection.writer.drain()
    finally:
        pending.put_nowait(None)
        await collector  # drains every batch already on the wire


async def drive(
    port: int,
    stream: OpStream,
    write_rate: Optional[float],
    warmup: float,
    seconds: float,
    server: ServerProcess,
) -> tuple[Samples, float, float, dict[str, Any], dict[str, Any]]:
    """Warm-up then the measured window.  Returns the samples, the
    window's bounds (generator clock) and the server's counters at each
    bound."""
    loop = asyncio.get_running_loop()
    reader = await Connection.open(port)
    writer = await Connection.open(port)
    samples = Samples()
    stop = asyncio.Event()
    started = time.perf_counter()
    tasks = [asyncio.create_task(read_loop(reader, stream, stop, samples))]
    if write_rate is None:
        tasks.append(
            asyncio.create_task(write_closed_loop(writer, stream, stop, samples))
        )
    else:
        tasks.append(
            asyncio.create_task(
                write_open_loop(writer, stream, write_rate, started, samples)
            )
        )
    try:
        await asyncio.sleep(warmup)
        window_start = time.perf_counter()
        before = await loop.run_in_executor(None, server.stats)
        await asyncio.sleep(max(0.0, window_start + seconds - time.perf_counter()))
        window_end = time.perf_counter()
        after = await loop.run_in_executor(None, server.stats)
    finally:
        stop.set()
        results = await asyncio.gather(*tasks, return_exceptions=True)
        await reader.close()
        await writer.close()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    samples.failed += reader.regressions + writer.regressions
    return samples, window_start, window_end, before, after


async def read_all(
    port: int, queries: tuple[tuple[str, str], ...]
) -> dict[tuple[str, str], Any]:
    """One one-shot read of every served query (raw wire answers;
    a failed read maps to ``None``)."""
    connection = await Connection.open(port)
    try:
        answers: dict[tuple[str, str], Any] = {}
        for view, query in queries:
            reply, _ = await connection.call(
                {"op": "read", "view": view, "query": query}
            )
            answers[(view, query)] = reply.get("answer") if reply.get("ok") else None
        return answers
    finally:
        await connection.close()
