"""The coordinator side of the worker tier: spawn, scatter, seal.

:class:`ShardWorkerPool` promotes each segment of a
:class:`~repro.persist.deltalog.SegmentedDeltaLog` to a resident worker
process (:func:`repro.shardexec.worker.shard_worker_main`) connected by
one duplex pipe, and plugs itself into the log's windowed append path:

* **scatter** — :meth:`append` ships each routed sub-delta to the
  owning worker and returns without waiting: appends pipeline across
  batches with no per-batch pickling of graphs or pools and no GIL
  between the segment writers;
* **seal** — :meth:`seal` waits for every touched worker's
  :class:`~repro.shardexec.messages.SealAck`, so the group-commit
  window is durable exactly when all participants sealed (ARCHITECTURE
  invariant 11).

The pool is an acceleration tier, not a correctness tier: if worker
processes cannot start here (sandboxed interpreters, unpicklable
``__main__``) :meth:`install` degrades to in-process windowed appends —
same format-v4 framing, same durability rules, no workers.  Workers
hold no graph and no view: view absorbs stay on the coordinator (the
engine's fan-out is unchanged), and what workers take off the critical
path is journaling, the fsync-bearing hot path.
"""

from __future__ import annotations

import threading

from repro.graph.sharding import ShardedGraphStore
from repro.shardexec.messages import (
    AdoptSegment,
    Adopted,
    ErrorReply,
    SealAck,
    SealWindow,
    Shutdown,
    WindowAppend,
)
from repro.shardexec.worker import shard_worker_main

__all__ = ["ShardWorkerPool", "WorkerPoolError", "shutdown_pools"]

#: Seconds to wait for one worker reply before declaring the seal
#: failed (the window is then torn and recovery discards it whole).
SEAL_TIMEOUT_SECONDS = 120.0


class WorkerPoolError(RuntimeError):
    """A worker failed, died, or timed out; the affected window is torn
    (never acknowledged durable) and the pool must be rebuilt before
    further windowed appends go through workers."""


#: Process-wide pool registry, keyed by the log root: re-attaching the
#: same store re-binds the resident workers instead of re-spawning
#: (spawn start-up is the expensive part the resident tier exists to
#: amortize).  Guarded by :data:`_REGISTRY_LOCK`; a pool that cannot
#: start marks the whole interpreter unavailable, so later installs
#: degrade at once instead of re-paying a failed spawn.
_POOLS: dict[str, "ShardWorkerPool"] = {}
_WORKERS_UNAVAILABLE = False
_REGISTRY_LOCK = threading.RLock()


def shutdown_pools() -> None:
    """Close every registered pool and empty the registry — the
    clean-room hook tests and benchmarks call between scenarios so
    resident workers from one store do not outlive it."""
    with _REGISTRY_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.close()


class ShardWorkerPool:
    """Resident worker processes for one segmented log's segments.

    Construct via :meth:`install`, which wires the pool into the log's
    windowed append path (``log._worker_pool``) or degrades cleanly.
    """

    def __init__(self, log) -> None:
        self.log = log
        self._processes: list = []
        self._pipes: list = []
        self._broken = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def install(cls, engine, log):
        """Wire a worker pool into ``log``'s windowed append path.

        Returns the pool, or ``None`` when worker processes cannot be
        used here — the engine's graph carries no
        :class:`~repro.graph.sharding.ShardMap` (it is not a
        :class:`~repro.graph.sharding.ShardedGraphStore`), its map is
        not the log's, or spawning fails in this interpreter — in which
        case the log simply keeps its in-process windowed appends (same
        format, same durability; the ``workers`` strategy stays correct
        everywhere it runs).
        Re-installing over the same log root re-binds the resident
        processes (each re-adopts its segment) instead of re-spawning
        them.
        """
        global _WORKERS_UNAVAILABLE
        graph = engine.graph
        if not isinstance(graph, ShardedGraphStore):
            return None
        if graph.shard_map != log.shard_map:
            return None
        key = str(log.root)
        with _REGISTRY_LOCK:
            if _WORKERS_UNAVAILABLE:
                return None
            pool = _POOLS.get(key)
            if pool is not None and (
                len(pool._processes) != log.num_segments  # layout changed
                or not pool.alive()  # broken or workers died
            ):
                pool.terminate()  # reap before replacing
                pool = None
            if pool is not None:
                pool.log = log
            else:
                pool = cls(log)
                if not pool._start():
                    _WORKERS_UNAVAILABLE = True
                    return None
                _POOLS[key] = pool
        try:
            pool._adopt_segments()
        except WorkerPoolError:
            pool.terminate()
            return None
        log._worker_pool = pool
        return pool

    def _start(self) -> bool:
        """Spawn one worker per segment; ``False`` when this
        interpreter cannot host workers (the failures that mean that
        are ``OSError`` — spawn/pipe failures — and ``RuntimeError`` —
        the spawn re-import guard; anything else propagates)."""
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        try:
            for index in range(self.log.num_segments):
                parent, child = context.Pipe(duplex=True)
                process = context.Process(
                    target=shard_worker_main,
                    args=(child,),
                    daemon=True,
                    name=f"repro-shard-{index}",
                )
                process.start()
                child.close()  # the worker holds its own end
                self._processes.append(process)
                self._pipes.append(parent)
        except (OSError, RuntimeError):
            self.terminate()
            return False
        return True

    def alive(self) -> bool:
        """Are all workers running and the pool unbroken?"""
        return (
            not self._broken
            and len(self._processes) == self.log.num_segments
            and all(process.is_alive() for process in self._processes)
        )

    def _adopt_segments(self) -> None:
        """Hand every worker its segment and wait for each to confirm —
        the one round trip that catches a worker dead on arrival."""
        paths = [str(path) for path in self.log.segment_paths()]
        for index, path in enumerate(paths):
            self._send(index, AdoptSegment(segment_path=path))
        for index, path in enumerate(paths):
            reply = self._recv(index)
            if reply != Adopted(segment_path=path):
                self._broken = True
                raise WorkerPoolError(
                    f"shard worker {index} sent {reply!r} in place of "
                    f"adopting {path}"
                )

    def terminate(self) -> None:
        """Kill every worker immediately — the crash-test hammer (a
        live coordinator uses :meth:`close`).  Segments keep whatever
        prefix each worker had written; unsealed windows are discarded
        whole on recovery."""
        self._broken = True
        for pipe in self._pipes:
            try:
                pipe.close()
            except OSError:
                pass
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=5.0)
        self._processes = []
        self._pipes = []
        with _REGISTRY_LOCK:
            for key, pool in list(_POOLS.items()):
                if pool is self:
                    _POOLS.pop(key)

    def close(self) -> None:
        """Shut workers down cleanly (drains their queues first — a
        worker processes Shutdown after every pipelined append)."""
        for index in range(len(self._pipes)):
            try:
                self._send(index, Shutdown())
            except WorkerPoolError:
                pass
        for process in self._processes:
            process.join(timeout=10.0)
        self.terminate()

    # ------------------------------------------------------------------
    # The scatter/seal hot path
    # ------------------------------------------------------------------

    def _send(self, index: int, message) -> None:
        try:
            self._pipes[index].send(message)
        except (OSError, ValueError) as exc:
            self._broken = True
            raise WorkerPoolError(
                f"shard worker {index} is unreachable: {exc}"
            ) from exc

    def _recv(self, index: int):
        pipe = self._pipes[index]
        try:
            if not pipe.poll(SEAL_TIMEOUT_SECONDS):
                self._broken = True
                raise WorkerPoolError(
                    f"shard worker {index} did not reply within "
                    f"{SEAL_TIMEOUT_SECONDS:.0f}s"
                )
            reply = pipe.recv()
        except (OSError, EOFError) as exc:
            self._broken = True
            raise WorkerPoolError(
                f"shard worker {index} died mid-window: {exc}"
            ) from exc
        if isinstance(reply, ErrorReply):
            self._broken = True
            raise WorkerPoolError(
                f"shard worker {index} failed: {reply.message}"
            )
        return reply

    def append(self, window, seq, participants, tasks) -> None:
        """Scatter one batch's routed sub-deltas to their workers —
        pipelined, no reply awaited.  Every task is sent, an empty
        batch's empty sub-entry included."""
        if self._broken:
            raise WorkerPoolError(
                "worker pool is broken; rebuild it (ShardWorkerPool."
                "install) before appending"
            )
        for index, updates in tasks:
            self._send(
                index,
                WindowAppend(
                    window=window,
                    seq=seq,
                    participants=participants,
                    updates=tuple(updates),
                ),
            )

    def seal(self, window, touched, participants) -> None:
        """Every touched worker seals (fsync) and acknowledges; raises
        :class:`WorkerPoolError` — leaving the window torn — if any
        participant fails."""
        for index in touched:
            self._send(index, SealWindow(window=window, participants=participants))
        for index in touched:
            ack = self._recv(index)
            if ack != SealAck(window=window):
                self._broken = True
                raise WorkerPoolError(
                    f"shard worker {index} acknowledged the wrong window "
                    f"({ack!r} for seal {window})"
                )
