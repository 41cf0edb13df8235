"""The coordinator side of the worker tier: spawn, route, seal, gather.

:class:`ShardWorkerPool` promotes each shard of a
:class:`~repro.persist.deltalog.SegmentedDeltaLog` to a resident worker
process (:func:`repro.shardexec.worker.shard_worker_main`) connected by
one duplex pipe, and plugs itself into the log's windowed append path:

* **scatter** — :meth:`append` ships each routed sub-delta (plus the
  ghost-boundary shipment computed here, against the coordinator's
  pre-batch graph — journal appends are write-ahead) to the owning
  worker and returns without waiting: appends pipeline across batches
  with no per-batch pickling of graphs or pools and no GIL between the
  segment writers;
* **gather** — :meth:`seal` waits for every touched worker's
  :class:`~repro.shardexec.messages.SealAck`, so the group-commit
  window is durable exactly when all participants sealed (ARCHITECTURE
  invariant 11), and merges the workers' per-view fragments and cost
  snapshots into :attr:`last_window_report` for the serving and bench
  layers.

The pool is an acceleration tier, not a correctness tier: if worker
processes cannot start here (sandboxed interpreters, unpicklable
``__main__``) :meth:`install` degrades to in-process windowed appends —
same format-v4 framing, same durability rules, no workers.  View absorbs
stay on the coordinator (the engine's fan-out is unchanged); what workers
take off the critical path is journaling (the fsync-bearing hot path)
and replica maintenance, which is where the apply throughput goes.

Replica drift: out-of-band graph mutations (relabels, node removals)
never cross the delta stream, so worker replicas track only what
batches express — exactly the contract the serving layer already
enforces with its out-of-band tripwire.  :meth:`verify` digests every
replica against the coordinator's hosting shards to make drift
detectable instead of silent.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.relevance import AlphabetRelevance, SubscribeAll
from repro.graph.sharding import ShardedGraphStore
from repro.shardexec.messages import (
    Digest,
    DigestReply,
    ErrorReply,
    LoadReplica,
    RegisterViews,
    SealAck,
    SealWindow,
    Shutdown,
    ViewInterest,
    WindowAppend,
)
from repro.shardexec.worker import replica_digest, shard_worker_main

__all__ = [
    "ShardWorkerPool",
    "WorkerPoolError",
    "WindowReport",
    "GHOST_SYNC_ENV",
    "GHOST_SYNC_POLICIES",
    "shutdown_pools",
]

#: Environment knob for the ghost-label synchronization policy.
GHOST_SYNC_ENV = "REPRO_GHOST_SYNC"

#: Accepted ghost-sync policies: ``touch`` (default) re-ships the
#: authoritative label of every pre-existing remote target an insert
#: touches, healing stale ghosts lazily; ``declared`` ships nothing and
#: lets ghosts keep the update's declared label (cheaper per batch —
#: no coordinator label lookups — but replica ghost labels may drift
#: from relabels until the next :class:`LoadReplica`).
GHOST_SYNC_POLICIES = ("touch", "declared")

#: Seconds to wait for one worker reply before declaring the seal
#: failed (the window is then torn and recovery discards it whole).
SEAL_TIMEOUT_SECONDS = 120.0


class WorkerPoolError(RuntimeError):
    """A worker failed, died, or timed out; the affected window is torn
    (never acknowledged durable) and the pool must be rebuilt before
    further windowed appends go through workers."""


@dataclass(frozen=True)
class WindowReport:
    """The gather result of one sealed window, merged across workers:
    per-view routed-update counts (the per-shard ΔO fragments summed),
    per-shard cost snapshots, and the newest seq any worker holds."""

    window: int
    last_seq: int = 0
    fragments: dict = field(default_factory=dict)
    per_shard: dict = field(default_factory=dict)


def _ghost_sync_policy(value: Optional[str]) -> str:
    """Resolve the ghost-sync policy (argument beats environment beats
    ``touch``); unknown values raise."""
    if value is None:
        value = os.environ.get(GHOST_SYNC_ENV) or "touch"
    if value not in GHOST_SYNC_POLICIES:
        raise WorkerPoolError(
            f"unknown ghost-sync policy {value!r}; expected one of "
            f"{GHOST_SYNC_POLICIES} (set via the {GHOST_SYNC_ENV} "
            "environment variable)"
        )
    return value


def _view_interests(engine) -> tuple[ViewInterest, ...]:
    """Derive the picklable per-view interest table from the engine's
    registered relevance filters (see
    :class:`~repro.shardexec.messages.ViewInterest` for the modes)."""
    interests = []
    for name in engine.names():
        flt = engine.relevance_filter(name)
        if flt is None or isinstance(flt, SubscribeAll):
            interests.append(ViewInterest(name=name, mode="all"))
        elif isinstance(flt, AlphabetRelevance):
            interests.append(
                ViewInterest(
                    name=name,
                    mode="target-labels",
                    labels=tuple(sorted(flt._alphabet, key=repr)),
                )
            )
        else:
            interests.append(ViewInterest(name=name, mode="conservative"))
    return tuple(interests)


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
    """Resident worker processes for one segmented log's shards.

    Construct via :meth:`install`, which wires the pool into the log's
    windowed append path (``log._worker_pool``) or degrades cleanly.
    """

    def __init__(self, log, graph, ghost_sync: Optional[str] = None) -> None:
        self.log = log
        self.graph = graph
        self.shard_map = log.shard_map
        self.ghost_sync = _ghost_sync_policy(ghost_sync)
        self._processes: list = []
        self._pipes: list = []
        #: The gather result of the most recently sealed window.
        self.last_window_report: Optional[WindowReport] = None
        self._broken = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def install(cls, engine, log, ghost_sync: Optional[str] = None):
        """Wire a worker pool into ``log``'s windowed append path.

        Returns the pool, or ``None`` when worker processes cannot be
        used here — the engine's graph is not sharded, or spawning
        fails in this interpreter — in which case the log simply keeps
        its in-process windowed appends (same format, same durability;
        the ``workers`` strategy stays correct everywhere it runs).
        Re-installing over the same log root re-binds the resident
        processes (fresh replicas, fresh view table) instead of
        re-spawning them.
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
                pool.graph = graph
                pool.shard_map = log.shard_map
                pool.ghost_sync = _ghost_sync_policy(ghost_sync)
            else:
                pool = cls(log, graph, ghost_sync=ghost_sync)
                if not pool._start():
                    _WORKERS_UNAVAILABLE = True
                    return None
                _POOLS[key] = pool
        try:
            pool._load_replicas()
            pool.register_views(engine)
        except WorkerPoolError:
            pool.terminate()
            with _REGISTRY_LOCK:
                _POOLS.pop(key, None)
            return None
        log._worker_pool = pool
        return pool

    def _start(self) -> bool:
        """Spawn one worker per shard and probe the pipes; ``False``
        when this interpreter cannot host workers (the failures that
        mean that are ``OSError`` — spawn/pipe failures — and
        ``RuntimeError`` — the spawn re-import guard; anything else
        propagates)."""
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

    def _load_replicas(self) -> None:
        """Ship every shard's resident replica (the hosting shard's
        nodes, labels, and edges) and confirm adoption by digest."""
        for index, pipe in enumerate(self._pipes):
            shard = self.graph.shard(index)
            self._send(
                index,
                LoadReplica(
                    shard_index=index,
                    segment_path=str(self.log.segment_paths()[index]),
                    labels=tuple(
                        (node, shard.label(node)) for node in shard.nodes()
                    ),
                    edges=tuple(shard.edges()),
                ),
            )
        self.verify(self.graph)  # adoption probe: digest every replica

    def register_views(self, engine) -> None:
        """Replace every worker's view-interest table from the engine's
        current registrations (call again after register/deregister)."""
        views = _view_interests(engine)
        for index in range(len(self._pipes)):
            self._send(index, RegisterViews(views=views))

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
    # The scatter/gather hot path
    # ------------------------------------------------------------------

    def _send(self, index: int, message) -> None:
        try:
            self._pipes[index].send(message)
        except (OSError, ValueError, BrokenPipeError) as exc:
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

    def _ghost_shipments(
        self, tasks
    ) -> tuple[dict[int, dict], dict[int, dict]]:
        """Compute the ghost-boundary shipment for one batch against the
        coordinator's **pre-batch** graph (appends are write-ahead):
        per-shard authoritative labels for pre-existing remote targets
        (``touch`` policy), and per-*owner* new nodes that only
        remote-source edges introduce."""
        graph = self.graph
        shard_map = self.shard_map
        ghost_labels: dict[int, dict] = {}
        foreign: dict[int, dict] = {}
        for index, updates in tasks:
            for update in updates:
                if not update.is_insert:
                    continue
                target = update.target
                owner = shard_map.shard_of(target)
                if owner == index:
                    continue
                if graph.has_node(target):
                    if self.ghost_sync == "touch":
                        ghost_labels.setdefault(index, {})[target] = (
                            graph.label(target)
                        )
                else:
                    foreign.setdefault(owner, {}).setdefault(
                        target, update.target_label
                    )
        return ghost_labels, foreign

    def append(self, window, seq, participants, tasks, stable) -> None:
        """Scatter one batch's routed sub-deltas to their workers —
        pipelined, no reply awaited (``stable`` is the whole normalized
        batch, unused here but part of the append contract so policy
        subclasses can recompute routing)."""
        if self._broken:
            raise WorkerPoolError(
                "worker pool is broken; rebuild it (ShardWorkerPool."
                "install) before appending"
            )
        ghost_labels, foreign = self._ghost_shipments(tasks)
        touched = set()
        for index, updates in tasks:
            touched.add(index)
            self._send(
                index,
                WindowAppend(
                    window=window,
                    seq=seq,
                    participants=participants,
                    updates=tuple(updates),
                    ghost_labels=tuple(
                        sorted(ghost_labels.get(index, {}).items(), key=repr)
                    ),
                    foreign_targets=tuple(
                        sorted(foreign.get(index, {}).items(), key=repr)
                    ),
                ),
            )
        for owner, nodes in foreign.items():
            if owner in touched:
                continue  # shipped with the owner's own sub-delta
            self._send(
                owner,
                WindowAppend(  # replica-only: appends nothing to the log
                    window=window,
                    seq=seq,
                    participants=participants,
                    updates=(),
                    foreign_targets=tuple(sorted(nodes.items(), key=repr)),
                ),
            )

    def seal(self, window, touched, participants) -> WindowReport:
        """Gather the window: every touched worker seals (fsync) and
        acknowledges; raises :class:`WorkerPoolError` — leaving the
        window torn — if any participant fails.  Merges the workers'
        fragments and costs into :attr:`last_window_report`."""
        for index in touched:
            self._send(index, SealWindow(window=window, participants=participants))
        fragments: dict[str, int] = {}
        per_shard: dict[int, dict] = {}
        last_seq = 0
        for index in touched:
            ack = self._recv(index)
            if not isinstance(ack, SealAck) or ack.window != window:
                self._broken = True
                raise WorkerPoolError(
                    f"shard worker {index} acknowledged the wrong window "
                    f"({ack!r} for seal {window})"
                )
            last_seq = max(last_seq, ack.last_seq)
            for name, count in ack.fragments:
                fragments[name] = fragments.get(name, 0) + count
            per_shard[index] = dict(ack.cost)
        report = WindowReport(
            window=window,
            last_seq=last_seq,
            fragments=fragments,
            per_shard=per_shard,
        )
        self.last_window_report = report
        return report

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(self, graph) -> None:
        """Digest every worker replica against ``graph``'s hosting
        shards; raises :class:`WorkerPoolError` on any divergence.
        Drain-synchronous: a digest reply proves the worker processed
        every message before it, so this is also the barrier the tests
        use to await pipelined absorbs."""
        for index in range(len(self._pipes)):
            self._send(index, Digest())
        for index in range(len(self._pipes)):
            reply = self._recv(index)
            if not isinstance(reply, DigestReply):
                self._broken = True
                raise WorkerPoolError(
                    f"shard worker {index} sent {type(reply).__name__} "
                    "in place of a digest"
                )
            nodes, edges, checksum = replica_digest(graph.shard(index))
            if (reply.nodes, reply.edges, reply.checksum) != (
                nodes,
                edges,
                checksum,
            ):
                self._broken = True
                raise WorkerPoolError(
                    f"shard {index} replica diverged: worker holds "
                    f"{reply.nodes} nodes / {reply.edges} edges "
                    f"(checksum {reply.checksum}), coordinator holds "
                    f"{nodes} / {edges} (checksum {checksum})"
                )
