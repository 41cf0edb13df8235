"""Spans around the layers' public callables, recorded from outside.

The traced server calls :func:`install` before it builds anything; that
replaces each layer's public entry point with a wrapper that records
``(id, name, start, end, parent, op)`` into one in-memory list, dumped
as JSON when the server exits.  No file under ``src/`` is edited and an
untraced run never imports this module.

``parent`` is the enclosing span on the same thread (the frontend's
encode runs on the event-loop thread, the repository call it follows on
a pool thread, so those two are siblings matched by order, not parent
and child).  ``op`` is the id of the root span of the call tree.  A
span's *self time* is its duration minus its direct children's.
"""

from __future__ import annotations

import functools
import gc
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

#: Span name -> layer (module) it is accounted to.  ``os.fsync`` is
#: deliberately absent: it stays inside its caller's self time.
LAYER_OF = {
    "frontend.jsonable": "frontend",
    "Repository.session": "repository",
    "Repository.read": "repository",
    "Repository.apply": "repository",
    "Engine.apply": "engine",
    "FanOutScheduler.partition": "scheduler",
    "FanOutScheduler.dispatch": "scheduler",
    "route_updates": "sharding",
    "SegmentedDeltaLog.append": "deltalog",
    "SegmentedDeltaLog.seal_window": "deltalog",
    "SegmentedDeltaLog.compact": "deltalog",
    "SnapshotStore.save": "snapshot",
    "SnapshotStore.load": "snapshot",
    "SnapshotStore.compact_log": "snapshot",
    "split_snapshot_sections": "snapshot",
    "expand_packed_lines": "snapshot",
    "ShardWorkerPool.seal": "shardexec",
}

VIEWS = ("kws", "rpq", "scc", "iso", "tri")


def layer_of(name: str) -> Optional[str]:
    if name.startswith(("view.", "query.")):
        return "view." + name.split(".")[1]
    return LAYER_OF.get(name)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, Optional[int], int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.per_span_us = 0.0

    def traced(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = getattr(local, "current", None)
            span_id = next(ids)
            if parent is None:
                local.op = span_id
            local.current = span_id
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((span_id, name, start, clock(), parent, local.op))
                local.current = parent

        return wrapper

    def patch(self, owner: Any, attribute: str, name: str) -> None:
        setattr(owner, attribute, self.traced(name, getattr(owner, attribute)))

    def calibrate(self, rounds: int = 20000) -> None:
        """Cost of one span (us), from an empty traced call; the traced
        run's overhead estimate is spans x this."""
        probe = self.traced("calibrate", lambda: None)
        start = time.perf_counter()
        for _ in range(rounds):
            probe()
        traced = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(rounds):
            (lambda: None)()
        self.per_span_us = max(0.0, traced - (time.perf_counter() - start)) / rounds * 1e6
        self.spans.clear()

    def dump(self) -> dict[str, Any]:
        return {"per_span_us": self.per_span_us, "spans": self.spans}


def install() -> Tracer:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.persist.deltalog as deltalog
    import repro.persist.snapshot as snapshot
    import repro.serving.frontend as frontend
    from repro.dataflow import DataflowView
    from repro.engine.scheduler import FanOutScheduler
    from repro.engine.session import Engine
    from repro.iso import ISOIndex
    from repro.kws import KWSIndex
    from repro.rpq import RPQIndex
    from repro.scc import SCCIndex
    from repro.serving.repository import ReadSession, Repository
    from repro.shardexec import ShardWorkerPool

    tracer = Tracer()
    tracer.calibrate()
    patch = tracer.patch
    patch(Repository, "session", "Repository.session")
    # one-shot and pinned reads are one layer boundary
    patch(Repository, "read_latest", "Repository.read")
    patch(ReadSession, "read", "Repository.read")
    patch(Repository, "apply", "Repository.apply")
    patch(Engine, "apply", "Engine.apply")
    patch(FanOutScheduler, "partition", "FanOutScheduler.partition")
    patch(FanOutScheduler, "dispatch", "FanOutScheduler.dispatch")
    for view, index in zip(
        VIEWS, (KWSIndex, RPQIndex, SCCIndex, ISOIndex, DataflowView)
    ):
        patch(index, "absorb", f"view.{view}.absorb")
    patch(deltalog, "route_updates", "route_updates")
    patch(deltalog.SegmentedDeltaLog, "append", "SegmentedDeltaLog.append")
    patch(deltalog.SegmentedDeltaLog, "seal_window", "SegmentedDeltaLog.seal_window")
    patch(deltalog.SegmentedDeltaLog, "compact", "SegmentedDeltaLog.compact")
    patch(deltalog.SegmentedDeltaLog, "compact_segment", "SegmentedDeltaLog.compact")
    patch(snapshot.SnapshotStore, "save", "SnapshotStore.save")
    patch(snapshot.SnapshotStore, "load", "SnapshotStore.load")
    patch(snapshot.SnapshotStore, "compact_log", "SnapshotStore.compact_log")
    patch(snapshot, "split_snapshot_sections", "split_snapshot_sections")
    patch(snapshot, "expand_packed_lines", "expand_packed_lines")
    patch(ShardWorkerPool, "seal", "ShardWorkerPool.seal")
    patch(os, "fsync", "os.fsync")

    # jsonable recurses through its module global; un-patching it for
    # the duration of the outermost call keeps one span per reply and
    # no wrapper cost per element.  Safe without a lock: the frontend
    # encodes only on the event-loop thread, with no await inside.
    encode = frontend.jsonable

    def outer_jsonable(value: Any) -> Any:
        frontend.jsonable = encode
        try:
            return encode(value)
        finally:
            frontend.jsonable = traced_jsonable

    traced_jsonable = tracer.traced("frontend.jsonable", outer_jsonable)
    frontend.jsonable = traced_jsonable

    # the interpreter's own stop-the-world work: one span per collection
    # (a collection runs on whichever thread tripped it, inside whatever
    # span that thread is in; it is reported as its own layer and not
    # subtracted from its host)
    started = [0.0]

    def on_collection(phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            tracer.spans.append(
                (
                    next(tracer._ids),
                    f"gc.gen{info['generation']}",
                    started[0],
                    time.perf_counter(),
                    None,
                    0,
                )
            )

    gc.callbacks.append(on_collection)
    return tracer


# ----------------------------------------------------------------------
# Reading a dump
# ----------------------------------------------------------------------


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class SpanTable:
    """The spans of one dump that started inside ``[start, end]``."""

    def __init__(self, dump: dict[str, Any], start: float, end: float) -> None:
        self.per_span_us: float = dump["per_span_us"]
        self.rows = [row for row in dump["spans"] if start <= row[2] <= end]
        self.wall = end - start
        self.by_name: dict[str, list[list[Any]]] = defaultdict(list)
        self.children: dict[int, list[list[Any]]] = defaultdict(list)
        for row in self.rows:
            self.by_name[row[1]].append(row)
            if row[4] is not None:
                self.children[row[4]].append(row)

    @staticmethod
    def duration(row: list[Any]) -> float:
        return row[3] - row[2]

    def durations_ms(self, name: str) -> list[float]:
        return [self.duration(row) * 1e3 for row in self.by_name[name]]

    def self_time(self, row: list[Any]) -> float:
        covered = sum(
            self.duration(child)
            for child in self.children[row[0]]
            if child[1] != "os.fsync"
        )
        return self.duration(row) - covered

    def child(self, row: list[Any], name: str) -> Optional[list[Any]]:
        for candidate in self.children[row[0]]:
            if candidate[1] == name:
                return candidate
        return None

    def has_descendant(self, row: list[Any], name: str) -> bool:
        stack = list(self.children[row[0]])
        while stack:
            candidate = stack.pop()
            if candidate[1] == name:
                return True
            stack.extend(self.children[candidate[0]])
        return False

    def layer_self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for row in self.rows:
            layer = layer_of(row[1])
            if layer is not None:
                totals[layer] += self.self_time(row)
        return totals
