"""The fan-out scheduler: relevance routing, executor strategy, dirty
accounting.

:class:`~repro.engine.session.Engine.apply` used to hand the entire
normalized batch to every registered view.  The scheduler refines that
hottest path in three ways:

* **Relevance routing** — each view may expose a ``relevance()`` hook
  returning a :class:`~repro.engine.relevance.DeltaFilter`;
  :meth:`FanOutScheduler.partition` evaluates every filter in **one
  pass** over the batch, *before* ``G ⊕ ΔG``, and builds each view's
  sub-delta (original update order preserved) plus the subset of
  brand-new nodes the view must see (nodes it asked for via
  ``wants_node``, plus endpoints of its delivered updates).  A view whose sub-delta and new-node subset are
  both empty is *skipped*: its ``absorb`` is never called and its
  per-batch cost is exactly zero.  Views without a filter — or with
  :class:`~repro.engine.relevance.SubscribeAll` — receive the full
  batch (the topology-only escape hatch).
* **Executor strategy** — absorbs always run in registration order on
  the caller's thread: a view repairs auxiliary state that lives in the
  engine's address space, and pure-Python absorbs neither overlap under
  the GIL nor survive a pickling round-trip cheaper than the repair
  itself.  What the strategy decides is **where the journal is
  written**: ``"serial"`` (default) appends and fsyncs every touched
  segment of a :class:`~repro.persist.deltalog.SegmentedDeltaLog` in
  the caller, per batch; ``"workers"`` is the resident shared-nothing
  tier (:mod:`repro.shardexec`) — one long-lived process per shard
  owns that shard's log segment and nothing else, appends pipeline
  across batches under group-commit windows (format v4), and
  durability is acknowledged per sealed window instead of per batch.
  Where worker processes cannot start, ``workers`` degrades to
  in-process windowed appends — same framing, same durability rules.
  Pick one per engine via ``Engine(executor=...)`` or process-wide via
  the ``REPRO_ENGINE_EXECUTOR`` environment variable;
  :func:`resolve_executor` is the one place either is read, and an
  unknown value raises :class:`SchedulerError` naming the accepted
  strategies.  Every :class:`ViewReport` carries wall-clock
  ``wall_seconds`` alongside its
  :class:`~repro.core.cost.CostSnapshot` units.  See
  ``docs/OPERATIONS.md`` §2 for when each strategy wins.
* **Dirty accounting** — the dispatch result says which views absorbed a
  non-empty delivery; the engine folds that into its dirty set, which is
  what lets :meth:`repro.persist.SnapshotStore.save` with
  ``incremental=True`` rewrite only the view sections that actually
  changed since the last snapshot.

>>> from repro import DiGraph, Engine, insert
>>> from repro.kws import KWSIndex, KWSQuery
>>> from repro.scc import SCCIndex
>>> g = DiGraph(labels={1: "a", 2: "b", 3: "c", 4: "c"}, edges=[(1, 2)])
>>> engine = Engine(g)   # routing on by default
>>> _ = engine.register("kws", lambda g, m: KWSIndex(g, KWSQuery(("a",), 2), meter=m))
>>> _ = engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
>>> report = engine.apply([insert(3, 4)])  # no keyword can reach through c→c
>>> report.views["kws"].skipped, report.cost("kws").total()
(True, 0)
>>> report.views["scc"].skipped          # SCC subscribes to all edges
False
"""

from __future__ import annotations

import os
import time
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.cost import CostMeter, CostSnapshot
from repro.core.delta import Delta, Update
from repro.engine.relevance import DeltaFilter, SubscribeAll
from repro.engine.view import IncrementalView
from repro.graph.digraph import DiGraph, Label, Node

__all__ = [
    "EXECUTOR_ENV",
    "EXECUTOR_STRATEGIES",
    "FanOutScheduler",
    "RouteStats",
    "Routing",
    "SchedulerError",
    "ViewReport",
    "resolve_executor",
]

#: Environment variable selecting the default executor strategy.
EXECUTOR_ENV = "REPRO_ENGINE_EXECUTOR"

#: Accepted executor strategy names.  Absorbs run on the caller's
#: thread under both; the strategy decides where a segmented journal is
#: written — in the caller with an fsync per batch (``serial``), or by
#: the resident per-shard worker processes of :mod:`repro.shardexec`
#: under group-commit windows (``workers``).
EXECUTOR_STRATEGIES = ("serial", "workers")

_ZERO_COST = CostSnapshot(
    node_visits=0, distinct_nodes=0, edges_traversed=0, writes=0, pq_ops=0
)


class SchedulerError(RuntimeError):
    """Invalid scheduler configuration."""


@dataclass(frozen=True)
class ViewReport:
    """One view's contribution to a batch: its ΔO and the work it cost.

    ``skipped`` views were routed an empty sub-delta and never ran;
    their ``cost`` is exactly zero and ``output`` is the view's empty ΔO
    (``None`` for views that do not implement ``empty_output``).
    ``routed_updates`` counts the unit updates actually delivered, and
    ``wall_seconds`` is the wall-clock time ``absorb`` took (0.0 when
    skipped).
    """

    name: str
    output: Any
    cost: CostSnapshot
    wall_seconds: float = 0.0
    skipped: bool = False
    routed_updates: int = 0

    @property
    def changed(self) -> bool:
        """Did this batch deliver anything to the view — i.e. may its
        auxiliary state (and therefore its answer) differ from before
        the batch?  Exactly the complement of ``skipped``: a routed
        view absorbed a non-empty sub-delta or a relevant new node,
        either of which can move the answer.  This is the signal the
        engine's dirty accounting and the serving layer's
        cache-invalidation (:mod:`repro.serving.repository`) both key
        off."""
        return not self.skipped


@dataclass
class RouteStats:
    """Cumulative routing counters for one view across a session."""

    batches_routed: int = 0
    batches_skipped: int = 0
    updates_delivered: int = 0


@dataclass(frozen=True)
class _Dispatch:
    """One view's routing decision for one batch."""

    name: str
    view: Optional[IncrementalView]
    meter: Optional[CostMeter]
    delta: Delta
    new_nodes: frozenset[Node]
    skipped: bool


@dataclass(frozen=True)
class Routing:
    """One batch's routing decision, made once before ``G ⊕ ΔG``: the
    batch's brand-new nodes and every view's dispatch, in registration
    order."""

    new_nodes: frozenset[Node]
    plans: list[_Dispatch]

    def routed(self) -> tuple[str, ...]:
        """Names of the views the batch is delivered to (not skipped)."""
        return tuple(plan.name for plan in self.plans if not plan.skipped)


def resolve_executor(executor: Optional[str]) -> str:
    """The strategy in effect: the explicit name, else the
    :data:`EXECUTOR_ENV` environment variable, else ``serial``.  The
    engine's scheduler and the segmented delta log both resolve through
    here, so an unknown name fails the same way wherever it enters."""
    if executor is None:
        executor = os.environ.get(EXECUTOR_ENV) or "serial"
    if executor not in EXECUTOR_STRATEGIES:
        raise SchedulerError(
            f"unknown executor strategy {executor!r}; expected one of "
            f"{EXECUTOR_STRATEGIES} (set via Engine(executor=...) or the "
            f"{EXECUTOR_ENV} environment variable)"
        )
    return executor


class FanOutScheduler:
    """Routes one normalized batch to many views and dispatches absorbs."""

    def __init__(self, executor: Optional[str] = None) -> None:
        self.executor = resolve_executor(executor)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def partition(
        self,
        delta: Delta,
        graph: DiGraph,
        views: Mapping[str, Optional[IncrementalView]],
        meters: Mapping[str, CostMeter],
        filters: Mapping[str, Optional[DeltaFilter]],
    ) -> Routing:
        """Pre-partition ``delta`` once, *before* ``G ⊕ ΔG``: each
        filtered view gets the sub-delta its filter wants (original
        order preserved); broadcast views (filter ``None``) get the
        full batch.

        Endpoints already in ``graph`` resolve their labels through it
        (updates never relabel); a brand-new endpoint takes the label
        of its first declaring insert — the label
        :meth:`~repro.graph.digraph.DiGraph.add_edge` will stamp.  The
        batch's new nodes are derived here too.  On the replay path
        (:meth:`~repro.engine.session.Engine.deliver`) the graph
        already holds the batch, so no endpoint is new.
        """
        new_labels = delta.new_nodes(graph)
        new_nodes = frozenset(new_labels)
        graph_label = graph.label

        def label_of(node: Node) -> Label:
            return new_labels[node] if node in new_labels else graph_label(node)

        # SubscribeAll wants every update by definition; route it down
        # the broadcast path so the batch is never copied per view.
        filtered = [
            (name, flt)
            for name, flt in filters.items()
            if flt is not None and not isinstance(flt, SubscribeAll)
        ]
        wanted: dict[str, list[Update]] = {name: [] for name, _ in filtered}
        touched: dict[str, set[Node]] = {name: set() for name, _ in filtered}
        if filtered and delta:
            for update in delta:
                source_label = label_of(update.source)
                target_label = label_of(update.target)
                for name, flt in filtered:
                    if flt.wants_update(update, source_label, target_label):
                        wanted[name].append(update)
                        if new_nodes:
                            touch = touched[name]
                            touch.add(update.source)
                            touch.add(update.target)

        plans: list[_Dispatch] = []
        for name, view in views.items():
            flt = filters.get(name)
            if flt is None or isinstance(flt, SubscribeAll):
                sub_delta, sub_new = delta, new_nodes
            else:
                sub_delta = Delta(wanted[name])
                if new_nodes:
                    keep = touched[name]
                    sub_new = frozenset(
                        node
                        for node in new_nodes
                        if node in keep or flt.wants_node(node, new_labels[node])
                    )
                else:
                    sub_new = new_nodes
            skipped = not sub_delta and not sub_new
            plans.append(
                _Dispatch(name, view, meters[name], sub_delta, sub_new, skipped)
            )
        return Routing(new_nodes, plans)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def dispatch(self, routing: Routing) -> dict[str, ViewReport]:
        """Run every non-skipped plan's absorb, in registration order on
        the caller's thread, and assemble the per-view reports."""
        reports: dict[str, ViewReport] = {}
        for plan in routing.plans:
            if plan.skipped:
                empty = getattr(plan.view, "empty_output", None)
                reports[plan.name] = ViewReport(
                    name=plan.name,
                    output=empty() if empty is not None else None,
                    cost=_ZERO_COST,
                    wall_seconds=0.0,
                    skipped=True,
                    routed_updates=0,
                )
            else:
                reports[plan.name] = self._run_one(plan)
        return reports

    @staticmethod
    def _run_one(plan: _Dispatch) -> ViewReport:
        meter = plan.meter
        before = meter.snapshot()
        started = time.perf_counter()
        output = plan.view.absorb(plan.delta, plan.new_nodes)
        wall = time.perf_counter() - started
        return ViewReport(
            name=plan.name,
            output=output,
            cost=meter.snapshot().since(before),
            wall_seconds=wall,
            skipped=False,
            routed_updates=len(plan.delta),
        )
