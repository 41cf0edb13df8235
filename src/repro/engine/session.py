"""The incremental engine: one authoritative graph, many maintained views.

The paper's central promise is that a single stream of updates ΔG can
maintain *many* query answers with bounded / localizable work.  The
:class:`Engine` realizes that promise architecturally:

* it owns the single authoritative :class:`~repro.graph.digraph.DiGraph`;
* views (:class:`~repro.engine.view.IncrementalView` implementations —
  KWS, RPQ, SCC, ISO indexes) register against it and share that graph
  object instead of each owning a copy;
* :meth:`Engine.apply` validates and normalizes an incoming
  :class:`~repro.core.delta.Delta` **once**, has the
  :class:`~repro.engine.scheduler.FanOutScheduler` *route* it **once**
  before anything mutates — each view's :meth:`relevance` filter (see
  :mod:`repro.engine.relevance`) selects the sub-delta that can actually
  affect its answer, and views routed an empty sub-delta are skipped at
  zero cost — tells the route listeners which views the batch will
  change, applies ``G ⊕ ΔG`` to the shared graph **once**, and runs the
  remaining absorbs in registration order, collecting each view's ΔO,
  cost units, and wall-clock into one :class:`EngineReport`;
* :meth:`Engine.checkpoint` / :meth:`Engine.rollback` undo applied
  batches through :meth:`Delta.inverted`, repairing every view along the
  way — no view ever needs to be rebuilt;
* view lifecycle: :meth:`Engine.deregister` detaches a view, and
  ``register(..., build="on_first_apply")`` defers the from-scratch build
  until the view is first needed — so a restored session can declare many
  standing queries and pay for each only when it is actually driven;
* :meth:`Engine.set_journal` attaches a write-ahead log
  (:class:`repro.persist.SegmentedDeltaLog`); every applied batch — and every
  rollback's undo batch — is appended before ``G ⊕ ΔG`` (write-ahead),
  which is what makes snapshot-plus-replay recovery (:class:`repro.persist.
  SnapshotStore`) possible.

Example — two views maintained by one update stream:

    >>> from repro import Delta, DiGraph, Engine, delete, insert
    >>> from repro.scc import SCCIndex
    >>> from repro.kws import KWSIndex, KWSQuery
    >>> graph = DiGraph(labels={1: "a", 2: "b", 3: "c"},
    ...                 edges=[(1, 2), (2, 3), (3, 1)])
    >>> engine = Engine(graph)
    >>> scc = engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    >>> query = KWSQuery(("a", "b"), bound=2)
    >>> kws = engine.register("kws", lambda g, m: KWSIndex(g, query, meter=m))
    >>> report = engine.apply(Delta([delete(3, 1)]))   # one G ⊕ ΔG, both repaired
    >>> sorted(len(c) for c in scc.components())
    [1, 1, 1]
    >>> report.cost("scc").total() > 0
    True
    >>> _ = engine.rollback()                          # undo via Delta.inverted()
    >>> sorted(len(c) for c in scc.components())
    [3]

``IncrementalSession`` is an alias for :class:`Engine` — "session"
emphasizes the checkpoint/rollback lifecycle, "engine" the fan-out.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.core.cost import CostMeter, CostSnapshot, NULL_METER
from repro.core.delta import Delta, Update, concat, delete, insert
from repro.engine.relevance import DeltaFilter
from repro.engine.scheduler import FanOutScheduler, RouteStats, Routing, ViewReport
from repro.engine.view import IncrementalView
from repro.graph.digraph import DiGraph, Label, Node

ViewFactory = Callable[[DiGraph, CostMeter], IncrementalView]

#: Accepted ``build=`` modes for :meth:`Engine.register`.
BUILD_MODES = ("eager", "on_first_apply")


class EngineError(RuntimeError):
    """A view registration or session operation is invalid."""


class AutosnapshotError(RuntimeError):
    """The auto-snapshot hook failed *after* the batch fully succeeded.

    By the time the hook runs, ``G ⊕ ΔG`` is applied, every view has
    absorbed its delivery, and the batch is journaled — the session is
    consistent and the batch is NOT rolled back.  Only the snapshot
    write failed (e.g. disk full); the write-ahead log still covers the
    batch, so durability is degraded to log replay, not lost.  The
    batch's :class:`EngineReport` is carried on :attr:`report`; catch
    this error, consume the report, and keep streaming — the policy
    will retry the snapshot on a later batch.
    """

    def __init__(self, report: "EngineReport", cause: BaseException) -> None:
        super().__init__(
            f"auto-snapshot hook failed after the batch was applied and "
            f"journaled: {cause}"
        )
        #: The successfully applied batch's report.
        self.report = report


@dataclass(frozen=True)
class EngineReport:
    """Combined result of one ``engine.apply``: ΔG in, every view's ΔO out.

    Every registered view appears exactly once, including views the
    relevance router *skipped* for this batch — their
    :class:`~repro.engine.scheduler.ViewReport` carries the view's empty
    ΔO and an all-zero :class:`~repro.core.cost.CostSnapshot` (never a
    stale cumulative meter reading; in particular a view materialized
    lazily during this ``apply`` and then skipped reports zero, not its
    from-scratch build cost).

    ``seq`` is the write-ahead log sequence number the attached journal
    assigned this batch (``None`` when the session is not journaling, or
    the journal's ``append`` does not return one) — the stable identity
    persistence uses for per-view replay cursors and log compaction.
    """

    delta: Delta
    new_nodes: frozenset[Node]
    views: dict[str, ViewReport] = field(default_factory=dict)
    seq: Optional[int] = None

    def output(self, name: str) -> Any:
        """The named view's ΔO for this batch."""
        return self.views[name].output

    def cost(self, name: str) -> CostSnapshot:
        """The named view's cost for this batch."""
        return self.views[name].cost

    def total_cost(self) -> int:
        """Summed work across all views (one scalar per batch); skipped
        views contribute exactly zero."""
        return sum(report.cost.total() for report in self.views.values())

    def skipped(self, name: str) -> bool:
        """Was the named view skipped by relevance routing this batch?"""
        return self.views[name].skipped

    def wall_seconds(self) -> float:
        """Summed wall-clock across all view absorbs (or rebuilds, for
        :meth:`Engine.bulk_load`).  Absorbs run one after another on
        the caller's thread, so this is the fan-out's own duration."""
        return sum(report.wall_seconds for report in self.views.values())

    def __iter__(self):
        return iter(self.views.values())


class Engine:
    """One authoritative graph with registered incremental views.

    See the module docstring for the architecture; the class itself is a
    thin, deterministic coordinator — all the incremental cleverness lives
    in the views.
    """

    def __init__(
        self,
        graph: Optional[DiGraph] = None,
        executor: Optional[str] = None,
        routing: bool = True,
    ) -> None:
        self.graph = graph if graph is not None else DiGraph()
        #: Fan-out scheduler (see :mod:`repro.engine.scheduler`).
        #: ``executor`` is ``"serial"`` or ``"workers"``; ``None``
        #: reads the ``REPRO_ENGINE_EXECUTOR`` environment variable.
        self.scheduler = FanOutScheduler(executor)
        #: With ``routing=False`` every view receives the full batch
        #: (broadcast fan-out) — the pre-scheduler behavior, kept for
        #: benchmarking and for the routed≡broadcast equivalence tests.
        self.routing = routing
        self._views: dict[str, Optional[IncrementalView]] = {}
        self._meters: dict[str, CostMeter] = {}
        self._filters: dict[str, Optional[DeltaFilter]] = {}
        self._pending: dict[str, ViewFactory] = {}
        #: Factories retained from :meth:`register` (eager or lazy) —
        #: what lets :meth:`bulk_load` rebuild a view from scratch
        #: instead of streaming the import through ``absorb``.  Views
        #: adopted via :meth:`attach` have none and fall back to a
        #: routed delivery.
        self._factories: dict[str, ViewFactory] = {}
        self._history: list[Delta] = []
        #: View names whose auxiliary state changed since the last
        #: snapshot of this engine (see :meth:`dirty_views`).
        self._dirty: set[str] = set()
        #: Per-view cumulative meter totals recorded at the last full
        #: capture — the out-of-band-mutation tripwire (dirty_views()).
        self._clean_marks: dict[str, int] = {}
        self._snapshot_epoch = 0
        self._route_stats: dict[str, RouteStats] = {}
        self._autosnapshot: Optional[Callable[["Engine"], None]] = None
        #: Write-ahead log every applied batch is appended to (see
        #: :meth:`set_journal`); ``None`` disables journaling.
        self.journal = None
        #: Bumped whenever :meth:`set_journal` swaps the journal object —
        #: persistence's continuity tripwire (a store may only derive a
        #: graph diff from its own log if the engine journaled into that
        #: log, uninterrupted, since the store's previous capture).
        self._journal_epoch = 0
        #: Seq of the newest batch the attached journal acknowledged.
        self._last_journaled_seq: Optional[int] = None
        #: Publication hooks (see :meth:`add_apply_listener`): called
        #: with every :class:`EngineReport` the fan-out produces.
        self._apply_listeners: list[Callable[[EngineReport], None]] = []
        #: Route hooks (see :meth:`add_route_listener`): called with the
        #: routed view names of every write before anything mutates.
        self._route_listeners: list[Callable[[tuple[str, ...]], None]] = []

    # ------------------------------------------------------------------
    # View registration
    # ------------------------------------------------------------------

    def register(
        self, name: str, factory: ViewFactory, build: str = "eager"
    ) -> Optional[IncrementalView]:
        """Build a view over the shared graph and register it.

        ``factory(graph, meter)`` must construct the view *on that graph
        object* (not a copy); the engine supplies a dedicated
        :class:`CostMeter` so per-view cost accounting comes for free.

        With ``build="on_first_apply"`` the factory is *not* called yet:
        the name is reserved and the view is materialized lazily — by the
        next :meth:`apply`/:meth:`rollback` (before the graph mutates, so
        the build sees the pre-batch graph) or by the first
        :meth:`view`/:meth:`meter` access — and ``None`` is returned now.
        Restored sessions use this to declare many standing queries and
        pay the from-scratch build only for the ones actually driven.

        >>> from repro import DiGraph, Engine
        >>> from repro.scc import SCCIndex
        >>> engine = Engine(DiGraph(edges=[(1, 2)]))
        >>> engine.register("scc", lambda g, m: SCCIndex(g, meter=m),
        ...                 build="on_first_apply") is None
        True
        >>> "scc" in engine            # reserved, not yet built
        True
        >>> len(engine.view("scc").components())    # first access builds
        2
        """
        if build not in BUILD_MODES:
            raise EngineError(
                f"unknown build mode {build!r}; expected one of {BUILD_MODES}"
            )
        self._check_name_free(name)
        self._factories[name] = factory
        if build == "on_first_apply":
            self._views[name] = None
            self._pending[name] = factory
            self._dirty.add(name)  # never snapshotted yet
            self._route_stats.setdefault(name, RouteStats())
            return None
        meter = CostMeter()
        view = factory(self.graph, meter)
        return self._admit(name, view, meter)

    def deregister(self, name: str) -> Optional[IncrementalView]:
        """Detach the named view from the session and return it (``None``
        when the view was lazy and never built).

        The view stops receiving batches immediately; the graph and every
        other view are unaffected.  The name becomes free for re-use.

        >>> from repro import DiGraph, Engine
        >>> from repro.scc import SCCIndex
        >>> engine = Engine(DiGraph(edges=[(1, 2)]))
        >>> _ = engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
        >>> _ = engine.deregister("scc")
        >>> "scc" in engine
        False
        """
        if name not in self._views:
            raise EngineError(f"no view named {name!r} is registered")
        view = self._views.pop(name)
        self._meters.pop(name, None)
        self._filters.pop(name, None)
        self._pending.pop(name, None)
        self._factories.pop(name, None)
        self._dirty.discard(name)
        self._clean_marks.pop(name, None)
        self._route_stats.pop(name, None)
        return view

    def attach(self, name: str, view: IncrementalView) -> IncrementalView:
        """Register an already-constructed view.

        The view must have been built over the engine's graph object.  A
        view constructed with the default ``NULL_METER`` is given a real
        meter so its per-batch costs are still accounted.
        """
        self._check_name_free(name)
        meter = view.meter
        if meter is NULL_METER or not isinstance(meter, CostMeter):
            meter = CostMeter()
            view.meter = meter
        return self._admit(name, view, meter)

    def _admit(
        self, name: str, view: IncrementalView, meter: CostMeter
    ) -> IncrementalView:
        if getattr(view, "graph", None) is not self.graph:
            raise EngineError(
                f"view {name!r} was built over its own graph copy; engine views "
                "must share the session graph (pass the factory's graph argument "
                "to the index constructor)"
            )
        if not isinstance(view, IncrementalView):
            raise EngineError(
                f"view {name!r} does not implement the IncrementalView protocol "
                "(insert_edge / delete_edge / apply / absorb / snapshot / restore)"
            )
        self._views[name] = view
        self._meters[name] = meter
        # The optional relevance() hook opts the view into routed fan-out;
        # views without it are broadcast every batch (escape hatch).
        relevance = getattr(view, "relevance", None)
        self._filters[name] = relevance() if relevance is not None else None
        self._dirty.add(name)  # state not yet captured by any snapshot
        self._route_stats.setdefault(name, RouteStats())
        return view

    def _check_name_free(self, name: str) -> None:
        if name in self._views:
            raise EngineError(f"a view named {name!r} is already registered")

    def _materialize(self, name: str) -> IncrementalView:
        """Run a deferred factory now (``build="on_first_apply"``)."""
        factory = self._pending.pop(name)
        meter = CostMeter()
        view = factory(self.graph, meter)
        # _admit assigns over the reserved None slot, which keeps the
        # original registration order in self._views.
        return self._admit(name, view, meter)

    def _materialize_pending(self) -> None:
        for name in list(self._pending):
            self._materialize(name)

    def view(self, name: str) -> IncrementalView:
        """The named view, materializing it first if it is lazy."""
        if name in self._pending:
            return self._materialize(name)
        try:
            view = self._views[name]
        except KeyError:
            raise EngineError(f"no view named {name!r} is registered") from None
        return view

    def meter(self, name: str) -> CostMeter:
        """The named view's cumulative cost meter (across all batches)."""
        self.view(name)
        return self._meters[name]

    def names(self) -> list[str]:
        """Registered view names, in registration order."""
        return list(self._views)

    def relevance_filter(self, name: str) -> Optional[DeltaFilter]:
        """The cached relevance filter the named view registered with
        (``None`` for broadcast views, unknown names, or lazy views not
        yet materialized — all of which callers must treat as
        "subscribes to everything").  Never materializes a lazy view:
        consumers like relevance-aware log compaction only need the
        filter opportunistically, and a conservative ``None`` is always
        sound."""
        return self._filters.get(name)

    def __getitem__(self, name: str) -> IncrementalView:
        return self.view(name)

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def __len__(self) -> int:
        return len(self._views)

    # ------------------------------------------------------------------
    # The batching path: validate once, mutate once, fan out
    # ------------------------------------------------------------------

    def apply(self, delta: Union[Delta, Iterable[Update]]) -> EngineReport:
        """Apply ``G ⊕ ΔG`` once and repair every registered view.

        The batch is normalized (raising
        :class:`~repro.core.delta.InvalidDeltaError` on un-applicable net
        balances) and validated against the current graph *before* any
        mutation, so a bad batch leaves graph and views untouched.  Lazy
        views are materialized first (on the pre-batch graph), then the
        batch is routed and the route listeners run
        (:meth:`add_route_listener`).  When a journal is attached the
        routed batch is appended *before* the mutation — classic
        write-ahead ordering: a batch that cannot be journaled (e.g.
        non-serializable labels) fails with graph and views untouched,
        and the log can never lag a batch the session applied.

        >>> from repro import DiGraph, Engine, insert
        >>> from repro.scc import SCCIndex
        >>> engine = Engine(DiGraph(edges=[(1, 2)]))
        >>> _ = engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
        >>> report = engine.apply([insert(2, 1)])
        >>> gained, lost = report.output("scc")
        >>> gained == {frozenset({1, 2})}
        True
        """
        if not isinstance(delta, Delta):
            delta = Delta(list(delta))
        if not delta.is_normalized():
            delta = delta.normalized()
        return self._write(delta)

    def insert_edge(
        self,
        source: Node,
        target: Node,
        source_label: Label = "",
        target_label: Label = "",
    ) -> EngineReport:
        """Unit insertion through the session (a one-update batch)."""
        return self.apply(Delta([insert(source, target, source_label, target_label)]))

    def delete_edge(self, source: Node, target: Node) -> EngineReport:
        """Unit deletion through the session."""
        return self.apply(Delta([delete(source, target)]))

    def bulk_load(self, edges: Union[Delta, Iterable]) -> EngineReport:
        """Bulk-import edge insertions with view maintenance suspended.

        The import path for *getting big*: where :meth:`apply` pays
        per-batch absorb cost in every view, ``bulk_load`` applies the
        whole batch straight into the graph and then brings each
        registered view current **once** — rebuilding it from scratch
        through the factory retained at :meth:`register` (for a
        million-edge import, one from-scratch build is far cheaper than
        a million absorbed deliveries).  Views adopted via
        :meth:`attach` have no factory and fall back to a single routed
        delivery of the net batch; lazy views simply materialize over
        the imported graph.

        ``edges`` is a :class:`~repro.core.delta.Delta`, an iterable of
        insert :class:`~repro.core.delta.Update`\\ s, or an iterable of
        ``(source, target)`` / ``(source, target, source_label,
        target_label)`` tuples.  Deletions are refused — they belong to
        the maintenance stream, not the import path.

        Durability matches :meth:`apply`: the whole import is journaled
        write-ahead as **one** batch, and a windowed (format v4) journal
        is sealed immediately after — one logical group-commit window —
        so recovery replays the import atomically: all of it (sealed
        window) or none of it (torn window discarded whole).  The
        import joins the rollback history as one batch, publishes one
        :class:`EngineReport` to apply listeners, and drives the
        auto-snapshot hook, exactly like an applied batch.

        >>> from repro import DiGraph, Engine
        >>> from repro.scc import SCCIndex
        >>> engine = Engine(DiGraph())
        >>> _ = engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
        >>> report = engine.bulk_load([(1, 2), (2, 1), (2, 3)])
        >>> len(report.delta), engine["scc"].components() >= {frozenset({1, 2})}
        (3, True)
        """
        updates = []
        for item in (edges if isinstance(edges, Delta) else list(edges)):
            if isinstance(item, Update):
                if not item.is_insert:
                    raise EngineError(
                        "bulk_load imports insertions only; deletions go "
                        "through apply()"
                    )
                updates.append(item)
            else:
                source, target, *labels = item
                updates.append(insert(source, target, *labels))
        delta = Delta(updates)
        if not delta.is_normalized():
            delta = delta.normalized()
        return self._write(delta, rebuild=True)

    def _write(
        self,
        delta: Delta,
        rebuild: bool = False,
        checkpoint: Optional[int] = None,
    ) -> EngineReport:
        """The one write path :meth:`apply`, :meth:`rollback` and
        :meth:`bulk_load` share: validate → materialize → plan → route
        hook → journal append → ``G ⊕ ΔG`` → dispatch (or rebuild) →
        publish → history → autosnapshot.

        The batch is routed once, before anything mutates, and the route
        listeners (:meth:`add_route_listener`) see that decision ahead of
        the journal append — so a validation, build, routing or listener
        failure leaves log, graph and views untouched.  ``rebuild``
        (:meth:`bulk_load`) rebuilds every view with a retained factory
        over the imported graph and routes the batch only to the views
        :meth:`attach` adopted.  ``checkpoint`` (:meth:`rollback`)
        truncates the history to that mark instead of appending, and an
        empty undo batch is not journaled."""
        # before materializing: a bad batch stays free
        delta.check_applicable(self.graph)
        if rebuild:
            # lazy views build over the imported graph in _rebuild_views
            fallback = [name for name in self._views if name not in self._factories]
            routing = self._route(delta, fallback)
            routed = routing.routed()
            changed = tuple(
                name
                for name in self._views
                if name in self._factories or name in routed
            )
        else:
            self._materialize_pending()
            routing = self._route(delta, self._views)
            changed = routing.routed()
        for listener in tuple(self._route_listeners):
            listener(changed)
        seq = None
        if self.journal is not None and (delta or checkpoint is None):
            seq = self.journal.append(delta)  # write-ahead
            if rebuild:
                flush = getattr(self.journal, "flush", None)
                if flush is not None:
                    # Seal right away: the import is one logical window,
                    # admitted (or discarded) atomically on recovery.
                    flush()
        delta.apply_to(self.graph)  # the single G ⊕ ΔG
        if rebuild:
            views = self._rebuild_views(delta)
            views.update(self.scheduler.dispatch(routing))
        else:
            views = self.scheduler.dispatch(routing)
        self._record_reports(views)
        if seq is not None:
            self._last_journaled_seq = seq
        report = EngineReport(
            delta=delta, new_nodes=routing.new_nodes, views=views, seq=seq
        )
        for apply_listener in tuple(self._apply_listeners):
            apply_listener(report)
        if checkpoint is None:
            self._history.append(delta)
        else:
            del self._history[checkpoint:]
        if self._autosnapshot is not None:
            try:
                self._autosnapshot(self)
            except Exception as exc:
                # The batch itself succeeded (applied + absorbed +
                # journaled); surface the snapshot failure distinctly so
                # the caller neither mistakes it for a failed batch nor
                # loses the report.
                raise AutosnapshotError(report, exc) from exc
        return report

    def _route(self, delta: Delta, names: Iterable[str]) -> Routing:
        """Plan ``delta`` for the named views against the current graph
        (``routing=False`` broadcasts to every one of them)."""
        views = {name: self._views[name] for name in names}
        filters = {
            name: self._filters[name] if self.routing else None for name in views
        }
        return self.scheduler.partition(
            delta, self.graph, views, self._meters, filters
        )

    def _rebuild_views(self, delta: Delta) -> dict[str, ViewReport]:
        """Bring every view with a retained factory current after a bulk
        import: rebuild it from scratch over the imported graph, or
        materialize it if it is lazy (its first build already sees the
        import).  Views :meth:`attach` adopted are left to the routed
        delivery."""
        reports: dict[str, ViewReport] = {}
        for name in self.names():
            factory = self._factories.get(name)
            if factory is None:
                continue
            started = time.perf_counter()
            if name in self._pending:
                view = self._materialize(name)
                cost = self._meters[name].snapshot()
            else:
                meter = self._meters[name]
                before = meter.snapshot()
                view = self._admit(name, factory(self.graph, meter), meter)
                cost = meter.snapshot().since(before)
            empty = getattr(view, "empty_output", None)
            reports[name] = ViewReport(
                name=name,
                output=empty() if empty is not None else None,
                cost=cost,
                wall_seconds=time.perf_counter() - started,
                skipped=False,
                routed_updates=len(delta),
            )
        return reports

    def _record_reports(self, reports: dict[str, ViewReport]) -> None:
        """Fold one dispatch's reports into routing stats + dirty set
        (shared by the apply fan-out and the replay :meth:`deliver`)."""
        for report in reports.values():
            stats = self._route_stats[report.name]
            if report.changed:
                stats.batches_routed += 1
                stats.updates_delivered += report.routed_updates
                self._dirty.add(report.name)
            else:
                stats.batches_skipped += 1

    # ------------------------------------------------------------------
    # Checkpoint / rollback (Delta.inverted)
    # ------------------------------------------------------------------

    @property
    def applied_count(self) -> int:
        """Number of batches applied (and not rolled back) so far."""
        return len(self._history)

    def checkpoint(self) -> int:
        """Mark the current state; pass the mark to :meth:`rollback`."""
        return len(self._history)

    def rollback(self, checkpoint: int = 0) -> EngineReport:
        """Undo every batch applied since ``checkpoint``.

        The undo is the concatenation of the inverted batches in reverse
        order, normalized (so an edge inserted then deleted across the
        window cancels) and pushed through the same write path as
        :meth:`apply` — every view repairs incrementally, nothing is
        rebuilt.  Nodes introduced by rolled-back batches stay in the
        graph as isolated nodes (edge deletion never removes endpoints).
        """
        if not 0 <= checkpoint <= len(self._history):
            raise EngineError(
                f"checkpoint {checkpoint} is out of range "
                f"(0..{len(self._history)})"
            )
        undo = concat(
            batch.inverted() for batch in reversed(self._history[checkpoint:])
        ).normalized()
        return self._write(undo, checkpoint=checkpoint)

    # ------------------------------------------------------------------
    # Replay delivery (persistence recovery path)
    # ------------------------------------------------------------------

    def deliver(
        self,
        delta: Union[Delta, Iterable[Update]],
        names: Iterable[str],
        strict: bool = False,
    ) -> dict[str, ViewReport]:
        """Route ``delta`` to the named views **without mutating the
        graph** — the per-view replay path of
        :meth:`repro.persist.SnapshotStore.load`.

        The graph must already contain the batch's effects: recovery
        uses this to bring a view whose snapshot section was serialized
        at an older log seq (its *replay cursor*) up to date on log
        entries the restored graph already absorbed.  Each named view's
        relevance filter decides, update by update, whether anything
        must actually be absorbed; under the snapshot writer's cursor
        invariant (a section is only carried forward while the view
        stays clean) every such delivery routes empty.

        With ``strict=True`` a delivery that routes a *non-empty*
        sub-delta to any view raises :class:`EngineError` **before any
        view absorbs anything** — the snapshot's cursor claimed the view
        was current through these entries, so routed work means the
        snapshot and log disagree.  Deliveries are not journaled and do
        not join the rollback history (the graph never changed).
        """
        if not isinstance(delta, Delta):
            delta = Delta(list(delta))
        views: dict[str, Optional[IncrementalView]] = {}
        filters: dict[str, Optional[DeltaFilter]] = {}
        for name in names:
            views[name] = self.view(name)  # materializes lazy views
            filters[name] = self._filters[name]
        routing = self.scheduler.partition(
            delta, self.graph, views, self._meters, filters
        )
        if strict:
            routed = list(routing.routed())
            if routed:
                raise EngineError(
                    f"replay delivery routed updates to views {routed!r} whose "
                    "snapshot cursor claimed they were already current — the "
                    "snapshot and delta log disagree"
                )
        reports = self.scheduler.dispatch(routing)
        self._record_reports(reports)
        return reports

    # ------------------------------------------------------------------
    # Routing and dirty-set accounting (see repro.engine.scheduler)
    # ------------------------------------------------------------------

    def routing_stats(self) -> dict[str, RouteStats]:
        """Cumulative per-view routing counters: batches delivered vs.
        skipped by relevance routing, and unit updates delivered.

        >>> from repro import DiGraph, Engine, insert
        >>> from repro.scc import SCCIndex
        >>> engine = Engine(DiGraph(labels={1: "a", 2: "b"}, edges=[(1, 2)]))
        >>> _ = engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
        >>> _ = engine.apply([insert(2, 1)])
        >>> engine.routing_stats()["scc"].batches_routed
        1
        """
        return dict(self._route_stats)

    def dirty_views(self) -> frozenset[str]:
        """Names of views whose auxiliary state may have changed since
        the last snapshot of this engine.

        A view is dirty from registration (no snapshot holds it yet) and
        whenever it absorbs a non-empty routed delivery — through
        :meth:`apply` or :meth:`rollback`.  Views skipped by relevance
        routing stay clean, which is what lets
        :meth:`repro.persist.SnapshotStore.save` with
        ``incremental=True`` carry their sections forward instead of
        re-serializing them.

        Views can also be mutated *outside* the fan-out — e.g.
        :func:`repro.kws.snapshot.extend_bound` widens an index in
        place.  Every built-in mutation path ticks the view's
        :class:`~repro.core.cost.CostMeter`, so a view whose cumulative
        meter moved since the last capture is reported dirty too (the
        tripwire errs toward re-serializing — a meter that moved on
        reads merely costs a fresh section, never a stale one).  Code
        that mutates a view without touching its meter must call
        :meth:`mark_views_dirty`.
        """
        dirty = set(self._dirty)
        for name, meter in self._meters.items():
            if name in dirty:
                continue
            if self._clean_marks.get(name) != meter.total():
                dirty.add(name)
        return frozenset(dirty)

    def mark_views_dirty(self, names: Iterable[str]) -> None:
        """Explicitly flag views as changed — the escape hatch for code
        that mutates a view's auxiliary state outside the fan-out
        without ticking its cost meter."""
        for name in names:
            if name not in self._views:
                raise EngineError(f"no view named {name!r} is registered")
            self._dirty.add(name)

    def mark_views_clean(self, names: Optional[Iterable[str]] = None) -> None:
        """Clear the dirty flag (all views, or just ``names``) — called
        by :meth:`repro.persist.SnapshotStore.save` once a snapshot has
        durably captured the current view state.

        A full clean (``names=None``) advances :attr:`snapshot_epoch`:
        the dirty set is always relative to the engine's *most recent*
        full capture, and stores compare epochs to decide whether their
        own on-disk snapshot is that capture (a store holding an older
        one must not carry sections forward from it)."""
        if names is None:
            self._dirty.clear()
            self._snapshot_epoch += 1
            self._clean_marks = {
                name: meter.total() for name, meter in self._meters.items()
            }
        else:
            self._dirty.difference_update(names)
            for name in names:
                meter = self._meters.get(name)
                if meter is not None:
                    self._clean_marks[name] = meter.total()

    @property
    def snapshot_epoch(self) -> int:
        """Monotonic count of full captures of this engine's view state
        (see :meth:`mark_views_clean`)."""
        return self._snapshot_epoch

    def set_autosnapshot(self, hook) -> None:
        """Attach an auto-snapshot hook (or ``None`` to detach).

        ``hook(engine)`` is invoked after every successful
        :meth:`apply`, :meth:`rollback` and :meth:`bulk_load`, once the
        batch is fully absorbed and journaled —
        in practice the closure :meth:`repro.persist.SnapshotStore.
        attach` installs when given a ``SnapshotPolicy``, which decides
        per batch whether to write an incremental snapshot.  A hook
        failure is re-raised as :class:`AutosnapshotError` (carrying the
        batch's report): the batch itself is applied and journaled, only
        the snapshot write failed."""
        self._autosnapshot = hook

    # ------------------------------------------------------------------
    # Publication hooks (serving / replication front ends)
    # ------------------------------------------------------------------

    def add_apply_listener(self, listener: Callable[[EngineReport], None]) -> None:
        """Attach a publication hook: ``listener(report)`` runs at the
        end of every write — each :meth:`apply`, :meth:`rollback` and
        :meth:`bulk_load` (replay :meth:`deliver` does not publish; the
        graph never changed).  It runs *after* every view has absorbed
        the batch and the dirty/routing accounting is folded in, so the
        report describes a fully-published state — which is what makes
        it the right place for a serving layer to advance its read
        generation (see :class:`repro.serving.Repository`, which also
        uses the hook as a tripwire against out-of-band mutations).

        Listeners must not raise (an exception propagates out of
        ``apply`` *after* the batch is applied and journaled, exactly
        the half-failed shape :class:`AutosnapshotError` exists to
        avoid) and must not mutate the engine.

        >>> from repro import DiGraph, Engine, insert
        >>> engine = Engine(DiGraph(edges=[(1, 2)]))
        >>> seen = []
        >>> engine.add_apply_listener(lambda report: seen.append(len(report.delta)))
        >>> _ = engine.apply([insert(2, 1)])
        >>> seen
        [1]
        """
        self._apply_listeners.append(listener)

    def remove_apply_listener(
        self, listener: Callable[[EngineReport], None]
    ) -> None:
        """Detach a previously added publication hook (no-op when the
        listener is not attached — detaching twice must be safe for
        ``Repository.close``)."""
        try:
            self._apply_listeners.remove(listener)
        except ValueError:
            pass

    def add_route_listener(
        self, listener: Callable[[tuple[str, ...]], None]
    ) -> None:
        """Attach a route hook: ``listener(names)`` runs once per
        :meth:`apply`, :meth:`rollback` and :meth:`bulk_load`, after the
        batch is validated and routed but *before* the journal append
        and ``G ⊕ ΔG``.  ``names`` are the views the batch will change,
        in registration order: the routed (not skipped) views, and for
        :meth:`bulk_load` every rebuilt view too.  Views still hold
        their pre-batch state, which is what lets a serving layer freeze
        the answers the batch is about to overwrite (see
        :class:`repro.serving.Repository`).

        A listener that raises aborts the write with log, graph and
        views untouched.  It must not mutate the engine.

        >>> from repro import DiGraph, Engine, insert
        >>> from repro.kws import KWSIndex, KWSQuery
        >>> from repro.scc import SCCIndex
        >>> engine = Engine(DiGraph(labels={1: "a", 2: "b", 3: "c"}, edges=[(1, 2)]))
        >>> _ = engine.register("kws", lambda g, m: KWSIndex(g, KWSQuery(("a",), 2), meter=m))
        >>> _ = engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
        >>> seen = []
        >>> engine.add_route_listener(lambda names: seen.append((names, engine.graph.num_edges)))
        >>> _ = engine.apply([insert(3, 3)])   # no keyword reaches through c→c
        >>> seen                               # routed before the edge landed
        [(('scc',), 1)]
        """
        self._route_listeners.append(listener)

    def remove_route_listener(
        self, listener: Callable[[tuple[str, ...]], None]
    ) -> None:
        """Detach a previously added route hook (no-op when it is not
        attached)."""
        try:
            self._route_listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Journaling (write-ahead delta log)
    # ------------------------------------------------------------------

    def set_journal(self, journal) -> None:
        """Attach a write-ahead log (or ``None`` to detach).

        ``journal`` is any object with an ``append(delta)`` method —
        in practice a :class:`repro.persist.SegmentedDeltaLog`.  Every
        batch :meth:`apply` accepts, and every non-empty undo batch produced
        by :meth:`rollback`, is appended — *before* the mutation
        (write-ahead), right after validation and routing, so the log never
        lags the session and an unjournalable batch fails cleanly with
        nothing applied.  Replaying the log in order over the graph it
        started from reproduces the session state — which is exactly
        what :meth:`repro.persist.SnapshotStore.load` does with the
        tail written after the last snapshot.

        >>> from repro import DiGraph, Engine, insert
        >>> class Tape:
        ...     entries = ()
        ...     def append(self, delta):
        ...         self.entries += (delta,)
        >>> engine = Engine(DiGraph(edges=[(1, 2)]))
        >>> engine.set_journal(Tape())
        >>> _ = engine.apply([insert(2, 1)])
        >>> len(engine.journal.entries)
        1
        """
        if journal is not self.journal:
            self._journal_epoch += 1
        self.journal = journal

    @property
    def journal_epoch(self) -> int:
        """Monotonic count of journal swaps (see :meth:`set_journal`).

        :class:`repro.persist.SnapshotStore` compares epochs across
        captures: an incremental graph diff may only be derived from the
        store's own log when the engine journaled into that log,
        uninterrupted, since the previous capture."""
        return self._journal_epoch

    @property
    def last_journaled_seq(self) -> Optional[int]:
        """Sequence number of the newest batch the attached journal
        acknowledged (``None`` before the first journaled batch)."""
        return self._last_journaled_seq
