"""The :class:`IncrementalView` protocol — the contract every maintained
query answer implements so one update stream can drive many views.

A view owns auxiliary structures (kdist lists, pmark markings, a
condensation, a match index) over a :class:`~repro.graph.digraph.DiGraph`
and keeps its answer Q(G) current under updates.  The four query classes
of the paper — :class:`~repro.kws.KWSIndex`,
:class:`~repro.rpq.RPQIndex`, :class:`~repro.scc.SCCIndex` and
:class:`~repro.iso.ISOIndex` — subclass the protocol, as does
:class:`~repro.dataflow.DataflowView`.  Following Section 2.2, an
incremental algorithm computes ΔO from Q, G, Q(G) and ΔG, and
``G ⊕ ΔG`` is a separate step; a view writes only the first:

* ``absorb(delta, new_nodes)`` — the incremental algorithm: the graph
  already holds ``G ⊕ ΔG`` for the normalized batch; the view repairs
  its auxiliaries without touching the graph and returns ΔO.
  ``new_nodes`` is the set of nodes the batch introduced
  (:meth:`~repro.core.delta.Delta.new_nodes`).
* ``snapshot`` / ``restore`` — the persistence pair: ``snapshot()``
  captures the view's auxiliary state as a :class:`ViewSnapshot` of
  serializable token rows, and the classmethod ``restore(graph, state,
  meter)`` rebuilds an equivalent view over a graph *without* running the
  from-scratch constructor.  :mod:`repro.persist` writes snapshots to
  disk and replays the delta-log tail through ``absorb``, so recovery is
  itself an incremental computation.

The protocol supplies the rest once for every view:

* ``apply(delta)`` — normalize, refuse a batch that does not apply
  (:meth:`~repro.core.delta.Delta.check_applicable`), find the new
  nodes, apply ``G ⊕ ΔG`` with
  :meth:`~repro.core.delta.Delta.apply_to`, then ``absorb``.  The
  engine's fan-out runs the same two steps with the graph shared, so
  ``absorb ≡ apply`` holds by construction;
* ``insert_edge`` / ``delete_edge`` — one-update batches through
  ``apply``.  A view may override them with a unit algorithm (the
  IncKWSn and IncSCCn comparators of Section 6 do).

``restore(graph, index.snapshot(), meter)`` must be behaviorally
identical to ``index`` itself, and routed fan-out must match a
standalone ``apply`` — the cross-view property tests enforce both by
comparing every view's answer against from-scratch recomputation after
randomized engine batches.

Two *optional* extensions participate in the engine's routed fan-out
(:mod:`repro.engine.scheduler`); they are deliberately not part of the
structural protocol, so minimal views remain valid:

* ``relevance() -> DeltaFilter`` — returns a filter declaring which unit
  updates can possibly change the view's answer (see
  :mod:`repro.engine.relevance`).  Views without the hook are broadcast
  every batch.  A filter must be *conservative*: dropping an update must
  provably leave ``absorb``'s result unchanged; routed and broadcast
  fan-out are required to produce identical view snapshots.
* ``empty_output()`` — the view's empty ΔO, reported for batches the
  router skipped the view on (so ``EngineReport.output`` stays uniform).

Snapshots must be **canonical**: ``snapshot()`` emits records in a
deterministic sorted order independent of internal dict/set history, so
two behaviorally identical views (e.g. one maintained by routed fan-out
and one by broadcast) serialize byte-identically, and incremental
snapshot saves can carry clean sections forward verbatim.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from repro.core.cost import CostMeter
from repro.core.delta import Delta, delete, insert
from repro.graph.digraph import DiGraph, Node


@dataclass(frozen=True)
class ViewSnapshot:
    """A view's auxiliary state as serializable token rows.

    ``kind`` names the view class (``"kws"``, ``"rpq"``, ``"scc"``,
    ``"iso"``, or a registered extension); ``config`` is one row of
    values reconstructing the standing query; ``records`` are the state
    rows.  Every value must be an ``int`` or ``str`` so the rows survive
    the lossless text format of :mod:`repro.graph.io_tokens` (anything
    else raises ``SerializationError`` at write time).

    Example — a snapshot round-trips a view without recomputation::

        >>> from repro.graph.digraph import DiGraph
        >>> from repro.scc import SCCIndex
        >>> g = DiGraph(labels={1: "a", 2: "b"}, edges=[(1, 2), (2, 1)])
        >>> state = SCCIndex(g).snapshot()
        >>> state.kind
        'scc'
        >>> twin = SCCIndex.restore(g, state)
        >>> twin.components() == {frozenset({1, 2})}
        True
    """

    kind: str
    config: tuple
    records: tuple[tuple, ...]


@runtime_checkable
class IncrementalView(Protocol):
    """Protocol for incrementally maintained query answers; subclass it
    and write ``absorb`` (plus the persistence and routing methods)."""

    graph: DiGraph
    meter: CostMeter

    def apply(self, delta: Delta) -> Any:
        """Batch update: ``G ⊕ ΔG`` once, then :meth:`absorb`; returns ΔO.
        A batch that does not apply raises before anything changes."""
        if not delta.is_normalized():
            delta = delta.normalized()
        delta.check_applicable(self.graph)
        new_nodes = frozenset(delta.new_nodes(self.graph))
        delta.apply_to(self.graph)
        return self.absorb(delta, new_nodes)

    def insert_edge(self, source: Node, target: Node, **labels) -> Any:
        """Unit insertion: a one-update batch through :meth:`apply`."""
        return self.apply(Delta([insert(source, target, **labels)]))

    def delete_edge(self, source: Node, target: Node) -> Any:
        """Unit deletion: a one-update batch through :meth:`apply`."""
        return self.apply(Delta([delete(source, target)]))

    def absorb(self, delta: Delta, new_nodes: AbstractSet[Node]) -> Any:
        """Repair against a graph that already holds ``G ⊕ ΔG``.

        Contract: ``absorb`` must not raise on a batch the engine
        validated — by the time the fan-out runs, the graph has mutated,
        sibling views may already have absorbed the batch, and a
        journaling engine has durably logged it, so an exception here is
        an internal invariant violation that leaves the session (and any
        recovery that replays the log) inconsistent, not a recoverable
        condition.
        """

    def snapshot(self) -> ViewSnapshot:
        """Capture the auxiliary state as serializable token rows."""

    @classmethod
    def restore(
        cls, graph: DiGraph, state: ViewSnapshot, meter: CostMeter
    ) -> "IncrementalView":
        """Rebuild a view over ``graph`` from a snapshot, without running
        the from-scratch constructor."""
