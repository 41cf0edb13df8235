"""IncKWS — localizable incremental keyword search (paper Section 4.2).

:class:`KWSIndex` maintains kdist(·) and therefore Q(G) under updates:

* **IncKWS+** (:meth:`KWSIndex.insert_edge`, paper Fig. 1): an insertion
  can only *shorten* distances; the improvement is propagated to ancestors
  with a FIFO queue, confined to the b-neighborhood of the new edge.
* **IncKWS−** (:meth:`KWSIndex.delete_edge`, paper Fig. 3): two phases —
  (A) mark nodes whose chosen shortest path routed through the deleted
  edge, walking reverse next-pointers; (B) compute potential values from
  unaffected successors; (C) settle exact values with a priority queue in
  ascending distance order (Ramalingam–Reps style).
* **batch IncKWS** (:meth:`KWSIndex.apply`, Section 4.2 (3)): interleaves
  all deletions' affected sets and all insertions' improvements through a
  single per-keyword priority queue, so each kdist entry is finalized at
  most once per batch regardless of how many updates touch it.

All three are *localizable*: the work is confined to the b-neighborhoods
of ΔG's endpoints (match updates to 2b), which the test-suite asserts via
cost-meter containment (Theorem 3).

ΔO is reported as a :class:`KWSDelta` of added / removed / rerouted roots;
match trees themselves are derived from kdist(·) (see
:mod:`repro.kws.matches`), so Q(G) ⊕ ΔO is materialized on demand.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from repro.core.cost import CostMeter, NULL_METER
from repro.core.delta import Delta
from repro.engine.relevance import KeywordRelevance
from repro.engine.view import ViewSnapshot
from repro.graph.digraph import DiGraph, Label, Node
from repro.kws.batch import compute_kdist
from repro.kws.kdist import (
    KDistEntry,
    KDistIndex,
    KWSQuery,
    node_order,
    sorted_nodes,
)
from repro.kws.matches import MatchTree, all_matches, distance_profile, match_at

_INF = float("inf")


@dataclass(frozen=True)
class KWSDelta:
    """ΔO for keyword search.

    ``added``/``removed`` are roots whose match appeared/disappeared;
    ``rerouted`` are roots that keep a match but whose tree changed (a
    distance or an edge on some chosen path) — the "replace (u, u''1) with
    (u, u''2) in all the matches" of Fig. 1 lines 9-10.
    """

    added: frozenset[Node]
    removed: frozenset[Node]
    rerouted: frozenset[Node]

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.rerouted)


class KWSIndex:
    """Incrementally maintained keyword-search answers over a graph."""

    def __init__(
        self,
        graph: DiGraph,
        query: KWSQuery,
        meter: CostMeter = NULL_METER,
    ) -> None:
        self.graph = graph
        self.query = query
        self.meter = meter
        self.kdist = compute_kdist(graph, query, meter=meter)
        self._touched: dict[tuple[Node, Label], KDistEntry | None] = {}
        self._last_touched: dict[tuple[Node, Label], KDistEntry | None] = {}

    # ------------------------------------------------------------------
    # Query answers
    # ------------------------------------------------------------------

    def matches(self) -> dict[Node, MatchTree]:
        """Q(G) as {root: match tree}."""
        return all_matches(self.kdist)

    def match_at(self, root: Node) -> MatchTree | None:
        return match_at(self.kdist, root)

    def profile(self) -> dict[Node, dict[Label, int]]:
        """Tie-invariant fingerprint {root: {keyword: dist}}."""
        return distance_profile(self.kdist)

    def roots(self) -> set[Node]:
        return self.kdist.complete_roots()

    # ------------------------------------------------------------------
    # IncKWS+ : unit insertion (paper Fig. 1)
    # ------------------------------------------------------------------

    def insert_edge(self, source: Node, target: Node, **labels) -> KWSDelta:
        """Insert ``(source, target)`` and repair kdist(·); returns ΔO."""
        self._begin_op()
        self._realize_endpoints(source, target, labels)
        self.graph.add_edge(source, target, **labels)
        for keyword in self.query.keywords:
            self._propagate_improvement(source, target, keyword)
        return self._finish_op()

    def _propagate_improvement(self, source: Node, target: Node, keyword: Label) -> None:
        """Fig. 1: BFS of strict improvements along predecessors."""
        target_dist = self._dist_or_inf(target, keyword)
        if not self._relax(source, keyword, target_dist + 1, target):  # line 1
            return
        queue: deque[Node] = deque([source])  # line 3
        while queue:  # lines 4-8
            node = queue.popleft()
            self.meter.visit_node(node)
            node_dist = self.kdist.get(node, keyword).dist
            for predecessor in self.graph.predecessors(node):
                self.meter.traverse_edge()
                if self._relax(predecessor, keyword, node_dist + 1, node):
                    queue.append(predecessor)

    # ------------------------------------------------------------------
    # IncKWS− : unit deletion (paper Fig. 3)
    # ------------------------------------------------------------------

    def delete_edge(self, source: Node, target: Node) -> KWSDelta:
        """Delete ``(source, target)`` and repair kdist(·); returns ΔO."""
        self._begin_op()
        self.graph.remove_edge(source, target)
        for keyword in self.query.keywords:
            entry = self.kdist.get(source, keyword)
            if entry is None or entry.next != target:  # line 1
                continue
            affected = self._mark_affected({source}, keyword)  # lines 2-6
            queue = _SettleQueue(self.meter)
            self._compute_potentials(affected, keyword, queue)  # lines 7-9
            self._settle(keyword, affected, queue)  # lines 10-14
        return self._finish_op()

    def _mark_affected(self, seeds: set[Node], keyword: Label) -> set[Node]:
        """Phase A: closure of reverse next-pointers from ``seeds`` — every
        node whose chosen path routed through a seed."""
        affected = set(seeds)
        stack = list(seeds)
        while stack:
            node = stack.pop()
            self.meter.visit_node(node)
            for parent in self.kdist.parents_of(node, keyword):
                self.meter.traverse_edge()
                if parent not in affected:
                    affected.add(parent)
                    stack.append(parent)
        return affected

    def _compute_potentials(
        self,
        affected: set[Node],
        keyword: Label,
        queue: "_SettleQueue",
    ) -> None:
        """Phase B: per affected node, the best distance through a
        *non-affected* successor (paper Fig. 3 line 8), written into kdist
        as a provisional value and queued for exact settlement."""
        bound = self.query.bound
        for node in affected:
            best_dist = _INF
            best_next = None
            for successor in self.graph.successors(node):
                self.meter.traverse_edge()
                if successor in affected:
                    continue
                successor_entry = self.kdist.get(successor, keyword)
                if successor_entry is None:
                    continue
                candidate = successor_entry.dist + 1
                if candidate < best_dist or (
                    candidate == best_dist
                    and best_next is not None
                    and node_order(successor) < node_order(best_next)
                ):
                    best_dist = candidate
                    best_next = successor
            if best_dist <= bound:
                self._set(node, keyword, KDistEntry(int(best_dist), best_next))
                queue.push(node, int(best_dist))
            else:
                self._clear(node, keyword)

    def _settle(
        self,
        keyword: Label,
        affected: set[Node],
        queue: "_SettleQueue",
    ) -> None:
        """Phase C: Dijkstra-style settlement in ascending distance order
        (paper Fig. 3 lines 10-14; also the batch algorithm's phase (c))."""
        while queue:
            node, dist = queue.pop()
            entry = self.kdist.get(node, keyword)
            if entry is None or entry.dist != dist:
                continue  # stale queue record
            self.meter.visit_node(node)
            for predecessor in self.graph.predecessors(node):
                self.meter.traverse_edge()
                if self._relax(predecessor, keyword, dist + 1, node):
                    queue.push(predecessor, dist + 1)

    # ------------------------------------------------------------------
    # Batch IncKWS (Section 4.2 (3))
    # ------------------------------------------------------------------

    def apply(self, delta: Delta) -> KWSDelta:
        """Process a batch with one priority queue per keyword, finalizing
        each affected entry at most once."""
        if not delta.is_normalized():
            delta = delta.normalized()
        self._begin_op()

        # Realize all graph mutations up front: the paper's phase (a)
        # computes potentials over the *updated* graph ("this edge has
        # already been inspected to compute potential dist value").
        new_nodes: set[Node] = set()
        for update in delta.deletions:
            self.graph.remove_edge(update.source, update.target)
        for update in delta.insertions:
            labels = {
                "source_label": update.source_label,
                "target_label": update.target_label,
            }
            new_nodes |= self._realize_endpoints(update.source, update.target, labels)
            self.graph.add_edge(update.source, update.target)

        self._repair_batch(delta, new_nodes)
        return self._finish_op()

    def absorb(self, delta: Delta, new_nodes: set[Node]) -> KWSDelta:
        """Engine fan-out path: repair kdist(·) for a normalized ``delta``
        the shared graph *already* holds (``G ⊕ ΔG``); ``new_nodes`` are the
        nodes the batch introduced.  Same repair as :meth:`apply`, minus the
        graph mutations."""
        self._begin_op()
        for node in new_nodes:
            label = self.graph.label(node)
            if label in self.query.keywords and self.kdist.get(node, label) is None:
                self._set(node, label, KDistEntry(0, None))
        self._repair_batch(delta, set(new_nodes))
        return self._finish_op()

    def _repair_batch(self, delta: Delta, new_nodes: set[Node]) -> None:
        for keyword in self.query.keywords:
            # Phase (a): affected nodes w.r.t. deletions (plus new nodes,
            # whose distances are unknown), potentials into one queue.
            seeds = {
                update.source
                for update in delta.deletions
                if (entry := self.kdist.get(update.source, keyword)) is not None
                and entry.next == update.target
            }
            affected = self._mark_affected(seeds, keyword) if seeds else set()
            affected |= {
                node for node in new_nodes if self.kdist.get(node, keyword) is None
            }
            queue = _SettleQueue(self.meter)
            self._compute_potentials(affected, keyword, queue)

            # Phase (b): insertions between non-affected endpoints seed the
            # queue instead of propagating eagerly (interleaving point).
            for update in delta.insertions:
                source, target = update.source, update.target
                if source in affected or target in affected:
                    continue
                target_dist = self._dist_or_inf(target, keyword)
                if self._relax(source, keyword, target_dist + 1, target):
                    queue.push(source, int(target_dist) + 1)

            # Phase (c): one settlement pass decides every exact value.
            self._settle(keyword, affected, queue)

    # ------------------------------------------------------------------
    # Engine routing (repro.engine.relevance)
    # ------------------------------------------------------------------

    def relevance(self) -> KeywordRelevance:
        """Routing filter: deletions matter only when a chosen shortest
        path routes through the deleted edge; insertions only when the
        target can supply a distance (an in-bound kdist entry or a
        keyword label); new keyword-labeled nodes always reach
        ``absorb`` for their dist-0 bootstrap."""
        return KeywordRelevance(self)

    def empty_output(self) -> KWSDelta:
        """The ΔO of a batch that touched nothing this view depends on."""
        return KWSDelta(frozenset(), frozenset(), frozenset())

    # ------------------------------------------------------------------
    # Persistence (repro.persist)
    # ------------------------------------------------------------------

    def snapshot(self) -> ViewSnapshot:
        """Capture the maintained kdist(·) as token rows.

        Config row: ``(bound, keyword...)``.  One record per entry:
        ``(keyword, node, dist)`` for keyword-matching nodes (``next`` is
        ``nil``) and ``(keyword, node, dist, next)`` otherwise, nodes in
        :func:`~repro.kws.kdist.node_order` within each keyword — the
        canonical order, so behaviorally identical indexes serialize
        byte-identically regardless of internal dict history.  The
        reverse next-pointer maps are derived state and are rebuilt by
        :meth:`restore`.
        """
        records = []
        for keyword in self.query.keywords:
            entries = self.kdist.entries(keyword)
            for node in sorted_nodes(entries):
                entry = entries[node]
                if entry.next is None:
                    records.append((keyword, node, entry.dist))
                else:
                    records.append((keyword, node, entry.dist, entry.next))
        return ViewSnapshot(
            kind="kws",
            config=(self.query.bound, *self.query.keywords),
            records=tuple(records),
        )

    @classmethod
    def restore(
        cls,
        graph: DiGraph,
        state: ViewSnapshot,
        meter: CostMeter = NULL_METER,
    ) -> "KWSIndex":
        """Rebuild an index over ``graph`` from a snapshot — no BFS, just
        entry writes; behaviorally identical to the index that produced
        the snapshot."""
        if state.kind != "kws":
            raise ValueError(f"expected a 'kws' snapshot, got {state.kind!r}")
        bound, *keywords = state.config
        index = cls.__new__(cls)
        index.graph = graph
        index.query = KWSQuery(tuple(keywords), int(bound))
        index.meter = meter
        index.kdist = KDistIndex(index.query)
        for row in state.records:
            keyword, node, dist = row[0], row[1], int(row[2])
            successor = row[3] if len(row) == 4 else None
            index.kdist.set(node, keyword, KDistEntry(dist, successor))
        index._touched = {}
        index._last_touched = {}
        return index

    # ------------------------------------------------------------------
    # ΔO bookkeeping
    # ------------------------------------------------------------------

    def _begin_op(self) -> None:
        self._touched = {}

    def _finish_op(self) -> KWSDelta:
        touched = self._touched
        self._last_touched = touched  # kept for callers composing unit ops
        self._touched = {}
        changed: dict[Label, set[Node]] = {}
        for (node, keyword), old in touched.items():
            if self.kdist.get(node, keyword) != old:
                changed.setdefault(keyword, set()).add(node)
        if not changed:
            return KWSDelta(frozenset(), frozenset(), frozenset())
        candidates = {node for nodes in changed.values() for node in nodes}
        added: set[Node] = set()
        removed: set[Node] = set()
        for node in candidates:
            was_root = all(
                (
                    touched[(node, keyword)]
                    if (node, keyword) in touched
                    else self.kdist.get(node, keyword)
                )
                is not None
                for keyword in self.query.keywords
            )
            is_root = self.kdist.is_root(node)
            if is_root and not was_root:
                added.add(node)
            elif was_root and not is_root:
                removed.add(node)
        rerouted = {
            node
            for node in self.kdist.upstream_closure(changed)
            if self.kdist.is_root(node)
        } - added
        return KWSDelta(frozenset(added), frozenset(removed), frozenset(rerouted))

    def _relax(self, node: Node, keyword: Label, dist: float, via: Node) -> bool:
        """Offer ``node`` the candidate entry ``(dist, via)``.

        A strict distance improvement is written and returns ``True``
        (the caller must propagate/queue ``node``).  An equal-distance
        candidate whose witness precedes the current ``next`` in
        :func:`~repro.kws.kdist.node_order` rewrites only the witness
        and returns ``False`` — the distance is unchanged, so nothing
        propagates.  The tie rule makes the chosen witness independent
        of the order in which candidates are offered: routed fan-out
        (which may legitimately drop an insertion whose target only
        becomes reachable later in the same batch) and broadcast then
        settle on byte-identical kdist state instead of keeping
        whichever equal-length path happened to be written first.
        """
        if dist > self.query.bound:
            return False
        current = self.kdist.get(node, keyword)
        if current is None or dist < current.dist:
            self._set(node, keyword, KDistEntry(int(dist), via))
            return True
        if (
            dist == current.dist
            and current.next is not None
            and node_order(via) < node_order(current.next)
        ):
            self._set(node, keyword, KDistEntry(int(dist), via))
        return False

    def _set(self, node: Node, keyword: Label, entry: KDistEntry) -> None:
        key = (node, keyword)
        if key not in self._touched:
            self._touched[key] = self.kdist.get(node, keyword)
        self.kdist.set(node, keyword, entry)
        self.meter.write()

    def _clear(self, node: Node, keyword: Label) -> None:
        key = (node, keyword)
        if key not in self._touched:
            self._touched[key] = self.kdist.get(node, keyword)
        self.kdist.clear(node, keyword)
        self.meter.write()

    def _dist_or_inf(self, node: Node, keyword: Label) -> float:
        entry = self.kdist.get(node, keyword)
        return entry.dist if entry is not None else _INF

    def _realize_endpoints(self, source: Node, target: Node, labels: dict) -> set[Node]:
        """Create endpoints the graph has not seen; a new node matching a
        keyword gets its dist-0 entry immediately."""
        created: set[Node] = set()
        for node, label_key in ((source, "source_label"), (target, "target_label")):
            if node in self.graph:
                continue
            label = labels.get(label_key, "")
            self.graph.add_node(node, label=label)
            created.add(node)
            if label in self.query.keywords:
                self._set(node, label, KDistEntry(0, None))
        return created


class _SettleQueue:
    """Lazy-deletion binary heap keyed ``(dist, node order)`` — the paper's
    ``qi`` with ``insert``/``pull_min``/``decrease`` (decrease = re-push;
    stale records are skipped against the current kdist value)."""

    def __init__(self, meter: CostMeter) -> None:
        self._heap: list[tuple[int, tuple[str, str], Node]] = []
        self._meter = meter

    def push(self, node: Node, dist: int) -> None:
        heapq.heappush(self._heap, (dist, node_order(node), node))
        self._meter.pq_op()

    def pop(self) -> tuple[Node, int]:
        dist, _, node = heapq.heappop(self._heap)
        self._meter.pq_op()
        return node, dist

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


# ----------------------------------------------------------------------
# Unit-at-a-time baseline (IncKWSn in the paper's experiments)
# ----------------------------------------------------------------------


def inc_kws_n(index: KWSIndex, delta: Delta) -> KWSDelta:
    """Process ``delta`` one unit update at a time (no interleaving) —
    the IncKWSn comparator of Section 6."""
    outer_touched: dict = {}
    for update in delta:
        if update.is_insert:
            index.insert_edge(
                update.source,
                update.target,
                source_label=update.source_label,
                target_label=update.target_label,
            )
        else:
            index.delete_edge(update.source, update.target)
        # Merge first-touch records across unit ops into one batch ΔO.
        for key, old in index._last_touched.items():
            outer_touched.setdefault(key, old)
    index._touched = outer_touched
    return index._finish_op()
