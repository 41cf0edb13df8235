"""IncRPQ — bounded incremental RPQ relative to RPQ_NFA
(paper Section 5.2, Fig. 5, Example 5).

:class:`RPQIndex` maintains the pmark_e markings (dist/cpre/mpre per
source) and the match set under batch updates:

1. **cpre pruning + identAff** — deleted edges remove their product-graph
   predecessors from cpre/mpre; entries whose mpre empties are *affected*,
   and the invalidation propagates down mpre chains (Fig. 5 line 1).
2. **Potentials** — each affected entry gets a provisional distance from
   its surviving (unaffected) cpre members, queued by distance
   (lines 2-4).
3. **Insertions** — new edges register in cpre and seed the queue where
   they strictly improve an unaffected target (lines 5-8).
4. **Settle** — one global priority queue over (dist, source, node, state)
   fixes exact distances in ascending order, creating entries that become
   newly reachable and deleting affected entries that end unreachable
   (lines 9-10).  Grouping all sources and all updates into one queue is
   what "reduces redundant computations when processing ΔG".

Cost is O(|AFF| log |AFF|): every queue element corresponds to a marking
whose content differs between the batch runs on G and G ⊕ ΔG — exactly the
data RPQ_NFA necessarily inspects differently (the paper's AFF).

ΔO is the pair-level diff: ``RPQDelta(added, removed)`` with
``Q(G ⊕ ΔG) = Q(G) ∪ added − removed``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.cost import CostMeter, NULL_METER
from repro.core.delta import Delta
from repro.engine.relevance import AlphabetRelevance
from repro.engine.view import ViewSnapshot
from repro.graph.digraph import DiGraph, Node
from repro.kws.kdist import node_order, sorted_nodes
from repro.rpq.batch import compile_query, rpq_nfa
from repro.rpq.markings import BOOTSTRAP, MarkEntry, Markings, ProductNode
from repro.rpq.nfa import NFA, State
from repro.rpq.regex import Regex, parse

_INF = float("inf")

AffKey = tuple[Node, Node, State]  # (source u, node v, state s)


@dataclass(frozen=True)
class RPQDelta:
    """ΔO for RPQ: node pairs entering/leaving Q(G)."""

    added: frozenset[tuple[Node, Node]]
    removed: frozenset[tuple[Node, Node]]

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed)


class RPQIndex:
    """Incrementally maintained Q(G) and pmark_e for one RPQ query."""

    def __init__(
        self,
        graph: DiGraph,
        query: Regex | str,
        meter: CostMeter = NULL_METER,
    ) -> None:
        self.graph = graph
        self.meter = meter
        self.query: Regex = parse(query) if isinstance(query, str) else query
        result = rpq_nfa(graph, self.query, meter=meter)
        self.nfa: NFA = result.nfa
        self.markings: Markings = result.markings
        self.matches: set[tuple[Node, Node]] = result.matches
        self._pair_before: dict[tuple[Node, Node], bool] = {}

    # ------------------------------------------------------------------
    # Unit updates (thin wrappers; IncRPQn iterates these)
    # ------------------------------------------------------------------

    def insert_edge(self, source: Node, target: Node, **labels) -> RPQDelta:
        from repro.core.delta import insert

        return self.apply(
            Delta(
                [
                    insert(
                        source,
                        target,
                        source_label=labels.get("source_label", ""),
                        target_label=labels.get("target_label", ""),
                    )
                ]
            )
        )

    def delete_edge(self, source: Node, target: Node) -> RPQDelta:
        from repro.core.delta import delete

        return self.apply(Delta([delete(source, target)]))

    # ------------------------------------------------------------------
    # Batch IncRPQ (paper Fig. 5)
    # ------------------------------------------------------------------

    def apply(self, delta: Delta) -> RPQDelta:
        if not delta.is_normalized():
            delta = delta.normalized()
        self._pair_before = {}

        # Phase 0: graph mutations (potentials are computed on G ⊕ ΔG).
        new_nodes: list[Node] = []
        for update in delta.deletions:
            self.graph.remove_edge(update.source, update.target)
        for update in delta.insertions:
            for node, label in (
                (update.source, update.source_label),
                (update.target, update.target_label),
            ):
                if node not in self.graph:
                    self.graph.add_node(node, label=label)
                    new_nodes.append(node)
            self.graph.add_edge(update.source, update.target)

        return self._repair_batch(delta, new_nodes)

    def absorb(self, delta: Delta, new_nodes) -> RPQDelta:
        """Engine fan-out path: repair markings for a normalized ``delta``
        the shared graph already holds; ``new_nodes`` are the nodes the
        batch introduced.  Same repair as :meth:`apply`, minus phase 0."""
        self._pair_before = {}
        return self._repair_batch(delta, sorted(new_nodes, key=node_order))

    def _repair_batch(self, delta: Delta, new_nodes: list[Node]) -> RPQDelta:
        # Phase 1: prune cpre/mpre along deleted edges; seed identAff.
        seeds: set[AffKey] = set()
        for update in delta.deletions:
            self._prune_deleted_edge(update.source, update.target, seeds)

        # Phase 1b: identAff — close the affected set down mpre chains.
        affected = self._ident_aff(seeds)

        # Phase 1c: register inserted edges in cpre *before* potentials,
        # so an affected entry's potential already sees them (the paper:
        # "this edge has already been inspected to compute potential dist
        # value for node v").
        for update in delta.insertions:
            self._register_insertion_cpre(update.source, update.target)

        # Phase 2: potentials for affected entries (Fig. 5 lines 2-4).
        queue = _GlobalQueue(self.meter)
        for key in affected:
            self._compute_potential(key, affected, queue)

        # Phase 2b: bootstrap entries for new nodes whose label starts M_Q.
        for node in new_nodes:
            start_states = self.nfa.start_states(self.graph.label(node))
            for state in start_states:
                marks = self.markings.source(node)
                if marks.get(node, state) is None:
                    marks.set(
                        node,
                        state,
                        MarkEntry(dist=0, cpre={BOOTSTRAP}, mpre={BOOTSTRAP}),
                    )
                    self.meter.write()
                    self._note_pair(node, node)
                    queue.push(0, node, node, state)

        # Phase 3: insertions (Fig. 5 lines 5-8) — register cpre, seed
        # strict improvements of unaffected targets.
        for update in delta.insertions:
            self._seed_insertion(update.source, update.target, affected, queue)

        # Phase 4: settle exact values in ascending distance (line 9).
        self._settle(queue, affected)

        # Phase 4b: affected entries that stayed unreachable disappear.
        for source, node, state in affected:
            marks = self.markings.get(source)
            entry = marks.get(node, state) if marks else None
            if entry is not None and entry.dist == _INF:
                self._delete_entry(source, node, state)

        # Phase 5: ΔO — re-derive membership for touched pairs (line 10).
        return self._finish_delta()

    # ------------------------------------------------------------------
    # Phase helpers
    # ------------------------------------------------------------------

    def _prune_deleted_edge(self, x: Node, y: Node, seeds: set[AffKey]) -> None:
        """Remove product edges ((x,s),(y,s')) from cpre/mpre; entries whose
        mpre empties are identAff seeds."""
        label_y = self.graph.label(y)
        for source in self.markings.sources_with_entries_at(x):
            marks = self.markings.get(source)
            states_x = marks.states_at(x)
            for state in list(states_x):
                for next_state in self.nfa.delta(state, label_y):
                    entry_y = marks.get(y, next_state)
                    if entry_y is None:
                        continue
                    self.meter.traverse_edge()
                    entry_y.cpre.discard((x, state))
                    if (x, state) in entry_y.mpre:
                        entry_y.mpre.discard((x, state))
                        self.meter.write()
                        if not entry_y.mpre:
                            seeds.add((source, y, next_state))

    def _ident_aff(self, seeds: set[AffKey]) -> set[AffKey]:
        """identAff (Fig. 5 line 1): close ``seeds`` downward — a child
        whose every shortest-path parent is invalidated is itself
        affected."""
        affected: set[AffKey] = set()
        worklist = list(seeds)
        while worklist:
            key = worklist.pop()
            if key in affected:
                continue
            affected.add(key)
            source, node, state = key
            self.meter.visit_node(node)
            marks = self.markings.get(source)
            for successor in self.graph.successors(node):
                self.meter.traverse_edge()
                for next_state in self.nfa.delta(state, self.graph.label(successor)):
                    child = marks.get(successor, next_state)
                    if child is None or (node, state) not in child.mpre:
                        continue
                    child.mpre.discard((node, state))
                    self.meter.write()
                    if not child.mpre:
                        worklist.append((source, successor, next_state))
        return affected

    def _compute_potential(
        self,
        key: AffKey,
        affected: set[AffKey],
        queue: "_GlobalQueue",
    ) -> None:
        """Fig. 5 lines 2-4: provisional dist from surviving cpre members
        (all unaffected candidates achieving the minimum become mpre)."""
        source, node, state = key
        marks = self.markings.get(source)
        entry = marks.get(node, state)
        best = _INF
        best_parents: set[ProductNode] = set()
        for parent in entry.cpre:
            if parent == BOOTSTRAP:
                candidate = 0.0
            else:
                parent_node, parent_state = parent
                if (source, parent_node, parent_state) in affected:
                    continue
                parent_entry = marks.get(parent_node, parent_state)
                if parent_entry is None:
                    continue
                candidate = parent_entry.dist + 1
            if candidate < best:
                best = candidate
                best_parents = {parent}
            elif candidate == best:
                best_parents.add(parent)
        entry.dist = int(best) if best is not _INF else _INF
        entry.mpre = best_parents
        self.meter.write()
        if best is not _INF:
            queue.push(int(best), source, node, state)

    def _register_insertion_cpre(self, x: Node, y: Node) -> None:
        """Add the product edges of a new graph edge to existing targets'
        cpre sets (pure registration; no distance changes)."""
        label_y = self.graph.label(y)
        for source in self.markings.sources_with_entries_at(x):
            marks = self.markings.get(source)
            for state in marks.states_at(x):
                for next_state in self.nfa.delta(state, label_y):
                    entry_y = marks.get(y, next_state)
                    if entry_y is not None:
                        entry_y.cpre.add((x, state))

    def _seed_insertion(
        self,
        x: Node,
        y: Node,
        affected: set[AffKey],
        queue: "_GlobalQueue",
    ) -> None:
        """Fig. 5 lines 5-8 for one inserted edge (x, y): seed strict
        improvements whose endpoints are both unaffected (affected targets
        already saw the edge in their potential; affected sources have
        stale distances and propagate through the queue instead)."""
        label_y = self.graph.label(y)
        for source in self.markings.sources_with_entries_at(x):
            marks = self.markings.get(source)
            states_x = marks.states_at(x)
            for state, entry_x in list(states_x.items()):
                if (source, x, state) in affected:
                    continue  # settle will relax y when x settles
                for next_state in self.nfa.delta(state, label_y):
                    entry_y = marks.get(y, next_state)
                    if entry_y is not None:
                        if (source, y, next_state) in affected:
                            continue  # its potential already saw this edge
                        if entry_x.dist + 1 < entry_y.dist:
                            entry_y.dist = entry_x.dist + 1
                            entry_y.mpre = {(x, state)}
                            self.meter.write()
                            queue.push(entry_y.dist, source, y, next_state)
                        elif entry_x.dist + 1 == entry_y.dist:
                            entry_y.mpre.add((x, state))
                    else:
                        self._create_entry(
                            source, y, next_state, entry_x.dist + 1, (x, state)
                        )
                        queue.push(entry_x.dist + 1, source, y, next_state)

    def _settle(self, queue: "_GlobalQueue", affected: set[AffKey]) -> None:
        """Fig. 5 line 9: ascending-distance settlement over the global
        queue, guided by M_Q."""
        while queue:
            dist, source, node, state = queue.pop()
            marks = self.markings.get(source)
            entry = marks.get(node, state) if marks else None
            if entry is None or entry.dist != dist:
                continue  # stale record
            self.meter.visit_node(node)
            for successor in self.graph.successors(node):
                self.meter.traverse_edge()
                for next_state in self.nfa.delta(state, self.graph.label(successor)):
                    child = marks.get(successor, next_state)
                    if child is None:
                        self._create_entry(
                            source, successor, next_state, dist + 1, (node, state)
                        )
                        queue.push(dist + 1, source, successor, next_state)
                        continue
                    child.cpre.add((node, state))
                    if dist + 1 < child.dist:
                        child.dist = dist + 1
                        child.mpre = {(node, state)}
                        self.meter.write()
                        queue.push(dist + 1, source, successor, next_state)
                    elif dist + 1 == child.dist:
                        child.mpre.add((node, state))

    # ------------------------------------------------------------------
    # Entry lifecycle
    # ------------------------------------------------------------------

    def _create_entry(
        self,
        source: Node,
        node: Node,
        state: State,
        dist: int,
        via: ProductNode,
    ) -> None:
        """Create a newly reached entry; cpre is completed by scanning the
        node's graph predecessors so later deletions see every candidate."""
        marks = self.markings.source(source)
        cpre: set[ProductNode] = set()
        label_node = self.graph.label(node)
        for predecessor in self.graph.predecessors(node):
            self.meter.traverse_edge()
            for pred_state, _ in marks.states_at(predecessor).items():
                if state in self.nfa.delta(pred_state, label_node):
                    cpre.add((predecessor, pred_state))
        if node == source and state in self.nfa.start_states(label_node):
            cpre.add(BOOTSTRAP)
        cpre.add(via)
        marks.set(node, state, MarkEntry(dist=dist, cpre=cpre, mpre={via}))
        self.meter.write()
        if state in self.nfa.accepting:
            self._note_pair(source, node)

    def _delete_entry(self, source: Node, node: Node, state: State) -> None:
        """Drop an unreachable entry and deregister it from successors'
        cpre sets."""
        marks = self.markings.get(source)
        marks.remove(node, state)
        self.meter.write()
        for successor in self.graph.successors(node):
            self.meter.traverse_edge()
            for next_state in self.nfa.delta(state, self.graph.label(successor)):
                child = marks.get(successor, next_state)
                if child is not None:
                    child.cpre.discard((node, state))
        if state in self.nfa.accepting:
            self._note_pair(source, node)

    # ------------------------------------------------------------------
    # Engine routing (repro.engine.relevance)
    # ------------------------------------------------------------------

    def relevance(self) -> AlphabetRelevance:
        """Routing filter: a graph edge only induces product edges via
        ``δ(s, l(target))``, so updates whose target label is outside the
        NFA alphabet can never touch a marking; new nodes matter only
        when their label has start states (``δ(s0, l)`` non-empty)."""
        alphabet = self.nfa.alphabet()
        start_labels = frozenset(
            label for label in alphabet if self.nfa.start_states(label)
        )
        return AlphabetRelevance(alphabet, start_labels)

    def empty_output(self) -> RPQDelta:
        """The ΔO of a batch that touched nothing this view depends on."""
        return RPQDelta(frozenset(), frozenset())

    # ------------------------------------------------------------------
    # Persistence (repro.persist)
    # ------------------------------------------------------------------

    def snapshot(self) -> ViewSnapshot:
        """Capture pmark_e as token rows.

        Config row: ``(query_text,)`` — the regex in the concrete syntax
        of :func:`repro.rpq.regex.parse` (``str(ast)`` round-trips, so
        the NFA is rebuilt, not stored).  One record per marking entry:
        ``(source, node, state, dist)``, in canonical
        ``(source, node, state)`` order so behaviorally identical indexes
        serialize byte-identically regardless of internal dict history.

        ``cpre``/``mpre`` are deliberately *not* stored: a product node
        ``(v', s')`` is in ``(v, s)``'s cpre exactly when ``(v', v)`` is
        a graph edge, ``s ∈ δ(s', l(v))``, and ``(v', s')`` carries an
        entry — the same predecessor scan
        :meth:`RPQIndex._create_entry` performs — and mpre is cpre's
        ``dist(v', s') + 1 = dist(v, s)`` subset (plus the virtual
        :data:`~repro.rpq.markings.BOOTSTRAP` parent at dist 0).  Both
        are re-derived by :meth:`restore`, keeping snapshots linear in
        the number of entries rather than in Σ|cpre|.
        """
        records = []
        for source in sorted_nodes(self.markings.sources()):
            marks = self.markings.get(source)
            for node in sorted_nodes(marks.by_node):
                states = marks.by_node[node]
                for state in sorted(states):
                    records.append((source, node, state, int(states[state].dist)))
        return ViewSnapshot(
            kind="rpq", config=(str(self.query),), records=tuple(records)
        )

    @classmethod
    def restore(
        cls,
        graph: DiGraph,
        state: ViewSnapshot,
        meter: CostMeter = NULL_METER,
    ) -> "RPQIndex":
        """Rebuild an index over ``graph`` from a snapshot — the NFA is
        recompiled from the query text (O(|Q|)), the entries are writes,
        cpre/mpre come from one predecessor scan per entry (no product
        BFS, no priority queue), and the match set falls out of the
        accepting states."""
        if state.kind != "rpq":
            raise ValueError(f"expected an 'rpq' snapshot, got {state.kind!r}")
        index = cls.__new__(cls)
        index.graph = graph
        index.meter = meter
        index.query, index.nfa = compile_query(state.config[0])
        index.markings = Markings()
        index.matches = set()
        accepting = index.nfa.accepting
        matches = index.matches

        # Pass 1 — bulk-create the entry buckets (plain dict writes; the
        # node → sources reverse index is filled in one sweep afterwards).
        per_source: dict[Node, dict[Node, dict[State, MarkEntry]]] = {}
        for row in state.records:
            source, node, nfa_state, dist = row[0], row[1], int(row[2]), int(row[3])
            by_node = per_source.get(source)
            if by_node is None:
                by_node = per_source[source] = {}
            states = by_node.get(node)
            if states is None:
                states = by_node[node] = {}
            states[nfa_state] = MarkEntry(dist=dist, cpre=set(), mpre=set())
            if nfa_state in accepting:
                matches.add((source, node))
        sources_at = index.markings.sources_at
        for source, by_node in per_source.items():
            marks = index.markings.source(source)
            marks.by_node = by_node
            for node in by_node:
                owners = sources_at.get(node)
                if owners is None:
                    owners = sources_at[node] = set()
                owners.add(source)

        # Pass 2 — derive cpre/mpre over the product edges among restored
        # entries, resolving δ(pred_state, l(v)) once per (pred_state,
        # node) pair — cheaper than the product BFS because nothing is
        # queued, deduplicated, or discovered.
        by_label_state: dict = {}
        for from_state, by_label in index.nfa.transitions.items():
            for label, targets in by_label.items():
                by_label_state.setdefault(label, {})[from_state] = targets
        labels = graph.labels
        predecessors_of = graph.predecessors
        for source, by_node in per_source.items():
            for node, states in by_node.items():
                state_map = by_label_state.get(labels[node])
                if not state_map:
                    continue
                for predecessor in predecessors_of(node):
                    pred_states = by_node.get(predecessor)
                    if not pred_states:
                        continue
                    for pred_state, pred_entry in pred_states.items():
                        targets = state_map.get(pred_state)
                        if not targets:
                            continue
                        parent = (predecessor, pred_state)
                        parent_reach = pred_entry.dist + 1
                        for target_state in targets:
                            entry = states.get(target_state)
                            if entry is not None:
                                entry.cpre.add(parent)
                                if parent_reach == entry.dist:
                                    entry.mpre.add(parent)
            source_states = by_node.get(source)
            if source_states:
                for nfa_state in index.nfa.start_states(labels[source]):
                    entry = source_states.get(nfa_state)
                    if entry is not None:
                        entry.cpre.add(BOOTSTRAP)
                        if entry.dist == 0:
                            entry.mpre.add(BOOTSTRAP)
        index._pair_before = {}
        return index

    # ------------------------------------------------------------------
    # ΔO bookkeeping
    # ------------------------------------------------------------------

    def _note_pair(self, source: Node, node: Node) -> None:
        pair = (source, node)
        if pair not in self._pair_before:
            self._pair_before[pair] = pair in self.matches

    def _finish_delta(self) -> RPQDelta:
        added: set[tuple[Node, Node]] = set()
        removed: set[tuple[Node, Node]] = set()
        for (source, node), was_match in self._pair_before.items():
            marks = self.markings.get(source)
            is_match = bool(marks) and any(
                state in self.nfa.accepting
                for state in marks.states_at(node)
            )
            if is_match and not was_match:
                added.add((source, node))
                self.matches.add((source, node))
            elif was_match and not is_match:
                removed.add((source, node))
                self.matches.discard((source, node))
        self._pair_before = {}
        return RPQDelta(frozenset(added), frozenset(removed))


class _GlobalQueue:
    """Lazy-deletion heap over (dist, source, node, state) — the paper's
    single queue q that interleaves all sources and all updates."""

    def __init__(self, meter: CostMeter) -> None:
        self._heap: list = []
        self._meter = meter

    def push(self, dist: int, source: Node, node: Node, state: State) -> None:
        heapq.heappush(
            self._heap,
            (dist, node_order(source), node_order(node), state, source, node),
        )
        self._meter.pq_op()

    def pop(self) -> tuple[int, Node, Node, State]:
        dist, _, _, state, source, node = heapq.heappop(self._heap)
        self._meter.pq_op()
        return dist, source, node, state

    def __bool__(self) -> bool:
        return bool(self._heap)


# ----------------------------------------------------------------------
# Unit-at-a-time baseline (IncRPQn in the paper's experiments)
# ----------------------------------------------------------------------


def inc_rpq_n(index: RPQIndex, delta: Delta) -> RPQDelta:
    """Process ``delta`` one unit update at a time — the IncRPQn
    comparator of Section 6."""
    added: set[tuple[Node, Node]] = set()
    removed: set[tuple[Node, Node]] = set()
    for update in delta:
        if update.is_insert:
            step = index.insert_edge(
                update.source,
                update.target,
                source_label=update.source_label,
                target_label=update.target_label,
            )
        else:
            step = index.delete_edge(update.source, update.target)
        for pair in step.added:
            if pair in removed:
                removed.discard(pair)
            else:
                added.add(pair)
        for pair in step.removed:
            if pair in added:
                added.discard(pair)
            else:
                removed.add(pair)
    return RPQDelta(frozenset(added), frozenset(removed))
