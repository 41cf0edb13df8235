"""IncSCC — bounded incremental SCC maintenance relative to Tarjan
(paper Section 5.3, Figures 6-7, Examples 6-9).

:class:`SCCIndex` owns a graph plus the one Tarjan auxiliary structure
the algorithms read (the edge classification inside each component, for
the reverse-frond deletion path) and the contracted graph G_c with
topological ranks, and repairs all of them under updates:

* **IncSCC+** (:meth:`SCCIndex.insert_edge`, paper Fig. 7): an insertion
  within one component only marks its edge classification stale; an
  insertion respecting the rank order just bumps a G_c counter; a
  rank-violating insertion triggers the bounded bidirectional search
  DFSf/DFSb over G_c, a cycle check on the affected area, and either a
  component merge or ``reallocRank``.
* **IncSCC−** (:meth:`SCCIndex.delete_edge`): an inter-component deletion
  decrements a counter; an intra-component deletion of a *reverse frond*
  is simply dropped (the DFS tree path witnesses reachability —
  Example 8); any other intra deletion re-runs Tarjan restricted to that
  component (chkReach + split, Example 9).
* **batch IncSCC** (:meth:`SCCIndex.absorb`): handles inter deletions
  by counters, groups intra-component updates per component (one local
  Tarjan per affected component instead of one per update), then
  processes inter insertions.  Rank-violating inter insertions are
  repaired one at a time because the single-edge search/realloc
  procedure is only sound when every other G_c edge already satisfies
  the rank invariant; the grouped intra/deletion phases are where the
  batch savings shown in the paper's ablation arise.

Tarjan's ``num``/``lowlink`` are not kept: every restricted Tarjan run
recomputes them from scratch, and nothing between runs reads them.  The
edge classification is kept only for components with intra-component
edges, from each component's latest (re-)computation.

ΔO is reported as ``(added_components, removed_components)`` per the
paper's definition ``SCC(G ⊕ ΔG) = SCC(G) ⊕ ΔO``.

Rank-window soundness (used by ``reallocRank``): for a violating insertion
``(v, w)`` let F be the components forward-reachable from scc(w) with rank
≥ r(scc(v)) and B those backward-reachable from scc(v) with rank ≤
r(scc(w)).  All F ∪ B ranks lie in the window [r(scc(v)), r(scc(w))]; a
cycle exists iff F ∩ B ≠ ∅ and then C = F ∩ B is exactly the set of
components on cycles through the new edge.  Reassigning the pooled window
ranks ascending as (F \\ C by old rank) < merged < (B \\ C by old rank)
moves F-components only down and B-components only up, which preserves
every boundary edge's orientation (nodes outside the window are either
above it or below it and stay on the correct side).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.cost import CostMeter, NULL_METER
from repro.core.delta import Delta, Update
from repro.engine.relevance import SubscribeAll
from repro.engine.view import IncrementalView, ViewSnapshot
from repro.graph.digraph import DiGraph, Edge, Node
from repro.kws.kdist import sorted_nodes
from repro.scc.condensation import CompId, Condensation
from repro.scc.tarjan import EdgeKind, TarjanResult, tarjan_scc

SCCDelta = tuple[set[frozenset[Node]], set[frozenset[Node]]]


class SCCIndex(IncrementalView):
    """Incrementally maintained SCC(G) with Tarjan's auxiliary structures."""

    def __init__(self, graph: DiGraph, meter: CostMeter = NULL_METER) -> None:
        self.graph = graph
        self.meter = meter
        # What a split's counter fix-up scan should see; absorb
        # temporarily swaps in an _EdgeOverlay so counters and scan stay
        # in sync.
        self._split_view: DiGraph | "_EdgeOverlay" = graph
        result = tarjan_scc(graph, meter=meter)
        self.cond = Condensation.from_tarjan(graph, result)
        # Intra-component edge classification per component, from that
        # component's latest Tarjan pass; consulted by the reverse-frond
        # deletion fast path.  A component without intra-component edges
        # has no entry.  from_tarjan numbers components by emission index.
        self._edge_kinds: dict[CompId, dict[Edge, EdgeKind]] = {}
        self._keep_edge_kinds(range(len(result.components)), result)
        # Components whose edge-kind caches are out of date.  Partition
        # correctness never depends on them; they are refreshed by the
        # next restricted Tarjan that actually needs them.
        self._stale: set[CompId] = set()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def components(self) -> set[frozenset[Node]]:
        """The current SCC(G)."""
        return self.cond.partition()

    def component_of(self, node: Node) -> frozenset[Node]:
        return frozenset(self.cond.component_nodes(self.cond.component(node)))

    def same_component(self, first: Node, second: Node) -> bool:
        return self.cond.component(first) == self.cond.component(second)

    # ------------------------------------------------------------------
    # IncSCC+ : unit insertion (paper Fig. 7)
    # ------------------------------------------------------------------

    def insert_edge(self, source: Node, target: Node, **labels) -> SCCDelta:
        """Insert ``(source, target)`` and repair; returns ΔO."""
        self.graph.add_edge(source, target, **labels)
        added = self._realize_new_endpoints(source, target)

        source_comp = self.cond.component(source)
        target_comp = self.cond.component(target)
        if source_comp == target_comp:
            # Fig. 7 lines 1-2: same component — the partition is
            # unchanged; auxiliary structures go stale and are rebuilt by
            # the next operation that needs them.
            self._mark_stale(source_comp)
            return added, set()
        if self.cond.rank[source_comp] > self.cond.rank[target_comp]:
            # Fig. 7 line 3: rank order consistent — counter bump only.
            self.cond.add_inter_edge(source_comp, target_comp)
            return added, set()
        gained, lost = self._handle_rank_violation(source_comp, target_comp)
        return _fold_delta(added, set(), gained, lost)

    def _realize_new_endpoints(
        self, source: Node, target: Node
    ) -> set[frozenset[Node]]:
        """Register endpoints the condensation has not seen yet as
        singleton components, placed so the incoming edge cannot violate
        ranks: a fresh *source* goes above all ranks, a fresh *target*
        below."""
        added: set[frozenset[Node]] = set()
        for node, is_source in ((source, True), (target, False)):
            if node not in self.cond.comp_of:
                self.cond.add_singleton(node, above=is_source)
                added.add(frozenset([node]))
        return added

    def _handle_rank_violation(
        self,
        source_comp: CompId,
        target_comp: CompId,
    ) -> SCCDelta:
        """Fig. 7 lines 4-9: bidirectional search, cycle check, merge or
        reallocRank.  The new edge is in the graph but not yet in G_c."""
        rank = self.cond.rank
        floor = rank[source_comp]     # r(scc(v))
        ceiling = rank[target_comp]   # r(scc(w))
        aff_forward = self._dfs_forward(target_comp, floor)
        aff_backward = self._dfs_backward(source_comp, ceiling)
        cycle = aff_forward & aff_backward
        if not cycle:
            # No new SCC: record the edge, then reallocate ranks so every
            # forward-affected component sits below every backward one.
            self.cond.add_inter_edge(source_comp, target_comp)
            self._realloc_ranks(aff_forward, aff_backward, merged=None, freed=[])
            return set(), set()
        # freeze before merging: the host component's member set is
        # mutated in place by cond.merge.
        removed = {frozenset(self.cond.component_nodes(comp)) for comp in cycle}
        freed = [rank[comp] for comp in cycle]
        for comp in cycle:
            self._edge_kinds.pop(comp, None)
        merged = self.cond.merge(cycle, new_rank=floor)  # placeholder, fixed below
        self._realloc_ranks(
            aff_forward - cycle, aff_backward - cycle, merged=merged, freed=freed
        )
        self._mark_stale(merged)
        added = {frozenset(self.cond.component_nodes(merged))}
        return added, removed

    def _dfs_forward(self, start: CompId, floor: float) -> set[CompId]:
        """DFSf: components reachable from ``start`` with rank ≥ ``floor``.

        The inclusive bound lets the search reach scc(v) itself, which is
        how a cycle manifests (F ∩ B ≠ ∅) even for two-component cycles.
        """
        seen = {start}
        stack = [start]
        while stack:
            comp = stack.pop()
            self.meter.visit_node(("comp", comp))
            for successor in self.cond.succ[comp]:
                self.meter.traverse_edge()
                if successor not in seen and self.cond.rank[successor] >= floor:
                    seen.add(successor)
                    stack.append(successor)
        return seen

    def _dfs_backward(self, start: CompId, ceiling: float) -> set[CompId]:
        """DFSb: components reaching ``start`` with rank ≤ ``ceiling``."""
        seen = {start}
        stack = [start]
        while stack:
            comp = stack.pop()
            self.meter.visit_node(("comp", comp))
            for predecessor in self.cond.pred[comp]:
                self.meter.traverse_edge()
                if predecessor not in seen and self.cond.rank[predecessor] <= ceiling:
                    seen.add(predecessor)
                    stack.append(predecessor)
        return seen

    def _realloc_ranks(
        self,
        aff_forward: set[CompId],
        aff_backward: set[CompId],
        merged: CompId | None,
        freed: list[float],
    ) -> None:
        """reallocRank (Fig. 7 line 9), extended to cover the merge case.

        Pool = previous ranks of all affected components plus the ranks
        freed by a merge.  Assignment ascending: forward components by
        previous rank, then the merged component, then backward components
        (which receive the *largest* pool values, preserving their old
        order).  Spare pool values after a merge are simply discarded —
        ranks need only stay unique and ordered, not contiguous.
        """
        rank = self.cond.rank
        forward_sorted = sorted(aff_forward, key=lambda comp: rank[comp])
        backward_sorted = sorted(aff_backward, key=lambda comp: rank[comp])
        pool = [rank[comp] for comp in forward_sorted]
        pool += [rank[comp] for comp in backward_sorted]
        pool += freed
        pool.sort()
        position = 0
        for comp in forward_sorted:
            self._set_rank(comp, pool[position])
            position += 1
        if merged is not None:
            self._set_rank(merged, pool[position])
        tail = len(pool) - len(backward_sorted)
        for offset, comp in enumerate(backward_sorted):
            self._set_rank(comp, pool[tail + offset])

    def _set_rank(self, comp: CompId, value: float) -> None:
        if self.cond.rank[comp] != value:
            self.cond.set_rank(comp, value)
            self.meter.write()

    # ------------------------------------------------------------------
    # IncSCC− : unit deletion
    # ------------------------------------------------------------------

    def delete_edge(self, source: Node, target: Node) -> SCCDelta:
        """Delete ``(source, target)`` and repair; returns ΔO."""
        self.graph.remove_edge(source, target)
        source_comp = self.cond.component(source)
        target_comp = self.cond.component(target)
        if source_comp != target_comp:
            # Deleting an inter-component edge can never change SCC(G).
            self.cond.remove_inter_edge(source_comp, target_comp)
            return set(), set()
        if source_comp not in self._stale:
            kinds = self._edge_kinds.get(source_comp)
            if kinds is not None and kinds.get((source, target)) is EdgeKind.REVERSE_FROND:
                # Example 8: a reverse frond duplicates a tree path, so the
                # component stays strongly connected and lowlink never read
                # it — delete without any traversal.
                del kinds[(source, target)]
                return set(), set()
        if self._still_reaches(source_comp, source, target):
            # chkReach succeeded: v still reaches w inside the component,
            # so it remains strongly connected; caches go stale only.
            self._mark_stale(source_comp)
            return set(), set()
        return self._recheck_component(source_comp)

    def _recheck_component(self, comp: CompId) -> SCCDelta:
        """Re-run Tarjan restricted to the component: refresh structures
        and split if strong connectivity was lost."""
        members = frozenset(self.cond.component_nodes(comp))
        result = tarjan_scc(self.graph, meter=self.meter, restrict_to=members)
        self._stale.discard(comp)
        parts = result.components  # emission order = reverse topological
        if len(parts) == 1:
            # Still one SCC: edge kinds refreshed, output unchanged.
            self._keep_edge_kinds([comp], result)
            return set(), set()
        new_ids = self.cond.split(comp, parts, self._split_view, meter=self.meter)
        self._keep_edge_kinds(new_ids, result)
        return set(parts), {members}

    def _still_reaches(self, comp: CompId, source: Node, target: Node) -> bool:
        """chkReach: does ``source`` still reach ``target`` inside the
        component?  (Deleting (v, w) splits the SCC iff v no longer
        reaches w.)

        Bidirectional search — forward from ``source``, backward from
        ``target``, always expanding the smaller frontier — which explores
        far less of a large strongly connected component than one-sided
        BFS before the frontiers meet."""
        members = self.cond.component_nodes(comp)
        if source == target:
            return True
        forward_seen = {source}
        backward_seen = {target}
        forward_frontier = [source]
        backward_frontier = [target]
        while forward_frontier and backward_frontier:
            if len(forward_frontier) <= len(backward_frontier):
                next_frontier = []
                for node in forward_frontier:
                    self.meter.visit_node(node)
                    for successor in self.graph.successors(node):
                        self.meter.traverse_edge()
                        if successor in backward_seen:
                            return True
                        if successor in members and successor not in forward_seen:
                            forward_seen.add(successor)
                            next_frontier.append(successor)
                forward_frontier = next_frontier
            else:
                next_frontier = []
                for node in backward_frontier:
                    self.meter.visit_node(node)
                    for predecessor in self.graph.predecessors(node):
                        self.meter.traverse_edge()
                        if predecessor in forward_seen:
                            return True
                        if predecessor in members and predecessor not in backward_seen:
                            backward_seen.add(predecessor)
                            next_frontier.append(predecessor)
                backward_frontier = next_frontier
        return False

    # ------------------------------------------------------------------
    # Batch IncSCC
    # ------------------------------------------------------------------

    def absorb(self, delta: Delta, new_nodes) -> SCCDelta:
        """Process a normalized batch the graph already holds
        (``G ⊕ ΔG``), grouping work per affected component.  The batch's
        new nodes become singleton components, placed by the side of the
        first insertion that names them.

        Returns ΔO = (added components, removed components), net of
        components that appear and disappear within the batch.
        """
        # Phase 0: realize brand-new nodes and classify updates against
        # the component structure at batch start.  Inter deletions only
        # decrement counters, so they are done here: the graph no longer
        # holds those edges, and from now on the counters agree.
        intra_groups: dict[CompId, list[Update]] = {}
        inter_insertions: list[Update] = []
        added_total: set[frozenset[Node]] = set()
        removed_total: set[frozenset[Node]] = set()
        for update in delta:
            if update.is_insert:
                added_total |= self._realize_new_endpoints(
                    update.source, update.target
                )
            source_comp = self.cond.component(update.source)
            target_comp = self.cond.component(update.target)
            if source_comp == target_comp:
                intra_groups.setdefault(source_comp, []).append(update)
            elif update.is_insert:
                inter_insertions.append(update)
            else:
                self.cond.remove_inter_edge(source_comp, target_comp)

        # Phase 1: intra-component updates, grouped per component.  One
        # chkReach pass over a component's deleted edges decides whether
        # it can possibly have split (if every deleted (v, w) still has
        # v ⇝ w, every old path can be patched, so the component is
        # intact and only the caches go stale).  At most one restricted
        # Tarjan runs per affected component regardless of the batch
        # size.  A split's counter fix-up scans the graph, so the inter
        # insertions — not counted until phase 2 — are hidden from it.
        if inter_insertions:
            self._split_view = _EdgeOverlay(
                self.graph, {update.edge for update in inter_insertions}
            )
        try:
            for comp, updates in intra_groups.items():
                if all(
                    self._still_reaches(comp, update.source, update.target)
                    for update in updates
                    if update.is_delete
                ):
                    self._mark_stale(comp)
                    continue
                gained, lost = self._recheck_component(comp)
                added_total, removed_total = _fold_delta(
                    added_total, removed_total, gained, lost
                )
        finally:
            self._split_view = self.graph

        # Phase 2: inter-component insertions.  Components may have split
        # or merged meanwhile, so classification is re-evaluated per edge.
        for update in inter_insertions:
            source_comp = self.cond.component(update.source)
            target_comp = self.cond.component(update.target)
            if source_comp == target_comp:
                self._mark_stale(source_comp)
                continue
            if self.cond.rank[source_comp] > self.cond.rank[target_comp]:
                self.cond.add_inter_edge(source_comp, target_comp)
                continue
            gained, lost = self._handle_rank_violation(source_comp, target_comp)
            added_total, removed_total = _fold_delta(
                added_total, removed_total, gained, lost
            )
        return added_total, removed_total

    # ------------------------------------------------------------------
    # Engine routing (repro.engine.relevance)
    # ------------------------------------------------------------------

    def relevance(self) -> SubscribeAll:
        """The correctness escape hatch: SCC(G) depends on topology
        alone — any insertion can close a cycle and any deletion can
        break one, whatever the labels — so the view subscribes to every
        edge and is never skipped on a non-empty batch."""
        return SubscribeAll()

    def empty_output(self) -> SCCDelta:
        """The ΔO of an empty batch."""
        return set(), set()

    # ------------------------------------------------------------------
    # Persistence (repro.persist)
    # ------------------------------------------------------------------

    def snapshot(self) -> ViewSnapshot:
        """Capture the partition and ranks as token rows.

        Config row: ``(next_component_id,)``.  One record per component
        in ascending component-id order (the canonical order, so
        behaviorally identical indexes serialize byte-identically):
        ``(comp_id, rank, member...)`` with the float rank carried as its
        ``repr`` string (ranks need only stay unique and ordered;
        ``repr`` round-trips floats exactly).  Inter-edge counters are
        derived by one edge scan on restore, and the edge-kind caches
        are deliberately dropped — the partition never depends on
        them, so the restored index starts with every
        component marked stale and rebuilds caches lazily, exactly like
        a component after an in-place intra-component insertion.
        """
        records = []
        members, rank = self.cond.members, self.cond.rank
        for comp_id in sorted(members):
            nodes = members[comp_id]
            if len(nodes) > 1:
                nodes = sorted_nodes(nodes)
            records.append((comp_id, repr(rank[comp_id]), *nodes))
        return ViewSnapshot(
            kind="scc", config=(self.cond._next_id,), records=tuple(records)
        )

    @classmethod
    def restore(
        cls,
        graph: DiGraph,
        state: ViewSnapshot,
        meter: CostMeter = NULL_METER,
    ) -> "SCCIndex":
        """Rebuild an index over ``graph`` from a snapshot — one O(|E|)
        counter scan instead of a full Tarjan pass, no recursion."""
        if state.kind != "scc":
            raise ValueError(f"expected an 'scc' snapshot, got {state.kind!r}")
        index = cls.__new__(cls)
        index.graph = graph
        index.meter = meter
        index._split_view = graph
        members: dict[CompId, set[Node]] = {}
        comp_of: dict[Node, CompId] = {}
        rank: dict[CompId, float] = {}
        for row in state.records:
            comp = int(row[0])
            rank[comp] = float(row[1])
            members[comp] = set(row[2:])
            for node in row[2:]:
                comp_of[node] = comp
        succ: dict[CompId, dict[CompId, int]] = {comp: {} for comp in members}
        pred: dict[CompId, dict[CompId, int]] = {comp: {} for comp in members}
        for source, target in graph.edges():
            source_comp = comp_of[source]
            target_comp = comp_of[target]
            if source_comp == target_comp:
                continue
            count = succ[source_comp].get(target_comp, 0) + 1
            succ[source_comp][target_comp] = count
            pred[target_comp][source_comp] = count
        index.cond = Condensation(
            members=members,
            comp_of=comp_of,
            succ=succ,
            pred=pred,
            rank=rank,
            _next_id=int(state.config[0]),
        )
        index._edge_kinds = {}
        index._stale = set(members)
        return index

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _mark_stale(self, comp: CompId) -> None:
        """Invalidate a component's edge-kind cache.

        The partition itself stays exact; stale caches only disable the
        reverse-frond deletion fast path until the next restricted Tarjan
        (run by :meth:`_recheck_component`) rebuilds them.
        """
        self._stale.add(comp)
        self._edge_kinds.pop(comp, None)

    def refresh_component(self, comp: CompId) -> None:
        """Eagerly rebuild one component's edge-kind cache (public hook;
        the algorithms themselves refresh lazily)."""
        members = self.cond.component_nodes(comp)
        result = tarjan_scc(self.graph, meter=self.meter, restrict_to=members)
        self._keep_edge_kinds([comp], result)
        self._stale.discard(comp)

    def _keep_edge_kinds(
        self, comp_ids: Sequence[CompId], result: TarjanResult
    ) -> None:
        """File a Tarjan run's edge kinds under the components it emitted
        (``comp_ids[i]`` is emitted component ``i``), replacing their old
        maps.  A component without intra-component edges gets no map."""
        for comp_id in comp_ids:
            self._edge_kinds.pop(comp_id, None)
        component_of = result.component_of
        for edge, kind in result.edge_kinds.items():
            comp_id = comp_ids[component_of[edge[0]]]
            kinds = self._edge_kinds.get(comp_id)
            if kinds is None:
                kinds = self._edge_kinds[comp_id] = {}
            kinds[edge] = kind

    def check_consistency(self) -> None:
        """Audit every maintained structure against recomputation."""
        self.cond.check_against(self.graph)


def _fold_delta(
    added: set[frozenset[Node]],
    removed: set[frozenset[Node]],
    gained: set[frozenset[Node]],
    lost: set[frozenset[Node]],
) -> tuple[set[frozenset[Node]], set[frozenset[Node]]]:
    """Accumulate per-step ΔO so transients net out of the batch ΔO."""
    added = set(added)
    removed = set(removed)
    for comp in lost:
        if comp in added:
            added.discard(comp)  # appeared and disappeared within the batch
        else:
            removed.add(comp)
    for comp in gained:
        if comp in removed:
            removed.discard(comp)  # disappeared and reappeared
        else:
            added.add(comp)
    return added, removed


class _EdgeOverlay:
    """Adjacency view of ``graph`` with ``hidden`` edges masked out.

    Used by :meth:`SCCIndex.absorb` during phase 1 so
    :meth:`Condensation.split`'s counter fix-up scan sees the edge set the
    inter-edge counters describe: the final graph minus the batch's
    not-yet-counted inter insertions.  Only ``successors``/
    ``predecessors`` are needed by the scan.
    """

    __slots__ = ("_graph", "_hidden")

    def __init__(self, graph: DiGraph, hidden: set[Edge]) -> None:
        self._graph = graph
        self._hidden = hidden

    def successors(self, node: Node):
        for target in self._graph.successors(node):
            if (node, target) not in self._hidden:
                yield target

    def predecessors(self, node: Node):
        for source in self._graph.predecessors(node):
            if (source, node) not in self._hidden:
                yield source


# ----------------------------------------------------------------------
# Unit-at-a-time baseline (IncSCCn in the paper's experiments)
# ----------------------------------------------------------------------


def inc_scc_n(index: SCCIndex, delta: Delta) -> SCCDelta:
    """Process ``delta`` one unit update at a time (no grouping).

    This is the ``IncSCCn`` comparator of Section 6: it calls the unit
    algorithms developed in this work for each update in turn.
    """
    added: set[frozenset[Node]] = set()
    removed: set[frozenset[Node]] = set()
    for update in delta:
        if update.is_insert:
            gained, lost = index.insert_edge(
                update.source,
                update.target,
                source_label=update.source_label,
                target_label=update.target_label,
            )
        else:
            gained, lost = index.delete_edge(update.source, update.target)
        added, removed = _fold_delta(added, removed, gained, lost)
    return added, removed
