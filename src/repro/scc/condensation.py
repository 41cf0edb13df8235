"""The contracted graph G_c (paper Section 5.3, "Auxiliary structures").

Each SCC of ``G`` is contracted to a single node; G_c keeps

* a **counter** per inter-component edge (the number of underlying graph
  edges), so deletions decrement instead of rescanning,
* a **topological rank** ``r`` per component with the invariant
  ``r(u) > r(v)`` for every edge ``(u, v)`` of G_c — initialized from
  Tarjan's emission order (components are emitted in reverse topological
  order) and maintained under updates by IncSCC.

Ranks are floats (unique and ordered; contiguity is never required):
component splits inject new ranks strictly between existing ones by
interpolation, and in the rare event float precision is exhausted —
detected, never silent — :meth:`Condensation.renumber` reassigns integral
ranks from a fresh topological sort of G_c.

Merges keep the *largest* participant's identity and move the smaller
components' adjacency rows into it; splits keep the identity of the
largest surviving part and re-derive counters only from the *moved*
nodes' incident edges.  Both are the classic small-into-large
amortization: repeatedly merging satellites into a giant component costs
O(satellite), not O(giant).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.cost import CostMeter, NULL_METER
from repro.graph.digraph import DiGraph, Node
from repro.scc.tarjan import TarjanResult

CompId = int


class CondensationError(RuntimeError):
    """Internal inconsistency in the contracted graph."""


@dataclass
class Condensation:
    """Mutable contracted graph with ranks and edge counters.

    ``members`` values are live sets — treat them as read-only views;
    :meth:`partition` returns frozen copies for value comparisons.
    A merge keeps the largest participant's id; a split keeps the largest
    part's id; all other ids involved become invalid and raise loudly.

    Write ``rank`` through :meth:`set_rank` (or :meth:`renumber`): it keeps
    the cached lowest and highest rank exact, which is what places a fresh
    node without scanning every component's rank.
    """

    members: dict[CompId, set[Node]]
    comp_of: dict[Node, CompId]
    succ: dict[CompId, dict[CompId, int]]
    pred: dict[CompId, dict[CompId, int]]
    rank: dict[CompId, float]
    _next_id: int
    # min/max of ``rank``; None = unknown, rescanned on the next read.
    _rank_floor: float | None = field(default=None, repr=False, compare=False)
    _rank_ceiling: float | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_tarjan(cls, graph: DiGraph, result: TarjanResult) -> "Condensation":
        """Build G_c from a fresh Tarjan run.

        Emission index doubles as the initial rank: component ``i`` was
        emitted before every component that can reach it, so ranks increase
        from sinks to sources — exactly ``r(u) > r(v)`` per edge ``(u, v)``.
        """
        members = {index: set(comp) for index, comp in enumerate(result.components)}
        comp_of = dict(result.component_of)
        succ: dict[CompId, dict[CompId, int]] = {index: {} for index in members}
        pred: dict[CompId, dict[CompId, int]] = {index: {} for index in members}
        for source, target in graph.edges():
            source_comp = comp_of[source]
            target_comp = comp_of[target]
            if source_comp == target_comp:
                continue
            succ[source_comp][target_comp] = succ[source_comp].get(target_comp, 0) + 1
            pred[target_comp][source_comp] = pred[target_comp].get(source_comp, 0) + 1
        rank = {index: float(index) for index in members}
        return cls(
            members=members,
            comp_of=comp_of,
            succ=succ,
            pred=pred,
            rank=rank,
            _next_id=len(members),
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def component(self, node: Node) -> CompId:
        try:
            return self.comp_of[node]
        except KeyError:
            raise CondensationError(f"node {node!r} has no component") from None

    def component_nodes(self, comp: CompId) -> set[Node]:
        """Live member set — do not mutate; freeze before storing."""
        return self.members[comp]

    def num_components(self) -> int:
        return len(self.members)

    def partition(self) -> set[frozenset[Node]]:
        return {frozenset(nodes) for nodes in self.members.values()}

    def components_in_rank_order(self) -> list[CompId]:
        """Sinks first (ascending rank) — reverse topological order."""
        return sorted(self.members, key=lambda comp: self.rank[comp])

    # ------------------------------------------------------------------
    # Edge counters
    # ------------------------------------------------------------------

    def add_inter_edge(self, source_comp: CompId, target_comp: CompId) -> int:
        """Record one more graph edge between two distinct components;
        returns the new counter value."""
        if source_comp == target_comp:
            raise CondensationError("intra-component edges are not tracked in G_c")
        count = self.succ[source_comp].get(target_comp, 0) + 1
        self.succ[source_comp][target_comp] = count
        self.pred[target_comp][source_comp] = count
        return count

    def remove_inter_edge(self, source_comp: CompId, target_comp: CompId) -> int:
        """Decrement the counter; drop the G_c edge when it reaches zero."""
        count = self.succ.get(source_comp, {}).get(target_comp, 0)
        if count <= 0:
            raise CondensationError(
                f"no recorded edges from component {source_comp} to {target_comp}"
            )
        count -= 1
        if count:
            self.succ[source_comp][target_comp] = count
            self.pred[target_comp][source_comp] = count
        else:
            del self.succ[source_comp][target_comp]
            del self.pred[target_comp][source_comp]
        return count

    # ------------------------------------------------------------------
    # Singleton node arrival (insertions may create new graph nodes)
    # ------------------------------------------------------------------

    def add_singleton(self, node: Node, above: bool = False) -> CompId:
        """Register a brand-new graph node as its own component.

        A fresh node has no edges, so any rank outside the current range
        keeps the invariant: one below the lowest rank by default, one
        above the highest with ``above=True`` (for a node about to gain an
        outgoing edge).  Both extremes are cached, so this costs O(1).
        """
        if node in self.comp_of:
            raise CondensationError(f"node {node!r} already belongs to a component")
        comp = self._fresh_id()
        self.members[comp] = {node}
        self.comp_of[node] = comp
        self.succ[comp] = {}
        self.pred[comp] = {}
        if above:
            self.set_rank(comp, self._extreme_rank(highest=True) + 1)
        else:
            self.set_rank(comp, self._extreme_rank(highest=False) - 1.0)
        return comp

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------

    def merge(self, comps: Iterable[CompId], new_rank: float) -> CompId:
        """Fuse ``comps`` into the largest of them (the *host*), moving the
        smaller components' adjacency rows over; edges interior to the
        merged set disappear from G_c.  Cost is proportional to the
        non-host components' sizes and adjacency, never the host's."""
        comp_list = list(dict.fromkeys(comps))
        if len(comp_list) < 2:
            raise CondensationError("merge needs at least two distinct components")
        host = max(comp_list, key=lambda comp: len(self.members[comp]))
        others = [comp for comp in comp_list if comp != host]
        inside = set(comp_list)

        # Remove surviving comps' mirror entries pointing at the absorbed
        # rows (entries among ``others`` die with their rows).
        for comp in others:
            for target in self.succ[comp]:
                if target not in inside:
                    del self.pred[target][comp]
                elif target == host:
                    del self.pred[host][comp]
            for source in self.pred[comp]:
                if source not in inside:
                    del self.succ[source][comp]
                elif source == host:
                    del self.succ[host][comp]

        # Host's own rows may still point at absorbed comps (when the host
        # side of the pair was iterated above the entry is gone already).
        for comp in others:
            self.succ[host].pop(comp, None)
            self.pred[host].pop(comp, None)

        # Aggregate absorbed outside-adjacency into the host.
        host_succ = self.succ[host]
        host_pred = self.pred[host]
        for comp in others:
            for target, count in self.succ[comp].items():
                if target not in inside:
                    total = host_succ.get(target, 0) + count
                    host_succ[target] = total
                    self.pred[target][host] = total
            for source, count in self.pred[comp].items():
                if source not in inside:
                    total = host_pred.get(source, 0) + count
                    host_pred[source] = total
                    self.succ[source][host] = total
            host_members = self.members[host]
            for node in self.members[comp]:
                self.comp_of[node] = host
            host_members |= self.members[comp]
            del self.members[comp]
            del self.succ[comp]
            del self.pred[comp]
            self._drop_rank(comp)
        self.set_rank(host, new_rank)
        return host

    # ------------------------------------------------------------------
    # Split
    # ------------------------------------------------------------------

    def split(
        self,
        comp: CompId,
        parts_reverse_topological: Sequence[frozenset[Node]],
        graph: DiGraph,
        meter: CostMeter = NULL_METER,
    ) -> list[CompId]:
        """Replace ``comp`` by ``parts`` (given sinks-first).

        The largest part keeps ``comp``'s identity and adjacency rows;
        counters are fixed up by scanning only the *moved* (non-host)
        nodes' incident edges.  New ranks are spread strictly between the
        highest out-neighbor rank and ``comp``'s old rank, ascending in
        the given order — preserving the global invariant without touching
        any other component's rank.
        """
        old_members = self.members[comp]
        if set().union(*parts_reverse_topological) != old_members:
            raise CondensationError("split parts must partition the component")
        if len(parts_reverse_topological) < 2:
            raise CondensationError("split needs at least two parts")
        count = len(parts_reverse_topological)
        new_ranks = self._interpolated_ranks(comp, count)
        host_position = max(
            range(count), key=lambda position: len(parts_reverse_topological[position])
        )

        new_ids: list[CompId] = []
        moved_nodes: list[tuple[Node, CompId]] = []
        for position, part in enumerate(parts_reverse_topological):
            if position == host_position:
                new_ids.append(comp)
                continue
            new_id = self._fresh_id()
            new_ids.append(new_id)
            self.members[new_id] = set(part)
            self.succ[new_id] = {}
            self.pred[new_id] = {}
            for node in part:
                self.comp_of[node] = new_id
                moved_nodes.append((node, new_id))
        self.members[comp] = set(parts_reverse_topological[host_position])
        for position, new_id in enumerate(new_ids):
            self.set_rank(new_id, new_ranks[position])

        # Counter fix-up from the moved nodes' incident edges only.
        for node, node_comp in moved_nodes:
            meter.visit_node(node)
            for successor in graph.successors(node):
                meter.traverse_edge()
                successor_comp = self.comp_of[successor]
                if successor_comp == node_comp:
                    continue  # intra within the new part
                if successor in old_members:
                    # formerly intra, now inter among the parts; counted
                    # from the source side only (each edge has exactly one
                    # source scan, and host nodes are never scanned but
                    # their outgoing edges are covered by the pred pass).
                    self.add_inter_edge(node_comp, successor_comp)
                else:
                    # formerly counted as comp -> successor_comp: reassign.
                    self.remove_inter_edge(comp, successor_comp)
                    self.add_inter_edge(node_comp, successor_comp)
            for predecessor in graph.predecessors(node):
                meter.traverse_edge()
                predecessor_comp = self.comp_of[predecessor]
                if predecessor_comp == node_comp:
                    continue
                if predecessor in old_members:
                    if predecessor_comp == comp:
                        # host -> moved node: the host side is never
                        # scanned, so count it here.
                        self.add_inter_edge(comp, node_comp)
                    # moved -> moved across parts was counted by the
                    # source side's successor scan.
                else:
                    self.remove_inter_edge(predecessor_comp, comp)
                    self.add_inter_edge(predecessor_comp, node_comp)
        return new_ids

    # ------------------------------------------------------------------
    # Ranks
    # ------------------------------------------------------------------

    def _interpolated_ranks(self, comp: CompId, count: int) -> list[float]:
        """``count`` fresh strictly-increasing ranks in (low, high] where
        high is ``comp``'s rank and low the highest out-neighbor rank.

        The interior candidates are squeezed into the first unit of the
        interval and checked against every *other* component's rank:
        ranks must stay globally unique, or a later ``reallocRank`` can
        hand two components the same value and emit an inter edge between
        equal ranks.  Falls back to :meth:`renumber` once if float
        precision is exhausted or a collision is found (after renumbering,
        all other ranks are integral and the non-integral interior
        candidates cannot collide) — never silently.
        """
        low = high = 0.0
        for attempt in range(2):
            high = self.rank[comp]
            out_ranks = [self.rank[target] for target in self.succ[comp]]
            low = max(out_ranks) if out_ranks else high - 1.0
            span = min(high - low, 1.0)
            candidates = [
                high if position == count - 1
                else low + span * (position + 1) / (count + 1)
                for position in range(count)
            ]
            taken = {
                rank for cid, rank in self.rank.items() if cid != comp
            }
            ordered = all(
                earlier < later for earlier, later in zip(candidates, candidates[1:])
            )
            if (
                ordered
                and candidates[0] > low
                and candidates[-1] <= high
                and not any(candidate in taken for candidate in candidates)
            ):
                return candidates
            if attempt == 0:
                self.renumber()
        raise CondensationError(
            f"cannot interpolate {count} ranks between {low!r} and {high!r}"
        )

    def renumber(self) -> None:
        """Reassign integral ranks from a fresh topological sort of G_c.

        O(|G_c|); only invoked when float interpolation runs out of
        precision, which requires pathologically deep split chains.
        """
        in_degree = {comp: len(preds) for comp, preds in self.pred.items()}
        ready = [comp for comp, degree in in_degree.items() if degree == 0]
        order: list[CompId] = []
        while ready:
            comp = ready.pop()
            order.append(comp)
            for target in self.succ[comp]:
                in_degree[target] -= 1
                if in_degree[target] == 0:
                    ready.append(target)
        if len(order) != len(self.members):
            raise CondensationError("G_c contains a cycle; cannot renumber")
        # Sources first in ``order``; ranks must decrease along edges.
        total = len(order)
        for position, comp in enumerate(order):
            self.rank[comp] = float(total - position)
        self._rank_floor = self._rank_ceiling = None

    def set_rank(self, comp: CompId, value: float) -> None:
        """Write one component's rank, keeping the cached extremes exact:
        an extreme is forgotten only when the rank holding it moves
        inward."""
        old = self.rank.get(comp)
        self.rank[comp] = value
        floor, ceiling = self._rank_floor, self._rank_ceiling
        if floor is not None:
            if value <= floor:
                self._rank_floor = value
            elif old == floor:
                self._rank_floor = None
        if ceiling is not None:
            if value >= ceiling:
                self._rank_ceiling = value
            elif old == ceiling:
                self._rank_ceiling = None

    def _drop_rank(self, comp: CompId) -> None:
        old = self.rank.pop(comp)
        if old == self._rank_floor:
            self._rank_floor = None
        if old == self._rank_ceiling:
            self._rank_ceiling = None

    def _extreme_rank(self, highest: bool) -> float:
        """The highest or lowest rank (0.0 with no components), scanning
        every rank only when the cached value was forgotten."""
        cached = self._rank_ceiling if highest else self._rank_floor
        if cached is not None:
            return cached
        if not self.rank:
            return 0.0
        if highest:
            self._rank_ceiling = max(self.rank.values())
            return self._rank_ceiling
        self._rank_floor = min(self.rank.values())
        return self._rank_floor

    # ------------------------------------------------------------------
    # Validation (tests + defensive fallback)
    # ------------------------------------------------------------------

    def check_rank_invariant(self) -> bool:
        """True iff every G_c edge runs from a higher to a lower rank."""
        return all(
            self.rank[source] > self.rank[target]
            for source, targets in self.succ.items()
            for target in targets
        )

    def check_against(self, graph: DiGraph) -> None:
        """Full consistency audit vs. the underlying graph (test helper).

        Raises :class:`CondensationError` on the first discrepancy.
        """
        from repro.scc.tarjan import tarjan_scc

        fresh = tarjan_scc(graph)
        if set(fresh.components) != self.partition():
            raise CondensationError("component partition diverged from recomputation")
        for node in graph.nodes():
            if self.comp_of.get(node) is None:
                raise CondensationError(f"node {node!r} missing from comp_of")
        expected: dict[tuple[CompId, CompId], int] = {}
        for source, target in graph.edges():
            source_comp = self.comp_of[source]
            target_comp = self.comp_of[target]
            if source_comp != target_comp:
                key = (source_comp, target_comp)
                expected[key] = expected.get(key, 0) + 1
        actual = {
            (source, target): count
            for source, targets in self.succ.items()
            for target, count in targets.items()
        }
        if expected != actual:
            raise CondensationError("edge counters diverged from the graph")
        if not self.check_rank_invariant():
            raise CondensationError("rank invariant violated")

    # ------------------------------------------------------------------

    def _fresh_id(self) -> CompId:
        comp = self._next_id
        self._next_id += 1
        return comp
