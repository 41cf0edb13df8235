"""DynSCC — the dynamic-SCC comparator of Section 6.

The paper's DynSCC "combines the incremental algorithm in [26] (Haeupler
et al., incremental cycle detection / strong component maintenance) to
process insertions and the decremental algorithm in [32] (Łącki) for
deletions", applied one unit update at a time.

We reproduce the *behavioural profile* the paper measures rather than the
exact data structures of [26]/[32] (both are research systems in their own
right):

* every unit update eagerly maintains its dynamic structures — a
  reachability-oriented search per insertion that is not pruned by
  topological ranks, and a per-component decomposition recomputation per
  deletion — so "DynSCC does not do well with small |ΔG| due to its
  additional cost for maintaining dynamic data structures even when the
  output remains stable" (paper Exp-1(3)(b));
* it has no batch grouping, so grouped workloads pay the per-update price
  |ΔG| times.

The maintained output is always correct (verified against Tarjan in the
tests); only the *cost profile* distinguishes it from IncSCC.
"""

from __future__ import annotations

from repro.core.cost import CostMeter, NULL_METER
from repro.core.delta import Delta
from repro.graph.digraph import DiGraph, Node
from repro.scc.tarjan import tarjan_scc


class DynSCC:
    """One-update-at-a-time dynamic SCC maintenance."""

    def __init__(self, graph: DiGraph, meter: CostMeter = NULL_METER) -> None:
        self.graph = graph
        self.meter = meter
        result = tarjan_scc(graph, meter=meter)
        self.comp_of: dict[Node, int] = dict(result.component_of)
        self.members: dict[int, set[Node]] = {
            index: set(comp) for index, comp in enumerate(result.components)
        }
        self._next_id = len(result.components)

    # ------------------------------------------------------------------

    def components(self) -> set[frozenset[Node]]:
        return {frozenset(nodes) for nodes in self.members.values()}

    def apply(self, delta: Delta) -> None:
        """Process each unit update in order (no batching by design)."""
        for update in delta:
            if update.is_insert:
                self._insert(update.source, update.target,
                             update.source_label, update.target_label)
            else:
                self._delete(update.source, update.target)

    # ------------------------------------------------------------------

    def _insert(self, source: Node, target: Node, source_label, target_label) -> None:
        for node, label in ((source, source_label), (target, target_label)):
            if node not in self.graph:
                self.graph.add_node(node, label=label)
                comp = self._next_id
                self._next_id += 1
                self.comp_of[node] = comp
                self.members[comp] = {node}
        self.graph.add_edge(source, target)
        if self.comp_of[source] == self.comp_of[target]:
            return
        # Eager cycle detection: unpruned forward search from the target
        # component; if it reaches the source component, merge every
        # component lying on a source←...←target path.
        forward = self._component_closure_forward(self.comp_of[target])
        if self.comp_of[source] not in forward:
            return
        backward = self._component_closure_backward(self.comp_of[source])
        cycle = forward & backward
        self._merge(cycle)

    def _delete(self, source: Node, target: Node) -> None:
        self.graph.remove_edge(source, target)
        comp = self.comp_of[source]
        if comp != self.comp_of[target]:
            return
        # Decremental maintenance: recompute the decomposition of the one
        # affected component (Łącki-style component splitting).
        nodes = frozenset(self.members[comp])
        result = tarjan_scc(self.graph, meter=self.meter, restrict_to=nodes)
        if len(result.components) == 1:
            return
        del self.members[comp]
        for part in result.components:
            new_comp = self._next_id
            self._next_id += 1
            self.members[new_comp] = set(part)
            for node in part:
                self.comp_of[node] = new_comp

    # ------------------------------------------------------------------

    def _component_closure_forward(self, start: int) -> set[int]:
        """All components reachable from ``start`` (walks graph edges —
        the deliberately unpruned 'dynamic structure maintenance' cost)."""
        seen = {start}
        node_stack = list(self.members[start])
        visited_nodes = set(node_stack)
        while node_stack:
            node = node_stack.pop()
            self.meter.visit_node(node)
            for successor in self.graph.successors(node):
                self.meter.traverse_edge()
                if successor in visited_nodes:
                    continue
                visited_nodes.add(successor)
                seen.add(self.comp_of[successor])
                node_stack.append(successor)
        return seen

    def _component_closure_backward(self, start: int) -> set[int]:
        seen = {start}
        node_stack = list(self.members[start])
        visited_nodes = set(node_stack)
        while node_stack:
            node = node_stack.pop()
            self.meter.visit_node(node)
            for predecessor in self.graph.predecessors(node):
                self.meter.traverse_edge()
                if predecessor in visited_nodes:
                    continue
                visited_nodes.add(predecessor)
                seen.add(self.comp_of[predecessor])
                node_stack.append(predecessor)
        return seen

    def _merge(self, comps: set[int]) -> None:
        merged_nodes: set[Node] = set()
        for comp in comps:
            merged_nodes |= self.members.pop(comp)
        new_comp = self._next_id
        self._next_id += 1
        self.members[new_comp] = merged_nodes
        for node in merged_nodes:
            self.comp_of[node] = new_comp
