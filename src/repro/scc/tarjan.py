"""Tarjan's SCC algorithm [43] with the paper's auxiliary outputs.

Section 5.3 incrementalizes Tarjan, which requires more than the component
partition: the incremental algorithms maintain, per node,

* ``num``     — DFS discovery order (unique integer),
* ``lowlink`` — smallest ``num`` reachable via tree arcs plus at most one
  frond/cross-link within the same component,

an *edge classification* (tree arc / frond / reverse frond / cross-link),
and a *topological rank* per component: Tarjan emits components in reverse
topological order, so ranking components by emission order yields the
invariant ``r(u) > r(v)`` for every inter-component edge ``(u, v)`` — the
property IncSCC+ capitalizes on (Fig. 7).

The classification is kept for *intra-component* edges only: IncSCC's
reverse-frond deletion path (Example 8) consults it inside one component,
and an inter-component edge is tracked by G_c's counters instead.  The
DFS knows which side an edge falls on without buffering: a non-tree edge
whose target is still on Tarjan's stack stays inside the current
component, and a tree arc does when its child returns without having
emitted a component.

``num``/``lowlink`` are returned for callers that inspect one run; the
incremental index does not keep them.

The implementation is iterative (explicit stacks) so graph size is not
limited by Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.cost import CostMeter, NULL_METER
from repro.graph.digraph import DiGraph, Edge, Node


class EdgeKind(Enum):
    """Tarjan's four DFS edge classes (paper Section 5.3)."""

    TREE_ARC = "tree"
    FROND = "frond"            # descendant -> ancestor
    REVERSE_FROND = "reverse"  # ancestor -> descendant (non-tree)
    CROSS_LINK = "cross"       # between different subtrees


@dataclass
class TarjanResult:
    """Everything a run of Tarjan produces.

    ``components`` are frozen node sets in *emission order* — reverse
    topological order of the condensation, which doubles as the initial
    topological rank assignment (component i gets rank i; see
    :mod:`repro.scc.condensation`).  ``edge_kinds`` classifies exactly the
    edges whose endpoints share a component; an edge between components
    never appears in it.
    """

    components: list[frozenset[Node]] = field(default_factory=list)
    num: dict[Node, int] = field(default_factory=dict)
    lowlink: dict[Node, int] = field(default_factory=dict)
    edge_kinds: dict[Edge, EdgeKind] = field(default_factory=dict)
    component_of: dict[Node, int] = field(default_factory=dict)
    roots: list[Node] = field(default_factory=list)

    def component_containing(self, node: Node) -> frozenset[Node]:
        return self.components[self.component_of[node]]

    def partition(self) -> set[frozenset[Node]]:
        """Order-free view for equality checks against recomputation."""
        return set(self.components)

    def __len__(self) -> int:
        return len(self.components)


def tarjan_scc(
    graph: DiGraph,
    meter: CostMeter = NULL_METER,
    restrict_to: frozenset[Node] | None = None,
) -> TarjanResult:
    """Run Tarjan's algorithm over ``graph`` (or the induced subgraph on
    ``restrict_to``) and return the full :class:`TarjanResult`.

    ``restrict_to`` lets IncSCC re-run Tarjan locally on one affected
    component without materializing a subgraph copy — edges leaving the
    restriction set are ignored, matching Tarjan on ``G[restrict_to]``.
    """
    result = TarjanResult()
    num = result.num
    lowlink = result.lowlink
    edge_kinds = result.edge_kinds

    in_scope: frozenset[Node] | None = restrict_to
    counter = 0
    stack: list[Node] = []           # Tarjan's component stack
    on_stack: set[Node] = set()
    # Nodes with a decided component are "closed": edges into them from
    # later subtrees are cross-links.
    ancestors: set[Node] = set()     # nodes on the current DFS call path

    def scope(node: Node) -> bool:
        return in_scope is None or node in in_scope

    for start in graph.nodes():
        if not scope(start) or start in num:
            continue
        # Iterative DFS: each frame is (node, iterator over successors).
        num[start] = lowlink[start] = counter
        counter += 1
        meter.visit_node(start)
        meter.write()
        stack.append(start)
        on_stack.add(start)
        ancestors.add(start)
        call_stack: list[tuple[Node, list[Node], int]] = [
            (start, [s for s in graph.successors(start) if scope(s)], 0)
        ]
        while call_stack:
            node, successors, cursor = call_stack[-1]
            advanced = False
            while cursor < len(successors):
                successor = successors[cursor]
                cursor += 1
                meter.traverse_edge()
                if successor not in num:
                    # A tree arc: classified when the child returns.
                    num[successor] = lowlink[successor] = counter
                    counter += 1
                    meter.visit_node(successor)
                    meter.write()
                    stack.append(successor)
                    on_stack.add(successor)
                    ancestors.add(successor)
                    call_stack[-1] = (node, successors, cursor)
                    call_stack.append(
                        (successor, [s for s in graph.successors(successor) if scope(s)], 0)
                    )
                    advanced = True
                    break
                # Already discovered.  A target still on the stack is in
                # the current component: classify it and maybe update
                # lowlink.  A target off the stack sits in a component
                # emitted earlier, so the edge is inter-component.
                if successor in on_stack:
                    if successor in ancestors:
                        edge_kinds[(node, successor)] = EdgeKind.FROND
                    elif num[successor] > num[node]:
                        edge_kinds[(node, successor)] = EdgeKind.REVERSE_FROND
                    else:
                        edge_kinds[(node, successor)] = EdgeKind.CROSS_LINK
                    if num[successor] < lowlink[node]:
                        lowlink[node] = num[successor]
                        meter.write()
            if advanced:
                continue
            call_stack.pop()
            ancestors.discard(node)
            if call_stack:
                parent = call_stack[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
                    meter.write()
                if lowlink[node] < num[node]:
                    # Not a root: node stays on the stack, in its parent's
                    # component.
                    edge_kinds[(parent, node)] = EdgeKind.TREE_ARC
            if lowlink[node] == num[node]:
                # node is the root of an SCC: pop the component.
                component: list[Node] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                index = len(result.components)
                result.components.append(frozenset(component))
                result.roots.append(node)
                for member in component:
                    result.component_of[member] = index
    return result


def condensation_edges(
    graph: DiGraph,
    result: TarjanResult,
) -> dict[tuple[int, int], int]:
    """Count inter-component edges: ``(source_comp, target_comp) -> count``.

    The contracted graph G_c "maintains a counter for the number of
    cross-links from one node to another" (Section 5.3); the counter lets
    IncSCC− decrement instead of rescanning on inter-component deletions.
    """
    counters: dict[tuple[int, int], int] = {}
    component_of = result.component_of
    for source, target in graph.edges():
        source_comp = component_of[source]
        target_comp = component_of[target]
        if source_comp != target_comp:
            key = (source_comp, target_comp)
            counters[key] = counters.get(key, 0) + 1
    return counters


def is_strongly_connected(graph: DiGraph, nodes: frozenset[Node]) -> bool:
    """Check that ``nodes`` induce one SCC (test helper)."""
    if not nodes:
        return False
    result = tarjan_scc(graph, restrict_to=nodes)
    return len(result.components) == 1 and result.components[0] == nodes


def verify_rank_invariant(
    graph: DiGraph,
    result: TarjanResult,
    ranks: dict[int, int] | None = None,
) -> bool:
    """Check ``r(u) > r(v)`` for every inter-component edge ``(u, v)``.

    With ``ranks`` omitted, emission order is used (component index).
    """
    component_of = result.component_of
    rank_of = ranks if ranks is not None else {i: i for i in range(len(result.components))}
    for source, target in graph.edges():
        source_comp = component_of[source]
        target_comp = component_of[target]
        if source_comp == target_comp:
            continue
        if not rank_of[source_comp] > rank_of[target_comp]:
            return False
    return True
