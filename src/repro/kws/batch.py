"""Batch keyword search — the role BLINKS [27] plays in the paper's
experiments: given Q = (k1..km) and bound b, compute kdist(·) and Q(G)
from scratch.

Per keyword, a multi-source *reverse* BFS from all nodes labeled ``k``
computes bounded shortest forward distances in O(|V| + |E|); a second pass
derives deterministic ``next`` pointers (smallest successor in the fixed
node order among those one step closer).  Total O(m(|V| + |E|)) — the
unit-weight instantiation of the paper's O(m(|V| log |V| + |E|)) bound,
which covers weighted generalizations.
"""

from __future__ import annotations

from collections import deque

from repro.core.cost import CostMeter, NULL_METER
from repro.graph.digraph import DiGraph, Label
from repro.kws.kdist import KDistEntry, KDistIndex, KWSQuery, node_order
from repro.kws.matches import all_matches


def compute_kdist(
    graph: DiGraph,
    query: KWSQuery,
    meter: CostMeter = NULL_METER,
) -> KDistIndex:
    """Build kdist(·) for ``query`` over ``graph`` from scratch."""
    index = KDistIndex(query)
    for keyword in query.keywords:
        _bfs_one_keyword(graph, query.bound, keyword, index, meter)
    return index


def _bfs_one_keyword(
    graph: DiGraph,
    bound: int,
    keyword: Label,
    index: KDistIndex,
    meter: CostMeter,
) -> None:
    """Reverse BFS from keyword nodes; then fix next pointers."""
    dist: dict = {}
    frontier = deque()
    for node in graph.nodes_with_label(keyword):
        dist[node] = 0
        frontier.append(node)
    while frontier:
        node = frontier.popleft()
        meter.visit_node(node)
        depth = dist[node]
        if depth == bound:
            continue
        for predecessor in graph.predecessors(node):
            meter.traverse_edge()
            if predecessor not in dist:
                dist[predecessor] = depth + 1
                frontier.append(predecessor)
    for node, depth in dist.items():
        if depth == 0:
            index.set(node, keyword, KDistEntry(0, None))
            meter.write()
            continue
        next_hop = min(
            (
                successor
                for successor in graph.successors(node)
                if dist.get(successor, bound + 1) == depth - 1
            ),
            key=node_order,
        )
        index.set(node, keyword, KDistEntry(depth, next_hop))
        meter.write()


def batch_kws(
    graph: DiGraph,
    query: KWSQuery,
    meter: CostMeter = NULL_METER,
) -> dict:
    """Recompute Q(G) from scratch — the batch comparator in benchmarks."""
    return all_matches(compute_kdist(graph, query, meter=meter))


def verify_kdist(graph: DiGraph, index: KDistIndex) -> None:
    """Audit an (incrementally maintained) index against recomputation.

    Distances must agree exactly; ``next`` pointers must be *valid* (one
    step closer along an existing edge) but may differ from the batch
    tie-break after incremental updates: Q(G) fixes the distances, not
    which of several equally close next hops a match takes.
    """
    fresh = compute_kdist(graph, index.query)
    for keyword in index.query.keywords:
        maintained = index.entries(keyword)
        recomputed = fresh.entries(keyword)
        if maintained.keys() != recomputed.keys():
            missing = recomputed.keys() - maintained.keys()
            spurious = maintained.keys() - recomputed.keys()
            raise AssertionError(
                f"kdist domain mismatch for {keyword!r}: "
                f"missing={sorted(map(repr, missing))[:5]} "
                f"spurious={sorted(map(repr, spurious))[:5]}"
            )
        for node, entry in maintained.items():
            expected = recomputed[node]
            if entry.dist != expected.dist:
                raise AssertionError(
                    f"dist mismatch at {node!r}/{keyword!r}: "
                    f"maintained {entry.dist}, recomputed {expected.dist}"
                )
            if entry.dist > 0:
                if not graph.has_edge(node, entry.next):
                    raise AssertionError(
                        f"next pointer {node!r}->{entry.next!r} is not an edge"
                    )
                next_entry = maintained.get(entry.next)
                if next_entry is None or next_entry.dist != entry.dist - 1:
                    raise AssertionError(
                        f"next pointer {node!r}->{entry.next!r} not one step closer"
                    )
    index.check_shape()
