"""Built-in dataflow programs — the standing-query workloads.

Four programs register at import time:

* ``rpq`` (args: query text) — regular path queries as a composition:
  the Glushkov NFA's transition table becomes a static relation, the
  product-graph step is two joins, and reachability is a bounded
  ``fixpoint``.  Answer-equivalent to the hand-written
  :class:`~repro.rpq.incremental.RPQIndex` (the parity suite holds them
  byte-identical), and it declares the identical
  :class:`~repro.engine.relevance.AlphabetRelevance` routing filter.
* ``edge-label-count`` — per ``(source_label, target_label)`` edge
  counts, a ``map`` + ``reduce`` aggregation.
* ``two-hop`` — the distinct ``(x, y, z)`` paths of length two, a
  self-``join`` on the edge relation.
* ``triangle-count`` — the number of directed 3-cycles, maintained as a
  three-atom ``multijoin`` → canonical rotation → ``distinct`` →
  ``count``.

Example::

    >>> from repro import DiGraph
    >>> from repro.dataflow import DataflowView
    >>> g = DiGraph(labels={1: "a", 2: "a", 3: "a"},
    ...             edges=[(1, 2), (2, 3), (3, 1)])
    >>> DataflowView(g, "triangle-count").value()
    1
    >>> sorted(DataflowView(g, "two-hop").value())
    [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
"""

from __future__ import annotations

from repro.engine.relevance import AlphabetRelevance
from repro.rpq.batch import compile_query

from repro.dataflow.view import GraphInputs, register_program
from repro.dataflow.runtime import Dataflow, Node, row_order

__all__ = [
    "build_edge_label_count",
    "build_rpq",
    "build_triangle_count",
    "build_two_hop",
    "rpq_relevance",
]

#: Product reachability converges in at most |V|·|Q| iterations; the
#: bound only exists to turn a runaway recursion into a loud error.
RPQ_FIXPOINT_BOUND = 4096


# ----------------------------------------------------------------------
# rpq — NFA product via join + fixpoint (parity target)
# ----------------------------------------------------------------------


def build_rpq(flow: Dataflow, inputs: GraphInputs, query: str) -> Node:
    """RPQ matches ``(u, v)`` as a dataflow composition.

    Semantics mirror the product BFS of :mod:`repro.rpq.batch`: an
    entry ``(u, v, s)`` means state ``s`` is reachable at ``v`` from
    ``u``'s bootstrap (``s ∈ δ(s0, l(u))`` — the first transition
    consumes the source's own label, so single-node matches exist and
    the empty word is never spellable); a hop over edge ``(x, y)``
    steps ``s' ∈ δ(s, l(y))``; ``(u, v)`` matches when an accepting
    state is reachable at ``v``.
    """
    _, nfa = compile_query(query)
    transitions = flow.var(name="rpq.nfa")
    transitions.update(
        {
            (state, label, target): 1
            for state, by_label in nfa.transitions.items()
            for label, targets in by_label.items()
            for target in targets
        }
    )
    initial = nfa.initial
    start = flow.filter(
        transitions, lambda row: row[0] == initial, name="rpq.start"
    )
    base = flow.join(
        inputs.nodes,
        start,
        left_key=lambda n: n[1],
        right_key=lambda t: t[1],
        merge=lambda n, t: (n[0], n[0], t[2]),
        name="rpq.base",
    )

    def step(recur: Node) -> Node:
        hop = flow.join(
            recur,
            inputs.edges,
            left_key=lambda r: r[1],
            right_key=lambda e: e[0],
            merge=lambda r, e: (r[0], r[2], e[1], e[3]),
            name="rpq.hop",
        )
        return flow.join(
            hop,
            transitions,
            left_key=lambda h: (h[1], h[3]),
            right_key=lambda t: (t[0], t[1]),
            merge=lambda h, t: (h[0], h[2], t[2]),
            name="rpq.step",
        )

    reach = flow.fixpoint(base, step, bound=RPQ_FIXPOINT_BOUND, name="rpq.reach")
    accepting = nfa.accepting
    pairs = flow.map(
        reach,
        lambda r: (r[0], r[1]) if r[2] in accepting else None,
        name="rpq.pairs",
    )
    return flow.distinct(pairs, name="rpq.matches")


def rpq_relevance(query: str) -> AlphabetRelevance:
    """The identical routing filter :class:`~repro.rpq.incremental.
    RPQIndex` declares — product edges consume target labels, bootstraps
    consume start labels."""
    _, nfa = compile_query(query)
    alphabet = nfa.alphabet()
    start_labels = frozenset(
        label for label in alphabet if nfa.start_states(label)
    )
    return AlphabetRelevance(alphabet, start_labels)


# ----------------------------------------------------------------------
# edge-label-count — map + reduce aggregation
# ----------------------------------------------------------------------


def build_edge_label_count(flow: Dataflow, inputs: GraphInputs) -> Node:
    """Rows ``(source_label, target_label, count)`` over all edges."""
    labels = flow.map(
        inputs.edges, lambda e: (e[2], e[3]), name="labels.pairs"
    )
    return flow.count_by(
        labels, lambda row: (row[0], row[1]), name="labels.count"
    )


# ----------------------------------------------------------------------
# two-hop — self-join
# ----------------------------------------------------------------------


def build_two_hop(flow: Dataflow, inputs: GraphInputs) -> Node:
    """Distinct ``(x, y, z)`` with edges ``x→y`` and ``y→z``."""
    hops = flow.join(
        inputs.edges,
        inputs.edges,
        left_key=lambda e: e[1],
        right_key=lambda e: e[0],
        merge=lambda first, second: (first[0], first[1], second[1]),
        name="twohop.join",
    )
    return flow.distinct(hops, name="twohop.paths")


# ----------------------------------------------------------------------
# triangle-count — multijoin + canonical rotation + distinct + count
# ----------------------------------------------------------------------


def _canonical_cycle(row):
    """The node_order-minimal rotation of a closed 3-walk — all rotations
    of one walk collapse to the same row, also when its minimal node
    occurs more than once (self-loops, reciprocal edges)."""
    a, b, c = row
    return min(((a, b, c), (b, c, a), (c, a, b)), key=row_order)


def build_triangle_count(flow: Dataflow, inputs: GraphInputs) -> Node:
    """The number of directed 3-cycles: rotation classes of closed
    3-walks ``a→b→c→a`` (self-loops are legal edges, so ``a→a→a`` and
    ``a→a→b→a`` are walks too), one count per class."""
    edges = inputs.edges
    walks = flow.multijoin(
        [(edges, "ab"), (edges, "bc"), (edges, "ca")], out="abc", name="tri.walks"
    )
    cycles = flow.map(walks, _canonical_cycle, name="tri.cycles")
    return flow.count(flow.distinct(cycles, name="tri.distinct"), name="tri.count")


register_program(
    "rpq",
    build_rpq,
    relevance=rpq_relevance,
    description="RPQ matches as NFA-product join + fixpoint",
)
register_program(
    "edge-label-count",
    build_edge_label_count,
    description="per (source_label, target_label) edge counts",
)
register_program(
    "two-hop",
    build_two_hop,
    description="distinct length-2 paths (x, y, z)",
)
register_program(
    "triangle-count",
    build_triangle_count,
    description="number of directed 3-cycles",
)
