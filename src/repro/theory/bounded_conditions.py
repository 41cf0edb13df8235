"""Practical boundedness conditions — the paper's future work, section 7.

"Another topic is to identify practical conditions under which unbounded
incremental problems become bounded or relatively bounded."

This module makes three such conditions concrete and *checkable*; the
accompanying tests measure (via :class:`repro.core.cost.CostMeter`) that
under each condition the incremental cost per update is O(|CHANGED|)-flat
while graphs grow, i.e. boundedness holds on the restricted update class
even though Theorem 1 rules it out in general.

1. **SSRP under insert-only streams** — the classical result [38] that
   motivated the paper's Δ-reductions: :class:`repro.core.ssrp.
   ReachabilityIndex` touches only newly reached nodes per insertion.
2. **SCC under rank-respecting insertions** — an insertion ``(v, w)``
   with ``r(scc(v)) > r(scc(w))`` (or intra-component) can never change
   SCC(G) and costs O(1): IncSCC+ takes the counter-bump (or stale-mark)
   branch without any traversal.  Streams with this property arise
   naturally when edges are ingested in topological order — e.g. loading
   a DAG-shaped provenance or build graph bottom-up.
3. **KWS under far deletions** — deleting an edge that lies on no chosen
   shortest path (``next(v) != w`` for every keyword) costs O(m): IncKWS−
   inspects the m kdist entries of the source endpoint and stops.  In
   workloads where churn is concentrated outside the b-neighborhoods of
   keyword nodes (e.g. keyword-bearing entities are stable, periphery
   churns), KWS maintenance is effectively bounded.

The checkers below classify updates; the measurements live in
``tests/test_bounded_conditions.py`` and the claim made is *per-update
cost independent of |G|* on conforming streams.
"""

from __future__ import annotations

from repro.core.delta import Delta, Update
from repro.kws.incremental import KWSIndex
from repro.scc.incremental import SCCIndex


def scc_update_is_rank_respecting(index: SCCIndex, update: Update) -> bool:
    """Would IncSCC+ handle ``update`` on its O(1) branch?

    True for intra-component insertions (partition provably unchanged)
    and inter-component insertions already consistent with the
    topological ranks; also true for inter-component deletions (counter
    decrement).  Evaluated against the index's *current* state, so a
    stream can be vetted update by update as it is applied.
    """
    if update.source not in index.graph or update.target not in index.graph:
        # brand-new endpoints are placed so the new edge cannot violate
        # ranks (fresh source above all, fresh target below all)
        return update.is_insert
    source_comp = index.cond.component(update.source)
    target_comp = index.cond.component(update.target)
    if update.is_delete:
        return source_comp != target_comp
    if source_comp == target_comp:
        return True
    return index.cond.rank[source_comp] > index.cond.rank[target_comp]


def kws_deletion_is_far(index: KWSIndex, update: Update) -> bool:
    """Would IncKWS− finish in O(m) on this deletion?

    True when the deleted edge is not the first hop of any chosen
    shortest path: no kdist entry of the source endpoint routes through
    the target, so phase A finds no affected node.
    """
    if not update.is_delete:
        return False
    for keyword in index.query.keywords:
        entry = index.kdist.get(update.source, keyword)
        if entry is not None and entry.next == update.target:
            return False
    return True


def classify_scc_stream(index: SCCIndex, delta: Delta) -> tuple[int, int]:
    """Count (bounded, unbounded-risk) updates in a stream *without*
    applying it — a dry-run classification against the current state.

    The classification is conservative: it assumes the graph/ranks do not
    change mid-stream, which holds exactly when every update classifies
    as bounded (the O(1) branches never reorder ranks).
    """
    bounded = 0
    risky = 0
    for update in delta:
        if scc_update_is_rank_respecting(index, update):
            bounded += 1
        else:
            risky += 1
    return bounded, risky


def topological_insert_stream(nodes: list, edges: list) -> tuple[list, Delta]:
    """Build a rank-respecting insert-only load plan for a DAG.

    Returns ``(node_order, stream)``: register the nodes into an empty
    graph *in the returned order* (sinks first — isolated singletons get
    ascending ranks in registration order, so sinks sit lowest), then
    apply the stream; every insertion lands on IncSCC's O(1) branch
    (condition 2 above).  This is the natural way to bulk-load a
    DAG-shaped provenance/build/dependency graph incrementally.

    ``edges`` must be acyclic over ``nodes``; raises ``ValueError``
    otherwise.
    """
    from graphlib import CycleError, TopologicalSorter

    sorter = TopologicalSorter()
    for node in nodes:
        sorter.add(node)
    for source, target in edges:
        sorter.add(source, target)  # source depends on target: sinks first
    try:
        order = list(sorter.static_order())
    except CycleError as exc:
        raise ValueError("edge set is not acyclic") from exc
    position = {node: index for index, node in enumerate(order)}
    from repro.core.delta import insert

    ordered_edges = sorted(edges, key=lambda edge: position[edge[0]])
    stream = Delta([insert(source, target) for source, target in ordered_edges])
    return order, stream
