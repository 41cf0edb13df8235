#!/usr/bin/env python
"""Quickstart: all four query classes, batch vs incremental, on one graph.

Builds a small labeled digraph, answers a keyword search, a regular path
query, strongly connected components and a subgraph-isomorphism pattern,
then applies a batch of edge updates *incrementally* and shows that the
maintained answers equal a from-scratch recomputation — the paper's
defining equation Q(G ⊕ ΔG) = Q(G) ⊕ ΔO.

The finale re-runs the same stream through an :class:`~repro.Engine`
over a **sharded** graph store (``ShardedGraphStore``, 4 hash shards)
— a ``DiGraph`` carrying the ``ShardMap`` that partitions journaling
and compaction per shard — and shows the answers are identical.  The
engine's executor strategy follows ``REPRO_ENGINE_EXECUTOR``
(``serial`` / ``workers``), so this script doubles as a smoke test for
both executors.

Run:  python examples/quickstart.py
"""

from repro import Delta, DiGraph, Engine, ShardedGraphStore, delete, insert
from repro.iso import ISOIndex, Pattern, vf2_matches
from repro.kws import KWSIndex, KWSQuery, batch_kws
from repro.rpq import RPQIndex, matches_only
from repro.scc import SCCIndex, tarjan_scc


def build_graph() -> DiGraph:
    """A little citation-network-flavoured graph."""
    labels = {
        "p1": "paper", "p2": "paper", "p3": "paper", "p4": "paper",
        "a1": "author", "a2": "author",
        "v1": "venue", "v2": "venue",
        "t1": "topic",
    }
    edges = [
        ("p1", "p2"), ("p2", "p3"), ("p3", "p1"),   # citation cycle
        ("p4", "p1"),
        ("p1", "a1"), ("p2", "a1"), ("p3", "a2"), ("p4", "a2"),
        ("p1", "v1"), ("p2", "v1"), ("p3", "v2"), ("p4", "v2"),
        ("a1", "t1"), ("a2", "t1"),
    ]
    return DiGraph(labels=labels, edges=edges)


def main() -> None:
    graph = build_graph()
    print(f"graph: {graph}")

    # ------------------------------------------------------------------
    # 1. Keyword search (localizable IncKWS)
    # ------------------------------------------------------------------
    kws_query = KWSQuery(("author", "venue"), bound=2)
    kws = KWSIndex(graph.copy(), kws_query)
    print("\n[KWS] roots with an author and a venue within 2 hops:")
    for root, match in sorted(kws.matches().items()):
        print(f"  {root}: weight={match.weight} paths={dict(match.paths)}")

    # ------------------------------------------------------------------
    # 2. Regular path query (relatively bounded IncRPQ)
    # ------------------------------------------------------------------
    rpq_text = "paper . paper* . author"
    rpq = RPQIndex(graph.copy(), rpq_text)
    print(f"\n[RPQ] matches of {rpq_text!r}: {sorted(rpq.matches)}")

    # ------------------------------------------------------------------
    # 3. Strongly connected components (relatively bounded IncSCC)
    # ------------------------------------------------------------------
    scc = SCCIndex(graph.copy())
    nontrivial = [sorted(c) for c in scc.components() if len(c) > 1]
    print(f"\n[SCC] non-trivial components: {nontrivial}")

    # ------------------------------------------------------------------
    # 4. Subgraph isomorphism (localizable IncISO)
    # ------------------------------------------------------------------
    pattern = Pattern.from_edges(
        {0: "paper", 1: "paper", 2: "author"}, [(0, 1), (1, 2)]
    )
    iso = ISOIndex(graph.copy(), pattern)
    print(f"\n[ISO] paper->paper->author embeddings: {len(iso.matches)}")

    # ------------------------------------------------------------------
    # 5. One batch of updates, processed incrementally everywhere
    # ------------------------------------------------------------------
    batch = Delta([
        delete("p3", "p1"),                           # break the cycle
        insert("p3", "p4"),                           # re-route it
        insert("p5", "p3", source_label="paper"),     # a brand-new paper
        insert("p5", "a1"),
    ])
    print(f"\napplying ΔG = [{', '.join(str(u) for u in batch)}]")

    kws_delta = kws.apply(batch)
    print(f"[KWS] ΔO: +{sorted(kws_delta.added)} -{sorted(kws_delta.removed)} "
          f"rerouted={sorted(kws_delta.rerouted)}")

    rpq_delta = rpq.apply(batch)
    print(f"[RPQ] ΔO: +{sorted(rpq_delta.added)} -{sorted(rpq_delta.removed)}")

    scc_added, scc_removed = scc.apply(batch)
    print(f"[SCC] ΔO: +{[sorted(c) for c in scc_added]} "
          f"-{[sorted(c) for c in scc_removed]}")

    iso_delta = iso.apply(batch)
    print(f"[ISO] ΔO: +{len(iso_delta.added)} matches, -{len(iso_delta.removed)}")

    # ------------------------------------------------------------------
    # 6. The defining equation: incremental == from-scratch
    # ------------------------------------------------------------------
    patched = batch.applied(graph)
    assert kws.profile() == {
        root: {k: m.distances()[k] for k in kws_query.keywords}
        for root, m in batch_kws(patched, kws_query).items()
    }
    assert rpq.matches == matches_only(patched, rpq_text)
    assert scc.components() == tarjan_scc(patched).partition()
    assert iso.matches == vf2_matches(patched, pattern)
    print("\nall four incremental answers equal a from-scratch recomputation ✓")

    # ------------------------------------------------------------------
    # 7. The same stream, on a sharded store through the engine
    # ------------------------------------------------------------------
    sharded = ShardedGraphStore(shards=4)
    for node in graph.nodes():
        sharded.add_node(node, label=graph.label(node))
    for source, target in graph.edges():
        sharded.add_edge(source, target)

    engine = Engine(sharded)  # executor from REPRO_ENGINE_EXECUTOR
    engine.register("kws", lambda g, m: KWSIndex(g, kws_query, meter=m))
    engine.register("rpq", lambda g, m: RPQIndex(g, rpq_text, meter=m))
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register("iso", lambda g, m: ISOIndex(g, pattern, meter=m))
    report = engine.apply(batch)  # one G ⊕ ΔG, routed to all four views

    assert engine["kws"].profile() == kws.profile()
    assert engine["rpq"].matches == rpq.matches
    assert engine["scc"].components() == scc.components()
    assert engine["iso"].matches == iso.matches
    assert sharded == patched
    balance = ", ".join(
        f"shard {index}: {nodes}n/{edges}e"
        for index, (nodes, edges) in enumerate(sharded.shard_sizes())
    )
    print(
        f"\n[sharded] 4-shard engine ({engine.scheduler.executor} dispatch) "
        f"agrees on all four answers ✓"
    )
    print(f"[sharded] balance: {balance}; "
          f"cross-shard edges: {sharded.cross_shard_edges()}; "
          f"batch cost: {report.total_cost()} units")


if __name__ == "__main__":
    main()
