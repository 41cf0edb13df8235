"""Dataset profiles standing in for the paper's evaluation graphs
(Section 6, "Graphs").

The paper evaluates on

* **DBpedia** — 4.3M nodes, 40.3M edges, 495 labels (knowledge graph:
  sparse, heavy label skew, shallow hub structure);
* **LiveJournal** — 4.9M nodes, 68.5M edges, 100 labels (social network:
  denser, giant SCC covering ~77% of the graph);
* **synthetic** — |V| up to 50M, |E| up to 100M, 100-symbol alphabet.

Offline we synthesize graphs matching each profile's *shape* at laptop
scale: the node/edge ratio, alphabet size, label skew and SCC structure
are preserved (verified by tests via :mod:`repro.graph.stats`), because
those are the properties the incremental-vs-batch comparison is sensitive
to.  ``scale = 1.0`` gives the default benchmark size; the Exp-3 sweep
varies ``scale`` from 0.2 to 1.0 exactly like the paper's Figures 8(m)-(p).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    label_alphabet,
    planted_scc_graph,
    power_law_graph,
    uniform_random_graph,
)

#: Default |V| at scale 1.0 — small enough for pure-Python benchmarking,
#: large enough that incremental-vs-batch gaps are far above timer noise.
BASE_NODES = 2000

DBPEDIA_ALPHABET = label_alphabet(495, prefix="T")
LIVEJ_ALPHABET = label_alphabet(100, prefix="C")
SYNTHETIC_ALPHABET = label_alphabet(100, prefix="L")


@dataclass(frozen=True)
class DatasetSpec:
    """What a profile promises; tests assert generated graphs comply."""

    name: str
    edge_node_ratio: float
    alphabet_size: int
    giant_scc_min: float  # fraction of nodes in the largest SCC, 0 if n/a


DBPEDIA_SPEC = DatasetSpec("dbpedia-like", 40.3 / 4.3, 495, 0.0)
LIVEJ_SPEC = DatasetSpec("livej-like", 68.5 / 4.9, 100, 0.7)
SYNTHETIC_SPEC = DatasetSpec("synthetic", 2.0, 100, 0.0)


def dbpedia_like(scale: float = 1.0, seed: int = 0) -> DiGraph:
    """Knowledge-graph profile: power-law in-degrees (hub entities),
    495 labels with Zipf skew (a few types dominate), |E|/|V| ≈ 9.4.

    Knowledge graphs are nearly acyclic — the contrast with LiveJournal's
    giant SCC that Exp-1(3)(c) relies on — so the base graph is a
    hierarchical DAG and ~1% of edges are made reciprocal between
    *nearby* nodes, yielding many tiny components (largest ≈ 1% of |V|)
    without touching the degree distribution.
    """
    import random as _random

    num_nodes = max(50, int(BASE_NODES * scale))
    num_edges = int(num_nodes * DBPEDIA_SPEC.edge_node_ratio)
    reciprocal_budget = max(1, int(num_edges * 0.01))
    graph = power_law_graph(
        num_nodes,
        num_edges - reciprocal_budget,
        DBPEDIA_ALPHABET,
        seed=seed,
        label_skew=1.1,
        forward_bias=1.0,
    )
    rng = _random.Random(seed + 1)
    short_span = [
        (source, target)
        for source, target in graph.edges()
        if abs(target - source) <= 10
    ]
    rng.shuffle(short_span)
    added = 0
    for source, target in short_span:
        if added >= reciprocal_budget:
            break
        if not graph.has_edge(target, source):
            graph.add_edge(target, source)
            added += 1
    return graph


def livej_like(scale: float = 1.0, seed: int = 0) -> DiGraph:
    """Social-network profile: denser (|E|/|V| ≈ 14), 100 labels, and a
    planted giant SCC near the 77% the paper reports for LiveJournal."""
    num_nodes = max(50, int(BASE_NODES * scale))
    num_edges = int(num_nodes * LIVEJ_SPEC.edge_node_ratio)
    return planted_scc_graph(
        num_nodes,
        num_edges,
        LIVEJ_ALPHABET,
        giant_fraction=0.77,
        seed=seed,
        label_skew=0.5,
    )


def synthetic(scale: float = 1.0, seed: int = 0, edge_factor: float = 2.0) -> DiGraph:
    """The paper's synthetic generator: |E| = edge_factor · |V| (their
    headline configuration is 50M nodes / 100M edges, i.e. factor 2),
    uniform 100-symbol alphabet."""
    num_nodes = max(50, int(BASE_NODES * scale))
    num_edges = int(num_nodes * edge_factor)
    return uniform_random_graph(num_nodes, num_edges, SYNTHETIC_ALPHABET, seed=seed)


DATASETS = {
    "dbpedia": (dbpedia_like, DBPEDIA_SPEC),
    "livej": (livej_like, LIVEJ_SPEC),
    "synthetic": (synthetic, SYNTHETIC_SPEC),
}


def by_name(name: str, scale: float = 1.0, seed: int = 0) -> DiGraph:
    """Fetch a dataset by profile name."""
    try:
        builder, _ = DATASETS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; choose from {sorted(DATASETS)}"
        ) from None
    return builder(scale=scale, seed=seed)


def with_selectivity(graph: DiGraph, nodes_per_label: int, seed: int = 0) -> DiGraph:
    """Relabel a graph so each label covers ≈ ``nodes_per_label`` nodes.

    Label *selectivity* (graph nodes per label), not alphabet size, is the
    scale-free quantity that drives subgraph-matching cost: DBpedia's 4.3M
    nodes over 495 labels give ≈ 8.7k nodes per label, which a laptop-scale
    graph can only mirror by shrinking the alphabet.  The ISO benches use
    this view so VF2 does paper-shaped work instead of dying instantly on
    near-unique labels.
    """
    import random as _random

    if nodes_per_label < 1:
        raise ValueError("nodes_per_label must be at least 1")
    alphabet_size = max(2, graph.num_nodes // nodes_per_label)
    alphabet = label_alphabet(alphabet_size, prefix="S")
    rng = _random.Random(seed)
    relabeled = graph.copy()
    for node in relabeled.nodes():
        relabeled.set_label(node, rng.choice(alphabet))
    return relabeled
