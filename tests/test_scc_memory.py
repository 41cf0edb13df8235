"""The SCC view's memory contract: SCCIndex keeps only what IncSCC reads.

Tarjan's edge classification is kept for intra-component edges only (the
reverse-frond deletion path of Example 8 reads nothing else), ``num`` and
``lowlink`` are not kept at all, and a component without intra-component
edges holds no edge-kind map.  On a DAG every edge crosses components, so
the index should cost G_c and the partition, nothing per classified edge.
"""

import gc
import random
import tracemalloc

from repro.graph import DiGraph
from repro.graph.generators import label_alphabet, uniform_random_graph
from repro.scc import SCCIndex

# Measured on a 5 000-node / 20 000-edge random DAG (CPython 3.10-3.12):
# 235-239 retained and 324-327 build-peak bytes per edge, against 281-284
# and 447-450 when the index also kept num/lowlink, an empty edge-kind
# map per component and, during the build, a kind for every edge.
RETAINED_BYTES_PER_EDGE = 255
BUILD_PEAK_BYTES_PER_EDGE = 375


def random_dag(nodes: int, edges: int, seed: int) -> DiGraph:
    rng = random.Random(seed)
    graph = DiGraph(labels={node: "x" for node in range(nodes)})
    while graph.num_edges < edges:
        source, target = sorted(rng.sample(range(nodes), 2))
        if not graph.has_edge(source, target):
            graph.add_edge(source, target)
    return graph


def test_index_over_a_dag_stays_under_its_bytes_per_edge():
    graph = random_dag(5_000, 20_000, seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = SCCIndex(graph)
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.cond.num_components() == graph.num_nodes
    retained = (current - before) / graph.num_edges
    build_peak = (peak - before) / graph.num_edges
    assert retained < RETAINED_BYTES_PER_EDGE, retained
    assert build_peak < BUILD_PEAK_BYTES_PER_EDGE, build_peak


def test_edge_kind_maps_hold_intra_component_edges_only():
    graph = uniform_random_graph(60, 150, label_alphabet(4), seed=3)
    index = SCCIndex(graph)
    comp_of = index.cond.comp_of
    intra = {
        (source, target)
        for source, target in graph.edges()
        if comp_of[source] == comp_of[target]
    }
    assert intra and len(intra) < graph.num_edges
    kept = set()
    for comp, kinds in index._edge_kinds.items():
        assert kinds, f"component {comp} holds an empty edge-kind map"
        assert all(comp_of[source] == comp for source, _ in kinds)
        kept |= set(kinds)
    assert kept == intra
    assert not hasattr(index, "num") and not hasattr(index, "lowlink")
