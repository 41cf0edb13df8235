"""Hypothesis property tests: the defining incremental equation
Q(G ⊕ ΔG) = Q(G) ⊕ ΔO for all four query classes, plus core data-structure
invariants, over generated graphs and update batches."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delta import Delta, delete, insert
from repro.graph import DiGraph

LABELS = ["a", "b", "c"]
MAX_NODES = 12


@st.composite
def graphs(draw) -> DiGraph:
    """Small labeled digraphs (dense enough for interesting structure)."""
    size = draw(st.integers(min_value=2, max_value=MAX_NODES))
    labels = {
        node: draw(st.sampled_from(LABELS)) for node in range(size)
    }
    graph = DiGraph(labels=labels)
    possible = [(s, t) for s in range(size) for t in range(size) if s != t]
    chosen = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=3 * size)
    )
    for source, target in chosen:
        graph.add_edge(source, target)
    return graph


@st.composite
def graph_with_delta(draw, fresh: bool = True):
    """A graph plus an applicable normalized batch update.  With
    ``fresh``, up to two brand-new endpoints (labeled from the alphabet)
    join through some of the insertions, so the views' new-node
    bootstraps are exercised."""
    graph = draw(graphs())
    nodes = list(graph.nodes())
    edges = list(graph.edges())
    non_edges = [
        (s, t)
        for s in nodes
        for t in nodes
        if s != t and not graph.has_edge(s, t)
    ]
    deletions = draw(
        st.lists(st.sampled_from(edges), unique=True, max_size=4)
        if edges
        else st.just([])
    )
    insertions = draw(
        st.lists(st.sampled_from(non_edges), unique=True, max_size=4)
        if non_edges
        else st.just([])
    )
    labels = {node: graph.label(node) for node in nodes}
    if fresh:
        count = draw(st.integers(min_value=0, max_value=2))
        new = range(MAX_NODES, MAX_NODES + count)
        labels.update((node, draw(st.sampled_from(LABELS))) for node in new)
        joining = [
            (s, t) for s in labels for t in labels if s != t and (s in new or t in new)
        ]
        insertions += draw(
            st.lists(st.sampled_from(joining), unique=True, max_size=3)
            if joining
            else st.just([])
        )
    updates = [delete(*edge) for edge in deletions]
    updates += [insert(s, t, labels[s], labels[t]) for s, t in insertions]
    order = draw(st.permutations(updates))
    return graph, Delta(list(order))


@settings(max_examples=40, deadline=None)
@given(graph_with_delta())
def test_scc_incremental_equation(case):
    from repro.scc import SCCIndex, tarjan_scc

    graph, delta = case
    index = SCCIndex(graph.copy())
    before = index.components()
    added, removed = index.apply(delta)
    assert index.components() == tarjan_scc(index.graph).partition()
    assert (before - removed) | added == index.components()
    assert removed <= before
    assert not (added & before)
    index.check_consistency()


@settings(max_examples=40, deadline=None)
@given(graph_with_delta())
def test_kws_incremental_equation(case):
    from repro.kws import KWSIndex, KWSQuery, compute_kdist, distance_profile, verify_kdist

    graph, delta = case
    query = KWSQuery(("a", "b"), 2)
    index = KWSIndex(graph.copy(), query)
    roots_before = set(index.roots())
    delta_o = index.apply(delta)
    verify_kdist(index.graph, index.kdist)
    assert index.profile() == distance_profile(compute_kdist(index.graph, query))
    assert (roots_before - set(delta_o.removed)) | set(delta_o.added) == set(
        index.roots()
    )


@settings(max_examples=30, deadline=None)
@given(graph_with_delta())
def test_rpq_incremental_equation(case):
    from repro.rpq import RPQIndex, matches_only, verify_markings

    graph, delta = case
    query = "a . (b + c)* . c"
    index = RPQIndex(graph.copy(), query)
    before = set(index.matches)
    delta_o = index.apply(delta)
    assert index.matches == matches_only(index.graph, query)
    assert (before - set(delta_o.removed)) | set(delta_o.added) == index.matches
    verify_markings(index.graph, query, index.markings)


@settings(max_examples=30, deadline=None)
@given(graph_with_delta())
def test_iso_incremental_equation(case):
    from repro.iso import ISOIndex, Pattern, vf2_matches

    graph, delta = case
    pattern = Pattern.from_edges({0: "a", 1: "b"}, [(0, 1)])
    index = ISOIndex(graph.copy(), pattern)
    before = set(index.matches)
    delta_o = index.apply(delta)
    assert index.matches == vf2_matches(index.graph, pattern)
    assert (before - set(delta_o.removed)) | set(delta_o.added) == index.matches
    index.check_consistency()


@settings(max_examples=40, deadline=None)
@given(graph_with_delta())
def test_ssrp_incremental_equation(case):
    from repro.core.ssrp import ReachabilityIndex, reachable_from

    graph, delta = case
    source = next(iter(graph.nodes()))
    index = ReachabilityIndex(graph.copy(), source)
    before = set(index.reached)
    gained, lost = index.apply(delta)
    assert index.reached == reachable_from(index.graph, source)
    assert (before - lost) | gained == index.reached


@settings(max_examples=50, deadline=None)
@given(graph_with_delta(fresh=False))
def test_delta_invert_roundtrip(case):
    graph, delta = case
    patched = delta.applied(graph)
    restored = delta.inverted().applied(patched)
    assert restored == graph


@settings(max_examples=50, deadline=None)
@given(graphs())
def test_digraph_adjacency_symmetry(graph):
    for source, target in graph.edges():
        assert source in set(graph.predecessors(target))
        assert target in set(graph.successors(source))
    assert sum(graph.out_degree(v) for v in graph.nodes()) == graph.num_edges
    assert sum(graph.in_degree(v) for v in graph.nodes()) == graph.num_edges


@settings(max_examples=50, deadline=None)
@given(graphs())
def test_reverse_is_involution(graph):
    assert graph.reverse().reverse() == graph


@settings(max_examples=40, deadline=None)
@given(graph_with_delta())
def test_normalized_idempotent(case):
    _, delta = case
    once = delta.normalized()
    assert once.normalized().edges() == once.edges()
    assert once.is_normalized()


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_condensation_rank_invariant_from_scratch(graph):
    from repro.scc import Condensation, tarjan_scc

    result = tarjan_scc(graph)
    cond = Condensation.from_tarjan(graph, result)
    cond.check_against(graph)
