"""Engine/session tests: registration rules, single-mutation fan-out,
per-view cost accounting, validation atomicity, checkpoint/rollback, and
the cross-view consistency property — every registered view's answer
equals from-scratch recomputation after randomized engine batches."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Delta,
    DiGraph,
    Engine,
    EngineError,
    IncrementalSession,
    IncrementalView,
    InvalidDeltaError,
    delete,
    insert,
)
from repro.iso import ISOIndex, Pattern, vf2_matches
from repro.kws import KWSIndex, KWSQuery, batch_kws
from repro.rpq import RPQIndex, matches_only
from repro.scc import SCCIndex, tarjan_scc

LABELS = ["a", "b", "c"]
KWS_QUERY = KWSQuery(("a", "b"), bound=2)
RPQ_QUERY = "a . (b + c)* . c"
ISO_PATTERN = Pattern.from_edges({0: "a", 1: "b"}, [(0, 1)])


def sample_graph() -> DiGraph:
    return DiGraph(
        labels={1: "a", 2: "b", 3: "c", 4: "a", 5: "b"},
        edges=[(1, 2), (2, 3), (3, 1), (4, 5)],
    )


def four_view_engine(graph: DiGraph) -> Engine:
    engine = Engine(graph)
    engine.register("kws", lambda g, m: KWSIndex(g, KWS_QUERY, meter=m))
    engine.register("rpq", lambda g, m: RPQIndex(g, RPQ_QUERY, meter=m))
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register("iso", lambda g, m: ISOIndex(g, ISO_PATTERN, meter=m))
    return engine


def assert_views_match_recompute(engine: Engine) -> None:
    graph = engine.graph
    assert engine["kws"].roots() == set(batch_kws(graph, KWS_QUERY))
    assert engine["rpq"].matches == matches_only(graph, RPQ_QUERY)
    assert engine["scc"].components() == tarjan_scc(graph).partition()
    assert engine["iso"].matches == vf2_matches(graph, ISO_PATTERN)
    engine["scc"].check_consistency()
    engine["iso"].check_consistency()


class TestRegistration:
    def test_register_shares_the_graph(self):
        engine = four_view_engine(sample_graph())
        assert all(engine[name].graph is engine.graph for name in engine.names())
        assert len(engine) == 4

    def test_views_satisfy_protocol(self):
        engine = four_view_engine(sample_graph())
        for name in engine.names():
            assert isinstance(engine[name], IncrementalView)

    def test_register_rejects_private_copy(self):
        engine = Engine(sample_graph())
        with pytest.raises(EngineError, match="graph copy"):
            engine.register("scc", lambda g, m: SCCIndex(g.copy(), meter=m))

    def test_register_rejects_duplicate_name(self):
        engine = Engine(sample_graph())
        engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
        with pytest.raises(EngineError, match="already registered"):
            engine.register("scc", lambda g, m: SCCIndex(g, meter=m))

    def test_attach_existing_view_and_meter_retrofit(self):
        graph = sample_graph()
        engine = Engine(graph)
        view = SCCIndex(graph)  # built with the default NULL_METER
        assert engine.attach("scc", view) is view
        engine.apply(Delta([insert(5, 1)]))
        assert engine.meter("scc") is view.meter
        assert "scc" in engine and "kws" not in engine

    def test_attach_rejects_foreign_graph(self):
        engine = Engine(sample_graph())
        with pytest.raises(EngineError, match="graph copy"):
            engine.attach("scc", SCCIndex(sample_graph()))

    def test_unknown_view_name(self):
        engine = Engine(sample_graph())
        with pytest.raises(EngineError, match="no view named"):
            engine.view("kws")

    def test_session_alias(self):
        assert IncrementalSession is Engine


class TestApply:
    def test_single_apply_updates_every_view(self):
        engine = four_view_engine(sample_graph())
        report = engine.apply(Delta([delete(3, 1), insert(5, 4)]))
        assert set(report.views) == {"kws", "rpq", "scc", "iso"}
        assert_views_match_recompute(engine)

    def test_report_outputs_and_costs(self):
        engine = four_view_engine(sample_graph())
        report = engine.apply(Delta([delete(3, 1)]))
        gained, lost = report.output("scc")
        assert lost == {frozenset({1, 2, 3})}
        assert gained == {frozenset({1}), frozenset({2}), frozenset({3})}
        assert report.cost("scc").total() > 0
        assert report.total_cost() == sum(v.cost.total() for v in report)

    def test_accepts_plain_update_iterables(self):
        engine = four_view_engine(sample_graph())
        engine.apply([insert(5, 1), delete(4, 5)])
        assert_views_match_recompute(engine)

    def test_unit_ops(self):
        engine = four_view_engine(sample_graph())
        engine.insert_edge(6, 1, source_label="b")
        assert engine.graph.label(6) == "b"
        engine.delete_edge(6, 1)
        assert_views_match_recompute(engine)

    def test_new_nodes_reported_and_labeled(self):
        engine = four_view_engine(sample_graph())
        report = engine.apply(Delta([insert(6, 7, "a", "b")]))
        assert report.new_nodes == {6, 7}
        assert engine.graph.label(6) == "a" and engine.graph.label(7) == "b"
        assert_views_match_recompute(engine)

    def test_normalization_happens_once_upstream(self):
        engine = four_view_engine(sample_graph())
        # insert+delete of the same edge cancels to a no-op batch
        report = engine.apply(Delta([insert(5, 1), delete(5, 1)]))
        assert len(report.delta) == 0
        assert_views_match_recompute(engine)

    def test_unapplicable_net_balance_raises(self):
        engine = four_view_engine(sample_graph())
        with pytest.raises(InvalidDeltaError):
            engine.apply(Delta([insert(5, 1), insert(5, 1)]))


class TestValidation:
    def test_bad_batch_leaves_graph_and_views_untouched(self):
        engine = four_view_engine(sample_graph())
        edges_before = set(engine.graph.edges())
        roots_before = set(engine["kws"].roots())
        with pytest.raises(InvalidDeltaError, match="already exists"):
            engine.apply(Delta([insert(5, 1), insert(1, 2)]))
        with pytest.raises(InvalidDeltaError, match="does not exist"):
            engine.apply(Delta([delete(1, 5)]))
        assert set(engine.graph.edges()) == edges_before
        assert set(engine["kws"].roots()) == roots_before
        assert engine.applied_count == 0

    def test_standalone_apply_refuses_a_bad_batch_untouched(self):
        """The protocol's ``apply`` checks the batch before ``G ⊕ ΔG``, so
        a late bad update leaves the view's graph and answer as they were."""
        for index in (SCCIndex(sample_graph()), ISOIndex(sample_graph(), ISO_PATTERN)):
            edges_before = set(index.graph.edges())
            snapshot_before = index.snapshot()
            with pytest.raises(InvalidDeltaError, match="does not exist"):
                index.apply(Delta([insert(5, 1), insert(9, 1, "a"), delete(1, 5)]))
            assert set(index.graph.edges()) == edges_before
            assert 9 not in index.graph
            assert index.snapshot() == snapshot_before

    def test_sequence_order_validation(self):
        engine = four_view_engine(sample_graph())
        # delete then re-insert the same edge is a valid sequence, and
        # normalization cancels it before any view sees it.
        engine.apply(Delta([delete(1, 2), insert(1, 2)]))
        assert engine.graph.has_edge(1, 2)
        assert_views_match_recompute(engine)


class TestRollback:
    def test_rollback_restores_every_view(self):
        engine = four_view_engine(sample_graph())
        components_before = engine["scc"].components()
        roots_before = set(engine["kws"].roots())
        mark = engine.checkpoint()
        engine.apply(Delta([delete(3, 1), insert(5, 4)]))
        engine.apply(Delta([insert(3, 5)]))
        assert engine.applied_count == mark + 2
        engine.rollback(mark)
        assert engine.applied_count == mark
        assert engine["scc"].components() == components_before
        assert set(engine["kws"].roots()) == roots_before
        assert_views_match_recompute(engine)

    def test_rollback_cancels_across_batches(self):
        engine = four_view_engine(sample_graph())
        mark = engine.checkpoint()
        engine.apply(Delta([insert(5, 1)]))
        engine.apply(Delta([delete(5, 1)]))
        engine.rollback(mark)  # the two batches cancel to an empty undo
        assert_views_match_recompute(engine)

    def test_rollback_out_of_range(self):
        engine = four_view_engine(sample_graph())
        with pytest.raises(EngineError, match="out of range"):
            engine.rollback(1)

    def test_rollback_keeps_isolated_new_nodes(self):
        engine = four_view_engine(sample_graph())
        mark = engine.checkpoint()
        engine.apply(Delta([insert(6, 7, "a", "b")]))
        engine.rollback(mark)
        assert engine.graph.has_node(6) and engine.graph.in_degree(7) == 0
        assert_views_match_recompute(engine)


# ----------------------------------------------------------------------
# Cross-view consistency property: after randomized engine batches, every
# view's answer equals from-scratch recomputation on the shared graph.
# ----------------------------------------------------------------------


@st.composite
def engine_workload(draw):
    """A random labeled graph plus a short stream of applicable batches."""
    size = draw(st.integers(min_value=2, max_value=10))
    labels = {node: draw(st.sampled_from(LABELS)) for node in range(size)}
    graph = DiGraph(labels=labels)
    possible = [(s, t) for s in range(size) for t in range(size) if s != t]
    for source, target in draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=3 * size)
    ):
        graph.add_edge(source, target)

    batches = []
    scratch = graph.copy()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        edges = list(scratch.edges())
        nodes = list(scratch.nodes())
        non_edges = [
            (s, t)
            for s in nodes
            for t in nodes
            if s != t and not scratch.has_edge(s, t)
        ]
        deletions = draw(
            st.lists(st.sampled_from(edges), unique=True, max_size=3)
            if edges
            else st.just([])
        )
        insertions = draw(
            st.lists(st.sampled_from(non_edges), unique=True, max_size=3)
            if non_edges
            else st.just([])
        )
        fresh = draw(st.booleans())
        updates = [delete(*edge) for edge in deletions]
        updates += [insert(*edge) for edge in insertions]
        if fresh and nodes:
            new_node = scratch.num_nodes + 100
            updates.append(
                insert(
                    draw(st.sampled_from(nodes)),
                    new_node,
                    target_label=draw(st.sampled_from(LABELS)),
                )
            )
        batch = Delta(list(draw(st.permutations(updates))))
        batch.apply_to(scratch)
        batches.append(batch)
    return graph, batches


@settings(max_examples=50, deadline=None)
@given(engine_workload())
def test_cross_view_consistency(case):
    graph, batches = case
    engine = four_view_engine(graph.copy())
    for batch in batches:
        engine.apply(batch)
        assert_views_match_recompute(engine)


@settings(max_examples=25, deadline=None)
@given(engine_workload())
def test_engine_matches_standalone_views(case):
    """The absorb fan-out path produces the same ΔO stream as each view's
    standalone apply on its own graph copy."""
    graph, batches = case
    engine = four_view_engine(graph.copy())
    solo_scc = SCCIndex(graph.copy())
    solo_iso = ISOIndex(graph.copy(), ISO_PATTERN)
    for batch in batches:
        report = engine.apply(batch)
        assert report.output("scc") == solo_scc.apply(batch)
        assert report.output("iso") == solo_iso.apply(batch)
    assert engine["scc"].components() == solo_scc.components()
    assert engine["iso"].matches == solo_iso.matches


@settings(max_examples=25, deadline=None)
@given(engine_workload())
def test_rollback_property(case):
    graph, batches = case
    engine = four_view_engine(graph.copy())
    mark = engine.checkpoint()
    for batch in batches:
        engine.apply(batch)
    engine.rollback(mark)
    assert set(engine.graph.edges()) == set(graph.edges())
    assert_views_match_recompute(engine)
