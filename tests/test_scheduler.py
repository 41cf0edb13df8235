"""Fan-out scheduler tests: relevance-routing equivalence (routed fan-out
must produce byte-identical canonical view snapshots to broadcast for all
four index classes), skipped-view zero-cost accounting (including the
lazily-registered regression), executor-strategy selection, and routing
statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Delta, DiGraph, Engine, delete, insert
from repro.engine import (
    EXECUTOR_ENV,
    AlphabetRelevance,
    FanOutScheduler,
    SchedulerError,
    SubscribeAll,
)
from repro.iso import ISOIndex, Pattern
from repro.kws import KDistEntry, KWSIndex, KWSQuery
from repro.persist.format import render_record
from repro.rpq import RPQIndex
from repro.scc import SCCIndex

LABELS = ["a", "b", "c", "d"]
KWS_QUERY = KWSQuery(("a", "b"), bound=2)
RPQ_QUERY = "a . (b + c)* . c"
ISO_PATTERN = Pattern.from_edges({0: "a", 1: "b"}, [(0, 1)])
VIEW_NAMES = ("kws", "rpq", "scc", "iso")


def sample_graph() -> DiGraph:
    return DiGraph(
        labels={1: "a", 2: "b", 3: "c", 4: "a", 5: "b", 6: "d", 7: "d"},
        edges=[(1, 2), (2, 3), (3, 1), (4, 5), (6, 7)],
    )


def four_view_engine(graph: DiGraph, **engine_kwargs) -> Engine:
    engine = Engine(graph, **engine_kwargs)
    engine.register("kws", lambda g, m: KWSIndex(g, KWS_QUERY, meter=m))
    engine.register("rpq", lambda g, m: RPQIndex(g, RPQ_QUERY, meter=m))
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register("iso", lambda g, m: ISOIndex(g, ISO_PATTERN, meter=m))
    return engine


def assert_same_snapshots(left: Engine, right: Engine) -> None:
    """Canonical view snapshots — and their rendered bytes — agree."""
    for name in left.names():
        first = left[name].snapshot()
        second = right[name].snapshot()
        assert first == second, f"{name} snapshots diverged"
        rendered_first = b"".join(
            render_record(row).encode() for row in first.records
        )
        rendered_second = b"".join(
            render_record(row).encode() for row in second.records
        )
        assert rendered_first == rendered_second


class TestRouting:
    def test_irrelevant_batch_skips_label_filtered_views(self):
        engine = four_view_engine(sample_graph())
        # d→d churn: no keyword, no NFA label, no pattern label pair —
        # only the topology-subscribed SCC view runs.
        report = engine.apply(Delta([delete(6, 7), insert(7, 6)]))
        assert report.skipped("kws") and report.skipped("rpq")
        assert report.skipped("iso")
        assert not report.skipped("scc")
        for name in ("kws", "rpq", "iso"):
            assert report.cost(name).total() == 0
            assert report.views[name].wall_seconds == 0.0
            assert report.output(name).is_empty

    def test_skipped_views_report_empty_output_object(self):
        engine = four_view_engine(sample_graph())
        report = engine.apply(Delta([delete(6, 7)]))
        gained, lost = report.output("scc")  # subscribe-all still runs
        assert gained == set() and lost == set()
        assert report.output("kws").is_empty

    def test_relevant_batch_reaches_the_view(self):
        engine = four_view_engine(sample_graph())
        # 3's chosen shortest paths route through (3, 1): the deletion is
        # relevant by the next-pointer condition and ΔO is non-empty.
        report = engine.apply(Delta([delete(3, 1)]))
        assert not report.skipped("kws")
        assert not report.output("kws").is_empty

    def test_routing_stats_accumulate(self):
        engine = four_view_engine(sample_graph())
        engine.apply(Delta([delete(6, 7)]))
        engine.apply(Delta([insert(6, 1)]))  # d → a is kws/rpq-relevant
        stats = engine.routing_stats()
        assert stats["scc"].batches_routed == 2
        assert stats["kws"].batches_skipped == 1
        assert stats["kws"].batches_routed == 1
        assert stats["kws"].updates_delivered == 1

    def test_empty_batch_skips_everything(self):
        engine = four_view_engine(sample_graph())
        report = engine.apply(Delta([insert(5, 1), delete(5, 1)]))  # cancels
        assert all(view.skipped for view in report)
        assert report.total_cost() == 0

    def test_routing_disabled_broadcasts(self):
        engine = four_view_engine(sample_graph(), routing=False)
        report = engine.apply(Delta([delete(6, 7)]))
        assert not any(view.skipped for view in report)

    def test_new_keyword_node_bootstraps_through_routing(self):
        # The inserted edge alone is irrelevant to RPQ/ISO, but the new
        # "a"-labeled node must still reach KWS for its dist-0 entry.
        engine = four_view_engine(sample_graph())
        routed = engine.apply(Delta([insert(6, 8, target_label="a")]))
        assert not routed.skipped("kws")
        twin = four_view_engine(sample_graph(), routing=False)
        twin.apply(Delta([insert(6, 8, target_label="a")]))
        assert_same_snapshots(engine, twin)

    def test_routed_witness_ties_match_broadcast(self):
        """Regression (found by the equivalence property): an insertion
        whose target only gains its kdist entry later in the same batch
        is legitimately dropped by the relevance filter — KWS still sees
        the edge through the shared graph during settlement.  But when
        two equal-length witnesses exist (4→5→0 and 4→1→0), routed and
        broadcast used to keep whichever was *written first*, so their
        kdist snapshots diverged on the next pointer.  Witness ties must
        resolve canonically by node_order in both."""
        graph = DiGraph(labels={0: "a", 1: "c", 4: "c", 5: "c"}, edges=[(4, 1)])
        batch = Delta([insert(5, 0), insert(4, 5), insert(1, 0)])
        routed = Engine(graph.copy())
        broadcast = Engine(graph.copy(), routing=False)
        for engine in (routed, broadcast):
            engine.register("kws", lambda g, m: KWSIndex(g, KWS_QUERY, meter=m))
            engine.apply(batch)
        assert routed["kws"].snapshot() == broadcast["kws"].snapshot()
        # both settle on the canonical witness: node_order(1) < node_order(5)
        assert routed["kws"].kdist.get(4, "a") == KDistEntry(2, 1)


class TestCostAccounting:
    def test_lazy_view_skipped_by_routing_reports_zero_cost(self):
        """Regression: a view materialized lazily during apply() pays its
        from-scratch build on its cumulative meter; when routing then
        skips it for the batch, the report must say zero — not leak the
        stale build-inclusive meter reading."""
        engine = Engine(sample_graph())
        engine.register(
            "kws",
            lambda g, m: KWSIndex(g, KWS_QUERY, meter=m),
            build="on_first_apply",
        )
        report = engine.apply(Delta([delete(6, 7)]))  # irrelevant to kws
        assert report.skipped("kws")
        assert report.cost("kws").total() == 0
        assert report.total_cost() == 0
        # ... even though the build itself did meter real work:
        assert engine.meter("kws").total() > 0

    def test_total_cost_sums_only_absorb_work(self):
        engine = four_view_engine(sample_graph())
        report = engine.apply(Delta([delete(3, 1)]))
        assert report.total_cost() == sum(view.cost.total() for view in report)
        assert report.total_cost() > 0

    def test_wall_clock_reported_for_routed_views(self):
        engine = four_view_engine(sample_graph())
        report = engine.apply(Delta([delete(3, 1)]))
        assert report.views["scc"].wall_seconds > 0.0
        assert report.wall_seconds() >= report.views["scc"].wall_seconds


class TestExecutors:
    def test_unknown_executor_rejected(self):
        with pytest.raises(SchedulerError, match="unknown executor"):
            Engine(sample_graph(), executor="fibers")

    @pytest.mark.parametrize("removed", ["threads", "processes"])
    def test_removed_strategies_rejected(self, removed, monkeypatch):
        """The two deleted strategies fail like any unknown name — by
        argument and by environment — and the error names what is
        accepted."""
        accepted = r"\('serial', 'workers'\)"
        with pytest.raises(SchedulerError, match=accepted):
            Engine(sample_graph(), executor=removed)
        monkeypatch.setenv(EXECUTOR_ENV, removed)
        with pytest.raises(SchedulerError, match=accepted):
            Engine(sample_graph())

    def test_env_var_selects_executor(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "workers")
        assert Engine(sample_graph()).scheduler.executor == "workers"
        monkeypatch.setenv(EXECUTOR_ENV, "bogus")
        with pytest.raises(SchedulerError):
            Engine(sample_graph())

    def test_explicit_executor_overrides_env(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "workers")
        assert Engine(sample_graph(), executor="serial").scheduler.executor == "serial"


class TestRelevanceObjects:
    def test_scheduler_treats_subscribe_all_as_broadcast(self):
        scheduler = FanOutScheduler()
        graph = sample_graph()
        scc = SCCIndex(graph)
        delta = Delta([delete(6, 7)])
        routing = scheduler.partition(  # before G ⊕ ΔG, as the engine calls it
            delta,
            graph,
            {"scc": scc},
            {"scc": scc.meter},
            {"scc": SubscribeAll()},
        )
        assert routing.plans[0].delta is delta  # no per-view copy
        assert not routing.plans[0].skipped

    def test_rpq_alphabet_filter_is_target_label_based(self):
        graph = sample_graph()
        rpq = RPQIndex(graph, RPQ_QUERY)
        relevance = rpq.relevance()
        assert isinstance(relevance, AlphabetRelevance)
        assert relevance.wants_update(insert(6, 1), "d", "a")
        assert not relevance.wants_update(insert(1, 6), "a", "d")

    def test_deregistered_view_drops_routing_state(self):
        engine = four_view_engine(sample_graph())
        engine.apply(Delta([delete(3, 1)]))
        engine.deregister("kws")
        assert "kws" not in engine.routing_stats()
        assert "kws" not in engine.dirty_views()


# ----------------------------------------------------------------------
# Routing equivalence property: for random graphs and batch streams,
# routed fan-out produces byte-identical canonical view snapshots to
# broadcast fan-out, for all four index classes.
# ----------------------------------------------------------------------


@st.composite
def engine_workload(draw):
    """A random labeled graph plus a short stream of applicable batches
    (mirrors tests/test_engine.py, with a wider alphabet so some labels
    fall outside every filtered view's relevance)."""
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
        updates = [delete(*edge) for edge in deletions]
        updates += [insert(*edge) for edge in insertions]
        if draw(st.booleans()) and nodes:
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


@settings(max_examples=60, deadline=None)
@given(engine_workload())
def test_routed_equals_broadcast_property(case):
    graph, batches = case
    routed = four_view_engine(graph.copy())
    broadcast = four_view_engine(graph.copy(), routing=False)
    for batch in batches:
        routed_report = routed.apply(batch)
        broadcast_report = broadcast.apply(batch)
        for name in VIEW_NAMES:
            assert routed_report.output(name) == broadcast_report.output(name)
            if routed_report.skipped(name):
                assert routed_report.cost(name).total() == 0
        assert_same_snapshots(routed, broadcast)


@settings(max_examples=25, deadline=None)
@given(engine_workload())
def test_routed_rollback_equals_broadcast(case):
    """Rollback goes through the same routed fan-out; it must restore the
    identical state broadcast rollback restores."""
    graph, batches = case
    routed = four_view_engine(graph.copy())
    broadcast = four_view_engine(graph.copy(), routing=False)
    mark = routed.checkpoint()
    for batch in batches:
        routed.apply(batch)
        broadcast.apply(batch)
    routed.rollback(mark)
    broadcast.rollback(mark)
    assert_same_snapshots(routed, broadcast)
