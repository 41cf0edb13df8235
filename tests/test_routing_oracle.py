"""The engine routes a batch once, before ``G ⊕ ΔG``; this module keeps
the post-mutation rule it replaced as the reference and checks the two
agree.

The reference applies the batch to a copy of the graph first and reads
every endpoint label from the result — the resolution the scheduler
made when it ran after the mutation.  The live scheduler reads labels
of existing endpoints from the pre-batch graph and gives a batch-new
endpoint the label of its first declaring insert.  Over random labeled
graphs and batch streams the two must produce the same sub-deltas,
new-node subsets and ``skipped`` flags for every shipped filter (KWS,
RPQ, ISO, SCC's ``SubscribeAll``, the dataflow triangle count) and
under ``routing=False``; the engine's route hook must name exactly the
views the reference does not skip."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Delta, DiGraph, Engine, delete, insert
from repro.dataflow import DataflowView
from repro.engine import SubscribeAll
from repro.iso import ISOIndex, Pattern
from repro.kws import KWSIndex, KWSQuery
from repro.rpq import RPQIndex
from repro.scc import SCCIndex

LABELS = ("a", "b", "c", "d")
VIEW_NAMES = ("kws", "rpq", "iso", "scc", "tri")


def reference_partition(delta, graph, filters):
    """The post-mutation routing rule: ``new_nodes`` are the touched
    endpoints absent from ``graph``; labels come from ``G ⊕ ΔG``.
    Returns ``(new_nodes, {name: (sub_delta, sub_new, skipped)})``."""
    new_nodes = frozenset(
        node for node in delta.touched_nodes() if node not in graph
    )
    after = delta.apply_to(graph.copy())
    plans = {}
    for name, flt in filters.items():
        if flt is None or isinstance(flt, SubscribeAll):
            sub_delta, sub_new = list(delta), new_nodes
        else:
            sub_delta = [
                update
                for update in delta
                if flt.wants_update(
                    update, after.label(update.source), after.label(update.target)
                )
            ]
            reached = {node for update in sub_delta for node in update.edge}
            sub_new = frozenset(
                node
                for node in new_nodes
                if node in reached or flt.wants_node(node, after.label(node))
            )
        plans[name] = (sub_delta, sub_new, not sub_delta and not sub_new)
    return new_nodes, plans


def five_view_engine(graph: DiGraph, routing: bool = True) -> Engine:
    engine = Engine(graph, routing=routing)
    engine.register(
        "kws", lambda g, m: KWSIndex(g, KWSQuery(("a", "b"), bound=2), meter=m)
    )
    engine.register("rpq", lambda g, m: RPQIndex(g, "a . (b + c)* . c", meter=m))
    engine.register(
        "iso",
        lambda g, m: ISOIndex(
            g, Pattern.from_edges({0: "a", 1: "b"}, [(0, 1)]), meter=m
        ),
    )
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register(
        "tri", lambda g, m: DataflowView(g, "triangle-count", meter=m)
    )
    return engine


def engine_filters(engine: Engine):
    return {
        name: engine.relevance_filter(name) if engine.routing else None
        for name in engine.names()
    }


def assert_plan_matches_reference(engine: Engine, delta: Delta):
    """The live pre-mutation plan equals the reference, view by view;
    returns both."""
    filters = engine_filters(engine)
    new_nodes, expected = reference_partition(delta, engine.graph, filters)
    views = {name: engine.view(name) for name in engine.names()}
    meters = {name: engine.meter(name) for name in engine.names()}
    routing = engine.scheduler.partition(
        delta, engine.graph, views, meters, filters
    )
    assert routing.new_nodes == new_nodes
    assert [plan.name for plan in routing.plans] == list(VIEW_NAMES)
    for plan in routing.plans:
        sub_delta, sub_new, skipped = expected[plan.name]
        assert list(plan.delta) == sub_delta, plan.name
        assert plan.new_nodes == sub_new, plan.name
        assert plan.skipped == skipped, plan.name
    return routing, expected


@st.composite
def graph_and_stream(draw):
    """A labeled graph and a stream of valid, normalized batches whose
    inserts reach fresh nodes under per-insert random labels — so one
    fresh node is often declared twice with different labels."""
    size = draw(st.integers(2, 7))
    labels = {
        node: draw(st.sampled_from(LABELS)) for node in range(size)
    }
    pairs = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    edges = set(draw(st.lists(pairs, max_size=14)))
    present = set(edges)
    next_fresh = size
    stream = []
    for _ in range(draw(st.integers(1, 3))):
        batch, seen = [], set()
        for _ in range(draw(st.integers(0, 6))):
            top = next_fresh + 2
            source = draw(st.integers(0, top))
            target = draw(st.integers(0, top))
            edge = (source, target)
            if edge in seen:
                continue
            seen.add(edge)
            if edge in present:
                batch.append(delete(source, target))
                present.discard(edge)
            else:
                batch.append(
                    insert(
                        source,
                        target,
                        draw(st.sampled_from(LABELS)),
                        draw(st.sampled_from(LABELS)),
                    )
                )
                present.add(edge)
                next_fresh = max(next_fresh, source + 1, target + 1)
        stream.append(Delta(batch))
    return labels, sorted(edges), stream


@settings(max_examples=100, deadline=None)
@given(case=graph_and_stream(), routing=st.booleans())
def test_pre_mutation_plan_equals_post_mutation_reference(case, routing):
    labels, edges, stream = case
    engine = five_view_engine(DiGraph(labels=labels, edges=edges), routing)
    routed = []
    engine.add_route_listener(routed.append)
    for delta in stream:
        _, expected = assert_plan_matches_reference(engine, delta)
        report = engine.apply(delta)
        assert routed.pop() == tuple(
            name for name in VIEW_NAMES if not expected[name][2]
        )
        for name in VIEW_NAMES:
            assert report.skipped(name) == expected[name][2]


def test_first_declaring_insert_labels_a_new_node():
    """Node 9 is new and declared twice: as a ``c`` target first, then
    as an ``a`` source.  ``DiGraph.add_edge`` stamps ``c``, so KWS (which
    bootstraps ``a``-labeled nodes) must not claim node 9 on its own,
    and RPQ (whose NFA consumes ``c`` at targets) must see the first
    insert."""
    graph = DiGraph(labels={1: "d", 2: "d"}, edges=[(1, 2)])
    engine = five_view_engine(graph)
    delta = Delta([insert(1, 9, "d", "c"), insert(9, 2, "a", "d")])
    routing, _ = assert_plan_matches_reference(engine, delta)
    plans = {plan.name: plan for plan in routing.plans}
    assert routing.new_nodes == {9}
    assert plans["kws"].skipped
    assert list(plans["rpq"].delta) == [delta.updates[0]]
    engine.apply(delta)
    assert engine.graph.label(9) == "c"
