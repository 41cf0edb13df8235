"""``multijoin`` — the delta-query multiway join — against its references.

* **Equivalence (Hypothesis).**  On random insert/delete streams a
  ``multijoin`` node and the chain of binary ``join``s it replaces hold
  equal values *and* push equal per-``stabilize`` deltas, for patterns
  that cover every code path of the operator: a cyclic self-join
  (triangle), an acyclic two-atom pattern, a 4-cycle, an atom the seed
  binds entirely (reciprocal pair), two relations mixed in one pattern,
  and atoms over the leading columns of wider rows.  Rows range over
  four node ids, so self-loops, counts above one and batches that insert
  and delete edges of the same triangle are the common case.
* **The triangle program** equals the two-``join`` chain it was built
  from before (kept here as the reference) and a brute-force count of
  rotation classes of closed 3-walks, self-loops and reciprocal edges
  included.
* **State bound.**  On a hub graph (k edges in, k out: k² wedges) the
  program holds its output and nothing else, whatever |E|, and one
  hub-edge update meters no more work than the reference chain.
* **Graph-backed inputs (Hypothesis).**  ``DataflowView`` reads its two
  input relations, and ``multijoin`` its adjacency arrangements, off the
  live graph.  The construction it replaced — plain ``Var``s holding a
  copy of the graph — is kept here as the oracle: all four built-in
  programs agree with it, values and per-batch ΔO, through engine
  streams with self-loops, reciprocal edges, hub endpoints, new nodes,
  delete-then-reinsert batches, rollbacks and a bulk load into empty
  views, over a ``DiGraph`` and over a ``ShardedGraphStore`` that is
  split mid-stream.
"""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Delta, DiGraph, Engine, SnapshotStore, delete, insert
from repro.core.cost import CostMeter
from repro.dataflow import Dataflow, DataflowError, DataflowView, GraphInputs
from repro.dataflow.library import (
    _canonical_cycle,
    build_edge_label_count,
    build_rpq,
    build_triangle_count,
    build_two_hop,
)
from repro.dataflow.view import DataflowDelta
from repro.graph.sharding import ShardedGraphStore, ShardMap
from repro.kws.kdist import node_order

# ----------------------------------------------------------------------
# references: chained binary joins
# ----------------------------------------------------------------------


def chained_reference(flow, atoms, out):
    """The same natural join as a left-fold of binary ``join``s over the
    atoms' leading-column projections — materialising every prefix."""
    relation, variables = atoms[0]
    bound = list(variables)
    joined = flow.map(relation, lambda row, n=len(variables): row[:n])
    for relation, variables in atoms[1:]:
        projected = flow.map(relation, lambda row, n=len(variables): row[:n])
        shared = [v for v in variables if v in bound]
        left = [bound.index(v) for v in shared]
        right = [variables.index(v) for v in shared]
        fresh = [c for c, v in enumerate(variables) if v not in bound]
        joined = flow.join(
            joined,
            projected,
            left_key=lambda row, cols=left: tuple(row[c] for c in cols),
            right_key=lambda row, cols=right: tuple(row[c] for c in cols),
            merge=lambda l, r, cols=fresh: l + tuple(r[c] for c in cols),
        )
        bound += [variables[c] for c in fresh]
    return flow.map(joined, lambda row: tuple(row[bound.index(v)] for v in out))


def reference_triangle_count(flow: Dataflow, inputs: GraphInputs):
    """``triangle-count`` as it was built before ``multijoin``: two
    binary joins, the first materialising every 2-path of the graph."""
    paths = flow.join(
        inputs.edges,
        inputs.edges,
        left_key=lambda e: e[1],
        right_key=lambda e: e[0],
        merge=lambda first, second: (first[0], first[1], second[1]),
        name="ref.paths",
    )
    cycles = flow.join(
        paths,
        inputs.edges,
        left_key=lambda p: (p[2], p[0]),
        right_key=lambda e: (e[0], e[1]),
        merge=lambda p, _e: _canonical_cycle(p),
        name="ref.cycles",
    )
    return flow.count(flow.distinct(cycles, name="ref.distinct"), name="ref.count")


def rotation_classes(graph: DiGraph) -> int:
    """Brute force: closed 3-walks a→b→c→a, counted up to rotation."""
    walks = {
        (a, b, c)
        for a, b in graph.edges()
        for c in graph.successors(b)
        if graph.has_edge(c, a)
    }
    return len({frozenset([(a, b, c), (b, c, a), (c, a, b)]) for a, b, c in walks})


# ----------------------------------------------------------------------
# equivalence on random streams
# ----------------------------------------------------------------------

PATTERNS = {
    "triangle": ([("E", "ab"), ("E", "bc"), ("E", "ca")], "abc"),
    "two-atom path": ([("E", "ab"), ("E", "bc")], "ac"),
    "four-cycle": ([("E", "ab"), ("E", "bc"), ("E", "cd"), ("E", "da")], "abcd"),
    "reciprocal pair": ([("E", "ab"), ("E", "ba")], "ab"),
    "two relations": ([("E", "ab"), ("F", "bc"), ("E", "ca")], "cab"),
    "mixed arity": ([("E", "abx"), ("E", "bc"), ("F", "c")], "xac"),
}

NODES = st.integers(min_value=0, max_value=3)
#: rows carry a third column so atoms of arity 1, 2 and 3 all project
ROWS = st.tuples(NODES, NODES, st.sampled_from(["p", "q"]))
CHANGES = st.lists(
    st.tuples(st.sampled_from(["E", "F"]), ROWS, st.integers(-2, 2)), max_size=8
)
STREAMS = st.lists(CHANGES, min_size=1, max_size=6)


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
@settings(max_examples=60, deadline=None)
@given(stream=STREAMS)
def test_multijoin_equals_chained_joins(pattern, stream):
    atoms, out = PATTERNS[pattern]
    flow = Dataflow()
    relations = {"E": flow.var(name="E"), "F": flow.var(name="F")}
    wired = [(relations[name], variables) for name, variables in atoms]
    multi = flow.multijoin(wired, out)
    downstream = flow.distinct(multi)
    reference = chained_reference(flow, wired, out)
    multi_observer = flow.observe(multi)
    reference_observer = flow.observe(reference)
    held = {"E": {}, "F": {}}
    flow.stabilize()  # first evaluation of every node, over empty inputs
    for batch in stream:
        for name, row, change in batch:
            change = max(change, -held[name].get(row, 0))  # never below zero
            if change:
                held[name][row] = held[name].get(row, 0) + change
                relations[name].update({row: change})
        evaluations = downstream.eval_count
        flow.stabilize()
        assert multi.value == reference.value
        delta = multi_observer.take_delta()
        assert delta == reference_observer.take_delta()
        # cutoff: the child re-evaluates exactly when the join changed
        assert downstream.eval_count - evaluations == (delta != ((), ()))
        assert flow.stabilize() == 0  # idempotent


def test_no_op_batches_cut_off():
    flow = Dataflow()
    edges = flow.var()
    walks = flow.multijoin([(edges, "ab"), (edges, "bc"), (edges, "ca")], "abc")
    total = flow.count(walks)
    edges.update({(1, 2): 1, (2, 3): 1, (3, 1): 1})
    flow.stabilize()
    assert total.value == 3
    before = (walks.eval_count, total.eval_count)
    edges.update({(7, 8): 1})
    edges.update({(7, 8): -1})  # nets to nothing: the join never hears of it
    assert flow.stabilize() == 1
    assert (walks.eval_count, total.eval_count) == before
    edges.update({(7, 8): 1})  # joins with nothing: evaluated, then cut off
    flow.stabilize()
    assert walks.eval_count == before[0] + 1
    assert total.eval_count == before[1]


def test_multijoin_rejects_malformed_patterns():
    flow = Dataflow()
    edges = flow.var()
    with pytest.raises(DataflowError, match="two atoms"):
        flow.multijoin([(edges, "ab")], "ab")
    with pytest.raises(DataflowError, match="distinct variables"):
        flow.multijoin([(edges, "aa"), (edges, "ab")], "ab")
    with pytest.raises(DataflowError, match="unbound"):
        flow.multijoin([(edges, "ab"), (edges, "bc")], "az")
    with pytest.raises(DataflowError, match="scalar"):
        flow.multijoin([(edges, "ab"), (flow.count(edges), "b")], "ab")


# ----------------------------------------------------------------------
# triangle-count: reference chain, rotation classes, degenerate graphs
# ----------------------------------------------------------------------


def test_minimal_node_twice_is_one_rotation_class():
    """(1,1),(1,2),(2,1): walks (1,1,1) and (1,1,2)~(1,2,1)~(2,1,1)."""
    graph = DiGraph(labels={1: "a", 2: "a"}, edges=[(1, 1), (1, 2), (2, 1)])
    assert rotation_classes(graph) == 2
    assert DataflowView(graph, "triangle-count").value() == 2


EDGES = st.tuples(NODES, NODES)  # self-loops and reciprocal edges included


@settings(max_examples=80, deadline=None)
@given(
    initial=st.sets(EDGES, max_size=10),
    batches=st.lists(st.sets(EDGES, min_size=1, max_size=4), max_size=5),
)
def test_triangle_count_on_degenerate_graphs(initial, batches):
    """The program, the reference chain and brute force agree through
    streams that toggle self-loops and reciprocal edges."""
    graph = DiGraph(labels={node: "a" for node in range(4)}, edges=sorted(initial))
    view = DataflowView(graph, "triangle-count")
    flow = Dataflow()
    inputs = GraphInputs(flow.var(), flow.var())
    reference = reference_triangle_count(flow, inputs)
    inputs.edges.update({(s, t, "a", "a"): 1 for s, t in initial})
    flow.stabilize()
    assert view.value() == reference.value == rotation_classes(graph)
    for batch in batches:
        toggles = sorted(batch)
        present = [graph.has_edge(*edge) for edge in toggles]
        view.apply(
            Delta(
                [
                    delete(*edge) if there else insert(*edge)
                    for edge, there in zip(toggles, present)
                ]
            )
        )
        inputs.edges.update(
            {
                (s, t, "a", "a"): -1 if there else 1
                for (s, t), there in zip(toggles, present)
            }
        )
        flow.stabilize()
        assert view.value() == reference.value == rotation_classes(graph)


# ----------------------------------------------------------------------
# state bound and metered work on a hub
# ----------------------------------------------------------------------


def hub_graph(k: int) -> DiGraph:
    """k edges into node 0, k out of it: 2k edges, k² wedges."""
    graph = DiGraph(labels={node: "a" for node in range(2 * k + 1)})
    for spoke in range(1, k + 1):
        graph.add_edge(spoke, 0)
        graph.add_edge(0, k + spoke)
    return graph


@pytest.mark.parametrize("k", [50, 100, 200])
def test_hub_state_is_linear_in_edges(k):
    """Not even linear: the inputs and the adjacency arrangements are
    the graph, so the rows held are the output's, whatever k."""
    graph = hub_graph(k)
    view = DataflowView(graph, "triangle-count")
    view.apply(Delta([insert(k + 1, 1)]))  # close one triangle through the hub
    assert view.value() == 1
    held = {node["name"]: node["held_rows"] for node in view.describe()}
    assert held == {
        "graph.nodes": 0,
        "graph.edges": 0,
        "tri.walks": 3,  # the triangle's three rotations, no arrangement
        "tri.cycles": 1,
        "tri.distinct": 1,
        "tri.count": 1,
    }


def test_hub_update_meters_no_more_than_the_reference_chain():
    k = 100
    rows = {(s, t, "a", "a"): 1 for s, t in hub_graph(k).edges()}
    work = {}
    for name, build in (
        ("multijoin", build_triangle_count),
        ("reference", reference_triangle_count),
    ):
        meter = CostMeter()
        flow = Dataflow(meter=meter)
        inputs = GraphInputs(flow.var(), flow.var())
        output = build(flow, inputs)
        inputs.edges.update(rows)
        flow.stabilize()
        spent = []
        for update in (
            {(2 * k + 1, 0, "a", "a"): 1},  # one more edge into the hub
            {(k + 1, 1, "a", "a"): 1},  # an edge that closes a triangle
            {(k + 1, 1, "a", "a"): -1},
        ):
            before = meter.total()
            inputs.edges.update(update)
            flow.stabilize()
            spent.append(meter.total() - before)
        work[name] = (spent, output.value)
    assert work["multijoin"][1] == work["reference"][1] == 0
    for ours, theirs in zip(work["multijoin"][0], work["reference"][0]):
        assert ours <= theirs
    # the hub edge itself: one probe per plan, not one per wedge
    assert work["multijoin"][0][0] * 10 < work["reference"][0][0]


# ----------------------------------------------------------------------
# graph-backed inputs against the materialised construction
# ----------------------------------------------------------------------

RPQ_QUERY = "a . b* . a"

BUILDERS = {
    "tri": ("triangle-count", build_triangle_count, ()),
    "hop": ("two-hop", build_two_hop, ()),
    "labels": ("edge-label-count", build_edge_label_count, ()),
    "rpq": ("rpq", build_rpq, (RPQ_QUERY,)),
}


class MaterialisedTwin:
    """A program over plain ``Var``s that hold a copy of the graph's
    rows — how ``DataflowView`` built its inputs before they became
    views of the graph."""

    def __init__(self, graph, builder, args):
        self.flow = Dataflow()
        self.inputs = GraphInputs(self.flow.var(), self.flow.var())
        self.observer = self.flow.observe(builder(self.flow, self.inputs, *args))
        label = graph.label
        self.inputs.nodes.update({(node, label(node)): 1 for node in graph.nodes()})
        self.inputs.edges.update(
            {(s, t, label(s), label(t)): 1 for s, t in graph.edges()}
        )
        self.flow.stabilize()
        self.observer.take_delta()

    def absorb(self, graph, delta, new_nodes) -> DataflowDelta:
        label = graph.label
        rows: dict = {}
        for update in delta:
            row = (update.source, update.target, label(update.source), label(update.target))
            rows[row] = rows.get(row, 0) + (1 if update.is_insert else -1)
        self.inputs.nodes.update(
            {(node, label(node)): 1 for node in sorted(new_nodes, key=node_order)}
        )
        self.inputs.edges.update(rows)
        self.flow.stabilize()
        return DataflowDelta(*self.observer.take_delta())

    def value(self):
        output = self.observer.node
        return frozenset(output.value) if output.is_relation else output.value


#: node 0 is drawn three times as often: a hub
ENDPOINTS = st.sampled_from([0, 0, 0, 1, 2, 3, 4, 5])
PAIRS = st.tuples(ENDPOINTS, ENDPOINTS)  # self-loops, reciprocal edges
OPS = st.one_of(
    st.tuples(
        st.just("batch"),
        st.lists(PAIRS, min_size=1, max_size=5, unique=True),
        st.booleans(),  # also delete and re-insert a present edge
        st.one_of(st.none(), st.sampled_from("ab")),  # an edge to a new node
    ),
    st.tuples(st.just("rollback"), st.integers(1, 3)),
)


def run_differential(graph, initial, bulk, ops, after_op=lambda index, engine: None):
    if not bulk:
        for edge in initial:
            graph.add_edge(*edge)
    engine = Engine(graph)
    for name, (program, _, args) in BUILDERS.items():
        engine.register(
            name, lambda g, m, p=program, a=args: DataflowView(g, p, *a, meter=m)
        )
    twins = {
        name: MaterialisedTwin(graph, builder, args)
        for name, (_, builder, args) in BUILDERS.items()
    }

    def check(report, outputs=True):
        for name, twin in twins.items():
            expected = twin.absorb(graph, report.delta, report.new_nodes)
            if outputs:
                assert report.output(name) == expected, name
            assert engine[name].value() == twin.value(), name

    if bulk:
        # empty views, brought current by one rebuild each: no ΔO to compare
        check(engine.bulk_load(initial), outputs=False)
    fresh = 6
    for index, op in enumerate(ops):
        if op[0] == "rollback":
            mark = max(0, engine.applied_count - op[1])
            if mark < engine.applied_count:
                check(engine.rollback(mark))
        else:
            _, pairs, reinsert, new_label = op
            updates = [
                delete(*pair) if graph.has_edge(*pair) else insert(*pair)
                for pair in pairs
            ]
            untouched = sorted(set(graph.edges()) - set(pairs))
            if reinsert and untouched:
                updates += [delete(*untouched[0]), insert(*untouched[0])]
            if new_label is not None:
                updates.append(insert(pairs[0][0], fresh, target_label=new_label))
                fresh += 1
            check(engine.apply(Delta(updates)))
        after_op(index, engine)
    return engine


def labelled_nodes(graph_class, **kwargs):
    return graph_class(labels={node: "ab"[node % 2] for node in range(6)}, **kwargs)


@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(PAIRS, max_size=10, unique=True),
    bulk=st.booleans(),
    ops=st.lists(OPS, min_size=1, max_size=6),
)
def test_graph_backed_programs_equal_the_materialised_ones(initial, bulk, ops):
    run_differential(labelled_nodes(DiGraph), initial, bulk, ops)


@settings(max_examples=40, deadline=None)
@given(
    initial=st.lists(PAIRS, max_size=10, unique=True),
    bulk=st.booleans(),
    ops=st.lists(OPS, min_size=4, max_size=7),
)
def test_graph_backed_programs_survive_a_split(
    tmp_path_factory, initial, bulk, ops
):
    """Two range shards, split (through the snapshot store, journaling
    from then on) after the third operation: the programs keep reading
    the one graph, whose map alone changes."""
    graph = labelled_nodes(
        ShardedGraphStore, shard_map=ShardMap(kind="range", boundaries=[2])
    )

    def move(index, engine):
        if index == 2:
            store = SnapshotStore(
                tmp_path_factory.mktemp("split"), shard_map=graph.shard_map
            )
            store.attach(engine)
            store.save(engine)
            store.split_shard(engine, 1, boundary=4)
            assert graph.num_shards == 3

    engine = run_differential(graph, initial, bulk, ops, after_op=move)
    assert engine.graph.num_shards == 3


def test_a_batch_the_graph_does_not_hold_is_refused_and_the_view_lives_on():
    graph = DiGraph(labels={1: "a", 2: "a", 3: "a"}, edges=[(1, 2), (2, 3)])
    view = DataflowView(graph, "triangle-count")
    with pytest.raises(DataflowError, match="lacks"):
        view.absorb(Delta([insert(3, 1)]), [])  # never applied to the graph
    with pytest.raises(DataflowError, match="holds"):
        view.absorb(Delta([delete(1, 2)]), [])  # still in the graph
    with pytest.raises(DataflowError, match="lacks"):
        view.inputs.nodes.update({(9, "a"): 1})
        view.flow.stabilize()
    with pytest.raises(DataflowError, match="live store"):
        view.inputs.edges.replace({})
    assert view.value() == 0
    # a delete and a re-insert of one edge in one batch announce nothing
    assert view.absorb(Delta([delete(1, 2), insert(1, 2)]), []).is_empty
    assert view.apply(Delta([insert(3, 1)])) == DataflowDelta(
        added=(((1,), 1),), removed=(((0,), 1),)
    )
    assert view.value() == 1


def test_triangle_count_allocates_nothing_per_edge():
    """20 000 edges in three layers (two-paths, no closed walk): the
    view used to hold ≈ 230 bytes per edge — both inputs and two
    arrangements; it now holds its scalar."""
    width, edges = 1000, 20_000
    graph = DiGraph(labels={node: "a" for node in range(3 * width)})
    step = 0
    while graph.num_edges < edges:
        layer, offset = step % 2, step // 2
        source = layer * width + offset % width
        target = (layer + 1) * width + (offset * 7 + offset // width) % width
        if not graph.has_edge(source, target):
            graph.add_edge(source, target)
        step += 1
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        view = DataflowView(graph, "triangle-count")
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert view.value() == 0
    assert (after - before) / edges < 25
    described = {node["name"]: node for node in view.describe()}
    assert described["graph.nodes"]["held_rows"] == 0
    assert described["graph.edges"]["held_rows"] == 0
    assert described["graph.edges"]["value_rows"] == edges  # still readable
    assert described["tri.walks"]["state_rows"] == 0


def test_triangle_count_meters_the_same_work_on_a_fixed_stream():
    """The compiled plans change what runs per row, not what is
    metered: the build and every absorb of a fixed stream — inserts and
    deletes over a random 300-node graph, reciprocal edges included —
    cost exactly the counts recorded before the plans were compiled."""
    rng = random.Random(7)
    graph = DiGraph(labels={node: "a" for node in range(300)})
    while graph.num_edges < 2400:
        source, target = rng.randrange(300), rng.randrange(300)
        if not graph.has_edge(source, target):
            graph.add_edge(source, target)
    meter = CostMeter()
    view = DataflowView(graph, "triangle-count", meter=meter)
    assert (meter.edges_traversed, meter.total(), view.value()) == (
        18004,
        18847,
        168,
    )
    engine = Engine(graph)
    engine.attach("tri", view)
    work = []
    for _ in range(40):
        batch = {}
        for _ in range(6):
            edge = (rng.randrange(300), rng.randrange(300))
            batch.setdefault(
                edge, delete(*edge) if graph.has_edge(*edge) else insert(*edge)
            )
        before = meter.edges_traversed
        engine.apply(Delta(list(batch.values())))
        work.append(meter.edges_traversed - before)
    assert (meter.edges_traversed, meter.total(), view.value()) == (
        23178,
        24876,
        223,
    )
    assert work == [
        114, 120, 123, 117, 132, 126, 117, 126, 138, 159,
        123, 126, 105, 135, 129, 96, 135, 150, 89, 126,
        135, 126, 138, 150, 138, 147, 135, 153, 129, 132,
        114, 156, 153, 123, 123, 150, 126, 123, 144, 93,
    ]  # fmt: skip


def test_a_store_lookup_that_answers_empty_for_a_missing_key(monkeypatch):
    """A store's adjacency may be any one-argument lookup: one that gives
    an empty collection for a key without values (the graph's
    ``out_neighbors``) serves the first evaluation and the delta ones
    alike, with the same values and metered work as ``dict.get``."""
    from repro.dataflow import view as view_module

    def bound_methods(self, key_columns, value_column):
        if (key_columns, value_column) == ((0,), 1):
            return self._graph.out_neighbors
        if (key_columns, value_column) == ((1,), 0):
            return self._graph.in_neighbors
        return None

    def run():
        rng = random.Random(3)
        graph = DiGraph(labels={node: "a" for node in range(40)})
        while graph.num_edges < 160:
            edge = (rng.randrange(40), rng.randrange(40))
            if not graph.has_edge(*edge):
                graph.add_edge(*edge)
        meter = CostMeter()
        engine = Engine(graph)
        engine.attach("tri", DataflowView(graph, "triangle-count", meter=meter))
        values = [engine["tri"].value()]
        for _ in range(20):
            edge = (rng.randrange(45), rng.randrange(45))  # new nodes too
            engine.apply(
                Delta([delete(*edge) if graph.has_edge(*edge) else insert(*edge)])
            )
            values.append(engine["tri"].value())
        return values, meter.edges_traversed

    expected = run()
    monkeypatch.setattr(view_module._EdgeRelation, "adjacency", bound_methods)
    assert run() == expected
