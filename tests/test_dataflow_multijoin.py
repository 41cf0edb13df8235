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
  program holds O(|E|) rows, and one hub-edge update meters no more
  work than the reference chain.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Delta, DiGraph, delete, insert
from repro.core.cost import CostMeter
from repro.dataflow import Dataflow, DataflowError, DataflowView, GraphInputs
from repro.dataflow.library import _canonical_cycle, build_triangle_count

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
    graph = hub_graph(k)
    view = DataflowView(graph, "triangle-count")
    view.apply(Delta([insert(k + 1, 1)]))  # close one triangle through the hub
    assert view.value() == 1
    held = sum(node["value_rows"] + node["state_rows"] for node in view.describe())
    # inputs (|V| + |E| rows) + two adjacency arrangements (2|E|) + output
    assert held <= 5 * graph.num_edges


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
