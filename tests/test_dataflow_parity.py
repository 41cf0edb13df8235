"""RPQ-as-dataflow parity oracle.

The ``rpq`` dataflow program recomposes the paper's RPQ semantics from
generic combinators — NFA product as ``join``, reachability as a
bounded ``fixpoint`` — with none of :mod:`repro.rpq.incremental`'s
bespoke marking machinery.  If the dataflow layer is correct, the two
must agree **byte-identically** (canonical renderings of their answer
sets compare equal as strings) after every batch of every seeded
insert/delete stream, under both executor strategies, routed and
broadcast.

Both views ride one :class:`~repro.engine.session.Engine`, so each
batch reaches them through the same scheduler dispatch the production
path uses; the dataflow view additionally declares the *same*
``AlphabetRelevance`` filter as the hand-written index, so routed runs
exercise its conservativeness too.  A standalone broadcast twin absorbs
the identical stream outside the engine and must serialize to the very
same snapshot bytes — the routed/broadcast state-equivalence the
persistence layer depends on.
"""

import random

import pytest

from repro import Delta, DiGraph, Engine, delete, insert
from repro.dataflow import DataflowView, row_order
from repro.rpq import RPQIndex
from repro.shardexec import shutdown_pools

EXECUTORS = ("serial", "workers")
LABELS = ["a", "b", "c", "d"]
STEPS = 8
#: One query per seed, cycled — a concatenation, a starred alternation
#: mid-expression, and a star-first query whose start set is wide.
QUERIES = (
    "a . (b + c)* . c",
    "a . b",
    "(a + b)* . d",
)


@pytest.fixture(autouse=True)
def _reap_worker_pools():
    yield
    shutdown_pools()


def canonical(pairs) -> str:
    """The byte-identity rendering: sorted pair list, repr'd."""
    return repr(sorted(pairs, key=row_order))


def random_graph(rng: random.Random) -> DiGraph:
    size = rng.randint(5, 9)
    graph = DiGraph(labels={node: rng.choice(LABELS) for node in range(size)})
    pairs = [(s, t) for s in range(size) for t in range(size) if s != t]
    for edge in rng.sample(pairs, k=min(len(pairs), rng.randint(size, 3 * size))):
        graph.add_edge(*edge)
    return graph


def random_batch(rng: random.Random, graph: DiGraph, next_node: list) -> Delta:
    edges = list(graph.edges())
    nodes = list(graph.nodes())
    non_edges = [
        (s, t) for s in nodes for t in nodes if s != t and not graph.has_edge(s, t)
    ]
    updates = []
    for edge in rng.sample(edges, k=min(len(edges), rng.randint(0, 3))):
        updates.append(delete(*edge))
    for edge in rng.sample(non_edges, k=min(len(non_edges), rng.randint(0, 3))):
        updates.append(insert(*edge))
    if rng.random() < 0.35 and nodes:
        fresh = next_node[0]
        next_node[0] += 1
        updates.append(
            insert(rng.choice(nodes), fresh, target_label=rng.choice(LABELS))
        )
    rng.shuffle(updates)
    return Delta(updates)


@pytest.mark.parametrize("routing", [True, False], ids=["routed", "broadcast"])
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize(
    "seed", range(3), ids=[f"stream-{seed}" for seed in range(3)]
)
def test_rpq_dataflow_parity(seed, executor, routing):
    query = QUERIES[seed % len(QUERIES)]
    rng = random.Random(0xDA7A + seed)
    graph = random_graph(rng)
    twin_graph = graph.copy()

    engine = Engine(graph, routing=routing)
    engine.scheduler.executor = executor
    engine.register("rpq", lambda g, m: RPQIndex(g, query, meter=m))
    engine.register("df", lambda g, m: DataflowView(g, "rpq", query, meter=m))
    # the dataflow recomposition declares the identical routing filter
    df_filter, rpq_filter = engine["df"].relevance(), engine["rpq"].relevance()
    assert type(df_filter) is type(rpq_filter)
    assert df_filter._alphabet == rpq_filter._alphabet
    assert df_filter._start_labels == rpq_filter._start_labels
    # broadcast twin: same stream, no engine, no routing — must converge
    # to byte-identical state.
    twin = DataflowView(twin_graph, "rpq", query)

    next_node = [1000]
    for _ in range(STEPS):
        batch = random_batch(rng, engine.graph, next_node)
        if not batch:
            continue
        engine.apply(batch)
        twin.apply(batch)
        assert canonical(engine["df"].value()) == canonical(
            engine["rpq"].matches
        ), f"dataflow diverged from rpq/incremental on {query!r}"
    assert twin.snapshot() == engine["df"].snapshot()
    assert canonical(twin.value()) == canonical(engine["rpq"].matches)
