"""Differential oracle torture test.

Seeded random update streams interleave batch applies, bulk loads,
rollbacks, full and incremental snapshots (each stream picks a format
v5 codec, or plaintext), relevance-aware log compactions, online shard
splits (sharded layouts), and mid-stream recoveries; after *every*
mutation the engine's five view answers are compared against
from-scratch recomputation (BLINKS-style
KWS BFS, RPQ_NFA product BFS, Tarjan, VF2, and a brute-force triangle
count for the registered dataflow view) on the materialized graph —
the correctness methodology both Szárnyas (2018) and Dexter et al.
(2019) prescribe for incremental view/log machinery.

Tier-1 runs a reduced stream count; the nightly CI job sets
``REPRO_DIFFERENTIAL_STREAMS=200`` (the acceptance bar) for the full
sweep.  Every stream is an independent seed, so a failure reproduces
with ``-k "stream-<seed>"``.

Every stream runs under **every storage layout**: a plain ``DiGraph``
journaling a one-segment log, and a ``ShardedGraphStore`` with one log
segment per shard (snapshot format v3), per-batch or group-commit
windowed — so the sharded path is held to the same oracle as the
unsharded one, recovery included.

Every stream also runs **through the serving layer**: all mutations go
via a :class:`repro.serving.Repository`, and the stream interleaves
pinned read sessions whose expected answers are recorded from-scratch
at admission time and re-checked batches later — the MVCC snapshot at
generation *g* must keep answering exactly what a from-scratch oracle
said at *g*, no matter what the write stream did since.
"""

import os
import random

import pytest

from repro import (
    Delta,
    DiGraph,
    Engine,
    Repository,
    ShardedGraphStore,
    ShardMap,
    delete,
    insert,
)
from repro.dataflow import DataflowView
from repro.iso import ISOIndex, Pattern, vf2_matches
from repro.kws import KWSIndex, KWSQuery, batch_kws
from repro.persist import SnapshotStore, available_codecs
from repro.rpq import RPQIndex, matches_only
from repro.scc import SCCIndex, tarjan_scc
from repro.shardexec import shutdown_pools

STREAMS = int(os.environ.get("REPRO_DIFFERENTIAL_STREAMS", "12"))
STEPS = 14
LABELS = ["a", "b", "c", "d"]
#: Every storage layout runs the identical stream logic: ``plain`` is
#: one DiGraph + one-segment log, ``sharded`` is a 3-shard
#: ShardedGraphStore + segmented per-shard log with per-batch fsync,
#: and ``windowed`` is the same sharded store journaled under the
#: ``workers`` strategy with multi-batch group-commit windows (format
#: v4) — shard worker processes when the interpreter can spawn them,
#: in-process windowed appends when it cannot.
LAYOUTS = ("plain", "sharded", "windowed")
SHARDS = 3
WINDOW = 3

@pytest.fixture(autouse=True)
def _reap_worker_pools():
    """Windowed-layout streams may spawn resident shard workers; none
    outlive their stream (no-op for the other layouts)."""
    yield
    shutdown_pools()


KWS_QUERY = KWSQuery(("a", "b"), bound=2)
RPQ_QUERY = "a . (b + c)* . c"
ISO_PATTERN = Pattern.from_edges({0: "a", 1: "b"}, [(0, 1)])


def four_view_engine(graph: DiGraph) -> Engine:
    """The four paper indexes plus a :class:`DataflowView` (triangle
    count) — the dataflow layer rides every apply/rollback/save/compact/
    mid-stream-load against its own from-scratch oracle."""
    engine = Engine(graph)
    engine.register("kws", lambda g, m: KWSIndex(g, KWS_QUERY, meter=m))
    engine.register("rpq", lambda g, m: RPQIndex(g, RPQ_QUERY, meter=m))
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register("iso", lambda g, m: ISOIndex(g, ISO_PATTERN, meter=m))
    engine.register(
        "tri", lambda g, m: DataflowView(g, "triangle-count", meter=m)
    )
    return engine


def batch_triangle_count(graph) -> int:
    """From-scratch oracle: the number of directed 3-cycles."""
    third = 0
    for source, target in graph.edges():
        for closer in graph.successors(target):
            if graph.has_edge(closer, source):
                third += 1  # counts every cycle once per rotation
    assert third % 3 == 0
    return third // 3


def serving_surface_answers(graph):
    """From-scratch recomputation of every served (view, query) pair —
    what a session pinned *now* must still answer later."""
    return {
        ("kws", "roots"): frozenset(batch_kws(graph, KWS_QUERY)),
        ("rpq", "matches"): frozenset(matches_only(graph, RPQ_QUERY)),
        ("scc", "components"): frozenset(tarjan_scc(graph).partition()),
        ("iso", "matches"): frozenset(vf2_matches(graph, ISO_PATTERN)),
        ("tri", "value"): batch_triangle_count(graph),
    }


def assert_session_matches(session, expected) -> None:
    for (view, query), answer in expected.items():
        assert session.read(view, query) == answer, (
            f"pinned session at generation {session.generation} diverged "
            f"on {view}.{query}"
        )


def assert_oracle(engine: Engine) -> None:
    """Every view answer equals from-scratch recomputation on G."""
    graph = engine.graph
    assert engine["kws"].roots() == set(batch_kws(graph, KWS_QUERY))
    assert engine["rpq"].matches == matches_only(graph, RPQ_QUERY)
    assert engine["scc"].components() == tarjan_scc(graph).partition()
    assert engine["iso"].matches == vf2_matches(graph, ISO_PATTERN)
    assert engine["tri"].value() == batch_triangle_count(graph)
    engine["scc"].check_consistency()
    engine["iso"].check_consistency()


def assert_sessions_equal(recovered: Engine, reference: Engine) -> None:
    assert recovered.graph == reference.graph
    assert recovered["kws"].roots() == reference["kws"].roots()
    assert recovered["rpq"].matches == reference["rpq"].matches
    assert recovered["scc"].components() == reference["scc"].components()
    assert recovered["iso"].matches == reference["iso"].matches
    assert recovered["tri"].value() == reference["tri"].value()
    assert recovered["tri"].snapshot() == reference["tri"].snapshot()


def random_graph(rng: random.Random) -> DiGraph:
    size = rng.randint(5, 9)
    graph = DiGraph(
        labels={node: rng.choice(LABELS) for node in range(size)}
    )
    pairs = [(s, t) for s in range(size) for t in range(size) if s != t]
    for edge in rng.sample(pairs, k=min(len(pairs), rng.randint(size, 3 * size))):
        graph.add_edge(*edge)
    return graph


def random_batch(rng: random.Random, graph: DiGraph, next_node: list) -> Delta:
    """An applicable batch: deletions, insertions, sometimes a new node."""
    edges = list(graph.edges())
    nodes = list(graph.nodes())
    non_edges = [
        (s, t)
        for s in nodes
        for t in nodes
        if s != t and not graph.has_edge(s, t)
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
            insert(
                rng.choice(nodes),
                fresh,
                target_label=rng.choice(LABELS),
            )
        )
    rng.shuffle(updates)
    return Delta(updates)


def random_bulk_edges(rng: random.Random, graph, next_node: list) -> list:
    """An insert-only import: a chain of brand-new nodes hung off an
    existing one (``bulk_load`` refuses deletions by contract)."""
    anchor = rng.choice(list(graph.nodes()))
    prev, prev_label = anchor, graph.label(anchor)
    updates = []
    for _ in range(rng.randint(2, 5)):
        fresh, fresh_label = next_node[0], rng.choice(LABELS)
        next_node[0] += 1
        updates.append(insert(prev, fresh, prev_label, fresh_label))
        prev, prev_label = fresh, fresh_label
    return updates


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize(
    "seed", range(STREAMS), ids=[f"stream-{seed}" for seed in range(STREAMS)]
)
def test_differential_stream(seed, layout, tmp_path):
    rng = random.Random(0xD1FF + seed)
    graph = random_graph(rng)
    codec = rng.choice((None,) + available_codecs())
    if layout in ("sharded", "windowed"):
        shard_map = ShardMap(SHARDS)
        graph = ShardedGraphStore.from_digraph(graph, shard_map)
        store = SnapshotStore(
            tmp_path / "store", shard_map=shard_map, codec=codec
        )
    else:
        store = SnapshotStore(tmp_path / "store", codec=codec)
    engine = four_view_engine(graph)
    if layout == "windowed":
        engine.scheduler.executor = "workers"
    store.attach(engine)
    if layout == "windowed":
        store.log.window_size = WINDOW
    store.save(engine)
    # All mutations go through the serving layer, so the stream also
    # tortures MVCC: sessions pinned mid-stream must keep answering
    # what the from-scratch oracle said at their admission generation.
    repo = Repository(engine, max_sessions=8)
    held: list = []  # (session, expected answers at its generation)
    next_node = [1000]
    checkpoints = [repo.checkpoint()]
    mutations = 0
    splits = 0

    for _ in range(STEPS):
        action = rng.random()
        if action < 0.50:
            batch = random_batch(rng, engine.graph, next_node)
            if not batch:
                continue
            repo.apply(batch)
            mutations += 1
            if rng.random() < 0.3:
                checkpoints.append(repo.checkpoint())
        elif action < 0.58:
            repo.bulk_load(random_bulk_edges(rng, engine.graph, next_node))
            mutations += 1
            if rng.random() < 0.3:
                checkpoints.append(repo.checkpoint())
        elif action < 0.68:
            valid = [c for c in checkpoints if c <= engine.applied_count]
            if not valid:
                continue
            repo.rollback(rng.choice(valid))
            mutations += 1
        elif action < 0.72 and layout != "plain" and splits < 2:
            parent = rng.randrange(engine.graph.shard_map.count)
            repo.split_shard(store, parent)
            splits += 1
        elif action < 0.80:
            store.save(engine, incremental=rng.random() < 0.7)
        elif action < 0.90:
            store.compact_log(engine)
        else:
            probe = store.load(attach_journal=False)
            assert_sessions_equal(probe, engine)
            assert_oracle(probe)
        assert_oracle(engine)
        # Serving oracle step: sometimes pin a session (recording the
        # from-scratch surface now), always re-check a random held one.
        if rng.random() < 0.3 and len(held) < 4:
            held.append(
                (repo.session(), serving_surface_answers(engine.graph))
            )
        if held:
            assert_session_matches(*rng.choice(held))

    assert mutations >= 0  # streams with no mutations are legal (and dull)
    assert_oracle(engine)
    for session, expected in held:
        assert_session_matches(session, expected)
        session.close()
    assert repo.poisoned is None
    repo.close()
    recovered = store.load(attach_journal=False)
    assert_sessions_equal(recovered, engine)
    assert_oracle(recovered)
    # a broadcast full-tail replay recovers the identical session
    broadcast = store.load(attach_journal=False, routed=False)
    assert_sessions_equal(broadcast, engine)
