"""The snapshot store's memory contract: an incremental save holds O(change).

While the snapshot on disk is the file the store wrote last, an
incremental save copies the carried bodies by byte range through one
64 KiB buffer — it never re-reads the previous file into lines.  The
save-time peak is then the dirty views' rendering, the ``%graphdiff``
chunk and the buffer, nothing per graph line.

``test_rendering_a_dirty_view_peaks_under_its_bytes_per_edge`` bounds
the peak of a save whose dirty view renders thousands of rows: a body
is rendered a chunk at a time, never whole.
``test_load_peak_stays_under_its_bytes_per_edge`` bounds what a load
holds at its peak beyond the state it restores.

``test_soak_keeps_saves_parse_free_and_flat`` is the persist soak: it
drives ``REPRO_SOAK_BATCHES`` batches (default 320) under
``SnapshotPolicy(every_batches=64)`` and checks that no save calls
``split_snapshot_sections`` on the file it carries from and that the
memory the persistence layer holds stays flat from save to save.  The nightly workflow runs it with 20 000
batches.  It prints the process's VmRSS growth without asserting it.
"""

import gc
import os
import random
import tracemalloc
from collections import deque

import repro.persist.snapshot as snapshot_module
from repro import Delta, DiGraph, Engine, SnapshotPolicy, SnapshotStore, delete, insert
from repro.dataflow import DataflowView
from repro.kws import KWSIndex, KWSQuery
from repro.scc import SCCIndex

# Measured on a 5 000-node / 20 000-edge graph with one dirty
# edge-label-count view (CPython 3.11): an incremental save that carries
# by byte range peaks 10.6 bytes per edge above the live heap, 3.3 of
# them the 64 KiB carry buffer.  Rebuilding a node set of the graph on
# every save (as log compaction once needed) peaked at 33.4; re-reading
# the previous file through split_snapshot_sections peaked at 119.
SAVE_PEAK_BYTES_PER_EDGE = 16

# Measured loading a 5 000-node / 20 000-edge store with scc, kws and
# triangle-count views (CPython 3.11): reading every body into lines and
# parsing a record at a time peaked 605 bytes per edge above the live
# heap and retained 447; loading in bulk (one token memo, the graph's
# edges inserted in chunks) peaks 547 and retains 365.  The bound is the
# line-at-a-time reader's peak: a faster load must not cost memory.
LOAD_PEAK_BYTES_PER_EDGE = 605

# Measured on the same graph with one dirty kws view of 9 602 rows
# (CPython 3.11): an incremental save that rendered the body a line at
# a time, its nodes sorted by node_order keys, peaked 64.0 bytes per edge
# above the live heap.  Rendering it in chunks of 1 024 rows peaks 48.5;
# rendering it as one chunk peaked 89.6.  The bound is the line-at-a-time
# peak: a save that renders a body whole fails it.
RENDER_PEAK_BYTES_PER_EDGE = 64

SOAK_BATCHES = int(os.environ.get("REPRO_SOAK_BATCHES", "320"))
SOAK_SAVE_EVERY = 64
#: How far the persistence layer's traced memory may move between the
#: second save and the last: what a save keeps is replaced, not added.
SOAK_FLAT_BYTES = 64 * 1024
#: Allocations whose innermost frame is in the persistence layer.
PERSIST_TRACES = [tracemalloc.Filter(True, "*/repro/persist/*")]


def random_graph(nodes: int, edges: int, seed: int) -> DiGraph:
    rng = random.Random(seed)
    labels = ["a", "b", "c", "d"]
    graph = DiGraph(labels={node: rng.choice(labels) for node in range(nodes)})
    while graph.num_edges < edges:
        source, target = rng.sample(range(nodes), 2)
        if not graph.has_edge(source, target):
            graph.add_edge(source, target)
    return graph


def one_view_engine(graph: DiGraph) -> Engine:
    engine = Engine(graph)
    engine.register(
        "labels", lambda g, m: DataflowView(g, "edge-label-count", meter=m)
    )
    return engine


def test_incremental_save_peak_stays_under_its_bytes_per_edge(tmp_path):
    graph = random_graph(5_000, 20_000, seed=0)
    engine = one_view_engine(graph)
    store = SnapshotStore(tmp_path)
    store.attach(engine)
    store.save(engine)
    engine.apply(Delta([insert(0, 1), insert(2, 3)]))
    store.save(engine, incremental=True)
    engine.apply(Delta([insert(4, 5), insert(6, 7)]))
    assert engine.dirty_views() == frozenset({"labels"})
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store.save(engine, incremental=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = store.last_save_report
    assert (report.sections_carried, report.sections_rendered) == (1, 1)
    per_edge = (peak - before) / graph.num_edges
    assert per_edge < SAVE_PEAK_BYTES_PER_EDGE, per_edge


def test_rendering_a_dirty_view_peaks_under_its_bytes_per_edge(tmp_path):
    graph = random_graph(5_000, 20_000, seed=0)
    engine = Engine(graph)
    engine.register("kws", lambda g, m: KWSIndex(g, KWSQuery(("a", "b"), 2), meter=m))
    store = SnapshotStore(tmp_path)
    store.attach(engine)
    store.save(engine)
    engine.apply(Delta([insert(5_000, 0, "a", "a"), insert(5_001, 1, "b", "b")]))
    store.save(engine, incremental=True)
    engine.apply(Delta([insert(5_002, 2, "a", "a"), insert(5_003, 3, "b", "b")]))
    assert engine.dirty_views() == frozenset({"kws"})
    rows = len(engine.view("kws").snapshot().records)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store.save(engine, incremental=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = store.last_save_report
    assert (report.sections_carried, report.sections_rendered) == (1, 1)
    per_edge = (peak - before) / graph.num_edges
    print(f"\n{rows} kws rows: save peak {per_edge:.1f} bytes per edge")
    assert rows > 5_000
    assert per_edge < RENDER_PEAK_BYTES_PER_EDGE, per_edge


def test_load_peak_stays_under_its_bytes_per_edge(tmp_path):
    graph = random_graph(5_000, 20_000, seed=0)
    engine = Engine(graph)
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register("kws", lambda g, m: KWSIndex(g, KWSQuery(("a", "b"), 2), meter=m))
    engine.register("tri", lambda g, m: DataflowView(g, "triangle-count", meter=m))
    SnapshotStore(tmp_path).save(engine)
    store = SnapshotStore(tmp_path)
    store.load(attach_journal=False)  # imports and caches warm
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        revived = store.load(attach_journal=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert revived.graph == graph
    per_edge = (peak - before) / graph.num_edges
    assert per_edge < LOAD_PEAK_BYTES_PER_EDGE, per_edge


def vm_rss_kb() -> int:
    """This process's resident set in kB (0 where /proc is missing)."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def persist_traced_bytes() -> int:
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces(PERSIST_TRACES)
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_soak_keeps_saves_parse_free_and_flat(tmp_path, monkeypatch):
    nodes = 2_000
    engine = one_view_engine(random_graph(nodes, 8_000, seed=1))
    store = SnapshotStore(tmp_path)
    store.save(engine)  # the one full save; every later save carries
    policy = SnapshotPolicy(every_batches=SOAK_SAVE_EVERY, compact_every_batches=512)
    store.attach(engine, policy=policy)
    splits = []  # one entry per split_snapshot_sections call
    split = snapshot_module.split_snapshot_sections

    def counted(*args, **kwargs):
        splits.append(1)
        return split(*args, **kwargs)

    monkeypatch.setattr(snapshot_module, "split_snapshot_sections", counted)
    rng = random.Random(2)
    inserted: deque = deque()  # the stream's own edges, oldest first
    traced = []
    rss_before = vm_rss_kb()
    tracemalloc.start()
    try:
        for _ in range(SOAK_BATCHES):
            # one fresh edge in, the stream's oldest out: |E| stays put
            source, target = rng.sample(range(nodes), 2)
            updates = []
            if not engine.graph.has_edge(source, target):
                updates.append(insert(source, target))
                inserted.append((source, target))
            if len(inserted) > 32:
                updates.append(delete(*inserted.popleft()))
            saves = policy.saves
            engine.apply(Delta(updates))
            if policy.saves > saves and policy.saves in (
                2,
                SOAK_BATCHES // SOAK_SAVE_EVERY,
            ):
                traced.append(persist_traced_bytes())
    finally:
        tracemalloc.stop()
    print(
        f"\n{SOAK_BATCHES} batches, {policy.saves} saves: VmRSS grew "
        f"{(vm_rss_kb() - rss_before) / 1024:.1f} MB"
    )
    assert policy.saves == SOAK_BATCHES // SOAK_SAVE_EVERY
    # the store wrote the file it carries from: no save re-reads it
    assert splits == []
    assert len(traced) == 2 and abs(traced[1] - traced[0]) < SOAK_FLAT_BYTES, traced
    revived = SnapshotStore(tmp_path).load(attach_journal=False)
    assert revived.graph == engine.graph
    assert revived["labels"].value() == engine["labels"].value()
