"""Sharded graph store + segmented delta log test suite.

Three layers of coverage:

* ``ShardMap`` / ``ShardedGraphStore`` — deterministic placement and a
  differential property test driving the same random mutation sequence
  through a sharded store and a plain ``DiGraph``, comparing the full
  read API after every step;
* the engine over a sharded store — four-view equivalence against the
  unsharded reference on random batch streams, under every executor;
* ``SegmentedDeltaLog`` — global seq allocation, cross-segment commit
  atomicity (a partially fsynced append must be discarded whole),
  order-independent replay via insert-label stabilization, per-segment
  and rotating compaction, and snapshot-v3 save/load of sharded
  sessions (including layout adoption by a map-less store).
"""

import hashlib
import random
import tracemalloc

import pytest

from repro import (
    DataflowView,
    Delta,
    DiGraph,
    Engine,
    SegmentedDeltaLog,
    ShardedGraphStore,
    ShardMap,
    SnapshotStore,
    delete,
    insert,
)
from repro.engine import EXECUTOR_ENV, SchedulerError
from repro.graph.digraph import (
    DuplicateEdgeError,
    MissingEdgeError,
    MissingNodeError,
)
from repro.graph.sharding import route_updates, stable_shard_hash
from repro.iso import ISOIndex, Pattern
from repro.kws import KWSIndex, KWSQuery
from repro.persist import PersistFormatError, SnapshotPolicy
from repro.persist.deltalog import WINDOW_ENV
from repro.rpq import RPQIndex
from repro.scc import SCCIndex
from repro.shardexec import shutdown_pools

KWS_QUERY = KWSQuery(("a", "b"), bound=2)
RPQ_QUERY = "a . (b + c)* . c"
ISO_PATTERN = Pattern.from_edges({0: "a", 1: "b"}, [(0, 1)])
LABELS = ["a", "b", "c", "d"]

#: sha256 prefixes of the eleven files
#: ``test_unsplit_store_saves_are_byte_identical_to_the_recorded_files``
#: writes, as the store wrote them with one ``DiGraph`` per shard.
UNSPLIT_SAVE_DIGESTS = [
    "ddeb0cfd51057997",
    "87b7b42a2923a317",
    "c89266331f2d677b",
    "60f7f64a4a6930bb",
    "a725ae5335b5b178",
    "a6337b628609f295",
    "dabb5a0a40dad053",
    "9c98c80109dcd393",
    "a84690ddd3007c8d",
    "3fdb8022670e3eac",
    "f326d5971f32b258",
]


def four_view_engine(graph) -> Engine:
    engine = Engine(graph)
    engine.register("kws", lambda g, m: KWSIndex(g, KWS_QUERY, meter=m))
    engine.register("rpq", lambda g, m: RPQIndex(g, RPQ_QUERY, meter=m))
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register("iso", lambda g, m: ISOIndex(g, ISO_PATTERN, meter=m))
    return engine


def assert_same_graph(sharded: ShardedGraphStore, plain: DiGraph) -> None:
    """Full read-API comparison between a sharded store and a DiGraph."""
    assert sharded == plain
    assert plain == sharded  # reflected through DiGraph.__eq__ fallback
    assert sharded.num_nodes == plain.num_nodes
    assert sharded.num_edges == plain.num_edges
    assert sharded.size() == plain.size()
    assert set(sharded.nodes()) == set(plain.nodes())
    assert set(sharded.edges()) == set(plain.edges())
    assert sharded.labels == plain.labels
    for node in plain.nodes():
        assert sharded.has_node(node) and node in sharded
        assert sharded.label(node) == plain.label(node)
        assert sharded.successor_set(node) == plain.successor_set(node)
        assert sharded.predecessor_set(node) == plain.predecessor_set(node)
        assert set(sharded.successors(node)) == set(plain.successors(node))
        assert set(sharded.predecessors(node)) == set(plain.predecessors(node))
        assert sharded.out_degree(node) == plain.out_degree(node)
        assert sharded.in_degree(node) == plain.in_degree(node)
        # the no-copy accessors: sized, iterable, in-testable, &-able
        for ours, theirs in (
            (sharded.out_neighbors(node), plain.out_neighbors(node)),
            (sharded.in_neighbors(node), plain.in_neighbors(node)),
        ):
            assert len(ours) == len(theirs) and set(ours) == theirs
            assert all(member in ours for member in theirs)
            assert node in ours or node not in theirs
            probe = frozenset(list(theirs)[::2]) | {object()}
            assert ours & probe == theirs & probe == probe & ours
    absent = object()
    assert not sharded.out_neighbors(absent) and not sharded.in_neighbors(absent)
    assert not plain.out_neighbors(absent) and not plain.in_neighbors(absent)
    for label in LABELS:
        assert set(sharded.nodes_with_label(label)) == set(
            plain.nodes_with_label(label)
        )


# ----------------------------------------------------------------------
# ShardMap
# ----------------------------------------------------------------------


class TestShardMap:
    def test_hash_assignment_is_deterministic_and_total(self):
        first, second = ShardMap(5), ShardMap(5)
        for node in [0, 1, 17, "v1", "spaced node", ("tuple", 3)]:
            assert first.shard_of(node) == second.shard_of(node)
            assert 0 <= first.shard_of(node) < 5

    def test_stable_hash_does_not_use_salted_str_hash(self):
        import zlib

        # crc32 of the utf-8 bytes — a fixed value, not PYTHONHASHSEED'd
        assert stable_shard_hash("v1") == zlib.crc32(b"v1")
        assert stable_shard_hash(42) == stable_shard_hash("42")
        # dict semantics make True the same node key as 1 — it must
        # land on the same shard (regression: a bool special case once
        # split one logical node across two owners)
        assert stable_shard_hash(True) == stable_shard_hash(1)
        assert stable_shard_hash(False) == stable_shard_hash(0)

    def test_bool_nodes_share_their_int_twin_everywhere(self):
        store = ShardedGraphStore(shards=3)
        store.add_node(True, label="x")
        assert store.label(1) == "x"  # DiGraph parity: True is 1
        store.add_edge(1, 2, target_label="y")
        store.add_edge(True, 5, target_label="z")
        assert store.num_edges == 2
        assert set(store.edges()) == {(True, 2), (True, 5)}
        assert store.successor_set(1) == {2, 5}

    def test_range_assignment(self):
        by_range = ShardMap(kind="range", boundaries=[100, 200])
        assert by_range.count == 3
        assert by_range.shard_of(5) == 0
        assert by_range.shard_of(100) == 1  # boundary goes right
        assert by_range.shard_of(150) == 1
        assert by_range.shard_of(999) == 2

    def test_invalid_configurations(self):
        with pytest.raises(ValueError):
            ShardMap(0)
        with pytest.raises(ValueError):
            ShardMap(kind="modulo")
        with pytest.raises(ValueError):
            ShardMap(3, boundaries=[1, 2])
        with pytest.raises(ValueError):
            ShardMap(kind="range", boundaries=[5, 1])
        with pytest.raises(ValueError, match="contradicts"):
            ShardMap(4, kind="range", boundaries=[100])  # implies 2
        with pytest.raises(ValueError, match="do not order"):
            ShardMap(kind="range", boundaries=[5, "x"])
        with pytest.raises(ValueError, match="do not order"):
            ShardMap(kind="range", boundaries=[20]).split(1, boundary="x")
        with pytest.raises(ValueError, match="do not order"):
            ShardMap(kind="range", boundaries=[]).split(0, 20).split(1, "x")
        with pytest.raises(ValueError, match="do not order"):
            ShardMap(kind="range", splits=[(0, 1, "x"), (1, 2, 5)])
        assert ShardMap(2, kind="range", boundaries=[100]).count == 2

    def test_equality(self):
        assert ShardMap(4) == ShardMap(4)
        assert ShardMap(4) != ShardMap(5)
        assert ShardMap(kind="range", boundaries=[7]) == ShardMap(
            kind="range", boundaries=[7]
        )
        assert ShardMap(2) != ShardMap(kind="range", boundaries=[7])


def test_route_updates_groups_by_source_shard():
    shard_map = ShardMap(3)
    batch = Delta(
        [insert(n, n + 1, "a", "b") for n in range(6)]
        + [delete(0, 1), insert(0, 1, "a", "b")]
    )
    routed = route_updates(batch, shard_map)
    seen = []
    for index, updates in routed.items():
        for update in updates:
            assert shard_map.shard_of(update.source) == index
            seen.append(update)
    assert sorted(map(str, seen)) == sorted(map(str, batch))
    # same-edge updates stay in one shard, in original relative order
    zero_shard = routed[shard_map.shard_of(0)]
    zero_edge = [u for u in zero_shard if u.edge == (0, 1)]
    assert [u.kind.value for u in zero_edge] == ["insert", "delete", "insert"]


# ----------------------------------------------------------------------
# ShardedGraphStore vs DiGraph — differential property
# ----------------------------------------------------------------------


class TestShardedGraphStore:
    def test_basic_construction_and_ownership(self):
        store = ShardedGraphStore(
            shards=3, labels={1: "a", 2: "b"}, edges=[(1, 2), (2, 1)]
        )
        assert isinstance(store, DiGraph)
        assert store.num_shards == 3
        assert store.shard_of(1) == store.shard_map.shard_of(1)
        # each node counts at its owner, each edge at its source's shard
        expected = [[0, 0] for _ in range(3)]
        for node in (1, 2):
            expected[store.shard_of(node)][0] += 1
            expected[store.shard_of(node)][1] += 1  # one out-edge each
        assert store.shard_sizes() == [tuple(pair) for pair in expected]
        clone = store.copy()
        assert isinstance(clone, ShardedGraphStore)
        assert clone.shard_map == store.shard_map and clone == store
        clone.add_edge(1, 1)
        assert not store.has_edge(1, 1)

    def test_exceptions_match_digraph(self):
        store = ShardedGraphStore(shards=2, labels={1: "a"}, edges=[])
        with pytest.raises(MissingNodeError):
            store.label(9)
        with pytest.raises(MissingNodeError):
            store.successors(9)
        with pytest.raises(MissingNodeError):
            list(store.predecessors(9))
        with pytest.raises(MissingNodeError):
            store.remove_node(9)
        with pytest.raises(MissingNodeError):
            store.set_label(9, "x")
        with pytest.raises(MissingEdgeError):
            store.remove_edge(1, 9)
        with pytest.raises(MissingEdgeError):
            store.remove_edge(9, 1)
        store.add_edge(1, 2, target_label="b")
        with pytest.raises(DuplicateEdgeError):
            store.add_edge(1, 2)

    def test_remove_node_spans_shards(self):
        # a hub with in/out edges on every shard, plus a self-loop
        store = ShardedGraphStore(shards=4)
        store.add_node("hub", label="h")
        for k in range(8):
            store.add_edge("hub", k, target_label="t")
            store.add_edge(100 + k, "hub", source_label="s")
        store.add_edge("hub", "hub")
        assert store.num_edges == 17
        store.remove_node("hub")
        assert store.num_edges == 0
        assert not store.has_node("hub")
        assert store.num_nodes == 16  # endpoints survive, as in DiGraph

    def test_oob_version_tripwire(self):
        store = ShardedGraphStore(shards=2, labels={1: "a", 2: "b"}, edges=[(1, 2)])
        base = store.oob_version
        store.add_edge(2, 3, target_label="c")  # expressible: no bump
        assert store.oob_version == base
        store.set_label(2, "z")  # relabel: bump
        assert store.oob_version > base
        bumped = store.oob_version
        store.set_label(2, "z")  # no-op relabel: no bump
        assert store.oob_version == bumped
        store.remove_node(3)
        assert store.oob_version > bumped

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_differential_against_digraph(self, seed, shards):
        """The same random mutation sequence, step-compared against a
        plain DiGraph across the whole read API."""
        rng = random.Random(0x5AAD + seed)
        store = ShardedGraphStore(shards=shards)
        plain = DiGraph()
        next_node = 0
        for step in range(120):
            action = rng.random()
            nodes = list(plain.nodes())
            if action < 0.35 or not nodes:
                node = next_node
                next_node += 1
                label = rng.choice(LABELS)
                store.add_node(node, label=label)
                plain.add_node(node, label=label)
            elif action < 0.70:
                source, target = rng.choice(nodes), rng.choice(nodes)
                if plain.has_edge(source, target):
                    store.remove_edge(source, target)
                    plain.remove_edge(source, target)
                else:
                    store.add_edge(source, target)
                    plain.add_edge(source, target)
            elif action < 0.80:
                node = rng.choice(nodes)
                label = rng.choice(LABELS)
                store.set_label(node, label)
                plain.set_label(node, label)
            elif action < 0.88:
                edges = list(plain.edges())
                if edges:
                    edge = rng.choice(edges)
                    store.remove_edge(*edge)
                    plain.remove_edge(*edge)
            else:
                node = rng.choice(nodes)
                store.remove_node(node)
                plain.remove_node(node)
            if step % 17 == 0:
                assert_same_graph(store, plain)
        assert_same_graph(store, plain)
        assert_same_graph(store.copy(), plain)
        # round-trip through from_digraph preserves everything
        assert_same_graph(
            ShardedGraphStore.from_digraph(plain, ShardMap(shards)), plain
        )
        # derived subgraphs agree with the plain ones
        keep = set(rng.sample(sorted(plain.nodes()), k=len(plain) // 2))
        assert store.subgraph(keep) == plain.subgraph(keep)
        assert store.reverse() == plain.reverse()

    def test_store_retains_what_a_digraph_retains(self):
        """The layout costs one map, not a second adjacency: a two-shard
        store holds no more than 1.05x a ``DiGraph`` of the same labels
        and edges."""
        rng = random.Random(0x3E3)
        labels = {node: rng.choice(LABELS) for node in range(4_000)}
        edges: set = set()
        while len(edges) < 30_000:
            edges.add((rng.randrange(4_000), rng.randrange(4_000)))
        shard_map = ShardMap(kind="range", boundaries=[2_000])

        def retained(build) -> int:
            tracemalloc.start()
            try:
                graph = build()
                current = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert graph.num_edges == len(edges)
            return current

        plain = retained(lambda: DiGraph(labels=labels, edges=edges))
        sharded = retained(
            lambda: ShardedGraphStore.from_labeled_edges(labels, edges, shard_map)
        )
        assert sharded <= 1.05 * plain, sharded / plain

    def test_shard_sizes_and_cross_shard_edges(self):
        store = ShardedGraphStore(
            shards=2, labels={n: "a" for n in range(10)}, edges=[]
        )
        for n in range(9):
            store.add_edge(n, n + 1)
        sizes = store.shard_sizes()
        assert sum(nodes for nodes, _ in sizes) == 10
        assert sum(edges for _, edges in sizes) == 9
        crossing = store.cross_shard_edges()
        assert 0 <= crossing <= 9
        assert crossing == sum(
            1 for s, t in store.edges() if store.shard_of(s) != store.shard_of(t)
        )


class TestEngineOverShardedStore:
    @pytest.mark.parametrize("executor", ["serial", "workers"])
    @pytest.mark.parametrize("seed", range(4))
    def test_four_view_equivalence(self, seed, executor):
        """Random batch streams: the sharded engine's views equal the
        unsharded reference engine's, under both executor strategies."""
        rng = random.Random(0x7A8D + seed)
        labels = {n: rng.choice(LABELS) for n in range(8)}
        edges = []
        for source in range(8):
            for target in range(8):
                if source != target and rng.random() < 0.25:
                    edges.append((source, target))
        sharded = four_view_engine(
            ShardedGraphStore(shards=3, labels=labels, edges=edges)
        )
        sharded.scheduler.executor = executor
        reference = four_view_engine(DiGraph(labels=dict(labels), edges=edges))
        for _ in range(10):
            batch = self.random_batch(rng, reference.graph)
            if not batch:
                continue
            sharded.apply(batch)
            reference.apply(batch)
            assert sharded.graph == reference.graph
            assert sharded["kws"].roots() == reference["kws"].roots()
            assert sharded["rpq"].matches == reference["rpq"].matches
            assert sharded["scc"].components() == reference["scc"].components()
            assert sharded["iso"].matches == reference["iso"].matches
        checkpoint_target = rng.randint(0, sharded.applied_count)
        sharded.rollback(checkpoint_target)
        reference.rollback(checkpoint_target)
        assert sharded.graph == reference.graph
        assert sharded["scc"].components() == reference["scc"].components()

    @staticmethod
    def random_batch(rng, graph):
        nodes = list(graph.nodes())
        edges = list(graph.edges())
        non_edges = [
            (s, t)
            for s in nodes
            for t in nodes
            if s != t and not graph.has_edge(s, t)
        ]
        updates = [
            delete(*edge)
            for edge in rng.sample(edges, k=min(len(edges), rng.randint(0, 2)))
        ]
        updates += [
            insert(*edge)
            for edge in rng.sample(
                non_edges, k=min(len(non_edges), rng.randint(0, 3))
            )
        ]
        rng.shuffle(updates)
        return Delta(updates)


# ----------------------------------------------------------------------
# SegmentedDeltaLog
# ----------------------------------------------------------------------


def segmented(tmp_path, shards=3, executor="serial") -> SegmentedDeltaLog:
    return SegmentedDeltaLog(
        tmp_path / "segments", ShardMap(shards), executor=executor
    )


class TestSegmentedDeltaLog:
    def test_append_routes_by_source_shard(self, tmp_path):
        log = segmented(tmp_path)
        batch = Delta([insert(n, n + 10, "a", "b") for n in range(6)])
        assert log.append(batch) == 1
        routed = route_updates(batch, log.shard_map)
        for index, updates in routed.items():
            segment_entries = log.segment(index)._scan(0).entries(0)
            assert [u.edge for u in segment_entries[0].delta] == [
                u.edge for u in updates
            ]
            assert segment_entries[0].participants == len(routed)

    def test_merged_entries_and_global_last_seq(self, tmp_path):
        log = segmented(tmp_path)
        log.append(Delta([insert(1, 2, "a", "b"), insert(3, 4, "c", "d")]))
        log.append(Delta([delete(1, 2)]))
        log.append(Delta([]))  # empty batches burn a frame
        entries = log.entries()
        assert [entry.seq for entry in entries] == [1, 2, 3]
        assert {update.edge for update in entries[0].delta} == {(1, 2), (3, 4)}
        assert log.last_seq() == 3
        assert log.entries(after=2)[0].seq == 3

    def test_cold_reopen_without_map_reads_everything(self, tmp_path):
        log = segmented(tmp_path, shards=4)
        log.append(Delta([insert(n, n + 1, "a", "b") for n in range(8)]))
        reopened = SegmentedDeltaLog(tmp_path / "segments")
        assert [e.seq for e in reopened.entries()] == [1]
        assert reopened.last_seq() == 1
        with pytest.raises(ValueError, match="no shard map"):
            reopened.append(Delta([insert(99, 100)]))
        reopened.bind_map(ShardMap(4))
        assert reopened.append(Delta([insert(99, 100)])) == 2
        with pytest.raises(ValueError, match="contradicts"):
            reopened.bind_map(ShardMap(5))

    def test_partial_cross_segment_commit_is_discarded(self, tmp_path):
        """A seq committed in fewer segments than its participant count
        was never acknowledged — recovery must drop it whole, and the
        seq must stay spoken for."""
        log = segmented(tmp_path)
        log.append(Delta([insert(1, 2, "a", "b"), insert(2, 3, "b", "c")]))
        # simulate the crash: a two-participant append that only reached
        # one segment before the process died
        log.segment(0).append(Delta([insert(7, 8)]), seq=2, participants=2)
        fresh = SegmentedDeltaLog(tmp_path / "segments", ShardMap(3))
        assert [entry.seq for entry in fresh.entries()] == [1]
        assert fresh.last_seq() == 1
        assert fresh.append(Delta([insert(9, 10)])) == 3  # 2 is spoken for
        assert [entry.seq for entry in fresh.entries()] == [1, 3]

    def test_disagreeing_participant_counts_raise(self, tmp_path):
        log = segmented(tmp_path)
        (tmp_path / "segments").mkdir(exist_ok=True)
        log.segment(0).append(Delta([insert(1, 2)]), seq=1, participants=2)
        log.segment(1).append(Delta([insert(3, 4)]), seq=1, participants=3)
        with pytest.raises(PersistFormatError, match="participants"):
            SegmentedDeltaLog(tmp_path / "segments").entries()

    def test_window_sealed_by_more_segments_than_declared_names_the_log(
        self, tmp_path
    ):
        """Regression: a window sealed in two segments while its seals
        declare one participant is corruption, and the error named no
        file (``<segmented log>``).  It names the log directory."""
        root = tmp_path / "segments"
        root.mkdir()
        for index, update in enumerate(("+ 0 1", "+ 1 0")):
            (root / SegmentedDeltaLog.SEGMENT_FORMAT.format(index)).write_text(
                f"%window 1\n%batch 1 2\n{update}\n%commit\n%seal 1 1\n",
                encoding="utf-8",
            )
        with pytest.raises(PersistFormatError, match="sealed in 2 segments") as bad:
            SegmentedDeltaLog(root).entries()
        assert str(root) in str(bad.value)

    def test_insert_label_stabilization_across_segments(self, tmp_path):
        """A node introduced twice in one batch must get the same label
        whether the batch replays monolithically (original interleaving)
        or merged from segments (shard order)."""
        shard_map = ShardMap(2)
        # find two sources on different shards and a fresh target node
        a, b = 0, next(
            n for n in range(1, 50) if shard_map.shard_of(n) != shard_map.shard_of(0)
        )
        target = "fresh-node"
        batch = Delta(
            [
                insert(a, target, "x", "first"),
                insert(b, target, "y", "second"),
            ]
        )
        log = SegmentedDeltaLog(tmp_path / "segments", shard_map)
        log.append(batch)
        merged = log.entries()[0].delta
        replayed = DiGraph()
        merged.apply_to(replayed)
        reference = DiGraph()
        batch.apply_to(reference)
        assert replayed.label(target) == reference.label(target) == "first"

    def test_failed_append_burns_its_seq(self, tmp_path):
        """Regression: an append that fails part-way (one segment
        committed, a sibling raised) must not hand the same seq to the
        next append — the committed sub-entry already spoke for it."""
        log = segmented(tmp_path, shards=2)
        a, b = 0, next(
            n for n in range(1, 50)
            if log.shard_map.shard_of(n) != log.shard_map.shard_of(0)
        )
        log.append(Delta([insert(a, b, "x", "y")]))  # seq 1

        boom = RuntimeError("disk full")
        victim = log.segment(log.shard_map.shard_of(b))
        original = victim.append
        def failing_append(*args, **kwargs):
            raise boom
        victim.append = failing_append
        with pytest.raises(RuntimeError, match="disk full"):
            log.append(Delta([insert(a, 7, "x", "z"), insert(b, 8, "y", "z")]))
        victim.append = original

        third = log.append(Delta([insert(a, 9, "x", "w")]))
        assert third == 3  # seq 2 burned, never reused
        entries = log.entries()
        assert [entry.seq for entry in entries] == [1, 3]  # 2 is torn
        # and the file still reads cleanly from a fresh process
        fresh = SegmentedDeltaLog(tmp_path / "segments", ShardMap(2))
        assert [entry.seq for entry in fresh.entries()] == [1, 3]
        assert fresh.append(Delta([insert(9, 9)])) == 4

    def test_seq_pinning_rejects_regression(self, tmp_path):
        log = segmented(tmp_path, shards=1)
        log.append(Delta([insert(1, 2)]))
        with pytest.raises(ValueError, match="regresses"):
            log.segment(0).append(Delta([insert(3, 4)]), seq=1, participants=1)

    @pytest.mark.parametrize("executor", ["serial", "workers"])
    def test_append_parallelism_is_equivalent(self, tmp_path, executor):
        log = SegmentedDeltaLog(
            tmp_path / executor, ShardMap(4), executor=executor
        )
        batches = [
            Delta([insert(n, n + 100, "a", "b") for n in range(k, k + 6)])
            for k in range(0, 18, 6)
        ]
        for batch in batches:
            log.append(batch)
        log.flush()  # workers strategy journals under windows
        entries = log.entries()
        assert [entry.seq for entry in entries] == [1, 2, 3]
        for entry, batch in zip(entries, batches):
            assert {u.edge for u in entry.delta} == {u.edge for u in batch}
        assert log.last_seq() == 3

    def test_unknown_executor_rejected_before_touching_disk(
        self, tmp_path, monkeypatch
    ):
        """Regression: an unknown strategy used to construct fine and
        fail at the first append — after ``root.mkdir`` — with a bare
        ``ValueError``.  It is a :class:`SchedulerError` at construction
        (argument) or first append (environment), and either way
        nothing is created on disk."""
        root = tmp_path / "segments"
        with pytest.raises(SchedulerError, match="unknown executor"):
            SegmentedDeltaLog(root, ShardMap(2), executor="fibers")
        monkeypatch.setenv(EXECUTOR_ENV, "fibers")
        log = SegmentedDeltaLog(root, ShardMap(2))
        with pytest.raises(SchedulerError, match="unknown executor"):
            log.append(Delta([insert(1, 2, "a", "b")]))
        assert not root.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "2.5"])
    def test_invalid_window_size_env_rejected_before_touching_disk(
        self, tmp_path, monkeypatch, value
    ):
        """Regression: a malformed ``REPRO_WINDOW_SIZE`` was silently
        read as 1, while ``window_size=0`` on the constructor raises.
        It raises ``ValueError`` naming the variable at the first
        workers append, before anything is created on disk."""
        root = tmp_path / "segments"
        monkeypatch.setenv(WINDOW_ENV, value)
        log = SegmentedDeltaLog(root, ShardMap(2), executor="workers")
        with pytest.raises(ValueError, match=WINDOW_ENV):
            log.append(Delta([insert(1, 2, "a", "b")]))
        assert not root.exists()

    def test_window_size_env_sets_the_workers_window(self, tmp_path, monkeypatch):
        monkeypatch.setenv(WINDOW_ENV, "2")
        log = SegmentedDeltaLog(tmp_path / "segments", ShardMap(2), executor="workers")
        log.append(Delta([insert(1, 2, "a", "b")]))
        assert log.entries() == []  # window of two still open
        log.append(Delta([insert(2, 3, "b", "c")]))
        assert [entry.seq for entry in log.entries()] == [1, 2]  # auto-sealed

    def test_segments_directory_is_made_durable_once(self, tmp_path, monkeypatch):
        """Regression: the segments directory was re-``mkdir``ed on every
        append and its own entry never fsynced.  It is created on the
        first append, its parent fsynced, and never probed again."""
        import pathlib

        import repro.persist.deltalog as deltalog_module

        synced = []
        real_fsync = deltalog_module.fsync_directory
        monkeypatch.setattr(
            deltalog_module,
            "fsync_directory",
            lambda directory: (synced.append(directory), real_fsync(directory)),
        )
        log = segmented(tmp_path, shards=2)
        log.append(Delta([insert(1, 2, "a", "b")]))
        assert log.root.is_dir()
        assert tmp_path in synced
        made = []
        monkeypatch.setattr(
            pathlib.Path, "mkdir", lambda self, *a, **k: made.append(self)
        )
        log.append(Delta([insert(2, 3, "b", "c")]))
        assert made == []
        assert [entry.seq for entry in log.entries()] == [1, 2]

    def test_compacting_one_segment_keeps_its_windows_above_the_floor(
        self, tmp_path
    ):
        """Regression: compacting one segment rewrote its sealed windowed
        entries above the floor as plain frames and dropped their seal,
        so the sibling segments' seal count fell short and the next read
        discarded acknowledged batches.  The rewrite keeps the framing."""
        log = SegmentedDeltaLog(
            tmp_path / "segments", ShardMap(2), executor="serial", window_size=1
        )
        a, b = 0, next(
            n for n in range(1, 50)
            if log.shard_map.shard_of(n) != log.shard_map.shard_of(0)
        )
        log.append(Delta([insert(a, b, "x", "y"), insert(b, a, "y", "x")]))
        log.append(Delta([insert(a, 7, "x", "z")]))
        log.compact_segment(log.shard_map.shard_of(a), 0)
        fresh = SegmentedDeltaLog(tmp_path / "segments", ShardMap(2))
        assert [entry.seq for entry in fresh.entries()] == [1, 2]
        assert len(fresh.entries()[0].delta) == 2
        assert fresh.last_seq() == 2

    def test_every_reader_rejects_disagreeing_participant_counts(self, tmp_path):
        """The cross-segment rules are checked once, for every seq, so
        ``last_seq()`` and ``entries(after=...)`` past the corrupt seq
        refuse it as ``entries()`` does."""
        log = segmented(tmp_path, shards=2)
        log.root.mkdir()
        log.segment(0).append(Delta([insert(0, 1)]), seq=1, participants=2)
        log.segment(1).append(Delta([insert(1, 0)]), seq=1, participants=3)
        for read in (log.entries, lambda: log.entries(after=1), log.last_seq):
            with pytest.raises(PersistFormatError, match="participants"):
                read()

    def test_compact_per_segment_and_floor(self, tmp_path):
        log = segmented(tmp_path)
        for k in range(5):
            log.append(Delta([insert(k, k + 50, "a", "b")]))
        kept = log.compact(after=3)
        assert kept == len(log.entries())
        assert [entry.seq for entry in log.entries()] == [4, 5]
        assert log.last_seq() == 5
        fresh = SegmentedDeltaLog(tmp_path / "segments", ShardMap(3))
        assert fresh.append(Delta([insert(99, 98)])) == 6  # floor holds seqs

    def test_rotating_compaction_only_touches_one_segment(self, tmp_path):
        graph = ShardedGraphStore(
            shard_map=ShardMap(3),
            labels={n: "a" for n in range(9)},
            edges=[],
        )
        engine = four_view_engine(graph)
        store = SnapshotStore(tmp_path / "store", shard_map=ShardMap(3))
        store.log.executor = "serial"
        store.attach(engine)
        for n in range(8):
            engine.apply(Delta([insert(n, n + 1)]))
        store.save(engine)
        before = [
            path.read_text() if path.exists() else None
            for path in store.log.segment_paths()
        ]
        kept = store.compact_log(engine, rotate=True)
        after = [
            path.read_text() if path.exists() else None
            for path in store.log.segment_paths()
        ]
        changed = [b != a for b, a in zip(before, after)]
        assert sum(changed) <= 1  # one segment per rotation, at most
        assert kept >= 0
        # a full rotation compacts everything; recovery still equals live
        for _ in range(store.log.num_segments):
            store.compact_log(engine, rotate=True)
        revived = SnapshotStore(tmp_path / "store").load(attach_journal=False)
        assert revived.graph == engine.graph
        assert revived["scc"].components() == engine["scc"].components()


# ----------------------------------------------------------------------
# Snapshot format v3: sharded save/load
# ----------------------------------------------------------------------


class TestShardedSnapshots:
    def build(self, tmp_path, shard_map=None, store_map="same"):
        shard_map = shard_map or ShardMap(3)
        graph = ShardedGraphStore(
            shard_map=shard_map,
            labels={1: "a", 2: "b", 3: "c", 4: "a", 5: "b", 6: "d", 7: "d"},
            edges=[(1, 2), (2, 3), (3, 1), (4, 5), (6, 7)],
        )
        engine = four_view_engine(graph)
        store = SnapshotStore(
            tmp_path / "store",
            shard_map=shard_map if store_map == "same" else None,
        )
        store.log.executor = "serial"
        return engine, store

    def assert_sessions_equal(self, recovered, reference):
        assert recovered.graph == reference.graph
        assert recovered["kws"].roots() == reference["kws"].roots()
        assert recovered["rpq"].matches == reference["rpq"].matches
        assert recovered["scc"].components() == reference["scc"].components()
        assert recovered["iso"].matches == reference["iso"].matches

    def test_snapshot_round_trip_with_segmented_tail(self, tmp_path):
        engine, store = self.build(tmp_path)
        store.attach(engine)
        store.save(engine)
        engine.apply(Delta([delete(6, 7), insert(6, 1, "d", "a")]))
        engine.apply(Delta([insert(8, 2, "e", "b"), delete(3, 1)]))
        text = store.snapshot_path.read_text(encoding="utf-8")
        assert "%repro-snapshot 5" in text
        assert "%meta sharding hash 3" in text
        revived = SnapshotStore(tmp_path / "store").load(attach_journal=False)
        assert isinstance(revived.graph, ShardedGraphStore)
        assert revived.graph.shard_map == engine.graph.shard_map
        self.assert_sessions_equal(revived, engine)

    def test_maples_store_adopts_layout_and_resumes_journaling(self, tmp_path):
        engine, store = self.build(tmp_path)
        store.attach(engine)
        store.save(engine)
        engine.apply(Delta([insert(7, 2, "d", "b")]))
        adopted = SnapshotStore(tmp_path / "store")  # no map repeated
        revived = adopted.load()  # journal re-attached, segmented
        assert adopted.shard_map == engine.graph.shard_map
        assert isinstance(adopted.log, SegmentedDeltaLog)
        revived.apply(Delta([delete(7, 2)]))
        final = SnapshotStore(tmp_path / "store").load(attach_journal=False)
        self.assert_sessions_equal(final, revived)

    def test_range_map_round_trips(self, tmp_path):
        shard_map = ShardMap(kind="range", boundaries=[3, 6])
        engine, store = self.build(tmp_path, shard_map=shard_map)
        store.attach(engine)
        store.save(engine)
        engine.apply(Delta([insert(2, 6)]))
        text = store.snapshot_path.read_text(encoding="utf-8")
        assert "%meta sharding range 3 3 6" in text
        revived = SnapshotStore(tmp_path / "store").load(attach_journal=False)
        assert revived.graph.shard_map == shard_map
        self.assert_sessions_equal(revived, engine)

    def test_incremental_saves_and_graphdiff_on_sharded_store(self, tmp_path):
        engine, store = self.build(tmp_path)
        store.attach(engine)
        store.save(engine)
        engine.apply(Delta([delete(6, 7)]))
        store.save(engine, incremental=True)
        engine.apply(Delta([insert(6, 1, "d", "a")]))
        store.save(engine, incremental=True)
        text = store.snapshot_path.read_text(encoding="utf-8")
        assert "%graphdiff" in text  # the graph section went incremental
        revived = SnapshotStore(tmp_path / "store").load(attach_journal=False)
        self.assert_sessions_equal(revived, engine)

    def test_sharded_graph_over_monolithic_log(self, tmp_path):
        """The log follows the graph: a store opened without a map and
        attached to a sharded graph adopts the graph's map — one
        segment per shard — and the session survives recovery."""
        engine, store = self.build(tmp_path, store_map="none")
        assert store.log.shard_map is None
        store.attach(engine)
        assert store.shard_map == store.log.shard_map == engine.graph.shard_map
        store.save(engine)
        engine.apply(Delta([delete(6, 7), insert(7, 1, "d", "a")]))
        assert {path.name for path in store.log.root.iterdir()} >= {
            "segment-000.log"
        }
        assert not (tmp_path / "store" / "deltas.log").exists()
        revived = SnapshotStore(tmp_path / "store").load(attach_journal=False)
        assert isinstance(revived.graph, ShardedGraphStore)
        self.assert_sessions_equal(revived, engine)

    def test_sharding_meta_rejected_below_v3(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        store.snapshot_path.write_text(
            "%repro-snapshot 2\n%meta sharding hash 2\n"
            "%section graph\nn 1 a\n%end\n",
            encoding="utf-8",
        )
        with pytest.raises(PersistFormatError, match="version-3 construct"):
            store.load()

    def test_malformed_sharding_meta_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        for operands in ("hash", "hash 0", "modulo 2", "range 3 9", "range 3 5 x"):
            store.snapshot_path.write_text(
                f"%repro-snapshot 3\n%meta sharding {operands}\n"
                "%section graph\nn 1 a\n%end\n",
                encoding="utf-8",
            )
            with pytest.raises(PersistFormatError):
                store.load()

    def test_monolithic_store_refuses_segmented_reopen(self, tmp_path):
        """A root holding a legacy monolithic deltas.log is refused by
        every open — with or without a shard map — because journaling
        beside it would orphan its committed entries; the refusal names
        the one-rename migration and leaves the file untouched."""
        root = tmp_path / "store"
        root.mkdir()
        legacy = root / "deltas.log"
        legacy.write_text("%batch 1\n+ 1 2 a b\n%commit\n", encoding="utf-8")
        for shard_map in (None, ShardMap(2)):
            with pytest.raises(ValueError, match="orphan") as refused:
                SnapshotStore(root, shard_map=shard_map)
            assert "segments/segment-000.log" in str(refused.value)
        assert legacy.read_text(encoding="utf-8") == (
            "%batch 1\n+ 1 2 a b\n%commit\n"
        )
        assert not (root / "segments").exists()

    def test_segmented_store_requires_matching_sharded_graph(self, tmp_path):
        """Regression: a 3-shard store over a plain DiGraph (whose layout
        is one segment) or a differently-sharded graph journals fine but
        can never recover — the mismatch must be refused at attach/save
        time."""
        plain = four_view_engine(DiGraph(labels={1: "a"}, edges=[]))
        store = SnapshotStore(tmp_path / "store", shard_map=ShardMap(3))
        with pytest.raises(ValueError, match=r"ShardMap\(1\) \(DiGraph\) differs"):
            store.attach(plain)
        with pytest.raises(ValueError, match=r"ShardMap\(1\) \(DiGraph\) differs"):
            store.save(plain)
        mismatched = four_view_engine(
            ShardedGraphStore(shard_map=ShardMap(2), labels={1: "a"}, edges=[])
        )
        with pytest.raises(ValueError, match="differs"):
            store.attach(mismatched)

    def test_attach_propagates_engine_executor_to_segmented_log(self, tmp_path):
        shard_map = ShardMap(2)
        engine = four_view_engine(ShardedGraphStore(shard_map=shard_map))
        engine.scheduler.executor = "workers"
        store = SnapshotStore(tmp_path / "store", shard_map=shard_map)
        assert store.log.executor is None
        try:
            store.attach(engine)
        finally:
            shutdown_pools()  # attach under workers spawns a resident pool
        assert store.log.executor == "workers"
        # an explicit choice on the log is never overridden
        other = SnapshotStore(tmp_path / "other", shard_map=shard_map)
        other.log.executor = "serial"
        other.attach(engine)
        assert other.log.executor == "serial"
        assert other.log._worker_pool is None

    def test_torn_seq_is_not_resurrected_below_the_floor(self, tmp_path):
        """Regression: a torn cross-segment append is dropped while its
        seq sits above every truncation floor — and must STAY dropped
        once compaction (with conservative lagging retention) moves the
        floor past it, instead of resurrecting half a batch."""
        log = segmented(tmp_path, shards=2)
        a, b = 0, next(
            n for n in range(1, 50)
            if log.shard_map.shard_of(n) != log.shard_map.shard_of(0)
        )
        log.append(Delta([insert(a, b, "x", "y")]))  # seq 1
        # the crash: a two-participant seq 2 reaches only one segment
        log.segment(log.shard_map.shard_of(a)).append(
            Delta([insert(a, 100, "x", "z")]), seq=2, participants=2
        )
        log._next_seq = None
        log.append(Delta([insert(b, 101, "y", "z")]))  # seq 3
        assert [e.seq for e in log.entries()] == [1, 3]  # 2 is torn
        # floor moves past seq 2, with a broadcast lagging view that
        # conservatively retains every below-floor entry it might want
        log.compact(after=3, lagging=[(0, None)])
        for entry in log.entries():
            if entry.seq == 2:
                assert not entry.delta, "torn seq 2 resurrected with content"
        # recovery-style read above the floor is unaffected
        assert [e.seq for e in log.entries(after=3)] == []
        log2 = SegmentedDeltaLog(tmp_path / "segments", ShardMap(2))
        assert log2.append(Delta([insert(9, 9)])) == 4

    def test_failed_void_rewrite_is_retried(self, tmp_path):
        """Regression: a transient error while voiding torn debris must
        not mark the floor as vetted — a retried compaction has to void
        again, or the half-batch resurrects below the floor."""
        log = segmented(tmp_path, shards=2)
        a, b = 0, next(
            n for n in range(1, 50)
            if log.shard_map.shard_of(n) != log.shard_map.shard_of(0)
        )
        log.append(Delta([insert(a, b, "x", "y")]))  # seq 1
        holder = log.shard_map.shard_of(a)
        log.segment(holder).append(
            Delta([insert(a, 99, "x", "z")]), seq=2, participants=2
        )
        log._next_seq = None
        log.append(Delta([insert(b, 101, "y", "z")]))  # seq 3

        victim = log.segment(holder)
        original = victim.compact
        def failing_compact(*args, **kwargs):
            raise OSError("no space left on device")
        victim.compact = failing_compact
        with pytest.raises(OSError):
            log.compact_segment(0, 3)
        victim.compact = original

        # the retry must re-void; seq 2 never resurrects with content
        log.compact(after=3, lagging=[(0, None)])
        for entry in log.entries():
            if entry.seq == 2:
                assert not entry.delta, "torn seq 2 resurrected after retry"

    def test_range_split_refuses_an_unorderable_boundary(self, tmp_path):
        """A boundary the map cannot compare with its nodes is refused
        before the split seals, rebinds or saves anything: committing
        it would make every later write to the parent shard raise
        ``TypeError``, before and after recovery."""
        # Shard 1 of the first map is empty, so only the map's own
        # boundary can refuse "x"; the second map has no boundary, so
        # only the int nodes of shard 0 can.
        for root, shard_map, parent, write in [
            ("bounded", ShardMap(kind="range", boundaries=[20]), 1, (25, 3)),
            ("unbounded", ShardMap(kind="range"), 0, (4, 11)),
        ]:
            engine = four_view_engine(
                ShardedGraphStore(
                    shard_map=shard_map,
                    labels={n: LABELS[n % 4] for n in range(10)},
                    edges=[(n, n + 1) for n in range(9)],
                )
            )
            store = SnapshotStore(tmp_path / root, shard_map=shard_map)
            store.log.executor = "serial"
            store.attach(engine)
            store.save(engine)
            engine.apply(Delta([insert(3, 7, "d", "d")]))

            def on_disk():
                return {
                    path: path.read_bytes()
                    for path in (tmp_path / root).rglob("*.*")
                }

            before = on_disk()
            with pytest.raises(ValueError, match="order against"):
                store.split_shard(engine, parent, boundary="x")
            assert engine.graph.shard_map == store.log.shard_map == shard_map
            assert on_disk() == before
            source, target = write  # the parent shard still routes
            engine.apply(Delta([insert(source, target, "a", "d")]))
            revived = SnapshotStore(tmp_path / root).load(attach_journal=False)
            assert revived.graph.shard_map == shard_map
            assert revived.graph == engine.graph

    def test_unsplit_store_saves_are_byte_identical_to_the_recorded_files(
        self, tmp_path
    ):
        """Two range shards, integer ids, cross-shard inserts that bring
        new nodes, deletes, one out-of-band relabel (a full graph
        rewrite) and a mix of incremental and full saves: every file
        matches the bytes the store wrote when it kept one ``DiGraph``
        per shard, ghost copies included."""
        rng = random.Random(0xB17E)
        shard_map = ShardMap(kind="range", boundaries=[20])
        labels = {n: rng.choice(LABELS) for n in range(40)}
        edges: set = set()
        while len(edges) < 90:
            source, target = rng.randrange(40), rng.randrange(40)
            if source != target:
                edges.add((source, target))
        graph = ShardedGraphStore(
            shard_map=shard_map, labels=labels, edges=sorted(edges)
        )
        engine = Engine(graph)
        engine.register("kws", lambda g, m: KWSIndex(g, KWS_QUERY, meter=m))
        engine.register("rpq", lambda g, m: RPQIndex(g, RPQ_QUERY, meter=m))
        engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
        engine.register(
            "tri", lambda g, m: DataflowView(g, "triangle-count", meter=m)
        )
        store = SnapshotStore(tmp_path / "store", shard_map=shard_map)
        store.log.executor = "serial"
        store.attach(engine)
        digests = [hashlib.sha256(store.save(engine).read_bytes()).hexdigest()[:16]]
        for step in range(10):
            present = sorted(engine.graph.edges())
            updates = [delete(*edge) for edge in rng.sample(present, 2)]
            for _ in range(3):
                source = rng.randrange(40)
                target = rng.randrange(50 + 2 * step)  # new nodes too
                if source != target and not engine.graph.has_edge(source, target):
                    updates.append(insert(source, target, "a", rng.choice(LABELS)))
            engine.apply(Delta(updates))
            if step == 5:
                engine.graph.set_label(next(engine.graph.nodes_with_label("d")), "e")
            path = store.save(engine, incremental=step % 4 != 3)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest()[:16])
        assert digests == UNSPLIT_SAVE_DIGESTS
        revived = SnapshotStore(tmp_path / "store").load(attach_journal=False)
        assert revived.graph == engine.graph

    def test_autosnapshot_policy_with_rotating_compaction(self, tmp_path):
        engine, store = self.build(tmp_path)
        policy = SnapshotPolicy(every_batches=2, compact_every_batches=3)
        store.attach(engine, policy=policy)
        store.save(engine)
        for n in range(9):
            engine.apply(Delta([insert(10 + n, 11 + n, "a", "b")]))
        assert policy.saves >= 3 and policy.compactions >= 2
        revived = SnapshotStore(tmp_path / "store").load(attach_journal=False)
        self.assert_sessions_equal(revived, engine)
