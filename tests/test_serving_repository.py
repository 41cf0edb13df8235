"""Unit tests for :class:`repro.serving.Repository`: pool semantics,
lease expiry, generation lifecycle, the poison tripwires, the
``cache=False`` escape hatch, and recovery from a ``SnapshotStore``."""

import pytest

from repro import (
    DiGraph,
    Engine,
    InvalidDeltaError,
    Repository,
    ServingError,
    SessionLimitError,
    insert,
)
from repro.engine import AlphabetRelevance, KeywordRelevance
from repro.kws import KWSIndex, KWSQuery
from repro.persist import SnapshotStore
from repro.rpq import RPQIndex
from repro.scc import SCCIndex
from repro.serving import (
    RepositoryPoisonedError,
    SessionClosedError,
    SessionExpiredError,
    UnknownQueryError,
    freeze_answer,
)


def make_engine():
    engine = Engine(
        DiGraph(labels={1: "a", 2: "b", 3: "c"}, edges=[(1, 2), (2, 3)])
    )
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register(
        "kws", lambda g, m: KWSIndex(g, KWSQuery(("a", "b"), 2), meter=m)
    )
    return engine


def make_repo(**kwargs):
    return Repository(make_engine(), **kwargs)


# ----------------------------------------------------------------------
# Pool and lease semantics
# ----------------------------------------------------------------------


def test_pool_bound_and_timeout():
    repo = make_repo(max_sessions=2)
    first, second = repo.session(timeout=0), repo.session(timeout=0)
    with pytest.raises(SessionLimitError):
        repo.session(timeout=0)
    first.close()
    third = repo.session(timeout=0)  # the freed slot is reusable
    second.close(), third.close()
    with pytest.raises(ServingError):
        Repository(make_repo().engine, max_sessions=0)


def test_lease_expiry_and_reap():
    now = [0.0]
    repo = make_repo(max_sessions=1, session_lease=10.0, clock=lambda: now[0])
    session = repo.session(timeout=0)
    session.read("scc", "components")
    now[0] = 10.0  # lease boundary is inclusive: expired
    with pytest.raises(SessionExpiredError):
        session.read("scc", "components")
    # The expired session's slot was reaped, so admission succeeds.
    replacement = repo.session(timeout=0)
    assert replacement.session_id != session.session_id
    replacement.close()


def test_renew_extends_the_lease():
    now = [0.0]
    repo = make_repo(session_lease=10.0, clock=lambda: now[0])
    session = repo.session(timeout=0)
    now[0] = 9.0
    session.renew()
    now[0] = 15.0  # past the original lease, inside the renewed one
    session.read("scc", "components")
    session.close()


def test_close_is_idempotent_and_reads_after_close_fail():
    repo = make_repo()
    session = repo.session(timeout=0)
    session.close()
    session.close()
    assert session.closed
    with pytest.raises(SessionClosedError):
        session.read("scc", "components")


# ----------------------------------------------------------------------
# Generations and the write stream
# ----------------------------------------------------------------------


def test_generation_advances_per_batch_and_rollback_publishes():
    repo = make_repo()
    assert repo.generation == 0
    checkpoint = repo.checkpoint()
    repo.apply([insert(3, 1)])
    assert repo.generation == 1
    with repo.session() as pinned:
        assert frozenset({1, 2, 3}) in pinned.read("scc", "components")
        repo.rollback(checkpoint)
        # MVCC time moves forward even though graph time moved back.
        assert repo.generation == 2
        assert frozenset({1, 2, 3}) in pinned.read("scc", "components")
    assert frozenset({1, 2, 3}) not in repo.read_latest("scc", "components")


def test_read_latest_needs_no_session():
    repo = make_repo()
    answer = repo.read_latest("kws", "roots")
    assert answer == {1}  # only node 1 reaches both "a" and "b" within 2
    assert repo.open_sessions == 0


def test_encoded_reads_keep_one_payload_per_entry():
    """``encode=`` for one-shot and pinned reads: the generation the
    read resolved at, and one payload per ``(view, query, version)``."""
    repo = make_repo()
    calls = []

    def encode(answer):
        calls.append(answer)
        return repr(sorted(map(sorted, answer))).encode()

    old = repo.session()
    for _ in range(2):
        assert repo.read_latest("scc", "components", encode=encode) == (
            0, b"[[1], [2], [3]]",
        )
    repo.apply([insert(3, 1)])
    new = repo.session()
    # the pinned read resolves at its own generation, from the kept bytes
    assert old.read("scc", "components", encode=encode) == (
        0, b"[[1], [2], [3]]",
    )
    assert new.read("scc", "components", encode=encode) == (1, b"[[1, 2, 3]]")
    assert repo.read_latest("scc", "components", encode=encode) == (
        1, b"[[1, 2, 3]]",
    )
    assert len(calls) == repo.cache_stats().encodes == 2
    assert repo.cache_stats().wire_bytes == len(b"[[1], [2], [3]][[1, 2, 3]]")
    old.close(), new.close()
    assert repo.cache_stats().wire_bytes == len(b"[[1, 2, 3]]")


def test_unknown_names_raise():
    repo = make_repo()
    with pytest.raises(UnknownQueryError):
        repo.read_latest("nope", "roots")
    with pytest.raises(UnknownQueryError):
        repo.read_latest("scc", "nope")
    with pytest.raises(UnknownQueryError):
        repo.register_query("nope", "q", lambda view: None)


def test_register_custom_query():
    repo = make_repo()
    repo.register_query("scc", "count", lambda view: len(view.components()))
    assert repo.read_latest("scc", "count") == 3
    assert "count" in repo.queries()["scc"]


# ----------------------------------------------------------------------
# Poison tripwires
# ----------------------------------------------------------------------


def test_out_of_band_engine_mutation_poisons():
    repo = make_repo()
    with repo.session() as session:
        repo.engine.apply([insert(3, 1)])  # behind the repository's back
        assert repo.poisoned is not None
        with pytest.raises(RepositoryPoisonedError):
            session.read("scc", "components")
    with pytest.raises(RepositoryPoisonedError):
        repo.apply([insert(1, 3)])
    with pytest.raises(RepositoryPoisonedError):
        repo.session()


def test_close_detaches_the_publication_hook():
    repo = make_repo()
    engine = repo.engine
    repo.close()
    engine.apply([insert(3, 1)])  # direct use after close is legitimate
    with pytest.raises(ServingError):
        repo.session()


def test_snapshot_save_does_not_poison(tmp_path):
    repo = make_repo()
    store = SnapshotStore(tmp_path / "store")
    store.attach(repo.engine)
    store.save(repo.engine)  # capture, not mutation: no publication
    repo.apply([insert(3, 1)])
    assert repo.poisoned is None
    store.save(repo.engine, incremental=True)
    assert repo.poisoned is None


def test_journal_must_be_a_segmented_log_or_none(tmp_path):
    """The durable generation tracks the journal's window seals, so the
    journal is either absent or a SegmentedDeltaLog — any other object
    is refused at construction instead of silently never advancing
    ``durable_generation``."""

    class Tape:
        def append(self, delta):
            return 1

    engine = Engine(DiGraph(labels={1: "a"}, edges=[]))
    engine.set_journal(Tape())
    with pytest.raises(TypeError, match="SegmentedDeltaLog"):
        Repository(engine)
    engine.set_journal(None)
    Repository(engine).close()
    store = SnapshotStore(tmp_path / "store")
    store.attach(engine)
    repo = Repository(engine)
    repo.apply([insert(1, 2, "a", "b")])
    repo.flush()
    assert repo.durable_generation == repo.generation == 1
    repo.close()


# ----------------------------------------------------------------------
# The freeze runs from the engine's route hook
# ----------------------------------------------------------------------


def journaled_repo(tmp_path):
    engine = make_engine()
    store = SnapshotStore(tmp_path / "store")
    store.attach(engine)
    return Repository(engine), store.log


def test_pinned_write_evaluates_each_filter_once(monkeypatch):
    """One routing decision per batch: a pinned write asks each filtered
    view about each update once, not once to freeze and again to
    fan out."""
    engine = Engine(
        DiGraph(labels={1: "a", 2: "b", 3: "c", 4: "d"}, edges=[(1, 2), (2, 3)])
    )
    engine.register(
        "kws", lambda g, m: KWSIndex(g, KWSQuery(("a", "b"), 2), meter=m)
    )
    engine.register("rpq", lambda g, m: RPQIndex(g, "a . (b + c)* . c", meter=m))
    repo = Repository(engine)
    calls = []
    for cls in (KeywordRelevance, AlphabetRelevance):
        original = cls.wants_update

        def counted(self, update, source_label, target_label, original=original):
            calls.append(update)
            return original(self, update, source_label, target_label)

        monkeypatch.setattr(cls, "wants_update", counted)
    with repo.session():
        report = repo.apply([insert(3, 4), insert(4, 4)])  # d-targets: no view
    assert report.skipped("kws") and report.skipped("rpq")
    assert len(calls) == 4  # 2 updates x 2 filtered views


def test_rejected_batch_freezes_and_journals_nothing(tmp_path):
    repo, log = journaled_repo(tmp_path)
    seq = log.last_seq()
    with repo.session():
        with pytest.raises(InvalidDeltaError):
            repo.apply([insert(1, 2)])  # the edge already exists
    assert repo.cache_stats().frozen == 0
    assert log.last_seq() == seq
    assert repo.generation == 0 and repo.poisoned is None


def test_failed_freeze_leaves_log_and_graph_untouched(tmp_path):
    repo, log = journaled_repo(tmp_path)

    def boom(view):
        raise RuntimeError("query failed")

    repo.register_query("scc", "boom", boom)
    seq, edges = log.last_seq(), set(repo.engine.graph.edges())
    with repo.session():
        with pytest.raises(RuntimeError, match="query failed"):
            repo.apply([insert(3, 1)])
    assert log.last_seq() == seq
    assert set(repo.engine.graph.edges()) == edges
    assert repo.generation == 0 and repo.poisoned is None


def test_route_hook_that_drops_a_view_poisons_at_publish(monkeypatch):
    """The publish-time tripwire does not trust the route hook: a hook
    that fails to freeze a routed view poisons the repository."""
    original = Repository._on_route

    def dropping(self, names):
        original(self, tuple(name for name in names if name != "scc"))

    monkeypatch.setattr(Repository, "_on_route", dropping)
    repo = make_repo()
    with repo.session():
        with pytest.raises(RepositoryPoisonedError, match="scc"):
            repo.apply([insert(3, 1)])
    assert repo.poisoned is not None


# ----------------------------------------------------------------------
# cache=False and freeze_answer
# ----------------------------------------------------------------------


def test_cache_disabled_serves_latest_only():
    repo = make_repo(cache=False)
    with repo.session() as session:
        assert session.read("kws", "roots") == {1}
        repo.apply([insert(3, 1)])
        with pytest.raises(ServingError):
            session.read("scc", "components")  # scc changed: unservable
    assert repo.cache_stats().entries == 0
    assert repo.read_latest("scc", "components") == {frozenset({1, 2, 3})}


def test_freeze_answer_is_deeply_immutable_and_equal():
    frozen = freeze_answer({frozenset({1}), frozenset({2})})
    assert frozen == {frozenset({1}), frozenset({2})}
    assert isinstance(frozen, frozenset)
    assert freeze_answer([1, [2, 3]]) == (1, (2, 3))
    assert freeze_answer({"k": {1, 2}}) == (("k", frozenset({1, 2})),)


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------


def test_recover_serves_a_persisted_session(tmp_path):
    repo = make_repo()
    store = SnapshotStore(tmp_path / "store")
    store.attach(repo.engine)
    store.save(repo.engine)
    repo.apply([insert(3, 1)])  # journaled after the snapshot: log tail
    expected = repo.read_latest("scc", "components")
    repo.close()

    revived = Repository.recover(store, max_sessions=4)
    assert revived.generation == 0  # a fresh serving epoch
    with revived.session() as session:
        assert session.read("scc", "components") == expected
    revived.apply([insert(2, 1)])
    assert revived.generation == 1
    revived.close()
