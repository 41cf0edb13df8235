"""The concurrent serving core: MVCC read sessions over one write stream.

Everything below the serving layer is a single-caller library: one
:class:`~repro.engine.session.Engine` owns the graph and its views, and
whoever holds the engine both writes and reads.  A :class:`Repository`
turns that engine into a *served* store — many concurrent readers, one
writer, with three guarantees:

* **MVCC generation snapshots.**  Every applied batch publishes a new
  *generation* (a monotonically increasing integer).  A
  :class:`ReadSession` pins the generation that is current at admission
  and every read through the session observes exactly that generation —
  never a torn mix of two — even while the write stream keeps applying.
  A generation is retired when its last pinned session closes.
* **Delta-invalidated query cache.**  Query results are cached under the
  key ``(view, query, version)`` where *version* is the generation at
  which the view last changed.  The routed sub-delta the relevance
  filters already compute (:mod:`repro.engine.relevance`) is the
  invalidation signal: a batch bumps the version of — and thereby
  invalidates — exactly the views it was routed to; entries for views
  the batch skipped survive untouched and keep serving hits.  An entry
  is immutable, so what is derived from it is too: the reply payload a
  wire front end encodes from an answer (``encode=`` on the read
  methods) is built once and kept on the entry until it is evicted.
* **Bounded admission.**  Sessions come from a bounded pool with
  lease/timeout semantics: admission blocks up to a timeout when the
  pool is full (:class:`SessionLimitError` is the load-shed signal), and
  a session that outlives its lease expires and can be reaped to make
  room.

How the cache *is* the MVCC version store
-----------------------------------------

The engine's views mutate in place, so an old generation's answers must
be captured before the batch that overwrites them.  The writer does this
lazily and proportionally to the change, from the engine's route hook
(:meth:`repro.engine.session.Engine.add_route_listener`): the engine
validates the batch and routes it once, before anything mutates —
labels of existing endpoints from the pre-batch graph, a brand-new
endpoint's from its first declaring insert — and hands the hook the
views the batch will change.  Still holding exclusive access, and still
before the journal append and ``G ⊕ ΔG``, the hook computes any
registered query of those views that is not already cached at the
view's current version.  After the batch, those entries are exactly the
answers at every generation the view's new version supersedes — old
pinned sessions keep reading them as cache hits.  Views the batch skips
need no freeze: their live state still *is* their state at every
retained generation, so a miss can be recomputed from the live view
under the read lock.  No graph copy, no view copy, ever.  A batch the
engine rejects freezes nothing, and a freeze that raises aborts the
write with log and graph untouched.

The freeze and the fan-out use the same routing decision, and a tripwire
still checks them at publish: if a batch's report shows a changed view
whose queries were not frozen, the repository *poisons* itself and every
subsequent operation raises :class:`RepositoryPoisonedError` rather than
serving silently wrong snapshots.  The same poison triggers when the
engine is mutated behind the repository's back (detected via
:meth:`repro.engine.session.Engine.add_apply_listener`).

>>> from repro import DiGraph, Engine, insert
>>> from repro.scc import SCCIndex
>>> engine = Engine(DiGraph(labels={1: "a", 2: "b"}, edges=[(1, 2)]))
>>> _ = engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
>>> repo = Repository(engine)
>>> with repo.session() as reader:
...     before = reader.read("scc", "components")
...     _ = repo.apply([insert(2, 1)])           # writer moves on...
...     after = reader.read("scc", "components")  # ...reader does not
>>> before == after == frozenset({frozenset({1}), frozenset({2})})
True
>>> repo.read_latest("scc", "components")
frozenset({frozenset({1, 2})})
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from itertools import chain
from typing import TYPE_CHECKING, Any, Iterator, Optional, Union

from repro.core.delta import Delta, Update
from repro.engine.session import AutosnapshotError, Engine, EngineReport
from repro.persist.deltalog import SegmentedDeltaLog

if TYPE_CHECKING:
    from repro.graph.sharding import ShardMap
    from repro.persist.snapshot import SnapshotStore

__all__ = [
    "CacheStats",
    "ReadSession",
    "Repository",
    "RepositoryPoisonedError",
    "ServingError",
    "SessionClosedError",
    "SessionExpiredError",
    "SessionLimitError",
    "UnknownQueryError",
    "freeze_answer",
]

#: A registered query: a read-only function of one view's live state.
QueryFn = Callable[[Any], Any]

#: Builds a reply payload from a frozen answer (the wire front end's).
Encoder = Callable[[Any], bytes]


class _Entry:
    """One cache slot: a frozen answer and, once a wire read has asked
    for it, the reply payload encoded from it.  Both are immutable and
    die together when the slot is evicted."""

    __slots__ = ("answer", "wire")

    def __init__(self, answer: Any) -> None:
        self.answer = answer
        self.wire: Optional[bytes] = None


class ServingError(RuntimeError):
    """A serving-layer operation is invalid."""


class SessionLimitError(ServingError):
    """The session pool stayed full past the admission timeout.

    This is the repository-level load-shed signal: the caller should
    back off and retry, or surface a retry-after to its own client
    (the asyncio front end does exactly that)."""


class SessionExpiredError(ServingError):
    """The session's lease elapsed before the read."""


class SessionClosedError(ServingError):
    """The session was closed (explicitly, or reaped after expiry)."""


class RepositoryPoisonedError(ServingError):
    """An MVCC invariant was violated; the repository refuses to serve.

    Raised by every subsequent operation once the repository detects
    either an out-of-band engine mutation (an apply/rollback that did
    not go through the repository, observed via the engine's
    publication hook) or a routed batch touching a view whose queries
    the route hook did not freeze.  Serving provably-wrong snapshots
    would be worse than failing loudly."""


class UnknownQueryError(ServingError):
    """The named view or query is not registered with the repository."""


#: The exact scalar types an answer's elements usually are.  A subclass
#: (an ``IntEnum``, a ``str`` subclass) is not one of them and takes the
#: general path, which passes it through all the same.
ATOMS = frozenset({int, str, float, bool, type(None)})

#: :func:`flat_shape` results: every element a scalar, or every element
#: an exact tuple of scalars (a row, as ``rpq.matches`` pairs are).
SCALARS = "scalars"
ROWS = "rows"


def flat_shape(items: Iterable[Any]) -> Optional[str]:
    """:data:`SCALARS`, :data:`ROWS` or ``None`` for a container's
    elements, decided by C builtins with no Python frame per element.

    A flat container is already deeply immutable once copied into a
    tuple or frozenset, and its JSON form is its elements as they are,
    so :func:`freeze_answer` and the wire encoder copy it in bulk."""
    kinds = set(map(type, items))
    if kinds <= ATOMS:
        return SCALARS
    if kinds == {tuple} and set(map(type, chain.from_iterable(items))) <= ATOMS:
        return ROWS
    return None


def freeze_answer(value: Any) -> Any:
    """Recursively convert a query result into an immutable value.

    Sets become frozensets, lists/tuples become tuples, dicts become
    sorted item tuples; scalars pass through.  Cached answers are
    shared between sessions and across threads, so they must not be
    mutable aliases of live view state.  A scalar returns after one type
    lookup, and a container of scalars or of scalar rows is copied whole
    by ``frozenset()``/``tuple()``; every other shape recurses.

    >>> freeze_answer({1: [2, 3]})
    ((1, (2, 3)),)
    """
    if type(value) in ATOMS:
        return value
    if isinstance(value, (set, frozenset)):
        if flat_shape(value):
            return frozenset(value)
        return frozenset(map(freeze_answer, value))
    if isinstance(value, (list, tuple)):
        if flat_shape(value):
            return tuple(value)
        return tuple(map(freeze_answer, value))
    if isinstance(value, Mapping):
        return tuple(
            sorted(
                ((key, freeze_answer(item)) for key, item in value.items()),
                key=repr,
            )
        )
    return value


def default_queries(view: Any) -> dict[str, QueryFn]:
    """The standing queries a view exposes, discovered by duck-typing.

    The four paper indexes map to ``roots`` (KWS), ``matches`` (RPQ and
    ISO — a set attribute), and ``components`` (SCC); dataflow views
    (and anything else exposing a callable ``value``) map to ``value``.
    Any view carrying one of those surfaces gets it registered
    automatically by ``Repository(auto_queries=True)``.  Custom queries
    are added with :meth:`Repository.register_query`.
    """
    queries: dict[str, QueryFn] = {}
    if callable(getattr(view, "roots", None)):
        queries["roots"] = lambda v: v.roots()
    if callable(getattr(view, "components", None)):
        queries["components"] = lambda v: v.components()
    if isinstance(getattr(view, "matches", None), (set, frozenset)):
        queries["matches"] = lambda v: v.matches
    if callable(getattr(view, "value", None)):
        queries["value"] = lambda v: v.value()
    return queries


class _RWLock:
    """A writer-preferring readers/writer lock.

    Readers share; the writer excludes everyone.  Once a writer is
    waiting, new readers queue behind it so a steady read load cannot
    starve the write stream — the serving layer's readers either hit
    the cache (no lock at all) or hold the read side only for one
    query computation, so writer latency stays bounded.
    """

    def __init__(self) -> None:
        self._lock = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        """Shared acquisition for the duration of the ``with`` block."""
        with self._lock:
            while self._writer_active or self._writers_waiting:
                self._lock.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._lock:
                self._readers -= 1
                if not self._readers:
                    self._lock.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        """Exclusive acquisition for the duration of the ``with`` block."""
        with self._lock:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._lock.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._lock:
                self._writer_active = False
                self._lock.notify_all()


@dataclass(frozen=True)
class CacheStats:
    """One moment's cache counters (see :meth:`Repository.cache_stats`).

    ``hits``/``misses`` count reads served from / past the cache;
    ``frozen`` counts entries the writer computed pre-batch to preserve
    a retained generation; ``invalidations`` counts view-version bumps
    (each one retires the view's current-version keys from future
    reads); ``evicted`` counts entries dropped because no retained
    generation can reach them any more; ``encodes`` counts reply
    payloads stored for wire reads (one per entry, however many reads
    it serves, and however many of them raced to encode it);
    ``entries`` and ``wire_bytes`` are gauges: the resident entry count
    and the payload bytes held beside them."""

    hits: int = 0
    misses: int = 0
    frozen: int = 0
    invalidations: int = 0
    evicted: int = 0
    encodes: int = 0
    entries: int = 0
    wire_bytes: int = 0


class ReadSession:
    """One admitted reader, pinned to a single published generation.

    Sessions are created by :meth:`Repository.session` (never directly)
    and are context managers — ``with repo.session() as s: s.read(...)``.
    Every ``read`` observes the pinned generation: views the write
    stream has since moved resolve to answers the writer froze, views
    it has not are read live.  A session holds a pool slot until closed
    (or until its lease expires and the pool reaps it), so hold
    sessions for a request, not for a process lifetime.
    """

    def __init__(
        self,
        repository: "Repository",
        session_id: int,
        generation: int,
        expires_at: Optional[float],
    ) -> None:
        self._repository = repository
        self._id = session_id
        self._generation = generation
        self._expires_at = expires_at
        self._closed = False
        self._expired = False

    @property
    def session_id(self) -> int:
        """The pool-assigned identity (stable for the session's life)."""
        return self._id

    @property
    def generation(self) -> int:
        """The generation every read through this session observes."""
        return self._generation

    @property
    def closed(self) -> bool:
        """Has the session been closed (or reaped)?"""
        return self._closed

    def read(
        self, view: str, query: str, *, encode: Optional[Encoder] = None
    ) -> Any:
        """The named query's answer at the pinned generation.

        ``encode`` is the wire front end's, as on
        :meth:`Repository.read_latest`.  Raises
        :class:`SessionClosedError` / :class:`SessionExpiredError`
        when the lease ran out, :class:`UnknownQueryError` for names the
        repository does not serve."""
        return self._repository._read(view, query, self, encode)

    def renew(self) -> None:
        """Extend the lease by the repository's configured duration."""
        self._repository._renew_session(self)

    def close(self) -> None:
        """Release the pool slot and un-pin the generation (idempotent).

        Closing the last session pinned to an old generation retires
        that generation: cache entries only it could reach are
        evicted."""
        self._repository._close_session(self)

    def __enter__(self) -> "ReadSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Repository:
    """A served engine: one write stream, many MVCC read sessions.

    ``engine`` must already hold its registered views (lazy views are
    materialized at admission time so concurrent readers never race a
    factory).  With ``auto_queries=True`` every view's duck-typed
    standing queries (:func:`default_queries`) are registered; add more
    with :meth:`register_query` *before* readers depend on them — a
    query registered while old generations are pinned can only be
    served at generations its view has not moved past.

    Constructor knobs:

    * ``max_sessions`` — pool bound; admission past it blocks.
    * ``admission_timeout`` — default seconds :meth:`session` waits for
      a slot before raising :class:`SessionLimitError`.
    * ``session_lease`` — seconds a session may live before it expires
      (``None`` = no lease).  Expired sessions are reaped when the pool
      needs room.
    * ``cache`` — ``False`` disables the query cache *and therefore
      MVCC for changed views* (every read recomputes live at the
      current generation); exists for the serving benchmark's
      cached-vs-uncached comparison and for debugging, not production.
    * ``clock`` — monotonic time source (injectable for lease tests).
    """

    def __init__(
        self,
        engine: Engine,
        max_sessions: int = 64,
        admission_timeout: float = 5.0,
        session_lease: Optional[float] = None,
        auto_queries: bool = True,
        cache: bool = True,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_sessions < 1:
            raise ServingError("max_sessions must be at least 1")
        self.engine = engine
        self._max_sessions = max_sessions
        self._admission_timeout = admission_timeout
        self._session_lease = session_lease
        self._cache_enabled = cache
        self._clock = clock
        #: Engine lock: readers share it to compute live answers, the
        #: write stream takes it exclusively for freeze+apply+publish.
        self._engine_lock = _RWLock()
        #: Metadata lock: generation table, version lists, cache,
        #: session registry, stats.  Never held while waiting on the
        #: engine lock (engine outer, meta inner).
        self._meta_lock = threading.RLock()
        self._pool_lock = threading.Condition(self._meta_lock)
        self._generation = 0
        #: generation -> open sessions pinned to it.
        self._pins: dict[int, int] = {}
        #: view -> ascending generations at which the view changed
        #: (0 = admission state).  ``_version(view, g)`` resolves reads.
        self._changes: dict[str, list[int]] = {}
        #: (view, query, version) -> frozen answer (+ its wire payload).
        self._cache: dict[tuple[str, str, int], _Entry] = {}
        self._queries: dict[str, dict[str, QueryFn]] = {}
        self._sessions: dict[int, ReadSession] = {}
        self._reserved = 0
        self._next_session_id = 1
        #: the counting fields of :class:`CacheStats`, by name
        self._counts: Counter[str] = Counter()
        self._poisoned: Optional[str] = None
        self._closed = False
        self._applying = False
        # Group-commit durability tracking (format v4): when the
        # engine's journal batches appends into windows, a published
        # generation is *visible* immediately but *durable* only once
        # its window seals.  The journal must already be attached
        # (SnapshotStore.attach) when the repository is built.
        journal = engine.journal
        if journal is not None and not isinstance(journal, SegmentedDeltaLog):
            raise TypeError(
                "a served engine journals into a SegmentedDeltaLog "
                f"(SnapshotStore.attach) or not at all, not {journal!r}"
            )
        self._window_log: Optional[SegmentedDeltaLog] = journal
        self._durable_seq = 0
        self._durable_generation = 0
        #: (seq, generation) publishes awaiting their window's seal.
        self._published_pending: list[tuple[int, int]] = []
        if self._window_log is not None:
            self._window_log.add_seal_listener(self._on_window_seal)
        for name in engine.names():
            engine.view(name)  # materialize lazy views before threads
            self._changes[name] = [0]
            self._queries[name] = (
                default_queries(engine.view(name)) if auto_queries else {}
            )
        engine.add_route_listener(self._on_route)
        engine.add_apply_listener(self._on_engine_publication)

    # ------------------------------------------------------------------
    # Query registry
    # ------------------------------------------------------------------

    def register_query(self, view: str, query: str, fn: QueryFn) -> None:
        """Register ``fn(view_object) -> answer`` as a standing query.

        The function must be read-only and its result is passed through
        :func:`freeze_answer` before caching, so it may return live
        sets/dicts.  Register queries at startup: the writer freezes
        *registered* queries when it overwrites a pinned generation, so
        a query added later cannot be served at generations whose view
        state is already gone."""
        if view not in self._changes:
            raise UnknownQueryError(f"no view named {view!r} is served")
        with self._meta_lock:
            self._queries[view][query] = fn

    def queries(self) -> dict[str, tuple[str, ...]]:
        """The served surface: view name -> registered query names."""
        with self._meta_lock:
            return {
                view: tuple(sorted(table)) for view, table in self._queries.items()
            }

    # ------------------------------------------------------------------
    # Admission: the bounded session pool
    # ------------------------------------------------------------------

    def session(self, timeout: Optional[float] = None) -> ReadSession:
        """Admit a reader: block for a pool slot, pin the current
        generation, return the :class:`ReadSession`.

        ``timeout`` (default: the constructor's ``admission_timeout``)
        bounds the wait for a slot; exhaustion raises
        :class:`SessionLimitError` — the signal to shed load.  A read
        admitted after batch *k* published always observes generation
        ≥ *k* (admission orders after any in-flight write)."""
        if timeout is None:
            timeout = self._admission_timeout
        deadline = self._clock() + timeout
        with self._pool_lock:
            while True:
                self._check_serving_locked()
                self._reap_expired_locked()
                if len(self._sessions) + self._reserved < self._max_sessions:
                    self._reserved += 1
                    break
                remaining = deadline - self._clock()
                if remaining <= 0:
                    raise SessionLimitError(
                        f"session pool is full ({self._max_sessions} leases) "
                        f"and no slot freed within {timeout:.3f}s; retry later"
                    )
                self._pool_lock.wait(remaining)
        try:
            # The read lock orders admission after any in-flight write:
            # the generation pinned is always fully published, and the
            # writer's freeze decision has seen this session — or will
            # run entirely after it is registered.
            with self._engine_lock.read():
                with self._meta_lock:
                    self._check_serving_locked()
                    session = ReadSession(
                        self,
                        self._next_session_id,
                        self._generation,
                        None
                        if self._session_lease is None
                        else self._clock() + self._session_lease,
                    )
                    self._next_session_id += 1
                    self._sessions[session.session_id] = session
                    self._pins[session.generation] = (
                        self._pins.get(session.generation, 0) + 1
                    )
        finally:
            with self._meta_lock:
                self._reserved -= 1
        return session

    def _reap_expired_locked(self) -> None:
        """Force-close sessions whose lease elapsed (meta lock held)."""
        now = self._clock()
        for session in list(self._sessions.values()):
            if session._expires_at is not None and session._expires_at <= now:
                session._expired = True
                self._retire_session_locked(session)

    def _renew_session(self, session: ReadSession) -> None:
        with self._meta_lock:
            self._check_session_locked(session)
            if self._session_lease is not None:
                session._expires_at = self._clock() + self._session_lease

    def _close_session(self, session: ReadSession) -> None:
        with self._meta_lock:
            if session._closed:
                return
            self._retire_session_locked(session)

    def _retire_session_locked(self, session: ReadSession) -> None:
        session._closed = True
        self._sessions.pop(session.session_id, None)
        remaining = self._pins.get(session.generation, 0) - 1
        if remaining > 0:
            self._pins[session.generation] = remaining
        else:
            self._pins.pop(session.generation, None)
            self._evict_unreachable_locked()
        self._pool_lock.notify_all()

    @property
    def open_sessions(self) -> int:
        """Currently admitted (unexpired, unclosed) session count."""
        with self._meta_lock:
            return len(self._sessions)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """The newest published generation (0 before any write)."""
        with self._meta_lock:
            return self._generation

    @property
    def durable_generation(self) -> int:
        """The newest published generation whose journal entry is
        durable.  Without a windowed journal this always equals
        :attr:`generation`; under group-commit windows (format v4) it
        trails by up to one window until the window auto-seals or
        :meth:`flush` is called.  Reads are unaffected — MVCC
        visibility is per-batch; this is the durability acknowledgment
        a client needs before treating an applied batch as
        crash-survivable."""
        with self._meta_lock:
            return self._durable_generation

    def flush(self) -> int:
        """Durability barrier: seal the journal's open group-commit
        window (no-op without one) so every published generation is
        durable; returns the durable generation, which now equals
        :attr:`generation`.  Raises whatever the seal raises — in that
        case the window is torn and nothing new became durable."""
        with self._engine_lock.write():
            with self._meta_lock:
                self._check_serving_locked()
            log = self._window_log
            if log is not None:
                log.flush()
            with self._meta_lock:
                # the seal listener already drained the pending list;
                # anything left had no seal to wait for
                self._published_pending.clear()
                self._durable_generation = self._generation
                return self._durable_generation

    def read_latest(
        self, view: str, query: str, *, encode: Optional[Encoder] = None
    ) -> Any:
        """One-shot read at the current generation, outside any session.

        Holds the read side of the engine lock across resolve+compute,
        so the answer is one consistent generation's and — like
        admission — orders after any in-flight write; but unlike a
        session there is no pin: two consecutive ``read_latest`` calls
        may observe different generations.

        With ``encode`` (the wire front end's reply encoder; one per
        repository, because its output is kept per entry, not per
        encoder) the result is ``(generation, payload)``: the
        generation the read resolved at and ``encode(answer)``, stored
        by the first such read of a ``(view, query, version)`` to finish
        encoding and kept beside the frozen answer until the entry is
        evicted; every read of the entry returns that one bytes object."""
        return self._read(view, query, None, encode)

    def _read(
        self,
        view: str,
        query: str,
        session: Optional[ReadSession],
        encode: Optional[Encoder],
    ) -> Any:
        """Every read, pinned or one-shot, wire or in-process."""
        entry = None
        if session is not None:  # a pinned hit needs no engine lock
            with self._meta_lock:
                self._check_session_locked(session)
                generation, _, _, entry = self._resolve_locked(view, query, session)
        if entry is None:
            with self._engine_lock.read():
                generation, entry = self._resolve_or_compute(view, query, session)
        if encode is None:
            return entry.answer
        payload = entry.wire
        if payload is None:
            # outside every lock: a slow encode delays nobody else; of
            # readers racing to encode one entry, the first to store wins
            payload = encode(entry.answer)
            with self._meta_lock:
                if entry.wire is None:
                    entry.wire = payload
                    self._count_locked(encodes=1)
                else:
                    payload = entry.wire
        return generation, payload

    def _check_session_locked(self, session: ReadSession) -> None:
        self._check_serving_locked()
        if session._expired:
            raise SessionExpiredError(
                f"session {session.session_id} outlived its lease of "
                f"{self._session_lease}s; admit a new session"
            )
        if session._closed:
            raise SessionClosedError(
                f"session {session.session_id} is closed"
            )
        if session._expires_at is not None and session._expires_at <= self._clock():
            session._expired = True
            self._retire_session_locked(session)
            raise SessionExpiredError(
                f"session {session.session_id} outlived its lease of "
                f"{self._session_lease}s; admit a new session"
            )

    def _query_fn(self, view: str, query: str) -> QueryFn:
        table = self._queries.get(view)
        if table is None:
            raise UnknownQueryError(f"no view named {view!r} is served")
        fn = table.get(query)
        if fn is None:
            raise UnknownQueryError(
                f"view {view!r} has no registered query {query!r} "
                f"(registered: {sorted(table) or 'none'})"
            )
        return fn

    def _version(self, view: str, generation: int) -> int:
        """The generation at which ``view`` last changed at or before
        ``generation`` — the cache key component (meta lock held)."""
        changes = self._changes[view]
        return changes[bisect_right(changes, generation) - 1]

    def _resolve_locked(
        self, view: str, query: str, session: Optional[ReadSession]
    ) -> tuple[int, int, QueryFn, Optional[_Entry]]:
        """The resolve step every read shares: generation -> version ->
        cache entry, counting a hit (``None`` is a miss, not yet
        counted)."""
        fn = self._query_fn(view, query)
        self._check_serving_locked()
        generation = self._generation if session is None else session.generation
        version = self._version(view, generation)
        entry = self._cache.get((view, query, version))
        if entry is not None:
            self._count_locked(hits=1)
        return generation, version, fn, entry

    def _resolve_or_compute(
        self, view: str, query: str, session: Optional[ReadSession]
    ) -> tuple[int, _Entry]:
        """The cached entry, or one computed from the live view (read
        lock held).

        Resolves under the read lock — the generation cannot move while
        it is held, and for a pinned read that already missed the writer
        may have frozen the entry in between.  If the view's version
        has moved past the resolved one and no frozen entry exists, the
        snapshot is unservable — with the cache enabled that is an
        invariant breach (the freeze always runs before the version
        bump for pinned generations), reported as poison rather than
        served wrong."""
        with self._meta_lock:
            generation, version, fn, entry = self._resolve_locked(
                view, query, session
            )
            current = self._changes[view][-1]
        if entry is not None:
            return generation, entry
        if version != current:
            if self._cache_enabled:
                self._poison(
                    f"read of view {view!r} query {query!r} at version "
                    f"{version} found neither a frozen entry nor live state "
                    f"(view is at version {current}) — the freeze missed a "
                    "change or a query was registered after the "
                    "generation it is being read at"
                )
            raise ServingError(
                f"view {view!r} moved to version {current} and the cache is "
                f"disabled; reads at pinned generation/version {version} "
                "cannot be served (cache=False forfeits MVCC for changed "
                "views)"
            )
        entry = _Entry(freeze_answer(fn(self.engine.view(view))))
        with self._meta_lock:
            if self._cache_enabled:
                self._cache[(view, query, version)] = entry
            self._count_locked(misses=1)
        return generation, entry

    def _count_locked(self, **increments: int) -> None:
        """Advance the named :class:`CacheStats` counters."""
        self._counts.update(increments)

    # ------------------------------------------------------------------
    # The write stream
    # ------------------------------------------------------------------

    def apply(self, delta: Union[Delta, Iterable[Update]]) -> EngineReport:
        """Apply one batch through the engine and publish the next
        generation.

        The whole operation holds the write side of the engine lock:
        ``engine.apply`` validates and routes the batch, and its route
        hook freezes the answers of every view the batch will touch
        (only those some open session still pins) before the journal
        append and ``G ⊕ ΔG``; journaling, fan-out and auto-snapshotting
        run exactly as a direct call would.  Then the batch publishes —
        bump the generation, bump the version of every view the report
        says changed, and evict cache entries no retained generation can
        reach.  An :class:`~repro.engine.session.AutosnapshotError`
        still publishes (the batch *is* applied) before propagating."""
        return self._write(lambda: self.engine.apply(delta))

    def rollback(self, checkpoint: int = 0) -> EngineReport:
        """Roll the engine back to ``checkpoint`` and publish the undo
        as a new generation (MVCC time moves forward even when graph
        time moves back — pinned sessions keep their snapshots)."""
        return self._write(lambda: self.engine.rollback(checkpoint))

    def checkpoint(self) -> int:
        """The engine's current rollback mark (see
        :meth:`repro.engine.session.Engine.checkpoint`)."""
        with self._engine_lock.read():
            return self.engine.checkpoint()

    def bulk_load(
        self, edges: Union[Delta, Iterable[Any]]
    ) -> EngineReport:
        """Bulk-import ``edges`` and publish the import as *one*
        generation.

        Delegates to :meth:`repro.engine.session.Engine.bulk_load`:
        view maintenance is suspended while the edges stream into the
        graph and every view is rebuilt once at the end, so the rebuild
        cost is paid per view, not per edge.  The route hook names every
        rebuilt view, so all their registered queries are frozen first,
        which keeps pinned sessions reading their admitted generation
        throughout — readers admitted before the import never see a
        partially-loaded graph, readers admitted after it see the whole
        import or none of it."""
        return self._write(lambda: self.engine.bulk_load(edges))

    def split_shard(
        self, store: SnapshotStore, parent: int, boundary: Optional[Any] = None
    ) -> ShardMap:
        """Split shard ``parent`` of the served engine's store online.

        Delegates to :meth:`repro.persist.SnapshotStore.split_shard`
        under the write side of the engine lock: readers drain, the
        split swaps the graph's map, re-routes the log and commits (or
        puts the old map back), then readers resume.  No generation is
        published and no view version moves — a split changes where
        future updates are journaled, not the graph or any answer, so
        open sessions keep their pins and the cache keeps every entry.
        Returns the new shard map."""
        with self._engine_lock.write():
            with self._meta_lock:
                self._check_serving_locked()
            self._applying = True
            try:
                return store.split_shard(self.engine, parent, boundary)
            finally:
                self._applying = False

    def _write(self, run: Callable[[], EngineReport]) -> EngineReport:
        """Run one engine write under the write side of the engine lock
        and publish its report — also when only the auto-snapshot
        failed (the batch *is* applied).  The freeze happens inside
        ``run``, from the engine's route hook (:meth:`_on_route`)."""
        with self._engine_lock.write():
            with self._meta_lock:
                self._check_serving_locked()
            self._applying = True
            try:
                report = run()
            except AutosnapshotError as error:
                self._publish_locked(error.report)
                raise
            finally:
                self._applying = False
            self._publish_locked(report)
        return report

    def _on_route(self, names: tuple[str, ...]) -> None:
        """Engine route hook: freeze what the routed batch will
        overwrite, before the journal append and ``G ⊕ ΔG`` (write lock
        held).  A write the repository did not initiate is left alone
        here; the publication hook poisons on it."""
        if not self._applying:
            return
        with self._meta_lock:
            pinned = bool(self._pins)
        if pinned and self._cache_enabled:
            self._freeze_views(names)

    def _freeze_views(self, names: Iterable[str]) -> None:
        """Freeze every registered query of ``names`` at the views'
        current versions (write lock held, pins + cache checked by the
        caller)."""
        for name in names:
            with self._meta_lock:
                version = self._changes[name][-1]
                missing = [
                    (query, fn)
                    for query, fn in self._queries.get(name, {}).items()
                    if (name, query, version) not in self._cache
                ]
            for query, fn in missing:
                entry = _Entry(freeze_answer(fn(self.engine.view(name))))
                with self._meta_lock:
                    self._cache[(name, query, version)] = entry
                    self._count_locked(frozen=1)

    def _publish_locked(self, report: EngineReport) -> None:
        """Advance the generation from a fan-out report (write lock
        held): version-bump changed views, evict unreachable entries."""
        changed = [
            name for name, view_report in report.views.items() if view_report.changed
        ]
        with self._meta_lock:
            self._generation += 1
            for name in changed:
                versions = self._changes.setdefault(name, [0])
                if self._pins and self._cache_enabled:
                    version = versions[-1]
                    missing = [
                        query
                        for query in self._queries.get(name, {})
                        if (name, query, version) not in self._cache
                    ]
                    if missing:
                        self._poison_locked(
                            f"batch changed view {name!r} but queries "
                            f"{sorted(missing)!r} were not frozen for pinned "
                            "generations — the route hook and the fan-out "
                            "disagree"
                        )
                versions.append(self._generation)
                self._count_locked(invalidations=1)
            self._note_durability_locked(report)
            self._evict_unreachable_locked()

    def _note_durability_locked(self, report: EngineReport) -> None:
        """Classify the just-published generation as durable now or
        pending its window's seal (meta lock held).

        Three cases: no windowed journal / no journal entry → the
        append (if any) fsynced synchronously, durable now; the batch's
        seq already covered by a seal → durable now (the window
        auto-sealed *during* the apply, before this publish); the seq
        sits in the still-open window → pending until
        :meth:`_on_window_seal` or :meth:`flush`."""
        seq = report.seq
        log = self._window_log
        if log is None or seq is None or seq <= self._durable_seq:
            self._durable_generation = self._generation
            return
        if seq in log.open_window_seqs():
            self._published_pending.append((seq, self._generation))
        else:
            # windows were not in effect for this append (window mode
            # is per-strategy): it fsynced on its own
            self._durable_seq = max(self._durable_seq, seq)
            self._durable_generation = self._generation

    def _on_window_seal(self, window: int, seqs: tuple[int, ...]) -> None:
        """Journal seal listener: every seq the window covered is now
        durable, so the generations published for them are too."""
        with self._meta_lock:
            if self._closed:
                return
            if seqs:
                self._durable_seq = max(self._durable_seq, max(seqs))
            while (
                self._published_pending
                and self._published_pending[0][0] <= self._durable_seq
            ):
                _, generation = self._published_pending.pop(0)
                self._durable_generation = max(
                    self._durable_generation, generation
                )

    def _retained_generations_locked(self) -> list[int]:
        return sorted(set(self._pins) | {self._generation})

    def _evict_unreachable_locked(self) -> None:
        """Drop cache entries and version history no retained
        generation (a pinned one, or the current one) resolves to."""
        retained = self._retained_generations_locked()
        needed: dict[str, set[int]] = {}
        for view, versions in self._changes.items():
            keep = {
                versions[bisect_right(versions, generation) - 1]
                for generation in retained
            }
            needed[view] = keep
            floor = min(keep)
            index = versions.index(floor)
            if index:
                del versions[:index]
        doomed = [
            key for key in self._cache if key[2] not in needed.get(key[0], ())
        ]
        for key in doomed:
            del self._cache[key]
        if doomed:
            self._count_locked(evicted=len(doomed))

    # ------------------------------------------------------------------
    # Health: poison tripwires, stats, lifecycle
    # ------------------------------------------------------------------

    def _on_engine_publication(self, report: EngineReport) -> None:
        """Engine publication hook: any fan-out the repository did not
        initiate means a caller mutated the engine behind the serving
        layer — pinned snapshots can no longer be trusted."""
        if self._applying:
            return
        with self._meta_lock:
            if self._closed:
                return
            self._poisoned = (
                "the engine was mutated outside Repository.apply/rollback "
                f"(out-of-band batch of {len(report.delta)} update(s)); "
                "pinned generations can no longer be served"
            )

    def _poison(self, reason: str) -> None:
        with self._meta_lock:
            self._poison_locked(reason)

    def _poison_locked(self, reason: str) -> None:
        if self._poisoned is None:
            self._poisoned = reason
        raise RepositoryPoisonedError(self._poisoned)

    def _check_serving_locked(self) -> None:
        if self._poisoned is not None:
            raise RepositoryPoisonedError(self._poisoned)
        if self._closed:
            raise ServingError("the repository is closed")

    @property
    def poisoned(self) -> Optional[str]:
        """The poison reason, or ``None`` while the repository is
        healthy."""
        with self._meta_lock:
            return self._poisoned

    def cache_stats(self) -> CacheStats:
        """A consistent snapshot of the cache counters and gauges."""
        with self._meta_lock:
            return CacheStats(
                **self._counts,
                entries=len(self._cache),
                wire_bytes=sum(
                    len(entry.wire)
                    for entry in self._cache.values()
                    if entry.wire is not None
                ),
            )

    def stats(self) -> dict[str, Any]:
        """Operational snapshot for monitoring and the wire ``stats``
        op: generation, session occupancy, cache counters."""
        with self._meta_lock:
            return {
                "generation": self._generation,
                "durable_generation": self._durable_generation,
                "open_sessions": len(self._sessions),
                "max_sessions": self._max_sessions,
                "pinned_generations": sorted(self._pins),
                "poisoned": self._poisoned,
                "cache": asdict(self.cache_stats()),
            }

    def close(self) -> None:
        """Stop serving: close every session, detach the publication
        hook, and reject subsequent operations (idempotent).  The
        underlying engine is untouched and may keep being used
        directly."""
        self.engine.remove_route_listener(self._on_route)
        self.engine.remove_apply_listener(self._on_engine_publication)
        if self._window_log is not None:
            self._window_log.remove_seal_listener(self._on_window_seal)
        with self._meta_lock:
            if self._closed:
                return
            self._closed = True
            for session in list(self._sessions.values()):
                session._closed = True
            self._sessions.clear()
            self._pins.clear()
            self._cache.clear()
            self._pool_lock.notify_all()

    def __enter__(self) -> "Repository":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(cls, store: SnapshotStore, **kwargs: Any) -> "Repository":
        """Serve a persisted session: ``store.load()`` (a
        :class:`repro.persist.SnapshotStore`) rebuilds the engine —
        snapshot restore plus routed log-tail replay — and the
        repository starts a fresh serving epoch (generation 0) on top.
        Serving generations are *not* persistent identities; the log
        seq (``EngineReport.seq``) is."""
        return cls(store.load(), **kwargs)
