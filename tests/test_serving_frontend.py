"""Wire tests for the asyncio front door: protocol ops, session
ownership per connection, load-shedding with retry-after, and the
encode-once read path (payload bytes kept beside each frozen answer).

Each test drives a real TCP socket on a loopback ephemeral port via
``asyncio.run`` — no third-party async test plugin needed."""

import asyncio
import json
import random
import threading

import pytest

import repro.serving.frontend as frontend_module
from repro import DiGraph, Engine, Repository, insert
from repro.kws import KWSIndex, KWSQuery
from repro.persist import SnapshotStore
from repro.scc import SCCIndex
from repro.serving import ServingFrontend, jsonable
from test_serving_cache import (
    SURFACE,
    four_view_engine,
    random_batch,
    random_graph,
)


def make_repo(graph=None, **kwargs):
    engine = Engine(
        graph
        or DiGraph(labels={1: "a", 2: "b", 3: "c"}, edges=[(1, 2), (2, 3)])
    )
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register(
        "kws", lambda g, m: KWSIndex(g, KWSQuery(("a", "b"), 2), meter=m)
    )
    return Repository(engine, **kwargs)


class Client:
    """One NDJSON connection: ``await client.rpc({...})`` round-trips."""

    def __init__(self, port):
        self.port = port
        self.reader = None
        self.writer = None

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        return self

    async def __aexit__(self, *exc_info):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def send(self, request):
        self.writer.write(json.dumps(request).encode() + b"\n")
        await self.writer.drain()

    async def recv_line(self):
        return await self.reader.readline()

    async def recv(self):
        return json.loads(await self.recv_line())

    async def read(self, view, query, session=None):
        request = {"op": "read", "view": view, "query": query}
        if session is not None:
            request["session"] = session
        return await self.rpc(request)

    async def rpc(self, request):
        await self.send(request)
        return await self.recv()


def test_protocol_roundtrip():
    repo = make_repo()

    async def scenario():
        async with ServingFrontend(repo, port=0) as frontend:
            async with Client(frontend.port) as client:
                opened = await client.rpc({"op": "open"})
                assert opened["ok"] and opened["generation"] == 0
                session = opened["session"]

                read = await client.rpc(
                    {"op": "read", "session": session, "id": 42,
                     "view": "scc", "query": "components"}
                )
                assert read == {
                    "ok": True, "generation": 0, "id": 42,
                    "answer": [[1], [2], [3]],
                }

                applied = await client.rpc(
                    {"op": "apply", "updates": [["insert", 3, 1]]}
                )
                assert applied["ok"] and applied["generation"] == 1
                assert "scc" in applied["routed"]

                # The pinned session still answers at generation 0...
                again = await client.rpc(
                    {"op": "read", "session": session,
                     "view": "scc", "query": "components"}
                )
                assert again["answer"] == [[1], [2], [3]]
                # ...while a session-less read sees the new generation.
                latest = await client.rpc(
                    {"op": "read", "view": "scc", "query": "components"}
                )
                assert latest["generation"] == 1
                assert latest["answer"] == [[1, 2, 3]]

                assert (await client.rpc({"op": "close",
                                          "session": session}))["ok"]
                stats = await client.rpc({"op": "stats"})
                assert stats["stats"]["generation"] == 1
                assert stats["stats"]["frontend"]["max_inflight"] == 128

    asyncio.run(scenario())
    assert repo.open_sessions == 0


def test_errors_are_structured_not_fatal():
    repo = make_repo()

    async def scenario():
        async with ServingFrontend(repo, port=0) as frontend:
            async with Client(frontend.port) as client:
                bad = await client.rpc({"op": "read", "view": "nope",
                                        "query": "x"})
                assert bad == {"ok": False, "error": "unknown_query",
                               "message": bad["message"]}
                assert (await client.rpc({"op": "bogus"}))["error"] == (
                    "bad_request"
                )
                assert (await client.rpc({"not": "a request"}))["error"] == (
                    "bad_request"
                )
                assert (await client.rpc(
                    {"op": "apply", "updates": [["noop", 1]]}
                ))["error"] == "bad_request"
                assert (await client.rpc(
                    {"op": "read", "session": 99,
                     "view": "scc", "query": "components"}
                ))["error"] == "session_closed"
                # An invalid batch surfaces as serving_error, and the
                # connection keeps working afterwards.
                invalid = await client.rpc(
                    {"op": "apply", "updates": [["delete", 9, 9]]}
                )
                assert invalid["error"] == "serving_error"
                assert (await client.rpc({"op": "stats"}))["ok"]

    asyncio.run(scenario())


def test_disconnect_releases_the_connections_sessions():
    repo = make_repo(max_sessions=2)

    async def scenario():
        async with ServingFrontend(repo, port=0) as frontend:
            async with Client(frontend.port) as client:
                assert (await client.rpc({"op": "open"}))["ok"]
                assert (await client.rpc({"op": "open"}))["ok"]
                assert repo.open_sessions == 2
            # Client gone: its pool slots must come back without
            # waiting for any lease.
            for _ in range(50):
                if repo.open_sessions == 0:
                    break
                await asyncio.sleep(0.01)
            assert repo.open_sessions == 0
            async with Client(frontend.port) as client:
                assert (await client.rpc({"op": "open"}))["ok"]

    asyncio.run(scenario())


def test_stop_waits_for_connection_cleanup():
    """``stop()``'s contract: it disconnects still-open clients and
    returns only after their sessions are released — no polling."""
    repo = make_repo()

    async def scenario():
        frontend = ServingFrontend(repo, port=0)
        await frontend.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", frontend.port
        )
        writer.write(json.dumps({"op": "open"}).encode() + b"\n")
        await writer.drain()
        assert json.loads(await reader.readline())["ok"]
        assert repo.open_sessions == 1
        await frontend.stop()  # client never disconnected
        assert repo.open_sessions == 0
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    asyncio.run(scenario())


def test_overload_sheds_with_retry_after():
    repo = make_repo()
    release = threading.Event()
    started = threading.Event()

    def slow_query(view):
        started.set()
        release.wait(10)
        return view.components()

    repo.register_query("scc", "slow", slow_query)

    async def scenario():
        async with ServingFrontend(repo, port=0, max_inflight=1,
                                   retry_after=0.25) as frontend:
            async with Client(frontend.port) as stuck, \
                    Client(frontend.port) as shed:
                await stuck.send({"op": "read", "view": "scc",
                                  "query": "slow"})
                # The slow read is genuinely executing (not merely
                # buffered) before the second request arrives.
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 10
                )
                refused = await shed.rpc({"op": "read", "view": "scc",
                                          "query": "components"})
                assert refused["ok"] is False
                assert refused["error"] == "overloaded"
                assert refused["retry_after"] == 0.25
                assert frontend.shed_count == 1

                release.set()
                answer = await stuck.recv()
                assert answer["ok"] and answer["answer"] == [[1], [2], [3]]
                # Capacity is back: the shed client's retry succeeds.
                retried = await shed.rpc({"op": "read", "view": "scc",
                                          "query": "components"})
                assert retried["ok"]

    asyncio.run(scenario())


def test_jsonable_is_deterministic_over_frozen_answers():
    nested = frozenset({frozenset({3, 1}), frozenset({2})})
    assert jsonable(nested) == [[1, 3], [2]]
    assert jsonable((1, (2, 3))) == [1, [2, 3]]
    assert jsonable({"k": frozenset({2, 1})}) == {"k": [1, 2]}
    # natural order, not order-of-repr ("10" < "9")...
    assert jsonable(frozenset({10, 9})) == [9, 10]
    # ...and still total when the elements do not compare
    assert jsonable(frozenset({"b", 1, None})) == sorted(
        ["b", 1, None], key=repr
    )


def test_apply_reply_has_the_documented_shape(tmp_path):
    """SERVING.md §4: ``{"ok", "generation", "seq", "routed"}`` — the
    seq is what a client matches against ``durable_generation``."""
    repo = make_repo()
    SnapshotStore(tmp_path / "store").attach(repo.engine)

    async def scenario():
        async with ServingFrontend(repo, port=0) as frontend:
            async with Client(frontend.port) as client:
                first = await client.rpc(
                    {"op": "apply", "updates": [["insert", 3, 1]]}
                )
                assert set(first) == {"ok", "generation", "seq", "routed"}
                assert isinstance(first["seq"], int)
                second = await client.rpc(
                    {"op": "apply", "id": 7, "updates": [["delete", 3, 1]]}
                )
                assert set(second) == {"ok", "generation", "seq", "routed", "id"}
                assert second["seq"] == first["seq"] + 1

    asyncio.run(scenario())


def test_reply_names_the_generation_the_read_resolved_at():
    """A write landing between the read's resolve and the reply must
    not relabel a generation-0 answer as generation 1."""
    repo = make_repo()
    resolve = repo.read_latest

    def read_then_write(*args, **kwargs):
        result = resolve(*args, **kwargs)
        repo.apply([insert(3, 1)])
        return result

    repo.read_latest = read_then_write

    async def scenario():
        async with ServingFrontend(repo, port=0) as frontend:
            async with Client(frontend.port) as client:
                reply = await client.read("scc", "components")
                assert reply["answer"] == [[1], [2], [3]]
                assert reply["generation"] == 0
                assert repo.generation == 1

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Encode once per (view, query, version)
# ----------------------------------------------------------------------


def cold_region_repo(**kwargs):
    """``insert(3, 4)`` (c -> c) is routed to scc and away from kws."""
    graph = DiGraph(labels={1: "a", 2: "b", 3: "c", 4: "c"}, edges=[(1, 2)])
    return make_repo(graph, **kwargs)


def payload_bytes(answer):
    return len(json.dumps(jsonable(answer)))


def test_each_frozen_answer_is_encoded_once(monkeypatch):
    repo = cold_region_repo()
    encoded = []  # every value handed to the module-global jsonable
    original = jsonable

    def recording(value):
        encoded.append(value)
        return original(value)

    monkeypatch.setattr(frontend_module, "jsonable", recording)

    def encodes():
        return repo.stats()["cache"]["encodes"]

    async def scenario():
        async with ServingFrontend(repo, port=0) as frontend:
            async with Client(frontend.port) as client:
                for _ in range(3):
                    roots = await client.read("kws", "roots")
                    parts = await client.read("scc", "components")
                assert encodes() == 2
                old = (await client.rpc({"op": "open"}))["session"]
                assert await client.read("kws", "roots", old) == roots
                assert await client.read("scc", "components", old) == parts
                assert encodes() == 2

                applied = await client.rpc(
                    {"op": "apply", "updates": [["insert", 3, 4]]}
                )
                assert applied["routed"] == ["scc"]
                new = (await client.rpc({"op": "open"}))["session"]
                # kws was routed away: generations 0 and 1 resolve to one
                # version, one entry, one payload
                for session in (None, old, new):
                    again = await client.read("kws", "roots", session)
                    assert again["answer"] == roots["answer"]
                assert encodes() == 2
                # scc was routed: one new payload, however it is read
                for session in (None, new, None, old):
                    await client.read("scc", "components", session)
                assert encodes() == 3

                # the old generation's scc payload lives while pinned...
                floor = payload_bytes(
                    repo.read_latest("kws", "roots")
                ) + payload_bytes(repo.read_latest("scc", "components"))
                held = repo.stats()["cache"]["wire_bytes"]
                assert held == floor + len(json.dumps(parts["answer"]))
                # ...and dies with its last pin
                await client.rpc({"op": "close", "session": old})
                assert repo.stats()["cache"]["wire_bytes"] == floor
                await client.rpc({"op": "close", "session": new})
                assert repo.stats()["cache"]["wire_bytes"] == floor

    asyncio.run(scenario())
    # the encoder went through the module global, once per payload
    roots = repo.read_latest("kws", "roots")
    assert sum(1 for value in encoded if value is roots) == 1
    assert encodes() == 3
    repo.close()
    assert repo.cache_stats().wire_bytes == 0


def test_pinned_hits_are_answered_while_the_writer_holds_the_engine_lock():
    """A pinned read of a frozen answer needs the metadata lock only;
    a one-shot read orders after the in-flight write, on a pool thread
    — the loop stays free either way."""
    repo = make_repo()
    held, release = threading.Event(), threading.Event()

    def writer():
        with repo._engine_lock.write():
            held.set()
            release.wait(30)

    thread = threading.Thread(target=writer)

    async def scenario():
        loop = asyncio.get_running_loop()
        async with ServingFrontend(repo, port=0) as frontend:
            async with Client(frontend.port) as hot, \
                    Client(frontend.port) as cold:
                warm = await hot.read("scc", "components")
                pinned = (await hot.rpc({"op": "open"}))["session"]
                thread.start()
                assert await loop.run_in_executor(None, held.wait, 30)
                try:
                    await cold.send({"op": "read", "view": "scc",
                                     "query": "components"})
                    blocked = asyncio.ensure_future(cold.recv())
                    for _ in range(3):
                        assert await asyncio.wait_for(
                            hot.read("scc", "components", pinned), 30
                        ) == warm
                    done, _ = await asyncio.wait({blocked}, timeout=0.05)
                    assert not done
                finally:
                    release.set()
                assert await asyncio.wait_for(blocked, 30) == warm

    try:
        asyncio.run(scenario())
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive()
    stats = repo.cache_stats()
    assert (stats.hits, stats.misses, stats.encodes) == (4, 1, 1)


def test_spliced_envelope_keeps_every_reply_shape():
    """Failures, ``id`` echoes and the ``cache=False`` strawman read on
    the wire exactly as they did when the whole reply was one
    ``json.dumps``."""
    now = [0.0]
    repo = make_repo(session_lease=10.0, clock=lambda: now[0])

    async def failures():
        async with ServingFrontend(repo, port=0, retry_after=0.5) as frontend:
            async with Client(frontend.port) as client:
                await client.read("scc", "components")  # frozen from here on
                for request, message in (
                    ({"view": "scc", "query": "nope"},
                     "view 'scc' has no registered query 'nope' "
                     "(registered: ['components'])"),
                    ({"view": "nope", "query": "components"},
                     "no view named 'nope' is served"),
                ):
                    await client.send({"op": "read", **request})
                    assert await client.recv_line() == json.dumps(
                        {"ok": False, "error": "unknown_query",
                         "message": message}
                    ).encode() + b"\n"

                # ids that need escaping survive the spliced envelope
                for request_id in ('q"1\\\n\u2028é', {"k": [1, None]}, None):
                    await client.send({"op": "read", "id": request_id,
                                       "view": "scc", "query": "components"})
                    assert await client.recv_line() == json.dumps(
                        {"ok": True, "generation": 0,
                         "answer": [[1], [2], [3]], "id": request_id}
                    ).encode() + b"\n"

                closed = (await client.rpc({"op": "open"}))["session"]
                repo._sessions[closed].close()  # behind the frontend's back
                assert await client.read("scc", "components", closed) == {
                    "ok": False, "error": "session_closed",
                    "message": f"session {closed} is closed",
                }
                expired = (await client.rpc({"op": "open"}))["session"]
                now[0] = 10.0
                assert await client.read("scc", "components", expired) == {
                    "ok": False, "error": "session_expired",
                    "message": f"session {expired} outlived its lease of "
                               "10.0s; admit a new session",
                }

                repo.engine.apply([insert(3, 1)])  # out-of-band: poison
                assert await client.read("scc", "components") == {
                    "ok": False, "error": "poisoned",
                    "message": repo.poisoned,
                }

    asyncio.run(failures())

    full = make_repo(max_sessions=1, admission_timeout=0.01)
    uncached = make_repo(cache=False)

    async def limits():
        async with ServingFrontend(full, port=0, retry_after=0.5) as frontend:
            async with Client(frontend.port) as client:
                assert (await client.rpc({"op": "open"}))["ok"]
                refused = await client.rpc({"op": "open"})
                assert refused["error"] == "session_limit"
                assert refused["retry_after"] == 0.5
        async with ServingFrontend(uncached, port=0) as frontend:
            async with Client(frontend.port) as client:
                for _ in range(3):
                    assert await client.read("scc", "components") == {
                        "ok": True, "generation": 0,
                        "answer": [[1], [2], [3]],
                    }

    asyncio.run(limits())
    stats = uncached.cache_stats()
    # nothing is kept without the cache: every read computes and encodes
    assert (stats.misses, stats.encodes) == (3, 3)
    assert (stats.entries, stats.wire_bytes) == (0, 0)


@pytest.mark.parametrize("seed", range(6), ids=lambda seed: f"stream-{seed}")
def test_wire_replies_equal_the_replies_built_without_the_cache(seed):
    """Differential over ``test_serving_cache``'s seeded streams: every
    read reply is, byte for byte, the envelope ``json.dumps`` writes for
    the answer an in-process read at that generation returns."""
    rng = random.Random(0xCAC4E + seed)
    repo = Repository(four_view_engine(random_graph(rng)), max_sessions=64)
    repo.register_query(
        "iso", "matches",
        lambda view: {tuple(sorted(match.edges)) for match in view.matches},
    )
    next_node = [5000 + seed * 100]

    async def scenario():
        async with ServingFrontend(repo, port=0) as frontend:
            async with Client(frontend.port) as client:
                pinned = []  # (wire session id, in-process twin)

                async def check(wire, twin):
                    view, query = rng.choice(SURFACE)
                    await client.send({"op": "read", "session": wire,
                                       "view": view, "query": query})
                    expected = {
                        "ok": True,
                        "generation": twin.generation if twin else repo.generation,
                        "answer": jsonable(
                            (twin.read if twin else repo.read_latest)(view, query)
                        ),
                    }
                    assert await client.recv_line() == (
                        json.dumps(expected).encode() + b"\n"
                    )

                for _ in range(16):
                    if rng.random() < 0.4 or not pinned:
                        opened = await client.rpc({"op": "open"})
                        pinned.append((opened["session"], repo.session()))
                    batch = random_batch(rng, repo.engine.graph, next_node)
                    applied = await client.rpc({"op": "apply", "updates": [
                        ["insert", u.source, u.target,
                         u.source_label, u.target_label]
                        if u.is_insert else ["delete", u.source, u.target]
                        for u in batch
                    ]})
                    assert applied["ok"]
                    await check(*rng.choice(pinned))
                    await check(None, None)
                for wire, twin in pinned:
                    for _ in SURFACE:
                        await check(wire, twin)

    asyncio.run(scenario())
    assert repo.poisoned is None
