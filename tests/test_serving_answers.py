"""Freezing and encoding served answers: the bulk paths against the
recursive reference, their call counts, and racing encoders.

``freeze_answer`` and ``jsonable`` copy a container of scalars (or of
scalar rows) whole with C builtins and recurse only into other shapes.
The per-element recursion they replaced is kept here as the oracle:
every frozen value must equal the oracle's, and every encoded answer
must be byte-identical to it, for raw and for frozen inputs alike.
"""

import enum
import json
import threading
from collections import namedtuple
from collections.abc import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiGraph, Engine, Repository
from repro.kws import KWSIndex, KWSQuery
from repro.serving import frontend as frontend_module
from repro.serving import repository as repository_module
from repro.serving.frontend import _encode_answer, jsonable
from repro.serving.repository import freeze_answer


# ----------------------------------------------------------------------
# The oracle: one recursive call per element
# ----------------------------------------------------------------------


def oracle_freeze(value):
    if isinstance(value, (set, frozenset)):
        return frozenset(oracle_freeze(item) for item in value)
    if isinstance(value, (list, tuple)):
        return tuple(oracle_freeze(item) for item in value)
    if isinstance(value, Mapping):
        return tuple(
            sorted(
                ((key, oracle_freeze(item)) for key, item in value.items()),
                key=repr,
            )
        )
    return value


def oracle_jsonable(value):
    if isinstance(value, (set, frozenset)):
        items = [oracle_jsonable(item) for item in value]
        try:
            return sorted(items)
        except TypeError:
            return sorted(items, key=repr)
    if isinstance(value, (list, tuple)):
        return [oracle_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): oracle_jsonable(item) for key, item in value.items()}
    return value


# ----------------------------------------------------------------------
# Nested answers
# ----------------------------------------------------------------------


class Colour(enum.IntEnum):
    RED = 1
    GREEN = 2


class Tag(str):
    pass


Pair = namedtuple("Pair", "left right")

ATOMS = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-50, 50),
    st.floats(allow_nan=False),
    st.sampled_from(Colour),
    st.text(max_size=3),
    st.text(max_size=3).map(Tag),
)


def hashable(children):
    return st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=4).map(tuple),
        st.builds(Pair, children, children),
        st.frozensets(children, max_size=4),
    )


#: Values a set may hold: scalars, tuples, namedtuples, frozensets.
HASHABLE = st.recursive(ATOMS, hashable, max_leaves=12)

#: Any answer shape: the hashable ones plus lists, sets and int-keyed
#: dicts at any depth.
ANSWERS = st.recursive(
    HASHABLE,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.sets(HASHABLE, max_size=5),
        st.frozensets(HASHABLE, max_size=5),
        st.dictionaries(st.integers(-5, 5), children, max_size=4),
    ),
    max_leaves=20,
)


def mutate(value):
    """Change every mutable container reachable from ``value``."""
    if isinstance(value, list):
        for item in value:
            mutate(item)
        value.append("mutated")
    elif isinstance(value, set):
        value.add("mutated")
    elif isinstance(value, dict):
        for item in value.values():
            mutate(item)
        value[99] = "mutated"
    elif isinstance(value, tuple):
        for item in value:
            mutate(item)


def dumps(value):
    return json.dumps(value).encode()


@settings(max_examples=400, deadline=None)
@given(ANSWERS)
def test_bulk_paths_match_the_recursive_oracle(value):
    expected = oracle_freeze(value)
    frozen = freeze_answer(value)
    assert frozen == expected
    hash(frozen)
    for shape in (value, frozen):
        assert dumps(jsonable(shape)) == dumps(oracle_jsonable(shape))
    mutate(value)
    assert frozen == expected
    assert dumps(jsonable(frozen)) == dumps(oracle_jsonable(expected))


def test_mixed_unorderable_sets_encode_like_the_oracle():
    for value in (
        {1, "a", None, 2.5},
        {(1, "a"), ("a", 1), (None,)},
        {frozenset({1}), "x", (2, 3)},
    ):
        assert dumps(jsonable(value)) == dumps(oracle_jsonable(value))
        assert freeze_answer(value) == oracle_freeze(value)


# ----------------------------------------------------------------------
# The fast path, pinned as a call count
# ----------------------------------------------------------------------


def count_calls(monkeypatch, module, name):
    calls = [0]
    original = getattr(module, name)

    def counted(value):
        calls[0] += 1
        return original(value)

    monkeypatch.setattr(module, name, counted)
    return calls, counted


def calls_to_freeze_and_encode(monkeypatch, answer):
    freezes, freeze = count_calls(monkeypatch, repository_module, "freeze_answer")
    encodes, _ = count_calls(monkeypatch, frontend_module, "jsonable")
    frozen = freeze(answer)
    _encode_answer(frozen)
    return freezes[0], encodes[0]


def test_a_set_of_scalars_freezes_and_encodes_in_one_call(monkeypatch):
    answer = set(range(10_000))
    assert calls_to_freeze_and_encode(monkeypatch, answer) == (1, 1)


def test_a_set_of_pairs_freezes_and_encodes_in_one_call(monkeypatch):
    answer = {(node, node + 1) for node in range(10_000)}
    assert calls_to_freeze_and_encode(monkeypatch, answer) == (1, 1)


def test_a_set_of_components_takes_one_call_per_component(monkeypatch):
    components = 50
    answer = {
        frozenset(range(start, start + 3))
        for start in range(0, 3 * components, 3)
    }
    freezes, encodes = calls_to_freeze_and_encode(monkeypatch, answer)
    assert freezes <= components + 1
    assert encodes <= components + 1


# ----------------------------------------------------------------------
# Racing encoders of one cache entry
# ----------------------------------------------------------------------


def test_racing_encoders_store_one_payload():
    engine = Engine(DiGraph(labels={1: "a", 2: "b"}, edges=[(1, 2)]))
    engine.register(
        "kws", lambda g, m: KWSIndex(g, KWSQuery(("a", "b"), 2), meter=m)
    )
    repo = Repository(engine)
    repo.read_latest("kws", "roots")  # the entry exists, unencoded
    both_encoding = threading.Barrier(2, timeout=10)

    def encode(answer):
        both_encoding.wait()  # neither stores before both have encoded
        return _encode_answer(answer)

    replies = []

    def reader():
        replies.append(repo.read_latest("kws", "roots", encode=encode))

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert len(replies) == 2
    (_, first), (_, second) = replies
    assert first is second
    assert repo.cache_stats().encodes == 1
    assert repo.read_latest("kws", "roots", encode=encode)[1] is first
