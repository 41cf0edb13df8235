"""The save path's bulk renderer against the row-at-a-time one it replaced.

An incremental save writes each fresh section body through
:func:`~repro.persist.format.render_records`, which renders a chunk of
rows with one ``%`` format when every token is an exact ``int`` or
``str``.  Each shortcut is held here to the reader-facing oracle, so the
snapshot bytes cannot drift:

* **Bytes.**  The chunks joined equal ``"".join(map(render_record,
  rows))`` for rows of ints and strs, quoting included: empty and
  ``%``-leading strings, quotes, backslashes, ``#``, every whitespace
  character, strings with the shape of an integer (signs, ``_``, leading
  zeros, digits of other scripts, a digit run past ``int()``'s limit).
* **Refusals.**  A chunk holding a ``bool``, a ``float`` or a subclass
  of ``int`` or ``str`` renders, or raises, exactly as
  :func:`render_record` does — ``True`` never comes out as ``1``.
* **Canonical order.**  The kws, scc and rpq ``snapshot()`` records,
  sorted by ``repr`` when the ids share one type, equal the records
  sorted by :func:`~repro.kws.kdist.node_order`, for int, str and mixed
  node ids.
* **Calls.**  An incremental save of a view with thousands of rows makes
  a handful of :func:`format_token` calls, not one per token.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.persist.format as format_module
from repro import Delta, DiGraph, Engine, SnapshotStore, insert
from repro.graph.io_tokens import SerializationError
from repro.kws import KWSIndex, KWSQuery
from repro.kws.kdist import node_order, sorted_nodes
from repro.persist.format import RENDER_CHUNK_ROWS, render_record, render_records
from repro.rpq import RPQIndex
from repro.scc import SCCIndex

#: Every character ``\s`` matches — the class the quoting rules test.
WHITESPACE = [chr(code) for code in range(0x3001) if re.fullmatch(r"\s", chr(code))]

#: Tokens at the edge of the bare/quoted decision.
EDGE_TOKENS = [
    "",
    "%",
    "%section",
    "a%",
    '"',
    'a"b',
    "\\",
    "a\\n",
    "#",
    "a#b",
    "007",
    "+5",
    "-5",
    "+",
    "-",
    "1_000",
    "_1",
    "1_",
    "1__0",
    "5a",
    "0.5",
    "1e-05",
    "٣",  # ARABIC-INDIC DIGIT THREE
    "१२",  # DEVANAGARI ONE TWO
    "１",  # FULLWIDTH DIGIT ONE
    "1" * 641,
    "1" * 5000,  # past int()'s default digit limit: written bare
    "T001",
    "n",
    "e",
] + WHITESPACE + [f"a{space}b" for space in WHITESPACE]

token = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.sampled_from(EDGE_TOKENS),
    st.text(max_size=6),
)
rows = st.lists(st.lists(token, max_size=6).map(tuple), max_size=40)


def rendered(rows_) -> str:
    return "".join(render_records(rows_))


def reference(rows_) -> str:
    return "".join(map(render_record, rows_))


def test_whitespace_class_covers_the_ascii_separators():
    for char in ("\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "　"):
        assert char in WHITESPACE


@settings(max_examples=400, deadline=None)
@given(rows)
def test_bulk_render_equals_render_record(rows_):
    assert rendered(rows_) == reference(rows_)


@pytest.mark.parametrize("value", EDGE_TOKENS, ids=repr)
def test_each_edge_token_renders_as_format_token_writes_it(value):
    row = ("n", 1, value)
    assert rendered([row, ("e", 1, 2)]) == reference([row, ("e", 1, 2)])


def test_chunks_are_bounded_and_join_to_the_reference():
    rng = random.Random(3)
    rows_ = [
        ("k", rng.randrange(10_000), rng.choice(EDGE_TOKENS[:20]))
        if index % 7 == 0
        else ("k", rng.randrange(10_000), index)
        for index in range(3 * RENDER_CHUNK_ROWS + 5)
    ]
    chunks = list(render_records(iter(rows_)))
    assert len(chunks) == 4
    assert all(chunk.count("\n") <= RENDER_CHUNK_ROWS for chunk in chunks)
    assert "".join(chunks) == reference(rows_)
    assert list(render_records([])) == []


class LoudStr(str):
    def __str__(self):
        return "LOUD"


class LoudInt(int):
    def __str__(self):
        return "LOUD"


@pytest.mark.parametrize(
    "value",
    [True, False, 1.0, 0.5, float("nan"), (1, 2), None],
    ids=repr,
)
def test_refused_values_raise_what_render_record_raises(value):
    # beside the int or str each is equal to, which a set of values
    # would keep in its place
    row = (1, 0, "x", value)
    with pytest.raises(SerializationError) as expected:
        render_record(row)
    with pytest.raises(SerializationError) as actual:
        rendered([("n", 1, "a"), row])
    assert str(actual.value) == str(expected.value)


@pytest.mark.parametrize(
    "value",
    [LoudStr("a"), LoudStr("7"), LoudInt(3)],
    ids=lambda value: type(value).__name__,
)
def test_subclasses_render_as_render_record_renders_them(value):
    rows_ = [("n", 3, "a"), ("n", value, "a")]
    assert rendered(rows_) == reference(rows_)


# ----------------------------------------------------------------------
# canonical order without node_order
# ----------------------------------------------------------------------


def mixed_graph(kind: str, seed: int) -> DiGraph:
    """A labeled graph with cycles over int, str or mixed node ids —
    ids whose ``repr`` order differs from their value order."""
    rng = random.Random(seed)
    pool = {
        "int": list(range(60)),
        "str": [f"n{index}" for index in range(60)],
        "mixed": list(range(30)) + [str(index) for index in range(30)],
    }[kind]
    graph = DiGraph(labels={node: rng.choice("abc") for node in pool})
    while graph.num_edges < 150:
        source, target = rng.sample(pool, 2)
        if not graph.has_edge(source, target):
            graph.add_edge(source, target)
    return graph


def kws_reference(index: KWSIndex) -> tuple:
    records = []
    for keyword in index.query.keywords:
        entries = index.kdist.entries(keyword)
        for node in sorted(entries, key=node_order):
            entry = entries[node]
            if entry.next is None:
                records.append((keyword, node, entry.dist))
            else:
                records.append((keyword, node, entry.dist, entry.next))
    return tuple(records)


def scc_reference(index: SCCIndex) -> tuple:
    return tuple(
        (
            comp_id,
            repr(index.cond.rank[comp_id]),
            *sorted(index.cond.members[comp_id], key=node_order),
        )
        for comp_id in sorted(index.cond.members)
    )


def rpq_reference(index: RPQIndex) -> tuple:
    records = []
    for source in sorted(index.markings.sources(), key=node_order):
        marks = index.markings.get(source)
        for node in sorted(marks.by_node, key=node_order):
            states = marks.by_node[node]
            for state in sorted(states):
                records.append((source, node, state, int(states[state].dist)))
    return tuple(records)


@pytest.mark.parametrize("kind", ["int", "str", "mixed"])
@pytest.mark.parametrize("seed", [0, 1])
def test_snapshot_records_follow_node_order(kind, seed):
    graph = mixed_graph(kind, seed)
    kws = KWSIndex(graph, KWSQuery(("a", "b"), 2))
    scc = SCCIndex(graph)
    rpq = RPQIndex(graph, "a . (b + c)* . c")
    assert kws.snapshot().records == kws_reference(kws)
    assert scc.snapshot().records == scc_reference(scc)
    assert rpq.snapshot().records == rpq_reference(rpq)
    assert any(len(row) > 3 for row in scc.snapshot().records)  # sorted members
    assert len(rpq.snapshot().records) > 0


@pytest.mark.parametrize(
    "nodes",
    [[10, 9, 100, -1], ["b", "a", "10", "9"], [10, "10", 9, "9", "a"], [], [7]],
    ids=repr,
)
def test_sorted_nodes_is_sorted_by_node_order(nodes):
    assert sorted_nodes(nodes) == sorted(nodes, key=node_order)
    assert sorted_nodes(set(nodes)) == sorted(set(nodes), key=node_order)


# ----------------------------------------------------------------------
# calls per save
# ----------------------------------------------------------------------


def test_incremental_save_formats_no_token_per_row(tmp_path, monkeypatch):
    rng = random.Random(5)
    graph = DiGraph(labels={node: rng.choice("ab") for node in range(3_000)})
    while graph.num_edges < 9_000:
        source, target = rng.sample(range(3_000), 2)
        if not graph.has_edge(source, target):
            graph.add_edge(source, target)
    engine = Engine(graph)
    engine.register("kws", lambda g, m: KWSIndex(g, KWSQuery(("a", "b"), 2), meter=m))
    store = SnapshotStore(tmp_path)
    store.attach(engine)
    store.save(engine)
    engine.apply(Delta([insert(3_000, 2, "a", "b"), insert(3_001, 3_000)]))
    assert engine.dirty_views() == frozenset({"kws"})
    rows = len(engine.view("kws").snapshot().records)
    assert rows > 3 * RENDER_CHUNK_ROWS
    calls = []
    format_token = format_module.format_token

    def counted(value):
        calls.append(value)
        return format_token(value)

    monkeypatch.setattr(format_module, "format_token", counted)
    store.save(engine, incremental=True)
    assert store.last_save_report.sections_rendered == 1
    # the directives' operands, and the graphdiff's empty insert labels
    assert len(calls) < 50, len(calls)
    revived = SnapshotStore(tmp_path).load(attach_journal=False)
    assert revived["kws"].snapshot() == engine.view("kws").snapshot()
