"""The load path's bulk readers against the line-at-a-time ones they replaced.

``SnapshotStore.load`` reads a file through
:func:`~repro.persist.format.split_snapshot_sections`, which finds the
directive lines with regex searches over the whole text, and parses
every body with :func:`~repro.persist.format.parse_body`, which maps
whole runs of record lines through one
:class:`~repro.graph.io_tokens.TokenMemo`.  Each is held here to the
line-at-a-time reader it replaced, kept as the oracle:

* **Integer grammar.**  ``_reads_back_as_int`` and ``parse_bare_token``
  decide by a full match of ``int()``'s base-10 grammar; they agree with
  ``int()`` itself (the ``try``/``except`` they replaced) on every
  string, digit strings past ``sys.get_int_max_str_digits()`` included.
* **Bodies.**  ``parse_body`` gives what ``parse_record`` gives line by
  line — quoted and escaped tokens, ``%``-leading strings, signs, ``_``
  digits, digits of other scripts, comments and blank lines, also inside
  a decoded ``%packed`` payload — and stops at the same bad line.
* **Errors.**  A malformed graph or view body raises the same
  :class:`PersistFormatError` — message, source and line — as the
  per-line readers; a malformed file splits or fails like the old
  line-walking split.
* **Order.**  A graph built in bulk iterates its nodes and every
  successor and predecessor set exactly as one built an edge at a time,
  for int and string ids.
"""

import io
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.digraph as digraph_module
from repro.engine.view import ViewSnapshot
from repro.graph.digraph import DiGraph
from repro.graph.io import apply_graph_record
from repro.graph.io_tokens import (
    TokenMemo,
    _reads_back_as_int,
    format_token,
    parse_bare_token,
)
from repro.persist.format import (
    SNAPSHOT_MAGIC,
    PersistFormatError,
    SnapshotSections,
    ViewSection,
    _close_view,
    check_graphdiff_context,
    check_snapshot_version,
    encode_packed_block,
    expand_packed_lines,
    is_directive,
    parse_body,
    parse_codec_meta,
    parse_directive,
    parse_packed_operands,
    parse_record,
    parse_shard_split_meta,
    parse_sharding_meta,
    parse_view_section_operands,
    render_record,
    split_snapshot_sections,
)
from repro.persist.snapshot import (
    _apply_graphdiff_record,
    _replay_graph_section,
    _view_snapshot,
)

# ----------------------------------------------------------------------
# the oracles: the readers before the bulk load path
# ----------------------------------------------------------------------


def reference_reads_back_as_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def reference_parse_bare_token(token: str):
    first = token[:1]
    if first.isdigit() or first in "+-":
        try:
            return int(token)
        except ValueError:
            return token
    return token


def reference_parse_body(lines):
    """``(records, directives, error)`` read one line at a time."""
    records, directives = [], []
    for raw in lines:
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "%":
            directives.append((len(records), line))
            continue
        try:
            records.append(parse_record(line))
        except ValueError as exc:
            return records, directives, (len(records), exc)
    return records, directives, None


def reference_replay_graph(graph, lines, source, anchor):
    apply_record = apply_graph_record
    for raw in lines:
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        try:
            if line[0] != "%":
                apply_record(graph, parse_record(line))
            elif parse_directive(line)[0] == "graphdiff":
                apply_record = _apply_graphdiff_record
            else:
                raise ValueError(f"unexpected directive {line!r}")
        except (ValueError, KeyError) as exc:
            raise PersistFormatError(source, anchor, f"graph section: {exc}") from None


def reference_view_snapshot(kind, lines, source, anchor):
    config = None
    records = []
    for raw in lines:
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        try:
            if line[0] == "%":
                keyword, operands = parse_directive(line)
                if keyword != "config" or config is not None:
                    raise ValueError(f"unexpected directive {line!r}")
                config = tuple(operands)
            elif config is None:
                raise ValueError("a view body must open with %config")
            else:
                records.append(parse_record(line))
        except ValueError as exc:
            raise PersistFormatError(source, anchor, f"view section: {exc}") from None
    if config is None:
        raise PersistFormatError(source, anchor, "view section is missing %config")
    return ViewSnapshot(kind=kind, config=config, records=tuple(records))


def reference_split(lines, source="<snapshot>"):
    """The line-walking split: one loop iteration per line."""
    result = SnapshotSections()
    body = None  # the open section's body
    view = None  # (name, kind, cursor, line) while open
    packed = versioned = sectioned = ended = False
    packed_remaining = line_number = 0
    for line_number, raw in enumerate(lines, start=1):
        if packed_remaining:
            packed_remaining -= 1
            body.append(raw if raw.endswith("\n") else raw + "\n")
            continue
        stripped = raw.strip()
        if not stripped or stripped[0] == "#":
            continue  # reader-skipped lines are not part of any body
        if not raw.endswith("\n"):
            raw = raw + "\n"
        try:
            if ended:
                raise ValueError("content after %end")
            if not is_directive(stripped):
                if body is None:
                    raise ValueError("record outside any section")
                if not body and view is not None:
                    raise ValueError("a view body must open with %config")
                body.append(raw)
                continue
            keyword, operands = parse_directive(stripped)
            if not versioned:
                if keyword != SNAPSHOT_MAGIC:
                    raise ValueError(f"missing %{SNAPSHOT_MAGIC} header")
                result.version = check_snapshot_version(
                    operands, source, line_number
                )
                versioned = True
            elif keyword == "meta":
                key = operands[0] if operands else None
                if key == "last-seq":
                    if (
                        len(operands) != 2
                        or not isinstance(operands[1], int)
                        or operands[1] < 0
                    ):
                        raise ValueError(
                            "%meta last-seq must be one non-negative "
                            f"integer, got {operands[1:]!r}"
                        )
                    result.last_seq = operands[1]
                elif key in ("sharding", "shard-split"):
                    if sectioned:  # the graph is built into the layout
                        raise ValueError(f"%meta {key} must precede every section")
                    if key == "shard-split":
                        result.shard_map = parse_shard_split_meta(
                            operands, result.shard_map, result.version,
                            source, line_number,
                        )
                    elif result.shard_map is not None:
                        raise ValueError("duplicate %meta sharding")
                    else:
                        result.shard_map = parse_sharding_meta(
                            operands, result.version, source, line_number
                        )
                elif key == "codec":
                    parse_codec_meta(
                        operands, result.version, source, line_number
                    )
            elif keyword == "section":
                _close_view(result, view, body, packed, source)
                view, packed, sectioned = None, False, True
                if operands == ["graph"]:
                    if result.graph_line_number:
                        raise ValueError("duplicate graph section")
                    result.graph_line_number = line_number
                    body = result.graph_lines
                elif len(operands) in (3, 4) and operands[0] == "view":
                    name, kind, cursor = parse_view_section_operands(
                        operands, source, line_number
                    )
                    if name in result.views:
                        raise ValueError(f"duplicate view section {name!r}")
                    view = (name, kind, cursor, line_number)
                    body = []
                else:
                    raise ValueError(f"bad section {operands!r}")
            elif keyword == "graphdiff":
                check_graphdiff_context(
                    result.version, body is result.graph_lines, source,
                    line_number,
                )
                result.graphdiff_chunks += 1
                body.append(raw)  # kept as part of the graph replay script
            elif keyword == "packed":
                _, packed_remaining = parse_packed_operands(
                    operands, result.version, source, line_number
                )
                if body is None:
                    raise ValueError("%packed outside any section")
                if body is result.graph_lines:
                    result.graph_packed = True
                else:
                    packed = True
                body.append(raw)
            elif keyword == "config":
                if view is None:
                    raise ValueError("%config outside a view section")
                if body:
                    raise ValueError("%config after the first body line")
                body.append(raw)
            elif keyword == "end":
                _close_view(result, view, body, packed, source)
                body, view, ended = None, None, True
            else:
                raise ValueError(f"unexpected directive %{keyword}")
        except PersistFormatError:
            raise
        except ValueError as exc:  # structural rules and directive quoting
            raise PersistFormatError(source, line_number, str(exc)) from None
    if packed_remaining:
        raise PersistFormatError(
            source, line_number, "truncated %packed block (payload cut short)"
        )
    if not versioned:
        raise PersistFormatError(source, 0, f"missing %{SNAPSHOT_MAGIC} header")
    if not ended:
        raise PersistFormatError(
            source,
            line_number,
            "truncated snapshot (no %end); the file was not written by an "
            "atomic save",
        )
    return result


def file_lines_of(text: str) -> list:
    """``text``'s lines as iterating a file gives them: cut at ``"\\n"``
    alone."""
    return io.StringIO(text, newline="\n").readlines()


def outcome(call):
    """What ``call()`` returns, or the error it raises as comparable
    fields."""
    try:
        return ("ok", call())
    except PersistFormatError as exc:
        return ("error", str(exc), exc.source, exc.line_number)


def graph_state(graph: DiGraph):
    """Everything iteration order can see."""
    return (
        list(graph.nodes()),
        list(graph.labels.items()),
        [(node, list(graph.successors(node))) for node in graph.nodes()],
        [(node, list(graph.predecessors(node))) for node in graph.nodes()],
        graph.num_edges,
        graph.oob_version,
    )


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

#: Characters that test every rule at once: quoting triggers, escapes,
#: comment and directive markers, signs, separators, digits of other
#: scripts (Arabic-Indic three, full-width one) and a non-decimal digit.
ALPHABET = 'ab%#"\\ \t\r\x0c\x85 _+-019٣１².'

values = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.text(alphabet=ALPHABET, max_size=6),
)

#: A line of a body: a rendered record, raw text that may not tokenize,
#: a directive, a comment or a blank.
body_lines = st.one_of(
    st.lists(values, min_size=1, max_size=4).map(render_record),
    st.lists(values, min_size=1, max_size=4).map(
        lambda row: "  " + render_record(row).rstrip("\n") + " \t\n"
    ),
    st.text(alphabet=ALPHABET, max_size=10).map(lambda text: text + "\n"),
    st.sampled_from(["%graphdiff\n", "%config 2\n", "%bogus x\n", '%config "a\n']),
    st.text(alphabet=ALPHABET, max_size=6).map(lambda text: "#" + text + "\n"),
    st.sampled_from(["\n", "   \n", "\t\x0c\n"]),
)


def packed(lines):
    """``lines`` as a ``%packed`` block, decoded back the way load does."""
    return expand_packed_lines(encode_packed_block(lines, "zlib"))


# ----------------------------------------------------------------------
# the integer grammar
# ----------------------------------------------------------------------

#: Whitespace ``int()`` strips and whitespace it does not (the ASCII
#: separators), and decimal digits of several scripts.
SPACES = st.text(alphabet=" \t\n\x0b\x0c\r\x1c\x1f\x85\xa0\u2028\u3000", max_size=2)
DIGITS = st.text(alphabet="0123456789٣१๙１", min_size=1, max_size=4)
int_like = st.one_of(
    st.text(alphabet=" \t\x1c+-_019٣１²a.\x00", max_size=12),
    st.tuples(
        SPACES,
        st.sampled_from(["", "+", "-"]),
        st.lists(DIGITS, min_size=1, max_size=3),
        SPACES,
    ).map(lambda parts: parts[0] + parts[1] + "_".join(parts[2]) + parts[3]),
    st.text(max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(int_like)
def test_the_int_grammar_agrees_with_int(token):
    assert _reads_back_as_int(token) == reference_reads_back_as_int(token)
    parsed = parse_bare_token(token)
    expected = reference_parse_bare_token(token)
    assert parsed == expected and type(parsed) is type(expected)


@pytest.mark.parametrize("digits", [639, 640, 641, 4300, 4301, 5000])
@pytest.mark.parametrize("shape", ["plain", "zeros", "underscored", "signed"])
def test_the_int_grammar_keeps_the_digit_limit(digits, shape):
    token = {
        "plain": "7" * digits,
        "zeros": "0" * digits,
        "underscored": "_".join("3" * digits),
        "signed": " -" + "1" * digits + " ",
    }[shape]
    assert _reads_back_as_int(token) == reference_reads_back_as_int(token)
    assert parse_bare_token(token) == reference_parse_bare_token(token)


def test_rank_strings_render_bare_without_an_exception():
    """scc ranks such as ``5760.0`` start with a digit but are no ints."""
    assert [format_token(f"{rank}.0") for rank in (0, 5760)] == ["0.0", "5760.0"]
    assert parse_bare_token("5760.0") == "5760.0"


# ----------------------------------------------------------------------
# bodies
# ----------------------------------------------------------------------


def assert_parses_like_the_reference(lines):
    records, directives, error = parse_body(lines, TokenMemo())
    want_records, want_directives, want_error = reference_parse_body(lines)
    assert records == want_records
    assert [tuple(map(type, row)) for row in records] == [
        tuple(map(type, row)) for row in want_records
    ]
    assert directives == want_directives
    if want_error is None:
        assert error is None
    else:
        assert error is not None
        assert error[0] == want_error[0]
        assert str(error[1]) == str(want_error[1])


@settings(max_examples=250, deadline=None)
@given(st.lists(body_lines, max_size=12))
def test_parse_body_equals_parse_record_line_by_line(lines):
    assert_parses_like_the_reference(lines)


@settings(max_examples=200, deadline=None)
@given(st.lists(body_lines, max_size=12))
def test_parse_body_equals_parse_record_inside_a_packed_payload(lines):
    assert_parses_like_the_reference(packed(lines))


def test_one_memo_parses_each_distinct_token_once():
    tokens = TokenMemo()
    rows = parse_body(["e 1 2\n", "e 2 1\n", 'n 1 "x y"\n', 'n 2 "x y"\n'], tokens)
    assert rows.records == [("e", 1, 2), ("e", 2, 1), ("n", 1, "x y"), ("n", 2, "x y")]
    assert set(tokens) == {"e", "n", "1", "2", '"x y"'}
    assert rows.records[0][1] is rows.records[1][2]  # one value per text


@settings(max_examples=200, deadline=None)
@given(st.lists(body_lines, max_size=10), st.booleans())
def test_a_graph_body_replays_like_the_per_line_reader(lines, as_packed):
    body = encode_packed_block(lines, "zlib") if as_packed else lines
    sections = SnapshotSections(
        graph_lines=body, graph_line_number=4, graph_packed=as_packed
    )
    bulk, reference = DiGraph(), DiGraph()
    got = outcome(lambda: _replay_graph_section(bulk, sections, "<f>", TokenMemo()))
    want = outcome(
        lambda: reference_replay_graph(
            reference, expand_packed_lines(body) if as_packed else body, "<f>", 4
        )
    )
    assert got == want
    if got[0] == "ok":
        assert graph_state(bulk) == graph_state(reference)


@settings(max_examples=200, deadline=None)
@given(st.lists(body_lines, max_size=10), st.booleans(), st.booleans())
def test_a_view_body_restores_like_the_per_line_reader(lines, configured, as_packed):
    if configured:
        lines = ["%config 3 a\n"] + lines
    body = encode_packed_block(lines, "zlib") if as_packed else lines
    section = ViewSection("kws", 0, body, 7, as_packed)
    got = outcome(lambda: _view_snapshot(section, "<f>", TokenMemo()))
    want = outcome(
        lambda: reference_view_snapshot(
            "kws", expand_packed_lines(body) if as_packed else body, "<f>", 7
        )
    )
    assert got == want


node_ids = st.one_of(st.integers(0, 6), st.sampled_from(["x", "y z", "%p", "5", ""]))
graph_records = st.one_of(
    st.tuples(st.just("n"), node_ids, st.sampled_from(["a", "b c", ""])),
    st.tuples(st.just("e"), node_ids, node_ids),
)
diff_records = st.one_of(
    st.tuples(st.just("+"), node_ids, node_ids, st.just("a"), st.just("b")),
    st.tuples(st.just("-"), node_ids, node_ids),
    st.tuples(st.just("n"), node_ids, st.just("c")),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(graph_records, max_size=24),
    st.booleans(),
    st.lists(diff_records, max_size=4),
    st.booleans(),
)
def test_a_saved_shape_graph_body_replays_like_the_per_line_reader(
    records, nodes_first, diff, as_packed
):
    """Bodies of ``n``/``e`` records — in a save's order (every ``n``
    first) or not, duplicates, quoted ids and labels — plus a
    ``%graphdiff`` chunk: the shapes the bulk edge path takes."""
    if nodes_first:
        records = sorted(records, key=lambda record: record[0] != "n")
    lines = [render_record(record) for record in records]
    if diff:
        lines += ["%graphdiff 1\n"] + [render_record(record) for record in diff]
    body = encode_packed_block(lines, "zlib") if as_packed else lines
    sections = SnapshotSections(
        graph_lines=body, graph_line_number=4, graph_packed=as_packed
    )
    bulk, reference = DiGraph(), DiGraph()
    got = outcome(lambda: _replay_graph_section(bulk, sections, "<f>", TokenMemo()))
    want = outcome(lambda: reference_replay_graph(reference, lines, "<f>", 4))
    assert got == want
    if got[0] == "ok":
        assert graph_state(bulk) == graph_state(reference)


#: Well-formed graph records in the order a save writes them, then the
#: malformations a body can carry, each checked against the reference.
GRAPH_BODIES = {
    "duplicate-edge": ["n 1 a\n", "n 2 b\n", "e 1 2\n", "e 2 1\n", "e 1 2\n"],
    "short-edge": ["n 1 a\n", "e 1 2\n", "e 1\n", "e 2 1\n"],
    "long-node": ["n 1 a b\n", "e 1 2\n"],
    "unknown-tag": ["n 1 a\n", "x 1 2\n"],
    "bad-quote-after-a-duplicate": ["e 1 2\n", "e 1 2\n", 'e 1 "2\n'],
    "duplicate-after-a-bad-quote": ['e 1 "2\n', "e 1 2\n", "e 1 2\n"],
    "edge-before-its-node": ["e 1 2\n", "n 1 a\n", "n 2 b\n", "e 2 1\n"],
    "diff-removes-a-missing-edge": ["e 1 2\n", "%graphdiff 1\n", "- 2 1\n"],
    "stray-directive": ["e 1 2\n", "%config 1\n"],
    "bad-directive-quoting": ["e 1 2\n", '%graphdiff "\n'],
}


@pytest.mark.parametrize("lines", GRAPH_BODIES.values(), ids=GRAPH_BODIES.keys())
def test_each_malformed_graph_body_fails_like_the_per_line_reader(lines):
    sections = SnapshotSections(graph_lines=lines, graph_line_number=3)
    bulk, reference = DiGraph(), DiGraph()
    got = outcome(lambda: _replay_graph_section(bulk, sections, "<f>", TokenMemo()))
    want = outcome(lambda: reference_replay_graph(reference, lines, "<f>", 3))
    assert got == want
    if got[0] == "ok":
        assert graph_state(bulk) == graph_state(reference)


# ----------------------------------------------------------------------
# the split
# ----------------------------------------------------------------------

#: Lines a snapshot file is made of, right and wrong.
file_lines = st.one_of(
    st.sampled_from(
        [
            "%repro-snapshot 5\n",
            "%repro-snapshot 1\n",
            "%meta last-seq 4\n",
            "%meta last-seq x\n",
            "%meta sharding range 2 10\n",
            "%meta sharding hash 2\n",
            "%meta shard-split 0 2\n",
            "%meta codec zlib\n",
            "%section graph\n",
            "%section view v kws 3\n",
            "%section view w scc\n",
            "%section view v\n",
            "%config 2 a\n",
            "%graphdiff 1\n",
            "%packed zlib 1\n",
            "%packed zlib 2\n",
            "eJwDAAAAAAE=\n",
            "%end\n",
            "  %end  \n",
            "%\n",
            "n 1 a\n",
            "e 1 2\n",
            "\n",
            " \t\n",
            "# note\n",
            "  # %section graph\n",
        ]
    ),
    body_lines,
)

#: A valid file to mutate: every construct a save writes.
VALID = [
    "%repro-snapshot 5\n",
    "%meta last-seq 4\n",
    "%meta sharding range 2 10\n",
    "%meta codec zlib\n",
    "%section graph\n",
    "n 1 a\n",
    "e 1 2\n",
    "%graphdiff 1\n",
    "+ 2 1 b a\n",
    "%section view v kws 3\n",
    "%config 2 a\n",
    "a 1 0\n",
    "%section view w scc 4\n",
    *encode_packed_block(["%config 2\n", "1 0.0 1\n"], "zlib"),
    "%end\n",
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, len(VALID)), file_lines), max_size=4),
    st.booleans(),
)
def test_the_split_agrees_with_the_line_walking_reader(edits, unterminated):
    lines = list(VALID)
    for index, line in edits:
        lines.insert(index, line)
    text = "".join(lines)
    if unterminated:
        text = text[:-1]
    assert outcome(lambda: split_snapshot_sections(text, "<f>")) == outcome(
        lambda: reference_split(file_lines_of(text), "<f>")
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(file_lines, max_size=14))
def test_the_split_agrees_on_arbitrary_line_soup(lines):
    text = "".join(lines)
    assert outcome(lambda: split_snapshot_sections(text, "<f>")) == outcome(
        lambda: reference_split(file_lines_of(text), "<f>")
    )


# ----------------------------------------------------------------------
# bulk ingest order
# ----------------------------------------------------------------------


def edge_list(ids, count, seed):
    rng = random.Random(seed)
    edges = []
    seen = set()
    while len(edges) < count:
        edge = (rng.choice(ids), rng.choice(ids))
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    return edges


@pytest.mark.parametrize(
    "ids",
    [
        list(range(0, 3000, 7)),
        [
            "".join(random.Random(n).choices(string.ascii_letters, k=5))
            for n in range(400)
        ],
    ],
    ids=["int", "str"],
)
@pytest.mark.parametrize("labelled", [True, False])
def test_a_bulk_built_graph_iterates_like_one_built_edge_by_edge(ids, labelled):
    edges = edge_list(ids, 4 * len(ids), seed=len(ids))
    labels = {node: f"l{index % 3}" for index, node in enumerate(ids[::2])}
    bulk = DiGraph(edges=edges, labels=labels if labelled else None)
    one_by_one = DiGraph(labels=labels if labelled else None)
    for source, target in edges:
        one_by_one.add_edge(source, target)
    assert graph_state(bulk) == graph_state(one_by_one)
    present = set(edges)
    more = [
        edge for edge in edge_list(ids, 5 * len(ids), seed=1) if edge not in present
    ]
    bulk.add_edges(more)
    for source, target in more:
        one_by_one.add_edge(source, target)
    assert graph_state(bulk) == graph_state(one_by_one)


def test_bulk_ingest_raises_where_add_edge_raises():
    graph = DiGraph(edges=[(1, 2)])
    with pytest.raises(Exception) as bulk_error:
        graph.add_edges([(3, 4), (2, 1), (1, 2), (5, 6)])
    reference = DiGraph(edges=[(1, 2)])
    with pytest.raises(Exception) as reference_error:
        for source, target in [(3, 4), (2, 1), (1, 2), (5, 6)]:
            reference.add_edge(source, target)
    assert str(bulk_error.value) == str(reference_error.value)
    assert graph_state(graph) == graph_state(reference)
    with pytest.raises(TypeError):
        DiGraph(edges=[(1, 2), ([3], 4)])


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_chunked_ingest_iterates_and_fails_like_edge_by_edge(chunk, monkeypatch):
    monkeypatch.setattr(digraph_module, "EDGE_CHUNK", chunk)
    ids = ["".join(random.Random(n).choices("xyz", k=3)) for n in range(60)]
    edges = edge_list(ids, 200, seed=chunk)
    bulk = DiGraph(labels={node: "a" for node in ids[:20]})
    one_by_one = DiGraph(labels={node: "a" for node in ids[:20]})
    bulk.add_edges(iter(edges))
    for source, target in edges:
        one_by_one.add_edge(source, target)
    assert graph_state(bulk) == graph_state(one_by_one)
    # a duplicate past the first chunk: every edge before it is in
    tail = [("new", "node"), edges[0], ("after", "it")]
    with pytest.raises(Exception) as bulk_error:
        bulk.add_edges([(f"n{i}", f"m{i}") for i in range(70)] + tail)
    with pytest.raises(Exception) as reference_error:
        for source, target in [(f"n{i}", f"m{i}") for i in range(70)] + tail:
            one_by_one.add_edge(source, target)
    assert str(bulk_error.value) == str(reference_error.value)
    assert graph_state(bulk) == graph_state(one_by_one)


@pytest.mark.parametrize("codec", [None, "zlib"])
def test_labels_holding_other_line_breaks_load_from_every_codec(codec, tmp_path):
    """A quoted token may hold a form feed or a line separator raw (only
    ``\\n``, ``\\r`` and ``\\t`` are escaped); a decoded ``%packed`` payload
    is cut into lines at ``\\n`` alone, as a plaintext file is."""
    from repro import Engine, SnapshotStore
    from repro.scc import SCCIndex

    graph = DiGraph(labels={1: "a\x0cb", 2: "c d", 3: "e\x85f"}, edges=[(1, 2)])
    engine = Engine(graph)
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    SnapshotStore(tmp_path, codec=codec).save(engine)
    revived = SnapshotStore(tmp_path).load(attach_journal=False)
    assert graph_state(revived.graph) == graph_state(graph)
