"""Property-based round-trip tests for the plain-text graph/delta format,
plus regressions for the serialization bugs the quoting scheme fixes:
one-sided insert labels, whitespace truncation, and int/str label
confusion."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delta import Delta, InvalidDeltaError, delete, insert
from repro.graph import DiGraph
from repro.graph.io import (
    FormatError,
    SerializationError,
    read_delta,
    read_graph,
    write_delta,
    write_graph,
)

# Labels exercise every quoting hazard: whitespace (incl. leading/trailing
# and newlines), the empty string, comment/quote/escape characters,
# int-lookalike strings, and genuine ints.
labels = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.text(max_size=8),
    st.sampled_from(["new york", " padded ", "", "5", "-12", '"', "\\", "#x", "a\nb", "\t"]),
)
nodes = st.one_of(
    st.integers(min_value=-100, max_value=100),
    st.text(min_size=1, max_size=6),
    st.sampled_from(["new york", "007", "two words", '"q"']),
)


@st.composite
def labeled_graphs(draw) -> DiGraph:
    node_list = draw(st.lists(nodes, unique=True, min_size=0, max_size=8))
    graph = DiGraph()
    for node in node_list:
        graph.add_node(node, label=draw(labels))
    pairs = [(s, t) for s in node_list for t in node_list]
    for source, target in draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=12)
        if pairs
        else st.just([])
    ):
        graph.add_edge(source, target)
    return graph


@st.composite
def deltas(draw) -> Delta:
    updates = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        source, target = draw(nodes), draw(nodes)
        if draw(st.booleans()):
            updates.append(
                insert(source, target, source_label=draw(labels), target_label=draw(labels))
            )
        else:
            updates.append(delete(source, target))
    return Delta(updates)


def roundtrip_graph(graph: DiGraph) -> DiGraph:
    buffer = io.StringIO()
    write_graph(graph, buffer)
    buffer.seek(0)
    return read_graph(buffer)


def roundtrip_delta(delta: Delta) -> Delta:
    buffer = io.StringIO()
    write_delta(delta, buffer)
    buffer.seek(0)
    return read_delta(buffer)


@settings(max_examples=150, deadline=None)
@given(labeled_graphs())
def test_graph_roundtrip_lossless(graph):
    loaded = roundtrip_graph(graph)
    assert loaded == graph
    for node in graph.nodes():
        assert type(loaded.label(node)) is type(graph.label(node))


@settings(max_examples=150, deadline=None)
@given(deltas())
def test_delta_roundtrip_lossless(delta):
    loaded = roundtrip_delta(delta)
    assert len(loaded) == len(delta)
    for original, read_back in zip(delta, loaded):
        assert read_back == original


class TestQuotingRegressions:
    def test_one_sided_insert_label(self):
        # Previously emitted a 4-field "+" record that read_delta rejected.
        delta = Delta([insert(1, 2, source_label="x")])
        loaded = roundtrip_delta(delta)
        assert loaded[0].source_label == "x"
        assert loaded[0].target_label == ""

    def test_whitespace_label_does_not_truncate(self):
        graph = DiGraph(labels={1: "new york"})
        assert roundtrip_graph(graph).label(1) == "new york"

    def test_int_label_stays_int(self):
        graph = DiGraph(labels={1: 42})
        assert roundtrip_graph(graph).label(1) == 42

    def test_int_lookalike_string_stays_string(self):
        graph = DiGraph(labels={1: "42"})
        loaded = roundtrip_graph(graph)
        assert loaded.label(1) == "42" and type(loaded.label(1)) is str

    def test_empty_label_roundtrips(self):
        graph = DiGraph(labels={1: ""})
        assert roundtrip_graph(graph).label(1) == ""

    def test_node_with_spaces(self):
        graph = DiGraph(labels={"new york": "city"}, edges=[("new york", "new york")])
        loaded = roundtrip_graph(graph)
        assert loaded.has_edge("new york", "new york")

    def test_unserializable_label_fails_loudly(self):
        for bad in (("tuple",), 1.5, True, frozenset()):
            with pytest.raises(SerializationError):
                write_graph(DiGraph(labels={1: bad}), io.StringIO())

    def test_unserializable_node_fails_loudly(self):
        with pytest.raises(SerializationError):
            write_graph(DiGraph(labels={(1, 2): "a"}), io.StringIO())

    def test_unterminated_quote_is_a_format_error(self):
        with pytest.raises(FormatError, match="unterminated"):
            read_graph(io.StringIO('n "oops\n'))

    def test_extra_node_fields_rejected(self):
        # "n 1 new york" used to silently read label "new"; bare extra
        # tokens are now a loud arity error.
        with pytest.raises(FormatError):
            read_graph(io.StringIO("n 1 new york\n"))


class TestNormalizedNeverDuplicates:
    @settings(max_examples=100, deadline=None)
    @given(deltas())
    def test_normalized_output_has_no_duplicate_inserts(self, delta):
        try:
            cleaned = delta.normalized()
        except InvalidDeltaError:
            return  # |net| > 1 is rejected, never silently emitted
        seen = set()
        for update in cleaned:
            if update.is_insert:
                assert update.edge not in seen
                seen.add(update.edge)
        assert cleaned.is_normalized()

    def test_net_balance_two_raises(self):
        with pytest.raises(InvalidDeltaError, match="net balance"):
            Delta([insert(1, 2), insert(1, 2)]).normalized()

    def test_net_balance_minus_two_raises(self):
        with pytest.raises(InvalidDeltaError, match="net balance"):
            Delta([delete(1, 2), delete(1, 2)]).normalized()

    def test_net_one_with_history_still_collapses(self):
        cleaned = Delta([delete(1, 2), insert(1, 2), delete(1, 2)]).normalized()
        assert len(cleaned) == 1 and cleaned[0].is_delete


# ----------------------------------------------------------------------
# format_token's fast path against the ladder it short-cuts
# ----------------------------------------------------------------------


def reference_format_token(value) -> str:
    """``format_token`` as it was before the exact-type dispatch and the
    remembered quoting decision."""
    from repro.graph import io_tokens

    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SerializationError(f"cannot serialize {value!r}")
    if isinstance(value, int):
        return str(value)
    if (
        value
        and not value.startswith("%")
        and not io_tokens._NEEDS_QUOTING.search(value)
        and not io_tokens._reads_back_as_int(value)
    ):
        return value
    escaped = "".join(io_tokens._ESCAPES.get(char, char) for char in value)
    return f'"{escaped}"'


class Shouted(str):
    """A ``str`` subclass: must never share the remembered decisions."""

    def startswith(self, prefix, *rest):
        return True  # so every Shouted token is quoted


@given(st.one_of(labels, st.sampled_from(["%meta", "1_000", "+7", "v", "x" * 40])))
def test_format_token_equals_the_reference_ladder(value):
    from repro.graph.io_tokens import format_token

    assert format_token(value) == reference_format_token(value)
    assert format_token(value) == reference_format_token(value)  # remembered


def test_format_token_subclasses_and_refusals_are_unchanged():
    import enum

    from repro.graph.io_tokens import format_token

    class Color(enum.IntEnum):
        RED = 3

    assert format_token(Color.RED) == reference_format_token(Color.RED)
    assert format_token("plain") == "plain"
    assert format_token(Shouted("plain")) == '"plain"'  # not the cached bare form
    assert format_token("plain") == "plain"
    for refused in (True, False, 1.5, None, (1,)):
        with pytest.raises(SerializationError):
            format_token(refused)
