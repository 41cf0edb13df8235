"""Plain-text serialization for labeled digraphs and update batches.

Format (one record per line, ``#`` comments allowed)::

    n <node> <label>     # node declaration
    e <source> <target>  # edge
    + <source> <target> [<source_label> <target_label>]   # delta insert
    - <source> <target>                                   # delta delete

(``write_delta`` always emits both insert labels — quoting makes the
empty label representable — while ``read_delta`` also accepts the
label-less 2-operand form.)

Tokens are written bare when they are unambiguous; anything else — strings
with whitespace, quotes, ``#``, the empty string, or strings that *look*
like integers — is double-quoted with backslash escapes, so every value
round-trips losslessly.  Bare integers round-trip as integers, quoted
tokens always as strings.  Values that are neither ``int`` nor ``str``
(tuples, floats, ...) raise :class:`SerializationError` at write time
rather than coming back as something else.

The format is deliberately trivial — it exists so examples can persist and
reload scenario graphs and so failures in randomized tests can be dumped
for inspection.  The record-level helpers (:func:`graph_record_rows`,
:func:`apply_graph_record`, :func:`update_to_row`,
:func:`update_to_line`, :func:`update_from_fields`) are shared with
:mod:`repro.persist`, whose sectioned snapshot/delta-log files embed
exactly these records — one quoting discipline, one parser, everywhere
state touches disk.
"""

from __future__ import annotations

import io
from collections.abc import Iterator
from itertools import chain, repeat
from pathlib import Path
from typing import TextIO, Union

from repro.core.delta import Delta, Update, delete, insert
from repro.graph.digraph import DiGraph
from repro.graph.io_tokens import SerializationError, format_token, tokenize

PathLike = Union[str, Path]

__all__ = [
    "FormatError",
    "SerializationError",
    "apply_graph_record",
    "graph_record_lines",
    "graph_record_rows",
    "graph_to_string",
    "read_delta",
    "read_graph",
    "update_from_fields",
    "update_to_line",
    "update_to_row",
    "write_delta",
    "write_graph",
]


class FormatError(ValueError):
    """Malformed graph/delta text."""

    def __init__(self, line_number: int, line: str, reason: str) -> None:
        super().__init__(f"line {line_number}: {reason}: {line!r}")
        self.line_number = line_number


def graph_record_lines(graph: DiGraph) -> Iterator[str]:
    """Yield one terminated record line per node and edge of ``graph``
    (nodes first, then edges) — the body :func:`write_graph` wraps."""
    for row in graph_record_rows(graph):
        yield " ".join(map(format_token, row)) + "\n"


def graph_record_rows(graph: DiGraph) -> Iterator[tuple]:
    """The records of :func:`graph_record_lines` as rows of tokens —
    ``("n", node, label)`` then ``("e", source, target)`` — built by
    C-level maps, for a renderer that formats rows in bulk."""
    labels = graph.labels
    nodes = zip(repeat("n"), graph.nodes(), map(labels.__getitem__, graph.nodes()))
    return chain(nodes, map(("e",).__add__, graph.edges()))


def apply_graph_record(graph: DiGraph, fields: list) -> None:
    """Replay one tokenized ``n``/``e`` record into ``graph``.

    Raises plain :class:`ValueError` on malformed records; stream-level
    callers wrap it with line context (:class:`FormatError`).
    """
    tag = fields[0]
    if tag == "n":
        if len(fields) not in (2, 3):
            raise ValueError("node record needs an id and at most a label")
        label = fields[2] if len(fields) == 3 else ""
        graph.add_node(fields[1], label=label)
    elif tag == "e":
        if len(fields) != 3:
            raise ValueError("edge record needs two endpoints")
        graph.add_edge(fields[1], fields[2])
    else:
        raise ValueError(f"unknown record tag {tag!r}")


def update_to_line(update: Update) -> str:
    """Render one unit update as a terminated ``+``/``-`` record line."""
    return " ".join(map(format_token, update_to_row(update))) + "\n"


def update_to_row(update: Update) -> tuple:
    """The tokens of one unit update's ``+``/``-`` record, as one row."""
    if update.is_insert:
        return (
            "+",
            update.source,
            update.target,
            update.source_label,
            update.target_label,
        )
    return ("-", update.source, update.target)


def update_from_fields(fields: list) -> Update:
    """Parse one tokenized ``+``/``-`` record back into an update.

    Raises plain :class:`ValueError` on malformed records; stream-level
    callers wrap it with line context (:class:`FormatError`).
    """
    tag = fields[0]
    if tag == "+":
        if len(fields) not in (3, 5):
            raise ValueError("insert needs 2 or 4 operands")
        source_label = fields[3] if len(fields) == 5 else ""
        target_label = fields[4] if len(fields) == 5 else ""
        return insert(
            fields[1],
            fields[2],
            source_label=source_label,
            target_label=target_label,
        )
    if tag == "-":
        if len(fields) != 3:
            raise ValueError("delete needs two operands")
        return delete(fields[1], fields[2])
    raise ValueError(f"unknown record tag {tag!r}")


def write_graph(graph: DiGraph, destination: Union[PathLike, TextIO]) -> None:
    """Serialize ``graph`` (nodes first, then edges)."""
    stream, owned = _open(destination, "w")
    try:
        stream.write(f"# repro graph |V|={graph.num_nodes} |E|={graph.num_edges}\n")
        for line in graph_record_lines(graph):
            stream.write(line)
    finally:
        if owned:
            stream.close()


def read_graph(source: Union[PathLike, TextIO]) -> DiGraph:
    """Parse a graph written by :func:`write_graph`."""
    stream, owned = _open(source, "r")
    graph = DiGraph()
    try:
        for line_number, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = _fields(line_number, line)
            try:
                apply_graph_record(graph, fields)
            except ValueError as exc:
                raise FormatError(line_number, line, str(exc)) from None
    finally:
        if owned:
            stream.close()
    return graph


def write_delta(delta: Delta, destination: Union[PathLike, TextIO]) -> None:
    """Serialize a batch update."""
    stream, owned = _open(destination, "w")
    try:
        stream.write(f"# repro delta |dG|={len(delta)}\n")
        for update in delta:
            stream.write(update_to_line(update))
    finally:
        if owned:
            stream.close()


def read_delta(source: Union[PathLike, TextIO]) -> Delta:
    """Parse a batch written by :func:`write_delta`."""
    stream, owned = _open(source, "r")
    updates = []
    try:
        for line_number, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = _fields(line_number, line)
            try:
                updates.append(update_from_fields(fields))
            except ValueError as exc:
                raise FormatError(line_number, line, str(exc)) from None
    finally:
        if owned:
            stream.close()
    return Delta(updates)


def graph_to_string(graph: DiGraph) -> str:
    """Serialize to an in-memory string (debug dumps in test failures)."""
    buffer = io.StringIO()
    write_graph(graph, buffer)
    return buffer.getvalue()


def _fields(line_number: int, line: str) -> list:
    try:
        return tokenize(line)
    except ValueError as exc:
        raise FormatError(line_number, line, str(exc)) from None


def _open(target: Union[PathLike, TextIO], mode: str) -> tuple[TextIO, bool]:
    """Normalize a path-or-stream argument; report stream ownership."""
    if isinstance(target, (str, Path)):
        return open(target, mode, encoding="utf-8"), True
    return target, False
