"""Line-level grammar shared by snapshot files and delta logs.

Both artifacts are plain UTF-8 text built from exactly two kinds of
lines (plus ``#`` comments and blank lines, which readers skip):

* **records** — whitespace-separated token rows using the lossless
  quoting rules of :mod:`repro.graph.io_tokens` (bare ints round-trip as
  ints, everything else as strings);
* **directives** — lines starting with ``%``: a directive keyword
  followed by token operands, e.g. ``%section view kws "my view"``.

The full on-disk format is specified in ``docs/FORMATS.md``; this
module owns the mechanics: rendering/parsing directive and record
lines, the versioned snapshot header, and
:func:`split_snapshot_sections`, the one reader of a snapshot file's
structure.

>>> render_directive("section", "view", "kws", "my view")
'%section view kws "my view"\\n'
>>> parse_directive('%section view kws "my view"')
('section', ['view', 'kws', 'my view'])
"""

from __future__ import annotations

import base64
import io
import re
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from repro.graph.io_tokens import TokenMemo, format_token, tokenize
from repro.graph.sharding import SHARD_KINDS, ShardMap

__all__ = [
    "FORMAT_VERSION",
    "SNAPSHOT_CODECS",
    "SNAPSHOT_MAGIC",
    "SUPPORTED_VERSIONS",
    "BodyRows",
    "PersistFormatError",
    "SnapshotSections",
    "ViewSection",
    "available_codecs",
    "encode_packed_block",
    "decode_packed_payload",
    "expand_packed_lines",
    "is_directive",
    "parse_codec_meta",
    "parse_directive",
    "parse_body",
    "parse_packed_operands",
    "parse_record",
    "parse_shard_split_meta",
    "parse_sharding_meta",
    "render_codec_meta",
    "render_directive",
    "render_record",
    "render_records",
    "render_shard_split_meta",
    "render_sharding_meta",
    "split_snapshot_sections",
]

#: Directive keyword opening every snapshot file (``%repro-snapshot <v>``).
SNAPSHOT_MAGIC = "repro-snapshot"

#: Current on-disk format version (see docs/FORMATS.md for the
#: normative spec and docs/PERSISTENCE.md for history).  Version 2
#: added per-view replay cursors (a fourth ``%section view`` operand)
#: and incremental ``%graphdiff`` chunks in the graph section; version
#: 3 added the ``%meta sharding`` layout stamp (the shard map the
#: log routes by) and the segmented delta-log directory with its
#: ``%batch <seq> <participants>`` framing; version 4 added
#: group-commit windows in the delta log (``%window <id>`` entry tags
#: sealed by ``%seal <id> <participants>``), which let per-segment
#: appends pipeline across batches and defer the fsync to the seal;
#: version 5 added compressed section bodies (a ``%meta codec`` stamp
#: plus ``%packed <codec> <count>`` base64 blocks) and the
#: ``%meta shard-split`` layout stamp produced by online shard splits.
FORMAT_VERSION = 5

#: Versions this reader understands.  Version-1 files (no cursors, no
#: ``%graphdiff``), version-2 files (no sharding stamp), version-3
#: files (no group-commit windows), and version-4 files (no packed
#: bodies, no shard splits) load unchanged; the writer always emits
#: version 5.
SUPPORTED_VERSIONS = (1, 2, 3, 4, 5)

#: Codec names a version-5 snapshot may stamp.  ``zlib`` is always
#: available; ``zstd`` only when the interpreter ships
#: :mod:`compression.zstd` (see :func:`available_codecs`).
SNAPSHOT_CODECS = ("zlib", "zstd")

#: Column width of base64 payload lines inside a ``%packed`` block.
PACKED_WRAP = 76

#: Rows :func:`render_records` renders into one chunk of text.  A fresh
#: section body is built and written a chunk at a time, so it is never
#: held whole.
RENDER_CHUNK_ROWS = 1024


class PersistFormatError(ValueError):
    """Malformed snapshot or delta-log text."""

    def __init__(self, source: str, line_number: int, reason: str) -> None:
        super().__init__(f"{source}, line {line_number}: {reason}")
        self.source = source
        self.line_number = line_number


def render_record(values) -> str:
    """Render one row of int/str values as a terminated record line."""
    return " ".join(format_token(value) for value in values) + "\n"


#: The types :func:`render_records` formats with ``%s``: exactly ``int``
#: and ``str`` (``bool`` and every other subclass go through
#: :func:`render_record`, to be refused or quoted as it decides).
_PLAIN_TYPES = frozenset({int, str})

#: Anything :func:`format_token` may quote, found in the distinct ``str``
#: tokens of a chunk written one per line: a whitespace (other than the
#: newlines between them), quote, backslash or ``#`` character, or a
#: token that is empty, opens with ``%`` or has the shape of ``int()``'s
#: grammar.  A chunk it finds nothing in is written bare; one it finds
#: anything in has each distinct ``str`` formatted by
#: :func:`format_token`, which also decides the cases it cannot (a digit
#: run too long for ``int()`` is written bare after all).
_MAY_QUOTE = re.compile(
    r'[^\S\n]|["\\#]|^(?:%|[+-]?\d+(?:_\d+)*$|$)', re.MULTILINE
)


class _RowFormats(dict):
    """Row length → the ``%`` template of one record line of that many
    tokens (``"%s %s\\n"`` for two)."""

    __slots__ = ()

    def __missing__(self, length: int) -> str:
        template = self[length] = " ".join(["%s"] * length) + "\n"
        return template


_ROW_FORMATS = _RowFormats()


def render_records(rows) -> Iterator[str]:
    """Render rows of int/str values as the text of their record lines,
    :data:`RENDER_CHUNK_ROWS` rows per yielded chunk.  The chunks joined
    are ``"".join(map(render_record, rows))``, byte for byte.

    A chunk whose tokens are all exact ``int`` or ``str`` is rendered by
    one ``%`` format of all its tokens; when one regex search over its
    distinct strings finds one that may need quoting, each distinct
    string is first replaced by :func:`format_token`'s text for it.  Any
    other chunk goes through :func:`render_record` row by row, so the
    :class:`~repro.graph.io_tokens.SerializationError` for other values
    is :func:`format_token`'s own.

    >>> list(render_records([("n", 1, "a"), ("e", 1, 2)]))
    ['n 1 a\\ne 1 2\\n']
    >>> list(render_records([("n", 1, "a b"), ("n", 2, "7")]))
    ['n 1 "a b"\\nn 2 "7"\\n']
    """
    rows = iter(rows)
    while chunk := list(islice(rows, RENDER_CHUNK_ROWS)):
        yield _render_chunk(chunk)


def _render_chunk(rows: list) -> str:
    tokens = tuple(chain.from_iterable(rows))
    # the type of every token, not of the distinct values: True == 1,
    # so a set of values may keep 1 and hide True
    kinds = set(map(type, tokens))
    if not kinds <= _PLAIN_TYPES:
        return "".join(map(render_record, rows))
    if str in kinds:
        words = [token for token in set(tokens) if type(token) is str]
        lines = "\n".join(words)
        # more newlines than separators: a word holds one
        if lines.count("\n") >= len(words) or _MAY_QUOTE.search(lines):
            text = dict(zip(words, map(format_token, words)))
            tokens = tuple(map(text.get, tokens, tokens))
    return "".join(map(_ROW_FORMATS.__getitem__, map(len, rows))) % tokens


def parse_record(line: str) -> tuple:
    """Parse a record line back into its row of values.

    Raises plain :class:`ValueError` on bad quoting; callers wrap it with
    file/line context.
    """
    return tuple(tokenize(line))


def render_directive(keyword: str, *operands) -> str:
    """Render a ``%keyword operands...`` directive line."""
    parts = [f"%{keyword}"]
    parts.extend(format_token(operand) for operand in operands)
    return " ".join(parts) + "\n"


def is_directive(line: str) -> bool:
    """Is this stripped line a ``%`` directive (vs. a record row)?"""
    return line.startswith("%")


def parse_directive(line: str) -> tuple[str, list]:
    """Split a directive line into ``(keyword, operands)``.

    Raises plain :class:`ValueError` on bad quoting; callers wrap it with
    file/line context.
    """
    head, _, rest = line[1:].partition(" ")
    if not head:
        raise ValueError("empty directive")
    return head, tokenize(rest)


def check_snapshot_version(operands, source: str, line_number: int) -> int:
    """Validate a ``%repro-snapshot`` directive's operands; returns the
    accepted version."""
    if len(operands) != 1 or operands[0] not in SUPPORTED_VERSIONS:
        raise PersistFormatError(
            source,
            line_number,
            f"unsupported snapshot version {operands!r}; this reader "
            f"understands versions {SUPPORTED_VERSIONS}",
        )
    return operands[0]


def _require_version(
    since: int, version: int, construct: str, source: str, line_number: int
) -> None:
    """The version gate: ``construct`` first appeared in format version
    ``since``, so a file stamped older must not contain it."""
    if version < since:
        raise PersistFormatError(
            source,
            line_number,
            f"{construct} is a version-{since} construct in a "
            f"version-{version} file",
        )


def parse_view_section_operands(
    operands, source: str, line_number: int
) -> tuple[str, str, Optional[int]]:
    """Validate ``%section view`` operands; returns ``(name, kind,
    cursor)`` with ``cursor=None`` for cursor-less (v1) sections."""
    cursor = None
    if len(operands) == 4:
        if not isinstance(operands[3], int) or operands[3] < 0:
            raise PersistFormatError(
                source,
                line_number,
                f"view cursor must be a non-negative integer, "
                f"got {operands[3]!r}",
            )
        cursor = operands[3]
    return operands[1], operands[2], cursor


def check_graphdiff_context(
    version: int, in_graph_section: bool, source: str, line_number: int
) -> None:
    """Validate that a ``%graphdiff`` directive may appear here."""
    if not in_graph_section:
        raise PersistFormatError(
            source, line_number, "%graphdiff outside the graph section"
        )
    _require_version(2, version, "%graphdiff", source, line_number)


def _codec_functions(
    name: str,
) -> Optional[tuple[Callable[[bytes], bytes], Callable[[bytes], bytes]]]:
    """``(compress, decompress)`` for a codec name, or ``None`` when the
    codec is unknown or its library is absent from this interpreter."""
    if name == "zlib":
        return (lambda data: zlib.compress(data, 6), zlib.decompress)
    if name == "zstd":
        try:
            from compression import zstd  # Python >= 3.14
        except ImportError:
            return None
        return (zstd.compress, zstd.decompress)
    return None


def available_codecs() -> tuple[str, ...]:
    """The subset of :data:`SNAPSHOT_CODECS` usable in this interpreter.

    >>> "zlib" in available_codecs()
    True
    """
    return tuple(
        name for name in SNAPSHOT_CODECS if _codec_functions(name) is not None
    )


def encode_packed_block(lines, codec: str) -> list[str]:
    """Pack a run of section body lines into a ``%packed`` block.

    Returns the directive line followed by base64 payload lines: the
    body lines are joined, UTF-8 encoded, compressed with ``codec``,
    and base64-wrapped at :data:`PACKED_WRAP` columns.  Base64 is the
    armor (not base85, whose alphabet includes ``%`` and ``#``) so no
    payload line can ever be mistaken for a directive or comment.

    >>> block = encode_packed_block(["n 1 a\\n", "e 1 1\\n"], "zlib")
    >>> block[0]
    '%packed zlib 1\\n'
    >>> decode_packed_payload("zlib", block[1:], "<doc>", 1)
    ['n 1 a\\n', 'e 1 1\\n']
    """
    functions = _codec_functions(codec)
    if functions is None:
        raise ValueError(f"codec {codec!r} is not available in this interpreter")
    compress, _ = functions
    payload = base64.b64encode(
        compress("".join(lines).encode("utf-8"))
    ).decode("ascii")
    rows = [
        payload[offset : offset + PACKED_WRAP] + "\n"
        for offset in range(0, len(payload), PACKED_WRAP)
    ]
    return [render_directive("packed", codec, len(rows))] + rows


def decode_packed_payload(
    codec: str, payload_lines, source: str, line_number: int
) -> list[str]:
    """Decode a ``%packed`` block's payload lines back into the original
    body lines (newline-terminated, cut at ``"\\n"`` alone as a file's
    lines are, so a quoted token holding a form feed or a line
    separator stays whole).  ``line_number`` is the directive's, used to
    anchor error context."""
    functions = _codec_functions(codec)
    if functions is None:
        raise PersistFormatError(
            source,
            line_number,
            f"snapshot is packed with codec {codec!r}, which is not "
            "available in this interpreter",
        )
    _, decompress = functions
    try:
        blob = base64.b64decode(
            "".join(line.strip() for line in payload_lines).encode("ascii"),
            validate=True,
        )
        text = decompress(blob).decode("utf-8")
    except Exception as exc:
        raise PersistFormatError(
            source, line_number, f"undecodable %packed payload: {exc}"
        ) from None
    return _lines_of(text)


def parse_packed_operands(
    operands, version: int, source: str, line_number: int
) -> tuple[str, int]:
    """Validate ``%packed`` operands; returns ``(codec, payload_count)``
    and enforces the version gate (packed bodies are a version-5
    construct, so pre-v5 readers reject rather than mis-parse them)."""
    _require_version(5, version, "%packed", source, line_number)
    if (
        len(operands) != 2
        or operands[0] not in SNAPSHOT_CODECS
        or not isinstance(operands[1], int)
        or operands[1] < 0
    ):
        raise PersistFormatError(
            source,
            line_number,
            f"malformed %packed operands {operands!r}; expected "
            "<codec> <payload-line-count>",
        )
    return operands[0], operands[1]


def expand_packed_lines(
    body, source: str = "<snapshot>", line_number: int = 0
) -> list[str]:
    """Expand every ``%packed`` block in one section body.

    ``body`` is a body as :func:`split_snapshot_sections` returns it, so
    each block is already validated (known codec, complete payload).
    Returns the body with every block replaced by its decoded lines;
    other lines pass through untouched.  Decoding errors are anchored
    at ``line_number``, the section's line.

    >>> body = ["%config 1\\n"] + encode_packed_block(["r 2\\n"], "zlib")
    >>> expand_packed_lines(body)
    ['%config 1\\n', 'r 2\\n']
    """
    expanded: list[str] = []
    index = 0
    while index < len(body):
        raw = body[index]
        index += 1
        if not raw.lstrip().startswith("%packed "):
            expanded.append(raw)
            continue
        codec, count = parse_directive(raw.strip())[1]
        expanded.extend(
            decode_packed_payload(
                codec, body[index : index + count], source, line_number
            )
        )
        index += count
    return expanded


def parse_codec_meta(operands, version: int, source: str, line_number: int) -> str:
    """Parse ``%meta codec`` operands back into the codec name;
    validates the version gate (a codec stamp is a version-5
    construct)."""
    _require_version(5, version, "%meta codec", source, line_number)
    if len(operands) != 2 or operands[1] not in SNAPSHOT_CODECS:
        raise PersistFormatError(
            source,
            line_number,
            f"malformed %meta codec operands {operands!r}; expected "
            f"'codec' followed by one of {SNAPSHOT_CODECS}",
        )
    return operands[1]


def render_codec_meta(codec: str) -> str:
    """Render the ``%meta codec`` stamp (version-5 construct).

    The stamp is informative — each ``%packed`` block names its own
    codec — but lets operators ``head`` a snapshot and see how it was
    written, and lets readers fail early when the codec is absent.
    """
    return render_directive("meta", "codec", codec)


def render_sharding_meta(shard_map) -> str:
    """Render the ``%meta sharding`` layout stamp for a
    :class:`~repro.graph.sharding.ShardMap` (version-3 construct).

    ``%meta sharding hash <count>`` for hash maps; ``%meta sharding
    range <count> <boundary>...`` for range maps (``count`` is
    redundant with the boundary list but kept so readers can validate).

    The stamp always describes the **base** layout; shards grown by
    online splits are stamped separately, one ``%meta shard-split``
    line each (see :func:`render_shard_split_meta`), so pre-split
    readers of pre-split files are unaffected.
    """
    base_count = shard_map.count - len(shard_map.splits)
    return render_directive(
        "meta", "sharding", shard_map.kind, base_count, *shard_map.boundaries
    )


def render_shard_split_meta(shard_map) -> str:
    """Render one ``%meta shard-split`` line per recorded split of a
    :class:`~repro.graph.sharding.ShardMap` (version-5 construct).

    ``%meta shard-split <parent> <child>`` for hash maps;
    ``%meta shard-split <parent> <child> <boundary>`` for range maps.
    Lines follow the ``%meta sharding`` stamp in split order, so a
    reader replays them one :meth:`~repro.graph.sharding.ShardMap.split`
    at a time.
    """
    return "".join(
        render_directive("meta", "shard-split", *entry)
        for entry in shard_map.splits
    )


def parse_shard_split_meta(
    operands, shard_map, version: int, source: str, line_number: int
):
    """Apply one ``%meta shard-split`` line to the ShardMap parsed so
    far; returns the grown map.  Validates the version gate (splits are
    a version-5 construct) and that the stamped child index matches the
    deterministic split order."""
    _require_version(5, version, "%meta shard-split", source, line_number)
    if shard_map is None:
        raise PersistFormatError(
            source, line_number, "%meta shard-split before %meta sharding"
        )
    want = 4 if shard_map.kind == "range" else 3
    if (
        len(operands) != want
        or not isinstance(operands[1], int)
        or not isinstance(operands[2], int)
    ):
        raise PersistFormatError(
            source,
            line_number,
            f"malformed %meta shard-split operands {operands!r}; expected "
            "'shard-split' <parent> <child>"
            + (" <boundary>" if shard_map.kind == "range" else ""),
        )
    parent, child = operands[1], operands[2]
    if child != shard_map.count:
        raise PersistFormatError(
            source,
            line_number,
            f"shard-split declares child {child} but the next shard "
            f"index is {shard_map.count}",
        )
    boundary = operands[3] if shard_map.kind == "range" else None
    try:
        return shard_map.split(parent, boundary=boundary)
    except ValueError as exc:
        raise PersistFormatError(source, line_number, str(exc)) from None


def parse_sharding_meta(operands, version: int, source: str, line_number: int):
    """Parse ``%meta sharding`` operands back into a
    :class:`~repro.graph.sharding.ShardMap`; validates the version gate
    (a sharding stamp is a version-3 construct)."""
    _require_version(3, version, "%meta sharding", source, line_number)
    if (
        len(operands) < 3
        or operands[1] not in SHARD_KINDS
        or not isinstance(operands[2], int)
        or operands[2] < 1
    ):
        raise PersistFormatError(
            source,
            line_number,
            f"malformed %meta sharding operands {operands!r}; expected "
            "'sharding' <kind> <count> [<boundary>...]",
        )
    kind, count = operands[1], operands[2]
    if kind == "hash":
        if len(operands) != 3:
            raise PersistFormatError(
                source, line_number, "hash sharding takes no boundaries"
            )
        return ShardMap(count, kind="hash")
    try:
        shard_map = ShardMap(kind="range", boundaries=operands[3:])
    except ValueError as exc:
        raise PersistFormatError(source, line_number, str(exc)) from None
    if shard_map.count != count:
        raise PersistFormatError(
            source,
            line_number,
            f"range sharding declares {count} shards but its boundary "
            f"list implies {shard_map.count}",
        )
    return shard_map


class ViewSection(NamedTuple):
    """One view section lifted verbatim from a snapshot file."""

    #: View-kind tag (``kws`` / ``rpq`` / ``scc`` / ``iso`` / extension).
    kind: str
    #: Replay cursor — the log seq at which the section's bytes were
    #: serialized (``None`` in version-1 files, which predate cursors;
    #: readers default it to the file's ``last-seq``).
    cursor: Optional[int]
    #: Raw body lines (the ``%config`` directive and every record row).
    body: list[str]
    #: Line of the ``%section`` directive: the error anchor for body
    #: records, which are parsed after the split.
    line_number: int
    #: Does the body hold a ``%packed`` block?
    packed: bool


@dataclass
class SnapshotSections:
    """A snapshot file split into sections, its structure validated.

    ``load()`` parses these bodies into the graph and each view's state.
    An incremental save never reads them: it carries clean bodies by
    the byte ranges it recorded when it wrote the file.
    """

    #: Format version of the source file.
    version: int = FORMAT_VERSION
    #: The file's ``%meta last-seq`` stamp (0 when absent).
    last_seq: int = 0
    #: The ``%meta sharding`` layout with every ``%meta shard-split``
    #: applied, or ``None`` for an unsharded file.
    shard_map: Optional[ShardMap] = None
    #: Graph-section lines verbatim — base ``n``/``e`` records and every
    #: ``%graphdiff`` directive + diff record, in file order.
    graph_lines: list[str] = field(default_factory=list)
    #: Line of the ``%section graph`` directive (0 when there is none).
    graph_line_number: int = 0
    #: Does the graph section hold a ``%packed`` block?
    graph_packed: bool = False
    #: Number of ``%graphdiff`` chunks already accumulated in the file.
    graphdiff_chunks: int = 0
    #: ``{view_name: ViewSection}`` in file order.
    views: dict[str, ViewSection] = field(default_factory=dict)


def split_snapshot_sections(lines, source: str = "<snapshot>") -> SnapshotSections:
    """Split a snapshot file into sections — the one reader of the
    snapshot grammar, serving load.

    ``lines`` is the file's text, a text stream to read it from, or its
    raw lines.  Returns a :class:`SnapshotSections` whose bodies are the
    raw lines **verbatim** (newline-terminated).  ``%meta`` lines are
    folded into :attr:`SnapshotSections.last_seq` and
    :attr:`SnapshotSections.shard_map`; everything else between a
    ``%section`` line and the next ``%section``/``%end`` lands in the
    matching body.

    The graph portion is kept as an opaque replay script — base
    records plus ordered ``%graphdiff`` chunks — which the caller
    applies in file order.

    Every structural rule of ``docs/FORMATS.md`` §4 is enforced here,
    with file and line: the header and each construct's version gate, ``%meta`` domains,
    the sharding stamps before any section, section operands and unique
    names, ``%config`` first in a view body, no record outside a
    section, nothing after ``%end`` and ``%end`` itself.  Record rows
    and ``%packed`` payloads are left to the caller that parses them
    (:func:`parse_body`, :func:`expand_packed_lines`).

    The file is walked directive by directive: a regex search finds the
    next ``%`` line in the text, and the records between two directives
    move into their body as one slice, so the cost is per directive and
    per body, not per line.

    >>> text = (
    ...     "%repro-snapshot 2\\n%meta last-seq 3\\n%section graph\\n"
    ...     "n 1 a\\n%section view watch kws 3\\n%config 2 a\\na 1 0\\n%end\\n"
    ... )
    >>> sections = split_snapshot_sections(text)
    >>> sections.last_seq, sections.graph_lines
    (3, ['n 1 a\\n'])
    >>> watch = sections.views["watch"]
    >>> watch.kind, watch.cursor, watch.body, watch.line_number
    ('kws', 3, ['%config 2 a\\n', 'a 1 0\\n'], 5)
    """
    # A newline before the first line makes every line follow one, so
    # each search below starts with a literal "\n" (which the regex
    # engine skips to) and a line's number is the newlines before it.
    text = "\n" + _text_of(lines)
    result = SnapshotSections()
    body: Optional[list[str]] = None  # the open section's body
    view: Optional[tuple] = None  # (name, kind, cursor, line) while open
    packed = versioned = sectioned = ended = False
    length = len(text)
    #: the newline ending the last line read, and that line's number
    position = line_number = 0
    while position + 1 < length:
        match = _DIRECTIVE_LINE.search(text, position)
        stop = length if match is None else match.start()
        content = _CONTENT_LINE.search(text, position, stop)
        if content is not None:  # records between two directives
            reason = None
            if ended:
                reason = "content after %end"
            elif body is None:
                reason = "record outside any section"
            elif not body and view is not None:
                reason = "a view body must open with %config"
            if reason is not None:
                first = line_number + text.count("\n", position, content.start())
                raise PersistFormatError(source, first + 1, reason)
            assert body is not None
            body.extend(_kept_lines(text, position, stop))
        if match is None:
            break
        line_number += text.count("\n", position, stop) + 1
        raw = match.group(1)
        position = match.end()  # the directive's newline
        stripped = raw.strip()
        raw += "\n"
        try:
            if ended:
                raise ValueError("content after %end")
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
                # unknown %meta keys are ignored (forward compatibility)
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
                _, count = parse_packed_operands(
                    operands, result.version, source, line_number
                )
                if body is None:
                    raise ValueError("%packed outside any section")
                if body is result.graph_lines:
                    result.graph_packed = True
                else:
                    packed = True
                # Kept verbatim, with its base64 payload: the next
                # ``count`` lines whatever they hold (expand_packed_lines
                # decodes them).
                end = position
                for _ in range(count):
                    if end + 1 >= length:
                        raise PersistFormatError(
                            source,
                            _line_count(text),
                            "truncated %packed block (payload cut short)",
                        )
                    newline = text.find("\n", end + 1)
                    end = length if newline < 0 else newline
                body.append(raw)
                body.extend(_terminated(_lines_of(text[position + 1 : end + 1])))
                line_number += count
                position = end
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
    if not versioned:
        raise PersistFormatError(source, 0, f"missing %{SNAPSHOT_MAGIC} header")
    if not ended:
        raise PersistFormatError(
            source,
            _line_count(text),
            "truncated snapshot (no %end); the file was not written by an "
            "atomic save",
        )
    return result


#: A directive line, after the newline that ends the line before it:
#: nothing but whitespace before its ``%``.
_DIRECTIVE_LINE = re.compile(r"\n([^\S\n]*%[^\n]*)")
#: A line readers keep: its first non-space character is not ``#``.
_CONTENT_LINE = re.compile(r"\n[^\S\n]*[^\s#]")
#: A line readers skip: blank, or a ``#`` comment.
_SKIPPED_LINE = re.compile(r"\n[^\S\n]*[#\n]")


def _text_of(lines) -> str:
    """The whole text of ``lines``: a string, a text stream, or raw
    lines (each a line of its own, newline-terminated or not)."""
    if isinstance(lines, str):
        return lines
    read = getattr(lines, "read", None)
    if read is not None:
        return read()
    return "".join(line if line.endswith("\n") else line + "\n" for line in lines)


def _line_count(text: str) -> int:
    """How many lines follow ``text``'s leading newline, an unterminated
    last one included."""
    return text.count("\n") - text.endswith("\n")


def _lines_of(text: str) -> list[str]:
    """``text`` cut after each ``"\\n"`` and nowhere else (a file's lines
    end there; ``str.splitlines`` also cuts at ``"\\r"``, ``"\\x0c"``,
    ``"\\u2028"`` and others, which a quoted token may hold)."""
    return io.StringIO(text, newline="\n").readlines()


def _terminated(lines: list[str]) -> list[str]:
    """``lines`` with a newline put on an unterminated last one."""
    if lines and not lines[-1].endswith("\n"):
        lines[-1] += "\n"
    return lines


def _kept_lines(text: str, position: int, stop: int) -> list[str]:
    """The lines between the newline at ``position`` and ``stop`` that a
    reader keeps: blank and ``#`` lines dropped."""
    lines = _terminated(_lines_of(text[position + 1 : stop + 1]))
    if _SKIPPED_LINE.search(text, position, stop + 1) is None:
        return lines
    return [line for line in lines if line.strip() and line.lstrip()[0] != "#"]


class BodyRows(NamedTuple):
    """A section body as :func:`parse_body` parsed it."""

    #: Every record row, in body order.
    records: list
    #: ``(index, line)`` per ``%`` directive line: how many records
    #: precede it, and the stripped line.
    directives: list
    #: ``(index, error)`` for the first line that does not tokenize, or
    #: ``None``.  Parsing stops there: ``records`` and ``directives``
    #: hold what precedes it.
    error: Optional[tuple]


#: The newline before a body line that is not a plain record: one that
#: opens with ``%`` or ``#`` or holds only whitespace.
_SPECIAL_LINE = re.compile(r"\n(?=[^\S\n]*(?:[%#\n]|\Z))")
_QUOTE = re.compile('"')


def parse_body(lines, tokens: TokenMemo) -> BodyRows:
    """Parse a section body in one pass: each record line into the row
    :func:`parse_record` gives for it, blank and ``#`` lines skipped,
    ``%`` lines set aside in place.  ``lines`` are a body's lines as
    :func:`split_snapshot_sections` or :func:`expand_packed_lines`
    return them.

    A run of plain lines — no quote, and neither a directive, a comment
    nor blank — is parsed whole by C-level maps: split, then each token
    looked up in ``tokens``, which parses a distinct token text once.
    Only the other lines are taken one at a time.

    >>> lines = ["%config 1\\n", "e 1 2\\n", "\\n", 'n 2 "a b"\\n']
    >>> rows = parse_body(lines, TokenMemo())
    >>> rows.records, rows.directives, rows.error
    ([('e', 1, 2), ('n', 2, 'a b')], [(0, '%config 1')], None)
    """
    records: list = []
    directives: list = []
    split_row = partial(map, tokens.__getitem__)
    text = "".join(lines)
    count = len(lines)
    special: Iterable[int]
    if text.count("\n") == count - (not text.endswith("\n")):
        # one line per newline: regex searches over the text find the
        # lines that are more than a plain record
        ends = list(accumulate(map(len, lines)))
        starts = [match.start() for match in _SPECIAL_LINE.finditer("\n" + text)]
        starts.extend(match.start() for match in _QUOTE.finditer(text))
        special = sorted({bisect_right(ends, start) for start in starts})
    else:  # lines cut at other breaks (a decoded payload): one by one
        special = range(count)
    start = 0
    for index in chain(special, (count,)):
        if index > start:
            plain = map(str.split, lines[start:index])
            records.extend(map(tuple, map(split_row, plain)))
        if index >= count:
            break
        start = index + 1
        line = lines[index].strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "%":
            directives.append((len(records), line))
            continue
        try:
            records.append(tokens.row(line))
        except ValueError as exc:
            return BodyRows(records, directives, (len(records), exc))
    return BodyRows(records, directives, None)


def _close_view(result, view, body, packed, source) -> None:
    """File the open view section, if any, under its name."""
    if view is None:
        return
    name, kind, cursor, line_number = view
    if not body:
        raise PersistFormatError(
            source, line_number, "view section is missing %config"
        )
    result.views[name] = ViewSection(kind, cursor, body, line_number, packed)

