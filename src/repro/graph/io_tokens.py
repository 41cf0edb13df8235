"""Token-level quoting for the plain-text graph/delta format.

Node identifiers and labels are arbitrary hashable values in memory but
must survive a whitespace-separated text format.  The rules:

* ``int``  — written bare; a bare all-digit token reads back as ``int``.
* ``str``  — written bare when unambiguous; quoted with backslash escapes
  when it contains whitespace, ``"``, ``\\``, ``#``, starts with ``%``
  (the persist format's directive marker — a bare ``%``-leading first
  token would masquerade as a directive line), is empty, or would read
  back as an integer.  A quoted token always reads back as ``str``, so
  ``5`` and ``"5"`` are distinct on disk just as they are in memory.
* anything else (``float``, ``bool``, tuples, ...) — refused loudly with
  :class:`SerializationError`; silently coming back as a different type
  would corrupt graphs in ways that surface far from the cause.

``bool`` is rejected despite being an ``int`` subclass because ``True``
would otherwise reload as ``1``.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache

__all__ = [
    "SerializationError",
    "TokenMemo",
    "format_token",
    "parse_bare_token",
    "tokenize",
]

_NEEDS_QUOTING = re.compile(r'[\s"\\#]')

#: ``int()``'s base-10 grammar, whole: surrounding whitespace, one sign,
#: then decimal digits of any script with single ``_`` between them.
#: ``\d`` tests exactly the characters ``int()`` reads as decimal digits;
#: its whitespace is ``\s`` less the ASCII separators ``\x1c``-``\x1f``.
_INT_GRAMMAR = re.compile(
    r"[^\S\x1c-\x1f]*[+-]?(\d+(?:_\d+)*)[^\S\x1c-\x1f]*"
)

#: Below this many digits ``int()`` applies no digit limit (CPython's
#: ``_PY_LONG_MAX_STR_DIGITS_THRESHOLD``; the limit cannot be set lower).
_INT_LIMIT_THRESHOLD = 640

#: A quoted token with only the escapes :data:`_UNESCAPES` knows.
_QUOTED = r'"(?:[^"\\]|\\[\\"nrt])*"'
#: One token of a line: quoted, or a bare run of non-space, non-quote
#: characters.
_TOKEN = re.compile(_QUOTED + r'|[^\s"]+')
#: A line :func:`tokenize` accepts: tokens apart, a bare one never
#: running into a quote.
_TOKENIZABLE = re.compile(r'(?:\s*(?:' + _QUOTED + r'|[^\s"]+(?![^\s])))*\s*')
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


class SerializationError(ValueError):
    """A node id or label cannot be written to the text format losslessly."""


def format_token(value) -> str:
    """Render one node id or label as a text token."""
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is str:
        return _format_str(value)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SerializationError(
            f"cannot serialize {value!r} of type {type(value).__name__}; "
            "the text format holds only int and str values"
        )
    if isinstance(value, int):
        return str(value)
    return _format_str.__wrapped__(value)  # a str subclass: never cached


@lru_cache(maxsize=4096)
def _format_str(value: str) -> str:
    """Bare or quoted — remembered, because a graph writes the same few
    labels on every line and the decision costs a regex search plus an
    ``int()`` that raises."""
    if (
        value
        and not value.startswith("%")
        and not _NEEDS_QUOTING.search(value)
        and not _reads_back_as_int(value)
    ):
        return value
    escaped = "".join(_ESCAPES.get(char, char) for char in value)
    return f'"{escaped}"'


def _reads_back_as_int(token: str) -> bool:
    """Would ``int(token)`` succeed?  Decided by :data:`_INT_GRAMMAR` plus
    ``int()``'s digit limit, without raising — including forms like
    ``1_000`` that ``int()`` accepts but a digit regex misses."""
    if token.isdecimal():  # the common case, decided without the regex
        digits = token
    else:
        match = _INT_GRAMMAR.fullmatch(token)
        if match is None:
            return False
        digits = match.group(1)
    if len(digits) <= _INT_LIMIT_THRESHOLD:
        return True
    # interpreters older than the limit (3.10.7) have none
    limit = getattr(sys, "get_int_max_str_digits", int)()
    return not limit or len(digits) - digits.count("_") <= limit


def parse_bare_token(token: str):
    """Bare integers round-trip as ints; everything else stays a string."""
    if token.isdecimal() and len(token) <= _INT_LIMIT_THRESHOLD:
        return int(token)  # the common int token: digits only
    # Only a token that starts with a digit or a sign is tested against
    # int()'s grammar; the common string token returns at once.
    first = token[:1]
    if (first.isdigit() or first in "+-") and _reads_back_as_int(token):
        return int(token)
    return token


class TokenMemo(dict):
    """Token text → parsed value, each distinct text parsed once.

    A key is a token as it stands in a line: bare, or quoted with its
    quotes (a bare token never holds ``"``, so the two cannot collide).
    Reading a key the memo lacks parses and keeps it, so
    ``map(memo.__getitem__, tokens)`` parses a run of tokens with no
    Python frame for a token seen before, and every occurrence of one
    text shares one value object.

    >>> memo = TokenMemo()
    >>> [memo[token] for token in ("7", '"7"', "a", '"a b\\\\n"')]
    [7, '7', 'a', 'a b\\n']
    >>> memo["7"] is memo["7"]
    True
    """

    __slots__ = ()

    def __missing__(self, token: str):
        if token[:1] == '"':
            value = _ESCAPE.sub(_unescape, token[1:-1])
        else:
            value = parse_bare_token(token)
        self[token] = value
        return value

    def row(self, line: str) -> tuple:
        """Parse one stripped record line, quoted tokens included — the
        result of ``tuple(tokenize(line))``, and its ``ValueError`` on
        bad quoting."""
        if _TOKENIZABLE.fullmatch(line) is None:
            return tuple(tokenize(line))  # raises the precise error
        return tuple(map(self.__getitem__, _TOKEN.findall(line)))


def _unescape(match) -> str:
    return _UNESCAPES[match.group(1)]


def tokenize(line: str) -> list:
    """Split a record line into parsed tokens, honoring quotes.

    Raises ``ValueError`` on unterminated quotes or dangling escapes; the
    caller wraps it with line context.
    """
    if '"' not in line:
        # Fast path: no quoting anywhere, so whitespace-splitting is
        # exact.  Snapshot/log recovery parses millions of such lines;
        # skipping the per-character scan is a ~4x parser speedup.
        return [parse_bare_token(token) for token in line.split()]
    tokens: list = []
    position = 0
    length = len(line)
    while position < length:
        char = line[position]
        if char.isspace():
            position += 1
            continue
        if char == '"':
            position += 1
            parts: list[str] = []
            while True:
                if position >= length:
                    raise ValueError("unterminated quoted token")
                char = line[position]
                if char == '"':
                    position += 1
                    break
                if char == "\\":
                    if position + 1 >= length:
                        raise ValueError("dangling escape in quoted token")
                    escape = line[position + 1]
                    if escape not in _UNESCAPES:
                        raise ValueError(f"unknown escape sequence \\{escape}")
                    parts.append(_UNESCAPES[escape])
                    position += 2
                    continue
                parts.append(char)
                position += 1
            tokens.append("".join(parts))
        else:
            end = position
            while end < length and not line[end].isspace():
                if line[end] == '"':
                    raise ValueError("quote in the middle of a bare token")
                end += 1
            tokens.append(parse_bare_token(line[position:end]))
            position = end
    return tokens
