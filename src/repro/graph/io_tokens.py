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
from functools import lru_cache

__all__ = ["SerializationError", "format_token", "parse_bare_token", "tokenize"]

_NEEDS_QUOTING = re.compile(r'[\s"\\#]')

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
    """Exactly mirrors :func:`parse_bare_token`'s int branch — including
    forms like ``1_000`` that ``int()`` accepts but a digit regex misses."""
    try:
        int(token)
    except ValueError:
        return False
    return True


def parse_bare_token(token: str):
    """Bare integers round-trip as ints; everything else stays a string."""
    # int() can only succeed when the token starts with a decimal digit
    # or a sign; checking first avoids the (slow) exception path for the
    # common string-token case in bulk parsing.
    first = token[:1]
    if first.isdigit() or first in "+-":
        try:
            return int(token)
        except ValueError:
            return token
    return token


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
