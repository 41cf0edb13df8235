"""Cross-references into ``repro`` from ``src/`` docs resolve.

A fully qualified Sphinx role — ``:meth:``, ``:class:``, ``:func:``,
``:attr:`` or ``:mod:`` naming a ``repro.`` target — must still name
something: the longest importable module prefix, then ``getattr`` for
each remaining part.  A deletion that leaves a docstring pointing at the
deleted name fails here instead of shipping a dangling reference.
"""

import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: A role whose target is a ``repro.`` dotted path; the target may wrap
#: across docstring lines (``~repro.persist.deltalog.\n    SegmentedDeltaLog``).
ROLE = re.compile(r":(?:meth|class|func|attr|mod):`~?(repro\.[^`]+)`")


def qualified_references() -> list[tuple[str, str]]:
    """``(file:line, target)`` for every qualified role in ``src/`` —
    docstrings, and the ``#:`` attribute docs and comments beside them."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in ROLE.finditer(text):
            target = re.sub(r"\s+", "", match.group(1)).removesuffix("()")
            line = text.count("\n", 0, match.start()) + 1
            found.append((f"{path.relative_to(SRC)}:{line}", target))
    return found


def resolves(target: str) -> bool:
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                obj = getattr(obj, name)
        except AttributeError:
            return False
        return True
    return False


def test_every_qualified_docstring_reference_resolves():
    references = qualified_references()
    assert len(references) > 100  # the scan itself still finds them
    dangling = [
        f"{where}: {target}" for where, target in references if not resolves(target)
    ]
    assert not dangling, "\n".join(dangling)
