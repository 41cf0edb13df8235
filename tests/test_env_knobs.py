"""The environment-variable table of ``docs/OPERATIONS.md`` §4 lists
exactly the ``REPRO_*`` variables that ``src/`` and ``tests/`` read.

A knob added without a row is invisible to operators; a row left behind
by a deleted knob documents a setting that does nothing.  Both fail
here.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*")
TABLE_ROW = re.compile(r"^\| `(REPRO_[A-Z][A-Z0-9_]*)` \|", re.MULTILINE)


def knobs_read() -> dict[str, str]:
    """Every knob name in the code and the suite → one file naming it."""
    found: dict[str, str] = {}
    for tree in ("src", "tests"):
        for path in sorted((REPO_ROOT / tree).rglob("*.py")):
            for name in KNOB.findall(path.read_text(encoding="utf-8")):
                found.setdefault(name, str(path.relative_to(REPO_ROOT)))
    return found


def knobs_documented() -> set[str]:
    text = (REPO_ROOT / "docs" / "OPERATIONS.md").read_text(encoding="utf-8")
    _, _, rest = text.partition("\n## 4. Environment variables\n")
    assert rest, "OPERATIONS.md has no '## 4. Environment variables' section"
    section = rest.split("\n## ", 1)[0]
    return set(TABLE_ROW.findall(section))


def test_environment_table_lists_exactly_the_knobs_read():
    read = knobs_read()
    documented = knobs_documented()
    undocumented = {name: read[name] for name in sorted(set(read) - documented)}
    assert not undocumented, f"knobs missing from OPERATIONS.md §4: {undocumented}"
    stale = sorted(documented - set(read))
    assert not stale, f"OPERATIONS.md §4 rows for knobs nothing reads: {stale}"
