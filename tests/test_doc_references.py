"""Cross-references from the code's text resolve.

A fully qualified Sphinx role — ``:meth:``, ``:class:``, ``:func:``,
``:attr:`` or ``:mod:`` naming a ``repro.`` target — must still name
something: the longest importable module prefix, then ``getattr`` for
each remaining part.  A deletion that leaves a docstring pointing at the
deleted name fails here instead of shipping a dangling reference.

Every markdown file named in the text under ``src/``, ``benchmarks/``,
``tests/`` and ``tools/`` must exist in the checkout: a path
(``docs/FORMATS.md``) relative to the repository root or to the citing
file, a bare name (``FORMATS.md``) anywhere.

Every benchmark file that ``README.md``, ``docs/``, the CI workflows or
the verify skill cite — a ``benchmarks/…py`` path or a bare
``bench_*.py`` name, brace groups expanded — must exist, so a deleted
bench cannot leave a CI command or a how-to pointing at nothing.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: The trees whose text may cite a markdown file.
CITING_TREES = ("src", "benchmarks", "tests", "tools")
#: A markdown file name, optionally behind ``dir/`` segments.
MARKDOWN_NAME = re.compile(r"(?<![\w.-])((?:[\w-]+/)*[\w-]+\.md)\b")

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


def visible_files(tree: Path):
    """Files under ``tree``, skipping hidden and ``__pycache__`` dirs."""
    for path in sorted(tree.rglob("*")):
        parts = path.relative_to(ROOT).parts
        if path.is_file() and not any(
            part.startswith(".") or part == "__pycache__" for part in parts
        ):
            yield path


def markdown_citations() -> list[tuple[Path, int, str]]:
    """``(file, line, name)`` for every markdown name in the citing trees."""
    found = []
    for tree in CITING_TREES:
        for path in visible_files(ROOT / tree):
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue  # binary
            for match in MARKDOWN_NAME.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                found.append((path, line, match.group(1)))
    return found


def test_every_cited_markdown_file_exists():
    citations = markdown_citations()
    assert len(citations) > 20  # the scan itself still finds them
    basenames = {path.name for path in visible_files(ROOT) if path.suffix == ".md"}

    def exists(citing: Path, name: str) -> bool:
        if (citing.parent / name).is_file():
            return True
        return (ROOT / name).is_file() if "/" in name else name in basenames

    missing = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, line, name in citations
        if not exists(path, name)
    ]
    assert not missing, "\n".join(missing)


#: The docs and workflows whose text may cite a benchmark file.
BENCH_CITING = ("README.md", "docs/*.md", ".github/workflows/*.yml", ".claude/skills/**/*.md")
#: A ``benchmarks/…py`` path or a bare ``bench_*.py`` name, possibly with
#: ``*`` globs and ``{a,b}`` brace groups.
BENCH_NAME = re.compile(
    r"(?<![\w/.-])((?:benchmarks/(?:[\w*-]+/)*|bench_)[\w*{},-]*\.py)\b"
)


def expand_braces(name: str) -> list[str]:
    """``bench_{a,b}_x.py`` -> ``[bench_a_x.py, bench_b_x.py]``."""
    match = re.search(r"\{([^{}]*)\}", name)
    if match is None:
        return [name]
    head, tail = name[: match.start()], name[match.end() :]
    return [
        expanded
        for option in match.group(1).split(",")
        for expanded in expand_braces(head + option + tail)
    ]


def test_every_cited_benchmark_file_exists():
    citations = [
        (path, text.count("\n", 0, match.start()) + 1, match.group(1))
        for pattern in BENCH_CITING
        for path in sorted(ROOT.glob(pattern))
        for text in [path.read_text(encoding="utf-8")]
        for match in BENCH_NAME.finditer(text)
    ]
    assert len(citations) > 20  # the scan itself still finds them
    benches = [path.relative_to(ROOT) for path in ROOT.glob("benchmarks/**/*.py")]

    def exists(name: str) -> bool:
        if "/" in name:
            return any(ROOT.glob(name))
        return any(path.match(name) for path in benches)

    missing = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, line, cited in citations
        for name in expand_braces(cited)
        if not exists(name)
    ]
    assert not missing, "\n".join(missing)
