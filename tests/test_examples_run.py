"""Smoke tests: every example script must run end to end.

The examples contain their own correctness asserts (incremental answers
vs. from-scratch recomputation), so a clean run is a real check, not just
an import test.  Stdout is swallowed to keep test output readable.

``quickstart`` (which drives a sharded four-view engine in its finale)
is additionally run under both executor strategies — ``serial`` and
``workers`` — via the ``REPRO_ENGINE_EXECUTOR`` environment variable, so
the executor matrix is exercised even when the surrounding test session
pins a single strategy.
"""

import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    path for path in (Path(__file__).parent.parent / "examples").glob("*.py")
)
EXECUTORS = ("serial", "workers")


def run_example(script) -> str:
    buffer = io.StringIO()
    argv_before = sys.argv
    sys.argv = [str(script)]
    try:
        with contextlib.redirect_stdout(buffer):
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv_before
    return buffer.getvalue()


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    output = run_example(script)
    assert output, f"{script.name} produced no output"


@pytest.mark.parametrize("executor", EXECUTORS)
def test_quickstart_runs_under_every_executor(executor, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_EXECUTOR", executor)
    script = next(path for path in EXAMPLES if path.stem == "quickstart")
    output = run_example(script)
    assert f"({executor} dispatch)" in output


def test_examples_exist():
    names = {path.stem for path in EXAMPLES}
    assert "quickstart" in names
    assert len(names) >= 4  # quickstart + three domain scenarios
