"""Tests for the ``repro-lint`` static-analysis suite.

Three layers keep the rules honest:

* **fixture tests** — for every rule, a ``flag_*`` snippet it must
  flag (with the expected finding count) and a ``pass_*`` snippet it
  must leave alone, installed into a synthetic project tree at the
  path the rule scopes to;
* **framework tests** — suppression comments, the baseline workflow,
  parse-error reporting, the protocol-drift self-guard, and CLI exit
  codes;
* **the self-run** — the full suite over this repository's ``src/``
  must be clean with an *empty* baseline; this is the tier-1 gate that
  keeps future PRs from eroding the invariants the rules encode.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.analysis import Project, run_checkers  # noqa: E402
from tools.analysis.__main__ import DEFAULT_BASELINE, main  # noqa: E402
from tools.analysis.checkers import ALL_CHECKERS, checkers_by_name  # noqa: E402
from tools.analysis.core import load_baseline  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "analysis_fixtures"

#: rule id -> (fixture dir, where the .py fixture lands in the
#: synthetic project, expected finding count from the flag fixture)
RULES = {
    "durability": ("durability", "src/repro/persist/mod.py", 4),
    "spec-drift": ("spec_drift", "src/repro/persist/mod.py", 2),
    "concurrency": ("concurrency", "src/repro/engine/mod.py", 2),
    "serving": ("serving", "src/repro/serving/mod.py", 2),
    "view-protocol": ("view_protocol", "src/repro/kws/mod.py", 7),
    "exceptions": ("exceptions", "src/repro/engine/mod.py", 2),
    "docstrings": ("docstrings", "src/repro/engine/mod.py", 4),
    "ipc": ("ipc", "src/repro/shardexec/mod.py", 5),
}


def build_project(tmp_path: Path, rule: str, kind: str) -> Path:
    """Install the rule's ``kind`` (flag/pass) fixture into a synthetic
    repo tree under ``tmp_path`` and return that root."""
    fixture_dir, target, _ = RULES[rule]
    source = FIXTURES / fixture_dir / f"{kind}_{fixture_dir}.py"
    destination = tmp_path / target
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(
        source.read_text(encoding="utf-8"), encoding="utf-8"
    )
    formats = FIXTURES / fixture_dir / "FORMATS.md"
    if formats.is_file():
        docs = tmp_path / "docs"
        docs.mkdir(exist_ok=True)
        (docs / "FORMATS.md").write_text(
            formats.read_text(encoding="utf-8"), encoding="utf-8"
        )
    return tmp_path


def run_rule(root: Path, rule: str):
    """Run exactly one rule over a synthetic project."""
    project = Project(root, [Path("src")])
    return run_checkers(project, checkers_by_name([rule]))


@pytest.mark.parametrize("rule", sorted(RULES))
def test_flag_fixture_is_flagged(tmp_path, rule):
    root = build_project(tmp_path, rule, "flag")
    findings = run_rule(root, rule)
    assert findings, f"{rule}: flag fixture produced no findings"
    assert {finding.rule for finding in findings} == {rule}
    assert len(findings) == RULES[rule][2], [
        finding.render() for finding in findings
    ]


@pytest.mark.parametrize("rule", sorted(RULES))
def test_pass_fixture_is_clean(tmp_path, rule):
    root = build_project(tmp_path, rule, "pass")
    findings = run_rule(root, rule)
    assert findings == [], [finding.render() for finding in findings]


@pytest.mark.parametrize("rule", sorted(RULES))
def test_suppression_comment_silences_py_findings(tmp_path, rule):
    """Appending ``# repro-lint: ignore[rule]`` to each flagged line
    silences exactly the findings in python files (doc-side findings,
    e.g. spec-drift's stale-catalogue row, are not suppressible)."""
    root = build_project(tmp_path, rule, "flag")
    before = run_rule(root, rule)
    target = root / RULES[rule][1]
    lines = target.read_text(encoding="utf-8").splitlines()
    for finding in before:
        if finding.path.endswith(".py"):
            index = finding.line - 1
            lines[index] += f"  # repro-lint: ignore[{rule}]"
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    after = run_rule(root, rule)
    assert all(not finding.path.endswith(".py") for finding in after)
    assert len(after) < len(before)


def test_specific_durability_messages(tmp_path):
    root = build_project(tmp_path, "durability", "flag")
    rendered = "\n".join(f.render() for f in run_rule(root, "durability"))
    assert "without an os.fsync" in rendered
    assert "fsync_directory" in rendered
    assert "write_text" in rendered
    assert "gzip.open" in rendered
    assert "codec wrapper" in rendered


def test_spec_drift_reports_both_directions(tmp_path):
    root = build_project(tmp_path, "spec-drift", "flag")
    findings = run_rule(root, "spec-drift")
    messages = {finding.message for finding in findings}
    assert any("%bogus-header" in message for message in messages)
    assert any("%commit" in message for message in messages)
    doc_paths = {f.path for f in findings if f.path.endswith("FORMATS.md")}
    assert doc_paths == {"docs/FORMATS.md"}


def _install_dataflow_fixture(tmp_path, kind: str, target: str) -> Path:
    """Install a dataflow view-protocol fixture at ``target`` in a
    synthetic tree (outside the RULES table: the rule id already has a
    fixture row, and ``test_all_rules_registered`` pins the key set)."""
    source = FIXTURES / "view_protocol" / f"{kind}_view_protocol_dataflow.py"
    destination = tmp_path / target
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(
        source.read_text(encoding="utf-8"), encoding="utf-8"
    )
    return tmp_path


def test_view_protocol_dataflow_any_method_triggers(tmp_path):
    """Under ``src/repro/dataflow/`` a class defining any protocol
    method is held to the full table: the partial view (apply/snapshot/
    relevance, no absorb, no IncrementalView base) does not subclass the
    protocol, overrides its apply, and is missing three required
    methods."""
    root = _install_dataflow_fixture(tmp_path, "flag", "src/repro/dataflow/mod.py")
    findings = run_rule(root, "view-protocol")
    assert len(findings) == 5, [finding.render() for finding in findings]
    missing = {
        name
        for finding in findings
        for name in ("absorb", "restore", "empty_output")
        if f"missing {name}" in finding.message
    }
    assert missing == {"absorb", "restore", "empty_output"}
    messages = " ".join(finding.message for finding in findings)
    assert "does not subclass IncrementalView" in messages
    assert "PartialUserView.apply overrides" in messages


def test_view_protocol_subclass_is_a_candidate(tmp_path):
    """An ``IncrementalView`` subclass is checked even without the
    absorb+snapshot pair: forgetting absorb is a finding."""
    target = tmp_path / "src" / "repro" / "kws" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        '"""Module."""\n\n\n'
        "class HalfView(IncrementalView):\n"
        '    """Writes persistence and routing, forgets absorb."""\n\n'
        "    def snapshot(self):\n"
        '        """Serialize."""\n\n'
        "    @classmethod\n"
        "    def restore(cls, graph, state, meter):\n"
        '        """Rebuild."""\n\n'
        "    def relevance(self):\n"
        '        """Filter."""\n\n'
        "    def empty_output(self):\n"
        '        """Empty."""\n',
        encoding="utf-8",
    )
    findings = run_rule(tmp_path, "view-protocol")
    assert ["missing absorb" in finding.message for finding in findings] == [True]


def test_view_protocol_pair_trigger_unchanged_outside_dataflow(tmp_path):
    """The same partial class outside ``src/repro/dataflow/`` never
    becomes a candidate — the absorb+snapshot pair trigger is intact."""
    root = _install_dataflow_fixture(tmp_path, "flag", "src/repro/kws/mod.py")
    assert run_rule(root, "view-protocol") == []


def test_view_protocol_dataflow_conforming_view_is_clean(tmp_path):
    root = _install_dataflow_fixture(tmp_path, "pass", "src/repro/dataflow/mod.py")
    findings = run_rule(root, "view-protocol")
    assert findings == [], [finding.render() for finding in findings]


def test_view_protocol_drift_guard(tmp_path):
    """Extending the protocol class forces the rule table to catch up."""
    view = tmp_path / "src" / "repro" / "engine" / "view.py"
    view.parent.mkdir(parents=True)
    view.write_text(
        '"""Protocol module."""\n\n\n'
        "class IncrementalView:\n"
        '    """Protocol."""\n\n'
        "    def migrate(self, other):\n"
        '        """A brand-new protocol method."""\n',
        encoding="utf-8",
    )
    findings = run_rule(tmp_path, "view-protocol")
    assert len(findings) == 1
    assert "migrate" in findings[0].message


def test_parse_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "src" / "repro" / "engine" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def broken(:\n", encoding="utf-8")
    project = Project(tmp_path, [Path("src")])
    findings = run_checkers(project, list(ALL_CHECKERS))
    assert [finding.rule for finding in findings] == ["parse-error"]


def test_unknown_rule_is_an_error():
    with pytest.raises(ValueError):
        checkers_by_name(["no-such-rule"])


def test_cli_baseline_workflow(tmp_path, capsys):
    """Findings can be accepted into a baseline, which then gates only
    *new* findings."""
    root = build_project(tmp_path, "concurrency", "flag")
    argv = ["src", "--root", str(root)]
    assert main(argv) == 1
    assert main(argv + ["--update-baseline"]) == 0
    assert (root / DEFAULT_BASELINE).is_file()
    assert main(argv) == 0  # legacy findings are baselined
    target = root / RULES["concurrency"][1]
    target.write_text(
        target.read_text(encoding="utf-8")
        + "\n\ndef another():\n"
        + '    """New unsynchronized write."""\n'
        + "    global _FLAG\n"
        + "    _FLAG = False\n",
        encoding="utf-8",
    )
    assert main(argv) == 1  # the new finding is not baselined
    capsys.readouterr()


def test_cli_list_rules_and_usage_errors(tmp_path, capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for checker in ALL_CHECKERS:
        assert checker.name in out
    assert main(["src", "--root", str(tmp_path / "nowhere")]) == 2
    root = build_project(tmp_path, "docstrings", "pass")
    assert main(["src", "--root", str(root), "--rules", "bogus"]) == 2
    capsys.readouterr()


def test_self_run_repository_is_clean(capsys):
    """The tier-1 gate: the full suite over src/ is clean, and the
    committed baseline is empty (nothing grandfathered)."""
    assert load_baseline(REPO_ROOT / DEFAULT_BASELINE) == frozenset()
    status = main(["src", "--root", str(REPO_ROOT), "--no-baseline"])
    output = capsys.readouterr().out
    assert status == 0, output
    assert "0 finding(s)" in output


def test_serving_rule_respects_the_locked_suffix_convention(tmp_path):
    """A ``*_locked`` method writing state bare is sanctioned; renaming
    it away from the convention resurrects the finding."""
    root = build_project(tmp_path, "serving", "pass")
    target = root / RULES["serving"][1]
    text = target.read_text(encoding="utf-8")
    assert run_rule(root, "serving") == []
    target.write_text(
        text.replace("_publish_locked", "_publish_inner"), encoding="utf-8"
    )
    findings = run_rule(root, "serving")
    assert len(findings) == 1
    assert "_publish_inner" in findings[0].message


def test_ipc_rule_keys_on_producer_annotations(tmp_path):
    """A producer's return annotation is what sanctions its result;
    dropping the annotation resurrects the finding."""
    root = build_project(tmp_path, "ipc", "pass")
    target = root / RULES["ipc"][1]
    text = target.read_text(encoding="utf-8")
    assert run_rule(root, "ipc") == []
    target.write_text(text.replace(" -> SealAck", ""), encoding="utf-8")
    findings = run_rule(root, "ipc")
    assert len(findings) == 1
    assert "seal" in findings[0].message


def test_all_rules_registered():
    assert len(ALL_CHECKERS) >= 7
    assert {checker.name for checker in ALL_CHECKERS} == set(RULES)
