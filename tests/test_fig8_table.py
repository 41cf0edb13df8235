"""The Fig. 8 table and its measurement point run, cheaply.

``benchmarks/bench_fig8.py`` reproduces the paper's sixteen panels from
one table and one ``harness.point``; a full run takes minutes, so here
the table's shape is checked and ``point`` runs once per query class on
a small graph: every maintained answer must match batch, and the metered
work must come out the same twice.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.bench_fig8 import PANELS  # noqa: E402
from benchmarks.harness import CLASSES, delta_for, point  # noqa: E402


def test_panel_ids_run_a_to_p_and_name_their_class():
    assert [panel.id[:2] for panel in PANELS] == [f"{x}-" for x in "abcdefghijklmnop"]
    for panel in PANELS:
        assert panel.id.split("-")[1] == panel.algo


def test_scc_selects_the_four_scc_panels():
    scc = [panel.id for panel in PANELS if "scc" in panel.id]
    assert scc == ["c-scc-dbpedia", "g-scc-livej", "i-scc-synthetic", "o-scc-scale"]


def test_every_panel_has_gates_and_a_claim():
    for panel in PANELS:
        assert panel.gates and all(slack >= 1.0 for slack in panel.gates.values())
        assert panel.claim.startswith(f"Fig. 8({panel.id[0]}) — ")


@pytest.mark.parametrize("panel", PANELS[:4], ids=lambda panel: panel.algo)
def test_point_cross_checks_and_meters_the_same_work_twice(panel):
    graph = panel.graph(0.1)
    query = panel.query(graph, None)
    delta = delta_for(graph, 0.01, 1)
    first, second = (point(panel.algo, graph, query, delta, "1%") for _ in range(2))
    assert set(first.work) == {"inc", "unit", "batch"}
    assert min(first.work.values()) > 0
    assert first.work == second.work
    assert set(first.extras) == ({"DynSCC"} if CLASSES[panel.algo].rival else set())


def test_point_fails_on_a_diverged_answer(monkeypatch):
    panel = next(panel for panel in PANELS if panel.algo == "scc")
    broken = dataclasses.replace(CLASSES["scc"], answer=lambda index: set())
    monkeypatch.setitem(CLASSES, "scc", broken)
    graph = panel.graph(0.1)
    with pytest.raises(AssertionError, match="IncSCC diverged"):
        point("scc", graph, None, delta_for(graph, 0.01, 1), "1%")
