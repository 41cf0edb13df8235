"""Smoke test of the end-to-end benchmark (collected by tier-1).

Runs every workload once with ``--smoke`` (tiny graphs, one set-up, a
one-second window) and checks what must hold on any machine: the
emitted metric names are exactly ``BENCHMARK.json``'s, no operation
fails, every oracle passes, and the inputs and counts depend on the
seed alone.  Nothing here asserts a timing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def smoke(workload: str, seed: int, trace: int, out: Path) -> dict:
    out.unlink(missing_ok=True)
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--smoke",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--json-out", str(out),
        ],
        # run directories are made in the current directory: a private
        # one, so the leftover check below sees this test's runs only
        cwd=out.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    last_line = json.loads(completed.stdout.splitlines()[-1])
    assert set(last_line) == {"correct", "attempted", "failed", "metrics"}
    document = json.loads(out.read_text())
    assert document["metrics"] == last_line["metrics"]
    return document


def test_smoke(tmp_path):
    # (workload, seed, trace): every workload untraced, one repeated and
    # one re-seeded for the exactness checks, one traced (the one that
    # also runs the shardexec pass)
    cases = [(name, 1, 0) for name in WORKLOADS]
    cases += [("serve_hot", 1, 0), ("serve_hot", 2, 0), ("ingest_durable", 1, 1)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        documents = list(
            pool.map(
                lambda case: smoke(*case[1], tmp_path / f"run-{case[0]}.jsonl"),
                enumerate(cases),
            )
        )
    for document in documents:
        assert document["correct"], document["notes"]
        assert document["failed"] == 0
        assert document["attempted"] >= 1
        assert document["claim"] is None
        expected = BENCHMARK["per_layer" if document["trace"] else "end_to_end"]
        assert list(document["metrics"]) == [metric["name"] for metric in expected]
        for metric in expected:
            assert document["metrics"][metric["name"]]["unit"] == metric["unit"]
    count = len(WORKLOADS)
    assert [document["workload"] for document in documents[:count]] == WORKLOADS

    first, again, reseeded = documents[0], documents[count], documents[count + 1]
    assert first["workload"] == again["workload"] == reseeded["workload"] == "serve_hot"
    for exact in ("work_per_update", "stored_bytes_per_edge"):
        assert first["metrics"][exact] == again["metrics"][exact]
    assert first["stream_sha256"] == again["stream_sha256"]
    assert first["stream_sha256"] != reseeded["stream_sha256"]
    assert first["metrics"]["work_per_update"] != reseeded["metrics"]["work_per_update"]
    # nothing is left behind: no run directory, no server
    assert not list(tmp_path.glob(".bench_e2e-*"))
