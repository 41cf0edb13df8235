"""The repo benchmark: wire to disk, end to end.

    python3 benchmarks/e2e/run.py --workload serve_hot --seed 1 \\
        --seconds 10 --trace 0

One run is one lifecycle of the system: set it up (three times; the
median is ``setup_s``), warm it, drive the workload's traffic for
``--seconds``, check every view over the wire against the batch
algorithms, SIGKILL the server, recover it from its store directory and
check every view again (``recover_s``).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` runs the same lifecycle with spans
around every layer and prints the per-layer metrics instead.  The last
line of output is the result object the driver reads; see README.md for
every metric and workload.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import client  # noqa: E402
import layers  # noqa: E402
import workload as inputs  # noqa: E402
from config import (  # noqa: E402
    BATCH_SIZE,
    GRAPHS,
    SETUPS_PER_RUN,
    WARMUP_SECONDS,
    WORKLOADS,
    Workload,
)
from tracing import percentile  # noqa: E402

#: Scale of the graphs under ``--smoke`` (the tier-1 smoke test): small
#: enough that a lifecycle takes about a second.
SMOKE_SCALE = 0.3

#: Recoveries per run; ``recover_s`` is the median.
RECOVERIES_PER_RUN = 3

#: Prefix of a run's directory, made in the current directory.
RUN_DIR_PREFIX = ".bench_e2e-"


def probe_fsync_us(workspace: Path, rounds: int = 80) -> float:
    """Sustained fsync latency of the workspace filesystem, in us
    (copied from benchmarks/bench_workers.py, which is not importable
    from a benchmark that must stand on its own directory)."""
    path = workspace / "fsync-probe.bin"
    with open(path, "ab") as handle:
        started = time.perf_counter()
        for _ in range(rounds):
            handle.write(b"x" * 256)
            handle.flush()
            os.fsync(handle.fileno())
        elapsed = time.perf_counter() - started
    path.unlink()
    return elapsed / rounds * 1e6


def tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


class Run:
    """One lifecycle of one workload; owns the temp directory and every
    server process it starts, and leaves neither behind."""

    def __init__(
        self, workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.setups = 1 if smoke else SETUPS_PER_RUN
        self.recoveries = 1 if smoke else RECOVERIES_PER_RUN
        spec = GRAPHS[workload.graph]
        if smoke:
            spec = dataclasses.replace(
                spec,
                scale=SMOKE_SCALE,
                cold_nodes=spec.cold_nodes // 10,
                cold_edges=spec.cold_edges // 10,
            )
        self.spec = spec
        # inside the checkout the benchmark was started from, on the
        # filesystem whose fsync the run will pay for
        self.workspace = Path(
            tempfile.mkdtemp(prefix=RUN_DIR_PREFIX, dir=Path.cwd())
        )
        self.servers: list[client.ServerProcess] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def close(self) -> None:
        for server in self.servers:
            server.kill()
        shutil.rmtree(self.workspace, ignore_errors=True)

    # -- server lifecycle ------------------------------------------------

    def server_config(self, store: Path, recover: bool, tag: str) -> dict[str, Any]:
        workload = self.workload
        return {
            "store": str(store),
            "recover": recover,
            "graph_file": str(self.workspace / "graph.json"),
            "boundary": self.boundary,
            "load": workload.load,
            "snapshot_every": workload.snapshot_every,
            "compact_every": workload.compact_every,
            "spec": {
                "kws_keywords": self.spec.kws_keywords,
                "kws_bound": self.spec.kws_bound,
                "rpq": self.spec.rpq,
                "iso_labels": self.spec.iso_labels,
                "iso_edges": self.spec.iso_edges,
            },
            "trace_file": (
                str(self.workspace / f"trace-{tag}.json") if self.trace else None
            ),
        }

    def start(self, store: Path, recover: bool, tag: str) -> client.ServerProcess:
        server = client.ServerProcess(self.server_config(store, recover, tag))
        self.servers.append(server)
        server.wait_ready()
        return server

    def verified_start(
        self, store: Path, recover: bool, tag: str, oracle: dict[tuple[str, str], Any]
    ) -> tuple[client.ServerProcess, float]:
        """Start (or recover) a server and read every view once, checked
        against ``oracle``; returns the seconds from spawn to the last
        verified answer."""
        began = time.perf_counter()
        server = self.start(store, recover, tag)
        answers = asyncio.run(client.read_all(server.port, inputs.QUERIES))
        elapsed = time.perf_counter() - began
        self.verify(tag, answers, oracle)
        return server, elapsed

    def verify(
        self,
        tag: str,
        answers: dict[tuple[str, str], Any],
        oracle: dict[tuple[str, str], Any],
    ) -> None:
        """Count one verification read per served query; a failed read
        or an answer that differs from the batch recompute fails."""
        wrong = [
            f"{view}.{query}"
            for (view, query), expected in oracle.items()
            if answers[(view, query)] is None
            or inputs.canonical(view, query, answers[(view, query)]) != expected
        ]
        self.attempted += len(oracle)
        self.failed += len(wrong)
        if wrong:
            self.notes.append(f"{tag}: wrong answers for {wrong}")

    def trace_dump(self, tag: str) -> dict[str, Any]:
        return json.loads((self.workspace / f"trace-{tag}.json").read_text())

    # -- the lifecycle ---------------------------------------------------

    def execute(self) -> dict[str, Any]:
        workload = self.workload
        graph = inputs.base_graph(self.spec)
        self.boundary = inputs.shard_boundary(graph)
        (self.workspace / "graph.json").write_text(
            json.dumps(inputs.graph_payload(graph))
        )
        stream = inputs.generate(
            graph, self.spec, workload, self.seed, self.seconds
        )
        oracle = inputs.oracle_answers(graph, self.spec)
        if not self.smoke:
            inputs.check_nontrivial(oracle)
        fsync_us = probe_fsync_us(self.workspace)

        # 1. set up, several times; keep the last one serving
        setup_seconds: list[float] = []
        build_phases: list[dict[str, float]] = []
        for attempt in range(self.setups):
            store = self.workspace / f"store-{attempt}"
            server, elapsed = self.verified_start(
                store, False, f"setup-{attempt}", oracle
            )
            setup_seconds.append(elapsed)
            build_phases.append(server.phases)
            if attempt < self.setups - 1:
                server.quit()
                shutil.rmtree(store)
        stored_at_setup = tree_bytes(store)

        # 2. warm-up, then the measured window
        samples, start, end, before, after = asyncio.run(
            client.drive(
                server.port,
                stream,
                workload.write_rate,
                WARMUP_SECONDS,
                self.seconds,
                server,
            )
        )
        self.attempted += samples.attempted
        self.failed += samples.failed

        # 3. quiesced: every view over the wire against the batch
        #    recompute of the graph the acked batches produce
        inputs.apply_batches(graph, [stream.batches[index] for index in samples.acked])
        oracle = inputs.oracle_answers(graph, self.spec)
        self.verify(
            "after the window",
            asyncio.run(client.read_all(server.port, inputs.QUERIES)),
            oracle,
        )
        final = server.stats()
        stored_bytes = tree_bytes(store)

        # 4. crash and recover, several times: a recovery only reads the
        #    store, so each one starts from the same bytes
        if self.trace:
            server.quit()  # the dump is written on clean exit only
        recover_seconds: list[float] = []
        rss_kb = final["rss_kb"]
        for attempt in range(self.recoveries):
            crashed = time.perf_counter()
            server.kill()
            server, _ = self.verified_start(
                store, True, f"recover-{attempt}", oracle
            )
            recover_seconds.append(time.perf_counter() - crashed)
            rss_kb = max(rss_kb, server.stats()["rss_kb"])
        recovered = server
        recovered.quit()

        window = Window(samples, start, end, before, after)
        end_to_end = {
            "setup_s": (statistics.median(setup_seconds), "s"),
            "reads_per_s": (len(window.reads) / window.seconds, "1/s"),
            "read_p50_ms": (percentile(window.read_ms, 0.50), "ms"),
            "write_p50_ms": (percentile(window.write_ms, 0.50), "ms"),
            "updates_per_s": (BATCH_SIZE * window.acks / window.seconds, "1/s"),
            "recover_s": (statistics.median(recover_seconds), "s"),
            "stored_bytes_per_edge": (stored_bytes / graph.num_edges, "bytes"),
            "work_per_update": (
                sum(final["view_work"].values()) / final["updates"],
                "count",
            ),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
        per_layer = None
        if self.trace:
            per_layer = layers.per_layer_metrics(
                window=window,
                stream=stream,
                boundary=self.boundary,
                serving=self.trace_dump(f"setup-{self.setups - 1}"),
                recovery=self.trace_dump(f"recover-{self.recoveries - 1}"),
                build_phases=build_phases,
                recover_phases=recovered.phases,
                edges=graph.num_edges,
                log_bytes=stored_bytes - stored_at_setup,
                final=final,
                fsync_us=fsync_us,
                shardexec=self.shardexec_pass(stream)
                if workload.name == "ingest_durable"
                else {},
            )
        observed = self.self_check(
            window, len(samples.acked), build_phases[-1], recovered.phases, per_layer
        )
        if self.failed:
            self.notes.append(f"{self.failed} of {self.attempted} operations failed")
        return {
            "workload": workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "stream_sha256": stream.sha256,
            "samples": {
                "reads": len(window.reads),
                "writes": len(window.writes),
                "batches_acked": len(samples.acked),
                "setup_s": setup_seconds,
                "recover_s": recover_seconds,
            },
            "observed": observed,
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "fsync_us": fsync_us,
            },
            "notes": self.notes,
            "correct": not self.notes,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": entries(per_layer if self.trace else end_to_end),
            # what a user saw while the spans were being recorded: set
            # against an untraced run of the same seed, the cost of tracing
            "end_to_end_traced": entries(end_to_end) if self.trace else None,
            # do the counts depend on the seed alone (see README)?
            "counts_exact": workload.write_rate is not None,
            "claim": None,
        }

    def self_check(
        self,
        window: "Window",
        acked: int,
        build_phases: dict[str, float],
        recover_phases: dict[str, float],
        per_layer: Optional[dict[str, tuple[float, str]]],
    ) -> dict[str, float]:
        """Does the run exercise what the workload claims to?  Returns
        what was observed; a miss is a note (and an incorrect run)."""
        workload = self.workload
        hits, misses = window.cache["hits"], window.cache["misses"]
        routed, skipped, _ = window.routing
        observed = {
            "cache_hit_rate": hits / max(1, hits + misses),
            "skipped_share": skipped / max(1, routed + skipped),
            "backlog_max": window.backlog_max,
            "window_batches": window.batches,
            "incremental_saves": window.after["saves"] - window.before["saves"],
            "entries_replayed": recover_phases["entries_replayed"],
        }
        if per_layer is not None:
            observed["fsyncs_per_batch"] = per_layer["deltalog.fsyncs_per_batch"][0]
        if self.smoke:  # the smoke graphs and windows are too small
            return observed
        for name, band in (
            ("cache_hit_rate", workload.hit_rate),
            ("skipped_share", workload.skipped_share),
        ):
            if band is not None and not band[0] <= observed[name] <= band[1]:
                self.notes.append(
                    f"{name} {observed[name]:.2f} outside [{band[0]}, {band[1]}]"
                )
        if workload.write_rate is not None and window.backlog_max > workload.write_rate:
            self.notes.append(
                f"open-loop backlog reached {window.backlog_max} batches: "
                f"{workload.write_rate}/s is not sustained on this machine"
            )
        if workload.snapshot_every:
            # one incremental save per `snapshot_every` batches (the
            # window's edges can cut one off)
            due = window.batches // workload.snapshot_every - 1
            if observed["incremental_saves"] < max(1, due):
                self.notes.append(
                    f"{observed['incremental_saves']} incremental saves over "
                    f"{window.batches} batches: the snapshot policy is not firing"
                )
        elif observed["entries_replayed"] != acked:
            # no snapshot after set-up: recovery replays the whole tail
            self.notes.append(
                f"recovery replayed {observed['entries_replayed']} log entries, "
                f"{acked} batches were acked"
            )
        if workload.load == "bulk" and not build_phases.get("bulk_load_s"):
            self.notes.append("set-up did not go through Repository.bulk_load")
        if per_layer is not None and observed["fsyncs_per_batch"] < 1:
            self.notes.append(
                f"{observed['fsyncs_per_batch']:.2f} fsyncs per batch: acks are not durable"
            )
        return observed

    def shardexec_pass(self, stream: inputs.OpStream) -> dict[str, float]:
        """Counts-only pass of the resident-worker tier (see README)."""
        batches = self.workspace / "shardexec-batches.json"
        batches.write_text(json.dumps(stream.batches[:320]))
        config = {
            "store": str(self.workspace / "shardexec-store"),
            "graph_file": str(self.workspace / "graph.json"),
            "boundary": self.boundary,
            "batches_file": str(batches),
        }
        output = subprocess.run(
            [sys.executable, str(HERE / "shardexec_pass.py"), json.dumps(config)],
            capture_output=True,
            text=True,
            timeout=client.SERVER_TIMEOUT,
            check=True,
            preexec_fn=client.unpin,
        ).stdout
        return json.loads(output.splitlines()[-1])


class Window:
    """The measured window: the samples that fall inside it and the
    server counters' movement across it."""

    def __init__(
        self,
        samples: client.Samples,
        start: float,
        end: float,
        before: dict[str, Any],
        after: dict[str, Any],
    ) -> None:
        self.start, self.end = start, end
        self.seconds = end - start
        self.before, self.after = before, after
        #: movement of the server's counters across the window
        self.cache = {
            key: after["cache"][key] - before["cache"][key] for key in after["cache"]
        }
        #: (batch, view) deliveries routed / skipped, and updates delivered
        self.routing = [
            sum(
                after["routing"][view][column] - before["routing"][view][column]
                for view in after["routing"]
            )
            for column in range(3)
        ]
        self.updates = after["updates"] - before["updates"]
        self.batches = after["batches"] - before["batches"]
        self.reads = [row for row in samples.reads if start <= row[0] <= end]
        self.writes = [row for row in samples.writes if start <= row[0] <= end]
        self.opens = [row for row in samples.opens if start <= row[0] <= end]
        #: batches acked inside the window
        self.acks = sum(1 for row in samples.writes if start <= row[0] + row[1] <= end)
        self.read_ms = [row[1] * 1e3 for row in self.reads]
        self.write_ms = [row[1] * 1e3 for row in self.writes]
        self.backlog_max = samples.backlog_max
        #: reads sent before the window (to align the k-th server span
        #: with the k-th client sample)
        self.reads_before = sum(1 for row in samples.reads if row[0] < start)


def entries(metrics: dict[str, tuple[float, str]]) -> dict[str, dict[str, Any]]:
    return {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    }


def run_one(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    span_dump: Optional[Path] = None,
) -> dict[str, Any]:
    run = Run(WORKLOADS[name], seed, seconds, trace, smoke)
    try:
        return run.execute()
    finally:
        if span_dump is not None:
            span_dump.mkdir(parents=True, exist_ok=True)
            for dump in run.workspace.glob("trace-*.json"):
                shutil.copy(dump, span_dump / f"{name}-{dump.name}")
        run.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny graphs, one set-up (tests)"
    )
    parser.add_argument(
        "--span-dump", type=Path, default=None,
        help="with --trace 1: keep the servers' span dumps in this directory",
    )
    parser.add_argument(
        "--json-out", type=Path, default=None,
        help="append the full result document(s) to this JSON-lines file",
    )
    args = parser.parse_args()
    # a terminated run still unwinds: servers killed, run directory gone
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    client.pin()
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        result = run_one(
            name, args.seed, args.seconds, bool(args.trace), args.smoke, args.span_dump
        )
        print(f"== {name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        for metric, entry in result["metrics"].items():
            print(f"{metric:44s} {entry['value']:16.4f} {entry['unit']}")
        for key in ("samples", "observed", "machine", "stream_sha256", "notes"):
            print(f"{key}: {json.dumps(result[key])}")
        if args.json_out is not None:
            with open(args.json_out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(result) + "\n")
        print(
            json.dumps(
                {
                    key: result[key]
                    for key in ("correct", "attempted", "failed", "metrics")
                }
            )
        )


if __name__ == "__main__":
    main()
