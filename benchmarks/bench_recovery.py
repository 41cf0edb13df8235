#!/usr/bin/env python
"""Crash recovery: cursor-routed replay vs. broadcast replay vs. rebuild.

A session maintaining all four view classes (KWS, RPQ, SCC, ISO) runs a
stream of update batches over the paper-profile datasets (Section 6
shapes: dbpedia-like label skew, livej-like giant SCC) with a
:class:`repro.persist.SnapshotStore` journaling every batch.  A snapshot
is saved part-way through the stream; the remaining batches — a
label-*skewed* tail, the workload shape relevance routing exists for —
land only in the write-ahead log.  Then the process "crashes", and the
session is brought back three ways:

* **cursor replay** — ``SnapshotStore.load()``: deserialize graph + view
  snapshots (entry writes, one counter scan — no Tarjan, no VF2, no
  keyword BFS), then replay each log entry past each view's replay
  cursor, routed through the relevance filters, so a view the tail
  cannot affect absorbs nothing;
* **full replay** — ``SnapshotStore.load(routed=False)``: the same
  snapshot restore, but the tail is broadcast to every view (the
  pre-cursor recovery path);
* **rebuild** — the no-persistence baseline: reconstruct every index
  from scratch on the final graph (BLINKS-style KWS BFS, RPQ_NFA
  product BFS, Tarjan + condensation, VF2).

All three must produce identical answers; the reproduced claim is that
the persistence substrate preserves the paper's incremental wins across
process boundaries — restart cost stops being a rebuild, and replay cost
scales with what the tail can actually touch.

Run:  PYTHONPATH=src python benchmarks/bench_recovery.py
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import random

from repro import Engine
from repro.core.delta import Delta
from repro.core.delta import delete as delete_update
from repro.core.delta import insert as insert_update
from repro.graph.digraph import DiGraph
from repro.graph.updates import random_delta
from repro.iso import ISOIndex
from repro.kws import KWSIndex
from repro.persist import SnapshotStore
from repro.rpq import RPQIndex
from repro.scc import SCCIndex
from repro.workloads import (
    by_name,
    random_kws_queries,
    random_patterns,
    random_rpq_queries,
)

ROUNDS = 10
TAIL_ROUNDS = 5  # rounds applied after the snapshot (the replayed tail)
BATCH_SIZE = 40

#: (dataset profile, scale) sweep points — the Section 6 shapes at
#: laptop scale, matching the Fig. 8 panels of ``bench_fig8.py``.
POINTS = [("dbpedia", 0.5), ("dbpedia", 1.0), ("livej", 1.0)]


def emit(text: str = "") -> None:
    print(text, file=sys.stdout, flush=True)


def standing_queries(graph: DiGraph, seed: int) -> tuple:
    """One query per class, drawn by the paper-style generators."""
    kws_query = random_kws_queries(graph, count=1, m=3, bound=3, seed=seed)[0]
    rpq_query = random_rpq_queries(graph, count=1, size=4, stars=1, seed=seed)[0]
    pattern = random_patterns(
        graph, count=1, num_nodes=4, num_edges=4, diameter=2, seed=seed
    )[0]
    return kws_query, rpq_query, pattern


def four_view_engine(graph: DiGraph, queries: tuple) -> Engine:
    kws_query, rpq_query, pattern = queries
    engine = Engine(graph)
    engine.register("kws", lambda g, m: KWSIndex(g, kws_query, meter=m))
    engine.register("rpq", lambda g, m: RPQIndex(g, str(rpq_query), meter=m))
    engine.register("scc", lambda g, m: SCCIndex(g, meter=m))
    engine.register("iso", lambda g, m: ISOIndex(g, pattern, meter=m))
    return engine


def query_labels(queries: tuple) -> set:
    """Labels the standing queries can react to (keywords, RPQ alphabet
    identifiers, pattern node labels) — the *hot* side of the skew."""
    import re as _re

    kws_query, rpq_query, pattern = queries
    hot = set(kws_query.keywords)
    hot.update(_re.findall(r"[A-Za-z0-9_]+", str(rpq_query)))
    hot.update(pattern.label_multiset())
    return hot


def cold_pool(scratch: DiGraph, queries: tuple) -> list:
    """Nodes the standing queries provably cannot react to: cold-labeled
    (outside every query's label set) *and* outside every keyword's
    b-neighborhood (no kdist entry), as of the snapshot point.  Edges
    churned strictly inside this pool cannot create kdist entries either
    (no pool node reaches a keyword), so the whole tail stays cold."""
    kws_query, _, _ = queries
    hot = query_labels(queries)
    probe = KWSIndex(scratch.copy(), kws_query)
    pool = [
        node
        for node in scratch.nodes()
        if scratch.label(node) not in hot
        and all(
            probe.kdist.get(node, keyword) is None
            for keyword in kws_query.keywords
        )
    ]
    if len(pool) < 8:  # degenerate profile: fall back to label-cold only
        pool = [
            node for node in scratch.nodes() if scratch.label(node) not in hot
        ]
    return pool if len(pool) >= 8 else list(scratch.nodes())


def skewed_tail_delta(
    scratch: DiGraph, size: int, pool: list, seed: int
) -> Delta:
    """An applicable batch churning edges strictly inside the cold pool —
    the shape where relevance routing skips every label- and
    distance-driven view and cursor replay has the least to deliver."""
    rng = random.Random(seed)
    edges = set(scratch.edges())
    updates = []
    while len(updates) < size:
        source, target = rng.sample(pool, 2)
        if (source, target) in edges:
            updates.append(delete_update(source, target))
            edges.discard((source, target))
        else:
            updates.append(insert_update(source, target))
            edges.add((source, target))
    return Delta(updates)


def delta_stream(base: DiGraph, batch_size: int, queries: tuple) -> list[Delta]:
    """ROUNDS batches: a mixed-label body, then a cold-skewed tail (the
    TAIL_ROUNDS replayed from the log after the crash)."""
    labels = sorted(set(base.labels.values()), key=str)
    scratch = base.copy()
    deltas = []
    pool = None
    for round_number in range(ROUNDS):
        if round_number >= ROUNDS - TAIL_ROUNDS:
            if pool is None:  # computed once, at the snapshot point
                pool = cold_pool(scratch, queries)
            delta = skewed_tail_delta(
                scratch, batch_size, pool, seed=9_000 + round_number
            )
        else:
            delta = random_delta(
                scratch,
                batch_size,
                seed=9_000 + round_number,
                new_node_fraction=0.05,
                alphabet=labels,
            )
        delta.apply_to(scratch)
        deltas.append(delta)
    return deltas


def answers(engine: Engine) -> tuple:
    return (
        engine["kws"].roots(),
        engine["rpq"].matches,
        engine["scc"].components(),
        engine["iso"].matches,
    )


def run_point(profile: str, scale: float, root: Path) -> tuple:
    base = by_name(profile, scale=scale, seed=5)
    queries = standing_queries(base, seed=7)
    deltas = delta_stream(base, BATCH_SIZE, queries)

    # The interrupted session: journal everything, snapshot before the tail.
    engine = four_view_engine(base.copy(), queries)
    store = SnapshotStore(root)
    store.attach(engine)
    for delta in deltas[: ROUNDS - TAIL_ROUNDS]:
        engine.apply(delta)
    store.save(engine)
    save_report = store.last_save_report
    for delta in deltas[ROUNDS - TAIL_ROUNDS:]:
        engine.apply(delta)
    expected = answers(engine)
    final_graph = engine.graph
    del engine  # the crash

    store.load(attach_journal=False)  # warm the page cache and imports
    recovered, cursor_report = None, None
    full_report = None
    for _ in range(3):  # min-of-3: loads are fast enough to jitter
        recovered = store.load(attach_journal=False)
        report = store.last_load_report
        if cursor_report is None or (
            report.replay_seconds < cursor_report.replay_seconds
        ):
            cursor_report = report
        broadcast = store.load(attach_journal=False, routed=False)
        report = store.last_load_report
        if full_report is None or (
            report.replay_seconds < full_report.replay_seconds
        ):
            full_report = report
        assert answers(broadcast) == expected, "full-tail replay diverged"
    assert answers(recovered) == expected, "cursor replay diverged"
    assert recovered.graph == final_graph, "recovered graph diverged"

    started = time.perf_counter()
    rebuilt = four_view_engine(final_graph.copy(), queries)
    rebuild_seconds = time.perf_counter() - started
    assert answers(rebuilt) == expected, "cold rebuild diverged"

    snapshot_kb = store.snapshot_path.stat().st_size / 1024
    log_kb = sum(path.stat().st_size for path in store.log.segment_paths()) / 1024
    return (
        final_graph,
        cursor_report,
        full_report,
        save_report,
        rebuild_seconds,
        snapshot_kb,
        log_kb,
    )


def main() -> None:
    emit(
        f"4 views per session, {ROUNDS} rounds of |dG|={BATCH_SIZE}, snapshot "
        f"taken {TAIL_ROUNDS} rounds before the crash; the replayed tail is "
        f"cold-label skewed"
    )
    emit()
    header = (
        f"{'workload':>14} | {'graph':>28} | {'restore (ms)':>12} | "
        f"{'cursor replay':>13} | {'full replay':>11} | {'rebuild (ms)':>12} | "
        f"{'vs full':>7} | {'vs rebuild':>10} | {'snap KB':>7} | {'log KB':>6}"
    )
    emit(header)
    emit("-" * len(header))
    slower_points = 0
    splits = []
    with tempfile.TemporaryDirectory(prefix="repro-recovery-") as tmp:
        for position, (profile, scale) in enumerate(POINTS):
            graph, cursor, full, save, rebuild_s, snap_kb, log_kb = run_point(
                profile, scale, Path(tmp) / f"store-{position}"
            )
            splits.append((f"{profile} x{scale}", cursor, save))
            if cursor.replay_seconds >= full.replay_seconds:
                slower_points += 1
            total = cursor.restore_seconds + cursor.replay_seconds
            emit(
                f"{f'{profile} x{scale}':>14} | {str(graph):>28} | "
                f"{cursor.restore_seconds * 1e3:>12.1f} | "
                f"{cursor.replay_seconds * 1e3:>13.1f} | "
                f"{full.replay_seconds * 1e3:>11.1f} | "
                f"{rebuild_s * 1e3:>12.1f} | "
                f"{full.replay_seconds / max(cursor.replay_seconds, 1e-9):>6.1f}x | "
                f"{rebuild_s / max(total, 1e-9):>9.1f}x | "
                f"{snap_kb:>7.1f} | {log_kb:>6.1f}"
            )
    emit()
    views = list(splits[0][1].view_seconds)
    header = (
        f"{'workload':>14} | {'restore (ms)':>12} | {'parse':>7} | "
        + " | ".join(f"{name:>7}" for name in views)
        + f" | {'save (ms)':>9} | "
        + " | ".join(f"{name:>7}" for name in views)
    )
    emit(header)
    emit("-" * len(header))
    for workload, report, save in splits:
        emit(
            f"{workload:>14} | {report.restore_seconds * 1e3:>12.1f} | "
            f"{report.parse_seconds * 1e3:>7.1f} | "
            + " | ".join(f"{report.view_seconds[name] * 1e3:>7.1f}" for name in views)
            + f" | {save.seconds * 1e3:>9.1f} | "
            + " | ".join(f"{save.view_seconds[name] * 1e3:>7.1f}" for name in views)
        )
    emit()
    emit("restore       = parse snapshot, rebuild graph + views (shared by both")
    emit("                replay modes; SnapshotStore.last_load_report.restore_seconds);")
    emit("cursor replay = each log entry past each view's replay cursor, routed")
    emit("                through relevance filters (SnapshotStore.load());")
    emit("full replay   = the same tail broadcast to every view")
    emit("                (SnapshotStore.load(routed=False), the pre-cursor path);")
    emit("rebuild       = from-scratch index construction on the final graph")
    emit("                (KWS BFS + RPQ_NFA + Tarjan + VF2, |G|-sized work);")
    emit("vs rebuild    = rebuild / (restore + cursor replay);")
    emit("parse         = read and split the file, parse every body, build the")
    emit("                graph (LoadReport.parse_seconds); one column per view:")
    emit("                its class's restore (LoadReport.view_seconds);")
    emit("save          = the full save before the tail (SaveReport.seconds); one")
    emit("                column per view: its snapshot() plus rendering and")
    emit("                writing its body (SaveReport.view_seconds).")
    if slower_points:
        emit()
        emit(
            f"WARNING: cursor replay was not cheaper at {slower_points} "
            f"point(s) — expected strictly cheaper on the skewed tail."
        )


if __name__ == "__main__":
    main()
