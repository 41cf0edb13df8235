#!/usr/bin/env python
"""Incremental dataflow maintenance vs. recompute-per-batch.

Two standing dataflow views — ``triangle-count`` (a three-atom
``multijoin`` + canonical rotation + distinct + count) and
``edge-label-count`` (map + group-aggregate) — are maintained through a
skewed update stream in both regimes:

* **incremental** — one :class:`~repro.dataflow.DataflowView` built
  once, each batch absorbed through ``stabilize()`` (dirty-only,
  topological, with cutoff: work proportional to the change);
* **recompute**   — the same program re-run from scratch over the
  updated graph after every batch (what you'd do without the runtime:
  every join, aggregation, and canonical rotation re-derived from all
  of G).

The stream is **skewed** the way real churn is: batches are small
relative to the graph (|dG| ≪ |E|) and concentrated on a hot region,
so an incremental engine touches a neighborhood while recompute pays
|G| every round.  Both regimes are cross-checked to identical answers
after every batch; the run fails unless incremental maintenance wins
by at least 2x on every program — the change-proportionality claim the
dataflow layer inherits from the paper's incremental-computation
story, measured end to end.

A second series grows a **hub** (k edges into one node, k out of it, a
tenth of the k² wedges' worth of closing edges): the rows
``triangle-count``'s dataflow graph holds (``describe()``) must not
depend on |E| at all — its inputs are views of the graph and its join
probes the graph's adjacency, so it holds its output and nothing else,
where a binary join chain would materialise the k² wedges — and
maintaining it through hub-edge updates must beat recompute by the same
2x.  The bytes the built view retains (``tracemalloc``) are printed
beside the rows.

Run:  PYTHONPATH=src python benchmarks/bench_dataflow.py
"""

from __future__ import annotations

import gc
import random
import sys
import time
import tracemalloc

from repro.core.cost import CostMeter
from repro.core.delta import Delta, delete, insert
from repro.dataflow import DataflowView
from repro.graph.digraph import DiGraph
from repro.graph.generators import label_alphabet, uniform_random_graph

NUM_NODES = 800
NUM_EDGES = 3200
ROUNDS = 6
BATCH_SIZE = 40
#: Fraction of each batch drawn from the hot region (first HOT_NODES
#: node ids) — the skew that makes per-batch change small and local.
SKEW = 0.8
HOT_NODES = 120
ALPHABET = label_alphabet(6)
REQUIRED_SPEEDUP = 2.0

PROGRAMS = ("triangle-count", "edge-label-count")

#: Hub sizes of the second series (k in-edges and k out-edges).
HUB_SIZES = (100, 200, 400, 800)
HUB_BATCH = 4


def emit(text: str = "") -> None:
    print(text, file=sys.stdout, flush=True)


def skewed_delta(scratch: DiGraph, rng: random.Random) -> Delta:
    """A normalized, applicable batch concentrated on the hot region."""
    nodes = list(scratch.nodes())
    hot = nodes[:HOT_NODES]
    present = set(scratch.edges())
    touched: set = set()
    updates = []
    attempts = 0
    while len(updates) < BATCH_SIZE and attempts < 400 * BATCH_SIZE:
        attempts += 1
        pool = hot if rng.random() < SKEW else nodes
        source = pool[rng.randrange(len(pool))]
        target = pool[rng.randrange(len(pool))]
        if source == target:
            continue
        edge = (source, target)
        if edge in touched:
            continue
        if edge in present:
            updates.append(delete(*edge))
            present.discard(edge)
        else:
            updates.append(insert(*edge))
            present.add(edge)
        touched.add(edge)
    return Delta(updates)


def delta_stream(base: DiGraph) -> list[Delta]:
    rng = random.Random(41)
    scratch = base.copy()
    deltas = []
    for _ in range(ROUNDS):
        delta = skewed_delta(scratch, rng)
        delta.apply_to(scratch)
        deltas.append(delta)
    return deltas


def rows_held(described: list[dict]) -> int:
    """Rows the described dataflow nodes store themselves — values,
    indexes, arrangements; an input that is a view of the graph stores
    none."""
    return sum(node["held_rows"] for node in described)


def bytes_held(base: DiGraph, program: str) -> int:
    """Bytes a freshly built view retains (a separate, traced build)."""
    graph = base.copy()
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        view = DataflowView(graph, program)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del view
    return after - before


def run_incremental(base: DiGraph, deltas: list[Delta], program: str):
    """Build once, maintain per batch; returns (maintenance seconds,
    answers, maintenance work, build seconds, ``describe()`` at the
    end)."""
    meter = CostMeter()
    started = time.perf_counter()
    view = DataflowView(base.copy(), program, meter=meter)
    build_s = time.perf_counter() - started
    build_work = meter.total()
    answers = []
    started = time.perf_counter()
    for delta in deltas:
        view.apply(delta)
        answers.append(view.value())
    elapsed = time.perf_counter() - started
    return elapsed, answers, meter.total() - build_work, build_s, view.describe()


def run_recompute(base: DiGraph, deltas: list[Delta], program: str):
    """Re-derive the program from scratch after every batch."""
    scratch = base.copy()
    answers = []
    meter = CostMeter()
    started = time.perf_counter()
    for delta in deltas:
        delta.apply_to(scratch)
        answers.append(DataflowView(scratch, program, meter=meter).value())
    elapsed = time.perf_counter() - started
    return elapsed, answers, meter.total()


def hub_graph(k: int) -> DiGraph:
    """Spokes 1..k point at hub 0, which points at k+1..2k: 2k edges
    carrying k² wedges; every tenth out-spoke closes a triangle."""
    graph = DiGraph(labels={node: ALPHABET[0] for node in range(2 * k + 1)})
    for spoke in range(1, k + 1):
        graph.add_edge(spoke, 0)
        graph.add_edge(0, k + spoke)
    for spoke in range(1, k + 1, 10):
        graph.add_edge(k + spoke, spoke)
    return graph


def hub_stream(k: int) -> list[Delta]:
    """Hub-edge churn: each batch drops two in-spokes and toggles the
    edges that close a triangle through them."""
    deltas = []
    for round_ in range(ROUNDS):
        first = 1 + HUB_BATCH * round_
        updates = []
        for spoke in range(first, first + HUB_BATCH // 2):
            updates.append(delete(spoke, 0))
            closing = (k + spoke, spoke)
            updates.append(
                delete(*closing) if spoke % 10 == 1 else insert(*closing)
            )
        deltas.append(Delta(updates))
    return deltas


def main() -> None:
    base = uniform_random_graph(NUM_NODES, NUM_EDGES, ALPHABET, seed=37)
    deltas = delta_stream(base)
    emit(
        f"graph: {base}, {ROUNDS} rounds of |dG|={BATCH_SIZE} "
        f"({SKEW:.0%} on a {HOT_NODES}-node hot region)"
    )
    emit()
    header = (
        f"{'program':>17} | {'incremental (ms)':>16} | {'recompute (ms)':>14} | "
        f"{'speedup':>7} | {'work ratio':>10} | {'rows held':>9}"
    )
    emit(header)
    emit("-" * len(header))
    failures = []
    for program in PROGRAMS:
        inc_s, inc_answers, inc_work, _, described = run_incremental(
            base, deltas, program
        )
        rec_s, rec_answers, rec_work = run_recompute(base, deltas, program)
        assert inc_answers == rec_answers, f"{program}: regimes diverged"
        speedup = rec_s / max(inc_s, 1e-9)
        work_ratio = rec_work / max(inc_work, 1)
        emit(
            f"{program:>17} | {inc_s * 1e3:>16.1f} | {rec_s * 1e3:>14.1f} | "
            f"{speedup:>6.1f}x | {work_ratio:>9.1f}x | {rows_held(described):>9}"
        )
        if speedup < REQUIRED_SPEEDUP:
            failures.append((program, speedup))
    emit()
    emit("incremental = one DataflowView maintained via stabilize() per batch;")
    emit("recompute   = the program re-run from scratch on G after every batch;")
    emit("work ratio  = metered cost units (visits+probes+writes+pq), ")
    emit("              recompute / incremental — the wall-clock-free measure;")
    emit("rows held   = rows the nodes store themselves (value, index, arrangement);")
    emit("              the two inputs are views of the graph and store none.")
    emit()
    emit(
        f"triangle-count on a hub (k in, k out, k/10 closing edges), "
        f"{ROUNDS} rounds of |dG|={HUB_BATCH} hub-edge updates"
    )
    emit()
    header = (
        f"{'k':>5} | {'|E|':>6} | {'wedges':>7} | {'build (ms)':>10} | "
        f"{'rows held':>9} | {'bytes held':>10} | {'incremental (ms)':>16} | "
        f"{'recompute (ms)':>14} | {'speedup':>7}"
    )
    emit(header)
    emit("-" * len(header))
    for k in HUB_SIZES:
        hub = hub_graph(k)
        stream = hub_stream(k)
        inc_s, inc_answers, _, build_s, described = run_incremental(
            hub, stream, "triangle-count"
        )
        held = rows_held(described)
        rec_s, rec_answers, _ = run_recompute(hub, stream, "triangle-count")
        assert inc_answers == rec_answers, f"hub k={k}: regimes diverged"
        # walks + cycles + distinct, and the count's one scalar
        output_rows = sum(
            node["value_rows"] for node in described if node["kind"] != "backedvar"
        )
        assert held <= output_rows, (
            f"hub k={k}: {held} rows held where the three output-side "
            f"nodes and the count account for {output_rows} — an input or "
            "an arrangement is holding a copy of the graph"
        )
        speedup = rec_s / max(inc_s, 1e-9)
        emit(
            f"{k:>5} | {hub.num_edges:>6} | {k * k:>7} | {build_s * 1e3:>10.1f} | "
            f"{held:>9} | {bytes_held(hub, 'triangle-count'):>10} | "
            f"{inc_s * 1e3:>16.2f} | {rec_s * 1e3:>14.1f} | {speedup:>6.1f}x"
        )
        if speedup < REQUIRED_SPEEDUP:
            failures.append((f"triangle-count on hub k={k}", speedup))
    if failures:
        for program, speedup in failures:
            emit(
                f"FAIL: {program} incremental maintenance only "
                f"{speedup:.2f}x vs recompute (required >= "
                f"{REQUIRED_SPEEDUP:.1f}x)"
            )
        sys.exit(1)
    emit(
        f"OK: incremental maintenance >= {REQUIRED_SPEEDUP:.1f}x vs "
        "recompute-per-batch on every program"
    )


if __name__ == "__main__":
    main()
