#!/usr/bin/env python
"""Relevance-routed fan-out vs. broadcast on a label-skewed stream.

A session maintains *five* filtered standing queries — two KWS keyword
watches, two RPQ path watches, and an ISO pattern watch — over one
evolving graph.  The update stream is **label-skewed**: a tunable
fraction of the churn happens among nodes whose labels none of the views
care about (think: a social graph where follower edges churn constantly
but the watched musician/label subgraph barely moves).  That is exactly
the regime the paper's locality argument targets — work should track the
*relevant* part of ΔG, not |ΔG| — and the fan-out scheduler extends it
across views: each view's ``relevance()`` filter routes it only the
sub-delta that can affect its answer, and a view routed an empty
sub-delta is skipped at zero cost.

Two fan-out modes process identical delta streams:

* **broadcast** — ``Engine(routing=False)``: every view absorbs every
  batch (the pre-scheduler fan-out);
* **routed**    — relevance routing on (the default).

Both are cross-checked to identical final answers; the run also
asserts that every skipped (view, batch) pair recorded exactly zero cost
units.  The reproduced claim: on a skewed stream, routed dispatch beats
broadcast because irrelevant deliveries are never dispatched at all, and
the win grows with the skew.

A topology-subscribed view (SCC) is deliberately *not* in the pool: its
``SubscribeAll`` escape hatch receives every batch under either mode,
adding identical cost to both columns (its fan-out economics are
measured by ``bench_engine_fanout.py``).

Run:  PYTHONPATH=src python benchmarks/bench_delta_routing.py
"""

from __future__ import annotations

import random
import sys
import time

from repro import Engine
from repro.core.delta import Delta, delete, insert
from repro.graph.digraph import DiGraph
from repro.graph.generators import label_alphabet, uniform_random_graph
from repro.iso import ISOIndex, Pattern
from repro.kws import KWSIndex, KWSQuery
from repro.rpq import RPQIndex

NUM_NODES = 1200
NUM_EDGES = 4800
ROUNDS = 6
BATCH_SIZE = 200
ALPHABET = label_alphabet(8)

#: The views watch only the first four labels; the skewed share of the
#: stream stays among the other four.
WATCHED = ALPHABET[:4]
CHURNING = ALPHABET[4:]

KWS_A = KWSQuery((ALPHABET[0], ALPHABET[1]), bound=3)
KWS_B = KWSQuery((ALPHABET[1], ALPHABET[2]), bound=2)
RPQ_A = f"{ALPHABET[0]} {ALPHABET[1]}*"
RPQ_B = f"{ALPHABET[2]} . ({ALPHABET[1]} + {ALPHABET[3]})* . {ALPHABET[0]}"
ISO_PATTERN = Pattern.from_edges(
    {0: ALPHABET[0], 1: ALPHABET[1], 2: ALPHABET[2]}, [(0, 1), (1, 2)]
)


def emit(text: str = "") -> None:
    print(text, file=sys.stdout, flush=True)


def build_engine(base: DiGraph, **engine_kwargs) -> Engine:
    engine = Engine(base.copy(), **engine_kwargs)
    engine.register("kws-a", lambda g, m: KWSIndex(g, KWS_A, meter=m))
    engine.register("kws-b", lambda g, m: KWSIndex(g, KWS_B, meter=m))
    engine.register("rpq-a", lambda g, m: RPQIndex(g, RPQ_A, meter=m))
    engine.register("rpq-b", lambda g, m: RPQIndex(g, RPQ_B, meter=m))
    engine.register("iso", lambda g, m: ISOIndex(g, ISO_PATTERN, meter=m))
    return engine


def skewed_delta(
    scratch: DiGraph, size: int, skew: float, rng: random.Random
) -> Delta:
    """A normalized, applicable batch with ``skew`` of its updates drawn
    from the churning label region (labels no view watches)."""
    churn_labels = set(CHURNING)
    churn_nodes = [
        node for node in scratch.nodes() if scratch.label(node) in churn_labels
    ]
    all_nodes = list(scratch.nodes())
    present = set(scratch.edges())
    touched: set = set()
    updates = []
    attempts = 0
    while len(updates) < size and attempts < 400 * size:
        attempts += 1
        pool = churn_nodes if rng.random() < skew else all_nodes
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


def delta_stream(base: DiGraph, skew: float) -> list[Delta]:
    rng = random.Random(23)
    scratch = base.copy()
    deltas = []
    for _ in range(ROUNDS):
        delta = skewed_delta(scratch, BATCH_SIZE, skew, rng)
        delta.apply_to(scratch)
        deltas.append(delta)
    return deltas


def answers(engine: Engine) -> tuple:
    return (
        engine["kws-a"].roots(),
        engine["kws-b"].roots(),
        engine["rpq-a"].matches,
        engine["rpq-b"].matches,
        engine["iso"].matches,
    )


def run(base: DiGraph, deltas: list[Delta], **engine_kwargs):
    engine = build_engine(base, **engine_kwargs)
    started = time.perf_counter()
    reports = [engine.apply(delta) for delta in deltas]
    elapsed = time.perf_counter() - started
    for report in reports:  # skipped views must record exactly zero work
        for view in report:
            if view.skipped:
                assert view.cost.total() == 0, "skipped view recorded cost"
    return elapsed, answers(engine), engine.routing_stats()


def skip_fraction(stats) -> float:
    skipped = sum(s.batches_skipped for s in stats.values())
    total = sum(s.batches_skipped + s.batches_routed for s in stats.values())
    return skipped / total if total else 0.0


def delivered_fraction(stats) -> float:
    delivered = sum(s.updates_delivered for s in stats.values())
    return delivered / (len(stats) * ROUNDS * BATCH_SIZE)


def main() -> None:
    base = uniform_random_graph(NUM_NODES, NUM_EDGES, ALPHABET, seed=31)
    emit(
        f"graph: {base}, {ROUNDS} rounds of |dG|={BATCH_SIZE} per sweep "
        f"point, 5 filtered views (2 KWS + 2 RPQ + ISO)"
    )
    emit()
    header = (
        f"{'skew':>5} | {'broadcast (ms)':>14} | {'routed (ms)':>11} | "
        f"{'routed vs bcast':>15} | "
        f"{'skipped':>7} | {'delivered':>9}"
    )
    emit(header)
    emit("-" * len(header))
    for skew in (1.0, 0.95, 0.8, 0.5):
        deltas = delta_stream(base, skew)
        bcast_s, bcast_final, _ = run(base, deltas, routing=False)
        routed_s, routed_final, stats = run(base, deltas)
        assert routed_final == bcast_final, "routed diverged from broadcast"
        emit(
            f"{skew:>5.0%} | {bcast_s * 1e3:>14.1f} | {routed_s * 1e3:>11.1f} | "
            f"{bcast_s / max(routed_s, 1e-9):>14.2f}x | "
            f"{skip_fraction(stats):>6.0%} | {delivered_fraction(stats):>8.0%}"
        )
    emit()
    emit("broadcast = every view absorbs every batch (routing=False);")
    emit("routed    = relevance filters deliver each view only its sub-delta,")
    emit("            empty deliveries are skipped at zero recorded cost;")
    emit("skipped   = fraction of (view, batch) pairs never dispatched;")
    emit("delivered = unit updates delivered / (views x |dG| x rounds).")


if __name__ == "__main__":
    main()
