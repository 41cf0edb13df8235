"""Fig. 8(b) — IncRPQ vs IncRPQn vs RPQ_NFA, DBpedia, varying |ΔG|.

Paper series (|Q| = 4): IncRPQ beats RPQ_NFA 8.6x at 5% down to 3.2x at
20%, stays ahead until ~35%, and beats IncRPQn ~2.3x at 15%.  Reproduced
shape: win at small |ΔG|, declining speedup, grouped batch processing
beats unit-at-a-time.
"""

from benchmarks.harness import (
    assert_batch_beats_unit_variant,
    assert_incremental_wins_when_small,
    assert_speedup_declines,
    benchmark_incremental,
    delta_for,
    print_table,
    sweep_deltas_rpq,
)
from repro.rpq import RPQIndex
from repro.workloads import by_name, random_rpq_queries

DATASET, SCALE, SEED = "dbpedia", 0.5, 0


def _query():
    graph = by_name(DATASET, scale=SCALE, seed=SEED)
    return random_rpq_queries(graph, count=1, size=4, stars=1, unions=1, seed=2)[0]


def test_fig8b_sweep(benchmark, capfd):
    query = _query()
    rows = sweep_deltas_rpq(DATASET, SCALE, query, seed=SEED)
    with capfd.disabled():
        print_table(
            f"Fig. 8(b)  RPQ, dbpedia-like, vary |ΔG| (Q = {query})", "|ΔG|/|E|", rows
        )
    assert_incremental_wins_when_small(rows)
    assert_speedup_declines(rows)
    assert_batch_beats_unit_variant(rows)

    graph = by_name(DATASET, scale=SCALE, seed=SEED)
    delta = delta_for(graph, 0.05, SEED + 1)
    benchmark_incremental(benchmark, lambda: RPQIndex(graph.copy(), query), delta)
