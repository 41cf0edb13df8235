"""Fig. 8(a) — IncKWS vs IncKWSn vs BLINKS, DBpedia, varying |ΔG|.

Paper series (m = 3, b = 2): IncKWS beats the batch algorithm 6.3x at 5%
down to 2.8x at 20%, stays ahead until ~35%, and consistently beats
IncKWSn by 1.6-2x.  Reproduced shape: incremental wins at small |ΔG|,
speedup declines as |ΔG| grows, grouped batch processing beats
unit-at-a-time (crossovers land at smaller fractions at pure-Python
scale; see ``DELTA_FRACTIONS`` in ``benchmarks/harness.py``).
"""

from benchmarks.harness import (
    assert_batch_beats_unit_variant,
    assert_incremental_wins_when_small,
    assert_speedup_declines,
    benchmark_incremental,
    delta_for,
    print_table,
    sweep_deltas_kws,
)
from repro.kws import KWSIndex, KWSQuery
from repro.workloads import by_name, random_kws_queries

DATASET, SCALE, SEED = "dbpedia", 0.5, 0


def _query() -> KWSQuery:
    graph = by_name(DATASET, scale=SCALE, seed=SEED)
    return random_kws_queries(graph, count=1, m=3, bound=2, seed=7)[0]


def test_fig8a_sweep(benchmark, capfd):
    query = _query()
    rows = sweep_deltas_kws(DATASET, SCALE, query, seed=SEED)
    with capfd.disabled():
        print_table(
            "Fig. 8(a)  KWS, dbpedia-like, vary |ΔG| (m=3, b=2)", "|ΔG|/|E|", rows
        )
    assert_incremental_wins_when_small(rows)
    assert_speedup_declines(rows)
    assert_batch_beats_unit_variant(rows)

    graph = by_name(DATASET, scale=SCALE, seed=SEED)
    delta = delta_for(graph, 0.05, SEED + 1)
    benchmark_incremental(benchmark, lambda: KWSIndex(graph.copy(), query), delta)
