"""Exp-1(5) — unit updates: one insertion or one deletion at a time.

Paper (in-text): under unit updates, IncKWS / IncRPQ / IncSCC / IncISO
outperform their batch counterparts by 89x / 221x / 37x / 393x on
average, and IncSCC is ~5.7x faster than DynSCC.  Reproduced shape:
every incremental algorithm beats recomputation by a wide margin on unit
updates — the regime where the affected area is genuinely tiny.
"""

from benchmarks.harness import emit, matching_pattern, timed
from repro.graph.updates import unit_delete_workload, unit_insert_workload
from repro.iso import ISOIndex, vf2_matches
from repro.kws import KWSIndex, compute_kdist
from repro.rpq import RPQIndex, rpq_nfa
from repro.scc import Condensation, DynSCC, SCCIndex, tarjan_scc
from repro.workloads import by_name, random_kws_queries, random_rpq_queries
from repro.workloads.datasets import with_selectivity

SEED = 0
UNITS = 8  # independent unit updates measured per class


def _report(capfd, name, inc_seconds, batch_seconds, extra=""):
    with capfd.disabled():
        emit(
            f"  {name:<8} unit updates: inc {inc_seconds * 1e3 / UNITS / 2:8.3f} ms/update, "
            f"batch {batch_seconds * 1e3 / UNITS / 2:8.3f} ms/recompute  "
            f"({batch_seconds / max(inc_seconds, 1e-9):6.1f}x){extra}"
        )


def test_unit_updates(capfd):
    with capfd.disabled():
        emit()
        emit("== Exp-1(5)  unit updates (one insert / one delete at a time) ==")

    graph = by_name("dbpedia", scale=0.5, seed=SEED)
    inserts = unit_insert_workload(graph, UNITS, seed=1)
    deletes = unit_delete_workload(graph, UNITS, seed=2)

    # --- KWS ---
    query = random_kws_queries(graph, 1, 3, 2, seed=7)[0]
    index = KWSIndex(graph.copy(), query)
    inc = 0.0
    for unit in inserts + deletes:
        inc += timed(lambda u=unit: index.apply(u))
        index.apply(unit.inverted())  # restore
    batch = sum(timed(lambda: compute_kdist(graph, query)) for _ in range(2 * UNITS))
    _report(capfd, "KWS", inc, batch)
    assert inc < batch

    # --- RPQ ---
    rpq_query = random_rpq_queries(graph, 1, 4, stars=1, unions=1, seed=2)[0]
    rpq_index = RPQIndex(graph.copy(), rpq_query)
    inc = 0.0
    for unit in inserts + deletes:
        inc += timed(lambda u=unit: rpq_index.apply(u))
        rpq_index.apply(unit.inverted())
    batch = sum(timed(lambda: rpq_nfa(graph, rpq_query)) for _ in range(2 * UNITS))
    _report(capfd, "RPQ", inc, batch)
    assert inc < batch

    # --- SCC (with DynSCC comparison, on the giant-SCC profile where
    #     DynSCC's unpruned dynamic-structure walks are most expensive,
    #     matching the paper's "5.7x faster than DynSCC" observation) ---
    scc_graph = by_name("livej", scale=0.35, seed=SEED)
    scc_inserts = unit_insert_workload(scc_graph, UNITS, seed=1)
    scc_deletes = unit_delete_workload(scc_graph, UNITS, seed=2)
    scc_index = SCCIndex(scc_graph.copy())
    inc = 0.0
    for unit in scc_inserts + scc_deletes:
        inc += timed(lambda u=unit: scc_index.apply(u))
        scc_index.apply(unit.inverted())
    dyn = DynSCC(scc_graph.copy())
    dyn_seconds = 0.0
    for unit in scc_inserts + scc_deletes:
        dyn_seconds += timed(lambda u=unit: dyn.apply(u))
        dyn.apply(unit.inverted())

    def scc_batch():
        result = tarjan_scc(scc_graph)
        Condensation.from_tarjan(scc_graph, result)

    batch = sum(timed(scc_batch) for _ in range(2 * UNITS))
    _report(capfd, "SCC", inc, batch, extra=f"  [DynSCC {dyn_seconds * 1e3 / UNITS / 2:.3f} ms/update]")
    assert inc < batch
    assert inc < dyn_seconds

    # --- ISO ---
    iso_graph = with_selectivity(graph, 150, seed=3)
    pattern = matching_pattern(iso_graph, (4, 6, 2), seed=5)
    iso_index = ISOIndex(iso_graph.copy(), pattern)
    inc = 0.0
    for unit in inserts + deletes:
        inc += timed(lambda u=unit: iso_index.apply(u))
        iso_index.apply(unit.inverted())
    batch = sum(timed(lambda: vf2_matches(iso_graph, pattern)) for _ in range(2 * UNITS))
    _report(capfd, "ISO", inc, batch)
    assert inc < batch
