"""ρ-insensitivity (paper, in-text "not shown" result).

"The ratio ρ of insertions to deletions in ΔG has no impact on the
performance of IncKWS ... IncRPQ is insensitive to ρ ... IncSCC is
insensitive to ρ, similar to IncKWS and IncRPQ ... IncISO is insensitive
to ρ."

Reproduced: at a fixed |ΔG| (10% of |E|), varying ρ across {0.25, 1, 4}
changes each incremental algorithm's time by far less than the
incremental-vs-batch gaps (we assert max/min ≤ 4x, loose enough for
timer noise on millisecond runs, tight enough to exclude any systematic
dependence on the mixture).
"""

from benchmarks.harness import emit, matching_pattern, timed
from repro.graph.updates import random_delta
from repro.iso import ISOIndex
from repro.kws import KWSIndex
from repro.rpq import RPQIndex
from repro.scc import SCCIndex
from repro.workloads import by_name, random_kws_queries, random_rpq_queries
from repro.workloads.datasets import with_selectivity

SEED = 0
RHOS = [0.25, 1.0, 4.0]
FRACTION = 0.10


def test_rho_insensitivity(capfd):
    graph = by_name("dbpedia", scale=0.5, seed=SEED)
    size = round(graph.num_edges * FRACTION)
    kws_query = random_kws_queries(graph, 1, 3, 2, seed=7)[0]
    rpq_query = random_rpq_queries(graph, 1, 4, stars=1, unions=1, seed=2)[0]
    iso_graph = with_selectivity(graph, 150, seed=3)
    pattern = matching_pattern(iso_graph, (4, 6, 2), seed=5)

    with capfd.disabled():
        emit()
        emit("== ρ-insensitivity  (|ΔG| = 10% of |E|, ρ ∈ {0.25, 1, 4}) ==")
        emit(f"{'rho':>6} | {'IncKWS':>8} | {'IncRPQ':>8} | {'IncSCC':>8} | {'IncISO':>8}")

    times = {"kws": [], "rpq": [], "scc": [], "iso": []}
    for rho in RHOS:
        delta = random_delta(graph, size, rho=rho, seed=SEED + 1)
        iso_delta = random_delta(iso_graph, size, rho=rho, seed=SEED + 1)

        kws = KWSIndex(graph.copy(), kws_query)
        times["kws"].append(timed(lambda: kws.apply(delta)))
        rpq = RPQIndex(graph.copy(), rpq_query)
        times["rpq"].append(timed(lambda: rpq.apply(delta)))
        scc = SCCIndex(graph.copy())
        times["scc"].append(timed(lambda: scc.apply(delta)))
        iso = ISOIndex(iso_graph.copy(), pattern)
        times["iso"].append(timed(lambda: iso.apply(iso_delta)))
        with capfd.disabled():
            emit(
                f"{rho:>6} | {times['kws'][-1] * 1e3:8.1f} | "
                f"{times['rpq'][-1] * 1e3:8.1f} | {times['scc'][-1] * 1e3:8.1f} | "
                f"{times['iso'][-1] * 1e3:8.1f}"
            )
    with capfd.disabled():
        emit()

    for name, series in times.items():
        spread = max(series) / max(min(series), 1e-9)
        assert spread <= 4.0, f"{name} is rho-sensitive: spread {spread:.1f}x"
