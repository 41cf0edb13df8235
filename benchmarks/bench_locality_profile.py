"""Theorem 3 profile — localizable algorithms touch neighborhoods, not G.

For IncKWS (radius 2b) and IncISO (radius d_Q), the cost-meter's touched
node set under a fixed small update batch is compared against the graph
size as |G| grows 8x: the touched share must shrink — the operational
content of "localizable" — and containment in the allowed neighborhood is
asserted exactly (check_locality).
"""

from benchmarks.harness import emit, matching_pattern
from repro.core.boundedness import check_locality
from repro.core.cost import CostMeter
from repro.graph.updates import random_delta
from repro.iso import ISOIndex
from repro.kws import KWSIndex, KWSQuery
from repro.workloads import by_name
from repro.workloads.datasets import with_selectivity

SEED = 0
SCALES = [0.5, 1.0, 2.0, 4.0]
UPDATES = 6


def test_locality_profile(capfd):
    with capfd.disabled():
        emit()
        emit("== Theorem 3 profile: touched nodes vs |G| (fixed small ΔG) ==")
        emit(f"{'scale':>6} | {'|V|':>6} | {'KWS touched':>11} | {'ISO touched':>11}")

    kws_shares = []
    iso_shares = []
    for scale in SCALES:
        graph = by_name("synthetic", scale=scale, seed=SEED)
        bound = 2
        query = KWSQuery((graph.label(next(iter(graph.nodes()))),), bound)
        delta = random_delta(graph, UPDATES, seed=SEED + 2)

        kws_meter = CostMeter()
        kws_index = KWSIndex(graph.copy(), query, meter=kws_meter)
        kws_meter.reset()
        kws_index.apply(delta)
        report = check_locality(kws_index.graph, delta, kws_meter, radius=2 * bound)
        assert report.is_local, f"IncKWS escaped at scale {scale}: {report.escaped}"
        kws_touched = len({n for n in kws_meter.touched if n in kws_index.graph})

        iso_graph = with_selectivity(graph, 150, seed=3)
        pattern = matching_pattern(iso_graph, (3, 3, 2), seed=4)
        iso_delta = random_delta(iso_graph, UPDATES, seed=SEED + 2)
        iso_meter = CostMeter()
        iso_index = ISOIndex(iso_graph.copy(), pattern, meter=iso_meter)
        iso_meter.reset()
        iso_index.apply(iso_delta)
        iso_report = check_locality(
            iso_index.graph, iso_delta, iso_meter, radius=pattern.diameter
        )
        assert iso_report.is_local, f"IncISO escaped at scale {scale}"
        iso_touched = len({n for n in iso_meter.touched if n in iso_index.graph})

        num_nodes = graph.num_nodes
        kws_shares.append(kws_touched / num_nodes)
        iso_shares.append(iso_touched / num_nodes)
        with capfd.disabled():
            emit(
                f"{scale:>6} | {num_nodes:>6} | "
                f"{kws_touched:>6} ({kws_shares[-1]:4.0%}) | "
                f"{iso_touched:>6} ({iso_shares[-1]:4.0%})"
            )
    with capfd.disabled():
        emit()

    # Touched share shrinks as |G| grows: locality, operationally.
    assert kws_shares[-1] < kws_shares[0]
    assert iso_shares[-1] <= iso_shares[0] + 0.01
