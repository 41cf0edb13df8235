"""Theorem 1 witnesses — unboundedness made measurable.

The paper proves RPQ, SCC, KWS (and SSRP under deletions) admit no
incremental algorithm whose cost is bounded by |CHANGED| = |ΔG| + |ΔO|.
These benches run the instrumented incremental algorithms on the gadget
families of repro.theory.lower_bounds (Fig. 9's two-cycle construction
and its analogues) and print measured work against |CHANGED|: the change
stays O(1) while the work grows with the gadget size n — no bounded
algorithm could produce such a series.
"""

from benchmarks.harness import emit
from repro.theory import (
    measure_kws_witness,
    measure_rpq_witness,
    measure_scc_witness,
    measure_ssrp_deletion_witness,
)

SIZES = [8, 16, 32, 64]


def _print_series(capfd, name, points):
    with capfd.disabled():
        emit(f"  {name}:")
        emit(f"    {'n':>5} | {'|CHANGED|':>9} | {'measured work':>13}")
        for point in points:
            emit(f"    {point.n:>5} | {point.changed:>9} | {point.cost:>13,}")


def test_unboundedness_witnesses(capfd):
    with capfd.disabled():
        emit()
        emit("== Theorem 1 witnesses: |CHANGED| flat, work grows with n ==")

    rpq = measure_rpq_witness(SIZES)
    _print_series(capfd, "RPQ (Fig. 9 two-cycle gadget, unit insertion)", rpq)
    assert all(p.changed == 1 for p in rpq)
    assert rpq[-1].cost > 3 * rpq[0].cost

    scc = measure_scc_witness(SIZES)
    _print_series(capfd, "SCC (cycle chord deletion)", scc)
    assert all(p.changed == 1 for p in scc)
    assert scc[-1].cost > 2 * scc[0].cost

    kws = measure_kws_witness(SIZES, bound=4)
    _print_series(capfd, "KWS (parallel-lane deletion)", kws)
    assert all(p.changed <= 2 for p in kws)

    ssrp = measure_ssrp_deletion_witness(SIZES)
    _print_series(capfd, "SSRP (tree-edge deletion, empty ΔO)", ssrp)
    assert all(p.changed == 1 for p in ssrp)
    assert ssrp[-1].cost > 3 * ssrp[0].cost
    with capfd.disabled():
        emit()
