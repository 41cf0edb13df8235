"""Shared machinery for regenerating the paper's evaluation figures.

Every Fig. 8 point (:func:`point`) follows the recipe of Section 6: time
the **incremental** algorithm on a prebuilt index (the paper's setting:
"we use a batch algorithm T to compute Q(G) once, and then employ
incremental T∆"), the **unit-at-a-time** variant (IncKWSn / IncRPQn /
IncSCCn / IncISOn; for SCC also DynSCC), ``G ⊕ ΔG`` on its own (the
``graph`` column: Inc's time includes it, batch's does not) and the
**batch** recomputation on G ⊕ ΔG (BLINKS / RPQ_NFA / Tarjan / VF2);
cross-check every answer against batch; then count the work of Inc,
Inc-n and batch in a separate, untimed pass with fresh meters.

Absolute times are *not* expected to match the paper (authors: Java on an
EC2 r3.4xlarge against multi-million-node graphs; here: pure Python at
laptop scale).  The reproduced quantity is the *shape*: who wins, by
roughly what factor, and where the crossover falls.  Tables go to
``sys.stdout``; pytest callers print them under ``capfd.disabled()``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from operator import attrgetter, methodcaller
from typing import Any, Callable

from repro.core.cost import NULL_METER, CostMeter
from repro.core.delta import Delta
from repro.graph.digraph import DiGraph
from repro.graph.updates import random_delta
from repro.iso import ISOIndex, Pattern, inc_iso_n, vf2_matches
from repro.kws import KWSIndex, compute_kdist, distance_profile, inc_kws_n
from repro.rpq import RPQIndex, inc_rpq_n, rpq_nfa
from repro.scc import Condensation, DynSCC, SCCIndex, inc_scc_n, tarjan_scc


@dataclass
class SweepRow:
    """One x-axis point of a figure."""

    label: str
    inc_seconds: float
    unit_seconds: float
    batch_seconds: float
    #: ``G ⊕ ΔG`` alone, which Inc's ``apply`` (and Inc-n) include
    graph_seconds: float
    extras: dict[str, float] = field(default_factory=dict)
    #: metered work (``CostMeter.total()``) of ``inc``, ``unit`` and ``batch``
    work: dict[str, int] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.batch_seconds / max(self.inc_seconds, 1e-9)

    def milliseconds(self) -> dict[str, float]:
        """G ⊕ ΔG, Inc, Inc-n, batch and the extras, in ms."""
        seconds = {"graph": self.graph_seconds, "inc": self.inc_seconds}
        seconds.update(unit=self.unit_seconds, batch=self.batch_seconds)
        seconds.update(self.extras)
        return {key: round(value * 1e3, 3) for key, value in seconds.items()}


def emit(text: str = "") -> None:
    """Print a table line (callers disable pytest capture via capfd)."""
    print(text, flush=True)


def print_table(title: str, x_label: str, rows: list[SweepRow]) -> None:
    """Per row: ms (inc, unit, batch, extras), speedup, metered work."""
    header = [x_label, *(f"{key} ms" for key in rows[0].milliseconds()), "speedup"]
    header += [f"{key} work" for key in rows[0].work]
    emit(f"\n== {title} ==\n" + " | ".join(f"{cell:>10}" for cell in header))
    for row in rows:
        cells = [f"{ms:10.1f}" for ms in row.milliseconds().values()]
        cells.append(f"{row.speedup:10.2f}")
        cells += [f"{work:10d}" for work in row.work.values()]
        emit(" | ".join([f"{row.label:>10}", *cells]))
    emit()


def timed(callable_) -> float:
    """Wall-clock one call with the garbage collector paused (GC pauses
    otherwise land randomly inside measurements and distort single-shot
    millisecond-scale points)."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        callable_()
        return time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()


# ----------------------------------------------------------------------
# One measurement point, driven by a per-class spec
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QueryClass:
    """What :func:`point` needs of one query class: ``index(graph, query,
    meter)`` builds Inc and Inc-n, ``unit(index, delta)`` is Inc-n,
    ``batch(graph, query, meter)`` recomputes on G ⊕ ΔG, ``answer`` reads
    a maintained answer and ``expected`` the batch result's (untimed);
    ``rival`` is a dynamic comparator timed after Inc-n."""

    index: Callable[[DiGraph, Any, CostMeter], Any]
    unit: Callable[[Any, Delta], object]
    batch: Callable[[DiGraph, Any, CostMeter], Any]
    answer: Callable[[Any], Any]
    expected: Callable[[Any], Any] = lambda result: result
    rival: type | None = None


def _scc_batch(graph: DiGraph, _query: None, meter: CostMeter) -> set:
    # Equal footing with the other query classes: recomputation must
    # rebuild the full maintained state (SCC(G) plus the contracted
    # graph with ranks), just as compute_kdist/rpq_nfa/vf2 rebuild
    # kdist/markings/match sets.  Only Tarjan is metered.
    result = tarjan_scc(graph, meter=meter)
    Condensation.from_tarjan(graph, result)
    return result.partition()


MATCHES = attrgetter("matches")
CLASSES = {
    "kws": QueryClass(
        KWSIndex, inc_kws_n, compute_kdist, methodcaller("profile"), distance_profile
    ),
    "rpq": QueryClass(RPQIndex, inc_rpq_n, rpq_nfa, MATCHES, MATCHES),
    "scc": QueryClass(
        lambda graph, _query, meter: SCCIndex(graph, meter),
        inc_scc_n,
        _scc_batch,
        methodcaller("components"),
        rival=DynSCC,
    ),
    "iso": QueryClass(ISOIndex, inc_iso_n, vf2_matches, MATCHES),
}


def point(algo: str, graph: DiGraph, query, delta: Delta, label: str) -> SweepRow:
    """Time Inc, Inc-n, the rival (if any), ``G ⊕ ΔG`` alone and batch on
    one workload, in that order, check every answer against batch, then
    meter the work.  Inc's ``apply`` is ``G ⊕ ΔG`` then ``absorb``, so
    Inc minus the ``graph`` column is the incremental algorithm."""
    spec = CLASSES[algo]
    inc_index = spec.index(graph.copy(), query, NULL_METER)
    inc_seconds = timed(lambda: inc_index.apply(delta))

    unit_index = spec.index(graph.copy(), query, NULL_METER)
    unit_seconds = timed(lambda: spec.unit(unit_index, delta))

    maintained = {f"Inc{algo.upper()}": inc_index, f"Inc{algo.upper()}n": unit_index}
    extras = {}
    if spec.rival is not None:
        rival = spec.rival(graph.copy())
        extras[spec.rival.__name__] = timed(lambda: rival.apply(delta))
        maintained[spec.rival.__name__] = rival

    patched = graph.copy()
    graph_seconds = timed(lambda: delta.apply_to(patched))
    fresh = []
    batch_seconds = timed(lambda: fresh.append(spec.batch(patched, query, NULL_METER)))
    expected = spec.expected(fresh[0])
    for name, index in maintained.items():
        assert spec.answer(index) == expected, f"{label}: {name} diverged"

    work = {}
    runs = {"inc": lambda index, updates: index.apply(updates), "unit": spec.unit}
    for key, run in runs.items():
        meter = CostMeter()
        index = spec.index(graph.copy(), query, meter)
        meter.reset()
        run(index, delta)
        work[key] = meter.total()
    meter = CostMeter()
    spec.batch(patched, query, meter)
    work["batch"] = meter.total()
    return SweepRow(
        label, inc_seconds, unit_seconds, batch_seconds, graph_seconds, extras, work
    )


#: Exp-1 varies |ΔG|: the paper sweeps 5%..40%; we keep its range with
#: a coarser grid, and prepend a 1% point because pure-Python batch
#: algorithms have far smaller constants relative to per-update costs
#: than the paper's Java system, shifting crossovers toward smaller |ΔG|.
DELTA_FRACTIONS = [0.01, 0.05, 0.10, 0.20, 0.40]

#: Exp-3 scales |G| under a |ΔG| fixed in absolute terms (a fraction of
#: the full-scale graph's |E|), like the paper's fixed |ΔG| = 15M.
SCALE_FACTORS = [0.2, 0.4, 0.6, 0.8, 1.0]


def delta_for(graph: DiGraph, fraction: float, seed: int) -> Delta:
    return random_delta(graph, round(graph.num_edges * fraction), seed=seed)


def matching_pattern(graph: DiGraph, shape: tuple[int, int, int], seed: int) -> Pattern:
    """A pattern of the requested (|V_Q|, |E_Q|, d_Q) that has at least one
    match in ``graph`` when possible (retry over seeds), so the batch VF2
    comparator does real search work instead of failing instantly on the
    first label scan.

    When the data graph cannot host the exact shape, the diameter is
    relaxed step by step (documented per run via the returned pattern's
    ``shape()``), preferring real-edge patterns over fabricated ones.
    """
    from repro.workloads import QueryGenerationError, random_patterns

    num_nodes, num_edges, diameter = shape
    fallback: Pattern | None = None
    diameters = [diameter] + [
        d for offset in (1, 2, 3)
        for d in (diameter - offset, diameter + offset)
        if 1 <= d < num_nodes
    ]
    for try_diameter in diameters:
        for fabricate in (False, True):
            for attempt in range(seed, seed + 25):
                try:
                    candidate = random_patterns(
                        graph,
                        1,
                        num_nodes,
                        num_edges,
                        try_diameter,
                        seed=attempt,
                        fabricate=fabricate,
                    )[0]
                except QueryGenerationError:
                    continue
                fallback = fallback or candidate
                if vf2_matches(graph, candidate):
                    return candidate
        if fallback is not None and try_diameter != diameter:
            break  # one relaxation step with a generable pattern suffices
    if fallback is None:
        raise RuntimeError(f"no pattern near shape {shape} could be generated")
    return fallback


# ----------------------------------------------------------------------
# Shape assertions (the reproduced claims)
# ----------------------------------------------------------------------


def assert_incremental_wins_when_small(rows: list[SweepRow], slack: float = 1.0) -> None:
    """At the smallest |ΔG| the incremental algorithm must beat batch —
    the headline claim of every Exp-1 figure.  ``slack > 1`` relaxes the
    check to parity for configurations that sit at the crossover at
    pure-Python scale (documented per figure)."""
    first = rows[0]
    assert first.inc_seconds < first.batch_seconds * slack, (
        f"incremental lost at {first.label}: "
        f"{first.inc_seconds * 1e3:.1f}ms vs batch {first.batch_seconds * 1e3:.1f}ms"
    )


def assert_speedup_declines(rows: list[SweepRow], slack: float = 1.5) -> None:
    """Speedup at the largest |ΔG| must not exceed the smallest's (times a
    noise slack) — the paper's 'gap narrows as |ΔG| grows' shape."""
    assert rows[-1].speedup <= rows[0].speedup * slack, (
        f"speedup failed to decline: {rows[0].speedup:.2f} -> {rows[-1].speedup:.2f}"
    )


def assert_batch_beats_unit_variant(rows: list[SweepRow], slack: float = 1.2) -> None:
    """The grouped batch algorithm must be no slower than unit-at-a-time
    (paper: optimizations improve performance ~1.6x on average)."""
    total_inc = sum(row.inc_seconds for row in rows)
    total_unit = sum(row.unit_seconds for row in rows)
    assert total_inc <= total_unit * slack, (
        f"batched incremental slower than unit-at-a-time: "
        f"{total_inc * 1e3:.1f}ms vs {total_unit * 1e3:.1f}ms"
    )


def assert_batch_less_scale_sensitive(rows: list[SweepRow], slack: float = 1.5) -> None:
    """Exp-3 shape: growing |G| under a fixed ΔG hurts the batch algorithm
    more than the incremental one."""
    inc_growth = rows[-1].inc_seconds / max(rows[0].inc_seconds, 1e-9)
    batch_growth = rows[-1].batch_seconds / max(rows[0].batch_seconds, 1e-9)
    assert inc_growth <= batch_growth * slack, (
        f"incremental grew faster with |G| than batch: "
        f"{inc_growth:.2f}x vs {batch_growth:.2f}x"
    )


def assert_beats_dynscc(rows: list[SweepRow], slack: float = 1.0) -> None:
    """IncSCC beats DynSCC at every point."""
    for row in rows:
        assert row.inc_seconds < row.extras["DynSCC"] * slack, (
            f"IncSCC lost to DynSCC at {row.label}"
        )


def assert_inc_cost_grows(rows: list[SweepRow], slack: float = 1.0) -> None:
    """Incremental cost grows from the first to the last grid point."""
    assert rows[-1].inc_seconds > rows[0].inc_seconds * slack, "Inc cost did not grow"
