"""Effectiveness measures for incremental computations (Sections 1, 3-5).

This module gives the paper's three yardsticks an operational form that the
test-suite and benchmarks can check mechanically:

* :func:`changed` — |CHANGED| = |ΔG| + |ΔO|, the classical boundedness
  measure of Ramalingam–Reps.  An algorithm is *bounded* when its cost is
  polynomial in |CHANGED| and |Q|; Theorem 1 shows RPQ/SCC/KWS admit no
  such algorithm, which :mod:`repro.theory.lower_bounds` witnesses
  empirically.
* :class:`LocalityReport` — for *localizable* algorithms (Theorem 3), the
  contract is that the touched node set stays inside the
  d_Q-neighborhood of ΔG.  :func:`check_locality` compares a cost meter's
  touched set against that neighborhood.
* :class:`RelativeBoundednessReport` — for *relatively bounded* algorithms
  (Theorem 4), the contract is cost polynomial in |ΔG|, |Q| and |AFF|,
  where AFF is the difference in data inspected by the batch algorithm.
  :func:`fit_cost_against` provides a crude but effective check: across a
  family of instances with growing |G| but bounded |AFF|, incremental cost
  must not grow with |G|.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.cost import CostMeter
from repro.core.delta import Delta
from repro.graph.digraph import DiGraph, Node


def changed(delta: Delta, output_delta_size: int) -> int:
    """|CHANGED| = |ΔG| + |ΔO|."""
    return len(delta) + output_delta_size


@dataclass(frozen=True)
class LocalityReport:
    """Outcome of a locality check.

    ``escaped`` lists touched nodes outside the allowed neighborhood —
    empty for a correctly localizable run.
    """

    radius: int
    neighborhood_size: int
    touched: int
    escaped: frozenset

    @property
    def is_local(self) -> bool:
        return not self.escaped


def check_locality(
    graph: DiGraph,
    delta: Delta,
    meter: CostMeter,
    radius: int,
    extra_allowed: frozenset[Node] = frozenset(),
) -> LocalityReport:
    """Verify the meter's touched set lies within the ``radius``-neighborhood
    of ΔG's endpoints in ``graph`` (evaluated on the *updated* graph, which
    is where localizable algorithms do their search).

    ``extra_allowed`` accommodates bookkeeping nodes such as virtual
    product-graph states that have no graph counterpart.
    """
    # Imported here: repro.graph.neighborhood itself depends on
    # repro.core.cost, so a module-level import would be circular.
    from repro.graph.neighborhood import nodes_within

    seeds = [node for node in delta.touched_nodes() if node in graph]
    allowed = nodes_within(graph, seeds, radius) if seeds else set()
    allowed |= extra_allowed
    touched_in_graph = {node for node in meter.touched if node in graph}
    escaped = frozenset(touched_in_graph - allowed)
    return LocalityReport(
        radius=radius,
        neighborhood_size=len(allowed),
        touched=len(touched_in_graph),
        escaped=escaped,
    )


@dataclass(frozen=True)
class ScalingPoint:
    """One observation in a scaling study: instance size vs. measured cost."""

    instance_size: int
    cost: int


@dataclass(frozen=True)
class RelativeBoundednessReport:
    """Result of :func:`fit_cost_against`.

    ``growth_ratio`` compares the cost at the largest instance against the
    smallest; for a relatively bounded algorithm run on instances where
    |AFF| is held (approximately) constant, this ratio stays near 1 while
    the batch algorithm's grows with the instance.
    """

    points: tuple[ScalingPoint, ...]
    growth_ratio: float

    @property
    def is_size_independent(self) -> bool:
        """Loose check: cost grew by less than 3x while size grew arbitrarily.

        The slack absorbs hashing/cache noise on small Python instances; the
        point is to distinguish O(|AFF|) from Ω(|G|), which differ by orders
        of magnitude in these studies.
        """
        return self.growth_ratio < 3.0


def fit_cost_against(sizes: Sequence[int], costs: Sequence[int]) -> RelativeBoundednessReport:
    """Summarize a (size, cost) series for boundedness-style assertions."""
    if len(sizes) != len(costs):
        raise ValueError("sizes and costs must align")
    if not sizes:
        raise ValueError("need at least one observation")
    points = tuple(
        ScalingPoint(instance_size=size, cost=cost) for size, cost in zip(sizes, costs)
    )
    first = max(1, points[0].cost)
    last = points[-1].cost
    return RelativeBoundednessReport(points=points, growth_ratio=last / first)
