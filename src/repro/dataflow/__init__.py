"""Composable incremental dataflow (ROADMAP item 3).

:mod:`repro.dataflow.runtime` is the variables → incrementals →
observers engine (:class:`Var`, :class:`BackedVar` — an input that is a
view of a live store — combinators, :func:`stabilize` with topological
dirty re-evaluation and cutoff); :mod:`repro.dataflow.view` wraps any
program, over inputs that are views of the engine's graph, as an
engine-registrable :class:`~repro.engine.view.IncrementalView`;
:mod:`repro.dataflow.library` ships the built-in standing queries
(``rpq``, ``edge-label-count``, ``two-hop``, ``triangle-count``).

See ``docs/DATAFLOW.md`` for the combinator catalogue, the stabilize
contract, and the define-your-own-view walkthrough.
"""

from repro.dataflow.runtime import (
    BackedVar,
    Dataflow,
    DataflowError,
    FixpointDivergenceError,
    Node,
    Observer,
    Var,
    row_order,
)
from repro.dataflow.view import (
    DataflowDelta,
    DataflowView,
    GraphInputs,
    Program,
    register_program,
    registered_programs,
)
from repro.dataflow import library  # noqa: F401  (registers built-ins)

__all__ = [
    "BackedVar",
    "Dataflow",
    "DataflowDelta",
    "DataflowError",
    "DataflowView",
    "FixpointDivergenceError",
    "GraphInputs",
    "Node",
    "Observer",
    "Program",
    "Var",
    "register_program",
    "registered_programs",
    "row_order",
]
