"""Unified incremental engine: one graph, one ΔG stream, many views.

The subsystem has four layers:

* :mod:`repro.engine.view` — the :class:`IncrementalView` protocol the
  four query-class indexes implement (``insert_edge`` / ``delete_edge`` /
  ``apply`` / ``absorb`` / ``snapshot`` / ``restore``);
* :mod:`repro.engine.relevance` — :class:`DeltaFilter` and the concrete
  relevance filters views return from their optional ``relevance()``
  hook, declaring which slice of a batch can affect their answer;
* :mod:`repro.engine.scheduler` — the :class:`FanOutScheduler` that
  pre-partitions each normalized batch per view (skipping views routed
  an empty sub-delta at zero cost), dispatches the remaining absorbs
  in registration order, and reports which views went dirty;
* :mod:`repro.engine.session` — the :class:`Engine` (alias
  :class:`IncrementalSession`) that owns the authoritative graph,
  normalizes and validates each incoming batch once, applies ``G ⊕ ΔG``
  once, routes the update through the scheduler, and supports
  checkpoint/rollback via :meth:`~repro.core.delta.Delta.inverted`.
"""

from repro.engine.relevance import (
    AlphabetRelevance,
    DeltaFilter,
    KeywordRelevance,
    PatternRelevance,
    SubscribeAll,
)
from repro.engine.scheduler import (
    EXECUTOR_ENV,
    EXECUTOR_STRATEGIES,
    FanOutScheduler,
    RouteStats,
    SchedulerError,
    ViewReport,
)
from repro.engine.session import (
    AutosnapshotError,
    Engine,
    EngineError,
    EngineReport,
)
from repro.engine.view import IncrementalView, ViewSnapshot

IncrementalSession = Engine

__all__ = [
    "AlphabetRelevance",
    "AutosnapshotError",
    "DeltaFilter",
    "EXECUTOR_ENV",
    "EXECUTOR_STRATEGIES",
    "Engine",
    "EngineError",
    "EngineReport",
    "FanOutScheduler",
    "IncrementalSession",
    "IncrementalView",
    "KeywordRelevance",
    "PatternRelevance",
    "RouteStats",
    "SchedulerError",
    "SubscribeAll",
    "ViewReport",
    "ViewSnapshot",
]
