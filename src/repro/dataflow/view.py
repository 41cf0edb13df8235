""":class:`DataflowView` — any dataflow program as an engine view.

A *program* is a named builder that wires a :class:`~repro.dataflow.
runtime.Dataflow` graph over two input relations that are read-only
views of the shared :class:`~repro.graph.digraph.DiGraph` (a
:class:`~repro.graph.sharding.ShardedGraphStore` is one, with a map
for its log) — they hold no rows:

* ``inputs.nodes`` — rows ``(node, label)``;
* ``inputs.edges`` — rows ``(source, target, source_label,
  target_label)`` (endpoint labels are denormalized into the row, so
  most programs never join against ``nodes``).

Wrapping the program's output node, :class:`DataflowView` subclasses
:class:`~repro.engine.view.IncrementalView` (which supplies ``apply``,
``insert_edge`` and ``delete_edge``) and writes the rest:
``absorb`` translates a normalized ΔG into input-var deltas and runs
one ``stabilize()`` (cost proportional to the change, metered through
the view's :class:`~repro.core.cost.CostMeter`); ``snapshot`` emits the
observed output in canonical row order under the ``"dataflow"`` kind
tag; ``restore`` re-derives the view by re-running the program over the
restored graph — sound because the dataflow state is a pure function of
``(graph, program)``, and verified against the stored records on every
load; ``relevance`` is the program's declared routing filter
(:class:`~repro.engine.relevance.SubscribeAll` when undeclared).

Registering a program makes it loadable by name from snapshots::

    >>> from repro import DiGraph
    >>> from repro.dataflow import DataflowView
    >>> g = DiGraph(labels={1: "a", 2: "b"}, edges=[(1, 2)])
    >>> view = DataflowView(g, "edge-label-count")
    >>> sorted(view.value())
    [('a', 'b', 1)]
    >>> view.insert_edge(2, 1).added
    ((('b', 'a', 1), 1),)
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Any, Callable, Iterator, Optional

from repro.core.cost import CostMeter, NULL_METER
from repro.core.delta import Delta
from repro.engine.relevance import DeltaFilter, SubscribeAll
from repro.engine.view import IncrementalView, ViewSnapshot
from repro.graph.digraph import DiGraph
from repro.kws.kdist import node_order

from repro.dataflow.runtime import Dataflow, Observer, Var, row_order

__all__ = [
    "DataflowDelta",
    "DataflowView",
    "GraphInputs",
    "Program",
    "register_program",
    "registered_programs",
]


@dataclass(frozen=True)
class DataflowDelta:
    """ΔO of a dataflow view: output rows entering/leaving, with
    multiplicities (``(row, count)`` pairs in canonical order).  Scalar
    outputs report the old value as removed and the new as added."""

    added: tuple
    removed: tuple

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed)


@dataclass(frozen=True)
class GraphInputs:
    """The two input relations every program is built over."""

    nodes: Var
    edges: Var


class _GraphRelation(Mapping):
    """A relation read off the live graph: a set (each present row
    counts 1) that stores nothing — what a
    :class:`~repro.dataflow.runtime.BackedVar` takes as its value."""

    __slots__ = ("_graph",)

    def __init__(self, graph: DiGraph) -> None:
        self._graph = graph

    def __getitem__(self, row) -> int:
        if row in self:
            return 1
        raise KeyError(row)

    def get(self, row, default=None):
        return 1 if row in self else default

    def items(self) -> Iterator[tuple]:  # type: ignore[override]
        return zip(self, repeat(1))

    def values(self) -> Iterator[int]:  # type: ignore[override]
        return repeat(1, len(self))

    def adjacency(self, key_columns: tuple, value_column: int):
        """The graph's own index of that shape — a lookup of a key's
        live value set, ``None`` for a key without one — or ``None``."""
        return None


class _NodeRelation(_GraphRelation):
    """``(node, label)`` rows."""

    __slots__ = ()

    def __len__(self) -> int:
        return self._graph.num_nodes

    def __iter__(self) -> Iterator[tuple]:
        label = self._graph.label
        return ((node, label(node)) for node in self._graph.nodes())

    def __contains__(self, row) -> bool:
        graph = self._graph
        return len(row) == 2 and row[0] in graph and graph.label(row[0]) == row[1]


class _EdgeRelation(_GraphRelation):
    """``(source, target, source_label, target_label)`` rows; keyed on
    either endpoint it is the graph's adjacency."""

    __slots__ = ()

    def __len__(self) -> int:
        return self._graph.num_edges

    def __iter__(self) -> Iterator[tuple]:
        # the order of graph.edges(), each source's rows zipped whole:
        # a Python frame per source, none per edge
        graph = self._graph
        label = graph.labels.__getitem__
        successors = graph.neighbor_lookup()

        def rows(source) -> Iterator[tuple]:
            targets = successors(source)
            return zip(
                repeat(source), targets, repeat(label(source)), map(label, targets)
            )

        return chain.from_iterable(map(rows, graph.nodes()))

    def __contains__(self, row) -> bool:
        graph = self._graph
        return (
            len(row) == 4
            and row[1] in graph.out_neighbors(row[0])
            and graph.label(row[0]) == row[2]
            and graph.label(row[1]) == row[3]
        )

    def adjacency(self, key_columns: tuple, value_column: int):
        # lookups into the live graph: every probe reads its current
        # adjacency, and nothing is copied
        if (key_columns, value_column) == ((0,), 1):
            return self._graph.neighbor_lookup()
        if (key_columns, value_column) == ((1,), 0):
            return self._graph.neighbor_lookup(inbound=True)
        return None


@dataclass(frozen=True)
class Program:
    """A registered standing-query builder.

    ``builder(flow, inputs, *args)`` returns the output node;
    ``relevance(*args)`` (optional) returns the routing
    :class:`~repro.engine.relevance.DeltaFilter` the view declares.
    """

    name: str
    builder: Callable
    relevance: Optional[Callable] = None
    description: str = ""


_PROGRAMS: dict[str, Program] = {}


def register_program(
    name: str,
    builder: Callable,
    relevance: Optional[Callable] = None,
    description: str = "",
) -> Program:
    """Register a program under ``name`` (snapshot config round-trips by
    name, so restoring a saved view requires its program registered)."""
    existing = _PROGRAMS.get(name)
    if existing is not None and existing.builder is not builder:
        raise ValueError(f"program {name!r} is already registered")
    program = Program(name, builder, relevance, description)
    _PROGRAMS[name] = program
    return program


def registered_programs() -> tuple[str, ...]:
    """The registered program names, sorted."""
    return tuple(sorted(_PROGRAMS))


class DataflowView(IncrementalView):
    """An incrementally maintained view defined by a dataflow program."""

    def __init__(
        self,
        graph: DiGraph,
        program: str,
        *args,
        meter: CostMeter = NULL_METER,
    ) -> None:
        spec = _PROGRAMS.get(program)
        if spec is None:
            raise ValueError(
                f"unknown dataflow program {program!r}; registered: "
                f"{', '.join(registered_programs()) or '(none)'}"
            )
        for arg in args:
            if not isinstance(arg, (int, str)):
                raise ValueError(
                    f"program arguments must be int/str tokens, got {arg!r}"
                )
        self.graph = graph
        self.meter = meter
        self.program = spec.name
        self.args = tuple(args)
        self.flow = Dataflow(meter=meter)
        self.inputs = GraphInputs(
            self.flow.backed_var(_NodeRelation(graph), name="graph.nodes"),
            self.flow.backed_var(_EdgeRelation(graph), name="graph.edges"),
        )
        output = spec.builder(self.flow, self.inputs, *args)
        self.observer: Observer = self.flow.observe(output)
        self._relevance: DeltaFilter = (
            spec.relevance(*args) if spec.relevance else SubscribeAll()
        )
        self.flow.stabilize()  # first evaluations read the graph itself
        self.observer.take_delta()  # construction is not a ΔO

    # ------------------------------------------------------------------
    # IncrementalView protocol
    # ------------------------------------------------------------------

    def absorb(self, delta: Delta, new_nodes) -> DataflowDelta:
        """The graph already holds ``G ⊕ ΔG``; announce the batch to the
        input relations as row deltas and stabilize.  Work (and meter
        movement) is proportional to the change the batch induces, not
        to the graph.  An edge update the graph does not hold raises
        :class:`~repro.dataflow.runtime.DataflowError` before any
        derived node hears of the batch's edges; the view stays usable."""
        label = self.graph.label
        edge_rows: dict = {}
        for update in delta.deletions:
            row = (
                update.source,
                update.target,
                label(update.source),
                label(update.target),
            )
            edge_rows[row] = edge_rows.get(row, 0) - 1
        for update in delta.insertions:
            row = (
                update.source,
                update.target,
                label(update.source),
                label(update.target),
            )
            edge_rows[row] = edge_rows.get(row, 0) + 1
        node_rows = {
            (node, label(node)): 1
            for node in sorted(new_nodes, key=node_order)
        }
        if node_rows:
            self.inputs.nodes.update(node_rows)
        edge_rows = {row: net for row, net in edge_rows.items() if net}
        if edge_rows:
            self.inputs.edges.update(edge_rows)
        self.flow.stabilize()
        added, removed = self.observer.take_delta()
        return DataflowDelta(added, removed)

    def snapshot(self) -> ViewSnapshot:
        """Observed output as canonical token rows.

        Config row: ``(program_name, *args)``.  Relation outputs emit
        one ``(*row, count)`` record per distinct row in
        :func:`~repro.dataflow.runtime.row_order`; scalar outputs emit
        the single record ``(value,)``.  Canonical by construction, so
        routed and broadcast twins serialize byte-identically."""
        output = self.observer.node
        if output.is_relation:
            value = output.value
            records = tuple(
                (*row, value[row]) for row in sorted(value, key=row_order)
            )
        else:
            records = ((output.value,),)
        return ViewSnapshot(
            kind="dataflow",
            config=(self.program, *self.args),
            records=records,
        )

    @classmethod
    def restore(
        cls,
        graph: DiGraph,
        state: ViewSnapshot,
        meter: CostMeter = NULL_METER,
    ) -> "DataflowView":
        """Rebuild the view by re-running its program over ``graph``.

        The dataflow state is a pure function of ``(graph, program,
        args)``, so re-derivation is exact; the recomputed output is
        verified against the stored records, making every load an
        integrity check of the section."""
        if state.kind != "dataflow":
            raise ValueError(
                f"expected a 'dataflow' snapshot, got {state.kind!r}"
            )
        program, args = state.config[0], tuple(state.config[1:])
        view = cls(graph, program, *args, meter=meter)
        rebuilt = view.snapshot().records
        if rebuilt != state.records:
            raise ValueError(
                f"dataflow view {program!r} diverged from its snapshot: "
                f"recomputed {len(rebuilt)} record(s), stored "
                f"{len(state.records)}; the section does not match the "
                "graph it was saved with"
            )
        return view

    def relevance(self) -> DeltaFilter:
        """The program's declared routing filter (conservative by
        contract; ``SubscribeAll`` when the program declares none)."""
        return self._relevance

    def empty_output(self) -> DataflowDelta:
        """The ΔO of a batch the router skipped this view on."""
        return DataflowDelta((), ())

    # ------------------------------------------------------------------
    # Serving surface
    # ------------------------------------------------------------------

    def value(self) -> Any:
        """The standing answer: a ``frozenset`` of distinct output rows
        for relation outputs, the scalar itself otherwise."""
        output = self.observer.node
        if output.is_relation:
            return frozenset(output.value)
        return output.value

    def describe(self) -> list[dict]:
        """The program's dataflow graph as data — per node its name,
        combinator, height, evaluation count and the rows it holds (see
        :meth:`~repro.dataflow.runtime.Dataflow.describe`)::

            >>> g = DiGraph(labels={1: "a", 2: "a", 3: "a"},
            ...             edges=[(1, 2), (2, 3), (3, 1)])
            >>> for node in DataflowView(g, "triangle-count").describe():
            ...     print(node["name"], node["kind"], node["height"],
            ...           node["value_rows"], node["state_rows"],
            ...           node["held_rows"])
            graph.nodes backedvar 0 3 0 0
            graph.edges backedvar 0 3 0 0
            tri.walks multijoin 1 3 0 3
            tri.cycles map 2 1 0 1
            tri.distinct distinct 3 1 0 1
            tri.count count 4 1 0 1

        The inputs are views of the graph (``held_rows`` 0 whatever its
        size) and ``tri.walks`` probes the graph's own adjacency
        (``state_rows`` 0): what the program holds is its output.
        """
        return self.flow.describe()
