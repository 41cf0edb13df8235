"""Labeled directed graphs, the substrate shared by every query class.

The paper (Section 2) models data as directed graphs ``G = (V, E, l)`` where
``l`` assigns each node a label.  Incremental algorithms walk edges in both
directions (e.g. ``IncKWS`` propagates along *predecessors*, ``IncSCC``
searches forward and backward in the contracted graph), so :class:`DiGraph`
maintains successor and predecessor adjacency simultaneously.

Nodes may be any hashable value; benchmarks use integers.  Labels may be any
hashable value; the paper draws them from a finite alphabet of strings.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Collection, Hashable, Iterable, Iterator
from itertools import chain, islice, repeat
from operator import contains, itemgetter
from typing import Optional

Node = Hashable
Label = Hashable
Edge = tuple[Node, Node]

DEFAULT_LABEL: Label = ""

#: What the no-copy neighbor accessors answer for a node not in the graph.
NO_NEIGHBORS: frozenset = frozenset()

#: Edges :meth:`DiGraph.add_edges` checks and inserts per step: enough to
#: keep the per-edge work in C, few enough to bound what it holds.
EDGE_CHUNK = 8192


class GraphError(Exception):
    """Base error for graph-structure violations."""


class MissingNodeError(GraphError, KeyError):
    """Raised when an operation references a node that is not in the graph."""

    def __init__(self, node: Node) -> None:
        super().__init__(node)
        self.node = node

    def __str__(self) -> str:  # KeyError quotes its repr; keep it readable.
        return f"node {self.node!r} is not in the graph"


class MissingEdgeError(GraphError, KeyError):
    """Raised when an operation references an edge that is not in the graph."""

    def __init__(self, edge: Edge) -> None:
        super().__init__(edge)
        self.edge = edge

    def __str__(self) -> str:
        return f"edge {self.edge!r} is not in the graph"


class DuplicateEdgeError(GraphError, ValueError):
    """Raised when inserting an edge that already exists."""

    def __init__(self, edge: Edge) -> None:
        super().__init__(f"edge {edge!r} is already in the graph")
        self.edge = edge


class DiGraph:
    """A simple directed graph with node labels and bidirectional adjacency.

    The graph is *simple*: at most one edge per ordered node pair and no
    implicit self-loop restriction (self-loops are legal, as in the paper's
    model).  All mutators keep the successor and predecessor maps in sync.

    Example::

        g = DiGraph()
        g.add_node(1, label="a")
        g.add_node(2, label="b")
        g.add_edge(1, 2)
        assert list(g.successors(1)) == [2]
        assert list(g.predecessors(2)) == [1]
    """

    __slots__ = ("_succ", "_pred", "_labels", "_num_edges", "_oob_version")

    def __init__(
        self,
        edges: Optional[Iterable[Edge]] = None,
        labels: Optional[dict[Node, Label]] = None,
    ) -> None:
        self._succ: dict[Node, set[Node]] = {}
        self._pred: dict[Node, set[Node]] = {}
        self._labels: dict[Node, Label] = {}
        self._num_edges = 0
        self._oob_version = 0
        if labels:
            for node, label in labels.items():
                self.add_node(node, label=label)
        if edges:
            self.add_edges(edges)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_labeled_edges(
        cls,
        labels: dict[Node, Label],
        edges: Iterable[Edge],
    ) -> "DiGraph":
        """Build a graph from a label map and an edge list in one call."""
        return cls(edges=edges, labels=labels)

    def copy(self) -> "DiGraph":
        """Return an independent deep copy of the structure (labels shared).

        The clone has the receiver's class; a subclass copies its own
        slots after this."""
        clone = object.__new__(type(self))
        clone._labels = dict(self._labels)
        clone._succ = {node: set(targets) for node, targets in self._succ.items()}
        clone._pred = {node: set(sources) for node, sources in self._pred.items()}
        clone._num_edges = self._num_edges
        clone._oob_version = self._oob_version
        return clone

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------

    def add_node(self, node: Node, label: Label = DEFAULT_LABEL) -> None:
        """Add ``node`` with ``label``; re-adding updates the label only."""
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()
        elif self._labels[node] != label:
            self._oob_version += 1  # relabel: no delta can express this
        self._labels[node] = label

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every incident edge."""
        if node not in self._succ:
            raise MissingNodeError(node)
        self._oob_version += 1  # no delta can express node removal
        for target in tuple(self._succ[node]):
            self.remove_edge(node, target)
        for source in tuple(self._pred[node]):
            self.remove_edge(source, node)
        del self._succ[node]
        del self._pred[node]
        del self._labels[node]

    def has_node(self, node: Node) -> bool:
        """Is ``node`` in the graph?"""
        return node in self._succ

    def label(self, node: Node) -> Label:
        """Return the label of ``node``."""
        try:
            return self._labels[node]
        except KeyError:
            raise MissingNodeError(node) from None

    def set_label(self, node: Node, label: Label) -> None:
        """Relabel an existing node."""
        if node not in self._succ:
            raise MissingNodeError(node)
        if self._labels[node] != label:
            self._oob_version += 1  # relabel: no delta can express this
        self._labels[node] = label

    @property
    def oob_version(self) -> int:
        """Monotonic count of mutations no batch update can express —
        relabels of existing nodes and node removals.  Edge updates flow
        through the engine's journal, so persistence derives incremental
        graph diffs from the log; this counter is the tripwire telling
        :meth:`repro.persist.SnapshotStore.save` the graph moved outside
        that channel and the diff base must be rewritten in full."""
        return self._oob_version

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes (insertion order)."""
        return iter(self._succ)

    def nodes_with_label(self, label: Label) -> Iterator[Node]:
        """Iterate over nodes carrying ``label`` (linear scan)."""
        return (node for node, node_label in self._labels.items() if node_label == label)

    @property
    def labels(self) -> dict[Node, Label]:
        """Read-only view of the label map (do not mutate)."""
        return self._labels

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------

    def add_edge(
        self,
        source: Node,
        target: Node,
        source_label: Label = DEFAULT_LABEL,
        target_label: Label = DEFAULT_LABEL,
    ) -> None:
        """Insert edge ``(source, target)``, creating endpoints if absent.

        The paper's unit insertion "(insert e), possibly with new nodes"
        (Section 2.2) is modeled by the implicit node creation; labels for
        pre-existing endpoints are left untouched.
        """
        if source not in self._succ:
            self.add_node(source, label=source_label)
        if target not in self._succ:
            self.add_node(target, label=target_label)
        if target in self._succ[source]:
            raise DuplicateEdgeError((source, target))
        self._succ[source].add(target)
        self._pred[target].add(source)
        self._num_edges += 1

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Insert every edge of ``edges`` in order, with what one
        :meth:`add_edge` per edge does: missing endpoints created with
        the default label in order of first mention, and
        :class:`DuplicateEdgeError` for the first edge already present
        (earlier edges inserted).

        The work is C-level per edge, a chunk of :data:`EDGE_CHUNK`
        edges at a time: each adjacency set receives its members in the
        same order as edge-at-a-time insertion would give them, so every
        set is laid out, and iterates, exactly alike.  From a chunk it
        cannot take whole — a duplicate, a pair that does not unpack or
        hash — on, edges go one at a time, so the error is the one
        :meth:`add_edge` raises where it raises it.

        >>> g = DiGraph(labels={1: "a"})
        >>> g.add_edges([(1, 2), (2, 3), (1, 3)])
        >>> sorted(g.successors(1)), g.label(3), g.num_edges
        ([2, 3], '', 3)
        """
        remaining = iter(edges)
        while True:
            chunk = list(islice(remaining, EDGE_CHUNK))
            if not chunk:
                return
            if not self._add_edge_chunk(chunk):
                for source, target in chain(chunk, remaining):
                    self.add_edge(source, target)
                return

    def _add_edge_chunk(self, chunk: list) -> bool:
        """Insert ``chunk`` whole and return ``True``, or change nothing
        and return ``False`` when an edge in it would raise."""
        succ, pred = self._succ, self._pred
        try:
            pairs = list(map(tuple, chunk))
            if not (set(map(len, pairs)) == {2} and len(set(pairs)) == len(pairs)):
                return False
        except TypeError:  # an unpackable or unhashable pair
            return False
        sources = list(map(itemgetter(0), pairs))
        targets = list(map(itemgetter(1), pairs))
        if self._num_edges and any(
            map(contains, map(succ.get, sources, repeat(NO_NEIGHBORS)), targets)
        ):
            return False
        known = succ.__contains__
        if not (all(map(known, sources)) and all(map(known, targets))):
            for node in dict.fromkeys(chain.from_iterable(pairs)):  # first mention
                if node not in succ:
                    self.add_node(node)
        deque(map(set.add, map(succ.__getitem__, sources), targets), maxlen=0)
        deque(map(set.add, map(pred.__getitem__, targets), sources), maxlen=0)
        self._num_edges += len(pairs)
        return True

    def remove_edge(self, source: Node, target: Node) -> None:
        """Delete edge ``(source, target)``; endpoints remain."""
        if source not in self._succ or target not in self._succ[source]:
            raise MissingEdgeError((source, target))
        self._succ[source].discard(target)
        self._pred[target].discard(source)
        self._num_edges -= 1

    def has_edge(self, source: Node, target: Node) -> bool:
        """Is ``(source, target)`` an edge of the graph?"""
        return source in self._succ and target in self._succ[source]

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as ``(source, target)`` pairs."""
        for source, targets in self._succ.items():
            for target in targets:
                yield (source, target)

    def successors(self, node: Node) -> Iterator[Node]:
        """Iterate over ``w`` such that ``(node, w)`` is an edge."""
        try:
            return iter(self._succ[node])
        except KeyError:
            raise MissingNodeError(node) from None

    def predecessors(self, node: Node) -> Iterator[Node]:
        """Iterate over ``u`` such that ``(u, node)`` is an edge."""
        try:
            return iter(self._pred[node])
        except KeyError:
            raise MissingNodeError(node) from None

    def successor_set(self, node: Node) -> frozenset[Node]:
        """Frozen successor set of ``node``."""
        try:
            return frozenset(self._succ[node])
        except KeyError:
            raise MissingNodeError(node) from None

    def predecessor_set(self, node: Node) -> frozenset[Node]:
        """Frozen predecessor set of ``node``."""
        try:
            return frozenset(self._pred[node])
        except KeyError:
            raise MissingNodeError(node) from None

    def out_neighbors(self, node: Node) -> Collection[Node]:
        """The live successor set of ``node``, uncopied — sized, iterable
        and ``in``-testable; do not mutate it or hold it across an
        update.  Empty for a node not in the graph: this is the probe of
        an adjacency index, where an absent key is an empty bucket."""
        return self._succ.get(node, NO_NEIGHBORS)

    def in_neighbors(self, node: Node) -> Collection[Node]:
        """The live predecessor set of ``node``; the contract of
        :meth:`out_neighbors`."""
        return self._pred.get(node, NO_NEIGHBORS)

    def neighbor_lookup(
        self, inbound: bool = False
    ) -> Callable[[Node], Optional[Collection[Node]]]:
        """The lookup behind :meth:`out_neighbors` (:meth:`in_neighbors`
        with ``inbound=True``) as one C-level call, ``dict.get``-like: a
        node's live successor (predecessor) set, or the default given as
        second argument (``None``) for a node not in the graph.  The
        lookup stays live across updates; the sets it returns keep
        :meth:`out_neighbors`' contract."""
        return (self._pred if inbound else self._succ).get

    def out_degree(self, node: Node) -> int:
        """Number of out-edges of ``node``."""
        try:
            return len(self._succ[node])
        except KeyError:
            raise MissingNodeError(node) from None

    def in_degree(self, node: Node) -> int:
        """Number of in-edges of ``node``."""
        try:
            return len(self._pred[node])
        except KeyError:
            raise MissingNodeError(node) from None

    # ------------------------------------------------------------------
    # Sizes and dunders
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes, ``|V|``."""
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        """Number of edges, ``|E|``."""
        return self._num_edges

    def size(self) -> int:
        """Return ``|V| + |E|``, the paper's measure of ``|G|``."""
        return self.num_nodes + self.num_edges

    def __len__(self) -> int:
        return self.num_nodes

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self._labels == other._labels
            and self._succ == other._succ
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(|V|={self.num_nodes}, |E|={self.num_edges})"

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------

    def subgraph(self, nodes: Iterable[Node]) -> "DiGraph":
        """Return the subgraph *induced* by ``nodes`` (paper Section 2).

        Edges are retained exactly when both endpoints lie in ``nodes``;
        labels are inherited.
        """
        keep = set(nodes)
        missing = keep - self._succ.keys()
        if missing:
            raise MissingNodeError(next(iter(missing)))
        sub = DiGraph()
        for node in keep:
            sub.add_node(node, label=self._labels[node])
        for node in keep:
            for target in self._succ[node] & keep:
                sub.add_edge(node, target)
        return sub

    def edge_subgraph(self, edges: Iterable[Edge]) -> "DiGraph":
        """Return the (not necessarily induced) subgraph on ``edges``."""
        sub = DiGraph()
        for source, target in edges:
            if not self.has_edge(source, target):
                raise MissingEdgeError((source, target))
            if source not in sub:
                sub.add_node(source, label=self._labels[source])
            if target not in sub:
                sub.add_node(target, label=self._labels[target])
            sub.add_edge(source, target)
        return sub

    def reverse(self) -> "DiGraph":
        """Return a graph with every edge direction flipped."""
        rev = DiGraph()
        for node, label in self._labels.items():
            rev.add_node(node, label=label)
        for source, target in self.edges():
            rev.add_edge(target, source)
        return rev
