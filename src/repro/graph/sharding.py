"""Sharded graph storage: partition one logical graph across shards.

The paper's bounded-incremental thesis says maintenance cost should
track |CHANGED|, not |G| — but a single :class:`~repro.graph.digraph.
DiGraph` still makes every mutation, snapshot, and log append contend
on one structure.  This module partitions the *storage* of the graph
without changing its *semantics*:

* :class:`ShardMap` assigns every node to a shard — by a stable hash
  (default) or by range boundaries — deterministically across
  processes, which is what lets routed sub-deltas be shipped to
  per-shard worker processes and per-shard log segments
  (:class:`repro.persist.deltalog.SegmentedDeltaLog`) agree on
  ownership without coordination.
* :class:`ShardedGraphStore` presents the full :class:`DiGraph` API
  over a list of per-shard ``DiGraph`` instances, so the
  :class:`~repro.engine.session.Engine` and all four view classes work
  unchanged on a sharded graph.  **Every edge is owned by its source's
  shard**: a shard holds the complete out-adjacency of the nodes it
  owns, plus *ghost* copies of remote targets carrying their in-links,
  so both ``successors`` and ``predecessors`` resolve without scanning
  other shards' edges.
* :func:`route_updates` partitions one batch into per-shard sub-deltas
  under the same ownership rule — the unit the segmented delta log
  appends and the process executor ships.

Example::

    >>> store = ShardedGraphStore(shards=2, labels={1: "a", 2: "b"},
    ...                           edges=[(1, 2), (2, 1)])
    >>> sorted(store.successors(1)), sorted(store.predecessors(1))
    ([2], [2])
    >>> store.num_edges, store.num_shards
    (2, 2)
    >>> store == DiGraph(labels={1: "a", 2: "b"}, edges=[(1, 2), (2, 1)])
    True
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from collections.abc import Collection, Iterable, Iterator
from itertools import chain
from typing import Optional

from repro.graph.digraph import (
    DEFAULT_LABEL,
    DiGraph,
    Edge,
    Label,
    MissingEdgeError,
    MissingNodeError,
    NO_NEIGHBORS,
    Node,
)

__all__ = [
    "ShardMap",
    "ShardedGraphStore",
    "route_updates",
    "stable_shard_hash",
]

#: Partitioning strategies :class:`ShardMap` understands.
SHARD_KINDS = ("hash", "range")


def stable_shard_hash(node: Node) -> int:
    """A deterministic, process-independent hash for shard assignment.

    Python's built-in ``hash`` is salted per process for strings
    (``PYTHONHASHSEED``), so it cannot place nodes consistently across
    the worker processes and recovery runs that share a shard layout.
    Integers hash through the CRC of their decimal string (so
    consecutive ids spread across shards instead of striping), strings
    through ``zlib.crc32`` of their UTF-8 bytes, and any other hashable
    falls back to the CRC of its ``repr`` — callers that persist
    sharded graphs are already restricted to int/str nodes by the token
    format.

    Booleans hash **as their integer value**: dict semantics make
    ``True`` and ``1`` the same node key everywhere else in the graph
    layer, so they must land on the same shard too.

    >>> stable_shard_hash("v1") == stable_shard_hash("v1")
    True
    >>> stable_shard_hash(True) == stable_shard_hash(1)
    True
    """
    if isinstance(node, int):  # incl. bool: True is the same key as 1
        return zlib.crc32(str(int(node)).encode("utf-8"))
    if isinstance(node, str):
        return zlib.crc32(node.encode("utf-8"))
    return zlib.crc32(repr(node).encode("utf-8"))


def _split_token(node: Node) -> bytes:
    """Canonical bytes of a node id, matching the type normalization of
    :func:`stable_shard_hash` (bool folds into int, etc.)."""
    if isinstance(node, int):
        return str(int(node)).encode("utf-8")
    if isinstance(node, str):
        return node.encode("utf-8")
    return repr(node).encode("utf-8")


def _split_bit(node: Node, child: int) -> bool:
    """Deterministic coin flip deciding whether a hash split moves
    ``node`` to the child shard.  Salted by the child index so repeated
    splits of the same parent partition independently instead of moving
    the same half every time."""
    return bool(zlib.crc32(b"split:%d:" % child + _split_token(node)) & 1)


class ShardMap:
    """Deterministic node → shard assignment.

    Two kinds:

    * ``hash`` (default) — ``stable_shard_hash(node) % count``; spreads
      any node population evenly without configuration.
    * ``range`` — ``boundaries`` is a sorted sequence of split points;
      a node lands in the shard of the first boundary greater than it
      (``count = len(boundaries) + 1``).  All nodes must be mutually
      orderable with the boundaries (e.g. all-int or all-str node ids).

    A map is immutable; the layout is stamped into snapshot files
    (``%meta sharding``) so recovery rebuilds identical ownership.
    :meth:`split` derives a *new* map with one more shard — the base
    layout plus an ordered tuple of recorded splits, each stamped as a
    ``%meta shard-split`` line (format v5) so recovery replays the same
    growth history.

    >>> ShardMap(4).shard_of(7) == ShardMap(4).shard_of(7)
    True
    >>> ShardMap(kind="range", boundaries=[100, 200]).shard_of(150)
    1
    >>> grown = ShardMap(kind="range", boundaries=[100]).split(1, boundary=200)
    >>> grown.count, grown.shard_of(150), grown.shard_of(250)
    (3, 1, 2)
    """

    __slots__ = ("count", "kind", "boundaries", "splits")

    def __init__(
        self,
        count: int = 1,
        kind: str = "hash",
        boundaries: Optional[Iterable] = None,
        splits: Iterable[tuple] = (),
    ) -> None:
        if kind not in SHARD_KINDS:
            raise ValueError(
                f"unknown shard kind {kind!r}; expected one of {SHARD_KINDS}"
            )
        if kind == "range":
            self.boundaries = tuple(boundaries or ())
            if list(self.boundaries) != sorted(self.boundaries):
                raise ValueError("range boundaries must be sorted ascending")
            implied = len(self.boundaries) + 1
            if count not in (1, implied):  # 1 is the unspecified default
                raise ValueError(
                    f"count={count} contradicts the boundary list, which "
                    f"implies {implied} shards"
                )
            count = implied
        else:
            if boundaries is not None:
                raise ValueError("boundaries are only meaningful for kind='range'")
            self.boundaries = ()
        if count < 1:
            raise ValueError(f"shard count must be >= 1, got {count}")
        entries = tuple(tuple(entry) for entry in splits)
        want = 3 if kind == "range" else 2
        for position, entry in enumerate(entries):
            child = count + position
            if (
                len(entry) != want
                or not isinstance(entry[0], int)
                or not 0 <= entry[0] < child
                or entry[1] != child
            ):
                raise ValueError(
                    f"malformed split entry {entry!r} at position {position}: "
                    f"expected (parent < {child}, child == {child}"
                    + (", boundary)" if kind == "range" else ")")
                )
        self.count = count + len(entries)
        self.kind = kind
        self.splits = entries

    def split(self, parent: int, boundary=None) -> "ShardMap":
        """A new map with one more shard, carved out of shard ``parent``.

        The child takes the next shard index (``self.count``).  Which of
        the parent's nodes move is deterministic: a *range* split moves
        every node ``>= boundary`` (mirroring the ``bisect_right`` base
        rule); a *hash* split moves the half of the parent's nodes whose
        child-salted hash bit is set, so repeated splits keep carving
        evenly without reshuffling other shards.

        The receiver is unchanged — callers that adopt the new map must
        migrate storage themselves (see
        :meth:`ShardedGraphStore.repartition` and
        :meth:`repro.persist.snapshot.SnapshotStore.split_shard`).
        """
        if not isinstance(parent, int) or not 0 <= parent < self.count:
            raise ValueError(
                f"parent shard {parent!r} out of range 0..{self.count - 1}"
            )
        child = self.count
        if self.kind == "range":
            if boundary is None:
                raise ValueError(
                    "a range split needs the boundary separating parent "
                    "from child"
                )
            entry = (parent, child, boundary)
        else:
            if boundary is not None:
                raise ValueError("hash splits take no boundary")
            entry = (parent, child)
        base_count = self.count - len(self.splits)
        if self.kind == "range":
            return ShardMap(
                kind="range",
                boundaries=self.boundaries,
                splits=self.splits + (entry,),
            )
        return ShardMap(base_count, splits=self.splits + (entry,))

    def shard_of(self, node: Node) -> int:
        """The shard index owning ``node`` (0-based, stable)."""
        if self.kind == "hash":
            index = stable_shard_hash(node) % (self.count - len(self.splits))
        else:
            index = bisect_right(self.boundaries, node)
        for entry in self.splits:
            if entry[0] != index:
                continue
            if self.kind == "range":
                if not node < entry[2]:
                    index = entry[1]
            elif _split_bit(node, entry[1]):
                index = entry[1]
        return index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardMap):
            return NotImplemented
        return (
            self.count == other.count
            and self.kind == other.kind
            and self.boundaries == other.boundaries
            and self.splits == other.splits
        )

    def __hash__(self) -> int:
        return hash((self.count, self.kind, self.boundaries, self.splits))

    def __repr__(self) -> str:
        extra = f", splits={list(self.splits)!r}" if self.splits else ""
        if self.kind == "range":
            return (
                f"ShardMap(kind='range', "
                f"boundaries={list(self.boundaries)!r}{extra})"
            )
        return f"ShardMap({self.count - len(self.splits)}{extra})"


def route_updates(delta, shard_map: ShardMap) -> dict[int, list]:
    """Partition a batch's unit updates by owning shard.

    Ownership follows the store's rule — an edge belongs to its
    **source's** shard — so a routed sub-delta mutates exactly one
    shard's adjacency and appends to exactly one log segment.  Returns
    ``{shard_index: [updates...]}`` with original update order
    preserved inside each shard (touched shards only); updates on the
    same edge always land in the same shard, so per-shard replay and
    per-segment net-cancellation stay order-safe.
    """
    routed: dict[int, list] = {}
    for update in delta:
        routed.setdefault(shard_map.shard_of(update.source), []).append(update)
    return routed


class _DisjointUnion:
    """Several pairwise-disjoint live sets read as one, uncopied:
    sized, iterable, ``in``-testable and ``&``-able like each of them."""

    __slots__ = ("_parts",)

    def __init__(self, parts: list) -> None:
        self._parts = parts

    def __len__(self) -> int:
        return sum(map(len, self._parts))

    def __iter__(self) -> Iterator[Node]:
        return chain.from_iterable(self._parts)

    def __contains__(self, node: object) -> bool:
        for part in self._parts:
            if node in part:
                return True
        return False

    def __and__(self, other: Collection) -> set:
        common: set = set()
        for part in self._parts:
            common |= part & other
        return common

    __rand__ = __and__


class ShardedGraphStore:
    """One logical labeled digraph stored across per-shard ``DiGraph``\\ s.

    The store satisfies the complete :class:`DiGraph` contract — same
    methods, same exceptions, same iteration semantics — so engines and
    views use it interchangeably.  Internally:

    * node ``v`` is *owned* by shard ``shard_map.shard_of(v)``; the
      owner shard always hosts ``v`` and holds its authoritative label
      and complete out-adjacency;
    * edge ``(u, v)`` is stored exactly once, in ``u``'s shard.  When
      ``v`` lives elsewhere, ``u``'s shard hosts a *ghost* copy of
      ``v`` (label synchronized) carrying the in-link, so
      ``predecessors(v)`` is the disjoint union of the hosting shards'
      predecessor sets — resolved through a per-node host index, never
      by scanning all shards;
    * relabels and node removals fan out to every hosting shard, and
      the store keeps its own :attr:`oob_version` tripwire with the
      same semantics as :attr:`DiGraph.oob_version`.

    Cross-shard reads cost one extra dict hop; mutations touch exactly
    one shard's adjacency (plus ghost upkeep), which is what lets
    independent shards apply, journal, and compact concurrently.

    Example::

        >>> g = ShardedGraphStore(shards=3)
        >>> g.add_edge("u", "v", source_label="a", target_label="b")
        >>> g.label("v"), g.has_edge("u", "v"), g.num_edges
        ('b', True, 1)
    """

    def __init__(
        self,
        shard_map: Optional[ShardMap] = None,
        shards: Optional[int] = None,
        edges: Optional[Iterable[Edge]] = None,
        labels: Optional[dict[Node, Label]] = None,
    ) -> None:
        if shard_map is None:
            shard_map = ShardMap(shards if shards is not None else 1)
        elif shards is not None and shards != shard_map.count:
            raise ValueError(
                f"shards={shards} contradicts shard_map.count={shard_map.count}"
            )
        #: The immutable node → shard assignment.
        self.shard_map = shard_map
        self._shards: list[DiGraph] = [DiGraph() for _ in range(shard_map.count)]
        #: node → set of shard indexes hosting it (owner first to exist;
        #: ghosts accumulate).  Key order is global insertion order.
        self._hosts: dict[Node, set[int]] = {}
        self._num_edges = 0
        self._oob_version = 0
        if labels:
            for node, label in labels.items():
                self.add_node(node, label=label)
        if edges:
            for source, target in edges:
                self.add_edge(source, target)

    # ------------------------------------------------------------------
    # Shard-level introspection
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of shards in the layout."""
        return self.shard_map.count

    def shard(self, index: int) -> DiGraph:
        """The backing ``DiGraph`` of one shard (owned + ghost nodes).

        Treat it as read-only: mutating a shard directly bypasses the
        store's host index and edge counter.
        """
        return self._shards[index]

    def shard_of(self, node: Node) -> int:
        """The shard index owning ``node`` (defined for any node)."""
        return self.shard_map.shard_of(node)

    def shard_sizes(self) -> list[tuple[int, int]]:
        """Per-shard ``(owned_nodes, owned_edges)`` — the balance view.

        Edges are counted at their owning shard; ghost nodes are not
        counted (each node counts once, at its owner).
        """
        nodes = [0] * self.num_shards
        for node in self._hosts:
            nodes[self.shard_map.shard_of(node)] += 1
        return [
            (nodes[index], self._shards[index].num_edges)
            for index in range(self.num_shards)
        ]

    def cross_shard_edges(self) -> int:
        """Number of edges whose endpoints live on different shards."""
        count = 0
        for source, target in self.edges():
            if self.shard_map.shard_of(source) != self.shard_map.shard_of(target):
                count += 1
        return count

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_digraph(
        cls, graph: DiGraph, shard_map: ShardMap
    ) -> "ShardedGraphStore":
        """Shard an existing graph (nodes and edges re-inserted in the
        source graph's iteration order, so iteration order carries
        over)."""
        store = cls(shard_map=shard_map)
        for node in graph.nodes():
            store.add_node(node, label=graph.label(node))
        for source, target in graph.edges():
            store.add_edge(source, target)
        store._oob_version = 0  # construction is not an out-of-band event
        return store

    def to_digraph(self) -> DiGraph:
        """Flatten into a single ``DiGraph`` (same nodes/labels/edges)."""
        flat = DiGraph()
        for node in self._hosts:
            flat.add_node(node, label=self.label(node))
        for source, target in self.edges():
            flat.add_edge(source, target)
        return flat

    @classmethod
    def from_labeled_edges(
        cls,
        labels: dict[Node, Label],
        edges: Iterable[Edge],
        shard_map: Optional[ShardMap] = None,
    ) -> "ShardedGraphStore":
        """Build a sharded graph from a label map and an edge list."""
        return cls(shard_map=shard_map, edges=edges, labels=labels)

    def copy(self) -> "ShardedGraphStore":
        """Independent deep copy with the same shard layout."""
        clone = ShardedGraphStore(shard_map=self.shard_map)
        clone._shards = [shard.copy() for shard in self._shards]
        clone._hosts = {node: set(hosts) for node, hosts in self._hosts.items()}
        clone._num_edges = self._num_edges
        clone._oob_version = self._oob_version
        return clone

    def repartition(self, shard_map: ShardMap) -> None:
        """Re-place nodes under a new shard layout, in memory.

        The logical graph is untouched — same nodes, labels, edges,
        iteration order, :attr:`num_edges`, and :attr:`oob_version`
        (re-placement is storage movement, not a graph mutation, so it
        must not trip the incremental-save tripwire).  Only nodes whose
        owner changes between the old and new map are migrated, so the
        cost of an online split tracks the carved-off region, not
        ``|G|``.

        Migration keeps the ownership invariants intact: each moved
        node's complete out-adjacency follows it to the new owner,
        ghost copies of remote targets are created at the destination
        and garbage-collected at the source once no local in-link needs
        them.  Growing appends empty shards; shrinking (the split
        rollback path) drops trailing shards, which must have been
        emptied by the re-placement.
        """
        old_map = self.shard_map
        if shard_map == old_map:
            return
        while len(self._shards) < shard_map.count:
            self._shards.append(DiGraph())
        moved: dict[Node, tuple[int, int]] = {}
        for node in self._hosts:
            source_index = old_map.shard_of(node)
            target_index = shard_map.shard_of(node)
            if source_index != target_index:
                moved[node] = (source_index, target_index)
        labels: dict[Node, Label] = {}
        outs: dict[Node, list[Node]] = {}
        for node, (source_index, _) in moved.items():
            shard = self._shards[source_index]
            labels[node] = shard.label(node)
            outs[node] = list(shard.successors(node))

        def label_of(node: Node) -> Label:
            if node in labels:
                return labels[node]
            return self._shards[old_map.shard_of(node)].label(node)

        # Detach every moved node's out-adjacency first, so the
        # ghost-keep decisions below see post-move in-degrees.
        for node, (source_index, _) in moved.items():
            shard = self._shards[source_index]
            for target in outs[node]:
                shard.remove_edge(node, target)
        # Place each moved node, with its out-edges, at its new owner.
        for node, (_, target_index) in moved.items():
            shard = self._shards[target_index]
            if not shard.has_node(node):
                shard.add_node(node, label=labels[node])
            self._hosts[node].add(target_index)
            for target in outs[node]:
                if not shard.has_node(target):
                    shard.add_node(target, label=label_of(target))
                shard.add_edge(node, target)
                self._hosts[target].add(target_index)
        # Drop source-shard residents stranded by the move: a moved node
        # stays behind only as a ghost (if local in-links remain), and a
        # ghost whose in-links all departed goes with them.
        candidates: set[tuple[int, Node]] = set()
        for node, (source_index, _) in moved.items():
            candidates.add((source_index, node))
            for target in outs[node]:
                candidates.add((source_index, target))
        for source_index, node in candidates:
            shard = self._shards[source_index]
            if shard_map.shard_of(node) == source_index:
                continue
            if not shard.has_node(node):
                continue
            if shard.in_degree(node) == 0 and shard.out_degree(node) == 0:
                shard.remove_node(node)
                self._hosts[node].discard(source_index)
        if len(self._shards) > shard_map.count:
            for shard in self._shards[shard_map.count :]:
                if len(shard):
                    raise ValueError(
                        "cannot drop a shard that still hosts nodes"
                    )
            del self._shards[shard_map.count :]
        self.shard_map = shard_map

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------

    def _owner(self, node: Node) -> DiGraph:
        """The shard graph owning ``node`` (which must exist)."""
        return self._shards[self.shard_map.shard_of(node)]

    def add_node(self, node: Node, label: Label = DEFAULT_LABEL) -> None:
        """Add ``node`` with ``label``; re-adding updates the label only
        (on every hosting shard, keeping ghosts synchronized)."""
        hosts = self._hosts.get(node)
        if hosts is None:
            owner = self.shard_map.shard_of(node)
            self._shards[owner].add_node(node, label=label)
            self._hosts[node] = {owner}
            return
        if self._owner(node).label(node) != label:
            self._oob_version += 1  # relabel: no delta can express this
            for index in hosts:
                self._shards[index].set_label(node, label)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every incident edge, across all shards."""
        hosts = self._hosts.get(node)
        if hosts is None:
            raise MissingNodeError(node)
        self._oob_version += 1  # no delta can express node removal
        removed_edges = 0
        for index in hosts:
            shard = self._shards[index]
            incident = shard.out_degree(node) + shard.in_degree(node)
            if shard.has_edge(node, node):
                incident -= 1  # a self-loop is one edge, not two
            removed_edges += incident
            shard.remove_node(node)
        self._num_edges -= removed_edges
        del self._hosts[node]

    def has_node(self, node: Node) -> bool:
        """Is ``node`` in the (logical) graph?"""
        return node in self._hosts

    def label(self, node: Node) -> Label:
        """The authoritative label of ``node`` (from its owner shard)."""
        if node not in self._hosts:
            raise MissingNodeError(node)
        return self._owner(node).label(node)

    def set_label(self, node: Node, label: Label) -> None:
        """Relabel an existing node on every hosting shard."""
        hosts = self._hosts.get(node)
        if hosts is None:
            raise MissingNodeError(node)
        if self._owner(node).label(node) != label:
            self._oob_version += 1  # relabel: no delta can express this
        for index in hosts:
            self._shards[index].set_label(node, label)

    @property
    def oob_version(self) -> int:
        """Monotonic count of mutations no batch update can express
        (relabels, node removals) — same tripwire contract as
        :attr:`repro.graph.digraph.DiGraph.oob_version`."""
        return self._oob_version

    def nodes(self) -> Iterator[Node]:
        """Iterate over all logical nodes (global insertion order)."""
        return iter(self._hosts)

    def nodes_with_label(self, label: Label) -> Iterator[Node]:
        """Iterate over nodes carrying ``label`` (linear scan, each node
        reported once regardless of ghost copies)."""
        return (
            node for node in self._hosts if self._owner(node).label(node) == label
        )

    @property
    def labels(self) -> dict[Node, Label]:
        """A fresh ``{node: label}`` dict (authoritative owner labels).

        Unlike :attr:`DiGraph.labels` this is a copy, rebuilt per
        access — prefer :meth:`label` in hot paths.
        """
        return {node: self._owner(node).label(node) for node in self._hosts}

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
        """Insert edge ``(source, target)`` into the source's shard,
        creating endpoints (and a ghost copy of a remote target) if
        absent; labels of pre-existing endpoints are left untouched."""
        if source not in self._hosts:
            self.add_node(source, label=source_label)
        if target not in self._hosts:
            self.add_node(target, label=target_label)
        owner_index = self.shard_map.shard_of(source)
        owner = self._shards[owner_index]
        target_hosts = self._hosts[target]
        if owner_index not in target_hosts and not owner.has_node(target):
            owner.add_node(target, label=self.label(target))  # the ghost
        owner.add_edge(source, target)  # raises DuplicateEdgeError intact
        target_hosts.add(owner_index)
        self._num_edges += 1

    def remove_edge(self, source: Node, target: Node) -> None:
        """Delete edge ``(source, target)``; endpoints (and ghosts)
        remain."""
        if source not in self._hosts:
            raise MissingEdgeError((source, target))
        self._owner(source).remove_edge(source, target)
        self._num_edges -= 1

    def has_edge(self, source: Node, target: Node) -> bool:
        """Is ``(source, target)`` an edge of the logical graph?"""
        return source in self._hosts and self._owner(source).has_edge(
            source, target
        )

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges, grouped by source in global node
        insertion order (each edge exactly once, from its owner
        shard)."""
        for node in self._hosts:
            owner = self._owner(node)
            for target in owner.successors(node):
                yield (node, target)

    def successors(self, node: Node) -> Iterator[Node]:
        """Iterate over ``w`` with ``(node, w)`` an edge — complete from
        the owner shard alone (it holds the node's full out-adjacency)."""
        if node not in self._hosts:
            raise MissingNodeError(node)
        return self._owner(node).successors(node)

    def predecessors(self, node: Node) -> Iterator[Node]:
        """Iterate over ``u`` with ``(u, node)`` an edge — the disjoint
        union of every hosting shard's predecessor set."""
        hosts = self._hosts.get(node)
        if hosts is None:
            raise MissingNodeError(node)
        return (
            source
            for index in hosts
            for source in self._shards[index].predecessors(node)
        )

    def successor_set(self, node: Node) -> frozenset[Node]:
        """Frozen successor set of ``node``."""
        if node not in self._hosts:
            raise MissingNodeError(node)
        return self._owner(node).successor_set(node)

    def predecessor_set(self, node: Node) -> frozenset[Node]:
        """Frozen predecessor set of ``node`` (union across shards)."""
        return frozenset(self.predecessors(node))

    def out_neighbors(self, node: Node) -> Collection[Node]:
        """The live successor set of ``node``, uncopied, from its owner
        shard — :meth:`DiGraph.out_neighbors`' contract.  Resolved
        through the shard map on every call, so a caller that asks again
        after :meth:`repartition` reads the node's new home."""
        # a node the graph lacks is on no shard, its would-be owner included
        return self._shards[self.shard_map.shard_of(node)].out_neighbors(node)

    def in_neighbors(self, node: Node) -> Collection[Node]:
        """The live predecessors of ``node``, uncopied: the hosting
        shards' predecessor sets, read as one disjoint union."""
        hosts = self._hosts.get(node, ())
        shards = self._shards
        if len(hosts) == 1:
            (index,) = hosts
            return shards[index].in_neighbors(node)
        return _DisjointUnion([shards[index].in_neighbors(node) for index in hosts])

    def out_degree(self, node: Node) -> int:
        """Number of out-edges of ``node``."""
        if node not in self._hosts:
            raise MissingNodeError(node)
        return self._owner(node).out_degree(node)

    def in_degree(self, node: Node) -> int:
        """Number of in-edges of ``node`` (summed across hosting shards)."""
        hosts = self._hosts.get(node)
        if hosts is None:
            raise MissingNodeError(node)
        return sum(self._shards[index].in_degree(node) for index in hosts)

    # ------------------------------------------------------------------
    # Sizes and dunders
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of logical nodes (ghost copies are not counted)."""
        return len(self._hosts)

    @property
    def num_edges(self) -> int:
        """Number of edges (each stored exactly once, at its owner)."""
        return self._num_edges

    def size(self) -> int:
        """``|V| + |E|``, the paper's measure of ``|G|``."""
        return self.num_nodes + self._num_edges

    def __len__(self) -> int:
        return self.num_nodes

    def __contains__(self, node: Node) -> bool:
        return node in self._hosts

    def __eq__(self, other: object) -> bool:
        """Logical-graph equality: same nodes, labels, and edges —
        regardless of shard layout, and symmetric with ``DiGraph``."""
        if not isinstance(other, (DiGraph, ShardedGraphStore)):
            return NotImplemented
        if self.num_nodes != len(other) or self.num_edges != other.num_edges:
            return False
        for node in self._hosts:
            if not other.has_node(node):
                return False
            if self.label(node) != other.label(node):
                return False
            if self.successor_set(node) != other.successor_set(node):
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"ShardedGraphStore(|V|={self.num_nodes}, |E|={self.num_edges}, "
            f"shards={self.num_shards})"
        )

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------

    def subgraph(self, nodes: Iterable[Node]) -> DiGraph:
        """The induced subgraph on ``nodes``, as a plain ``DiGraph``
        (derived read-only views do not need to stay sharded)."""
        keep = set(nodes)
        missing = keep - self._hosts.keys()
        if missing:
            raise MissingNodeError(next(iter(missing)))
        sub = DiGraph()
        for node in keep:
            sub.add_node(node, label=self.label(node))
        for node in keep:
            for target in self.successor_set(node) & keep:
                sub.add_edge(node, target)
        return sub

    def edge_subgraph(self, edges: Iterable[Edge]) -> DiGraph:
        """The (not necessarily induced) subgraph on ``edges``, as a
        plain ``DiGraph``."""
        sub = DiGraph()
        for source, target in edges:
            if not self.has_edge(source, target):
                raise MissingEdgeError((source, target))
            if source not in sub:
                sub.add_node(source, label=self.label(source))
            if target not in sub:
                sub.add_node(target, label=self.label(target))
            sub.add_edge(source, target)
        return sub

    def reverse(self) -> DiGraph:
        """A plain ``DiGraph`` with every edge direction flipped."""
        rev = DiGraph()
        for node in self._hosts:
            rev.add_node(node, label=self.label(node))
        for source, target in self.edges():
            rev.add_edge(target, source)
        return rev
