"""Sharding: the node → shard layout the segmented log routes by.

The views read one graph, G ⊕ ΔG; what is partitioned is the *journal*
(:class:`repro.persist.deltalog.SegmentedDeltaLog`, one segment per
shard), so the layout is a map, not a second copy of the adjacency:

* :class:`ShardMap` assigns every node to a shard — by a stable hash
  (default) or by range boundaries — deterministically across
  processes, which is what lets per-shard log segments and the worker
  processes that write them agree on ownership without coordination.
* :class:`ShardedGraphStore` is a :class:`~repro.graph.digraph.DiGraph`
  carrying a :class:`ShardMap`: one adjacency, every read and mutation
  inherited, the map stamped into snapshots as ``%meta sharding``.
* :func:`route_updates` partitions one batch into per-shard sub-deltas
  by the ownership rule — **an edge belongs to its source's shard** —
  the unit the segmented delta log appends and a shard worker journals.

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
from collections.abc import Iterable
from typing import Optional, cast

from repro.graph.digraph import DiGraph, Edge, Label, Node

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
        if kind == "range":
            # A sort compares every pair adjacent in its output, so a
            # mix that shard_of could not compare raises here.
            every = self.boundaries + tuple(entry[2] for entry in entries)
            try:
                sorted(every)
            except TypeError:
                raise ValueError(
                    f"range boundaries {list(every)!r} (split boundaries "
                    "included) do not order against each other"
                ) from None
            if list(self.boundaries) != sorted(self.boundaries):
                raise ValueError("range boundaries must be sorted ascending")
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

        A range ``boundary`` must order against the map's boundaries
        and split boundaries, or :class:`ValueError` is raised:
        :meth:`shard_of` compares nodes with it.  Whether it orders
        against the nodes themselves only a graph can tell
        (:meth:`repro.persist.snapshot.SnapshotStore.split_shard`
        checks that).

        The receiver is unchanged; nothing moves in memory when a graph
        adopts the new map, only the log's routing does (see
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
    **source's** shard — so a routed sub-delta appends to exactly one
    log segment.  Returns ``{shard_index: [updates...]}`` with original
    update order preserved inside each shard (touched shards only);
    updates on the same edge always land in the same shard, so
    per-segment replay applies them in their original order.
    """
    routed: dict[int, list] = {}
    for update in delta:
        routed.setdefault(shard_map.shard_of(update.source), []).append(update)
    return routed


class ShardedGraphStore(DiGraph):
    """A :class:`DiGraph` that carries the :class:`ShardMap` its log
    routes by.

    There is one adjacency, inherited whole from :class:`DiGraph` —
    every read, mutation, exception and iteration order is the plain
    graph's, so engines, views and snapshots treat the two alike.  The
    layout is metadata: :attr:`shard_map` is what a
    :class:`~repro.persist.snapshot.SnapshotStore` binds its segmented
    log to and stamps as ``%meta sharding``, and an online split only
    replaces it (:meth:`~repro.persist.snapshot.SnapshotStore.
    split_shard`) — no node moves in memory.

    Example::

        >>> g = ShardedGraphStore(shards=3)
        >>> g.add_edge("u", "v", source_label="a", target_label="b")
        >>> g.label("v"), g.has_edge("u", "v"), g.num_edges
        ('b', True, 1)
        >>> g.shard_of("u") == g.shard_map.shard_of("u")
        True
    """

    __slots__ = ("shard_map",)

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
        #: The node → shard assignment the log routes by (immutable;
        #: a split replaces it).
        self.shard_map = shard_map
        super().__init__(edges=edges, labels=labels)

    @classmethod
    def from_digraph(
        cls, graph: DiGraph, shard_map: ShardMap
    ) -> "ShardedGraphStore":
        """The same nodes, labels and edges under ``shard_map``,
        re-inserted in ``graph``'s iteration order."""
        return cls(shard_map=shard_map, edges=graph.edges(), labels=graph.labels)

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
        """Independent deep copy under the same map."""
        clone = cast(ShardedGraphStore, super().copy())
        clone.shard_map = self.shard_map
        return clone

    @property
    def num_shards(self) -> int:
        """Number of shards in the layout."""
        return self.shard_map.count

    def shard_of(self, node: Node) -> int:
        """The shard index owning ``node`` (defined for any node)."""
        return self.shard_map.shard_of(node)

    def shard_sizes(self) -> list[tuple[int, int]]:
        """Per-shard ``(owned_nodes, owned_edges)`` under the map — the
        balance view.  An edge counts at its source's shard, the shard
        whose log segment journals it."""
        nodes = [0] * self.num_shards
        edges = [0] * self.num_shards
        for node, targets in self._succ.items():
            index = self.shard_map.shard_of(node)
            nodes[index] += 1
            edges[index] += len(targets)
        return list(zip(nodes, edges))

    def cross_shard_edges(self) -> int:
        """Number of edges whose endpoints live on different shards."""
        shard_of = self.shard_map.shard_of
        return sum(
            1 for source, target in self.edges() if shard_of(source) != shard_of(target)
        )
