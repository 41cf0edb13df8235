"""Keyword-distance lists kdist(·) — the KWS auxiliary structure
(paper Section 4.2, "Data structures").

For each node ``v`` and keyword ``k`` of the query, ``kdist(v)[k]`` holds

* ``dist`` — the length of the shortest *directed* path from ``v`` to any
  node labeled ``k`` (0 when ``l(v) = k``), provided it is ≤ the bound
  ``b``; entries beyond the bound are simply absent (the paper's ⊥), and
* ``next`` — the successor of ``v`` on the *chosen* shortest path
  (``None`` when ``dist`` is 0).  Ties are broken by a fixed total order
  on nodes ("a single shortest path is selected with a predefined order in
  case of a tie"), so each root determines a unique match tree.

:class:`KDistIndex` also maintains, per keyword, the reverse next-pointer
map ``parents_of`` (who routes through me?) so incremental algorithms can
walk affected chains upstream without scanning all predecessors, and so ΔO
can be confined to the 2b-neighborhood of ΔG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Optional

from repro.graph.digraph import Label, Node


def node_order(node: Node) -> tuple[str, str]:
    """A total order over heterogeneous nodes used for all tie-breaking."""
    return (type(node).__name__, repr(node))


def sorted_nodes(nodes: Collection[Node]) -> list[Node]:
    """``sorted(nodes, key=node_order)``, with no Python call per node
    when the nodes share one type: their type names tie, so ``repr``
    alone orders them.  ``nodes`` is iterated twice.

    >>> sorted_nodes({10, 9, 100})
    [10, 100, 9]
    >>> sorted_nodes(["b", 2, "a"])
    [2, 'a', 'b']
    """
    if len(set(map(type, nodes))) > 1:
        return sorted(nodes, key=node_order)
    return sorted(nodes, key=repr)


@dataclass(frozen=True, slots=True)
class KDistEntry:
    """One ``(dist, next)`` pair; immutable so old values can be snapshotted
    by identity during incremental passes.  Slotted: an index holds one
    per (node, keyword) entry, and a ``__dict__`` would add ≈ 40 bytes
    to each."""

    dist: int
    next: Optional[Node]

    def __post_init__(self) -> None:
        if self.dist < 0:
            raise ValueError(f"distance must be non-negative, got {self.dist}")
        if self.dist == 0 and self.next is not None:
            raise ValueError("a node matching the keyword has no next hop")
        if self.dist > 0 and self.next is None:
            raise ValueError("a positive distance requires a next hop")


@dataclass(frozen=True)
class KWSQuery:
    """A keyword query Q = (k1, ..., km) with bound b (paper Section 2.1)."""

    keywords: tuple[Label, ...]
    bound: int

    def __post_init__(self) -> None:
        if not self.keywords:
            raise ValueError("a keyword query needs at least one keyword")
        if len(set(self.keywords)) != len(self.keywords):
            raise ValueError("keywords must be distinct")
        if self.bound < 0:
            raise ValueError(f"bound must be non-negative, got {self.bound}")

    @property
    def m(self) -> int:
        return len(self.keywords)

    def with_bound(self, bound: int) -> "KWSQuery":
        return KWSQuery(self.keywords, bound)


class KDistIndex:
    """Mutable kdist(·) store with reverse next-pointer maintenance.

    Entries are exposed per keyword as ``{node: KDistEntry}``; an absent
    node means dist > b (the paper's ⟨⊥, nil⟩).
    """

    def __init__(self, query: KWSQuery) -> None:
        self.query = query
        self._entries: dict[Label, dict[Node, KDistEntry]] = {
            keyword: {} for keyword in query.keywords
        }
        # parents_of[k][x] = {u : kdist(u)[k].next == x}
        self._parents_of: dict[Label, dict[Node, set[Node]]] = {
            keyword: {} for keyword in query.keywords
        }

    # ------------------------------------------------------------------

    def get(self, node: Node, keyword: Label) -> Optional[KDistEntry]:
        """The entry or ``None`` (⊥)."""
        return self._entries[keyword].get(node)

    def dist(self, node: Node, keyword: Label) -> Optional[int]:
        entry = self._entries[keyword].get(node)
        return entry.dist if entry else None

    def entries(self, keyword: Label) -> dict[Node, KDistEntry]:
        """Read-only view of one keyword's entries (do not mutate)."""
        return self._entries[keyword]

    def parents_of(self, node: Node, keyword: Label) -> frozenset[Node]:
        """Nodes whose chosen shortest path routes through ``node``."""
        return frozenset(self._parents_of[keyword].get(node, ()))

    # ------------------------------------------------------------------

    def set(self, node: Node, keyword: Label, entry: KDistEntry) -> None:
        """Write an entry, keeping the reverse next-pointer map in sync."""
        old = self._entries[keyword].get(node)
        if old is not None and old.next is not None:
            self._parents_of[keyword][old.next].discard(node)
        self._entries[keyword][node] = entry
        if entry.next is not None:
            self._parents_of[keyword].setdefault(entry.next, set()).add(node)

    def clear(self, node: Node, keyword: Label) -> None:
        """Drop an entry (dist exceeded the bound)."""
        old = self._entries[keyword].pop(node, None)
        if old is not None and old.next is not None:
            self._parents_of[keyword][old.next].discard(node)

    # ------------------------------------------------------------------

    def complete_roots(self) -> set[Node]:
        """Nodes having entries for *all* keywords — the match roots."""
        keywords = self.query.keywords
        smallest = min(keywords, key=lambda k: len(self._entries[k]))
        roots = set(self._entries[smallest])
        for keyword in keywords:
            if keyword != smallest:
                roots &= self._entries[keyword].keys()
        return roots

    def is_root(self, node: Node) -> bool:
        return all(node in self._entries[k] for k in self.query.keywords)

    def upstream_closure(self, seeds: dict[Label, set[Node]]) -> set[Node]:
        """All nodes whose chosen path (for some keyword) passes through a
        seed node — the candidates whose match trees changed."""
        result: set[Node] = set()
        for keyword, nodes in seeds.items():
            frontier = list(nodes)
            seen = set(nodes)
            while frontier:
                node = frontier.pop()
                for parent in self._parents_of[keyword].get(node, ()):
                    if parent not in seen:
                        seen.add(parent)
                        frontier.append(parent)
            result |= seen
        return result

    # ------------------------------------------------------------------

    def check_shape(self) -> None:
        """Structural audit: entry constraints and reverse-map consistency."""
        for keyword in self.query.keywords:
            for node, entry in self._entries[keyword].items():
                if entry.dist > self.query.bound:
                    raise AssertionError(
                        f"entry {node!r}/{keyword!r} exceeds bound: {entry.dist}"
                    )
                if entry.next is not None:
                    parents = self._parents_of[keyword].get(entry.next, set())
                    if node not in parents:
                        raise AssertionError(
                            f"reverse map missing {node!r} -> {entry.next!r}"
                        )
            for target, parents in self._parents_of[keyword].items():
                for parent in parents:
                    entry = self._entries[keyword].get(parent)
                    if entry is None or entry.next != target:
                        raise AssertionError(
                            f"stale reverse-map entry {parent!r} -> {target!r}"
                        )
