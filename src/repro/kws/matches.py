"""Match trees T(r, p1, ..., pm) (paper Section 2.1, KWS).

A match at root ``r`` is the union of the chosen shortest paths from ``r``
to one node per keyword, subject to the bound; the sum of distances is
minimal because each path is individually shortest.  Matches are *derived*
from kdist(·): following ``next`` pointers from the root materializes the
tree, so the auxiliary structure is the single source of truth and
incremental updates to it implicitly update Q(G) (paper Fig. 1 lines 9-10
"replace (u, u''1) with (u, u''2) in all the matches").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.digraph import Label, Node
from repro.kws.kdist import KDistIndex


class MatchExtractionError(RuntimeError):
    """kdist(·) was inconsistent while following next pointers."""


@dataclass(frozen=True)
class MatchTree:
    """One match: the root plus, per keyword, the chosen shortest path
    (a node tuple starting at the root and ending at the keyword node)."""

    root: Node
    paths: dict[Label, tuple[Node, ...]]

    @property
    def weight(self) -> int:
        """Σ dist(r, p_i) — the quantity the paper minimizes."""
        return sum(len(path) - 1 for path in self.paths.values())

    def distances(self) -> dict[Label, int]:
        return {keyword: len(path) - 1 for keyword, path in self.paths.items()}

    def edges(self) -> set[tuple[Node, Node]]:
        """The union of path edges — the tree as a subgraph."""
        tree_edges: set[tuple[Node, Node]] = set()
        for path in self.paths.values():
            tree_edges.update(zip(path, path[1:]))
        return tree_edges

    def nodes(self) -> set[Node]:
        return {node for path in self.paths.values() for node in path}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchTree):
            return NotImplemented
        return self.root == other.root and self.paths == other.paths

    def __hash__(self) -> int:
        return hash((self.root, tuple(sorted(self.paths.items(), key=lambda kv: repr(kv[0])))))


def follow_path(index: KDistIndex, root: Node, keyword: Label) -> tuple[Node, ...]:
    """Materialize the chosen shortest path from ``root`` for ``keyword``."""
    entry = index.get(root, keyword)
    if entry is None:
        raise MatchExtractionError(
            f"{root!r} has no {keyword!r} entry within bound {index.query.bound}"
        )
    path = [root]
    node = root
    remaining = entry.dist
    while entry.next is not None:
        node = entry.next
        path.append(node)
        entry = index.get(node, keyword)
        if entry is None or entry.dist != remaining - 1:
            raise MatchExtractionError(
                f"broken next chain at {node!r} for keyword {keyword!r}"
            )
        remaining = entry.dist
    return tuple(path)


def match_at(index: KDistIndex, root: Node) -> MatchTree | None:
    """The unique match rooted at ``root``, or ``None`` if some keyword is
    out of reach within the bound."""
    if not index.is_root(root):
        return None
    paths = {
        keyword: follow_path(index, root, keyword)
        for keyword in index.query.keywords
    }
    return MatchTree(root=root, paths=paths)


def all_matches(index: KDistIndex) -> dict[Node, MatchTree]:
    """Q(G): the match for every root (paper: r ranges over all nodes)."""
    return {root: match_at(index, root) for root in index.complete_roots()}


def distance_profile(index: KDistIndex) -> dict[Node, dict[Label, int]]:
    """{root: {keyword: dist}} — the tie-invariant fingerprint of Q(G)
    used by equivalence tests (ties between equally close next hops may
    break either way)."""
    return {
        root: {
            keyword: index.get(root, keyword).dist
            for keyword in index.query.keywords
        }
        for root in index.complete_roots()
    }
