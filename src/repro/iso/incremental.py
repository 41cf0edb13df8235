"""IncISO — localizable incremental subgraph isomorphism (paper Appendix,
"Localizable Algorithm for ISO"; Theorem 3).

The maintained answer Q(G) is a set of canonical matches plus an
edge → matches index.  Under a batch ΔG = (ΔG+, ΔG−):

1. **Deletions** remove every match whose subgraph uses a deleted edge —
   an index lookup, no search.  Under the paper's non-induced match
   semantics a deletion can never *create* a match, so this is complete.
2. **Insertions** search only within the d_Q-neighborhoods of inserted
   edges: every new match must map some pattern edge onto an inserted
   graph edge, and all its nodes lie within d_Q undirected hops of that
   edge's endpoints (the match image is connected with diameter ≤ d_Q).
   IncISO therefore runs *anchored* VF2 — the search seeded with a
   pattern edge pinned to each inserted edge (:func:`repro.iso.vf2.
   anchored_matches`) — which by construction never leaves
   G_{d_Q}(ΔG+).  This realizes the appendix's "compute Q(G_{d_Q}(ΔG+))
   all together" without materializing the neighborhood subgraph; the
   unit-at-a-time comparator IncISOn keeps the appendix's literal recipe
   (extract the d_Q-neighborhood of each update, run the batch algorithm
   on it, one update at a time).

Cost is a function of |Q| and |G_{d_Q}(ΔG)| — never of |G| — which makes
IncISO localizable; the tests assert meter containment in that region.

ΔO is ``ISODelta(added, removed)`` with Q(G ⊕ ΔG) = Q(G) ∪ added − removed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost import CostMeter, NULL_METER
from repro.core.delta import Delta
from repro.engine.relevance import PatternRelevance
from repro.engine.view import IncrementalView, ViewSnapshot
from repro.kws.kdist import node_order
from repro.graph.digraph import DiGraph, Edge
from repro.graph.neighborhood import nodes_within
from repro.iso.patterns import Match, Pattern, make_match
from repro.iso.vf2 import anchored_matches, vf2_matches


@dataclass(frozen=True)
class ISODelta:
    """ΔO for subgraph isomorphism."""

    added: frozenset[Match]
    removed: frozenset[Match]

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed)


class ISOIndex(IncrementalView):
    """Incrementally maintained Q(G) for one pattern query."""

    def __init__(
        self,
        graph: DiGraph,
        pattern: Pattern,
        meter: CostMeter = NULL_METER,
    ) -> None:
        self.graph = graph
        self.pattern = pattern
        self.meter = meter
        self.matches: set[Match] = vf2_matches(graph, pattern, meter=meter)
        self._by_edge: dict[Edge, set[Match]] = {}
        for match in self.matches:
            self._index(match)

    # ------------------------------------------------------------------

    def _index(self, match: Match) -> None:
        for edge in match.edges:
            self._by_edge.setdefault(edge, set()).add(match)

    def _deindex(self, match: Match) -> None:
        for edge in match.edges:
            bucket = self._by_edge.get(edge)
            if bucket is not None:
                bucket.discard(match)
                if not bucket:
                    del self._by_edge[edge]

    # ------------------------------------------------------------------

    def absorb(self, delta: Delta, new_nodes) -> ISODelta:
        """Batch IncISO on a graph that already holds ``G ⊕ ΔG``:
        deletions by index, insertions by anchored VF2 within
        G_{d_Q}(ΔG+).  ``new_nodes`` need no special handling — a
        brand-new node participates in a match only through its batch
        edges, which the anchored search from those edges explores."""
        removed: set[Match] = set()
        for update in delta.deletions:
            for match in self._by_edge.get((update.source, update.target), set()).copy():
                self._deindex(match)
                self.matches.discard(match)
                removed.add(match)

        # The graph holds every batch edge: a new match may use several
        # of them, and the anchored search from any one sees the others.
        added: set[Match] = set()
        for update in delta.insertions:
            for match in anchored_matches(
                self.graph, self.pattern, update.edge, meter=self.meter
            ):
                if match not in self.matches:
                    self.matches.add(match)
                    self._index(match)
                    added.add(match)

        # A match deleted and re-created within one batch nets out.
        resurrected = added & removed
        return ISODelta(
            frozenset(added - resurrected), frozenset(removed - resurrected)
        )

    # ------------------------------------------------------------------

    def _insertion_region(self, edges: list[Edge]) -> DiGraph:
        """G_{d_Q}(ΔG+): the induced subgraph on the union of
        d_Q-neighborhoods of inserted endpoints, in the updated graph."""
        endpoints = {node for edge in edges for node in edge}
        nodes = nodes_within(
            self.graph, endpoints, self.pattern.diameter, meter=self.meter
        )
        return self.graph.subgraph(nodes)

    # ------------------------------------------------------------------
    # Engine routing (repro.engine.relevance)
    # ------------------------------------------------------------------

    def relevance(self) -> PatternRelevance:
        """Routing filter: an insertion can only create matches when its
        endpoint label pair occurs among the pattern's edge label pairs
        (anchored VF2 pins a pattern edge to the inserted edge); a
        deletion only matters when the edge → matches index holds it."""
        pattern_graph = self.pattern.graph
        label_pairs = frozenset(
            (pattern_graph.label(source), pattern_graph.label(target))
            for source, target in pattern_graph.edges()
        )
        return PatternRelevance(self, label_pairs)

    def empty_output(self) -> ISODelta:
        """The ΔO of a batch that touched nothing this view depends on."""
        return ISODelta(frozenset(), frozenset())

    # ------------------------------------------------------------------
    # Persistence (repro.persist)
    # ------------------------------------------------------------------

    def snapshot(self) -> ViewSnapshot:
        """Capture the pattern and the match set as token rows.

        Records are tagged: ``("pn", node, label)`` and
        ``("pe", source, target)`` spell out the pattern graph, and one
        ``("m", pattern_node, graph_node, ...)`` row per match flattens
        its retained embedding.  Rows of each tag are emitted in sorted
        order (the canonical order, so behaviorally identical indexes
        serialize byte-identically regardless of set history).  The
        canonical node/edge sets and the edge → matches index are
        derived state, re-canonicalized through
        :func:`~repro.iso.patterns.make_match` on restore.
        """

        def row_key(row: tuple) -> tuple:
            return tuple(node_order(value) for value in row)

        records: list[tuple] = []
        pattern_graph = self.pattern.graph
        records.extend(
            sorted(
                (("pn", node, pattern_graph.label(node))
                 for node in pattern_graph.nodes()),
                key=row_key,
            )
        )
        records.extend(
            sorted(
                (("pe", source, target)
                 for source, target in pattern_graph.edges()),
                key=row_key,
            )
        )
        records.extend(
            sorted(
                (
                    ("m", *(value for pair in match.embedding for value in pair))
                    for match in self.matches
                ),
                key=row_key,
            )
        )
        return ViewSnapshot(kind="iso", config=(), records=tuple(records))

    @classmethod
    def restore(
        cls,
        graph: DiGraph,
        state: ViewSnapshot,
        meter: CostMeter = NULL_METER,
    ) -> "ISOIndex":
        """Rebuild an index over ``graph`` from a snapshot — no VF2
        search; matches are re-canonicalized from their embeddings."""
        if state.kind != "iso":
            raise ValueError(f"expected an 'iso' snapshot, got {state.kind!r}")
        index = cls.__new__(cls)
        index.graph = graph
        index.meter = meter
        pattern_graph = DiGraph()
        match_rows = []
        for row in state.records:
            tag = row[0]
            if tag == "pn":
                pattern_graph.add_node(row[1], label=row[2])
            elif tag == "pe":
                pattern_graph.add_edge(row[1], row[2])
            elif tag == "m":
                match_rows.append(row)
            else:
                raise ValueError(f"unknown iso snapshot record tag {tag!r}")
        index.pattern = Pattern.from_graph(pattern_graph)
        index.matches = set()
        index._by_edge = {}
        for row in match_rows:
            assignment = dict(zip(row[1::2], row[2::2]))
            match = make_match(index.pattern, assignment)
            index.matches.add(match)
            index._index(match)
        return index

    def check_consistency(self) -> None:
        """Audit against recomputation (test helper)."""
        fresh = vf2_matches(self.graph, self.pattern)
        if fresh != self.matches:
            missing = fresh - self.matches
            spurious = self.matches - fresh
            raise AssertionError(
                f"ISO matches diverged: missing={len(missing)} "
                f"spurious={len(spurious)}"
            )
        indexed = {match for bucket in self._by_edge.values() for match in bucket}
        if indexed != self.matches:
            raise AssertionError("edge index diverged from the match set")


# ----------------------------------------------------------------------
# Unit-at-a-time baseline (IncISOn in the paper's experiments)
# ----------------------------------------------------------------------


def inc_iso_n(index: ISOIndex, delta: Delta) -> ISODelta:
    """The appendix's literal IncISOn: "applies the batch algorithm on the
    d_Q-neighbor of each update one by one" — per unit update, extract the
    d_Q-neighborhood subgraph and run the full batch VF2 on it."""
    added: set[Match] = set()
    removed: set[Match] = set()
    for update in delta:
        if update.is_delete:
            index.graph.remove_edge(update.source, update.target)
            step_removed = set(
                index._by_edge.get((update.source, update.target), set())
            )
            for match in step_removed:
                index._deindex(match)
                index.matches.discard(match)
                if match in added:
                    added.discard(match)
                else:
                    removed.add(match)
            continue
        index.graph.add_edge(
            update.source,
            update.target,
            source_label=update.source_label,
            target_label=update.target_label,
        )
        region = index._insertion_region([update.edge])
        for match in vf2_matches(region, index.pattern, meter=index.meter):
            if match not in index.matches:
                index.matches.add(match)
                index._index(match)
                if match in removed:
                    removed.discard(match)
                else:
                    added.add(match)
    return ISODelta(frozenset(added), frozenset(removed))
