"""Relevance filters — which slice of a batch ΔG can a view's answer
depend on?

The paper's central lever is *locality*: a bounded incremental algorithm
touches only the data affected by ΔG, never the whole of G or O.  The
engine applies ``G ⊕ ΔG`` once, but a broadcast fan-out still hands the
entire normalized batch to every registered view — KWS absorbs edges no
keyword can ever reach through, RPQ absorbs edges whose labels are
outside its NFA alphabet, ISO absorbs label pairs its pattern can never
bind.  A :class:`DeltaFilter` lets a view declare, *per unit update*,
whether the update can possibly change its answer; the scheduler
(:mod:`repro.engine.scheduler`) evaluates every view's filter in one
pass over the batch and delivers each view only its relevant sub-delta.
A view whose sub-delta (and relevant new-node set) is empty is skipped
entirely — its cost meter records zero for the batch.

Soundness contract
------------------

``wants_update`` may consult live view state (it runs once per batch,
*before* ``G ⊕ ΔG`` and before any view absorbs the batch, i.e. against
pre-repair auxiliary structures — exactly the state the view's own
``absorb`` would consult first).  It must not consult the graph: the
batch has not landed yet.  The filter must be *conservative*:
whenever dropping the update could change what ``absorb`` computes —
alone or in combination with the rest of the batch — it must return
``True``.  Routed fan-out is then output-equivalent to broadcast, which
``tests/test_scheduler.py`` enforces by comparing canonical view
snapshots after randomized batch streams.

Views whose output can depend on topology alone (SCC: any edge can
create or break a cycle) use the correctness escape hatch
:class:`SubscribeAll` and receive every batch unfiltered.

The concrete filters below are constructed by the four index classes'
``relevance()`` hooks; they hold the index (or frozen query artifacts)
and duck-type against it, so this module depends only on the core
layers.

>>> from repro.graph.digraph import DiGraph
>>> from repro.core.delta import insert
>>> from repro.kws import KWSIndex, KWSQuery
>>> g = DiGraph(labels={1: "a", 2: "b", 3: "c"}, edges=[(1, 2)])
>>> kws = KWSIndex(g, KWSQuery(("a",), bound=2))
>>> f = kws.relevance()
>>> f.wants_update(insert(3, 1), "c", "a")   # target holds a kdist entry
True
>>> f.wants_update(insert(2, 3), "b", "c")   # "c" is unreachable from any
False
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.delta import Update
from repro.graph.digraph import Label, Node

__all__ = [
    "DeltaFilter",
    "SubscribeAll",
    "KeywordRelevance",
    "AlphabetRelevance",
    "PatternRelevance",
]


@runtime_checkable
class DeltaFilter(Protocol):
    """Per-update relevance predicate a view hands to the scheduler."""

    def wants_update(
        self, update: Update, source_label: Label, target_label: Label
    ) -> bool:
        """Can this unit update possibly change the view's answer?

        ``source_label``/``target_label`` are the endpoint labels the
        scheduler resolves before ``G ⊕ ΔG``: an existing endpoint's
        from the pre-batch graph (updates never relabel), a brand-new
        endpoint's from its first declaring insert — the label
        ``DiGraph.add_edge`` will stamp.  The same decision drives the
        serving layer's freeze (the engine's route hook), so nothing
        re-evaluates the filter after the graph mutates."""

    def wants_node(self, node: Node, label: Label) -> bool:
        """Must this brand-new node reach the view's ``absorb`` even if
        none of its incident updates are relevant?  ``label`` is the one
        its first declaring insert carries.  (Bootstrap interest:
        e.g. a new keyword-labeled node seeds a dist-0 kdist entry.)"""


class SubscribeAll:
    """The correctness escape hatch: every update and node is relevant.

    Used by views whose output can depend on topology alone — SCC
    subscribes to all edges because any insertion can close a cycle and
    any deletion can break one, regardless of labels.
    """

    def wants_update(
        self, update: Update, source_label: Label, target_label: Label
    ) -> bool:
        """Every update is relevant."""
        return True

    def wants_node(self, node: Node, label: Label) -> bool:
        """Every brand-new node is relevant."""
        return True


class KeywordRelevance:
    """KWS filter: keyword-set + kdist-state based.

    * A **deletion** ``(v, w)`` matters only when some keyword's chosen
      shortest path out of ``v`` routes through ``w`` — exactly the seed
      condition of the batch repair (``kdist(v)[k].next == w``).
    * An **insertion** ``(v, w)`` matters only when ``w`` can supply a
      distance: it holds a kdist entry that is strictly inside the bound
      (``dist + 1 <= b``), or it is keyword-labeled (a new keyword node
      is entered at dist 0 by the bootstrap, after which the edge can
      improve ``v``).  Entries created *during* the batch repair are
      covered without the update: settlement relaxes predecessors over
      the graph, which already holds the inserted edge.
    * A brand-new keyword-labeled **node** must reach ``absorb`` for its
      dist-0 bootstrap even when no incident update is relevant.
    """

    __slots__ = ("_index",)

    def __init__(self, index) -> None:
        self._index = index

    def wants_update(
        self, update: Update, source_label: Label, target_label: Label
    ) -> bool:
        """See the class docstring for the per-kind seed conditions."""
        kdist = self._index.kdist
        query = self._index.query
        if update.is_delete:
            for keyword in query.keywords:
                entry = kdist.get(update.source, keyword)
                if entry is not None and entry.next == update.target:
                    return True
            return False
        if target_label in query.keywords:
            return True
        bound = query.bound
        for keyword in query.keywords:
            entry = kdist.get(update.target, keyword)
            if entry is not None and entry.dist < bound:
                return True
        return False

    def wants_node(self, node: Node, label: Label) -> bool:
        """Keyword-labeled new nodes bootstrap a dist-0 entry."""
        return label in self._index.query.keywords


class AlphabetRelevance:
    """RPQ filter: NFA-alphabet based.

    A graph edge ``(x, y)`` induces product edges ``((x, s), (y, s'))``
    with ``s' ∈ δ(s, l(y))`` — the transition consumes the *target's*
    label.  An update whose target label is outside the NFA alphabet
    creates or removes no product edges and can never touch a marking.
    A brand-new node bootstraps an entry (and possibly the trivial match
    ``(v, v)``) only when ``δ(s0, l(v))`` is non-empty.

    Both sets are frozen at construction — the NFA is immutable for the
    index's lifetime.
    """

    __slots__ = ("_alphabet", "_start_labels")

    def __init__(
        self, alphabet: frozenset[Label], start_labels: frozenset[Label]
    ) -> None:
        self._alphabet = alphabet
        self._start_labels = start_labels

    def wants_update(
        self, update: Update, source_label: Label, target_label: Label
    ) -> bool:
        """Product edges consume the target's label; outside the NFA
        alphabet no marking can move."""
        return target_label in self._alphabet

    def wants_node(self, node: Node, label: Label) -> bool:
        """A new node bootstraps an entry only when the NFA can step
        out of its start state on the node's label."""
        return label in self._start_labels


class PatternRelevance:
    """ISO filter: pattern-label based, with an exact deletion index.

    * An **insertion** can only create matches mapping some pattern edge
      onto it (anchored VF2 pins a pattern edge to the inserted edge), so
      it is relevant only when ``(l(v), l(w))`` occurs among the
      pattern's edge label pairs.
    * A **deletion** removes exactly the matches indexed under the edge —
      relevant only when the edge → matches index holds a bucket for it
      (consulted pre-repair, the same state the deletion phase reads).
    * New nodes need no bootstrap: a brand-new node participates in a
      match only through its batch edges.
    """

    __slots__ = ("_index", "_label_pairs")

    def __init__(self, index, label_pairs: frozenset[tuple[Label, Label]]) -> None:
        self._index = index
        self._label_pairs = label_pairs

    def wants_update(
        self, update: Update, source_label: Label, target_label: Label
    ) -> bool:
        """Insertions: the endpoint label pair must occur among the
        pattern's edge label pairs; deletions: the edge must hold
        indexed matches."""
        if update.is_delete:
            return update.edge in self._index._by_edge
        return (source_label, target_label) in self._label_pairs

    def wants_node(self, node: Node, label: Label) -> bool:
        """New nodes never matter alone: a match needs batch edges."""
        return False
