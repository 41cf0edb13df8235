"""Updates ΔG and the update algebra ``G ⊕ ΔG`` (paper Section 2.2).

A *unit update* is an edge insertion (possibly introducing new nodes) or an
edge deletion.  A *batch update* ΔG is a sequence of unit updates.  The
paper assumes w.l.o.g. that a batch contains no insert and delete of the
same edge; :meth:`Delta.normalized` enforces this by cancelling such pairs,
and algorithms reject unnormalized input loudly rather than guessing.

``|ΔG|`` — the paper's size measure — is the number of unit updates.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum

from repro.graph.digraph import DEFAULT_LABEL, DiGraph, Edge, Label, Node


class UpdateKind(Enum):
    INSERT = "insert"
    DELETE = "delete"


@dataclass(frozen=True)
class Update:
    """A unit update ``insert e`` / ``delete e``.

    ``source_label``/``target_label`` give labels for endpoints that do not
    yet exist in the graph (the paper's "possibly with new nodes"); they are
    ignored for pre-existing endpoints.
    """

    kind: UpdateKind
    source: Node
    target: Node
    source_label: Label = DEFAULT_LABEL
    target_label: Label = DEFAULT_LABEL

    @property
    def edge(self) -> Edge:
        return (self.source, self.target)

    @property
    def is_insert(self) -> bool:
        return self.kind is UpdateKind.INSERT

    @property
    def is_delete(self) -> bool:
        return self.kind is UpdateKind.DELETE

    def inverted(self) -> "Update":
        """Return the update that undoes this one."""
        other = UpdateKind.DELETE if self.is_insert else UpdateKind.INSERT
        return Update(other, self.source, self.target, self.source_label, self.target_label)

    def __str__(self) -> str:
        return f"{self.kind.value}({self.source!r}, {self.target!r})"


def insert(
    source: Node,
    target: Node,
    source_label: Label = DEFAULT_LABEL,
    target_label: Label = DEFAULT_LABEL,
) -> Update:
    """Convenience constructor for an edge-insertion unit update."""
    return Update(UpdateKind.INSERT, source, target, source_label, target_label)


def delete(source: Node, target: Node) -> Update:
    """Convenience constructor for an edge-deletion unit update."""
    return Update(UpdateKind.DELETE, source, target)


class InvalidDeltaError(ValueError):
    """A batch update could not be applied to the given graph."""


@dataclass
class Delta:
    """A batch update ΔG: an ordered sequence of unit updates.

    The paper splits a batch into ``(ΔG+, ΔG−)``; :attr:`insertions` and
    :attr:`deletions` provide those views while preserving the original
    sequence for algorithms that apply updates in order.
    """

    updates: list[Update] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.updates = list(self.updates)

    # -- sequence protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self) -> Iterator[Update]:
        return iter(self.updates)

    def __getitem__(self, index: int) -> Update:
        return self.updates[index]

    def __bool__(self) -> bool:
        return bool(self.updates)

    # -- views -------------------------------------------------------------

    @property
    def insertions(self) -> list[Update]:
        """ΔG+ — the edge insertions, in sequence order."""
        return [update for update in self.updates if update.is_insert]

    @property
    def deletions(self) -> list[Update]:
        """ΔG− — the edge deletions, in sequence order."""
        return [update for update in self.updates if update.is_delete]

    def touched_nodes(self) -> set[Node]:
        """All endpoints of updated edges — the seeds of locality."""
        seeds: set[Node] = set()
        for update in self.updates:
            seeds.add(update.source)
            seeds.add(update.target)
        return seeds

    def edges(self) -> set[Edge]:
        return {update.edge for update in self.updates}

    def new_nodes(self, graph: DiGraph) -> dict[Node, Label]:
        """The endpoints this batch creates in ``graph``, in order of
        first appearance, each with the label of its first declaring
        insert — the label :meth:`~repro.graph.digraph.DiGraph.add_edge`
        stamps.  Call it before :meth:`apply_to`."""
        created: dict[Node, Label] = {}
        for update in self.updates:
            if update.is_insert:
                for node, label in (
                    (update.source, update.source_label),
                    (update.target, update.target_label),
                ):
                    if node not in graph and node not in created:
                        created[node] = label
        return created

    # -- normalization -----------------------------------------------------

    def is_normalized(self) -> bool:
        """True when no edge is both inserted and deleted in the batch."""
        inserted = {update.edge for update in self.insertions}
        deleted = {update.edge for update in self.deletions}
        return not (inserted & deleted)

    def normalized(self) -> "Delta":
        """Cancel insert/delete pairs on the same edge.

        An equal number of inserts and deletes of edge ``e`` collapses to
        whichever kind is in excess (matching the net effect on a simple
        graph where the batch is applicable); the *last* occurrence's labels
        win for inserts.

        A net balance of magnitude > 1 (e.g. two inserts of the same edge
        with no delete between them) can never apply to a simple graph, so
        it raises :class:`InvalidDeltaError` instead of emitting duplicate
        unit updates that would fail later and further from the cause.
        """
        from collections import Counter

        net: Counter[Edge] = Counter()
        label_source: dict[Edge, Update] = {}
        order: list[Edge] = []
        for update in self.updates:
            if update.edge not in net:
                order.append(update.edge)
            net[update.edge] += 1 if update.is_insert else -1
            if update.is_insert:
                label_source[update.edge] = update
        result: list[Update] = []
        for edge in order:
            balance = net[edge]
            if balance == 0:
                continue
            if abs(balance) > 1:
                kind = "insertions" if balance > 0 else "deletions"
                raise InvalidDeltaError(
                    f"edge {edge!r} has a net balance of {abs(balance)} "
                    f"{kind}; no simple graph can absorb the batch"
                )
            if balance > 0:
                result.append(label_source[edge])
            else:
                result.append(delete(*edge))
        return Delta(result)

    def inverted(self) -> "Delta":
        """Return the batch that undoes this one (reverse order)."""
        return Delta([update.inverted() for update in reversed(self.updates)])

    # -- application -------------------------------------------------------

    def check_applicable(self, graph: DiGraph) -> None:
        """Raise :class:`InvalidDeltaError` unless every update applies to
        ``graph`` in sequence order; mutates nothing, so a bad batch is
        refused before :meth:`apply_to` changes anything."""
        added: set[Edge] = set()
        removed: set[Edge] = set()
        for position, update in enumerate(self.updates):
            edge = update.edge
            exists = edge in added or (edge not in removed and graph.has_edge(*edge))
            if update.is_insert and exists:
                raise InvalidDeltaError(
                    f"update #{position} ({update}) inserts an edge that "
                    "already exists"
                )
            if update.is_delete and not exists:
                raise InvalidDeltaError(
                    f"update #{position} ({update}) deletes an edge that "
                    "does not exist"
                )
            if update.is_insert:
                added.add(edge)
                removed.discard(edge)
            else:
                removed.add(edge)
                added.discard(edge)

    def apply_to(self, graph: DiGraph) -> DiGraph:
        """Destructively apply to ``graph`` and return it (``G ⊕ ΔG``).

        Raises :class:`InvalidDeltaError` when an update does not apply
        (inserting a duplicate edge / deleting a missing one) — per the
        Zen, errors must never pass silently.
        """
        for position, update in enumerate(self.updates):
            try:
                if update.is_insert:
                    graph.add_edge(
                        update.source,
                        update.target,
                        source_label=update.source_label,
                        target_label=update.target_label,
                    )
                else:
                    graph.remove_edge(update.source, update.target)
            except (KeyError, ValueError) as exc:
                raise InvalidDeltaError(
                    f"update #{position} ({update}) is not applicable: {exc}"
                ) from exc
        return graph

    def applied(self, graph: DiGraph) -> DiGraph:
        """Non-destructive variant: return a patched copy of ``graph``."""
        return self.apply_to(graph.copy())


def changed_size(delta: Delta, output_delta_size: int) -> int:
    """|CHANGED| = |ΔG| + |ΔO| — the classical boundedness measure."""
    return len(delta) + output_delta_size


def random_applicable_check(graph: DiGraph, delta: Delta) -> None:
    """Validate applicability without mutating (used by workload tests)."""
    delta.applied(graph)


def split_batch(delta: Delta) -> tuple[list[Update], list[Update]]:
    """Return ``(ΔG+, ΔG−)`` after verifying normalization."""
    if not delta.is_normalized():
        raise InvalidDeltaError(
            "batch update inserts and deletes the same edge; call .normalized() first"
        )
    return delta.insertions, delta.deletions


def concat(parts: Iterable[Delta | Sequence[Update]]) -> Delta:
    """Concatenate several update batches into one."""
    updates: list[Update] = []
    for part in parts:
        updates.extend(part)
    return Delta(updates)
