"""A small incremental-computation runtime (ROADMAP item 3).

The shape follows janestreet/incremental's variables → incrementals →
observers model: :class:`Var` nodes hold input *relations* (multisets of
flat token rows), combinator nodes derive new relations, and
:func:`Dataflow.stabilize` re-evaluates **only dirty nodes, in
topological (height) order, with cutoff** — a node whose recomputation
leaves its value unchanged does not dirty its children, so maintenance
cost is proportional to the change, not to the data.

Relations and deltas
--------------------

A relation value is a multiset ``{row: count}`` with strictly positive
counts; every row is a flat tuple of ``int``/``str`` tokens (the same
token universe as :mod:`repro.graph.io_tokens`, so observed outputs
serialize losslessly).  Change propagates as *deltas* — multisets with
signed counts — pushed from a parent to each child's pending buffer
when the parent's value changes.  Every combinator consumes its pending
deltas incrementally; only its first evaluation reads full parent
values.  A :class:`BackedVar` is an input whose relation already lives
in a store the caller owns (the graph): its ``value`` is a read-only
view of that store, it holds no rows, and ``update`` only *announces*
the rows the store has already gained or lost.

Combinators
-----------

``map``/``filter`` (per-row), ``join`` (keyed, bilinear in both input
deltas), ``multijoin`` (≥ 2 atoms as a delta query, state linear in the
inputs), ``reduce`` (group-aggregate with invertible step), ``distinct``
(set projection), ``count`` (scalar cardinality), ``map_value``/``map2``
(whole-value functions with equality cutoff), and a bounded ``fixpoint``
for reachability-style recursion.  The fixpoint owns a private *inner
region* of nodes (its recursion variable and everything its step
builder creates); inner nodes are excluded from global stabilization
and iterated to convergence inside the fixpoint's own evaluation —
semi-naive for free, because each iteration feeds the recursion
variable's *diff* through the incremental inner combinators.

Example::

    >>> flow = Dataflow()
    >>> edges = flow.var(name="edges")
    >>> out_deg = flow.reduce(edges, key=lambda row: row[0],
    ...                       zero=0, step=lambda acc, row, c: acc + c)
    >>> obs = flow.observe(out_deg)
    >>> edges.update({("a", "b"): 1, ("a", "c"): 1})
    >>> _ = flow.stabilize()
    >>> sorted(obs.rows())
    [('a', 2)]
    >>> edges.update({("a", "c"): -1})
    >>> _ = flow.stabilize()
    >>> sorted(obs.rows())
    [('a', 1)]
"""

from __future__ import annotations

import heapq
from itertools import combinations
from operator import itemgetter
from typing import Any, Callable, Iterator, Optional

from repro.core.cost import CostMeter, NULL_METER

__all__ = [
    "BackedVar",
    "Dataflow",
    "DataflowError",
    "FixpointDivergenceError",
    "Node",
    "Observer",
    "Var",
    "row_order",
]

Row = tuple
Multiset = dict

#: Fixpoints refusing to converge within this many iterations raise
#: :class:`FixpointDivergenceError` (reachability over N product nodes
#: converges in at most N+1 iterations; runaway step functions do not).
DEFAULT_FIXPOINT_BOUND = 1000

_UNSET = object()


class DataflowError(RuntimeError):
    """Misuse of the dataflow runtime (wiring, input, or value errors)."""


class FixpointDivergenceError(DataflowError):
    """A bounded fixpoint failed to converge within its iteration bound."""


def row_order(row: Row) -> tuple:
    """Deterministic total order over heterogeneous token rows.

    Mirrors :func:`repro.kws.kdist.node_order` element-wise so canonical
    serializations never depend on dict/set history.
    """
    return tuple((type(token).__name__, repr(token)) for token in row)


def _held(index: dict) -> int:
    """Rows held by a ``key → bucket`` index."""
    return sum(len(bucket) for bucket in index.values())


def _apply_delta(value: Multiset, delta: Multiset) -> Multiset:
    """Merge a signed ``delta`` into ``value``; return the *actual*
    (non-zero net) changes.  Counts must never go negative."""
    actual: Multiset = {}
    for row, change in delta.items():
        if change == 0:
            continue
        new_count = value.get(row, 0) + change
        if new_count < 0:
            raise DataflowError(
                f"multiset count for row {row!r} would become {new_count}"
            )
        if new_count:
            value[row] = new_count
        else:
            value.pop(row, None)
        actual[row] = change
    return actual


class Node:
    """One incremental computation; subclasses define ``_recompute``.

    ``value`` is the node's current relation (or scalar, for
    ``count``/``map_value`` nodes); ``eval_count`` counts recomputations
    (the cutoff tests assert on it); ``height`` is 1 + the maximum
    parent height, the topological rank ``stabilize`` schedules by.
    """

    #: Relation nodes hold multiset values and push multiset deltas;
    #: scalar nodes (count, map_value) push ``(old, new)`` pairs.
    is_relation = True

    def __init__(self, flow: "Dataflow", parents: tuple, name: str = "") -> None:
        self.flow = flow
        self.id = flow._register(self)
        self.name = name or f"{type(self).__name__.lstrip('_').lower()}#{self.id}"
        self.parents = parents
        self.children: list = []
        self.height = 1 + max((p.height for p in parents), default=-1)
        self.internal = False
        self.initialized = False
        self.eval_count = 0
        self.value: Any = {} if self.is_relation else None
        self._pending: dict = {}
        self._dirty = True
        for parent in parents:
            if parent.flow is not flow:
                raise DataflowError(
                    f"{self.name} wires across Dataflow instances"
                )
            if self not in parent.children:
                parent.children.append(self)
        flow._mark(self)

    # -- change propagation -------------------------------------------

    def _receive(self, parent: "Node", delta) -> None:
        """A parent changed: buffer its delta, schedule this node."""
        if parent.is_relation:
            bucket = self._pending.get(parent.id)
            if bucket is None:
                self._pending[parent.id] = dict(delta)  # no zero changes
            else:
                for row, change in delta.items():
                    net = bucket.get(row, 0) + change
                    if net:
                        bucket[row] = net
                    else:
                        bucket.pop(row, None)
        self._dirty = True
        self.flow._mark(self)

    def _take_pending(self, parent: "Node") -> Multiset:
        return self._pending.pop(parent.id, {})

    @property
    def needs_evaluation(self) -> bool:
        """True when stabilize must recompute this node."""
        return self._dirty or not self.initialized or bool(self._pending)

    def evaluate(self) -> bool:
        """Recompute; on change, push the delta to every child."""
        self.eval_count += 1
        self.flow.meter.visit_node(("dataflow", self.id))
        delta = self._recompute()
        self.initialized = True
        self._dirty = False
        self._pending.clear()
        if delta is None:
            return False  # cutoff: unchanged value stops propagation
        for child in self.children:
            child._receive(self, delta)
        return True

    def _recompute(self):
        """Return the pushed delta, or ``None`` when unchanged."""
        raise NotImplementedError

    def _merge(self, out_delta: Multiset) -> Optional[Multiset]:
        """Fold an output delta into ``value``; meter the row writes."""
        actual = _apply_delta(self.value, out_delta)
        if not actual:
            return None
        self.flow.meter.write(len(actual))
        return actual

    def _state_rows(self) -> int:
        """Rows held outside ``value`` (indexes, groups, arrangements)."""
        return 0

    def _held_rows(self) -> int:
        """Rows this node itself stores: its value plus its state."""
        return (len(self.value) if self.is_relation else 1) + self._state_rows()

    def rows(self) -> Iterator[Row]:
        """The relation's distinct rows (positive count)."""
        if not self.is_relation:
            raise DataflowError(f"{self.name} is scalar; read .value")
        return iter(self.value)

    # -- fluent combinator sugar --------------------------------------

    def map(self, fn: Callable[[Row], Optional[Row]], name: str = "") -> "Node":
        """Per-row projection; see :meth:`Dataflow.map`."""
        return self.flow.map(self, fn, name=name)

    def filter(self, predicate: Callable[[Row], bool], name: str = "") -> "Node":
        """Per-row selection; see :meth:`Dataflow.filter`."""
        return self.flow.filter(self, predicate, name=name)

    def distinct(self, name: str = "") -> "Node":
        """Set projection; see :meth:`Dataflow.distinct`."""
        return self.flow.distinct(self, name=name)

    def count(self, name: str = "") -> "Node":
        """Scalar cardinality; see :meth:`Dataflow.count`."""
        return self.flow.count(self, name=name)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} h={self.height}>"


class Var(Node):
    """An input relation, mutated via :meth:`update` / :meth:`replace`."""

    def __init__(self, flow: "Dataflow", name: str = "") -> None:
        super().__init__(flow, (), name=name)
        self._staged: Multiset = {}
        self._replacement: Optional[Multiset] = None

    def update(self, delta: Multiset) -> None:
        """Stage a signed multiset delta; applied at the next stabilize."""
        if self._replacement is not None:
            raise DataflowError(f"{self.name} has a staged replacement")
        for row, change in delta.items():
            if not isinstance(row, tuple):
                raise DataflowError(f"rows must be tuples, got {row!r}")
            net = self._staged.get(row, 0) + change
            if net:
                self._staged[row] = net
            else:
                self._staged.pop(row, None)
        self._dirty = True
        self.flow._mark(self)

    def replace(self, rows: Multiset) -> None:
        """Stage a full replacement; the delta is diffed at stabilize."""
        if self._staged:
            raise DataflowError(f"{self.name} has staged updates")
        self._replacement = dict(rows)
        self._dirty = True
        self.flow._mark(self)

    def _recompute(self):
        if self._replacement is not None:
            new_value, self._replacement = self._replacement, None
            delta = {
                row: count - self.value.get(row, 0)
                for row, count in new_value.items()
                if count != self.value.get(row, 0)
            }
            for row, count in self.value.items():
                if row not in new_value:
                    delta[row] = -count
            return self._merge(delta)
        staged, self._staged = self._staged, {}
        return self._merge(staged)


class BackedVar(Var):
    """An input relation that lives in a store the caller owns.

    ``value`` is ``relation``, a read-only mapping over the live store:
    a *set* (every present row has count 1) offering ``len``,
    iteration, ``in``, ``get``, ``items`` and ``values``, plus
    ``adjacency(key_columns, value_column)`` — the store's own ``key →
    values`` index of that shape as a no-copy one-argument callable
    giving a key's live collection of values, empty or ``None`` for a
    key without any (``dict.get`` qualifies), or ``None`` when it keeps
    none (what lets ``multijoin`` probe the store instead of arranging a
    copy).  The node holds no rows.  :meth:`update` announces rows the
    store has *already* gained (``+1``) or lost (``-1``); stabilize
    checks every announced row against the store and pushes the batch
    to the children.
    """

    def __init__(self, flow: "Dataflow", relation, name: str = "") -> None:
        super().__init__(flow, name=name)
        self.value = relation

    def replace(self, rows: Multiset) -> None:
        """Not supported: change the store, then announce with
        :meth:`update`."""
        raise DataflowError(
            f"{self.name} is a view of a live store; mutate the store and "
            "announce the change with update()"
        )

    def _recompute(self):
        staged, self._staged = self._staged, {}
        relation = self.value
        for row, change in staged.items():
            if change not in (1, -1) or (row in relation) != (change > 0):
                raise DataflowError(
                    f"{self.name}: announced {change:+} of row {row!r}, "
                    f"which the store {'holds' if row in relation else 'lacks'}"
                )
        # metered like a plain Var's row writes, as store reads: one per
        # announced row, and the whole relation once, for the children's
        # first evaluations
        self.flow.meter.traverse_edge(
            len(staged) if self.initialized else len(relation)
        )
        return staged or None

    def _held_rows(self) -> int:
        return 0


class _MapNode(Node):
    """Per-row projection; ``fn(row) -> row | None`` (None drops)."""

    def __init__(self, flow, parent, fn, name=""):
        self.fn = fn
        super().__init__(flow, (parent,), name=name)

    def _delta_of(self, in_delta: Multiset) -> Multiset:
        out: Multiset = {}
        for row, change in in_delta.items():
            mapped = self.fn(row)
            if mapped is None:
                continue
            if not isinstance(mapped, tuple):
                raise DataflowError(
                    f"{self.name}: map fn must return a tuple row or "
                    f"None, got {mapped!r}"
                )
            out[mapped] = out.get(mapped, 0) + change
        return out

    def _recompute(self):
        (parent,) = self.parents
        source = parent.value if not self.initialized else self._take_pending(parent)
        return self._merge(self._delta_of(source))


class _FilterNode(Node):
    """Per-row selection by a pure predicate."""

    def __init__(self, flow, parent, predicate, name=""):
        self.predicate = predicate
        super().__init__(flow, (parent,), name=name)

    def _recompute(self):
        (parent,) = self.parents
        source = parent.value if not self.initialized else self._take_pending(parent)
        out = {
            row: change
            for row, change in source.items()
            if self.predicate(row)
        }
        return self._merge(out)


class _JoinNode(Node):
    """Keyed equi-join, bilinear in both input deltas.

    Maintains per-side ``key → multiset-of-rows`` indexes so a delta on
    either side probes only matching keys:
    ``Δ(L ⋈ R) = ΔL ⋈ R ∪ (L ⊕ ΔL) ⋈ ΔR``.
    """

    def __init__(self, flow, left, right, left_key, right_key, merge, name=""):
        self.left_key = left_key
        self.right_key = right_key
        self.merge = merge or (lambda l, r: l + r)
        self._left_index: dict = {}
        self._right_index: dict = {}
        super().__init__(flow, (left, right), name=name)

    def _index_delta(self, index, key_fn, delta):
        for row, change in delta.items():
            key = key_fn(row)
            bucket = index.get(key)
            if bucket is None:
                bucket = index[key] = {}
            net = bucket.get(row, 0) + change
            if net:
                bucket[row] = net
            else:
                bucket.pop(row, None)
                if not bucket:
                    index.pop(key, None)

    def _probe(self, delta, key_fn, other_index, out, left_side):
        meter = self.flow.meter
        for row, change in delta.items():
            bucket = other_index.get(key_fn(row), ())
            for other_row in bucket:
                meter.traverse_edge()
                other_change = bucket[other_row]
                pair = (
                    self.merge(row, other_row)
                    if left_side
                    else self.merge(other_row, row)
                )
                if not isinstance(pair, tuple):
                    raise DataflowError(
                        f"{self.name}: join merge must return a tuple "
                        f"row, got {pair!r}"
                    )
                out[pair] = out.get(pair, 0) + change * other_change

    def _recompute(self):
        left, right = self.parents
        if not self.initialized:
            left_delta = left.value
            right_delta = right.value
        elif left is right:
            left_delta = self._take_pending(left)
            right_delta = left_delta
        else:
            left_delta = self._take_pending(left)
            right_delta = self._take_pending(right)
        out: Multiset = {}
        # ΔL against the *old* right index, then ΔR against the *new*
        # left index — together exactly Δ(L ⋈ R).
        self._index_delta(self._left_index, self.left_key, left_delta)
        self._probe(left_delta, self.left_key, self._right_index, out, True)
        self._index_delta(self._right_index, self.right_key, right_delta)
        self._probe(right_delta, self.right_key, self._left_index, out, False)
        return self._merge(out)

    def _state_rows(self) -> int:
        return _held(self._left_index) + _held(self._right_index)


def _columns(positions: tuple) -> Callable:
    """``seq -> key`` over the given positions: the bare element for one
    position, a tuple otherwise — rows and variable slots of equal
    positions-arity therefore always produce comparable keys."""
    if not positions:
        return lambda seq: ()
    return itemgetter(*positions)


def _row_of(positions: tuple) -> Callable:
    """``seq -> row``: the tuple of the given positions, a 1-tuple for
    one position."""
    if len(positions) == 1:
        position = positions[0]
        return lambda seq: (seq[position],)
    if not positions:
        return lambda seq: ()
    return itemgetter(*positions)


class _Arrangement:
    """One index of a multijoin over a relation's ``key columns → value
    column`` projection; ``index`` nets folded rows as ``key → {value:
    count}``, zero counts and empty keys dropped."""

    __slots__ = ("key_of", "value_column", "index")

    def __init__(self, key_columns: tuple, value_column: int) -> None:
        self.key_of = _columns(key_columns)
        self.value_column = value_column
        self.index: dict = {}

    def fold(self, row: Row, change: int) -> None:
        key = self.key_of(row)
        bucket = self.index.get(key)
        if bucket is None:
            bucket = self.index[key] = {}
        value = row[self.value_column]
        count = bucket.get(value, 0) + change
        if count:
            bucket[value] = count
        else:
            del bucket[value]
            if not bucket:
                del self.index[key]

    def held(self) -> int:
        return _held(self.index)


class _OwnedArrangement(_Arrangement):
    """An index the node keeps itself: ``index`` is the arrangement."""

    __slots__ = ("get",)

    def __init__(self, key_columns: tuple, value_column: int) -> None:
        super().__init__(key_columns, value_column)
        self.get = self.index.get

    def load(self, rows) -> None:
        """First evaluation: index the whole relation."""
        for row, count in rows.items():
            self.fold(row, count)

    def stage(self, delta: Multiset) -> None:
        """Nothing to do: the index moves only when a row is folded."""


class _OverlayBucket:
    """One store bucket as of *before* the rows still to fold: values
    the store gained since are hidden, values it lost are restored —
    ``len``, iteration, ``in`` and ``&`` are exact and copy nothing.
    ``owed`` is what folding has yet to add: ``-1`` for a value the
    store already shows, ``+1`` for one it already dropped."""

    __slots__ = ("_live", "_owed")

    def __init__(self, live, owed: dict) -> None:
        self._live = live
        self._owed = owed

    def __len__(self) -> int:
        return len(self._live) + sum(self._owed.values())

    def __iter__(self) -> Iterator:
        owed = self._owed
        for value in self._live:
            if value not in owed:
                yield value
        for value, change in owed.items():
            if change > 0:
                yield value

    def __contains__(self, value) -> bool:
        change = self._owed.get(value)
        return value in self._live if change is None else change > 0

    def __and__(self, other) -> set:
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        return {value for value in small if value in large}

    __rand__ = __and__


#: The bucket of a key the store has no values for.
_NO_VALUES: frozenset = frozenset()


class _StoreArrangement(_Arrangement):
    """An index the store of a :class:`BackedVar` already keeps: buckets
    are the store's own live value sets (each value counts 1), fetched
    through ``neighbors`` (``neighbors(key)``, an empty collection or
    ``None`` for a key without values).

    The store is *ahead* of the delta query — it holds the whole batch
    before the node sees its first row — so ``index`` is not the
    arrangement but what folding still owes it: staging a delta enters
    its rows negated, folding a row cancels its entry, and every bucket
    read is corrected by the entries left.  O(|Δ|) during one
    evaluation, empty between evaluations.

    The last bucket is remembered while an evaluation keeps asking for
    the same key (the plans of one row do, and the scanned rows of one
    source), never across evaluations: within one the store stands still
    and folding only shrinks, in place, the dict an overlaid bucket
    reads through.
    """

    __slots__ = ("neighbors", "_last_key", "_last")

    def __init__(self, key_columns: tuple, value_column: int, neighbors) -> None:
        super().__init__(key_columns, value_column)
        self.neighbors = neighbors
        self._last_key: Any = _UNSET
        self._last: Any = None

    def get(self, key):
        if key == self._last_key:
            return self._last
        bucket = self.neighbors(key)
        if bucket is None:
            bucket = _NO_VALUES
        if self.index:
            owed = self.index.get(key)
            if owed:
                bucket = _OverlayBucket(bucket, owed)
        self._last_key, self._last = key, bucket
        return bucket

    def load(self, rows) -> None:
        """Nothing to do: the store is the finished index."""

    def stage(self, delta: Multiset) -> None:
        """The store already holds ``delta``: owe its rows until each is
        folded."""
        for row, change in delta.items():
            self.fold(row, -change)

    def clear(self) -> None:
        self.index.clear()
        self._last_key = _UNSET


class _MultiJoinNode(Node):
    """Natural join of ≥ 2 atoms, evaluated as a *delta query*.

    An atom ``(relation, variables)`` binds the variables to the leading
    columns of the relation's rows (trailing columns are projected away,
    counts summing).  Changed input rows are taken one at a time: the
    row is bound into every non-empty set of atom positions its relation
    occupies (a row filling several atoms of a self-join at once is the
    cross term of the product rule, weighted ``change ** |positions|``),
    every other atom is read as of *before* the row, and only then is
    the row folded into the arrangements — so the per-row deltas sum to
    exactly ``Δ(A₁ ⋈ … ⋈ Aₙ)``.  The unbound variables are extended one
    at a time, generic-join style: enumerate the smallest candidate
    bucket among the atoms constraining the variable, verify the others.
    The first evaluation is not a delta: it scans the rows of the
    smallest atom against the finished arrangements of the others.

    The only state is ``_arrangements``: per ``(relation, key columns,
    value column)`` one ``key → bucket`` index shared by every atom and
    plan that probes that shape, a bucket being a ``{value: count}`` dict
    or a collection of values counting 1 each.  The node keeps the index
    itself (:class:`_OwnedArrangement`, linear in the input, never in an
    intermediate result) unless the relation is a :class:`BackedVar`
    whose store already has it (:class:`_StoreArrangement`, no rows).
    """

    def __init__(self, flow, atoms, out, name=""):
        atoms = [(relation, tuple(variables)) for relation, variables in atoms]
        if len(atoms) < 2:
            raise DataflowError("multijoin needs at least two atoms")
        slots: dict = {}
        for relation, variables in atoms:
            if not variables or len(set(variables)) != len(variables):
                raise DataflowError(
                    f"multijoin atom over {relation.name} needs distinct "
                    f"variables, got {variables!r}"
                )
            for variable in variables:
                slots.setdefault(variable, len(slots))
        unknown = [variable for variable in out if variable not in slots]
        if unknown:
            raise DataflowError(f"multijoin output names unbound {unknown!r}")
        self._atoms = [
            (relation, tuple(slots[v] for v in variables))
            for relation, variables in atoms
        ]
        self._width = len(slots)
        self._project = tuple(slots[variable] for variable in out)
        #: (relation id, key columns, value column) -> arrangement
        self._arrangements: dict = {}
        #: per parent: the positions it occupies, then one delta-query
        #: plan per non-empty set of them
        occupied: dict = {}
        for position, (relation, _) in enumerate(atoms):
            occupied.setdefault(relation, []).append(position)
        parents = tuple(occupied)
        self._plans = {
            parent.id: [
                self._compile(seeds)
                for size in range(1, len(positions) + 1)
                for seeds in combinations(positions, size)
            ]
            for parent, positions in occupied.items()
        }
        #: per atom position: its single-seed plan for the first
        #: evaluation, which reads the stores directly (nothing is owed)
        self._scans = {
            position: self._compile((position,), scan=True)
            for positions in occupied.values()
            for position in positions
        }
        #: per parent: the arrangements its rows are folded into
        self._maintained = {
            parent.id: [
                arrangement
                for (rel_id, _, _), arrangement in self._arrangements.items()
                if rel_id == parent.id
            ]
            for parent in parents
        }
        self._overlays = [
            arrangement
            for arrangement in self._arrangements.values()
            if isinstance(arrangement, _StoreArrangement)
        ]
        self._traverse = flow.meter.traverse_edge  # a flow keeps its meter
        super().__init__(flow, parents, name=name)

    def _arrange(self, relation, key_columns: tuple, value_column: int):
        """The arrangement of ``relation`` of that shape, made on first
        request: the store's own index when a backed relation has one."""
        shape = (relation.id, key_columns, value_column)
        arrangement = self._arrangements.get(shape)
        if arrangement is None:
            neighbors = (
                relation.value.adjacency(key_columns, value_column)
                if isinstance(relation, BackedVar)
                else None
            )
            arrangement = self._arrangements[shape] = (
                _OwnedArrangement(key_columns, value_column)
                if neighbors is None
                else _StoreArrangement(key_columns, value_column, neighbors)
            )
        return arrangement

    def _compile(self, seeds: tuple, scan: bool = False) -> tuple:
        """Plan for one set of seed positions: ``(binds, equalities,
        power, steps, row_of)`` — slot ← row column, row-column pairs
        that must agree for the row to fill every seed, the seed count
        (the exponent of the row's change), one step per variable left
        to probe, and the output row of the slots (what a plan with no
        step emits).

        A step is ``(slot, known, probes, last, row_of)``: ``known`` when
        the seeds bind the slot already, ``last`` for the final step,
        which emits ``row_of(slots)`` per value instead of going deeper.
        A probe is ``(bucket-of-key, key-of-slots, final)``, ``final``
        ``None`` for a store's bucket (its values count 1, so it only
        narrows the candidates) and otherwise whether the probe fully
        binds its atom and so multiplies in the atom's count.  A ``scan``
        plan reads a store's buckets straight from the store: the first
        evaluation owes nothing."""
        bound: dict = {}
        equalities = []
        for position in seeds:
            for column, slot in enumerate(self._atoms[position][1]):
                if slot in bound:
                    equalities.append((bound[slot], column))
                else:
                    bound[slot] = column
        order = list(bound)
        pending = [a for p, a in enumerate(self._atoms) if p not in seeds]
        while len(order) < self._width:
            # next: the free variable of the atom with most bound columns
            _, slots = max(
                (a for a in pending if set(a[1]) - set(order)),
                key=lambda a: sum(slot in order for slot in a[1]),
            )
            order.append(next(slot for slot in slots if slot not in order))
        rank = {slot: index for index, slot in enumerate(order)}
        probes: dict = {}
        for relation, slots in pending:
            columns = sorted(range(len(slots)), key=lambda c: rank[slots[c]])
            # probe at each variable the seeds left free — or, for an
            # atom the seeds bind entirely, once at its last column
            first = min(sum(slot in bound for slot in slots), len(slots) - 1)
            for index in range(first, len(slots)):
                key_columns = tuple(sorted(columns[:index]))
                arrangement = self._arrange(relation, key_columns, columns[index])
                store = isinstance(arrangement, _StoreArrangement)
                probes.setdefault(slots[columns[index]], []).append(
                    (
                        arrangement.neighbors if store and scan else arrangement.get,
                        _columns(tuple(slots[c] for c in key_columns)),
                        None if store else index == len(slots) - 1,
                    )
                )
        row_of = _row_of(self._project)
        probed = [slot for slot in order if slot in probes]
        steps = [
            (slot, slot in bound, tuple(probes[slot]), slot == probed[-1], row_of)
            for slot in probed
        ]
        return tuple(bound.items()), tuple(equalities), len(seeds), steps, row_of

    def _extend(self, steps, depth, slots, weight, out) -> int:
        """Extend the bound ``slots`` by step ``depth`` and the ones
        after it, adding each completed row to ``out``; returns the
        bucket entries enumerated (the metered work)."""
        slot, known, probes, last, row_of = steps[depth]
        buckets = []
        smallest: Any = None
        fewest, smallest_final = 0, None
        for bucket_of, key_of, final in probes:
            bucket = bucket_of(key_of(slots))
            size = 0 if bucket is None else len(bucket)
            if not size:
                return 0
            if smallest is None or size < fewest:
                smallest, fewest, smallest_final = bucket, size, final
            buckets.append((bucket, final))
        # A dict bucket states each value's count (read where the count
        # multiplies in, or to test a value it did not propose); a
        # store's bucket counts every value once, so intersecting is all.
        counted = []
        if known:
            fewest = 1
            value = slots[slot]
            for bucket, final in buckets:
                if final is not None:
                    counted.append((bucket.get, final))
                elif value not in bucket:
                    return fewest
            candidates: Any = (value,)
        else:
            candidates = smallest if smallest_final is None else smallest.keys()
            for bucket, final in buckets:
                if final is None:
                    if bucket is not smallest:
                        candidates = candidates & bucket
                elif final or bucket is not smallest:
                    counted.append((bucket.get, final))
        if counted:
            for value in candidates:
                product = weight
                for count_of, final in counted:
                    count = count_of(value)
                    if not count:
                        break
                    if final:
                        product *= count
                else:
                    slots[slot] = value
                    if last:
                        row = row_of(slots)
                        out[row] = out.get(row, 0) + product
                    else:
                        fewest += self._extend(steps, depth + 1, slots, product, out)
        elif last:
            for value in candidates:
                slots[slot] = value
                row = row_of(slots)
                out[row] = out.get(row, 0) + weight
        else:
            for value in candidates:
                slots[slot] = value
                fewest += self._extend(steps, depth + 1, slots, weight, out)
        return fewest

    def _drive(self, plans, rows, maintained, out) -> None:
        """Take ``rows`` one at a time: run every plan the row fills
        every seed of (bind its columns, extend over the other atoms),
        then fold the row into ``maintained``.  The work is metered
        once, for all rows."""
        slots = [None] * self._width
        traversed = 0
        try:
            for row, change in rows.items():
                for binds, equalities, power, steps, row_of in plans:
                    for left, right in equalities:
                        if row[left] != row[right]:
                            break
                    else:
                        for slot, column in binds:
                            slots[slot] = row[column]
                        if steps:
                            traversed += self._extend(
                                steps, 0, slots, change**power, out
                            )
                        else:
                            bound = row_of(slots)
                            out[bound] = out.get(bound, 0) + change**power
                for arrangement in maintained:
                    arrangement.fold(row, change)
        finally:
            self._traverse(traversed)

    def _recompute(self):
        out: Multiset = {}
        try:
            if self.initialized:
                deltas = [
                    (parent, self._take_pending(parent)) for parent in self.parents
                ]
                for parent, delta in deltas:
                    for arrangement in self._maintained[parent.id]:
                        arrangement.stage(delta)
                for parent, delta in deltas:
                    self._drive(
                        self._plans[parent.id],
                        delta,
                        self._maintained[parent.id],
                        out,
                    )
            else:
                for parent in self.parents:
                    for arrangement in self._maintained[parent.id]:
                        arrangement.load(parent.value)
                position = min(
                    range(len(self._atoms)),
                    key=lambda p: len(self._atoms[p][0].value),
                )
                scanned = self._atoms[position][0].value
                self._drive([self._scans[position]], scanned, (), out)
        finally:
            # nothing read from the store outlives the evaluation (the
            # overlays are already empty unless a row raised)
            for arrangement in self._overlays:
                arrangement.clear()
        return self._merge(out)

    def _state_rows(self) -> int:
        return sum(
            arrangement.held() for arrangement in self._arrangements.values()
        )


class _ReduceNode(Node):
    """Group-aggregate with an invertible step.

    ``key(row)`` buckets rows; ``step(acc, row, count)`` folds a signed
    count into the group's accumulator (so ``step`` must be invertible:
    ``step(step(a, r, c), r, -c) == a``).  Output rows are
    ``(*key, acc)`` for tuple keys and ``(key, acc)`` otherwise; a group
    disappears when its row support drops to zero.
    """

    def __init__(self, flow, parent, key, zero, step, name=""):
        self.key = key
        self.zero = zero
        self.step = step
        self._groups: dict = {}
        super().__init__(flow, (parent,), name=name)

    def _out_row(self, key, acc) -> Row:
        return (*key, acc) if isinstance(key, tuple) else (key, acc)

    def _recompute(self):
        (parent,) = self.parents
        source = parent.value if not self.initialized else self._take_pending(parent)
        touched: dict = {}
        for row, change in source.items():
            key = self.key(row)
            if key not in touched:
                touched[key] = self._groups.get(key)
            acc, support = self._groups.get(key, (self.zero, 0))
            self._groups[key] = (self.step(acc, row, change), support + change)
        out: Multiset = {}
        for key, before in touched.items():
            acc, support = self._groups[key]
            if support < 0:
                raise DataflowError(f"group {key!r} support went negative")
            if not support:
                del self._groups[key]
            if before is not None and before[1]:
                old_row = self._out_row(key, before[0])
                out[old_row] = out.get(old_row, 0) - 1
            if support:
                new_row = self._out_row(key, acc)
                out[new_row] = out.get(new_row, 0) + 1
        return self._merge(out)

    def _state_rows(self) -> int:
        return len(self._groups)


class _DistinctNode(Node):
    """Set projection: every present row with count 1."""

    def __init__(self, flow, parent, name=""):
        super().__init__(flow, (parent,), name=name)

    def _recompute(self):
        (parent,) = self.parents
        if not self.initialized:
            return self._merge({row: 1 for row in parent.value})
        out: Multiset = {}
        for row, change in self._take_pending(parent).items():
            now = parent.value.get(row, 0)
            before = now - change
            if before <= 0 < now:
                out[row] = out.get(row, 0) + 1
            elif now <= 0 < before:
                out[row] = out.get(row, 0) - 1
        return self._merge(out)


class _CountNode(Node):
    """Scalar multiset cardinality (with multiplicity), incrementally."""

    is_relation = False

    def __init__(self, flow, parent, name=""):
        super().__init__(flow, (parent,), name=name)
        self.value = 0

    def _recompute(self):
        (parent,) = self.parents
        if not self.initialized:
            shift = sum(parent.value.values())
        else:
            shift = sum(self._take_pending(parent).values())
        if not shift:
            return None
        old, self.value = self.value, self.value + shift
        self.flow.meter.write()
        return (old, self.value)


class _MapValueNode(Node):
    """Whole-value function of the parents, with equality cutoff.

    Non-incremental by design (the function sees full parent values);
    use it for cheap scalar post-processing, not for relations.
    ``fn`` must not retain or mutate its arguments.
    """

    is_relation = False

    def __init__(self, flow, parents, fn, name=""):
        self.fn = fn
        super().__init__(flow, parents, name=name)
        self.value = _UNSET

    def _recompute(self):
        new = self.fn(*[parent.value for parent in self.parents])
        if self.initialized and new == self.value:
            return None
        old = None if self.value is _UNSET else self.value
        self.value = new
        self.flow.meter.write()
        return (old, new)


class _FixpointNode(Node):
    """Bounded least fixpoint ``lfp R. distinct(base ∪ step(R))``.

    The step builder's nodes (plus the recursion variable) form a
    private *inner region*: excluded from global stabilization and
    iterated here, in height order, until the reached set stops growing.
    Each iteration replaces the recursion variable, so inner combinators
    see only the per-iteration diff — semi-naive evaluation.  External
    inputs the region reads are wired as parents of this node, so a
    change to any of them re-triggers the fixpoint even when every
    individual inner node would cut off.
    """

    def __init__(self, flow, base, recur, step, inner, externals, bound, name=""):
        self.recur = recur
        self.step = step
        self.bound = bound
        self._inner = sorted(inner, key=lambda node: (node.height, node.id))
        parents = [base]
        for node in externals:
            if node is not base:
                parents.append(node)
        super().__init__(flow, tuple(parents), name=name)
        # the step node itself may be external (degenerate, non-recursive
        # builders); its height must still precede ours.
        self.height = max(self.height, step.height + 1, recur.height + 1)

    def _run_inner(self) -> None:
        for node in self._inner:
            if node.needs_evaluation:
                node.evaluate()

    def _recompute(self):
        base = self.parents[0]
        base_rows = {row: 1 for row in base.value}
        reached = base_rows
        for _ in range(self.bound):
            self.recur.replace(reached)
            self._run_inner()
            grown = dict(base_rows)
            if self.step.is_relation:
                for row in self.step.value:
                    grown[row] = 1
            else:
                raise DataflowError(
                    f"{self.name}: fixpoint step must be a relation"
                )
            if grown == reached:
                delta = {
                    row: 1 for row in reached if row not in self.value
                }
                for row in self.value:
                    if row not in reached:
                        delta[row] = -self.value[row]
                return self._merge(delta)
            reached = grown
        raise FixpointDivergenceError(
            f"{self.name} did not converge within {self.bound} iterations"
        )


class Observer:
    """A leaf subscription: accumulates the observed node's changes.

    ``take_delta()`` drains the accumulated change since the previous
    drain as ``(added, removed)`` tuples of ``(row, count)`` pairs in
    canonical :func:`row_order`; scalar nodes report the old and new
    value as one-token rows.
    """

    def __init__(self, node: Node) -> None:
        self.node = node
        self._accumulated: Multiset = {}
        self._scalar_old: Any = _UNSET
        self._scalar_new: Any = _UNSET
        node.children.append(self)

    def _receive(self, parent: Node, delta) -> None:
        if parent.is_relation:
            for row, change in delta.items():
                net = self._accumulated.get(row, 0) + change
                if net:
                    self._accumulated[row] = net
                else:
                    self._accumulated.pop(row, None)
        else:
            old, new = delta
            if self._scalar_old is _UNSET:
                self._scalar_old = old
            self._scalar_new = new

    @property
    def value(self):
        """The observed node's current value (live; do not mutate)."""
        return self.node.value

    def rows(self) -> Iterator[Row]:
        """Distinct rows of an observed relation."""
        return self.node.rows()

    def take_delta(self) -> tuple[tuple, tuple]:
        """Drain accumulated changes as sorted (added, removed) pairs."""
        if self.node.is_relation:
            added = []
            removed = []
            for row in sorted(self._accumulated, key=row_order):
                change = self._accumulated[row]
                if change > 0:
                    added.append((row, change))
                else:
                    removed.append((row, -change))
            self._accumulated = {}
            return tuple(added), tuple(removed)
        old, new = self._scalar_old, self._scalar_new
        self._scalar_old = self._scalar_new = _UNSET
        if new is _UNSET or old == new:
            return (), ()
        removed = () if old in (None, _UNSET) else (((old,), 1),)
        return (((new,), 1),), removed

    # Observers are leaves; stabilize must never schedule them.
    internal = True
    height = -1
    id = -1
    needs_evaluation = False


class Dataflow:
    """A dataflow graph: variables, combinators, observers, stabilize."""

    def __init__(self, meter: CostMeter = NULL_METER) -> None:
        self.meter = meter
        self.nodes: list[Node] = []
        self._dirty_ids: set[int] = set()
        self._heap: list[tuple[int, int]] = []
        self._capturing: Optional[list[Node]] = None

    # -- bookkeeping ---------------------------------------------------

    def _register(self, node: Node) -> int:
        node_id = len(self.nodes)
        self.nodes.append(node)
        if self._capturing is not None:
            self._capturing.append(node)
        return node_id

    def _mark(self, node: Node) -> None:
        if node.internal or node.id in self._dirty_ids:
            return
        self._dirty_ids.add(node.id)
        heapq.heappush(self._heap, (node.height, node.id))
        self.meter.pq_op()

    # -- constructors --------------------------------------------------

    def var(self, name: str = "") -> Var:
        """A new input relation."""
        return Var(self, name=name)

    def backed_var(self, relation, name: str = "") -> BackedVar:
        """A new input relation that is a read-only view of a live
        store; see :class:`BackedVar` for what ``relation`` offers."""
        return BackedVar(self, relation, name=name)

    def map(self, node: Node, fn, name: str = "") -> Node:
        """Per-row projection: ``fn(row) -> row`` (or None to drop)."""
        self._require_relation(node, "map")
        return _MapNode(self, node, fn, name=name)

    def filter(self, node: Node, predicate, name: str = "") -> Node:
        """Per-row selection by a pure predicate."""
        self._require_relation(node, "filter")
        return _FilterNode(self, node, predicate, name=name)

    def join(
        self,
        left: Node,
        right: Node,
        left_key,
        right_key,
        merge=None,
        name: str = "",
    ) -> Node:
        """Keyed equi-join; ``merge(l_row, r_row)`` shapes the output
        row (default: concatenation)."""
        self._require_relation(left, "join")
        self._require_relation(right, "join")
        return _JoinNode(self, left, right, left_key, right_key, merge, name=name)

    def multijoin(self, atoms, out, name: str = "") -> Node:
        """Natural join of ≥ 2 atoms as a delta query.

        ``atoms`` is a sequence of ``(relation, variables)``: the
        variables name the leading columns of the relation's rows, and
        atoms sharing a variable join on it; ``out`` lists the variables
        of the output row.  Same multiset semantics as chained ``join``
        (output count = product of the atom counts) with state linear in
        the inputs; see :class:`_MultiJoinNode`::

            >>> flow = Dataflow()
            >>> edges = flow.var()
            >>> cycles = flow.multijoin(
            ...     [(edges, "ab"), (edges, "bc"), (edges, "ca")], out="abc")
            >>> edges.update({(1, 2): 1, (2, 3): 1, (3, 1): 1, (3, 4): 1})
            >>> _ = flow.stabilize()
            >>> sorted(cycles.rows())
            [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
        """
        atoms = list(atoms)
        for relation, _ in atoms:
            self._require_relation(relation, "multijoin")
        return _MultiJoinNode(self, atoms, out, name=name)

    def reduce(self, node: Node, key, zero, step, name: str = "") -> Node:
        """Group-aggregate; see :class:`_ReduceNode` for the contract."""
        self._require_relation(node, "reduce")
        return _ReduceNode(self, node, key, zero, step, name=name)

    def count_by(self, node: Node, key, name: str = "") -> Node:
        """Sugar: per-group row count (``reduce`` with ``acc + count``)."""
        return self.reduce(
            node, key, 0, lambda acc, row, count: acc + count, name=name
        )

    def distinct(self, node: Node, name: str = "") -> Node:
        """Set projection of a multiset relation."""
        self._require_relation(node, "distinct")
        return _DistinctNode(self, node, name=name)

    def count(self, node: Node, name: str = "") -> Node:
        """Scalar cardinality (with multiplicity) of a relation."""
        self._require_relation(node, "count")
        return _CountNode(self, node, name=name)

    def map_value(self, node: Node, fn, name: str = "") -> Node:
        """Whole-value unary function with equality cutoff."""
        return _MapValueNode(self, (node,), fn, name=name)

    def map2(self, left: Node, right: Node, fn, name: str = "") -> Node:
        """Whole-value binary combination with equality cutoff."""
        return _MapValueNode(self, (left, right), fn, name=name)

    def fixpoint(
        self,
        base: Node,
        step,
        bound: int = DEFAULT_FIXPOINT_BOUND,
        name: str = "",
    ) -> Node:
        """Bounded least fixpoint of ``R ↦ distinct(base ∪ step(R))``.

        ``step(recur)`` receives the recursion variable and returns the
        relation derived from it; everything it builds becomes the
        fixpoint's private inner region.  Nesting fixpoints inside a
        step builder is not supported.
        """
        self._require_relation(base, "fixpoint")
        if self._capturing is not None:
            raise DataflowError("fixpoint builders cannot nest")
        self._capturing = captured = []
        try:
            recur = self.var(name=f"{name or 'fixpoint'}.recur")
            step_node = step(recur)
        finally:
            self._capturing = None
        self._require_relation(step_node, "fixpoint step")
        inner = set(captured)
        externals: list[Node] = []
        for node in captured:
            node.internal = True
            self._dirty_ids.discard(node.id)
            for parent in node.parents:
                if parent not in inner and parent not in externals:
                    externals.append(parent)
        return _FixpointNode(
            self, base, recur, step_node, captured, externals, bound, name=name
        )

    def observe(self, node: Node) -> Observer:
        """Subscribe to a node's value and per-stabilize deltas."""
        if node.internal:
            raise DataflowError(f"{node.name} is fixpoint-internal")
        return Observer(node)

    def _require_relation(self, node: Node, combinator: str) -> None:
        if not node.is_relation:
            raise DataflowError(
                f"{combinator} requires a relation input; {node.name} is "
                "scalar (wrap scalar post-processing in map_value/map2)"
            )

    # -- introspection -------------------------------------------------

    def describe(self) -> list[dict]:
        """The graph as data, one record per node in creation order:
        ``name``, ``kind`` (the combinator), ``height``, ``eval_count``,
        ``value_rows`` (distinct rows in ``value``; 1 for a scalar),
        ``state_rows`` (rows held beside it: join indexes, reduce
        groups, the multijoin arrangements the node keeps itself) and
        ``held_rows`` (rows the node stores: the two summed — or 0 for
        a :class:`BackedVar`, whose value is its store's)."""
        return [
            {
                "name": node.name,
                "kind": type(node).__name__.lstrip("_").lower().removesuffix("node"),
                "height": node.height,
                "eval_count": node.eval_count,
                "value_rows": len(node.value) if node.is_relation else 1,
                "state_rows": node._state_rows(),
                "held_rows": node._held_rows(),
            }
            for node in self.nodes
        ]

    # -- stabilization -------------------------------------------------

    def stabilize(self) -> int:
        """Re-evaluate dirty nodes in topological order; return how many
        nodes recomputed.  Idempotent: a second call with no staged
        input changes evaluates nothing."""
        evaluated = 0
        while self._heap:
            _, node_id = heapq.heappop(self._heap)
            self.meter.pq_op()
            if node_id not in self._dirty_ids:
                continue
            self._dirty_ids.discard(node_id)
            node = self.nodes[node_id]
            if node.needs_evaluation:
                node.evaluate()
                evaluated += 1
        return evaluated
