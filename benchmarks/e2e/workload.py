"""Inputs and oracles: the constant graphs, the seeded op stream, and
the batch recomputation every wire answer is checked against.

Nothing here talks to the system under test.  The op stream is a pure
function of ``(workload, seed, seconds)`` and is generated in full
before any clock starts; its SHA-256 is reported so two runs can prove
they drove the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any

from repro.graph.digraph import DiGraph
from repro.iso import vf2_matches
from repro.iso.patterns import Pattern
from repro.kws import KWSQuery, compute_kdist
from repro.rpq.batch import rpq_nfa
from repro.scc.tarjan import tarjan_scc
from repro.workloads import by_name

from config import (
    BATCH_SIZE,
    CLOSED_LOOP_BATCHES_PER_SECOND,
    BACK_EDGE_SPAN,
    COLD_LABELS,
    FORWARD_SHARE,
    READ_CYCLE,
    READ_MIX,
    READS_PER_SECOND_CAP,
    SESSION_READS,
    WARMUP_SECONDS,
    GraphSpec,
    Workload,
)

#: Every (view, query) the server serves, in verification order.
QUERIES = tuple((view, query) for view, query, _ in READ_MIX)


def base_graph(spec: GraphSpec) -> DiGraph:
    """The constant graph of ``spec``: the dataset profile plus the cold
    sink region — nodes labelled outside every query's label set, wired
    only among themselves, so no cold node ever holds a kdist entry and
    a cold-only batch is dropped by the kws, rpq and iso filters.  Cold
    edges run from the lower to the higher id (here and in the write
    stream), so the region stays acyclic and cheap for scc and tri."""
    graph = by_name(spec.profile, scale=spec.scale, seed=spec.seed)
    hot = graph.num_nodes
    rng = random.Random(spec.seed)
    for node in range(hot, hot + spec.cold_nodes):
        graph.add_node(node, label=rng.choice(COLD_LABELS))
    added = 0
    while added < spec.cold_edges:
        source, target = sorted(rng.sample(range(hot, hot + spec.cold_nodes), 2))
        if not graph.has_edge(source, target):
            graph.add_edge(source, target)
            added += 1
    return graph


def graph_payload(graph: DiGraph) -> dict[str, Any]:
    """The graph as the server's input file carries it."""
    return {
        "labels": [[node, graph.label(node)] for node in graph.nodes()],
        "edges": [list(edge) for edge in graph.edges()],
    }


def shard_boundary(graph: DiGraph) -> int:
    """Boundary of the two range shards: half the (dense) node ids."""
    return graph.num_nodes // 2


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


def pattern_of(spec: GraphSpec) -> Pattern:
    return Pattern.from_edges(dict(spec.iso_labels), list(spec.iso_edges))


def triangle_count(graph: DiGraph) -> int:
    """Directed 3-cycles, one per cycle (plain recount)."""
    count = 0
    for first, second in graph.edges():
        for third in graph.successors(second):
            if graph.has_edge(third, first):
                count += 1
    return count // 3  # each cycle is found from each of its edges


def oracle_answers(graph: DiGraph, spec: GraphSpec) -> dict[tuple[str, str], Any]:
    """Every served query recomputed from scratch by the batch
    algorithms, in the canonical shapes of :func:`canonical`."""
    roots = compute_kdist(
        graph, KWSQuery(spec.kws_keywords, spec.kws_bound)
    ).complete_roots()
    components = tarjan_scc(graph).partition()
    return {
        ("kws", "roots"): frozenset(roots),
        ("kws", "size"): len(roots),
        ("rpq", "matches"): frozenset(rpq_nfa(graph, spec.rpq).matches),
        ("iso", "matches"): frozenset(
            tuple(sorted(match.edges))
            for match in vf2_matches(graph, pattern_of(spec))
        ),
        ("tri", "value"): triangle_count(graph),
        ("scc", "size"): len(components),
        ("scc", "nontrivial"): frozenset(
            component for component in components if len(component) > 1
        ),
    }


def canonical(view: str, query: str, answer: Any) -> Any:
    """A wire (JSON) answer in the oracle's shape."""
    if query in ("size", "value"):
        return answer
    if (view, query) == ("kws", "roots"):
        return frozenset(answer)
    if (view, query) == ("rpq", "matches"):
        return frozenset(tuple(pair) for pair in answer)
    if (view, query) == ("iso", "matches"):
        return frozenset(
            tuple(sorted(tuple(edge) for edge in match)) for match in answer
        )
    if (view, query) == ("scc", "nontrivial"):
        return frozenset(frozenset(component) for component in answer)
    raise ValueError(f"no canonical form for {view}.{query}")


def check_nontrivial(answers: dict[tuple[str, str], Any]) -> None:
    """The fixed queries must have real answers on the fixed graph."""
    floors = {("kws", "roots"): 100, ("rpq", "matches"): 100, ("iso", "matches"): 10}
    for key, floor in floors.items():
        if len(answers[key]) < floor:
            raise SystemExit(
                f"benchmark constant {key[0]}.{key[1]} has only "
                f"{len(answers[key])} answers (< {floor}): the graph "
                "generator changed under the benchmark"
            )


# ----------------------------------------------------------------------
# The op stream
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OpStream:
    """Everything the generator will send, fixed before the clock.

    ``reads`` is a flat list of ``(view, query)``; position ``i`` is a
    session read iff :func:`is_session_read`.  ``batches`` are
    wire-form update lists; an open-loop writer sends batch ``k`` at
    ``k / write_rate`` seconds, a closed-loop one as fast as acks
    return (the stream is sized never to run out)."""

    reads: list[tuple[str, str]]
    batches: list[list[list[Any]]]
    sha256: str


def _read_sequence(rng: random.Random, count: int) -> list[tuple[str, str]]:
    block = [
        (view, query) for view, query, weight in READ_MIX for _ in range(weight)
    ]
    reads: list[tuple[str, str]] = []
    while len(reads) < count:
        rng.shuffle(block)
        reads.extend(block)
    return reads[:count]


class _WriteGenerator:
    """Seeded batches that are applicable in order: a scratch copy of
    the graph tracks what the server will hold after each batch."""

    def __init__(
        self, graph: DiGraph, spec: GraphSpec, workload: Workload, rng: random.Random
    ) -> None:
        self.scratch = graph.copy()
        self.rng = rng
        self.insert_share = workload.insert_share
        hot = graph.num_nodes - spec.cold_nodes
        if workload.write_kind == "cold":
            self.pool = list(range(hot, graph.num_nodes))
            self.skew = 1.0
            #: cold edges all run low id -> high id (see base_graph)
            self.forward_share = 1.0
        else:
            # hubs first: endpoint index = n * u**3 favours high degree
            self.pool = sorted(
                range(hot),
                key=lambda node: -(graph.in_degree(node) + graph.out_degree(node)),
            )
            self.skew = 3.0
            self.forward_share = FORWARD_SHARE

    def _node(self) -> int:
        return self.pool[int(len(self.pool) * self.rng.random() ** self.skew)]

    def batch(self) -> list[list[Any]]:
        scratch, rng = self.scratch, self.rng
        updates: list[list[Any]] = []
        touched: set[tuple[int, int]] = set()
        while len(updates) < BATCH_SIZE:
            source = self._node()
            if rng.random() < self.insert_share:
                target = self._node()
                if rng.random() < self.forward_share:
                    source, target = sorted((source, target))
                else:  # a short back edge, like the profile's reciprocal ones
                    target = max(0, source - rng.randint(1, BACK_EDGE_SPAN))
                edge = (source, target)
                if source == target or edge in touched or scratch.has_edge(*edge):
                    continue
                scratch.add_edge(*edge)
                updates.append(["insert", source, target])
            else:
                # never a node's last outgoing or last incoming edge: that
                # peels the node off its component (see README, Workloads)
                targets = sorted(scratch.successors(source))
                if len(targets) < 2:
                    continue
                edge = (source, rng.choice(targets))
                if edge in touched or scratch.in_degree(edge[1]) < 2:
                    continue
                scratch.remove_edge(*edge)
                updates.append(["delete", *edge])
            touched.add(edge)
        return updates


def generate(
    graph: DiGraph, spec: GraphSpec, workload: Workload, seed: int, seconds: float
) -> OpStream:
    """The whole op stream of one run."""
    rng = random.Random(f"{workload.name}:{seed}")
    total = WARMUP_SECONDS + seconds
    reads = _read_sequence(rng, int(READS_PER_SECOND_CAP * total))
    rate = workload.write_rate or CLOSED_LOOP_BATCHES_PER_SECOND
    writer = _WriteGenerator(graph, spec, workload, rng)
    batches = [writer.batch() for _ in range(int(rate * total))]
    digest = hashlib.sha256(
        json.dumps([reads, batches], separators=(",", ":")).encode()
    ).hexdigest()
    return OpStream(reads=reads, batches=batches, sha256=digest)


def is_session_read(position: int) -> bool:
    return position % READ_CYCLE >= READ_CYCLE - SESSION_READS


def apply_batches(graph: DiGraph, batches: list[list[list[Any]]]) -> None:
    """Replay acked batches onto the client's copy of the graph."""
    for batch in batches:
        for kind, source, target in batch:
            if kind == "insert":
                graph.add_edge(source, target)
            else:
                graph.remove_edge(source, target)
