"""Focused tests for the contracted graph G_c: merge-into-host, split
with host-keeping counters, rank interpolation and renumbering."""

import random

import pytest

from repro.graph import DiGraph
from repro.scc import Condensation, CondensationError, tarjan_scc


def build(graph: DiGraph) -> Condensation:
    return Condensation.from_tarjan(graph, tarjan_scc(graph))


@pytest.fixture
def two_comps() -> tuple[DiGraph, Condensation]:
    # {0,1} <-> cycle, {2} sink, two parallel edges across.
    g = DiGraph(labels={i: "x" for i in range(3)},
                edges=[(0, 1), (1, 0), (0, 2), (1, 2)])
    return g, build(g)


class TestCounters:
    def test_initial_counter_aggregation(self, two_comps):
        graph, cond = two_comps
        big = cond.component(0)
        sink = cond.component(2)
        assert cond.succ[big][sink] == 2
        cond.check_against(graph)

    def test_add_and_remove_inter_edge(self, two_comps):
        graph, cond = two_comps
        big, sink = cond.component(0), cond.component(2)
        graph.add_edge(2, 0)  # now 2 -> 0 as well... wait: that merges!
        # undo: use a fresh pair to exercise counters without cycles
        graph.remove_edge(2, 0)
        assert cond.remove_inter_edge(big, sink) == 1
        graph.remove_edge(0, 2)
        assert cond.remove_inter_edge(big, sink) == 0
        graph.remove_edge(1, 2)
        with pytest.raises(CondensationError):
            cond.remove_inter_edge(big, sink)

    def test_intra_edge_rejected(self, two_comps):
        _, cond = two_comps
        comp = cond.component(0)
        with pytest.raises(CondensationError):
            cond.add_inter_edge(comp, comp)


class TestMerge:
    def test_merge_keeps_largest_id(self):
        g = DiGraph(labels={i: "x" for i in range(4)},
                    edges=[(0, 1), (1, 0), (0, 2), (2, 3)])
        cond = build(g)
        big = cond.component(0)      # {0, 1}
        mid = cond.component(2)      # {2}
        # simulate merging after inserting (3, 0): cycle over all comps
        g.add_edge(3, 0)
        merged = cond.merge([big, mid, cond.component(3)], new_rank=5.0)
        assert merged == big  # host identity preserved
        assert cond.component_nodes(merged) == {0, 1, 2, 3}
        cond.check_against(g)

    def test_merge_requires_two(self, two_comps):
        _, cond = two_comps
        with pytest.raises(CondensationError):
            cond.merge([cond.component(0)], new_rank=0.0)

    def test_merge_reaggregates_outside_counters(self):
        # comps A={0}, B={1}, C={2}; edges A->C, B->C (x2 via another edge),
        # then merge A,B: merged->C counter must be 3.
        g = DiGraph(labels={i: "x" for i in range(4)},
                    edges=[(0, 2), (1, 2), (1, 3), (3, 2)])
        cond = build(g)
        a, b = cond.component(0), cond.component(1)
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        merged = cond.merge([a, b], new_rank=99.0)
        c = cond.component(2)
        assert cond.succ[merged][c] == 2  # (0,2) and (1,2)
        cond.check_against(g)

    def test_stale_id_raises_after_merge(self):
        g = DiGraph(labels={0: "x", 1: "x"}, edges=[(0, 1)])
        cond = build(g)
        a, b = cond.component(0), cond.component(1)
        g.add_edge(1, 0)
        merged = cond.merge([a, b], new_rank=1.0)
        dead = a if merged == b else b
        with pytest.raises(KeyError):
            cond.component_nodes(dead)


class TestSplit:
    def test_split_counters_and_ranks(self):
        # one 3-cycle with an external sink; split after deleting (2, 0).
        g = DiGraph(labels={i: "x" for i in range(4)},
                    edges=[(0, 1), (1, 2), (2, 0), (1, 3)])
        cond = build(g)
        comp = cond.component(0)
        g.remove_edge(2, 0)
        # reverse topological parts: sinks first
        parts = [frozenset({2}), frozenset({1}), frozenset({0})]
        new_ids = cond.split(comp, parts, g)
        assert len(new_ids) == 3
        assert cond.check_rank_invariant()
        cond.check_against(g)

    def test_split_partition_mismatch(self, two_comps):
        graph, cond = two_comps
        comp = cond.component(0)
        with pytest.raises(CondensationError):
            cond.split(comp, [frozenset({0}), frozenset({99})], graph)

    def test_split_host_keeps_identity(self):
        # 4-cycle {0..3} plus appendix node 4 closing a larger cycle;
        # deleting (4, 0) peels {4} off while the 4-cycle survives, and
        # the surviving (largest) part must keep the old component id.
        g = DiGraph(labels={i: "x" for i in range(5)})
        for i in range(3):
            g.add_edge(i, i + 1)
        g.add_edge(3, 0)
        g.add_edge(3, 4)
        g.add_edge(4, 0)
        cond = build(g)
        comp = cond.component(0)
        assert cond.component_nodes(comp) == {0, 1, 2, 3, 4}
        g.remove_edge(4, 0)
        parts = [frozenset({4}), frozenset({0, 1, 2, 3})]
        new_ids = cond.split(comp, parts, g)
        assert comp in new_ids
        assert cond.component_nodes(comp) == {0, 1, 2, 3}
        cond.check_against(g)


class TestRanks:
    def test_renumber_restores_integral_ranks(self):
        g = DiGraph(labels={i: "x" for i in range(4)},
                    edges=[(0, 1), (1, 2), (2, 3)])
        cond = build(g)
        # scramble ranks while keeping them valid
        for comp in cond.members:
            cond.rank[comp] *= 0.001
        cond.renumber()
        assert cond.check_rank_invariant()
        assert all(rank == int(rank) for rank in cond.rank.values())

    def test_renumber_rejects_cyclic_gc(self):
        g = DiGraph(labels={0: "x", 1: "x"}, edges=[(0, 1)])
        cond = build(g)
        a, b = cond.component(0), cond.component(1)
        # corrupt: fake a cycle in G_c
        cond.succ[b][a] = 1
        cond.pred[a][b] = 1
        with pytest.raises(CondensationError):
            cond.renumber()

    def test_add_singleton_below_all(self, two_comps):
        graph, cond = two_comps
        graph.add_node(99, label="x")
        comp = cond.add_singleton(99)
        assert cond.rank[comp] < min(
            rank for cid, rank in cond.rank.items() if cid != comp
        )
        with pytest.raises(CondensationError):
            cond.add_singleton(99)

    def test_cached_extremes_follow_every_rank_write(self):
        # Random writes that move extremes in and out (ties included),
        # drops and fresh singletons above and below: the cached floor
        # and ceiling must equal a full scan after every step.
        rng = random.Random(3)
        cond = build(DiGraph(labels={i: "x" for i in range(6)},
                             edges=[(0, 1), (1, 2), (3, 4)]))
        fresh = 100
        for _ in range(2000):
            roll = rng.random()
            comps = list(cond.rank)
            if roll < 0.6:
                value = rng.choice([*cond.rank.values(), rng.uniform(-20.0, 20.0)])
                cond.set_rank(rng.choice(comps), value)
            elif roll < 0.75 and len(comps) > 2:
                cond._drop_rank(rng.choice(comps))
            else:
                cond.add_singleton(fresh, above=rng.random() < 0.5)
                fresh += 1
            assert cond._extreme_rank(highest=False) == min(cond.rank.values())
            assert cond._extreme_rank(highest=True) == max(cond.rank.values())

    def test_components_in_rank_order(self):
        g = DiGraph(labels={i: "x" for i in range(3)}, edges=[(0, 1), (1, 2)])
        cond = build(g)
        order = cond.components_in_rank_order()
        # sinks first: node 2's component must precede node 0's
        assert order.index(cond.component(2)) < order.index(cond.component(0))
