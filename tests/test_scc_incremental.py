"""Tests for IncSCC (paper Section 5.3): unit insertions (Fig. 7), unit
deletions, batch processing, and equivalence with recomputation."""

import random

import pytest

from repro.core.cost import CostMeter
from repro.core.delta import Delta, delete, insert
from repro.graph import DiGraph
from repro.graph.generators import label_alphabet, uniform_random_graph
from repro.graph.updates import random_delta
from repro.scc import Condensation, DynSCC, SCCIndex, inc_scc_n, tarjan_scc

ALPHABET = label_alphabet(6)


def fresh_partition(graph: DiGraph) -> set[frozenset]:
    return tarjan_scc(graph).partition()


def make_index(seed: int, nodes: int = 40, edges: int = 100) -> SCCIndex:
    graph = uniform_random_graph(nodes, edges, ALPHABET, seed=seed)
    return SCCIndex(graph)


class TestUnitInsert:
    def test_same_component_keeps_partition(self):
        g = DiGraph(labels={i: "x" for i in range(3)},
                    edges=[(0, 1), (1, 2), (2, 0)])
        index = SCCIndex(g)
        added, removed = index.insert_edge(0, 2)
        assert (added, removed) == (set(), set())
        assert index.components() == fresh_partition(g)
        index.check_consistency()

    def test_rank_respecting_insert_changes_nothing(self):
        g = DiGraph(labels={i: "x" for i in range(3)}, edges=[(0, 1), (1, 2)])
        index = SCCIndex(g)
        before = index.components()
        added, removed = index.insert_edge(0, 2)
        assert (added, removed) == (set(), set())
        assert index.components() == before
        index.check_consistency()

    def test_two_component_merge(self):
        g = DiGraph(labels={i: "x" for i in range(2)}, edges=[(0, 1)])
        index = SCCIndex(g)
        added, removed = index.insert_edge(1, 0)
        assert added == {frozenset({0, 1})}
        assert removed == {frozenset({0}), frozenset({1})}
        index.check_consistency()

    def test_chain_collapse(self):
        # 0 -> 1 -> 2 -> 3 plus closing edge 3 -> 0 merges all four.
        g = DiGraph(labels={i: "x" for i in range(4)},
                    edges=[(0, 1), (1, 2), (2, 3)])
        index = SCCIndex(g)
        added, removed = index.insert_edge(3, 0)
        assert added == {frozenset({0, 1, 2, 3})}
        assert len(removed) == 4
        index.check_consistency()

    def test_partial_merge_keeps_bystanders(self):
        # diamond: 0 -> {1, 2} -> 3 ; closing 3 -> 1 merges {1, 3} only...
        # via 1->3? 1 -> 3 and 3 -> 1 so {1,3}; 2 stays alone.
        g = DiGraph(labels={i: "x" for i in range(4)},
                    edges=[(0, 1), (0, 2), (1, 3), (2, 3)])
        index = SCCIndex(g)
        added, removed = index.insert_edge(3, 1)
        assert added == {frozenset({1, 3})}
        assert index.components() == fresh_partition(index.graph)
        index.check_consistency()

    def test_realloc_without_cycle(self):
        # 0 -> 1, 2 -> 3 independent; insert 1 -> 2 may violate ranks
        # (depending on emission) but never merges.
        g = DiGraph(labels={i: "x" for i in range(4)}, edges=[(0, 1), (2, 3)])
        index = SCCIndex(g)
        added, removed = index.insert_edge(1, 2)
        assert (added, removed) == (set(), set())
        index.check_consistency()

    def test_insert_with_new_source_node(self):
        g = DiGraph(labels={0: "x", 1: "x"}, edges=[(0, 1)])
        index = SCCIndex(g)
        added, removed = index.insert_edge(99, 0, source_label="n")
        assert frozenset({99}) in added
        assert removed == set()
        index.check_consistency()

    def test_insert_with_new_target_node(self):
        g = DiGraph(labels={0: "x", 1: "x"}, edges=[(0, 1)])
        index = SCCIndex(g)
        added, removed = index.insert_edge(1, 77, target_label="n")
        assert frozenset({77}) in added
        index.check_consistency()

    @pytest.mark.parametrize("seed", range(10))
    def test_random_unit_inserts_match_recompute(self, seed):
        index = make_index(seed)
        rng = random.Random(seed)
        nodes = list(index.graph.nodes())
        performed = 0
        while performed < 12:
            source, target = rng.choice(nodes), rng.choice(nodes)
            if source == target or index.graph.has_edge(source, target):
                continue
            index.insert_edge(source, target)
            performed += 1
            assert index.components() == fresh_partition(index.graph)
        index.check_consistency()


class TestUnitDelete:
    def test_inter_component_delete_keeps_partition(self):
        g = DiGraph(labels={i: "x" for i in range(3)}, edges=[(0, 1), (1, 2)])
        index = SCCIndex(g)
        added, removed = index.delete_edge(0, 1)
        assert (added, removed) == (set(), set())
        index.check_consistency()

    def test_cycle_break_splits(self):
        g = DiGraph(labels={i: "x" for i in range(3)},
                    edges=[(0, 1), (1, 2), (2, 0)])
        index = SCCIndex(g)
        added, removed = index.delete_edge(2, 0)
        assert removed == {frozenset({0, 1, 2})}
        assert added == {frozenset({0}), frozenset({1}), frozenset({2})}
        index.check_consistency()

    def test_chord_delete_keeps_component(self):
        g = DiGraph(labels={i: "x" for i in range(3)},
                    edges=[(0, 1), (1, 2), (2, 0), (0, 2)])
        index = SCCIndex(g)
        added, removed = index.delete_edge(0, 2)
        assert (added, removed) == (set(), set())
        assert index.components() == {frozenset({0, 1, 2})}
        index.check_consistency()

    def test_split_into_two_components(self):
        # two 2-cycles joined: 0<->1, 1->2, 2<->3, 3->0 is one big SCC;
        # deleting 3->0 splits into {0,1}+{2,3}? After deletion edges:
        # 0<->1, 1->2, 2<->3 — SCCs {0,1} and {2,3}.
        g = DiGraph(labels={i: "x" for i in range(4)},
                    edges=[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 0)])
        index = SCCIndex(g)
        added, removed = index.delete_edge(3, 0)
        assert removed == {frozenset({0, 1, 2, 3})}
        assert added == {frozenset({0, 1}), frozenset({2, 3})}
        index.check_consistency()

    @pytest.mark.parametrize("seed", range(10))
    def test_random_unit_deletes_match_recompute(self, seed):
        index = make_index(seed, nodes=30, edges=120)
        rng = random.Random(100 + seed)
        for _ in range(12):
            edges = list(index.graph.edges())
            if not edges:
                break
            source, target = rng.choice(edges)
            index.delete_edge(source, target)
            assert index.components() == fresh_partition(index.graph)
        index.check_consistency()


class TestBatch:
    @pytest.mark.parametrize("seed", range(12))
    def test_batch_matches_recompute(self, seed):
        graph = uniform_random_graph(40, 120, ALPHABET, seed=seed)
        delta = random_delta(graph, 30, seed=seed)
        expected = tarjan_scc(delta.applied(graph)).partition()
        index = SCCIndex(graph.copy())
        index.apply(delta)
        assert index.components() == expected
        index.check_consistency()

    def test_delta_output_equation(self):
        # SCC(G ⊕ ΔG) = SCC(G) ⊕ ΔO
        graph = uniform_random_graph(35, 100, ALPHABET, seed=42)
        before = tarjan_scc(graph).partition()
        delta = random_delta(graph, 24, seed=43)
        index = SCCIndex(graph.copy())
        added, removed = index.apply(delta)
        patched = (before - removed) | added
        assert patched == index.components()
        assert removed <= before
        assert not (added & before)

    def test_insert_delete_same_area(self):
        g = DiGraph(labels={i: "x" for i in range(4)},
                    edges=[(0, 1), (1, 2), (2, 3)])
        index = SCCIndex(g)
        delta = Delta([insert(3, 0), delete(1, 2)])
        index.apply(delta)
        assert index.components() == fresh_partition(index.graph)
        index.check_consistency()

    def test_batch_with_new_nodes(self):
        graph = uniform_random_graph(20, 50, ALPHABET, seed=7)
        delta = random_delta(graph, 16, seed=8, new_node_fraction=0.5)
        expected = tarjan_scc(delta.applied(graph)).partition()
        index = SCCIndex(graph.copy())
        index.apply(delta)
        assert index.components() == expected
        index.check_consistency()

    def test_unnormalized_batch_is_normalized_internally(self):
        g = DiGraph(labels={i: "x" for i in range(3)}, edges=[(0, 1)])
        index = SCCIndex(g)
        delta = Delta([insert(1, 2), delete(1, 2)])
        index.apply(delta)
        assert index.components() == fresh_partition(index.graph)

    @pytest.mark.parametrize("rho", [0.25, 1.0, 4.0])
    def test_rho_variations(self, rho):
        graph = uniform_random_graph(40, 140, ALPHABET, seed=11)
        delta = random_delta(graph, 28, rho=rho, seed=12)
        index = SCCIndex(graph.copy())
        index.apply(delta)
        assert index.components() == tarjan_scc(index.graph).partition()
        index.check_consistency()


class TestIncSCCn:
    @pytest.mark.parametrize("seed", range(6))
    def test_unit_at_a_time_matches_recompute(self, seed):
        graph = uniform_random_graph(30, 90, ALPHABET, seed=seed)
        delta = random_delta(graph, 20, seed=seed)
        expected = tarjan_scc(delta.applied(graph)).partition()
        index = SCCIndex(graph.copy())
        inc_scc_n(index, delta)
        assert index.components() == expected
        index.check_consistency()

    def test_batch_and_unit_agree(self):
        graph = uniform_random_graph(30, 90, ALPHABET, seed=77)
        delta = random_delta(graph, 24, seed=78)
        batch_index = SCCIndex(graph.copy())
        batch_index.apply(delta)
        unit_index = SCCIndex(graph.copy())
        inc_scc_n(unit_index, delta)
        assert batch_index.components() == unit_index.components()


class TestDynSCC:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_recompute(self, seed):
        graph = uniform_random_graph(30, 90, ALPHABET, seed=seed)
        delta = random_delta(graph, 20, seed=seed)
        expected = tarjan_scc(delta.applied(graph)).partition()
        dyn = DynSCC(graph.copy())
        dyn.apply(delta)
        assert dyn.components() == expected

    def test_dynscc_costs_exceed_incscc_on_stable_output(self):
        # Inserting forward edges into a DAG keeps SCC(G) stable; DynSCC
        # still pays unpruned searches while IncSCC uses ranks (Exp-1(3)(b)).
        g = DiGraph(labels={i: "x" for i in range(60)},
                    edges=[(i, i + 1) for i in range(59)])
        inc_meter, dyn_meter = CostMeter(), CostMeter()
        index = SCCIndex(g.copy(), meter=inc_meter)
        dyn = DynSCC(g.copy(), meter=dyn_meter)
        inc_meter.reset(), dyn_meter.reset()
        delta = Delta([insert(0, 30), insert(5, 45), insert(10, 50)])
        index.apply(delta)
        dyn.apply(delta)
        assert index.components() == dyn.components()
        assert dyn_meter.total() > inc_meter.total()


class TestRelativeBoundedness:
    def test_stable_update_cost_independent_of_graph_size(self):
        # The same local update (a far-away 2-cycle flip) against growing
        # chains: IncSCC's measured work must not scale with |G|.
        costs = []
        for scale in (100, 400, 1600):
            g = DiGraph(labels={i: "x" for i in range(scale)},
                        edges=[(i, i + 1) for i in range(scale - 1)])
            meter = CostMeter()
            index = SCCIndex(g, meter=meter)
            meter.reset()
            index.insert_edge(1, 0)   # merge {0,1}
            index.delete_edge(1, 0)   # split back
            costs.append(meter.total())
        assert costs[2] <= costs[0] * 3  # flat, not linear in |G|


class _UncachedCondensation(Condensation):
    """The rank rule without the cached extremes: every read rescans."""

    def _extreme_rank(self, highest: bool) -> float:
        self._rank_floor = self._rank_ceiling = None
        return super()._extreme_rank(highest)


class _ScanCountingRanks(dict):
    """A rank map that counts whole-map scans."""

    scans = 0

    def values(self):
        self.scans += 1
        return super().values()

    def items(self):
        self.scans += 1
        return super().items()

    def keys(self):
        self.scans += 1
        return super().keys()

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


class TestFreshNodeRanks:
    def test_cached_extremes_give_the_uncached_ranks(self):
        # Fresh sources and targets interleaved with merges, splits and
        # renumbering: the cached floor/ceiling must place every fresh
        # node exactly where a full scan would.
        graph = uniform_random_graph(50, 130, ALPHABET, seed=21)
        cached, uncached = SCCIndex(graph.copy()), SCCIndex(graph.copy())
        uncached.cond.__class__ = _UncachedCondensation
        rng = random.Random(21)
        merges = splits = 0
        for step in range(40):
            batch = random_delta(
                cached.graph, 10, rho=1.5, seed=step, new_node_fraction=0.3
            )
            nodes = list(cached.graph.nodes())
            fresh = 1 + max(*nodes, *(update.target for update in batch))
            for offset in range(3):
                target = rng.choice(nodes)
                batch.updates.append(
                    insert(
                        fresh + offset,
                        target,
                        source_label="L0",
                        target_label=cached.graph.label(target),
                    )
                )
            added, removed = cached.apply(batch)
            assert uncached.apply(batch) == (added, removed)
            merges += any(old < new for old in removed for new in added)
            splits += any(new < old for old in removed for new in added)
            if step % 10 == 9:
                cached.cond.renumber()
                uncached.cond.renumber()
            assert cached.cond.rank == uncached.cond.rank
        assert merges and splits
        cached.check_consistency()

    def test_fresh_node_batch_scans_ranks_a_bounded_number_of_times(self):
        # 1 600 fresh sources (and 400 fresh targets) in one batch: each
        # used to rescan every component's rank, O(|G_c|) per fresh node.
        graph = uniform_random_graph(400, 1200, ALPHABET, seed=5)
        index = SCCIndex(graph)
        ranks = _ScanCountingRanks(index.cond.rank)
        index.cond.rank = ranks
        nodes = sorted(graph.nodes())
        fresh = nodes[-1] + 1
        updates = [
            insert(fresh + i, nodes[i % len(nodes)], source_label="L0",
                   target_label=graph.label(nodes[i % len(nodes)]))
            for i in range(1600)
        ]
        updates += [
            insert(nodes[i], fresh + 1600 + i, source_label=graph.label(nodes[i]),
                   target_label="L0")
            for i in range(400)
        ]
        index.apply(Delta(updates))
        assert ranks.scans <= 4
        index.check_consistency()
