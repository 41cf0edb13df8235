"""Tests for the Tarjan batch substrate (paper Section 5.3, [43])."""

import networkx as nx
import pytest

from repro.graph import DiGraph
from repro.graph.generators import label_alphabet, uniform_random_graph
from repro.scc.tarjan import (
    EdgeKind,
    condensation_edges,
    is_strongly_connected,
    tarjan_scc,
    verify_rank_invariant,
)

ALPHABET = label_alphabet(5)


def nx_partition(graph: DiGraph) -> set[frozenset]:
    mirror = nx.DiGraph()
    mirror.add_nodes_from(graph.nodes())
    mirror.add_edges_from(graph.edges())
    return {frozenset(component) for component in nx.strongly_connected_components(mirror)}


class TestPartition:
    def test_single_cycle(self):
        g = DiGraph(labels={i: "x" for i in range(4)},
                    edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        result = tarjan_scc(g)
        assert result.partition() == {frozenset({0, 1, 2, 3})}

    def test_dag_is_all_singletons(self):
        g = DiGraph(labels={i: "x" for i in range(4)},
                    edges=[(0, 1), (0, 2), (1, 3), (2, 3)])
        result = tarjan_scc(g)
        assert all(len(c) == 1 for c in result.components)
        assert len(result.components) == 4

    def test_two_cycles_bridge(self):
        g = DiGraph(labels={i: "x" for i in range(6)},
                    edges=[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (5, 0)])
        result = tarjan_scc(g)
        assert result.partition() == {
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4}),
            frozenset({5}),
        }

    def test_empty_graph(self):
        assert tarjan_scc(DiGraph()).partition() == set()

    def test_self_loop(self):
        g = DiGraph(labels={0: "x"})
        g.add_edge(0, 0)
        result = tarjan_scc(g)
        assert result.partition() == {frozenset({0})}

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx_on_random_graphs(self, seed):
        g = uniform_random_graph(60, 180, ALPHABET, seed=seed)
        assert tarjan_scc(g).partition() == nx_partition(g)

    def test_component_of_and_containing(self):
        g = DiGraph(labels={i: "x" for i in range(3)}, edges=[(0, 1), (1, 0), (1, 2)])
        result = tarjan_scc(g)
        assert result.component_containing(0) == frozenset({0, 1})
        assert result.component_of[2] != result.component_of[0]


class TestNumLowlink:
    def test_num_is_unique_discovery_order(self):
        g = uniform_random_graph(40, 100, ALPHABET, seed=3)
        result = tarjan_scc(g)
        values = sorted(result.num.values())
        assert values == list(range(len(values)))

    def test_root_has_num_equal_lowlink(self):
        g = uniform_random_graph(40, 100, ALPHABET, seed=4)
        result = tarjan_scc(g)
        for root in result.roots:
            assert result.num[root] == result.lowlink[root]

    def test_lowlink_at_most_num(self):
        g = uniform_random_graph(40, 120, ALPHABET, seed=5)
        result = tarjan_scc(g)
        assert all(result.lowlink[v] <= result.num[v] for v in result.num)

    def test_lowlink_points_inside_own_component(self):
        # lowlink of v equals num of some node in the same SCC.
        g = uniform_random_graph(40, 120, ALPHABET, seed=6)
        result = tarjan_scc(g)
        num_to_node = {num: node for node, num in result.num.items()}
        for node, low in result.lowlink.items():
            witness = num_to_node[low]
            assert result.component_of[witness] == result.component_of[node]


class TestEdgeClassification:
    def test_tree_arcs_form_forest(self):
        g = uniform_random_graph(50, 150, ALPHABET, seed=7)
        result = tarjan_scc(g)
        tree_targets = [e[1] for e, k in result.edge_kinds.items() if k is EdgeKind.TREE_ARC]
        assert len(tree_targets) == len(set(tree_targets))  # one parent each

    def test_every_intra_component_edge_classified_and_no_inter(self):
        # G_c's counters track inter-component edges; the classification
        # holds exactly the edges inside one component.
        for seed in (8, 11, 12, 13):
            g = uniform_random_graph(30, 90, ALPHABET, seed=seed)
            result = tarjan_scc(g)
            component_of = result.component_of
            intra = {(s, t) for s, t in g.edges() if component_of[s] == component_of[t]}
            assert 0 < len(intra) < g.num_edges  # the graph mixes both kinds
            assert set(result.edge_kinds) == intra
            # Per kind: fronds point to an earlier node, reverse fronds to
            # a later one, cross-links to an earlier one; the tree arcs
            # kept span each component (|C| - 1 of them), as Tarjan's DFS
            # subtree does.
            num = result.num
            for (source, target), kind in result.edge_kinds.items():
                if kind is EdgeKind.FROND:
                    assert num[target] <= num[source]
                elif kind is EdgeKind.REVERSE_FROND:
                    assert num[target] > num[source]
                elif kind is EdgeKind.CROSS_LINK:
                    assert num[target] < num[source]
            tree_arcs = [e for e, k in result.edge_kinds.items() if k is EdgeKind.TREE_ARC]
            assert len(tree_arcs) == sum(len(c) - 1 for c in result.components)

    def test_restricted_run_classifies_only_its_components(self):
        g = uniform_random_graph(30, 90, ALPHABET, seed=8)
        largest = max(tarjan_scc(g).components, key=len)
        scope = largest | frozenset(list(g.nodes())[:5])
        result = tarjan_scc(g, restrict_to=scope)
        component_of = result.component_of
        assert set(result.edge_kinds) == {
            (s, t)
            for s, t in g.edges()
            if s in scope and t in scope and component_of[s] == component_of[t]
        }

    def test_frond_goes_to_smaller_num(self):
        g = uniform_random_graph(30, 90, ALPHABET, seed=9)
        result = tarjan_scc(g)
        for (source, target), kind in result.edge_kinds.items():
            if kind is EdgeKind.FROND:
                assert result.num[target] <= result.num[source]
            elif kind is EdgeKind.REVERSE_FROND:
                assert result.num[target] > result.num[source]
            elif kind is EdgeKind.CROSS_LINK:
                assert result.num[target] < result.num[source]

    def test_known_classification(self):
        # 0 -> 1 -> 2 -> 0 cycle plus chord 0 -> 2 examined after the path.
        g = DiGraph(labels={i: "x" for i in range(3)})
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 0)
        g.add_edge(0, 2)
        result = tarjan_scc(g)
        assert result.edge_kinds[(2, 0)] is EdgeKind.FROND
        kinds = {result.edge_kinds[(0, 1)], result.edge_kinds[(1, 2)]}
        # DFS order determines whether (0,2) is tree or reverse frond, but
        # the cycle path edges must include tree arcs.
        assert EdgeKind.TREE_ARC in kinds


class TestRanksAndCondensation:
    @pytest.mark.parametrize("seed", range(5))
    def test_emission_order_satisfies_rank_invariant(self, seed):
        g = uniform_random_graph(50, 160, ALPHABET, seed=seed)
        result = tarjan_scc(g)
        assert verify_rank_invariant(g, result)

    def test_condensation_counters(self):
        g = DiGraph(labels={i: "x" for i in range(4)},
                    edges=[(0, 1), (1, 0), (0, 2), (1, 2), (2, 3)])
        result = tarjan_scc(g)
        counters = condensation_edges(g, result)
        comp_01 = result.component_of[0]
        comp_2 = result.component_of[2]
        comp_3 = result.component_of[3]
        assert counters[(comp_01, comp_2)] == 2
        assert counters[(comp_2, comp_3)] == 1

    def test_restrict_to_ignores_outside_edges(self):
        g = DiGraph(labels={i: "x" for i in range(4)},
                    edges=[(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)])
        # Restricted to {0, 1}, the path through 2-3 back to 1 is invisible.
        result = tarjan_scc(g, restrict_to=frozenset({0, 1}))
        assert result.partition() == {frozenset({0, 1})}
        result_single = tarjan_scc(g, restrict_to=frozenset({1, 2}))
        assert result_single.partition() == {frozenset({1}), frozenset({2})}

    def test_is_strongly_connected_helper(self):
        g = DiGraph(labels={i: "x" for i in range(3)}, edges=[(0, 1), (1, 0), (1, 2)])
        assert is_strongly_connected(g, frozenset({0, 1}))
        assert not is_strongly_connected(g, frozenset({0, 1, 2}))
        assert not is_strongly_connected(g, frozenset())
