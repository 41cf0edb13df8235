"""Tests for IncKWS (paper Section 4.2): unit insertion (Fig. 1), unit
deletion (Fig. 3), batch processing, ΔO reporting, and locality."""

import pytest

from repro.core.boundedness import check_locality
from repro.core.cost import CostMeter
from repro.core.delta import Delta, delete, insert
from repro.graph import DiGraph
from repro.graph.generators import label_alphabet, uniform_random_graph
from repro.graph.updates import random_delta
from repro.kws import KWSIndex, KWSQuery, compute_kdist, distance_profile, inc_kws_n, verify_kdist

ALPHABET = label_alphabet(6)


def fresh_profile(graph, query):
    return distance_profile(compute_kdist(graph, query))


@pytest.fixture
def small() -> DiGraph:
    g = DiGraph(labels={0: "a", 1: "b", 2: "c", 3: "b", 4: "a"})
    for edge in [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)]:
        g.add_edge(*edge)
    return g


class TestInsert:
    def test_shortcut_updates_dist(self, small):
        index = KWSIndex(small, KWSQuery(("c",), 3))
        assert index.kdist.dist(0, "c") == 2
        index.insert_edge(0, 2)
        assert index.kdist.dist(0, "c") == 1
        verify_kdist(index.graph, index.kdist)

    def test_no_improvement_no_change(self, small):
        index = KWSIndex(small, KWSQuery(("a",), 2))
        delta_o = index.insert_edge(1, 3)  # a-dist(1) already 2 via 2->4... via 3->4 too
        verify_kdist(index.graph, index.kdist)
        # equal-dist insertion must not rewrite next pointers
        assert not delta_o.added and not delta_o.removed

    def test_propagation_to_ancestors(self):
        # chain 4 <- 3 <- 2 <- 1 <- 0 with target t(a); inserting 4 -> t
        # improves every ancestor within the bound.
        g = DiGraph(labels={i: "x" for i in range(5)} | {"t": "a"})
        for i in range(4):
            g.add_edge(i + 1, i)
        index = KWSIndex(g, KWSQuery(("a",), 3))
        assert index.profile() == {"t": {"a": 0}}  # t matches itself
        delta_o = index.insert_edge(0, "t")
        assert index.kdist.dist(0, "a") == 1
        assert index.kdist.dist(2, "a") == 3
        assert index.kdist.dist(3, "a") is None  # bound cuts at 3
        assert set(delta_o.added) == {0, 1, 2}
        verify_kdist(index.graph, index.kdist)

    def test_insert_with_new_keyword_node(self, small):
        index = KWSIndex(small, KWSQuery(("z",), 2))
        assert index.roots() == set()
        delta_o = index.insert_edge(2, 99, target_label="z")
        assert index.kdist.dist(99, "z") == 0
        assert index.kdist.dist(2, "z") == 1
        assert index.kdist.dist(1, "z") == 2
        assert 99 in delta_o.added and 2 in delta_o.added
        verify_kdist(index.graph, index.kdist)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_inserts_match_recompute(self, seed):
        import random

        graph = uniform_random_graph(40, 120, ALPHABET, seed=seed)
        query = KWSQuery((ALPHABET[0], ALPHABET[1]), 2)
        index = KWSIndex(graph, query)
        rng = random.Random(seed)
        nodes = list(graph.nodes())
        done = 0
        while done < 10:
            source, target = rng.choice(nodes), rng.choice(nodes)
            if source == target or graph.has_edge(source, target):
                continue
            index.insert_edge(source, target)
            done += 1
        verify_kdist(index.graph, index.kdist)
        assert index.profile() == fresh_profile(index.graph, query)


class TestDelete:
    def test_reroute_on_delete(self, small):
        index = KWSIndex(small, KWSQuery(("a",), 3))
        # node 1's a-path is 1->2->4; delete (2,4): reroute or drop.
        delta_o = index.delete_edge(2, 4)
        assert index.kdist.dist(1, "a") is None  # no alternative within 3...
        verify_kdist(index.graph, index.kdist)
        assert 1 in delta_o.removed or 1 not in index.roots()

    def test_delete_unused_edge_is_noop(self, small):
        index = KWSIndex(small, KWSQuery(("a",), 2))
        meter = CostMeter()
        index.meter = meter
        delta_o = index.delete_edge(0, 1)  # not on any chosen a-path
        assert delta_o.is_empty
        verify_kdist(index.graph, index.kdist)

    def test_reroute_through_alternative(self):
        # 0 -> 1 -> t(a), 0 -> 2 -> t; chosen path via min(1,2)=1.
        g = DiGraph(labels={0: "x", 1: "x", 2: "x", "t": "a"})
        for edge in [(0, 1), (0, 2), (1, "t"), (2, "t")]:
            g.add_edge(*edge)
        index = KWSIndex(g, KWSQuery(("a",), 2))
        assert index.kdist.get(0, "a").next == 1
        delta_o = index.delete_edge(1, "t")
        assert index.kdist.get(0, "a").next == 2
        assert index.kdist.dist(0, "a") == 2
        assert 0 in delta_o.rerouted
        verify_kdist(index.graph, index.kdist)

    def test_distance_increase_within_bound(self):
        # 0 -> t(a) and 0 -> 1 -> 2 -> t: deletion lengthens 0's path 1 -> 3.
        g = DiGraph(labels={0: "x", 1: "x", 2: "x", "t": "a"})
        for edge in [(0, "t"), (0, 1), (1, 2), (2, "t")]:
            g.add_edge(*edge)
        index = KWSIndex(g, KWSQuery(("a",), 3))
        assert index.kdist.dist(0, "a") == 1
        index.delete_edge(0, "t")
        assert index.kdist.dist(0, "a") == 3
        verify_kdist(index.graph, index.kdist)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_deletes_match_recompute(self, seed):
        import random

        graph = uniform_random_graph(40, 140, ALPHABET, seed=seed)
        query = KWSQuery((ALPHABET[0], ALPHABET[1]), 2)
        index = KWSIndex(graph, query)
        rng = random.Random(1000 + seed)
        for _ in range(10):
            edges = list(index.graph.edges())
            if not edges:
                break
            index.delete_edge(*rng.choice(edges))
        verify_kdist(index.graph, index.kdist)
        assert index.profile() == fresh_profile(index.graph, query)


class TestBatch:
    @pytest.mark.parametrize("seed", range(10))
    def test_batch_matches_recompute(self, seed):
        graph = uniform_random_graph(40, 130, ALPHABET, seed=seed)
        query = KWSQuery((ALPHABET[0], ALPHABET[1], ALPHABET[2]), 2)
        delta = random_delta(graph, 30, seed=seed)
        expected = fresh_profile(delta.applied(graph), query)
        index = KWSIndex(graph.copy(), query)
        index.apply(delta)
        verify_kdist(index.graph, index.kdist)
        assert index.profile() == expected

    def test_batch_with_new_nodes(self):
        graph = uniform_random_graph(25, 60, ALPHABET, seed=3)
        query = KWSQuery((ALPHABET[0], ALPHABET[1]), 2)
        delta = random_delta(
            graph, 20, seed=4, new_node_fraction=0.5, alphabet=ALPHABET[:2]
        )
        expected = fresh_profile(delta.applied(graph), query)
        index = KWSIndex(graph.copy(), query)
        index.apply(delta)
        assert index.profile() == expected
        verify_kdist(index.graph, index.kdist)

    def test_delta_output_equation(self):
        # Q(G ⊕ ΔG) = Q(G) ⊕ ΔO at the root-set level.
        graph = uniform_random_graph(40, 130, ALPHABET, seed=21)
        query = KWSQuery((ALPHABET[0], ALPHABET[1]), 2)
        index = KWSIndex(graph.copy(), query)
        roots_before = set(index.roots())
        delta = random_delta(graph, 26, seed=22)
        delta_o = index.apply(delta)
        assert (roots_before - set(delta_o.removed)) | set(delta_o.added) == set(
            index.roots()
        )
        assert set(delta_o.removed) <= roots_before
        assert not set(delta_o.added) & roots_before

    def test_batch_agrees_with_unit_at_a_time(self):
        graph = uniform_random_graph(35, 110, ALPHABET, seed=31)
        query = KWSQuery((ALPHABET[0], ALPHABET[1]), 2)
        delta = random_delta(graph, 24, seed=32)
        batch_index = KWSIndex(graph.copy(), query)
        batch_index.apply(delta)
        unit_index = KWSIndex(graph.copy(), query)
        inc_kws_n(unit_index, delta)
        assert batch_index.profile() == unit_index.profile()

    def test_rerouted_roots_reported(self, small):
        index = KWSIndex(small, KWSQuery(("a",), 3))
        # reroute node 1's path by deleting (2,4) and inserting (2, 0):
        # new path 1 -> 2 -> 0(a), dist stays 2.
        delta_o = index.apply(Delta([delete(2, 4), insert(2, 0)]))
        assert index.kdist.dist(1, "a") == 2
        assert 1 in delta_o.rerouted
        verify_kdist(index.graph, index.kdist)

    @pytest.mark.parametrize("rho", [0.25, 1.0, 4.0])
    def test_rho_variations(self, rho):
        graph = uniform_random_graph(40, 140, ALPHABET, seed=41)
        query = KWSQuery((ALPHABET[0], ALPHABET[1]), 2)
        delta = random_delta(graph, 28, rho=rho, seed=42)
        expected = fresh_profile(delta.applied(graph), query)
        index = KWSIndex(graph.copy(), query)
        index.apply(delta)
        assert index.profile() == expected


class TestLocality:
    def test_unit_insert_confined_to_neighborhood(self):
        # Long chain; an insertion near one end must not touch the far end.
        g = DiGraph(labels={i: "x" for i in range(200)} | {"t": "a"})
        for i in range(199):
            g.add_edge(i + 1, i)
        g.add_edge(0, "t")
        bound = 2
        index = KWSIndex(g, KWSQuery(("a",), bound))
        meter = CostMeter()
        index.meter = meter
        index.insert_edge(5, "t")
        delta = Delta([insert(5, "t")])
        report = check_locality(index.graph, delta, meter, radius=2 * bound)
        assert report.touched, "the meter touched no node: a vacuous check"
        assert report.is_local, f"escaped: {report.escaped}"

    def test_unit_delete_confined_to_neighborhood(self):
        g = DiGraph(labels={i: "x" for i in range(200)} | {"t": "a"})
        for i in range(199):
            g.add_edge(i + 1, i)
        g.add_edge(0, "t")
        g.add_edge(1, "t")
        bound = 2
        index = KWSIndex(g, KWSQuery(("a",), bound))
        meter = CostMeter()
        index.meter = meter
        index.delete_edge(0, "t")
        report = check_locality(
            index.graph, Delta([delete(0, "t")]), meter, radius=2 * bound
        )
        assert report.touched, "the meter touched no node: a vacuous check"
        assert report.is_local, f"escaped: {report.escaped}"

    def test_batch_confined_to_neighborhood(self):
        graph = uniform_random_graph(300, 600, ALPHABET, seed=51)
        bound = 2
        query = KWSQuery((ALPHABET[0],), bound)
        index = KWSIndex(graph, query)
        meter = CostMeter()
        index.meter = meter
        delta = random_delta(graph, 6, seed=52)
        index.apply(delta)
        report = check_locality(index.graph, delta, meter, radius=2 * bound)
        assert report.touched, "the meter touched no node: a vacuous check"
        assert report.is_local, f"escaped: {report.escaped}"
