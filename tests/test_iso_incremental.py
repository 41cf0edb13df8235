"""Tests for IncISO (paper Appendix, Theorem 3): deletions via the edge
index, insertions via one localized VF2 run, locality containment."""

import pytest

from repro.core.boundedness import check_locality
from repro.core.cost import CostMeter
from repro.core.delta import Delta, delete, insert
from repro.graph import DiGraph
from repro.graph.generators import label_alphabet, uniform_random_graph
from repro.graph.updates import random_delta
from repro.iso import ISOIndex, Pattern, inc_iso_n, vf2_matches

ALPHABET = label_alphabet(4)


def path_pattern() -> Pattern:
    return Pattern.from_edges(
        {0: ALPHABET[0], 1: ALPHABET[1], 2: ALPHABET[2]}, [(0, 1), (1, 2)]
    )


class TestUnitUpdates:
    def test_insert_creates_match(self):
        g = DiGraph(labels={1: ALPHABET[0], 2: ALPHABET[1], 3: ALPHABET[2]})
        g.add_edge(1, 2)
        index = ISOIndex(g, path_pattern())
        assert index.matches == set()
        delta_o = index.insert_edge(2, 3)
        assert len(delta_o.added) == 1
        assert len(index.matches) == 1
        index.check_consistency()

    def test_delete_removes_match(self):
        g = DiGraph(labels={1: ALPHABET[0], 2: ALPHABET[1], 3: ALPHABET[2]},
                    edges=[(1, 2), (2, 3)])
        index = ISOIndex(g, path_pattern())
        assert len(index.matches) == 1
        delta_o = index.delete_edge(1, 2)
        assert len(delta_o.removed) == 1
        assert index.matches == set()
        index.check_consistency()

    def test_deletion_never_creates_matches(self):
        # the non-induced-semantics invariant IncISO relies on
        graph = uniform_random_graph(25, 80, ALPHABET, seed=3)
        index = ISOIndex(graph, path_pattern())
        for edge in list(graph.edges())[:10]:
            delta_o = index.delete_edge(*edge)
            assert not delta_o.added
        index.check_consistency()

    def test_insert_with_new_nodes(self):
        g = DiGraph(labels={1: ALPHABET[0], 2: ALPHABET[1]})
        g.add_edge(1, 2)
        index = ISOIndex(g, path_pattern())
        delta_o = index.insert_edge(2, 99, target_label=ALPHABET[2])
        assert len(delta_o.added) == 1
        index.check_consistency()


class TestBatch:
    @pytest.mark.parametrize("seed", range(8))
    def test_batch_matches_recompute(self, seed):
        graph = uniform_random_graph(25, 80, ALPHABET, seed=seed)
        pattern = path_pattern()
        delta = random_delta(graph, 20, seed=seed)
        expected = vf2_matches(delta.applied(graph), pattern)
        index = ISOIndex(graph.copy(), pattern)
        index.apply(delta)
        assert index.matches == expected
        index.check_consistency()

    def test_delta_output_equation(self):
        graph = uniform_random_graph(25, 80, ALPHABET, seed=17)
        pattern = path_pattern()
        index = ISOIndex(graph.copy(), pattern)
        before = set(index.matches)
        delta = random_delta(graph, 16, seed=18)
        delta_o = index.apply(delta)
        assert (before - set(delta_o.removed)) | set(delta_o.added) == index.matches
        assert set(delta_o.removed) <= before
        assert not set(delta_o.added) & before

    def test_triangle_pattern_batch(self):
        graph = uniform_random_graph(20, 90, ALPHABET[:2], seed=5)
        pattern = Pattern.from_edges(
            {0: ALPHABET[0], 1: ALPHABET[0], 2: ALPHABET[1]},
            [(0, 1), (1, 2), (2, 0)],
        )
        delta = random_delta(graph, 18, seed=6)
        expected = vf2_matches(delta.applied(graph), pattern)
        index = ISOIndex(graph.copy(), pattern)
        index.apply(delta)
        assert index.matches == expected
        index.check_consistency()

    def test_batch_agrees_with_unit_at_a_time(self):
        graph = uniform_random_graph(22, 70, ALPHABET, seed=21)
        pattern = path_pattern()
        delta = random_delta(graph, 16, seed=22)
        batch_index = ISOIndex(graph.copy(), pattern)
        batch_delta = batch_index.apply(delta)
        unit_index = ISOIndex(graph.copy(), pattern)
        unit_delta = inc_iso_n(unit_index, delta)
        assert batch_index.matches == unit_index.matches
        assert batch_delta.added == unit_delta.added
        assert batch_delta.removed == unit_delta.removed

    def test_mixed_delete_insert_same_match(self):
        # deleting an edge of a match and re-creating the same match via a
        # different batch member nets to an empty ΔO when content returns.
        g = DiGraph(labels={1: ALPHABET[0], 2: ALPHABET[1], 3: ALPHABET[2],
                            4: ALPHABET[1]},
                    edges=[(1, 2), (2, 3), (1, 4)])
        pattern = path_pattern()
        index = ISOIndex(g, pattern)
        assert len(index.matches) == 1
        delta = Delta([delete(2, 3), insert(4, 3)])
        delta_o = index.apply(delta)
        assert len(index.matches) == 1
        assert len(delta_o.added) == 1 and len(delta_o.removed) == 1
        index.check_consistency()


class TestLocality:
    def test_insert_work_confined_to_dq_neighborhood(self):
        # A long path graph with an insertion at one end: VF2 must only
        # inspect the d_Q-neighborhood of the insertion.
        labels = {i: ALPHABET[i % 4] for i in range(400)}
        g = DiGraph(labels=labels)
        for i in range(399):
            g.add_edge(i, i + 1)
        pattern = path_pattern()  # d_Q = 2
        index = ISOIndex(g, pattern)
        meter = CostMeter()
        index.meter = meter
        delta = Delta([insert(0, 5)])
        index.apply(delta)
        report = check_locality(
            index.graph, delta, meter, radius=pattern.diameter
        )
        assert report.touched, "the meter touched no node: a vacuous check"
        assert report.is_local, f"escaped: {report.escaped}"

    def test_insertion_region_cost_independent_of_graph_size(self):
        costs = []
        pattern = path_pattern()
        for scale in (100, 400, 1600):
            labels = {i: ALPHABET[i % 4] for i in range(scale)}
            g = DiGraph(labels=labels)
            for i in range(scale - 1):
                g.add_edge(i, i + 1)
            index = ISOIndex(g, pattern)
            meter = CostMeter()
            index.meter = meter
            index.apply(Delta([insert(0, 5)]))
            index.apply(Delta([delete(0, 5)]))
            costs.append(meter.total())
        assert costs[2] <= max(costs[0], 1) * 3
