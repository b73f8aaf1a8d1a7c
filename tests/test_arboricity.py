"""Arboricity by the exact densest-set search, and the per-source t-bar min cut."""

from __future__ import annotations

import math
import random
from fractions import Fraction as Fr
from itertools import combinations

import pytest

from laminar import (
    INF,
    WeightedGraph,
    brute_max_skew_density,
    build_goldberg,
    build_hierarchy,
    build_modified,
    compute_arboricity,
    ideal_loads,
    max_flow,
    min_max_loads,
    t_bar_mincut,
)
from laminar.arboricity import ArboricityError
from laminar.graph import GraphError

from .conftest import network_from_arcs, random_connected_graph, random_digraph


class TestTBarMincut:
    def test_two_nodes(self):
        net = network_from_arcs(2, [(0, 1, 7)])
        cut = t_bar_mincut(net, 1)
        assert cut.source_side == {0} and cut.value == 7

    def test_shortcut_network_of_path_near_max_density(self, trubin_path):
        tau = Fr(100) - Fr(1, 128)
        h = build_goldberg(trubin_path, tau)
        m = build_modified(h, max_flow(h.network, h.s, h.t, limit=h.saturation_target()))
        cut = t_bar_mincut(m.network, m.t)
        assert cut.source_side == {2, 3}
        assert cut.value < m.tau.numerator  # below scale * tau

    def test_all_infinite(self):
        net = network_from_arcs(3, [(0, 2, INF), (1, 2, INF), (0, 1, INF)])
        cut = t_bar_mincut(net, 2)
        assert cut.value == INF and 2 not in cut.source_side

    def test_matches_subset_enumeration(self):
        rng = random.Random(37)
        for _ in range(20):
            n = rng.randint(2, 6)
            net = random_digraph(rng, n)
            t = rng.randrange(n)
            cut = t_bar_mincut(net, t)
            others = [v for v in range(n) if v != t]
            expected = min(
                net.cut_value(side)
                for size in range(1, n)
                for side in combinations(others, size)
            )
            assert cut.value == expected

    def test_limit(self):
        net = network_from_arcs(2, [(0, 1, 7)])
        assert t_bar_mincut(net, 1, limit=7) is None
        assert t_bar_mincut(net, 1, limit=8).value == 7


class TestComputeArboricity:
    def test_golden_path(self, trubin_path):
        result = compute_arboricity(trubin_path)
        assert result.arboricity == 100
        assert result.fractional == Fr(100)

    def test_unit_triangle(self, unit_triangle):
        result = compute_arboricity(unit_triangle)
        assert result.arboricity == 2
        assert result.fractional == Fr(3, 2)

    def test_single_weighted_edge(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 7)])
        result = compute_arboricity(g)
        assert result.arboricity == 7 and result.fractional == Fr(7)

    def test_unit_k4(self, unit_k4):
        assert compute_arboricity(unit_k4).fractional == Fr(2)

    def test_single_vertex_convention(self):
        g = WeightedGraph.from_edges(1, [])
        result = compute_arboricity(g)
        assert result.arboricity == 0 and result.fractional == 0

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            compute_arboricity(WeightedGraph.from_edges(3, [(0, 1, 1)]))

    def test_matches_brute_max_density(self):
        rng = random.Random(71)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(2, 8))
            best, _ = brute_max_skew_density(g)
            result = compute_arboricity(g)
            assert result.fractional == best
            assert result.arboricity == math.ceil(best)

    def test_huge_weights_stay_exact(self):
        # Weights up to 10^7: answers stay exact rationals.
        rng = random.Random(7)
        for _ in range(5):
            g = random_connected_graph(rng, rng.randint(2, 5), max_weight=10**7)
            best, _ = brute_max_skew_density(g)
            result = compute_arboricity(g)
            assert result.fractional == best
            assert result.arboricity == math.ceil(best)

    def test_probe_branches_match_density_comparison(self):
        rng = random.Random(83)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(2, 6))
            best, _ = brute_max_skew_density(g)
            result = compute_arboricity(g)
            for tau, went_left in result.probes:
                assert went_left == (tau < best)

    def test_bracket_contains_fractional(self):
        rng = random.Random(97)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(2, 7))
            best, _ = brute_max_skew_density(g)
            result = compute_arboricity(g)
            thresholds = [tau for tau, _ in result.probes]
            assert thresholds == sorted(set(thresholds))
            assert result.probes[-1] == (result.fractional, False)
            assert result.fractional == best
            for tau, went_left in result.probes[:-1]:
                assert went_left and tau < best

    def test_consistent_with_hierarchy_loads(self):
        # Arboricity is the reciprocal ceiling of the minimum unit load, and
        # the fractional value is the maximum node ratio of the hierarchy.
        rng = random.Random(111)
        for _ in range(12):
            g = random_connected_graph(rng, rng.randint(2, 7))
            tree = build_hierarchy(g)
            if tree.root.is_leaf:
                continue
            loads = ideal_loads(g, tree)
            unit_min, _ = min_max_loads(loads)
            result = compute_arboricity(g)
            assert result.fractional == 1 / unit_min
            assert result.fractional == max(
                node.sigma for node in tree.internal_nodes()
            )
            assert result.arboricity == math.ceil(1 / unit_min)
