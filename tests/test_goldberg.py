"""Density network and shortcut network cut-value identities."""

from __future__ import annotations

import random
from fractions import Fraction as Fr
from itertools import combinations

import pytest

from laminar import INF, WeightedGraph, build_goldberg, build_modified, max_flow
from laminar.goldberg import (
    GoldbergError,
    expected_cut_value,
    expected_modified_cut_value,
    min_cut_vertex_side,
)

from .conftest import random_connected_graph


def subsets(items):
    items = list(items)
    for size in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, size))


def saturating_flow(h):
    """The density network's max flow, stopped at the saturation value."""
    return max_flow(h.network, h.s, h.t, limit=h.saturation_target())


def network_side(h, side_vertices, side_edges):
    return {h.s} | set(side_vertices) | {h.edge_node(i) for i in side_edges}


class TestCutValueFormula:
    def test_unit_triangle_source_only(self, unit_triangle):
        h = build_goldberg(unit_triangle, Fr(1))
        assert h.network.cut_value({h.s}) == 3
        assert expected_cut_value(h, (), ()) == 3

    def test_unit_triangle_everything(self, unit_triangle):
        h = build_goldberg(unit_triangle, Fr(1))
        side = network_side(h, range(3), range(3))
        assert h.network.cut_value(side) == 3  # c(E)-c(E)+tau*3
        assert expected_cut_value(h, range(3), range(3)) == 3

    def test_edge_node_without_endpoints_is_infinite(self, trubin_path):
        h = build_goldberg(trubin_path, Fr(7, 3))
        side = network_side(h, (), (0,))
        assert h.network.cut_value(side) == INF
        assert expected_cut_value(h, (), (0,)) == INF

    def test_path_heavy_side(self, trubin_path):
        h = build_goldberg(trubin_path, Fr(1))
        side = network_side(h, {2, 3}, {2})
        assert h.network.cut_value(side) == 5  # 103 - 100 + 1*2
        assert expected_cut_value(h, {2, 3}, {2}) == 5

    def test_formula_matches_arc_enumeration(self):
        rng = random.Random(9)
        for _ in range(12):
            g = random_connected_graph(rng, rng.randint(2, 4), extra_edges=2)
            if g.m + g.n > 9:
                continue
            for tau in (Fr(1), Fr(1, 2), Fr(5, 3), Fr(g.total_weight()), Fr(7, 2)):
                h = build_goldberg(g, tau)
                for sv in subsets(range(g.n)):
                    for se in subsets(range(g.m)):
                        side = network_side(h, sv, se)
                        assert h.network.cut_value(side) == expected_cut_value(h, sv, se)

    def test_scale_makes_capacities_integral(self, trubin_path):
        h = build_goldberg(trubin_path, Fr(7, 3))
        assert h.scale == 3
        assert all(c == INF or isinstance(c, int) for c in h.network.caps)
        assert h.network.caps[h.sink_arcs[0]] == 7  # scale * tau

    def test_network_size(self, trubin_path):
        h = build_goldberg(trubin_path, Fr(1))
        n, m = trubin_path.n, trubin_path.m
        assert h.network.n == m + n + 2
        assert h.network.arc_count == 3 * m + n

    def test_rejects_nonpositive_tau(self, unit_triangle):
        with pytest.raises(GoldbergError):
            build_goldberg(unit_triangle, Fr(0))


def largest_argmax_side(graph: WeightedGraph, tau: Fr) -> frozenset[int]:
    """The largest maximizer of c(E[X]) - tau|X|, from a max flow on the density network."""
    h = build_goldberg(graph, tau)
    return min_cut_vertex_side(h, max_flow(h.network, h.s, h.t))


class TestMinCutSide:
    def test_path_tau_fifty(self, trubin_path):
        # c(E[{c,d}]) - 50*2 = 0 ties the empty side; the larger argmax wins.
        assert largest_argmax_side(trubin_path, Fr(50)) == {2, 3}

    def test_path_tau_above_max(self, trubin_path):
        assert largest_argmax_side(trubin_path, Fr(101)) == frozenset()

    def test_edgeless(self):
        g = WeightedGraph.from_edges(3, [])
        assert largest_argmax_side(g, Fr(2)) == frozenset()

    def test_side_is_true_argmax(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 6))
            tau = Fr(rng.randint(1, 2 * g.total_weight()), rng.randint(1, 4))
            side = largest_argmax_side(g, tau)

            def objective(x):
                return g.weight_inside(x) - tau * len(x)

            best = max(objective(x) for x in subsets(range(g.n)))
            assert objective(side) == best
            # Largest argmax:
            for x in subsets(range(g.n)):
                if objective(x) == best:
                    assert len(x) <= len(side)


class TestModifiedNetwork:
    def test_unit_triangle_pair(self, unit_triangle):
        h = build_goldberg(unit_triangle, Fr(2))
        m = build_modified(h, saturating_flow(h))
        assert m.network.cut_value({0, 1}) == 3  # 2*2 - 1
        assert expected_modified_cut_value(m, {0, 1}) == 3
        assert m.network.cut_value(set()) == 0

    def test_precondition_rejected_when_tau_too_small(self, trubin_path):
        # At tau=2 the densest side keeps the flow below c(E).
        h = build_goldberg(trubin_path, Fr(2))
        flow = saturating_flow(h)
        assert flow.value < h.saturation_target()
        with pytest.raises(GoldbergError):
            build_modified(h, flow)

    def test_structure_counts(self, trubin_path):
        h = build_goldberg(trubin_path, Fr(201, 2))
        m = build_modified(h, saturating_flow(h))
        # One arc per (edge, direction) plus one per vertex into t.
        assert m.network.arc_count == 2 * trubin_path.m + trubin_path.n
        for idx, (uv, vu) in enumerate(m.edge_arcs):
            pair_sum = m.network.caps[uv] + m.network.caps[vu]
            assert pair_sum == m.scale * trubin_path.edges[idx][2]

    def test_cut_identity_on_all_sides(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 6))
            tau = Fr(rng.randint(g.total_weight(), 3 * g.total_weight()), rng.randint(1, 3))
            h = build_goldberg(g, tau)
            flow = max_flow(h.network, h.s, h.t, limit=h.saturation_target())
            if flow.value < h.saturation_target():
                continue
            m = build_modified(h, flow)
            for x in subsets(range(g.n)):
                assert m.network.cut_value(x) == expected_modified_cut_value(m, x)
            checked += 1
        assert checked >= 20
