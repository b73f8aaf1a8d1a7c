"""Ideal loads, tightness, polytope feasibility, and the entropy certificate."""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction as Fr
from itertools import combinations

import pytest

from laminar import (
    HierarchyNode,
    HierarchyTree,
    SizeGuardError,
    WeightedGraph,
    build_hierarchy,
    entropy_certificate,
    entropy_value,
    frank_wolfe_entropy,
    ideal_loads,
    min_max_loads,
)
from laminar.loads import LoadsError

from .conftest import random_connected_graph


class TestIdealLoads:
    def test_path_loads_are_all_one(self, trubin_path):
        loads = ideal_loads(trubin_path, build_hierarchy(trubin_path))
        assert loads.per_edge == (Fr(1), Fr(1), Fr(1))
        assert loads.unit_per_edge == (Fr(1, 2), Fr(1), Fr(1, 100))

    def test_c4_loads(self, unit_c4):
        loads = ideal_loads(unit_c4, build_hierarchy(unit_c4))
        assert loads.per_edge == (Fr(3, 4),) * 4

    def test_triangle_loads(self, unit_triangle):
        loads = ideal_loads(unit_triangle, build_hierarchy(unit_triangle))
        assert loads.per_edge == (Fr(2, 3),) * 3
        assert sum(loads.per_edge) == 2

    def test_normalization_and_tightness(self):
        rng = random.Random(10)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 7))
            tree = build_hierarchy(g)
            loads = ideal_loads(g, tree)
            assert sum(loads.per_edge) == g.n - 1
            for node in tree.internal_nodes():
                inside = sum(
                    loads.per_edge[i]
                    for i, (u, v, _) in enumerate(g.edges)
                    if u in node.vertex_set and v in node.vertex_set
                )
                assert inside == len(node.vertex_set) - 1

    def test_polytope_feasibility_over_all_subsets(self):
        rng = random.Random(12)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 7))
            loads = ideal_loads(g, build_hierarchy(g))
            for size in range(2, g.n + 1):
                for subset in combinations(range(g.n), size):
                    inside = frozenset(subset)
                    total = sum(
                        loads.per_edge[i]
                        for i, (u, v, _) in enumerate(g.edges)
                        if u in inside and v in inside
                    )
                    assert total <= len(inside) - 1

    def test_certificates_past_the_oracle_guards(self):
        # Exact checks that need no brute force: loads sum to n - 1, each
        # node's crossing weight over (children - 1) is its sigma, and sigma
        # does not decrease going down the tree.
        rng = random.Random(13)
        graphs = [random_connected_graph(rng, n, max_weight=20) for n in (40, 80, 120)]
        for n in (100, 400):
            graphs.append(WeightedGraph.from_edges(n, [(i, i + 1, i + 1) for i in range(n - 1)]))
        for g in graphs:
            tree = build_hierarchy(g)
            loads = ideal_loads(g, tree)
            assert sum(loads.per_edge) == g.n - 1
            stack = [tree.root]
            while stack:
                node = stack.pop()
                assert loads.node_sigma[node.vertex_set] == node.sigma
                for child in node.children:
                    if not child.is_leaf:
                        assert child.sigma >= node.sigma
                        stack.append(child)

    def test_structural_error_for_foreign_tree(self, trubin_path, unit_triangle):
        tree = build_hierarchy(unit_triangle)
        with pytest.raises(LoadsError):
            ideal_loads(trubin_path, tree)


class TestMinMaxLoads:
    def test_path_unit_extremes(self, trubin_path):
        loads = ideal_loads(trubin_path, build_hierarchy(trubin_path))
        unit_min, unit_max = min_max_loads(loads)
        assert unit_min == Fr(1, 100) and unit_max == Fr(1)

    def test_triangle_extremes(self, unit_triangle):
        loads = ideal_loads(unit_triangle, build_hierarchy(unit_triangle))
        assert min_max_loads(loads) == (Fr(2, 3), Fr(2, 3))

    def test_single_edge(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 7)])
        loads = ideal_loads(g, build_hierarchy(g))
        assert min_max_loads(loads) == (Fr(1, 7), Fr(1, 7))

    def test_reciprocals_are_strength_and_arboricity(self):
        from laminar import compute_arboricity, strength

        rng = random.Random(31)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 7))
            tree = build_hierarchy(g)
            loads = ideal_loads(g, tree)
            unit_min, unit_max = min_max_loads(loads)
            assert 1 / unit_max == strength(tree)
            assert 1 / unit_min == compute_arboricity(g).fractional


class TestCertificate:
    def test_path_dual_values(self, trubin_path):
        tree = build_hierarchy(trubin_path)
        cert = entropy_certificate(trubin_path, tree)
        assert cert.y[frozenset(range(4))] == pytest.approx(0.0, abs=1e-12)
        assert cert.y[frozenset({0, 1})] == pytest.approx(math.log(2))
        assert cert.y[frozenset({2, 3})] == pytest.approx(math.log(100))
        assert cert.unit_marginals[0] == pytest.approx(0.5)

    def test_triangle_certificate(self, unit_triangle):
        cert = entropy_certificate(unit_triangle, build_hierarchy(unit_triangle))
        assert cert.y[frozenset(range(3))] == pytest.approx(math.log(1.5))
        assert all(x == pytest.approx(2 / 3) for x in cert.unit_marginals)

    def test_equal_ratio_child_gets_zero_dual(self):
        # In a canonical hierarchy child ratios are strictly larger (ties are
        # absorbed by the maximal cut), so exercise the boundary case on a
        # hand-built tree: both levels of this one have ratio 1.
        g = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        leaves = [HierarchyNode(frozenset({v}), (), None) for v in range(3)]
        pair = HierarchyNode(frozenset({0, 1}), (leaves[0], leaves[1]), Fr(1))
        root = HierarchyNode(frozenset(range(3)), (pair, leaves[2]), Fr(1))
        cert = entropy_certificate(g, HierarchyTree(root, g))
        assert cert.y[frozenset({0, 1})] == pytest.approx(0.0, abs=1e-12)

    def test_duals_nonnegative_and_reconstruction_tight(self):
        rng = random.Random(9)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(2, 7))
            tree = build_hierarchy(g)
            if tree.root.is_leaf:
                continue
            loads = ideal_loads(g, tree)
            cert = entropy_certificate(g, tree)
            for key, value in cert.y.items():
                if key != tree.root.vertex_set:
                    assert value >= -1e-12
            for i in range(g.m):
                assert abs(cert.unit_marginals[i] - float(loads.unit_per_edge[i])) <= 1e-9


class TestEntropyValue:
    def test_tree_marginals_give_zero(self):
        assert entropy_value([1.0, 1.0, 1.0]) == 0.0

    def test_c4_value(self):
        assert entropy_value([0.75] * 4) == pytest.approx(4 * 0.75 * math.log(0.75))

    def test_triangle_value_with_weights(self):
        expected = 3 * (2 / 3) * math.log(2 / 3)
        assert entropy_value([2 / 3] * 3, [1, 1, 1]) == pytest.approx(expected)

    def test_zero_marginal_contributes_nothing(self):
        assert entropy_value([0.0, 1.0]) == 0.0


class TestFrankWolfe:
    def test_tree_graph_fixed_point(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        result = frank_wolfe_entropy(g, 50, seed=1)
        assert all(x == pytest.approx(1.0, abs=1e-9) for x in result.marginals)
        assert result.value == pytest.approx(0.0, abs=1e-9)

    def test_c4_symmetry_fixed_point(self, unit_c4):
        result = frank_wolfe_entropy(unit_c4, 10_000, seed=0)
        assert all(x == pytest.approx(0.75, abs=1e-4) for x in result.marginals)

    def test_triangle(self, unit_triangle):
        result = frank_wolfe_entropy(unit_triangle, 10_000, seed=0)
        assert all(x == pytest.approx(2 / 3, abs=1e-4) for x in result.marginals)

    def test_ideal_loads_at_least_as_good(self):
        rng = random.Random(2)
        for _ in range(6):
            g = random_connected_graph(rng, rng.randint(2, 5), max_weight=3)
            tree = build_hierarchy(g)
            loads = ideal_loads(g, tree)
            pairs = loads.unit_marginal_pairs()
            ideal = entropy_value((x for x, _ in pairs), (w for _, w in pairs))
            fw = frank_wolfe_entropy(g, 2000, seed=5)
            assert ideal <= fw.value + 1e-6

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            frank_wolfe_entropy(WeightedGraph.from_edges(3, [(0, 1, 1)]), 10)

    @pytest.mark.parametrize("iterations", [0, -5])
    def test_rejects_fewer_than_one_iteration_first(self, iterations):
        # Before any other check: an oversized graph still gets this error.
        for g in (WeightedGraph.from_edges(2, [(0, 1, 2)]), WeightedGraph.from_edges(2, [(0, 1, 10**6)])):
            with pytest.raises(ValueError, match="at least 1 iteration"):
                frank_wolfe_entropy(g, iterations)

    def test_size_guard_refuses_before_expanding(self):
        # 200 unit edges are allowed; one more is refused before the
        # expansion into unit edges is built, whatever the weight.
        assert len(frank_wolfe_entropy(WeightedGraph.from_edges(2, [(0, 1, 200)]), 1).unit_edges) == 200
        for weight in (201, 10**6):
            g = WeightedGraph.from_edges(2, [(0, 1, weight)])
            tracemalloc.start()
            try:
                with pytest.raises(SizeGuardError, match="exceeds 200"):
                    frank_wolfe_entropy(g, 10)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
