"""Hierarchy construction against the recursive brute-force definition."""

from __future__ import annotations

import random
from fractions import Fraction as Fr
from itertools import combinations

import pytest

from laminar import (
    HierarchyNode,
    HierarchyTree,
    WeightedGraph,
    brute_dense_core,
    brute_hierarchy,
    brute_min_ratio_cut,
    build_hierarchy,
    maximal_min_ratio_cut,
    node_sigma,
    strength,
    validate_hierarchy,
    verify_core,
)
from laminar.graph import GraphError

from .conftest import random_connected_graph


def tree_shape(tree: HierarchyTree):
    """Canonical comparable form: (vertex set, sigma, children) recursively."""

    def shape(node: HierarchyNode):
        return (
            tuple(sorted(node.vertex_set)),
            node.sigma,
            tuple(shape(c) for c in node.children),
        )

    return shape(tree.root)


class TestGoldenPath:
    def test_structure_and_ratios(self, trubin_path):
        tree = build_hierarchy(trubin_path)
        assert strength(tree) == Fr(1)
        assert {c.vertex_set for c in tree.root.children} == {
            frozenset({0, 1}),
            frozenset({2, 3}),
        }
        assert node_sigma(tree, {0, 1}) == Fr(2)
        assert node_sigma(tree, {2, 3}) == Fr(100)
        for child in tree.root.children:
            assert all(g.is_leaf for g in child.children)

    def test_equals_brute(self, trubin_path):
        assert tree_shape(build_hierarchy(trubin_path)) == tree_shape(
            brute_hierarchy(trubin_path)
        )


class TestSmallCases:
    def test_triangle_all_singleton(self, unit_triangle):
        tree = build_hierarchy(unit_triangle)
        assert strength(tree) == Fr(3, 2)
        assert len(tree.root.children) == 3
        assert all(c.is_leaf for c in tree.root.children)

    def test_single_vertex(self):
        g = WeightedGraph.from_edges(1, [])
        tree = build_hierarchy(g)
        assert tree.root.is_leaf and tree.root.vertex_set == {0}
        with pytest.raises(ValueError):
            strength(tree)

    def test_single_edge(self):
        g = WeightedGraph.from_edges(2, [(0, 1, 7)])
        tree = build_hierarchy(g)
        assert strength(tree) == Fr(7)

    def test_c4_strength(self, unit_c4):
        assert strength(build_hierarchy(unit_c4)) == Fr(4, 3)

    def test_rejects_disconnected_and_empty(self):
        with pytest.raises(GraphError):
            build_hierarchy(WeightedGraph.from_edges(3, [(0, 1, 1)]))
        with pytest.raises(GraphError):
            build_hierarchy(WeightedGraph.from_edges(0, []))

    def test_parallel_edge_multigraph_end_to_end(self):
        from laminar import compute_arboricity, ideal_loads

        # Three parallel edges total weight 6 on one pair, a light bridge to
        # a third vertex: the heavy pair is its own hierarchy node.
        g = WeightedGraph.from_edges(3, [(0, 1, 3), (0, 1, 2), (0, 1, 1), (1, 2, 2)])
        tree = build_hierarchy(g)
        assert strength(tree) == Fr(2)
        assert node_sigma(tree, {0, 1}) == Fr(6)
        loads = ideal_loads(g, tree)
        assert loads.per_edge == (Fr(1, 2), Fr(1, 3), Fr(1, 6), Fr(1))
        assert sum(loads.per_edge) == 2
        assert compute_arboricity(g).fractional == Fr(6)
        assert tree_shape(tree) == tree_shape(brute_hierarchy(g))


class TestMaximalCut:
    def test_path_cut(self, trubin_path):
        cut = maximal_min_ratio_cut(build_hierarchy(trubin_path))
        assert set(cut.sides) == {frozenset({0, 1}), frozenset({2, 3})}
        assert cut.ratio == Fr(1)

    def test_matches_oracle(self):
        rng = random.Random(14)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(2, 7))
            cut = maximal_min_ratio_cut(build_hierarchy(g))
            ratio, expected = brute_min_ratio_cut(g)
            assert cut.ratio == ratio
            assert set(cut.sides) == set(expected.sides)


class TestOracleEquivalence:
    def test_random_graphs(self):
        rng = random.Random(100)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 7))
            assert tree_shape(build_hierarchy(g)) == tree_shape(brute_hierarchy(g)), g.edges

    def test_sigma_monotone_along_paths(self):
        rng = random.Random(4)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 8))
            tree = build_hierarchy(g)

            def check(node):
                for child in node.children:
                    if not child.is_leaf:
                        assert child.sigma >= node.sigma
                        check(child)

            check(tree.root)

    def test_randomized_mode_matches(self):
        for trial in range(20):
            g = random_connected_graph(random.Random(300 + trial), 4 + trial % 4)
            exact = build_hierarchy(g)
            randomized = build_hierarchy(
                g, mode="randomized", rng=random.Random(trial)
            )
            assert tree_shape(exact) == tree_shape(randomized)

    def test_randomized_mode_survives_broken_sampler(self, monkeypatch):
        # With the sampling pipeline always missing, randomized construction
        # must still terminate correctly via rejection and exact fallback.
        import laminar.densecore as dc

        monkeypatch.setattr(dc, "find_small_cut", lambda *args, **kwargs: None)
        for trial in range(4):
            g = random_connected_graph(random.Random(400 + trial), 5)
            tree = build_hierarchy(g, mode="randomized", rng=random.Random(trial))
            assert tree_shape(tree) == tree_shape(brute_hierarchy(g))

    def test_randomized_search_stopping_early_is_caught(self, monkeypatch):
        # The sampler finds a real sub-threshold cut (the first one the scan
        # meets, not the minimum) once per find_star and misses afterwards,
        # so the density search can stop below the maximum.  Its candidate
        # may then be a smaller dense core, which is a correct star set, or
        # no dense core at all; the size bound and verify_core must tell the
        # two apart, and the tree must come out exact.
        import laminar.densecore as dc
        from laminar import compute_arboricity, min_st_cut

        fresh = [True]
        searches = []

        def first_call_only(net, t, threshold, k, rng, *, epsilon=None):
            if not fresh[0]:
                return None
            fresh[0] = False
            for s in range(net.n):
                cut = None if s == t else min_st_cut(net, s, t, limit=threshold)
                if cut is not None:
                    return cut
            return None

        original = dc.find_star_full

        def per_find_star(graph, k, **kwargs):
            fresh[0] = True
            result = original(graph, k, **kwargs)
            if kwargs["mode"] == "randomized":
                searches.append((graph, k, result))
            return result

        monkeypatch.setattr(dc, "find_small_cut", first_call_only)
        monkeypatch.setattr(dc, "find_star_full", per_find_star)
        for seed in range(30):
            rng = random.Random(seed)
            g = random_connected_graph(rng, rng.randint(5, 8))
            tree = build_hierarchy(g, mode="randomized", rng=random.Random(seed))
            assert tree_shape(tree) == tree_shape(build_hierarchy(g)), g.edges
        early = [
            (graph, k, result)
            for graph, k, result in searches
            if result.tau_star < compute_arboricity(graph).fractional
        ]
        assert early
        for graph, _, result in early:
            assert verify_core(graph, graph.n, result.candidate) == brute_dense_core(
                graph, result.candidate
            )
        assert any(
            not (k // 2 < len(result.candidate) <= k and verify_core(graph, k, result.candidate))
            for graph, k, result in early
        )


class TestAcceptStarSet:
    @staticmethod
    def record(monkeypatch):
        """Log hierarchy's searches, verify_core verdicts and round certificates.

        A find event, from find_star or find_star_full, carries the mode,
        which both accept only as a keyword, and the size of the graph
        searched; a certify event, the sets its certificate accepted.
        """
        import laminar.hierarchy as hz

        events: list[tuple] = []
        real_verify, real_certify = hz.verify_core, hz.certify_round

        def logged(real):
            def finding(cur, k, **kwargs):
                events.append(("find", kwargs["mode"], cur.n))
                return real(cur, k, **kwargs)

            return finding

        def verifying(cur, k, candidate):
            verdict = real_verify(cur, k, candidate)
            events.append(("verify", verdict))
            return verdict

        def certifying(cur, tau, sets):
            result = real_certify(cur, tau, sets)
            events.append(("certify", sets))
            return result

        monkeypatch.setattr(hz, "find_star", logged(hz.find_star))
        monkeypatch.setattr(hz, "find_star_full", logged(hz.find_star_full))
        monkeypatch.setattr(hz, "verify_core", verifying)
        monkeypatch.setattr(hz, "certify_round", certifying)
        return events

    @staticmethod
    def record_contractions(monkeypatch):
        """Log each contraction of an exact round, as (sets, graph built).

        Round certificates contract; the hierarchy itself must not.
        """
        import laminar.densecore as dc
        import laminar.hierarchy as hz

        contracted: list[tuple] = []
        real = dc.contract

        def contracting(cur, *sets):
            result = real(cur, *sets)
            contracted.append((sets, result[0]))
            return result

        def contracting_again(cur, *sets):
            pytest.fail("the hierarchy contracted an exact round again")

        monkeypatch.setattr(dc, "contract", contracting)
        monkeypatch.setattr(hz, "contract", contracting_again)
        return contracted

    def test_exact_searches_once_per_round_and_verifies_once_per_node(self, monkeypatch):
        # An exact round is one search, one certificate of exactly the sets
        # the search returns, whose subset check runs once per set of three
        # vertices or more, and one contraction of exactly those sets, whose
        # graph the next round searches; the sets of all rounds are the
        # internal nodes.
        import laminar.densecore as dc
        import laminar.hierarchy as hz

        events = self.record(monkeypatch)
        contracted = self.record_contractions(monkeypatch)
        found: list[tuple] = []
        checked: list[frozenset[int]] = []
        searched: list[WeightedGraph] = []
        search, subset_check = hz.find_star_full, dc._denser_subset

        def searching(cur, k, **kwargs):
            searched.append(cur)
            result = search(cur, k, **kwargs)
            found.append(result.sets)
            return result

        def checking(cur, s_set, rho):
            checked.append(s_set)
            return subset_check(cur, s_set, rho)

        monkeypatch.setattr(hz, "find_star_full", searching)
        monkeypatch.setattr(dc, "_denser_subset", checking)
        rng = random.Random(71)
        batched = checked_sets = 0
        for _ in range(16):
            # Light weights tie often enough that some round has two sets.
            g = random_connected_graph(rng, rng.randint(2, 12), max_weight=3)
            for log in (events, contracted, found, checked, searched):
                log.clear()
            tree = build_hierarchy(g)
            internal = sum(1 for _ in tree.internal_nodes())
            assert [entry[0] for entry in contracted] == found
            assert all(cur is built for cur, (_, built) in zip(searched[1:], contracted))
            assert len(searched) == len(contracted) and contracted[-1][1].n == 1
            assert sum(len(sets) for sets in found) == internal
            assert events == [
                event
                for cur, sets in zip(searched, found)
                for event in (("find", "exact", cur.n), ("certify", sets))
            ]
            assert checked == [s for sets in found for s in sets if len(s) > 2]
            batched += any(len(sets) >= 2 for sets in found)
            checked_sets += len(checked)
        assert batched >= 2 and checked_sets > 0

    def test_one_exact_search_contracts_three_equal_triangles(self, monkeypatch):
        # Three triangles of weight-2 edges (density 3) chained by unit edges:
        # the first round's one search finds all three, its certificate
        # accepts them, and one contraction merges them; the second round
        # merges what is left.
        triangles = {frozenset({0, 3, 6}), frozenset({1, 4, 7}), frozenset({2, 5, 8})}
        edges = [(u, v, 2) for tri in triangles for u, v in combinations(sorted(tri), 2)]
        g = WeightedGraph.from_edges(9, edges + [(6, 1, 1), (7, 2, 1)])
        events = self.record(monkeypatch)
        contracted = self.record_contractions(monkeypatch)
        tree = build_hierarchy(g)
        assert events[0] == ("find", "exact", 9)
        assert events[1][0] == "certify" and set(events[1][1]) == triangles
        assert [event[0] for event in events] == ["find", "certify"] * 2
        assert set(contracted[0][0]) == triangles and len(contracted[0][0]) == 3
        assert [len(entry[0]) for entry in contracted] == [3, 1]
        assert tree == brute_hierarchy(g)
        assert {child.vertex_set for child in tree.root.children} == triangles
        assert {child.sigma for child in tree.root.children} == {3}
        assert tree.root.sigma == 1

    def test_randomized_fallback_is_one_exact_search(self, monkeypatch):
        # With the sampler always missing, a contraction either accepts a
        # randomized candidate or, after every restart's full size sweep,
        # runs one exact search and accepts its candidate.
        import laminar.densecore as dc
        import laminar.dircut as dircut
        from laminar.hierarchy import MAX_RESTARTS, _sweep_sizes

        monkeypatch.setattr(dc, "find_small_cut", lambda *args, **kwargs: None)
        monkeypatch.setattr(dircut, "find_small_cut", lambda *args, **kwargs: None)
        events = self.record(monkeypatch)
        fallbacks = 0
        for trial in range(6):
            g = random_connected_graph(random.Random(500 + trial), 6)
            expected = tree_shape(build_hierarchy(g))
            events.clear()
            tree = build_hierarchy(g, mode="randomized", rng=random.Random(trial))
            assert tree_shape(tree) == expected
            rounds: list[list[tuple]] = [[]]
            for event in events:
                rounds[-1].append(event)
                if event == ("verify", True):
                    rounds.append([])
            assert rounds.pop() == []
            assert len(rounds) == sum(1 for _ in tree.internal_nodes())
            for events_of_round in rounds:
                finds = [event for event in events_of_round if event[0] == "find"]
                modes = [mode for _, mode, _ in finds]
                if modes[-1] == "randomized":
                    assert set(modes) == {"randomized"}
                    continue
                fallbacks += 1
                n = finds[-1][2]
                sweep = MAX_RESTARTS * len(_sweep_sizes(n))
                assert modes == ["randomized"] * sweep + ["exact"]
                assert events_of_round[-2:] == [finds[-1], ("verify", True)]
        assert fallbacks > 0


class TestContractionSafety:
    def test_accepted_sets_are_dense_cores_of_current_graph(self, monkeypatch):
        # Every contracted set must be a dense core of the graph it was found
        # in, and each contraction strictly shrinks the vertex count.
        import laminar.hierarchy as hz
        from laminar import brute_dense_core

        real_certify = hz.certify_round
        rng = random.Random(55)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 7))
            accepted: list[tuple[int, int]] = []  # (graph size, set size)

            def recording(cur, tau, sets, _accepted=accepted):
                result = real_certify(cur, tau, sets)
                for candidate in sets:
                    assert brute_dense_core(cur, candidate)
                    _accepted.append((cur.n, len(candidate)))
                return result

            monkeypatch.setattr(hz, "certify_round", recording)
            build_hierarchy(g)
            assert len(accepted) <= g.n - 1
            shrink = sum(size - 1 for _, size in accepted)
            assert shrink == g.n - 1  # contractions end at a single vertex
            assert all(size >= 2 for _, size in accepted)


class TestRoundCertificate:
    def test_certified_sets_pass_verify_core_and_match_brute_force(self, monkeypatch):
        # 300 graphs up to n = 300, past every brute-force guard: each set a
        # round certificate accepts is also a dense core by the public
        # per-set check against the graph it was found in, and wherever
        # n <= 10 the tree is brute_hierarchy's.  A fifth are rising paths
        # with shuffled labels (or unit-weight paths), the deepest trees.
        import laminar.hierarchy as hz

        real_certify = hz.certify_round
        rounds: list[tuple[WeightedGraph, tuple]] = []

        def recording(cur, tau, sets):
            result = real_certify(cur, tau, sets)
            rounds.append((cur, sets))
            return result

        monkeypatch.setattr(hz, "certify_round", recording)
        rng = random.Random(97)
        checked = large = 0
        for trial in range(300):
            if trial % 3 != 1:
                n = rng.randint(2, 7)
            else:  # log-uniform on 11..299, except one n = 9
                n = 9 if trial == 1 else int(11 * (300 / 11) ** rng.random())
            weight = rng.choice((1, 3, 20))
            if trial % 5 == 4:
                label = list(range(n))
                rng.shuffle(label)
                g = WeightedGraph.from_edges(
                    n, [(label[i], label[i + 1], 1 if weight == 1 else i + 1) for i in range(n - 1)]
                )
            else:
                extra = rng.choice((0, n // 4, n))
                g = random_connected_graph(rng, n, max_weight=weight, extra_edges=extra)
            rounds.clear()
            tree = build_hierarchy(g)
            assert sum(len(sets) for _, sets in rounds) == sum(1 for _ in tree.internal_nodes())
            for cur, sets in rounds:
                for star in sets:
                    assert verify_core(cur, cur.n, star)
                    checked += 1
            if n <= 10:
                assert tree == brute_hierarchy(g)
            large += n > 100
        assert checked > 3000 and large >= 20


class TestValidate:
    def test_valid_tree_has_no_violations(self, trubin_path):
        tree = build_hierarchy(trubin_path)
        assert validate_hierarchy(trubin_path, tree) == []

    def test_sigma_certificate_past_the_oracle_guard(self):
        # Past the oracle's n <= 7 only the certificate checks sigmas: on
        # unit weights, which tie everywhere, and on a tree plus n/4 edges of
        # weight 1-20, the benchmark's sparse family.
        rng = random.Random(41)
        for n in (40, 60, 80):
            for g in (
                random_connected_graph(rng, n, max_weight=1, extra_edges=n // 2),
                random_connected_graph(rng, n, max_weight=20, extra_edges=n // 4),
            ):
                tree = build_hierarchy(g)
                assert validate_hierarchy(g, tree) == []
                root = tree.root
                off = HierarchyNode(root.vertex_set, root.children, root.sigma - Fr(1, 7))
                violations = validate_hierarchy(g, HierarchyTree(off, g))
                assert len(violations) == 1 and "between its children" in violations[0]

    def test_one_wrong_sigma_deep_in_a_rising_path(self):
        # The path i -- i+1 of weight i+1 nests one node per vertex: the node
        # at depth d is {d, ..., n-1} with sigma d+1.  Lowering one deep
        # sigma by 1/7 keeps sigma monotone, so only the certificate sees it.
        n = 400
        g = WeightedGraph.from_edges(n, [(i, i + 1, i + 1) for i in range(n - 1)])
        tree = build_hierarchy(g)
        assert validate_hierarchy(g, tree) == []
        chain = [tree.root]
        while len(chain) <= 300:
            chain.append(next(c for c in chain[-1].children if not c.is_leaf))
        deep = chain[-1]
        assert deep.vertex_set == frozenset(range(300, n)) and deep.sigma == 301
        node = HierarchyNode(deep.vertex_set, deep.children, deep.sigma - Fr(1, 7))
        for parent, old in zip(reversed(chain[:-1]), reversed(chain[1:])):
            children = tuple(node if c is old else c for c in parent.children)
            node = HierarchyNode(parent.vertex_set, children, parent.sigma)
        violations = validate_hierarchy(g, HierarchyTree(node, g))
        assert len(violations) == 1
        assert violations[0].startswith("ratio of [300, 301,")
        assert "between its children gives 301" in violations[0]

    def test_swapped_children_partition_violation(self, trubin_path):
        leaves = [HierarchyNode(frozenset({v}), (), None) for v in range(4)]
        bad_side = HierarchyNode(frozenset({0, 1}), (leaves[0], leaves[2]), Fr(2))
        other = HierarchyNode(frozenset({2, 3}), (leaves[2], leaves[3]), Fr(100))
        root = HierarchyNode(frozenset(range(4)), (bad_side, other), Fr(1))
        violations = validate_hierarchy(trubin_path, HierarchyTree(root, trubin_path))
        assert any("partition" in v for v in violations)

    def test_non_maximal_root_cut_detected(self, unit_triangle):
        # Splitting the triangle 2-1 has ratio 2; the oracle check flags it.
        leaves = [HierarchyNode(frozenset({v}), (), None) for v in range(3)]
        pair = HierarchyNode(frozenset({0, 1}), (leaves[0], leaves[1]), Fr(1))
        root = HierarchyNode(frozenset(range(3)), (pair, leaves[2]), Fr(2))
        violations = validate_hierarchy(unit_triangle, HierarchyTree(root, unit_triangle))
        assert any("min-ratio" in v for v in violations)
