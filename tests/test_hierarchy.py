"""Hierarchy construction against the recursive brute-force definition."""

from __future__ import annotations

import copy
import hashlib
import random
from collections import Counter
from dataclasses import replace
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
from laminar.graph import GraphError, contract, induced_subgraph

from .conftest import random_connected_graph
from .test_densecore import graph_with_tied_blocks


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
                        assert child.sigma > node.sigma
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
        """Log hierarchy's searches, verify_core verdicts and tree certificates.

        A find event, from find_star or find_star_full, carries the mode,
        which both accept only as a keyword, and the size of the graph
        searched; a certify event, the size of the graph whose tree the end
        certificate checked.
        """
        import laminar.hierarchy as hz

        events: list[tuple] = []
        real_verify, real_certify = hz.verify_core, hz._certify_tree

        def logged(real):
            def finding(cur, k, **kwargs):
                events.append(("find", kwargs["mode"], cur.n))
                return real(cur, k, **kwargs)

            return finding

        def verifying(cur, k, candidate):
            verdict = real_verify(cur, k, candidate)
            events.append(("verify", verdict))
            return verdict

        def certifying(graph, root):
            violations = real_certify(graph, root)
            events.append(("certify", graph.n))
            return violations

        monkeypatch.setattr(hz, "find_star", logged(hz.find_star))
        monkeypatch.setattr(hz, "find_star_full", logged(hz.find_star_full))
        monkeypatch.setattr(hz, "verify_core", verifying)
        monkeypatch.setattr(hz, "_certify_tree", certifying)
        return events

    @staticmethod
    def record_contractions(monkeypatch):
        """Log each contraction of a round, as (sets, graph built)."""
        import laminar.hierarchy as hz

        contracted: list[tuple] = []
        real = hz.contract

        def contracting(cur, *sets):
            result = real(cur, *sets)
            contracted.append((sets, result[0]))
            return result

        monkeypatch.setattr(hz, "contract", contracting)
        return contracted

    def test_exact_searches_once_per_round_and_verifies_once_per_node(self, monkeypatch):
        # An exact round is one search and one contraction of exactly the
        # sets the search returns, whose graph the next round searches; no
        # round checks a subset.  The sets of all rounds are the internal
        # nodes, and one tree certificate at the end checks each of them,
        # probing those with three children or more once.
        import laminar.densecore as dc
        import laminar.hierarchy as hz

        events = self.record(monkeypatch)
        contracted = self.record_contractions(monkeypatch)
        found: list[tuple] = []
        checked: list[frozenset[int]] = []
        searched: list[WeightedGraph] = []
        probed: list[int] = []
        search, subset_check, node_probe = hz.find_star_full, dc._denser_subset, hz._probe

        def searching(cur, k, **kwargs):
            searched.append(cur)
            result = search(cur, k, **kwargs)
            found.append(result.sets)
            return result

        def checking(cur, s_set, rho):
            checked.append(s_set)
            return subset_check(cur, s_set, rho)

        def probing(g_x, tau, k):
            probed.append(g_x.n)
            return node_probe(g_x, tau, k)

        monkeypatch.setattr(hz, "find_star_full", searching)
        monkeypatch.setattr(dc, "_denser_subset", checking)
        monkeypatch.setattr(hz, "_probe", probing)
        rng = random.Random(71)
        batched = probes = 0
        for _ in range(16):
            # Light weights tie often enough that some round has two sets.
            g = random_connected_graph(rng, rng.randint(2, 12), max_weight=3)
            for log in (events, contracted, found, checked, searched, probed):
                log.clear()
            tree = build_hierarchy(g)
            internal = sum(1 for _ in tree.internal_nodes())
            assert [entry[0] for entry in contracted] == found
            assert all(cur is built for cur, (_, built) in zip(searched[1:], contracted))
            assert len(searched) == len(contracted) and contracted[-1][1].n == 1
            assert sum(len(sets) for sets in found) == internal
            assert events == [("find", "exact", cur.n) for cur in searched] + [("certify", g.n)]
            assert checked == []
            wide = [len(node.children) for node in tree.internal_nodes() if len(node.children) > 2]
            assert sorted(probed) == sorted(wide)
            batched += any(len(sets) >= 2 for sets in found)
            probes += len(probed)
        assert batched >= 2 and probes > 0

    def test_one_exact_search_contracts_three_equal_triangles(self, monkeypatch):
        # Three triangles of weight-2 edges (density 3) chained by unit edges:
        # the first round's one search finds all three, and one contraction
        # merges them; the second round merges what is left, and the tree
        # certificate accepts the result.
        triangles = {frozenset({0, 3, 6}), frozenset({1, 4, 7}), frozenset({2, 5, 8})}
        edges = [(u, v, 2) for tri in triangles for u, v in combinations(sorted(tri), 2)]
        g = WeightedGraph.from_edges(9, edges + [(6, 1, 1), (7, 2, 1)])
        events = self.record(monkeypatch)
        contracted = self.record_contractions(monkeypatch)
        tree = build_hierarchy(g)
        assert events == [("find", "exact", 9), ("find", "exact", 3), ("certify", 9)]
        assert set(contracted[0][0]) == triangles and len(contracted[0][0]) == 3
        assert [len(entry[0]) for entry in contracted] == [3, 1]
        assert tree == brute_hierarchy(g)
        assert {child.vertex_set for child in tree.root.children} == triangles
        assert {child.sigma for child in tree.root.children} == {3}
        assert tree.root.sigma == 1

    def test_randomized_fallback_is_one_exact_search(self, monkeypatch):
        # With the sampler always missing, a contraction either accepts a
        # randomized candidate or, after every restart's full size sweep,
        # runs one exact search and accepts its candidate.  One tree
        # certificate follows the last contraction, as in exact mode.
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
            assert rounds.pop() == [("certify", g.n)]
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


    def test_randomized_build_raises_on_a_star_that_fails_the_certificate(
        self, monkeypatch, unit_triangle
    ):
        # Contracting the 2-set {0, 1} of the unit triangle first gives a
        # node at density 1 under a root at density 2: sigma falls instead
        # of rising, so the end certificate refuses the randomized tree.
        import laminar.hierarchy as hz

        monkeypatch.setattr(hz, "_randomized_star", lambda cur, rng, eps: frozenset(range(2)))
        with pytest.raises(RuntimeError, match="randomized hierarchy fails its certificate"):
            build_hierarchy(unit_triangle, mode="randomized", rng=random.Random(0))


class TestContractionSafety:
    def test_accepted_sets_are_dense_cores_of_current_graph(self, monkeypatch):
        # Every contracted set must be a dense core of the graph it was found
        # in, and each contraction strictly shrinks the vertex count.
        import laminar.hierarchy as hz
        from laminar import brute_dense_core

        real_contract = hz.contract
        rng = random.Random(55)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 7))
            accepted: list[tuple[int, int]] = []  # (graph size, set size)

            def recording(cur, *sets, _accepted=accepted):
                for candidate in sets:
                    assert brute_dense_core(cur, candidate)
                    _accepted.append((cur.n, len(candidate)))
                return real_contract(cur, *sets)

            monkeypatch.setattr(hz, "contract", recording)
            build_hierarchy(g)
            assert len(accepted) <= g.n - 1
            shrink = sum(size - 1 for _, size in accepted)
            assert shrink == g.n - 1  # contractions end at a single vertex
            assert all(size >= 2 for _, size in accepted)


def differential_graphs():
    """300 seeded graphs up to n = 300: n <= 7 on two trials in three, else
    log-uniform on 11..299 (one n = 9); a fifth are rising paths with
    shuffled labels (or unit-weight paths), the deepest trees."""
    rng = random.Random(97)
    for trial in range(300):
        if trial % 3 != 1:
            n = rng.randint(2, 7)
        else:
            n = 9 if trial == 1 else int(11 * (300 / 11) ** rng.random())
        weight = rng.choice((1, 3, 20))
        if trial % 5 == 4:
            label = list(range(n))
            rng.shuffle(label)
            yield WeightedGraph.from_edges(
                n, [(label[i], label[i + 1], 1 if weight == 1 else i + 1) for i in range(n - 1)]
            )
        else:
            extra = rng.choice((0, n // 4, n))
            yield random_connected_graph(rng, n, max_weight=weight, extra_edges=extra)


def tree_digest(trees) -> str:
    """SHA-256 of each tree's internal nodes, as (vertex set, sigma) sorted."""
    digest = hashlib.sha256()
    for tree in trees:
        nodes = sorted((tuple(sorted(x.vertex_set)), x.sigma) for x in tree.internal_nodes())
        digest.update(repr(nodes).encode())
    return digest.hexdigest()


#: `tree_digest` of `differential_graphs`' trees as built when every exact
#: round still ran its own certificate: a probe of the contracted graph and
#: a subset check of each set of three vertices or more
ROUND_CERTIFIED_DIGEST = "5eca62f633116bda7c55c0726c29dd6acac734c56d5bb6f09bb8d8e308d712ff"


class TestRoundCertificate:
    def test_certified_sets_pass_verify_core_and_match_brute_force(self, monkeypatch):
        # 300 graphs up to n = 300, past every brute-force guard: each set a
        # round contracts is also a dense core by the public per-set check
        # against the graph it was found in, wherever n <= 10 the tree is
        # brute_hierarchy's, and the trees and sigmas are those the builds
        # with a certificate per round gave.
        import laminar.hierarchy as hz

        real_contract = hz.contract
        rounds: list[tuple[WeightedGraph, tuple]] = []

        def recording(cur, *sets):
            rounds.append((cur, sets))
            return real_contract(cur, *sets)

        monkeypatch.setattr(hz, "contract", recording)
        checked = large = 0
        trees = []
        for g in differential_graphs():
            rounds.clear()
            tree = build_hierarchy(g)
            trees.append(tree)
            assert sum(len(sets) for _, sets in rounds) == sum(1 for _ in tree.internal_nodes())
            for cur, sets in rounds:
                for star in sets:
                    assert verify_core(cur, cur.n, star)
                    checked += 1
            if g.n <= 10:
                assert tree == brute_hierarchy(g)
            large += g.n > 100
        assert checked > 3000 and large >= 20
        assert tree_digest(trees) == ROUND_CERTIFIED_DIGEST


def nested(node: HierarchyNode):
    """A tree as nested lists: [sigma, children] per internal node, and the
    vertex per leaf."""
    if node.is_leaf:
        return next(iter(node.vertex_set))
    return [node.sigma, [nested(child) for child in node.children]]


def frozen(item, graph: WeightedGraph, recompute: bool = False) -> HierarchyNode:
    """The HierarchyNode of a nested-list tree.  A sigma of None, or every
    sigma with `recompute`, becomes the node's charged ratio: the weight
    between its children over their number less one."""
    if isinstance(item, int):
        return HierarchyNode(frozenset({item}), (), None)
    children = tuple(
        sorted((frozen(kid, graph, recompute) for kid in item[1]), key=lambda c: min(c.vertex_set))
    )
    vertex_set = frozenset().union(*(child.vertex_set for child in children))
    sigma = item[0]
    if sigma is None or recompute:
        between = graph.weight_inside(vertex_set) - sum(
            graph.weight_inside(child.vertex_set) for child in children
        )
        sigma = Fr(between, len(children) - 1)
    return HierarchyNode(vertex_set, children, sigma)


def internal_items(tree) -> list[tuple[list, list | None]]:
    """(item, parent) for every internal item of a nested-list tree, in
    preorder; the root's parent is None."""
    found, stack = [], [(tree, None)]
    while stack:
        item, parent = stack.pop()
        if isinstance(item, list):
            found.append((item, parent))
            stack.extend((kid, item) for kid in reversed(item[1]))
    return found


def substitute(tree, parent: list | None, old, new: list):
    """Put the items `new` where `old` stood under parent; returns the tree,
    which is new[0] when old was the root."""
    if parent is None:
        (root,) = new
        return root
    kids = parent[1]
    at = next(i for i, kid in enumerate(kids) if kid is old)
    kids[at : at + 1] = new
    return tree


def group(items: list):
    """One item for several: a new node of unknown ratio, or the item itself."""
    return items[0] if len(items) == 1 else [None, items]


def tree_mutants(root: HierarchyNode, rng: random.Random):
    """(kind, nested-list tree) for mutants of a tree at every internal node:
    sigma moved by one unit of its denominator either way; two children
    merged into one node that holds their children, or grouped under a new
    node; the node split into two nodes, which take its place in its parent
    (at the root, which has no parent, they become its only children); and
    one of its leaf children moved under another internal node, the node
    giving way to its last child if it keeps only one."""
    base = nested(root)
    shape = internal_items(base)
    count = len(shape)

    def fresh():
        tree = copy.deepcopy(base)
        return tree, internal_items(tree)

    for i in range(count):
        for sign in (1, -1):
            tree, items = fresh()
            item = items[i][0]
            item[0] += sign * Fr(1, item[0].denominator)
            yield "sigma", tree
        size = len(shape[i][0][1])
        if size >= 3:
            a, b = rng.sample(range(size), 2)
            for flatten in (True, False):
                tree, items = fresh()
                kids = items[i][0][1]
                pair = [kids[a], kids[b]]
                if flatten:
                    pair = [x for kid in pair for x in (kid[1] if isinstance(kid, list) else [kid])]
                kids[:] = [kid for j, kid in enumerate(kids) if j not in (a, b)] + [[None, pair]]
                yield "merged", tree
        if size >= 3 or shape[i][1] is not None:
            tree, items = fresh()
            item, parent = items[i]
            cut = set(rng.sample(range(size), rng.randint(1, size - 1)))
            halves = [
                group([kid for j, kid in enumerate(item[1]) if (j in cut) == side])
                for side in (True, False)
            ]
            if parent is None:
                item[1] = halves
            else:
                tree = substitute(tree, parent, item, halves)
            yield "split", tree
        leaves = [j for j, kid in enumerate(shape[i][0][1]) if isinstance(kid, int)]
        if leaves and count > 1:
            tree, items = fresh()
            item, parent = items[i]
            target = items[rng.choice([t for t in range(count) if t != i])][0]
            target[1].append(item[1].pop(rng.choice(leaves)))
            if len(item[1]) == 1:
                tree = substitute(tree, parent, item, item[1])
            yield "moved", tree


def node_graph(graph: WeightedGraph, node: HierarchyNode) -> WeightedGraph:
    """G_X built apart from the certificate: the induced subgraph on the
    node with each child contracted."""
    sub, to_orig = induced_subgraph(graph, node.vertex_set)
    index = {v: i for i, v in enumerate(to_orig)}
    return contract(sub, *({index[v] for v in child.vertex_set} for child in node.children))[0]


def internal_sets(root: HierarchyNode) -> set:
    return {(node.vertex_set, node.sigma) for node in root.walk() if not node.is_leaf}


class TestTreeCertificate:
    def test_accepts_exactly_the_brute_force_tree_among_mutants(self):
        # At n <= 9 the certificate accepts a tree iff it is brute_hierarchy's.
        # Each mutant comes with its ratios as they stood (new nodes get
        # their charged ratio) and with every ratio recomputed, so that (c)
        # holds and (a) or (b) must catch it.  Wherever the shape holds,
        # (a) says a node's children hold a denser set exactly when the
        # brute-force maximum skew-density of its G_X exceeds c(G_X)/(r-1).
        import laminar.hierarchy as hz
        from laminar import brute_max_skew_density

        rng = random.Random(1018)
        rejected: Counter[str] = Counter()
        denser = nines = 0
        for trial in range(40):
            g = graph_with_tied_blocks(rng, trial)
            if g.n > 9 or (g.n == 9 and nines == 2):  # brute force takes ~0.3 s at n = 9
                continue
            nines += g.n == 9
            truth = brute_hierarchy(g).root
            assert hz._certify_tree(g, truth) == []
            for kind, mutant in tree_mutants(truth, rng):
                for recompute in (False, True) if kind != "sigma" else (False,):
                    node = frozen(mutant, g, recompute)
                    violations = hz._certify_tree(g, node)
                    assert (not violations) == (internal_sets(node) == internal_sets(truth)), (
                        g.edges, kind, node
                    )
                    rejected[kind] += bool(violations)
                    for x in node.walk():
                        if x.is_leaf:
                            continue
                        g_x = node_graph(g, x)
                        expected = not g_x.is_connected() or (
                            g_x.n > 2
                            and brute_max_skew_density(g_x)[0] > Fr(g_x.total_weight(), g_x.n - 1)
                        )
                        name = sorted(x.vertex_set)
                        found = any(
                            v == f"no edge joins the children of {name}"
                            or v.startswith(f"the children of {name} ")
                            for v in violations
                        )
                        assert found == expected, (g.edges, node, name)
                        denser += found
        assert min(rejected[kind] for kind in ("sigma", "merged", "split", "moved")) >= 80
        assert denser >= 300

    def test_restated_round_mutants_are_rejected(self):
        # The trees that wrong rounds would build: a round set dropped
        # (its children join its parent), a proper subset (one
        # child leaves it for its parent), an outside vertex added (a
        # sibling joins it; a parent left with one child gives way to it),
        # and tau* moved by one unit of its denominator.  Every one fails,
        # with ratios as they stood and with every ratio recomputed; a
        # dropped set always shows up in (a) at its parent.
        import laminar.hierarchy as hz

        rng = random.Random(1019)
        mutants = dropped = 0
        for trial in range(30):
            g = graph_with_tied_blocks(rng, trial)
            truth = build_hierarchy(g).root
            base = nested(truth)
            shape = internal_items(base)
            for i, (node, up) in enumerate(shape):

                def copied():
                    tree = copy.deepcopy(base)
                    return (tree, *internal_items(tree)[i])

                trees = []
                for sign in (1, -1):
                    tree, item, _ = copied()
                    item[0] += sign * Fr(1, item[0].denominator)
                    trees.append(("tau", tree))
                if up is not None:
                    tree, item, parent = copied()
                    trees.append(("dropped", substitute(tree, parent, item, item[1])))
                    for j in range(len(node[1])):
                        tree, item, parent = copied()
                        child = item[1].pop(j)
                        tree = substitute(tree, parent, item, [group(item[1]), child])
                        trees.append(("subset", tree))
                    for j in range(len(up[1]) - 1):
                        tree, item, parent = copied()
                        sibling = [kid for kid in parent[1] if kid is not item][j]
                        parent[1].remove(sibling)
                        item[1].append(sibling)
                        if len(parent[1]) == 1:
                            grand = next(p for it, p in internal_items(tree) if it is parent)
                            tree = substitute(tree, grand, parent, [item])
                        trees.append(("added", tree))
                for kind, tree in trees:
                    for recompute in (False, True) if kind != "tau" else (False,):
                        violations = hz._certify_tree(g, frozen(tree, g, recompute))
                        assert violations, (g.edges, kind, recompute)
                        mutants += 1
                    if kind == "dropped":
                        assert any(" hold a set denser than " in v for v in violations)
                        dropped += 1
        assert dropped >= 60 and mutants >= 800

    def test_denser_subset_inside_a_node_is_caught(self):
        # {0, 1, 2} has density 7 but holds {0, 1} at density 10, which only
        # (a) at that node can see: its ratio is right, and it rises from
        # the root's.  Nor may the whole graph be one node at density 5.
        import laminar.hierarchy as hz

        g = WeightedGraph.from_edges(4, [(0, 1, 10), (0, 2, 4), (2, 3, 1)])
        triple = frozen([None, [0, 1, 2]], g)
        assert triple.sigma == 7
        root = HierarchyNode(frozenset(range(4)), (triple, frozen(3, g)), Fr(1))
        assert hz._certify_tree(g, root) == ["the children of [0, 1, 2] hold a set denser than 7"]
        flat = frozen([None, [0, 1, 2, 3]], g)
        assert flat.sigma == 5
        violations = hz._certify_tree(g, flat)
        assert violations == ["the children of [0, 1, 2, 3] hold a set denser than 5"]

    def test_exact_build_raises_on_a_mutated_round(self, monkeypatch, trubin_path, unit_k4):
        # The end certificate is what stands behind an exact round: a round
        # whose density is off by one unit, or that contracts a proper
        # subset of its densest set, makes the build raise.  A round that
        # drops one of several sets builds the same tree, as the set is
        # contracted, at the same density, a round later.
        import laminar.hierarchy as hz

        real = hz.find_star_full
        first = [True]

        def mutating(mutate):
            def search(cur, k, **kwargs):
                result = real(cur, k, **kwargs)
                if first[0]:
                    first[0] = False
                    result = mutate(result)
                return result

            return search

        cases = [
            (trubin_path, lambda r: replace(r, tau_star=r.tau_star + 1), True),
            (unit_k4, lambda r: replace(r, sets=(frozenset({0, 1, 2}),)), True),
        ]
        triangles = [frozenset({0, 3, 6}), frozenset({1, 4, 7}), frozenset({2, 5, 8})]
        edges = [(u, v, 2) for tri in triangles for u, v in combinations(sorted(tri), 2)]
        three = WeightedGraph.from_edges(9, edges + [(6, 1, 1), (7, 2, 1)])
        cases.append((three, lambda r: replace(r, sets=r.sets[1:]), False))
        for g, mutate, raises in cases:
            expected = build_hierarchy(g)
            first[0] = True
            monkeypatch.setattr(hz, "find_star_full", mutating(mutate))
            if raises:
                with pytest.raises(RuntimeError, match="fails its certificate"):
                    build_hierarchy(g)
            else:
                assert build_hierarchy(g) == expected
            assert not first[0]
            monkeypatch.setattr(hz, "find_star_full", real)


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

    def test_merged_root_children_past_the_oracle_guard(self):
        # Two root children grouped under a new node, on the benchmark's
        # sparse family at n = 80.  With every ratio recomputed, each sigma
        # matches its charged weight, and only (a) or (b) can tell.
        rng = random.Random(43)
        g = random_connected_graph(rng, 80, max_weight=20, extra_edges=20)
        tree = build_hierarchy(g)
        assert validate_hierarchy(g, tree) == [] and len(tree.root.children) >= 3
        root = nested(tree.root)
        root[1][:2] = [[None, root[1][:2]]]
        assert validate_hierarchy(g, HierarchyTree(frozen(root, g), g))
        violations = validate_hierarchy(g, HierarchyTree(frozen(root, g, recompute=True), g))
        assert violations and not any(v.startswith("ratio of ") for v in violations)

    def test_strict_rise_rejects_a_tie(self):
        # On the unit path 0 - 1 - 2 every ratio is 1 and the root's
        # children are three singletons.  Nesting {0, 1} at ratio 1 keeps
        # every charged ratio right and sigma monotone; only a strict rise
        # (and the oracle, at this size) rejects it.
        import laminar.hierarchy as hz

        g = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        pair = frozen([None, [0, 1]], g)
        root = HierarchyNode(frozenset(range(3)), (pair, frozen(2, g)), Fr(1))
        assert pair.sigma == 1
        assert hz._certify_tree(g, root) == ["ratio does not rise from [0, 1, 2] to [0, 1]"]
        violations = validate_hierarchy(g, HierarchyTree(root, g))
        assert violations[0] == "ratio does not rise from [0, 1, 2] to [0, 1]"
        assert any("min-ratio" in v for v in violations[1:])

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
