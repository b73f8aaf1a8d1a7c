"""Density probes, the densest-set search, and dense-core verification."""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from fractions import Fraction as Fr
from itertools import combinations

import pytest

from laminar import (
    WeightedGraph,
    brute_dense_core,
    brute_hierarchy,
    brute_max_skew_density,
    build_hierarchy,
    find_star,
    find_star_full,
    probe,
    skew_density,
    verify_core,
)
from laminar.densecore import (
    _denser_subset,
    _maximal_densest,
    _probe,
    tau_core,
    verify_core_explain,
)
from laminar.flow import max_flow, t_mincut_exhaustive
from laminar.goldberg import build_goldberg, build_modified
from laminar.graph import GraphError, contract, induced_subgraph

from .conftest import random_connected_graph


def unique_maximum_densest(graph: WeightedGraph) -> bool:
    """True when exactly one densest set attains the maximum size."""
    best = Fr(0)
    sizes: list[int] = []
    for size in range(2, graph.n + 1):
        for subset in combinations(range(graph.n), size):
            rho = skew_density(graph, subset)
            if rho > best:
                best = rho
                sizes = [size]
            elif rho == best:
                sizes.append(size)
    top = max(sizes)
    return sizes.count(top) == 1


def maximal_densest_sets(graph: WeightedGraph) -> tuple[Fr, set[frozenset[int]]]:
    """The maximum skew-density and every inclusion-maximal set attaining it."""
    best, _ = brute_max_skew_density(graph)
    densest = [
        frozenset(subset)
        for size in range(2, graph.n + 1)
        for subset in combinations(range(graph.n), size)
        if skew_density(graph, subset) == best
    ]
    return best, {x for x in densest if not any(x < y for y in densest)}


def graph_with_tied_blocks(rng: random.Random, trial: int) -> WeightedGraph:
    """A random graph on odd trials; on even ones, copies of one random block,
    shuffled and chained by unit edges, so that several sets tie."""
    if trial % 2:
        return random_connected_graph(rng, rng.randint(2, 9), max_weight=rng.choice((1, 9)))
    size, copies = rng.randint(2, 4), rng.randint(2, 3)
    block = random_connected_graph(rng, size, max_weight=3)
    label = list(range(size * copies))
    rng.shuffle(label)
    edges = [
        (label[c * size + u], label[c * size + v], w)
        for c in range(copies)
        for u, v, w in block.edges
    ]
    edges += [(label[c * size], label[c * size + size], 1) for c in range(copies - 1)]
    return WeightedGraph.from_edges(size * copies, edges)


class TestProbe:
    def test_below_max_density_succeeds(self, trubin_path):
        ok, witness = probe(trubin_path, Fr(50), 2)
        assert ok and witness is not None

    def test_above_max_density_fails(self, trubin_path):
        ok, witness = probe(trubin_path, Fr(101), 2)
        assert not ok and witness is None

    def test_half_whole_graph_density_succeeds(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 6))
            tau = skew_density(g, range(g.n)) / 2
            assert probe(g, tau, g.n)[0]

    def test_exact_probe_is_density_comparison(self):
        rng = random.Random(8)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(2, 6))
            best, _ = brute_max_skew_density(g)
            for num in range(1, 2 * int(best) + 3):
                tau = Fr(num, 2)
                assert probe(g, tau, g.n)[0] == (tau < best)

    def test_rejects_disconnected(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1)])
        with pytest.raises(GraphError):
            probe(g, Fr(1), 2)


class TestFindStar:
    def test_path_heavy_pair(self, trubin_path):
        assert find_star(trubin_path, 2) == {2, 3}

    def test_triangle_full_set(self, unit_triangle):
        assert find_star(unit_triangle, 4) == {0, 1, 2}

    def test_k4_full_set(self, unit_k4):
        assert find_star(unit_k4, 4) == {0, 1, 2, 3}

    def test_single_vertex(self):
        g = WeightedGraph.from_edges(1, [])
        assert find_star(g, 2) == {0}

    def test_bracket_invariants(self, trubin_path):
        rng = random.Random(89)
        graphs = [trubin_path] + [
            random_connected_graph(rng, rng.randint(2, 8)) for _ in range(15)
        ]
        for g in graphs:
            best, _ = brute_max_skew_density(g)
            result = find_star_full(g, g.n)
            thresholds = [tau for tau, _ in result.probes]
            assert thresholds == sorted(set(thresholds))
            assert result.probes[-1] == (best, False)
            assert result.tau_star == best
            for tau, ok in result.probes[:-1]:
                assert ok and tau < best

    def test_matches_brute_densest_exact_mode(self):
        rng = random.Random(21)
        checked = 0
        while checked < 25:
            g = random_connected_graph(rng, rng.randint(2, 8))
            if not unique_maximum_densest(g):
                continue
            _, expected = brute_max_skew_density(g)
            assert find_star(g, g.n) == expected
            checked += 1

    def test_sets_are_the_maximal_densest_sets(self):
        # Exact mode returns every maximal densest set, pairwise disjoint,
        # largest first and the candidate first.  Half of the graphs are
        # copies of one random block, shuffled and chained by unit edges, so
        # they have several.
        rng = random.Random(23)
        several = 0
        for trial in range(40):
            g = graph_with_tied_blocks(rng, trial)
            _, maximal = maximal_densest_sets(g)
            result = find_star_full(g, g.n)
            assert len(result.sets) == len(maximal) and set(result.sets) == maximal
            assert result.sets[0] == result.candidate
            sizes = [len(x) for x in result.sets]
            assert sizes == sorted(sizes, reverse=True)
            assert sum(sizes) == len(frozenset().union(*result.sets))
            several += len(result.sets) > 1
        assert several >= 15

    def test_randomized_mode_small_sample(self):
        rng = random.Random(77)
        hits = 0
        trials = 15
        for trial in range(trials):
            g = random_connected_graph(random.Random(1000 + trial), 5)
            if not unique_maximum_densest(g):
                continue
            _, expected = brute_max_skew_density(g)
            got = find_star(g, g.n, mode="randomized", rng=random.Random(trial))
            hits += got == expected
            trials -= 0
        assert hits >= 10

    def test_rejects_disconnected(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(GraphError):
            find_star(g, 2)

    def test_recovers_when_small_cut_finder_always_misses(self, monkeypatch, trubin_path):
        # If every sampling call comes back empty, probes only succeed through
        # the unsaturated-flow branch and the bracket lands below the pseudo
        # density; the extraction then has to fall back to the density
        # network's own min cut, which still carries the densest set here.
        import laminar.densecore as dc

        monkeypatch.setattr(dc, "find_small_cut", lambda *args, **kwargs: None)
        result = find_star_full(trubin_path, 2, mode="randomized", rng=random.Random(0))
        assert result.candidate == {2, 3}
        assert result.sets == (result.candidate,)

    def test_exact_search_scans_once_per_probe(self, monkeypatch, trubin_path):
        # Each exact Newton step is one density-network flow and, when that
        # saturates, one exhaustive scan; the last step is the extraction of
        # every maximal densest set, so no further flow or scan runs.
        import laminar.densecore as dc

        saturated: list[bool] = []
        scans = []
        saturate, scan = dc._saturate, dc.t_cuts_below

        def counting_saturate(*args):
            side, shortcut = saturate(*args)
            saturated.append(shortcut is not None)
            return side, shortcut

        def counting_scan(*args, **kwargs):
            scans.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(dc, "_saturate", counting_saturate)
        monkeypatch.setattr(dc, "t_cuts_below", counting_scan)
        rng = random.Random(61)
        graphs = [trubin_path] + [
            random_connected_graph(rng, rng.randint(2, 9), extra_edges=rng.randint(0, 6))
            for _ in range(30)
        ]
        all_saturated = 0
        for g in graphs:
            saturated.clear()
            scans.clear()
            result = find_star_full(g, g.n)
            assert len(saturated) == len(result.probes)
            assert len(scans) == sum(saturated)
            if all(saturated):
                all_saturated += 1
                assert len(scans) == len(result.probes)
        assert all_saturated >= 10

    def test_exact_search_rejects_a_missing_or_sparse_witness(self, monkeypatch, trubin_path):
        import laminar.densecore as dc

        monkeypatch.setattr(dc, "probe", lambda *args, **kwargs: (False, None))
        with pytest.raises(RuntimeError, match="missed"):
            find_star_full(trubin_path, 4)
        # {0, 1} has density 2, below the heavy pair's 100 that the search
        # starts from.
        monkeypatch.setattr(dc, "probe", lambda *args, **kwargs: (True, frozenset({0, 1})))
        with pytest.raises(RuntimeError, match="not above"):
            find_star_full(trubin_path, 4)

    def test_overlapping_maximal_sides_raise(self, unit_triangle):
        # {0, 1} and {1, 2} both have density 1 in the unit triangle and
        # neither holds the other, so they cannot both be maximal densest
        # sets; the last search contracts its sets only when disjoint.
        pair, other = frozenset({0, 1}), frozenset({1, 2})
        assert _maximal_densest(unit_triangle, Fr(1), [pair], pair) == (pair,)
        with pytest.raises(RuntimeError, match="overlap"):
            _maximal_densest(unit_triangle, Fr(1), [pair, other], pair)
        with pytest.raises(RuntimeError, match="density"):
            _maximal_densest(unit_triangle, Fr(3, 2), [pair], pair)

    def test_probe_successes_are_downward_closed(self):
        # Along any binary search, the succeeding thresholds form a prefix of
        # the sorted probe sequence.
        rng = random.Random(35)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 7))
            result = find_star_full(g, g.n)
            by_tau = sorted(result.probes)
            boundary = max((t for t, ok in by_tau if ok), default=None)
            for tau, ok in by_tau:
                if boundary is not None and tau <= boundary:
                    assert ok
                else:
                    assert not ok


def rising_path(n: int) -> WeightedGraph:
    return WeightedGraph.from_edges(n, [(i, i + 1, i + 1) for i in range(n - 1)])


class TestTauCore:
    def test_peels_strictly_below_and_never_the_root(self, unit_triangle, trubin_path):
        assert tau_core(unit_triangle, Fr(2)) == [0, 1, 2]  # degree 2 is not below 2
        assert tau_core(unit_triangle, Fr(2) + Fr(1, 10**9)) == []
        assert tau_core(unit_triangle, Fr(3), root=1) == [1]
        # Degrees 2, 3, 101, 100: at 100 the cascade stops at {c, d}.
        assert tau_core(trubin_path, Fr(100)) == [2, 3]
        assert tau_core(trubin_path, Fr(100), root=0) == [0, 2, 3]
        assert tau_core(trubin_path, Fr(201, 2)) == []
        assert tau_core(rising_path(6), Fr(5)) == [4, 5]
        assert tau_core(rising_path(6), Fr(5), root=0) == [0, 4, 5]

    def test_peeling_lemma_against_brute_force(self):
        # Thresholds equal to degrees inside random subsets make ties at the
        # strict `<`; unit weights make ties between maximizers.
        rng = random.Random(97)
        checked = 0
        for trial in range(24):
            n = rng.randint(2, 10)
            g = random_connected_graph(rng, n, max_weight=1 if trial % 2 else 3)
            inside = [0] * (1 << n)
            for mask in range(1 << n):
                inside[mask] = sum(w for u, v, w in g.edges if mask >> u & 1 and mask >> v & 1)
            size = [bin(mask).count("1") for mask in range(1 << n)]
            taus = {Fr(1, 2)}
            for _ in range(4):
                subset = rng.randrange(1, 1 << n)
                for x in range(n):
                    degree = sum(
                        w for u, v, w in g.edges if x in (u, v) and subset >> u & 1 and subset >> v & 1
                    )
                    if degree:
                        taus.add(Fr(degree))
            for tau in sorted(taus):
                core = frozenset(tau_core(g, tau))
                root = rng.randrange(n)
                rooted = frozenset(tau_core(g, tau, root=root))
                assert core <= rooted and root in rooted
                both = [inside[mask] - tau * size[mask] for mask in range(1 << n)]
                # The largest maximizer of c(E[X]) - tau|X|, overall and
                # among the sets that contain the root.
                for masks, limit in (
                    (range(1 << n), core),
                    ([mask for mask in range(1 << n) if mask >> root & 1], rooted),
                ):
                    best = max(both[mask] for mask in masks)
                    top = max((mask for mask in masks if both[mask] == best), key=size.__getitem__)
                    assert {x for x in range(n) if top >> x & 1} <= limit, (g.edges, tau, root)
                # Every maximizer of c(E[X]) - tau(|X| - 1) over nonempty X
                # that has two vertices or more.
                best = max(both[mask] + tau for mask in range(1, 1 << n))
                for mask in range(1, 1 << n):
                    if size[mask] >= 2 and both[mask] + tau == best:
                        assert {x for x in range(n) if mask >> x & 1} <= core, (g.edges, tau)
                # The core is the largest set whose every non-root vertex has
                # degree at least tau inside it.
                for expected, keep in ((core, None), (rooted, root)):
                    closed = [
                        mask
                        for mask in range(1 << n)
                        if (keep is None or mask >> keep & 1)
                        and all(
                            x == keep
                            or sum(
                                w
                                for u, v, w in g.edges
                                if x in (u, v) and mask >> u & 1 and mask >> v & 1
                            )
                            >= tau
                            for x in range(n)
                            if mask >> x & 1
                        )
                    ]
                    largest = max(closed, key=size.__getitem__, default=0)
                    assert expected == {x for x in range(n) if largest >> x & 1}
                checked += 0 < len(core) < n
        assert checked >= 20

    def test_exact_hierarchy_on_a_rising_path_scans_at_most_two_flows_per_round(
        self, monkeypatch
    ):
        # The heaviest pair is the whole core of every round, so the
        # search's scan has two sources, however long the path.  A round
        # ends when it contracts; the tree certificate after the last round
        # probes nothing, as every node of the path has two children.
        import laminar.densecore as dc
        import laminar.hierarchy as hierarchy

        flows: list[int] = []
        rounds: list[int] = []
        scan, contract_round = dc.t_cuts_below, hierarchy.contract

        def counting_scan(net, t, **kwargs):
            flows.append(len(set(kwargs["sources"]) - {t}))
            return scan(net, t, **kwargs)

        def counting_contract(*args):
            result = contract_round(*args)
            rounds.append(sum(flows))
            flows.clear()
            return result

        monkeypatch.setattr(dc, "t_cuts_below", counting_scan)
        monkeypatch.setattr(hierarchy, "contract", counting_contract)
        tree = build_hierarchy(rising_path(100))
        assert len(rounds) == 99 == sum(1 for _ in tree.internal_nodes())
        assert max(rounds) <= 2 and flows == []

    def test_verify_core_accepts_each_path_star_without_a_rooted_network(
        self, monkeypatch
    ):
        # On a rising path each top pair is a dense core.  Its superset
        # probe, rooted at the pair's node in the contracted path, peels
        # every other vertex, so it builds no network; the subset probe
        # builds one.
        import laminar.densecore as dc

        rooted: list[bool] = []  # per running probe: is it rooted?
        built: list[bool] = []  # per density network: built by a rooted probe?
        probe_at, build = dc._probe, dc.build_goldberg

        def probing(*args, root=None, **kwargs):
            rooted.append(root is not None)
            try:
                return probe_at(*args, root=root, **kwargs)
            finally:
                rooted.pop()

        def counting_build(graph, tau):
            built.append(rooted[-1])
            return build(graph, tau)

        monkeypatch.setattr(dc, "_probe", probing)
        monkeypatch.setattr(dc, "build_goldberg", counting_build)
        g = rising_path(60)
        for top in range(g.n - 1, 0, -1):
            star = {top - 1, top}
            assert verify_core(g, 2, star)
            g, _ = contract(g, star)
        assert g.n == 1 and built == [False] * 59
        # A superset as dense as the set survives the peel and is found.
        ok, reason = verify_core_explain(WeightedGraph.from_edges(3, [(0, 1, 4), (1, 2, 4)]), 3, {0, 1})
        assert not ok and "superset" in reason and built[-1]


class TestRootedProbe:
    def test_matches_brute_force(self):
        # Does some X that contains the root, of two vertices or more, have
        # c(E[X]) > tau(|X|-1)?  Thresholds are densities of random sets
        # containing the root, each also one unit of its denominator off,
        # so both answers and ties come up; every third graph is split.
        rng = random.Random(1703)
        answers = {True: 0, False: 0}
        for trial in range(150):
            n = rng.randint(2, 8)
            g = random_connected_graph(rng, n, max_weight=rng.choice((1, 3, 9)))
            if trial % 3 == 0:
                g = WeightedGraph.from_edges(n, [e for e in g.edges if rng.random() < 0.6])
            sets = [
                (frozenset(x), g.weight_inside(x))
                for size in range(2, n + 1)
                for x in combinations(range(n), size)
            ]
            for _ in range(4):
                root = rng.randrange(n)
                x = {root, *rng.sample([v for v in range(n) if v != root], rng.randint(1, n - 1))}
                tau = Fr(g.weight_inside(x), len(x) - 1)
                tau += rng.choice((-1, 0, 1)) * Fr(1, tau.denominator * rng.randint(1, 3))
                if tau <= 0:
                    continue
                expected = any(root in y and inside > tau * (len(y) - 1) for y, inside in sets)
                found, witness = _probe(g, tau, n, root=root)
                assert found == expected, (g.edges, root, tau)
                if found:
                    assert root in witness and len(witness) >= 2
                    assert g.weight_inside(witness) > tau * (len(witness) - 1)
                answers[found] += 1
        assert min(answers.values()) >= 100

    def test_rooted_probe_is_exact_only(self, trubin_path):
        with pytest.raises(ValueError, match="exact mode only"):
            _probe(trubin_path, Fr(1), 2, "randomized", random.Random(0), root=0)


class TestPastTheOracleGuards:
    def test_max_density_against_networkx_rooted_cuts(self):
        # An independent rooted density network, built on networkx, has min
        # cut scale*(c(E) - max over X containing the root of (c(E[X]) -
        # tau|X|)).  At tau = tau* no X beats tau*(|X|-1), so every such cut
        # is at least scale*c(E) + scale*tau*, with equality at the smallest
        # vertex of the returned candidate.  Once a root is checked, sets
        # containing it are covered, so it leaves the network with its edges.
        nx = pytest.importorskip("networkx")
        rng = random.Random(2507)
        for n in (50, 100, 150):
            g = random_connected_graph(rng, n, extra_edges=n)
            result = find_star_full(g, g.n)
            tau = result.tau_star
            assert skew_density(g, result.candidate) == tau
            scale, sink_cap = tau.denominator, tau.numerator
            net = nx.DiGraph()
            for idx, (u, v, w) in enumerate(g.edges):
                net.add_edge("s", ("e", idx), capacity=scale * w)
                net.add_edge(("e", idx), u)  # no capacity: infinite
                net.add_edge(("e", idx), v)
            for v in range(g.n):
                net.add_edge(v, "t", capacity=sink_cap)
            remaining = g.total_weight()
            for root in range(g.n):
                net.add_edge("s", root)
                value = nx.minimum_cut_value(net, "s", "t")
                floor = scale * remaining + sink_cap
                if root == min(result.candidate):
                    assert value == floor, (n, root)
                else:
                    assert value >= floor, (n, root)
                net.remove_node(root)
                for idx, (u, v, w) in enumerate(g.edges):
                    if root in (u, v) and net.has_node(("e", idx)):
                        net.remove_node(("e", idx))
                        remaining -= w
            # The floor held at every root, so tau is the maximum density.
            assert skew_density(g, result.candidate) == tau
            assert verify_core(g, g.n, result.candidate)


    def test_superset_half_against_networkx_rooted_networks(self):
        # Past the brute-force guards, an independent density network on
        # networkx decides the superset half.  With every vertex of S tied
        # to s by an infinite arc, at tau = rho(S) - 1/(n den rho(S)), its
        # min cut is scale*(c(E) - max over X containing S of
        # (c(E[X]) - tau|X|)).  For X = S | Y the score exceeds S's own
        # iff c(E[X]) - c(E[S]) - rho|Y| > -|Y|/(n den rho), which holds iff
        # X is at least as dense as S; so the cut falls below S's own side
        # iff some proper superset is at least as dense.  Sets are edges or
        # densest sets of connected induced subgraphs, which pass the subset
        # half; graphs are connected or split in two.
        nx = pytest.importorskip("networkx")

        def superset_as_dense(g, s_set):
            rho = skew_density(g, s_set)
            tau = rho - Fr(1, g.n * rho.denominator)
            scale, sink_cap = tau.denominator, tau.numerator
            net = nx.DiGraph()
            for idx, (u, v, w) in enumerate(g.edges):
                net.add_edge("s", ("e", idx), capacity=scale * w)
                net.add_edge(("e", idx), u)  # no capacity: infinite
                net.add_edge(("e", idx), v)
            for v in range(g.n):
                net.add_edge(v, "t", capacity=sink_cap)
            for v in s_set:
                net.add_edge("s", v)
            own = scale * (g.total_weight() - g.weight_inside(s_set)) + sink_cap * len(s_set)
            return nx.minimum_cut_value(net, "s", "t") < own

        def split_graph(rng, n, max_weight):
            a = rng.randint(1, n - 1)
            label = list(range(n))
            rng.shuffle(label)
            edges = [
                (label[u + offset], label[v + offset], w)
                for offset, size in ((0, a), (a, n - a))
                for u, v, w in random_connected_graph(rng, size, max_weight).edges
            ]
            return WeightedGraph.from_edges(n, edges)

        def grown_set(rng, g, size):
            adjacent = [[] for _ in range(g.n)]
            for u, v, _ in g.edges:
                adjacent[u].append(v)
                adjacent[v].append(u)
            start = rng.randrange(g.n)
            grown, frontier = {start}, list(adjacent[start])
            while frontier and len(grown) < size:
                v = frontier.pop(rng.randrange(len(frontier)))
                if v not in grown:
                    grown.add(v)
                    frontier += adjacent[v]
            return grown

        rng = random.Random(1717)
        outcomes: Counter = Counter()
        for trial in range(400):
            n = rng.randint(8, 30)
            max_weight = rng.choice((1, 4, 20))
            split = trial % 2 == 1
            g = (split_graph if split else random_connected_graph)(rng, n, max_weight)
            for _ in range(4):
                if rng.random() < 0.5:
                    u, v, _ = rng.choice(g.edges)
                    s_set = {u, v}
                else:
                    sub, to_orig = induced_subgraph(g, grown_set(rng, g, rng.randint(2, n)))
                    if sub.n < 2:
                        continue
                    s_set = {to_orig[x] for x in find_star_full(sub, sub.n).candidate}
                ok, reason = verify_core_explain(g, g.n, s_set)
                assert reason is None or "subset" not in reason, (g.edges, s_set)
                if outcomes[split, ok] < 50:
                    assert ok != superset_as_dense(g, s_set), (g.edges, sorted(s_set))
                    outcomes[split, ok] += 1
            if len(outcomes) == 4 and min(outcomes.values()) >= 40:
                break
        assert len(outcomes) == 4 and min(outcomes.values()) >= 40, outcomes


class TestVerifyCore:
    def test_path_examples(self, trubin_path):
        assert verify_core(trubin_path, 2, {2, 3}) is True
        assert verify_core(trubin_path, 2, {0, 1}) is False
        assert verify_core(trubin_path, 1, {2, 3}) is False  # size bound

    def test_whole_graph(self, unit_triangle, trubin_path):
        assert verify_core(unit_triangle, 3, {0, 1, 2}) is True
        # V of the path is beaten by {c,d}.
        assert verify_core(trubin_path, 4, {0, 1, 2, 3}) is False

    def test_singletons(self, trubin_path):
        for v in range(4):
            assert verify_core(trubin_path, 4, {v}) is False
        lone = WeightedGraph.from_edges(1, [])
        assert verify_core(lone, 1, {0}) is True

    def test_failure_reasons_are_named(self, trubin_path):
        ok, reason = verify_core_explain(trubin_path, 4, {0, 1})
        assert not ok and "superset" in reason
        ok, reason = verify_core_explain(trubin_path, 1, {2, 3})
        assert not ok and "size" in reason
        # {a,b,c} contains the strictly denser subset {c,d}? No: use {b,c,d}
        # whose subset {c,d} at 100 beats 101/2.
        ok, reason = verify_core_explain(trubin_path, 4, {1, 2, 3})
        assert not ok and "subset" in reason

    def test_tied_superset_is_rejected(self):
        # rho({0,1}) = 1 and rho(V) = 1: the superset tie must fail the check
        # even though it does not change the rooted network's flow value.
        g = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        assert verify_core(g, 3, {0, 1}) is False
        assert brute_dense_core(g, {0, 1}) is False

    @pytest.mark.parametrize(
        "bridge,expected",
        [
            (3, True),  # rho(V) = 7/2 < 4: supersets strictly sparser
            (4, False),  # rho(V) = 4 ties rho({0,1})
            (5, False),  # rho(V) = 9/2 > 4 beats it outright
        ],
    )
    def test_superset_boundary_cases(self, bridge, expected):
        g = WeightedGraph.from_edges(3, [(0, 1, 4), (1, 2, bridge)])
        assert verify_core(g, 3, {0, 1}) is expected
        assert brute_dense_core(g, {0, 1}) is expected

    def test_matches_brute_on_all_sets(self):
        rng = random.Random(5)
        for _ in range(12):
            g = random_connected_graph(rng, rng.randint(2, 6))
            for size in range(1, g.n + 1):
                for subset in combinations(range(g.n), size):
                    assert verify_core(g, g.n, subset) == brute_dense_core(g, subset), (
                        g.edges,
                        subset,
                    )

    def test_accepted_sets_are_star_sets(self):
        rng = random.Random(6)
        for _ in range(8):
            g = random_connected_graph(rng, rng.randint(2, 6))
            tree = brute_hierarchy(g)
            star_sets = {
                node.vertex_set
                for node in tree.internal_nodes()
                if all(child.is_leaf for child in node.children)
            }
            for size in range(2, g.n + 1):
                for subset in combinations(range(g.n), size):
                    if verify_core(g, g.n, subset):
                        assert frozenset(subset) in star_sets

    def test_rejects_bad_input(self, unit_triangle):
        with pytest.raises(GraphError):
            verify_core(unit_triangle, 3, set())
        with pytest.raises(GraphError):
            verify_core(unit_triangle, 3, {9})

    def test_memory_grows_with_the_set_not_the_graph(self):
        # Membership and S = V are decided in O(|S|).  A set with internal
        # weight goes on to the superset check, whose contraction stays
        # O(n + m); S = {0} has none, so it is rejected before that.
        g = WeightedGraph(10**6, ())
        tracemalloc.start()
        try:
            verdict = verify_core_explain(g, g.n, {0})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict == (False, "a proper superset is at least as dense")
        assert peak < 1 << 20
        with pytest.raises(GraphError, match="^the candidate set is not a subset of the vertices$"):
            verify_core_explain(g, g.n, {0, 10**6})


def reference_denser_subset(graph: WeightedGraph, s_set, rho: Fr) -> str | None:
    """The subset check as it stood before it ran the probe: the induced
    subgraph's density network and, when it saturates, an exhaustive scan of
    its shortcut network from every vertex of degree above rho."""
    sub, _ = induced_subgraph(graph, s_set)
    h = build_goldberg(sub, rho)
    target = h.saturation_target()
    flow = max_flow(h.network, h.s, h.t, limit=target)
    if flow.value < target:
        return "a subset is denser (density network not saturated)"
    shortcut = build_modified(h, flow)
    degree = [0] * sub.n
    for u, v, w in sub.edges:
        degree[u] += w
        degree[v] += w
    sources = [v for v in range(sub.n) if degree[v] * rho.denominator > rho.numerator]
    threshold = shortcut.tau.numerator
    if t_mincut_exhaustive(shortcut.network, shortcut.t, limit=threshold, sources=sources):
        return "a subset is denser (shortcut network has a small cut)"
    return None


class TestDenserSubset:
    def test_matches_the_previous_check(self):
        # Random sets, connected or not, at thresholds taken from the set's
        # own subsets: c(E[X])/(|X|-1) and c(E[X])/|X|, each also one unit
        # of its denominator off, so all three answers come up often.
        rng = random.Random(151)
        outcomes: dict[tuple[bool, str | None], int] = {}
        cases = 0
        while cases < 4000:
            n = rng.randint(2, 9)
            g = random_connected_graph(
                rng, n, max_weight=rng.choice((1, 3, 9)), extra_edges=rng.randint(0, n)
            )
            s_set = frozenset(rng.sample(range(g.n), rng.randint(2, g.n)))
            sub, _ = induced_subgraph(g, s_set)
            if sub.m == 0:
                continue
            split = not sub.is_connected()
            for _ in range(4):
                x = rng.sample(sorted(s_set), rng.randint(2, len(s_set)))
                inside = g.weight_inside(x)
                if inside == 0:
                    continue
                rho = Fr(inside, len(x) - rng.randint(0, 1))
                rho += rng.choice((-1, 0, 1)) * Fr(1, rho.denominator * rng.randint(1, 4))
                if rho <= 0:
                    continue
                expected = reference_denser_subset(g, s_set, rho)
                assert _denser_subset(g, s_set, rho) == expected, (g.edges, sorted(s_set), rho)
                outcomes[split, expected] = outcomes.get((split, expected), 0) + 1
                cases += 1
        assert len(outcomes) == 6 and min(outcomes.values()) >= 40
