"""Density probes, the densest-set search, and dense-core verification."""

from __future__ import annotations

import hashlib
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
    compute_arboricity,
    find_star,
    find_star_full,
    probe,
    skew_density,
    verify_core,
)
from laminar import dircut
from laminar.densecore import (
    _below,
    _denser_subset,
    _density_flow,
    _maximal_densest,
    _probe,
    _saturate,
    tau_core,
    verify_core_explain,
)
from laminar.flow import max_flow, max_source_side, t_cuts_below, t_mincut_exhaustive
from laminar.goldberg import _first_phase, build_goldberg, build_modified
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
        # Each exact Newton step is at most one density-network flow and,
        # when that saturates, one exhaustive scan; only a step whose
        # tau-core has two vertices or fewer runs no flow.  The last step is
        # the extraction of every maximal densest set, so no further flow or
        # scan runs.
        import laminar.densecore as dc

        steps: list[list[int]] = []  # per probe: core size, flows, scans
        probe_at, saturate, scan = dc._probe, dc._saturate, dc.t_cuts_below

        def counting_probe(graph, tau, *args, **kwargs):
            steps.append([len(tau_core(graph, tau)), 0, 0])
            return probe_at(graph, tau, *args, **kwargs)

        def counting_saturate(*args):
            side, shortcut = saturate(*args)
            steps[-1][1] += 1
            steps[-1][2] -= shortcut is not None
            return side, shortcut

        def counting_scan(*args, **kwargs):
            steps[-1][2] += 1
            return scan(*args, **kwargs)

        monkeypatch.setattr(dc, "_probe", counting_probe)
        monkeypatch.setattr(dc, "_saturate", counting_saturate)
        monkeypatch.setattr(dc, "t_cuts_below", counting_scan)
        rng = random.Random(61)
        graphs = [trubin_path] + [
            random_connected_graph(rng, rng.randint(2, 9), extra_edges=rng.randint(0, 6))
            for _ in range(30)
        ]
        covered = Counter()
        for g in graphs:
            steps.clear()
            result = find_star_full(g, g.n)
            assert len(steps) == len(result.probes)
            for core, flows, unscanned in steps:
                assert flows == (core > 2) and unscanned == 0, (g.edges, steps)
                covered[core > 2] += 1
        assert min(covered[False], covered[True]) >= 10, covered

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
        # A maximal side beside the witness must have density tau too: on
        # the path 0 = 1 - 2 - 3 (weights 2, 1, 1) {2, 3} has density 1, not
        # the witness {0, 1}'s 2.
        path = WeightedGraph.from_edges(4, [(0, 1, 2), (1, 2, 1), (2, 3, 1)])
        heavy = frozenset({0, 1})
        with pytest.raises(RuntimeError, match="density 1, not 2"):
            _maximal_densest(path, Fr(2), [heavy, frozenset({2, 3})], heavy)

    def test_exact_search_reads_the_witness_density_once(self, monkeypatch):
        # The search has matched its witness's density to tau when it stops,
        # and `_maximal_densest` does not read it again: each round of the
        # rising cycle's build reads the inside weight of its one set once.
        # The cycle stays non-tree to its last round, which contracts a
        # triangle, so its build runs n - 2 rounds.
        import laminar.hierarchy as hz

        inside = WeightedGraph.weight_inside
        reads: list[int] = []
        monkeypatch.setattr(
            WeightedGraph, "weight_inside", lambda *args: reads.append(1) or inside(*args)
        )
        search, searches = hz.find_star_full, []
        monkeypatch.setattr(
            hz, "find_star_full", lambda *args, **kw: searches.append(1) or search(*args, **kw)
        )
        n = 30
        build_hierarchy(rising_cycle(n))
        assert len(reads) == len(searches) == n - 2

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


def rising_cycle(n: int) -> WeightedGraph:
    """The rising path closed by the edge n-1 -- 0 of weight n: its exact
    build contracts one pair per round and stays non-tree to the end."""
    return WeightedGraph.from_edges(n, rising_path(n).edges + ((n - 1, 0, n),))


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
        # The path is a tree, so its build runs no round and no search: it
        # finishes by single linkage, and the tree certificate probes
        # nothing, as every node of the path has two children.  The rising
        # cycle runs a round per node: the heaviest pair is the whole core
        # of every round, so the search's scan has two sources, however long
        # the cycle.  A round ends when it contracts; after the last one the
        # certificate probes only the root, the one node with three children.
        import laminar.densecore as dc
        import laminar.hierarchy as hierarchy

        flows: list[int] = []
        rounds: list[int] = []
        searches: list[int] = []
        scan, contract_round = dc.t_cuts_below, hierarchy.contract
        search = hierarchy.find_star_full

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
        monkeypatch.setattr(
            hierarchy,
            "find_star_full",
            lambda *args, **kwargs: searches.append(1) or search(*args, **kwargs),
        )
        tree = build_hierarchy(rising_path(100))
        assert searches == [] and rounds == [] and flows == []
        assert sum(1 for _ in tree.internal_nodes()) == 99
        tree = build_hierarchy(rising_cycle(100))
        assert len(searches) == len(rounds) == 98 == sum(1 for _ in tree.internal_nodes())
        assert max(rounds) <= 2 and len(flows) == 1 and flows[0] <= 2

    def test_verify_core_accepts_each_path_star_without_a_rooted_network(
        self, monkeypatch
    ):
        # On a rising path each top pair is a dense core.  Its superset
        # probe, rooted at the pair's node in the contracted path, peels
        # every other vertex, and its subset probe's tau-core is the pair,
        # so neither builds a network.
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
        assert g.n == 1 and built == []
        # A superset as dense as the set survives the peel and is found;
        # the pair's own subset probe builds no network.
        g = WeightedGraph.from_edges(4, [(0, 1, 4), (1, 2, 4), (2, 3, 4)])
        ok, reason = verify_core_explain(g, 4, {0, 1})
        assert not ok and "superset" in reason and built == [True]


def degrees(graph: WeightedGraph) -> list[int]:
    """Each vertex's weighted degree in the whole graph."""
    degree = [0] * graph.n
    for u, v, w in graph.edges:
        degree[u] += w
        degree[v] += w
    return degree


def scan_prefix(core: WeightedGraph, tau: Fr, sources: list[int]) -> tuple[int, list[set[int]]]:
    """The exact probe's scan prefix, peeled from scratch: how many of
    `sources` it scans, the fewest whose deletion from the tau-core `core`
    leaves a tau-core of fewer than two vertices, or all of them; and, for
    k = 0 .. len(sources), the tau-core of `core` minus the first k."""
    cores = [
        {left[v] for v in tau_core(induced_subgraph(core, left)[0], tau)}
        for left in (
            [v for v in range(core.n) if v not in sources[:k]] for k in range(len(sources) + 1)
        )
    ]
    kept = min((k for k, c in enumerate(cores) if len(c) < 2), default=len(sources))
    return kept, cores


def core_scan(sub: WeightedGraph, tau: Fr, sources: list[int]):
    """The exact probe's scan of a saturated tau-core's shortcut network
    over `sources`, or None when the density network does not saturate."""
    _, shortcut = _saturate(sub, tau)
    if shortcut is None:
        return None
    return t_cuts_below(
        shortcut.network,
        shortcut.t,
        limit=shortcut.tau.numerator,
        sources=sources,
        start=shortcut.start,
    )


class TestScanPrefix:
    def test_prefix_records_what_every_source_records(self, monkeypatch):
        # At every iterate tau of exact searches on 300 graphs (n 3..40), and
        # just below it, the probe scans the shortest prefix of its sources
        # after which the tau-core of the unscanned core vertices, peeled
        # here from scratch, has fewer than two vertices.  That scan records
        # the same cuts, values and order as the scan over every source, and
        # the probe records their sides.  Two mutants must change some scan:
        # stopping one source earlier, and skipping each source outside the
        # tau-core of the vertices not yet scanned.
        import laminar.densecore as dc

        scanned: list[list[int]] = []
        scan = dc.t_cuts_below

        def recording_scan(net, t, **kwargs):
            scanned.append(list(kwargs["sources"]))
            return scan(net, t, **kwargs)

        monkeypatch.setattr(dc, "t_cuts_below", recording_scan)
        rng = random.Random(221)
        covered = Counter()
        for _ in range(300):
            n = rng.randint(3, 40)
            g = random_connected_graph(
                rng, n, max_weight=rng.choice((1, 5, 20)), extra_edges=rng.randint(0, 3 * n)
            )
            for tau, _ in find_star_full(g, g.n).probes:
                for threshold in (tau, _below(tau, g.n)):
                    core = tau_core(g, threshold)
                    if len(core) < 2:
                        continue
                    sub, _ = induced_subgraph(g, core)
                    degree = degrees(g)
                    sources = [
                        i
                        for i, v in enumerate(core)
                        if degree[v] * threshold.denominator > threshold.numerator
                    ]
                    expected = core_scan(sub, threshold, sources)
                    if expected is None:
                        continue
                    kept, cores = scan_prefix(sub, threshold, sources)
                    got = core_scan(sub, threshold, sources[:kept])
                    assert got == expected, (g.edges, threshold)
                    sides: list[frozenset[int]] = []
                    scanned.clear()
                    _probe(g, threshold, g.n, sides=sides)
                    # a pair core is decided without a scan (see TestPairCore)
                    assert scanned == ([sources[:kept]] if len(core) > 2 else [])
                    assert sides == [frozenset(core[v] for v in cut.source_side) for cut in got]
                    covered["scans"] += 1
                    covered["skipped"] += len(sources) - kept
                    covered["recorded"] += bool(expected)
                    if kept and core_scan(sub, threshold, sources[: kept - 1]) != expected:
                        covered["one early"] += 1
                    inside = [s for k, s in enumerate(sources[:kept]) if s in cores[k]]
                    if core_scan(sub, threshold, inside) != expected:
                        covered["outside the core"] += 1
        assert covered["scans"] >= 800 and covered["skipped"] >= 5000, covered
        assert covered["recorded"] >= 400 and covered["one early"] >= 50, covered
        assert covered["outside the core"] >= 3, covered

    def test_last_probe_of_the_desk_scale_smoke_graph_scans_few_sources(self, monkeypatch):
        # The graph of test_acceptance's smoke benchmark: the last probe, at
        # tau* - delta, scans 44 of its 200 sources, and the result is the
        # one a scan of every source gives.
        import laminar.densecore as dc

        scanned: list[int] = []
        scan = dc.t_cuts_below

        def counting_scan(net, t, **kwargs):
            scanned.append(len(kwargs["sources"]))
            return scan(net, t, **kwargs)

        monkeypatch.setattr(dc, "t_cuts_below", counting_scan)
        g = random_connected_graph(random.Random(2024), 200, max_weight=9, extra_edges=2000 - 199)
        result = compute_arboricity(g)
        assert (result.arboricity, result.fractional) == (50, Fr(9895, 199))
        assert result.probes == ((Fr(20), True), (Fr(9895, 199), False))
        assert scanned[-1] <= 60


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


def pair_core_inputs(rng: random.Random):
    """Endless (graph, tau, root or None) whose tau-core is two vertices a, b.

    A light random graph (weights 1-3, up to 20 vertices) gets one to three
    parallel edges between a and b, which often share a frozenset hash slot;
    with c = c(E[{a, b}]), tau is c or c/2, often one unit of a finer
    denominator off, sometimes that minus delta.  The root, if any, is a, b
    or any vertex."""
    while True:
        n = rng.randint(2, 20)
        g = random_connected_graph(rng, n, max_weight=3, extra_edges=rng.randint(0, n // 2))
        a, b = rng.sample(range(n), 2)
        if n > 8 and rng.random() < 0.3:
            a = rng.randrange(n - 8)
            b = a + 8
        total = rng.randint(12, 60)
        cuts = sorted(rng.sample(range(1, total), rng.randint(0, 2)))
        heavy = [(a, b, hi - lo) for lo, hi in zip([0, *cuts], [*cuts, total])]
        g = WeightedGraph.from_edges(n, [*g.edges, *heavy])
        tau = Fr(g.weight_inside((a, b)), rng.choice((1, 2)))
        tau += rng.choice((-1, 0, 0, 1)) * Fr(1, tau.denominator * rng.randint(1, 5))
        if rng.random() < 0.2:
            tau = _below(tau, n)
        root = rng.choice((None, None, a, b, rng.randrange(n)))
        if len(tau_core(g, tau, root)) == 2:
            yield g, tau, root


def network_probe(g: WeightedGraph, tau: Fr, root: int | None):
    """The exact probe through its networks: (found, witness) and the sides
    the scan records, as `_probe` computes them for cores of three or more."""
    core = tau_core(g, tau, root)
    sub, _ = induced_subgraph(g, core)
    side, shortcut = _saturate(sub, tau)
    if shortcut is None:
        witness = frozenset(core[v] for v in side)
        return (True, witness if root is None else witness | {root}), []
    if root is None:
        degree = degrees(g)
        sources = [i for i, v in enumerate(core) if degree[v] * tau.denominator > tau.numerator]
        sources = sources[: scan_prefix(sub, tau, sources)[0]]
    else:
        sources = [core.index(root)]
    cuts = core_scan(sub, tau, sources)
    recorded = [frozenset(core[v] for v in cut.source_side) for cut in cuts]
    cut = min(cuts, key=lambda cut: cut.value, default=None)
    if cut is None:
        return (False, None), recorded
    return (True, frozenset(core[v] for v in cut.source_side)), recorded


def pair_rule(pair: frozenset[int], c: int, tau: Fr, sides: list, mutant: str | None = None):
    """The two-vertex rule of `_probe`, or one of its mutants."""
    num, den = tau.numerator, tau.denominator
    if (c * den < num) if mutant == "miss at c < tau" else (c * den <= num):
        return False, None
    saturated = c * den < 2 * num if mutant == "append at c < 2 tau" else c * den <= 2 * num
    if mutant == "append when unsaturated" or (saturated and mutant != "no append"):
        sides.append(pair)
    return True, pair


class TestPairCore:
    MUTANTS = ("miss at c < tau", "append at c < 2 tau", "append when unsaturated", "no append")

    def test_matches_the_network_and_mutants_fail(self, monkeypatch):
        # An exact probe whose tau-core is a pair {a, b} answers, witnesses
        # and records sides as the density network and the scan would, with
        # the same reprs.  It builds no network and reads the pair's weight
        # off its peel, with no `weight_inside` pass.  tau sits on and next to
        # both boundaries, c = tau and c = 2 tau.  Every mutant of the rule
        # must disagree with the networks on some probe.
        import laminar.densecore as dc

        built: list[int] = []
        build = dc.build_goldberg
        monkeypatch.setattr(dc, "build_goldberg", lambda *args: built.append(1) or build(*args))
        reads: list[int] = []
        inside = WeightedGraph.weight_inside
        monkeypatch.setattr(
            WeightedGraph, "weight_inside", lambda *args: reads.append(1) or inside(*args)
        )
        rng = random.Random(2301)
        inputs = pair_core_inputs(rng)
        covered, caught = Counter(), Counter()
        for _ in range(600):
            g, tau, root = next(inputs)
            expected, recorded = network_probe(g, tau, root)
            sides: list[frozenset[int]] = []
            built.clear()
            reads.clear()
            got = _probe(g, tau, g.n, sides=sides, root=root)
            assert _probe(g, tau, g.n, root=root) == got
            assert built == [] and reads == []
            assert repr(got) == repr(expected) and got == expected, (g.edges, tau, root)
            assert repr(sides) == repr(recorded) and sides == recorded, (g.edges, tau, root)
            core = tau_core(g, tau, root)
            c, pair = g.weight_inside(core), frozenset(core)
            for mutant in (None, *self.MUTANTS):
                mutated: list[frozenset[int]] = []
                caught[mutant] += (pair_rule(pair, c, tau, mutated, mutant), mutated) != (
                    got, sides
                )
            outcome = "miss" if not got[0] else "recorded" if sides else "unsaturated"
            covered[root is None, outcome] += 1
            covered["c = tau"] += c == tau
            covered["c = 2 tau"] += c == 2 * tau
            covered["shared hash slot"] += core[0] % 8 == core[1] % 8
        assert caught[None] == 0 and all(caught[m] >= 5 for m in self.MUTANTS), caught
        assert len(covered) == 9 and min(covered.values()) >= 20, covered

    def test_randomized_probe_still_samples(self, monkeypatch):
        # Randomized probes keep the networks: on a two-vertex core whose
        # density network saturates, the probe calls the sampler once and
        # leaves the RNG where the network path leaves it.
        import laminar.densecore as dc

        calls: list[int] = []
        sample = dc.find_small_cut

        def counting_sample(*args, **kwargs):
            calls.append(1)
            return sample(*args, **kwargs)

        monkeypatch.setattr(dc, "find_small_cut", counting_sample)
        inputs = pair_core_inputs(random.Random(2302))
        sampled = 0
        for seed in range(120):
            g, tau, root = next(inputs)
            core = tau_core(g, tau)
            if root is not None or len(core) != 2:
                continue
            sub, _ = induced_subgraph(g, core)
            side, shortcut = _saturate(sub, tau)
            ref_rng = random.Random(seed)
            if shortcut is None:
                expected = (True, frozenset(core[v] for v in side))
            else:
                limit = shortcut.tau.numerator
                cut = sample(shortcut.one_way(), shortcut.t, limit, 2, ref_rng)
                expected = (False, None)
                if cut is not None and cut.value < limit:
                    expected = (True, frozenset(core[v] for v in cut.source_side))
            calls.clear()
            rng = random.Random(seed)
            assert _probe(g, tau, 2, "randomized", rng) == expected, (g.edges, tau)
            assert calls == [1] * (shortcut is not None)
            assert rng.getstate() == ref_rng.getstate()
            sampled += bool(calls)
        assert sampled >= 25


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
    one_way = shortcut.one_way()
    degree = [0] * sub.n
    for u, v, w in sub.edges:
        degree[u] += w
        degree[v] += w
    sources = [v for v in range(sub.n) if degree[v] * rho.denominator > rho.numerator]
    threshold = shortcut.tau.numerator
    if t_mincut_exhaustive(one_way, shortcut.t, limit=threshold, sources=sources):
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


def probe_inputs(rng: random.Random):
    """Endless (core graph, tau, root in it or None) as the exact probe makes
    them: random graphs of up to 30 vertices, some with a duplicated edge
    and some with a unit path hanging off to the root, so that the root can
    lose every edge to the peel; tau near the density of a random set, often
    one unit of its denominator off, sometimes that minus delta."""
    while True:
        n = rng.randint(2, 28)
        g = random_connected_graph(rng, n, max_weight=rng.choice((1, 5, 20)))
        edges = list(g.edges)
        if rng.random() < 0.3:
            edges.append(rng.choice(edges))
        root = None
        if rng.random() < 0.5:
            root = rng.randrange(n)
            if rng.random() < 0.5:
                edges += [(rng.randrange(n), n, 1), (n, n + 1, 1)]
                n, root = n + 2, n + 1
        g = WeightedGraph.from_edges(n, edges)
        x = rng.sample(range(n), rng.randint(2, n))
        inside = g.weight_inside(x)
        if inside == 0:
            continue
        tau = Fr(inside, len(x) - rng.randint(0, 1))
        tau += rng.choice((-1, 0, 0, 1)) * Fr(1, tau.denominator * rng.randint(1, 4))
        if rng.random() < 0.3:
            tau = _below(tau, n)
        if tau <= 0:
            continue
        core = tau_core(g, tau, root)
        if len(core) < 2:
            continue
        sub, _ = induced_subgraph(g, core)
        yield sub, tau, None if root is None else core.index(root)


class TestDensityFlow:
    def test_closed_form_first_phase_is_dinics(self, engine_builds):
        # The closed form and Dinic's continuation from it leave the same
        # value, residual array and limit flag as a run from zero, and the
        # probe's flow, shortcut network and side build no engine when the
        # first phase saturates every s-arc or every sink arc.
        rng = random.Random(191)
        endings = Counter()
        isolated_roots = fractional = parallel = 0
        inputs = probe_inputs(rng)
        for _ in range(2400):
            sub, tau, root = next(inputs)
            h = build_goldberg(sub, tau)
            target = h.saturation_target()
            first = _first_phase(h)
            if first.reached_limit:
                ending = "target"
            elif first.value == sub.n * tau.numerator:
                ending = "sinks full"
            else:
                ending = "dinic"
            endings[ending] += 1
            engine_builds.clear()
            got = _density_flow(h)
            side, _ = _saturate(sub, tau)
            assert len(engine_builds) == 2 * (ending == "dinic")
            ref = max_flow(h.network, h.s, h.t, limit=target)
            assert (got.value, got.residual, got.reached_limit) == (
                ref.value, ref.residual, ref.reached_limit
            ), (sub.edges, tau)
            if not ref.reached_limit:
                walked = max_source_side(h.network, ref, h.t)
                assert side == walked.intersection(range(sub.n))
            isolated_roots += root is not None and degrees(sub)[root] == 0
            fractional += tau.denominator > 1
            parallel += len(sub.merged_edges()) < sub.m
        assert min(endings.values()) >= 100, endings
        assert isolated_roots >= 50 and fractional >= 1000 and parallel >= 200

    def test_paired_scan_equals_the_one_way_views_scan(self):
        # On saturated probes, the scan of the shortcut network from its
        # seeded residual records the same sides, values and order as the
        # scan of its one-way view, rooted or from every vertex of degree
        # above tau.
        rng = random.Random(192)
        scans = Counter()
        inputs = probe_inputs(rng)
        while sum(scans.values()) < 1200:
            sub, tau, root = next(inputs)
            h = build_goldberg(sub, tau)
            flow = max_flow(h.network, h.s, h.t, limit=h.saturation_target())
            if not flow.reached_limit:
                continue
            if root is None:
                degree = degrees(sub)
                sources = [v for v in range(sub.n) if degree[v] * tau.denominator > tau.numerator]
            else:
                sources = [root]
            paired = build_modified(h, flow)
            limit = tau.numerator
            expected = t_cuts_below(paired.one_way(), paired.t, limit=limit, sources=sources)
            got = t_cuts_below(
                paired.network, paired.t, limit=limit, sources=sources, start=paired.start
            )
            assert got == expected, (sub.edges, tau, root)
            scans[root is None, bool(expected)] += 1
        assert len(scans) == 4 and min(scans.values()) >= 50, scans


class TestRandomizedStream:
    def test_trees_results_and_next_draws_are_pinned(self, monkeypatch):
        # Randomized mode reads the shortcut network in its one-way arc
        # order: sparsify's draws and Edmonds' arc-id tie-break follow it.
        # On 40 seeded connected graphs (n 3..12) the same seeds must give
        # the same hierarchy and next draw, the same `find_star_full` result
        # and next draw, and the same arborescence packings on the way.
        digest = hashlib.sha256()
        covered = Counter()
        pack = dircut.pack_arborescences

        def recorded(*args, **kwargs):
            packing = pack(*args, **kwargs)
            digest.update(repr(packing).encode())
            covered["packings"] += 1
            return packing

        monkeypatch.setattr(dircut, "pack_arborescences", recorded)
        for seed in range(40):
            make = random.Random(5200 + seed)
            n = 3 + seed % 10
            g = random_connected_graph(make, n, max_weight=make.choice((1, 4, 9)))
            k = make.randint(1, n)
            rng = random.Random(seed)
            tree = build_hierarchy(g, mode="randomized", rng=rng)
            digest.update(f"{tree.root!r}|{rng.getrandbits(64)}\n".encode())
            rng = random.Random(10_000 + seed)
            result = find_star_full(g, k, mode="randomized", rng=rng)
            # A frozenset's repr lists members in hash-table order, which
            # depends on how the set was built; its sorted members do not.
            values = (
                sorted(result.candidate),
                result.tau_star,
                result.probes,
                [sorted(side) for side in result.sets],
            )
            digest.update(f"{values!r}|{rng.getrandbits(64)}\n".encode())
            covered["several internal nodes"] += sum(1 for _ in tree.internal_nodes()) > 1
            covered["several probes"] += len(result.probes) > 1
        assert min(covered.values()) >= 5, covered
        assert digest.hexdigest() == (
            "dcd29de906b4d2c2d8548555025fd62e23fb3a668ce334479b1404d7187f8990"
        )
