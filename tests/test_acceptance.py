"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything exact is checked with rational equality; the statistical
criteria use fixed seeds so the outcomes are reproducible.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction as Fr
from itertools import combinations

import pytest

from laminar import (
    SparsifierParams,
    WeightedGraph,
    brute_dense_core,
    brute_hierarchy,
    brute_max_skew_density,
    brute_min_ratio_cut,
    brute_one_respecting,
    brute_t_mincut,
    build_goldberg,
    build_hierarchy,
    build_modified,
    compute_arboricity,
    entropy_certificate,
    entropy_value,
    find_star,
    frank_wolfe_entropy,
    ideal_loads,
    max_flow,
    min_cost_arborescence,
    min_max_loads,
    one_respecting_mincut,
    pack_arborescences,
    skew_density,
    sparsify,
    strength,
    t_mincut_exhaustive,
)
from laminar.dircut import _log2_ceil
from laminar.goldberg import GoldbergError

from .conftest import network_from_arcs, random_connected_graph, random_digraph
from .test_densecore import unique_maximum_densest
from .test_goldberg import expected_cut_value, expected_modified_cut_value
from .test_hierarchy import tree_shape

GOLDEN_PATH = WeightedGraph.from_edges(4, [(0, 1, 2), (1, 2, 1), (2, 3, 100)])


def report(criterion: int, message: str):
    print(f"criterion {criterion}: PASS ({message})")


# --- greedy-contraction trace helpers (criterion 1) -------------------------


def maximizer_chain(graph: WeightedGraph, v: int):
    """Nested maximizers of inside_weight(S) - lam*(|S|-1) over sets with v.

    Walking lam down from infinity, the maximizer grows from {v} to V; the
    returned lambdas are the crossover points, with a terminal 0.
    """
    all_with_v = [
        frozenset(c) | {v}
        for size in range(graph.n)
        for c in combinations([u for u in range(graph.n) if u != v], size)
    ]
    chain = [frozenset({v})]
    lambdas: list[Fr] = []
    cur = chain[0]
    while len(cur) < graph.n:
        w_cur = graph.weight_inside(cur)
        best_lam = None
        best_set = None
        for s in all_with_v:
            if len(s) <= len(cur):
                continue
            lam = Fr(graph.weight_inside(s) - w_cur, len(s) - len(cur))
            if (
                best_lam is None
                or lam > best_lam
                or (lam == best_lam and len(s) > len(best_set))
            ):
                best_lam = lam
                best_set = s
        chain.append(best_set)
        lambdas.append(best_lam)
        cur = best_set
    lambdas.append(Fr(0))
    return chain, lambdas


def greedy_chain_contraction_trace(graph: WeightedGraph):
    """The chain-based greedy: precompute per-vertex maximizer chains, then
    repeatedly contract the second set of the chain whose first crossover is
    largest, only renaming chain entries afterwards (never recomputing).

    Returns the contracted sets expanded to original vertices, in order.
    """
    chains = {}
    for v in range(graph.n):
        sets, lams = maximizer_chain(graph, v)
        chains[v] = [list(sets), list(lams)]
    groups = {v: frozenset({v}) for v in range(graph.n)}
    contracted: list[frozenset[int]] = []
    while True:
        eligible = [v for v in chains if len(chains[v][0]) >= 2]
        if not eligible:
            break
        u = max(eligible, key=lambda v: (chains[v][1][0], -v))
        target = chains[u][0][1]
        contracted.append(frozenset().union(*(groups[w] for w in target)))
        merged = target - {u}
        groups[u] = frozenset().union(*(groups[w] for w in target))
        for w in merged:
            del groups[w]
            del chains[w]
        for v in chains:
            chains[v][0] = [
                frozenset(u if w in merged else w for w in s) for s in chains[v][0]
            ]
        chains[u][0] = chains[u][0][1:]
        chains[u][1] = chains[u][1][1:]
    return contracted


# --- criteria ----------------------------------------------------------------


def test_criterion_01_golden_fixture():
    start = time.perf_counter()
    tree = build_hierarchy(GOLDEN_PATH)
    assert strength(tree) == Fr(1)
    assert {c.vertex_set for c in tree.root.children} == {
        frozenset({0, 1}),
        frozenset({2, 3}),
    }
    ratios = sorted(c.sigma for c in tree.root.children)
    assert ratios == [Fr(2), Fr(100)]
    loads = ideal_loads(GOLDEN_PATH, tree)
    assert loads.per_edge == (Fr(1), Fr(1), Fr(1))
    assert compute_arboricity(GOLDEN_PATH).arboricity == 100

    # Chain values for the greedy-contraction counterexample.
    sets_a, lams_a = maximizer_chain(GOLDEN_PATH, 0)
    assert sets_a == [frozenset({0}), frozenset({0, 2, 3}), frozenset(range(4))]
    assert lams_a == [Fr(50), Fr(3), Fr(0)]
    sets_b, lams_b = maximizer_chain(GOLDEN_PATH, 1)
    assert sets_b == [frozenset({1}), frozenset({1, 2, 3}), frozenset(range(4))]
    assert lams_b == [Fr(101, 2), Fr(2), Fr(0)]
    for v in (2, 3):
        sets_v, lams_v = maximizer_chain(GOLDEN_PATH, v)
        assert sets_v[1] == frozenset({2, 3})
        assert lams_v[:2] == [Fr(100), Fr(3, 2)]

    # The greedy trace never contracts {a,b}, although it is a true
    # hierarchy node: the optimized chain-based contraction is unsound.
    trace = greedy_chain_contraction_trace(GOLDEN_PATH)
    assert frozenset({0, 1}) not in trace
    assert frozenset({0, 1}) in {node.vertex_set for node in tree.nodes()}
    assert trace[0] == frozenset({2, 3})

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"golden fixture in {elapsed:.2f}s; greedy trace = {sorted(map(sorted, trace))}")


def test_criterion_02_hierarchy_oracle_equivalence():
    rng = random.Random(20_02)
    start = time.perf_counter()
    for trial in range(200):
        g = random_connected_graph(rng, rng.randint(2, 7), max_weight=9)
        fast = build_hierarchy(g)
        brute = brute_hierarchy(g)
        assert tree_shape(fast) == tree_shape(brute), (trial, g.edges)
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(2, f"200 hierarchies matched node-for-node in {elapsed:.1f}s")


def test_criterion_03_arboricity_oracle_equivalence():
    rng = random.Random(30_03)
    start = time.perf_counter()
    for trial in range(300):
        g = random_connected_graph(rng, rng.randint(2, 12), max_weight=9)
        best, _ = brute_max_skew_density(g)
        result = compute_arboricity(g)
        assert result.fractional == best, (trial, g.edges)
        assert result.arboricity == math.ceil(best)
        thresholds = [tau for tau, _ in result.probes]
        assert thresholds == sorted(set(thresholds)), (trial, g.edges)
        for tau, went_left in result.probes:
            assert went_left == (tau < best)
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(3, f"300 arboricity instances matched exactly in {elapsed:.1f}s")


def _corpus_small_networks(rng: random.Random, count: int):
    graphs = []
    while len(graphs) < count:
        n = rng.randint(2, 5)
        g = random_connected_graph(rng, n, max_weight=5, extra_edges=rng.randint(0, 4))
        if g.m + g.n <= 12:
            graphs.append(g)
    return graphs


def test_criterion_04_goldberg_formula_enumeration():
    rng = random.Random(40_04)
    start = time.perf_counter()
    checked_sides = 0
    modified_checked = 0
    for g in _corpus_small_networks(rng, 24):
        total = g.total_weight()
        taus = [
            Fr(1, 2),
            Fr(1),
            Fr(total, max(1, g.n - 1)),
            Fr(2 * total, 3),
            Fr(total),
        ]
        for tau in taus:
            h = build_goldberg(g, tau)
            vertex_sets = [
                frozenset(c)
                for size in range(g.n + 1)
                for c in combinations(range(g.n), size)
            ]
            edge_sets = [
                frozenset(c)
                for size in range(g.m + 1)
                for c in combinations(range(g.m), size)
            ]
            for sv in vertex_sets:
                for se in edge_sets:
                    side = {h.s} | set(sv) | {g.n + i for i in se}  # edge i is node n + i
                    assert h.network.cut_value(side) == expected_cut_value(h, sv, se)
                    checked_sides += 1
            flow = max_flow(h.network, h.s, h.t, limit=h.saturation_target())
            if flow.value < h.saturation_target():
                with pytest.raises(GoldbergError):
                    build_modified(h, flow)
                continue
            m = build_modified(h, flow)
            one_way = m.one_way()
            for sv in vertex_sets:
                assert one_way.cut_value(sv) == expected_modified_cut_value(m, sv)
            modified_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(
        4,
        f"{checked_sides} density-network sides and {modified_checked} shortcut "
        f"networks matched the closed forms in {elapsed:.1f}s",
    )


def test_criterion_05_verify_core_completeness():
    from laminar import verify_core

    rng = random.Random(50_05)
    start = time.perf_counter()
    accepted = 0
    for trial in range(50):
        g = random_connected_graph(rng, rng.randint(2, 8), max_weight=9)
        tree = brute_hierarchy(g)
        star_sets = {
            node.vertex_set
            for node in tree.internal_nodes()
            if all(child.is_leaf for child in node.children)
        }
        for size in range(1, g.n + 1):
            for subset in combinations(range(g.n), size):
                expected = brute_dense_core(g, subset)
                assert verify_core(g, g.n, subset) == expected, (trial, g.edges, subset)
                if expected and size >= 2:
                    assert frozenset(subset) in star_sets, (trial, g.edges, subset)
                    accepted += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(
        5,
        f"verify-core matched the brute predicate on every subset of 50 graphs "
        f"({accepted} accepted cores were star sets) in {elapsed:.1f}s",
    )


def test_criterion_06_find_star_whp():
    start = time.perf_counter()
    instances = []
    gen = random.Random(60_06)
    while len(instances) < 100:
        g = random_connected_graph(gen, gen.randint(3, 6), max_weight=7)
        if unique_maximum_densest(g):
            instances.append(g)
    randomized_hits = 0
    for index, g in enumerate(instances):
        _, expected = brute_max_skew_density(g)
        k = 1 << max(1, (len(expected) - 1).bit_length())
        assert find_star(g, k) == expected, (index, g.edges)  # exact: 100%
        got = find_star(g, k, mode="randomized", rng=random.Random(index))
        randomized_hits += got == expected
    elapsed = time.perf_counter() - start
    assert randomized_hits >= 95, f"randomized find-star hit only {randomized_hits}/100"
    assert elapsed < 300
    report(
        6,
        f"exact 100/100, randomized {randomized_hits}/100 in {elapsed:.1f}s",
    )


def test_criterion_07_packing_and_one_respecting():
    rng = random.Random(70_07)
    start = time.perf_counter()
    epsilon = Fr(1, 4)
    for trial in range(50):
        n = rng.randint(3, 8)
        net = random_digraph(rng, n, arc_prob=0.4, max_cap=3, ensure_sink_path=n - 1)
        t = n - 1
        lam = brute_t_mincut(net, t).value
        packing = pack_arborescences(net, t, k=max(1, lam), epsilon=epsilon)
        assert packing.value >= (1 - epsilon) * lam, (trial, packing.value, lam)
        for arc, used in packing.arc_usage().items():
            assert used <= net.caps[arc]
        costs = [rng.random() for _ in range(net.arc_count)]
        tree = min_cost_arborescence(net, t, costs)
        parent_map = {v: tree.parent[v] for v in range(n) if v != t}
        fast = one_respecting_mincut(net, tree, t)
        brute = brute_one_respecting(net, parent_map, t)
        assert fast.value == brute.value, (trial, fast, brute)
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(7, f"50 packings within (1-eps) of the mincut, cuts exact, in {elapsed:.1f}s")


def test_criterion_08_sparsifier_properties():
    start = time.perf_counter()
    # Unbiasedness: fixed 5-node instance, 10^4 fixed seeds, 3 standard errors.
    net = network_from_arcs(
        5, [(0, 4, 5), (1, 4, 7), (2, 4, 3), (0, 1, 2), (1, 2, 9), (3, 4, 1), (2, 3, 4)]
    )
    base = SparsifierParams.derive(Fr(7), k=2, epsilon=Fr(1, 10), n=5, rng_seed=0)
    trials = 10_000
    sums = [0] * net.arc_count
    for seed in range(trials):
        params = SparsifierParams(
            tau=base.tau, k=base.k, epsilon=base.epsilon, mu=base.mu, rng_seed=seed
        )
        out = sparsify(net, 4, params)
        for i in range(net.arc_count):
            sums[i] += out.caps[i]
    mu_f = float(base.mu)
    for i, (_, _, cap) in enumerate(net.arcs()):
        ratio = Fr(cap) / base.mu
        frac = ratio - (ratio.numerator // ratio.denominator)
        mean = sums[i] / trials * mu_f
        if frac == 0:
            assert mean == cap
            continue
        p = float(frac)
        sigma = mu_f * math.sqrt(p * (1 - p))
        assert abs(mean - cap) <= 3 * sigma / math.sqrt(trials), f"arc {i}"

    # Output mincut bound on promise instances: t-cut below tau with <= k nodes.
    c_prime = 16
    k = 1
    tau = Fr(2)
    promise = network_from_arcs(
        4, [(0, 3, 1), (1, 3, 10), (2, 3, 10), (1, 0, 10), (2, 1, 10)]
    )
    level = _log2_ceil(promise.n)
    bound = c_prime * k * level / float(Fr(1, 10)) ** 2
    for seed in range(50):
        params = SparsifierParams.derive(tau, k, Fr(1, 10), promise.n, seed)
        out = sparsify(promise, 3, params)
        cut = t_mincut_exhaustive(out, 3)
        assert cut.value <= bound, (seed, cut.value, bound)
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(8, f"rounding unbiased over {trials} seeds; sparsified mincuts within "
              f"{c_prime}*k*log(n)/eps^2 in {elapsed:.1f}s")


def test_criterion_09_ideal_load_structure():
    rng = random.Random(90_09)
    start = time.perf_counter()
    for trial in range(30):
        g = random_connected_graph(rng, rng.randint(2, 8), max_weight=9)
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
        for size in range(2, g.n + 1):
            for subset in combinations(range(g.n), size):
                s = frozenset(subset)
                total = sum(
                    loads.per_edge[i]
                    for i, (u, v, _) in enumerate(g.edges)
                    if u in s and v in s
                )
                assert total <= len(s) - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(9, f"normalization, tightness, and polytope feasibility exact in {elapsed:.1f}s")


def test_criterion_10_entropy_optimality():
    rng = random.Random(10_10)
    start = time.perf_counter()
    for trial in range(30):
        g = random_connected_graph(rng, rng.randint(2, 6), max_weight=4)
        tree = build_hierarchy(g)
        loads = ideal_loads(g, tree)
        cert = entropy_certificate(loads)
        for node, value in cert.y.items():
            if node is not tree.root:
                assert value >= -1e-12
        for i in range(g.m):
            assert abs(cert.unit_marginals[i] - float(loads.unit_per_edge[i])) <= 1e-9
        pairs = loads.unit_marginal_pairs()
        ideal = entropy_value((x for x, _ in pairs), (w for _, w in pairs))
        fw = frank_wolfe_entropy(g, 1200, seed=trial)
        assert ideal <= fw.value + 1e-6, (trial, ideal, fw.value)
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(10, f"ideal loads beat Frank-Wolfe within 1e-6 on 30 graphs in {elapsed:.1f}s")


def test_criterion_11_strength_cross_check():
    rng = random.Random(11_11)
    start = time.perf_counter()
    for trial in range(40):
        g = random_connected_graph(rng, rng.randint(2, 8), max_weight=9)
        tree = build_hierarchy(g)
        loads = ideal_loads(g, tree)
        _, unit_max = min_max_loads(loads)
        ratio, _ = brute_min_ratio_cut(g)
        assert strength(tree) == ratio == 1 / unit_max, (trial, g.edges)
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(11, f"strength = oracle ratio = 1/max unit load on 40 graphs in {elapsed:.1f}s")


def test_smoke_benchmark_desk_scale():
    rng = random.Random(2024)
    g = random_connected_graph(rng, 200, max_weight=9, extra_edges=2000 - 199)
    assert g.n == 200 and g.m >= 1990
    start = time.perf_counter()
    result = compute_arboricity(g)
    elapsed = time.perf_counter() - start
    assert result.arboricity >= 1
    assert elapsed < 60, f"smoke benchmark took {elapsed:.1f}s"
    report(0, f"smoke: n=200 m={g.m} arboricity={result.arboricity} in {elapsed:.1f}s")
