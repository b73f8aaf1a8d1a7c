"""Sparsifier, arborescence packing, and 1-respecting cut pipeline."""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction as Fr
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from laminar import (
    INF,
    DirectedNetwork,
    STCut,
    SparsifierParams,
    brute_one_respecting,
    brute_t_mincut,
    find_small_cut,
    min_cost_arborescence,
    one_respecting_mincut,
    pack_arborescences,
    size_bounded_t_mincut,
    sparsify,
    t_mincut_exhaustive,
)
from laminar import dircut
from laminar.dircut import Arborescence, DircutError, _log2_ceil

from .conftest import network_from_arcs, random_digraph


def all_arborescences(net: DirectedNetwork, t: int):
    """Every t-arborescence by brute choice of one out-arc per node."""
    out_arcs: list[list[int]] = []
    order = [v for v in range(net.n) if v != t]
    for v in order:
        candidates = [
            i for i, (u, h, _) in enumerate(net.arcs()) if u == v and h != v
        ]
        if not candidates:
            return
        out_arcs.append(candidates)
    for choice in product(*out_arcs):
        parent = [-1] * net.n
        arc_of = [-1] * net.n
        for v, arc in zip(order, choice):
            parent[v] = net.heads[arc]
            arc_of[v] = arc
        try:
            yield Arborescence(t=t, parent=tuple(parent), arc_ids=tuple(arc_of))
        except DircutError:
            continue


class TestSparsifierParams:
    def test_divisibility(self):
        params = SparsifierParams.derive(Fr(7, 3), k=2, epsilon=Fr(1, 10), n=8, rng_seed=0)
        assert (params.tau / params.mu).denominator == 1
        assert (params.backbone_cap / params.mu).denominator == 1
        target = Fr(1, 8) * Fr(1, 100) * params.tau / (2 * _log2_ceil(8))
        assert params.mu <= target

    def test_divisibility_with_composite_epsilon(self):
        # Numerator > 1 exercises the step that keeps tau/mu integral.
        params = SparsifierParams.derive(Fr(11, 7), k=3, epsilon=Fr(3, 10), n=6, rng_seed=1)
        assert (params.tau / params.mu).denominator == 1
        assert (params.backbone_cap / params.mu).denominator == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(DircutError):
            SparsifierParams.derive(Fr(0), 1, Fr(1, 10), 4, 0)
        with pytest.raises(DircutError):
            SparsifierParams.derive(Fr(1), 0, Fr(1, 10), 4, 0)
        with pytest.raises(DircutError):
            SparsifierParams.derive(Fr(1), 1, Fr(3, 2), 4, 0)


class TestSparsify:
    def test_multiples_round_deterministically(self):
        # mu = 1 divides every integer capacity: step 1 is the identity.
        params = SparsifierParams(tau=Fr(8), k=2, epsilon=Fr(1, 2), mu=Fr(1), rng_seed=99)
        net = network_from_arcs(3, [(0, 1, 4), (1, 2, 7)])
        out = sparsify(net, 2, params)
        assert list(out.arcs())[:2] == [(0, 1, 4), (1, 2, 7)]
        # backbone: eps*tau/(2k) = 1 per non-sink node
        assert list(out.arcs())[2:] == [(0, 2, 1), (1, 2, 1)]

    def test_lonely_vertex_gets_backbone_arc(self):
        # eps*tau/(2k) = 8/8 = 1, divided by mu = 1.
        params = SparsifierParams(tau=Fr(8), k=2, epsilon=Fr(1, 2), mu=Fr(1), rng_seed=0)
        net = DirectedNetwork(2)
        out = sparsify(net, 1, params)
        assert list(out.arcs()) == [(0, 1, 1)]

    def test_pinned_seed_replay(self):
        # Independent replay of the documented draw order: one
        # randrange(denominator) per arc whose capacity is off the mu grid.
        params = SparsifierParams.derive(Fr(5), k=1, epsilon=Fr(1, 2), n=3, rng_seed=424242)
        net = network_from_arcs(3, [(0, 1, 3), (1, 2, 2), (0, 2, 1)])
        out = sparsify(net, 2, params)
        rng = random.Random(424242)
        expected = []
        for _, _, cap in net.arcs():
            ratio = Fr(cap) / params.mu
            base = ratio.numerator // ratio.denominator
            frac = ratio - base
            if frac == 0:
                expected.append(base)
            else:
                up = rng.randrange(frac.denominator) < frac.numerator
                expected.append(base + (1 if up else 0))
        backbone = int(params.backbone_cap / params.mu)
        expected += [backbone, backbone]
        assert [c for _, _, c in out.arcs()] == expected

    def test_rounding_is_unbiased(self):
        params = SparsifierParams.derive(Fr(7), k=2, epsilon=Fr(1, 10), n=5, rng_seed=0)
        net = network_from_arcs(2, [(0, 1, 5)])
        mu = params.mu
        grid_low = (Fr(5) / mu).numerator // (Fr(5) / mu).denominator
        trials = 2000
        total = 0
        for seed in range(trials):
            p = SparsifierParams(
                tau=params.tau, k=params.k, epsilon=params.epsilon, mu=mu, rng_seed=seed
            )
            out = sparsify(net, 1, p)
            rounded = out.caps[0]
            assert rounded in (grid_low, grid_low + 1)
            total += rounded
        mean = Fr(total, trials) * mu
        spread = float(mu) / 2  # bound on the Bernoulli std deviation step
        stderr = spread / math.sqrt(trials)
        assert abs(float(mean) - 5.0) <= 3 * stderr


class TestArborescence:
    def test_cycle_that_avoids_the_root_is_rejected(self):
        # 3 reaches t=4, but 0 -> 1 -> 2 -> 0 never does.
        with pytest.raises(DircutError, match="node 0 does not reach the root"):
            Arborescence(t=4, parent=(1, 2, 0, 4, -1), arc_ids=(0, 1, 2, 3, -1))

    def test_missing_parent_is_rejected(self):
        with pytest.raises(DircutError, match="node 1 does not reach the root"):
            Arborescence(t=0, parent=(-1, -1, 1), arc_ids=(-1, 0, 1))

    def test_arc_ids_of_wrong_length_rejected(self):
        with pytest.raises(DircutError, match="differ in length"):
            Arborescence(t=2, parent=(1, 2, -1), arc_ids=(0, 1))

    def test_long_path_validates(self):
        n = 5000
        parent = tuple(range(1, n)) + (-1,)
        tree = Arborescence(t=n - 1, parent=parent, arc_ids=parent)
        assert tree.n == n and tree.parent[0] == 1


class TestMinCostArborescence:
    def test_directed_path_is_unique(self):
        net = network_from_arcs(3, [(0, 1, 1), (1, 2, 1)])
        tree = min_cost_arborescence(net, 2, [5.0, 1.0])
        assert tree.parent == (1, 2, -1)

    def test_two_choices_per_node(self):
        net = network_from_arcs(
            4,
            [(0, 1, 1), (0, 3, 1), (1, 3, 1), (1, 2, 1), (2, 3, 1), (2, 0, 1)],
        )
        costs = [4.0, 9.0, 1.0, 3.0, 2.0, 8.0]
        tree = min_cost_arborescence(net, 3, costs)
        best_cost, best_tree = min(
            (sum(costs[a] for a in arb.arc_ids if a >= 0), arb)
            for arb in all_arborescences(net, 3)
        )
        assert sum(costs[a] for a in tree.arc_ids if a >= 0) == best_cost
        assert tree == best_tree

    def test_tie_costs_any_optimum(self):
        net = network_from_arcs(3, [(0, 2, 1), (0, 1, 1), (1, 2, 1)])
        costs = [2.0, 1.0, 1.0]  # direct 0->2 ties with 0->1->2
        tree = min_cost_arborescence(net, 2, costs)
        assert sum(costs[a] for a in tree.arc_ids if a >= 0) == 2.0

    def test_unreachable_node_rejected(self):
        net = network_from_arcs(3, [(0, 1, 1), (1, 0, 1)])
        with pytest.raises(DircutError, match="no t-arborescence"):
            min_cost_arborescence(net, 2, [1.0, 1.0])

    @staticmethod
    def nested_chain(n: int):
        # Toward t, arc k -> k-1 is free and k-1 -> k costs 1; only 0 reaches
        # t, at a price above every reduced cost.  In Edmonds' reversal each
        # node's cheapest in-arc closes a 2-cycle with the node contracted
        # just before it: 0 and 1 first, then that node and 2, and so on,
        # n - 2 nested contractions in all.
        arcs, costs = [(0, n, 1)], [10 * n]
        for k in range(1, n):
            arcs += [(k, k - 1, 1), (k - 1, k, 1)]
            costs += [0, 1]
        return min_cost_arborescence(network_from_arcs(n + 1, arcs), n, costs)

    def test_nested_contractions_do_not_recurse(self):
        n = 1102
        tree = self.nested_chain(n)
        assert tree.parent == (n, *range(n - 1), -1)

    def test_nested_contractions_at_n_5000(self):
        n = 5000
        tree = self.nested_chain(n)
        assert tree.parent == (n, *range(n - 1), -1)

    @staticmethod
    def check_optimal(net, t, costs, *, unique=False):
        """The tree costs as little as the cheapest enumerated one; with
        unique=True, it is that one."""
        tree = min_cost_arborescence(net, t, costs)
        ranked = sorted(
            (sum(costs[a] for a in arb.arc_ids if a >= 0), arb.arc_ids)
            for arb in all_arborescences(net, t)
        )
        assert sum(costs[a] for a in tree.arc_ids if a >= 0) == ranked[0][0]
        if unique:
            assert len(ranked) == 1 or ranked[1][0] > ranked[0][0]
            assert tree.arc_ids == ranked[0][1]
        return tree, ranked

    def test_two_disjoint_cycles_at_one_level(self):
        # The cheapest out-arcs pair 0 with 1 and 2 with 3: two cycles at
        # level 0, contracted one after the other; then the first pair enters
        # the second through 1 -> 2, and the second enters t.
        net = network_from_arcs(
            5,
            [(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1),
             (0, 4, 1), (1, 4, 1), (2, 4, 1), (3, 4, 1), (1, 2, 1)],
        )
        costs = [1, 2, 1, 3, 10, 12, 20, 15, 6]
        tree, _ = self.check_optimal(net, 4, costs, unique=True)
        assert tree.parent == (1, 2, 3, 4, -1)

    def test_cycle_through_an_earlier_contraction(self):
        # 0 and 1 close a free 2-cycle; the contracted pair's cheapest way
        # out is 0 -> 2, whose own cheapest arc 2 -> 0 leads back into the
        # pair, so the second cycle holds the first contraction.
        net = network_from_arcs(
            4,
            [(0, 1, 1), (1, 0, 1), (0, 2, 1), (1, 2, 1), (2, 0, 1), (2, 1, 1),
             (0, 3, 1), (1, 3, 1), (2, 3, 1)],
        )
        costs = [0, 0, 1, 2, 1, 5, 10, 11, 12]
        tree, _ = self.check_optimal(net, 3, costs, unique=True)
        assert tree.parent == (3, 0, 0, -1)

    def test_tied_costs_and_any_root(self):
        # Costs in {1, 2} make many optima; random floats make one, which
        # must be the tree returned.  t takes every position.
        rng = random.Random(71)
        tied = 0
        for _ in range(60):
            n = rng.randint(3, 6)
            t = rng.randrange(n)
            net = random_digraph(rng, n, arc_prob=0.5, ensure_sink_path=t)
            costs = [rng.randint(1, 2) for _ in range(net.arc_count)]
            _, ranked = self.check_optimal(net, t, costs)
            tied += len(ranked) > 1 and ranked[1][0] == ranked[0][0]
            self.check_optimal(net, t, [rng.random() for _ in costs], unique=True)
        assert tied >= 30

    def test_costs_of_wrong_length_rejected(self):
        net = network_from_arcs(3, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(DircutError, match="one value per arc"):
            min_cost_arborescence(net, 2, [1.0])

    def test_matches_enumeration_on_random_instances(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(40):
            n = rng.randint(3, 5)
            net = random_digraph(rng, n, arc_prob=0.5)
            t = n - 1
            costs = [rng.randint(1, 20) for _ in range(net.arc_count)]
            arbs = list(all_arborescences(net, t))
            if not arbs:
                continue
            tree = min_cost_arborescence(net, t, costs)
            best = min(sum(costs[a] for a in arb.arc_ids if a >= 0) for arb in arbs)
            assert sum(costs[a] for a in tree.arc_ids if a >= 0) == best
            checked += 1
        assert checked >= 15


class TestPacking:
    def test_unique_arborescence(self):
        net = network_from_arcs(3, [(0, 1, 1), (1, 2, 1)])
        packing = pack_arborescences(net, 2, k=1, epsilon=0.2)
        assert len(packing.items) == 1
        assert packing.value >= Fr(8, 10)  # lambda = 1

    def test_two_disjoint_routes(self):
        net = network_from_arcs(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (1, 2, 1)])
        lam = brute_t_mincut(net, 2).value
        assert lam == 2
        packing = pack_arborescences(net, 2, k=2, epsilon=0.15)
        assert packing.value >= (1 - Fr(15, 100)) * lam

    def test_feasibility_is_exact(self):
        rng = random.Random(19)
        for _ in range(10):
            n = rng.randint(3, 6)
            net = random_digraph(rng, n, arc_prob=0.4, max_cap=3, ensure_sink_path=n - 1)
            packing = pack_arborescences(net, n - 1, k=2, epsilon=0.3, iterations=40)
            for arc, used in packing.arc_usage().items():
                assert used <= net.caps[arc]

    def test_value_guarantee_with_true_bound(self):
        rng = random.Random(29)
        for _ in range(6):
            n = rng.randint(3, 5)
            net = random_digraph(rng, n, arc_prob=0.5, max_cap=2, ensure_sink_path=n - 1)
            lam = brute_t_mincut(net, n - 1).value
            packing = pack_arborescences(net, n - 1, k=max(1, lam), epsilon=0.25)
            assert packing.value >= (1 - Fr(25, 100)) * lam

    def test_small_k_still_feasible(self):
        net = network_from_arcs(3, [(0, 2, 5), (1, 2, 5), (0, 1, 5)])
        packing = pack_arborescences(net, 2, k=1, epsilon=0.3)
        for arc, used in packing.arc_usage().items():
            assert used <= net.caps[arc]

    def test_unreachable_node_propagates(self):
        net = network_from_arcs(3, [(0, 2, 1), (2, 1, 1)])  # node 1 cannot reach t=2
        with pytest.raises(DircutError, match="no t-arborescence"):
            pack_arborescences(net, 2, k=1, epsilon=0.2, iterations=5)

    def test_two_node_pipeline(self):
        net = network_from_arcs(2, [(0, 1, 3)])
        cut = find_small_cut(net, 1, Fr(4), 1, random.Random(0))
        assert cut is not None and cut.value == 3

    def test_zero_capacity_arcs_both_conventions(self):
        net = network_from_arcs(3, [(0, 1, 0), (0, 2, 2), (1, 2, 2)])
        packing = pack_arborescences(net, 2, k=2, epsilon=0.3, iterations=60)
        usage = packing.arc_usage()
        assert 0 not in usage
        for arc, used in usage.items():
            assert used <= net.caps[arc]


class TestTieBreakPin:
    """Literal results on fixed inputs: the packings' trees, in order, with
    their weights, and one pipeline run with the RNG draw after it.  Edmonds
    breaks ties between optimal trees by arc id, so a change in which
    optimal tree it returns, or in the draws, shows up here."""

    PACKINGS = {
        1: (26, Fr(5169), "f4a9d7a22557f95d"),
        2: (2, Fr(7200), "dcc1be4fa4093337"),
        3: (39, Fr(4800), "0abe469c220c6041"),
    }

    @pytest.mark.parametrize("seed", sorted(PACKINGS))
    def test_packing_digest(self, seed):
        net = random_digraph(random.Random(seed), 12, arc_prob=0.3, ensure_sink_path=11)
        lam = t_mincut_exhaustive(net, 11).value
        params = SparsifierParams.derive(Fr(lam + 1), 3, Fr(1, 10), 12, seed)
        sparse = sparsify(net, 11, params)
        packing = pack_arborescences(sparse, 11, 3, Fr(1, 10), iterations=96)
        text = repr([(tree.arc_ids, str(w)) for tree, w in packing.items])
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert (len(packing.items), packing.value, digest) == self.PACKINGS[seed]

    def test_find_small_cut_and_rng_stream(self):
        net = random_digraph(random.Random(4), 12, arc_prob=0.3, ensure_sink_path=11)
        rng = random.Random(5)
        cut = find_small_cut(net, 11, net.cut_value(frozenset(range(11))), 3, rng)
        assert cut == STCut(source_side=frozenset({6}), value=10)
        assert rng.getrandbits(32) == 4129516530


class TestOneRespecting:
    def test_directed_path(self):
        net = network_from_arcs(3, [(0, 1, 4), (1, 2, 2)])
        tree = min_cost_arborescence(net, 2, [1.0, 1.0])
        cut = one_respecting_mincut(net, tree, 2)
        brute = brute_one_respecting(net, {0: 1, 1: 2}, 2)
        assert cut.value == brute.value == 2

    def test_star_takes_cheapest_leaf(self):
        net = network_from_arcs(4, [(0, 3, 5), (1, 3, 1), (2, 3, 7)])
        tree = min_cost_arborescence(net, 3, [1.0, 1.0, 1.0])
        cut = one_respecting_mincut(net, tree, 3)
        assert cut.value == 1 and cut.source_side == {1}

    def test_matches_brute_on_random_instances(self):
        rng = random.Random(43)
        checked = 0
        for _ in range(40):
            n = rng.randint(3, 6)
            net = random_digraph(rng, n, arc_prob=0.5, ensure_sink_path=n - 1)
            t = n - 1
            costs = [rng.random() for _ in range(net.arc_count)]
            tree = min_cost_arborescence(net, t, costs)
            parent_map = {v: tree.parent[v] for v in range(n) if v != t}
            fast = one_respecting_mincut(net, tree, t)
            brute = brute_one_respecting(net, parent_map, t)
            assert fast.value == brute.value
            checked += 1
        assert checked >= 30

    def test_random_trees_match_brute_force(self):
        # Arbitrary trees (not min-cost ones) over networks with INF and zero
        # arcs: every 1-respecting cut the shared engine reports must be the
        # enumerated minimum, cross exactly one tree arc, and have its value.
        rng = random.Random(44)
        for _ in range(60):
            n = rng.randint(2, 8)
            t = rng.randrange(n)
            net = random_digraph(rng, n, arc_prob=0.4)
            extra = [(rng.randrange(n), rng.randrange(n), rng.choice([0, INF])) for _ in range(2)]
            net = net.extended((u, v, c) for u, v, c in extra if u != v)
            order = [v for v in range(n) if v != t]
            rng.shuffle(order)
            parent = [-1] * n
            for i, v in enumerate(order):
                parent[v] = rng.choice([t, *order[:i]])
            tree = Arborescence(t=t, parent=tuple(parent), arc_ids=tuple(parent))
            fast = one_respecting_mincut(net, tree, t)
            brute = brute_one_respecting(net, {v: parent[v] for v in order}, t)
            assert fast.value == brute.value
            crossing = [
                v for v in fast.source_side if parent[v] not in fast.source_side
            ]
            assert len(crossing) == 1 and t not in fast.source_side
            if fast.value != INF:
                assert net.cut_value(fast.source_side) == fast.value

    def test_limit_keeps_the_earliest_least_cut(self):
        # Against one unlimited flow per tree arc on its own network, arcs in
        # node order, a cut kept only when strictly smaller: without a limit
        # the same cut, side and all; with one, that cut when it is below the
        # limit and None otherwise.  Infinite arcs make some cuts infinite,
        # and some limits lie past every finite cut.
        from laminar import min_st_cut

        rng = random.Random(46)
        outcomes: Counter[bool] = Counter()
        for _ in range(80):
            n = rng.randint(2, 8)
            t = rng.randrange(n)
            net = random_digraph(rng, n, arc_prob=0.4, max_cap=3)
            extra = [(rng.randrange(n), rng.randrange(n), rng.choice([0, INF])) for _ in range(2)]
            net = net.extended((u, v, c) for u, v, c in extra if u != v)
            order = [v for v in range(n) if v != t]
            rng.shuffle(order)
            parent = [-1] * n
            for i, v in enumerate(order):
                parent[v] = rng.choice([t, *order[:i]])
            tree = Arborescence(t=t, parent=tuple(parent), arc_ids=tuple(parent))
            best = None
            for u in range(n):
                if u == t:
                    continue
                pinned = net.extended((v, parent[v], INF) for v in order if v != u)
                cut = min_st_cut(pinned, u, t)
                if best is None or cut.value < best.value:
                    best = cut
            assert one_respecting_mincut(net, tree, t) == best
            finite = best.value if best.value != INF else net.finite_total()
            past = net.finite_total() + 5
            for limit in {0, finite - 1, finite, finite + 1, Fr(2 * finite + 1, 2), past}:
                below = best.value < limit
                expected = best if below else None
                assert one_respecting_mincut(net, tree, t, limit=limit) == expected
                outcomes[below] += 1
        assert min(outcomes.values()) >= 80

    def test_network_without_a_non_root_node_raises(self):
        # No tree arc to cut at: an error, with or without a limit, and not
        # an assertion that python -O would skip.
        net = network_from_arcs(1, [])
        tree = Arborescence(t=0, parent=(-1,), arc_ids=(-1,))
        for limit in (None, 5):
            with pytest.raises(DircutError, match="at least 2 nodes"):
                one_respecting_mincut(net, tree, 0, limit=limit)

    def test_one_network_and_engine_per_call(self, engine_builds):
        net = random_digraph(random.Random(45), 7, ensure_sink_path=6)
        tree = min_cost_arborescence(net, 6, [1.0] * net.arc_count)
        one_respecting_mincut(net, tree, 6)
        assert len(engine_builds) == 1


class TestFindSmallCut:
    def promise_net(self) -> DirectedNetwork:
        # Vertex 0's only out-arc is the cheap one into t, so {0} is the
        # unique cut below 2; every other cut costs at least 10.
        return network_from_arcs(
            4, [(0, 3, 1), (1, 3, 10), (2, 3, 10), (1, 0, 10), (2, 1, 10)]
        )

    def test_singleton_promise_mostly_succeeds(self):
        net = self.promise_net()
        hits = 0
        for seed in range(200):
            cut = find_small_cut(net, 3, Fr(2), 1, random.Random(seed))
            if cut is not None and cut.value < 2:
                hits += 1
        assert hits >= 190  # 95% of 200

    def test_below_mincut_always_empty(self):
        net = self.promise_net()
        lam = t_mincut_exhaustive(net, 3).value
        for seed in range(10):
            assert find_small_cut(net, 3, Fr(lam), 1, random.Random(seed)) is None


class TestSizeBounded:
    def test_randomized_descent(self):
        rng = random.Random(0)
        hits = 0
        for seed in range(20):
            net = random_digraph(random.Random(100 + seed), 5, ensure_sink_path=4)
            truth = t_mincut_exhaustive(net, 4).value
            got = size_bounded_t_mincut(net, 4, k=4, rng=random.Random(seed))
            assert got.value >= truth
            assert net.cut_value(got.source_side) == got.value
            if got.value == truth:
                hits += 1
        assert hits >= 18

    @staticmethod
    def record_thresholds(monkeypatch, finder):
        """Route the search's find_small_cut calls through finder, logging them."""
        calls: list[tuple[Fr, STCut | None]] = []

        def recording(net, t, threshold, *args, **kwargs):
            cut = finder(net, t, threshold, *args, **kwargs)
            calls.append((threshold, cut))
            return cut

        monkeypatch.setattr(dircut, "find_small_cut", recording)
        return calls

    @staticmethod
    def check_descent(net, t, calls, got):
        """The first threshold is the trivial cut's value, each later one the
        previous hit's value, and the search returns its last hit after a
        miss or a hit of value 0."""
        everything = frozenset(v for v in range(net.n) if v != t)
        best = STCut(everything, net.cut_value(everything))
        assert calls[0][0] == best.value
        for threshold, cut in calls[:-1]:
            assert cut is not None and cut.value < threshold
        for (_, cut), (next_threshold, _) in zip(calls, calls[1:]):
            assert next_threshold == cut.value
        last = calls[-1][1]
        assert last is None or last.value == 0
        hits = [cut for _, cut in calls if cut is not None]
        assert got == (hits[-1] if hits else best)

    def test_descent_steps_to_each_hit(self, monkeypatch):
        calls = self.record_thresholds(monkeypatch, dircut.find_small_cut)
        rng = random.Random(1)
        for _ in range(10):
            n = rng.randint(4, 7)
            net = random_digraph(rng, n, ensure_sink_path=n - 1)
            calls.clear()
            got = size_bounded_t_mincut(
                net, n - 1, n - 1, random.Random(rng.getrandbits(64))
            )
            self.check_descent(net, n - 1, calls, got)

    def test_descent_through_every_cut_value(self, monkeypatch):
        # A finder that returns the largest cut below the threshold makes the
        # descent visit every cut value below the trivial one, in order.
        def all_cuts(net, t):
            others = [v for v in range(net.n) if v != t]
            return [
                STCut(side, net.cut_value(side))
                for r in range(1, len(others) + 1)
                for side in map(frozenset, combinations(others, r))
            ]

        def largest_below(net, t, threshold, *args, **kwargs):
            below = [cut for cut in all_cuts(net, t) if cut.value < threshold]
            return max(below, key=lambda cut: cut.value, default=None)

        calls = self.record_thresholds(monkeypatch, largest_below)
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randint(4, 6)
            net = random_digraph(rng, n, ensure_sink_path=n - 1)
            calls.clear()
            got = size_bounded_t_mincut(net, n - 1, n - 1, random.Random(0))
            self.check_descent(net, n - 1, calls, got)
            trivial = calls[0][0]
            below = sorted({c.value for c in all_cuts(net, n - 1) if c.value < trivial})
            assert [threshold for threshold, _ in calls] == [trivial, *reversed(below)]
            assert got.value == below[0] == t_mincut_exhaustive(net, n - 1).value

    def test_descent_is_exact_with_few_calls(self, monkeypatch):
        # Bisecting the cut value took about 4.3 find_small_cut calls per
        # search on these graphs; stepping to each hit takes about 2.
        calls = self.record_thresholds(monkeypatch, dircut.find_small_cut)
        rng = random.Random(0)
        searches = 100
        for _ in range(searches):
            n = rng.randint(5, 8)
            net = random_digraph(rng, n, ensure_sink_path=n - 1)
            truth = t_mincut_exhaustive(net, n - 1).value
            got = size_bounded_t_mincut(
                net, n - 1, n - 1, random.Random(rng.getrandbits(64))
            )
            assert got.value == truth
        assert len(calls) <= 3 * searches


# Edmonds and the packing loop as they were before the packing counted
# arc-id tuples, kept each node's cheapest arc from round to round and
# resolved live nodes through one flat map: the differential tests below
# hold the current code to these answers.


def reference_in_arcs(net, t, arc_ids):
    lists = [[] for _ in range(net.n)]
    for i in sorted(arc_ids):
        if net.tails[i] != net.heads[i] and net.tails[i] != t:
            lists[net.tails[i]].append(i)
    return lists


def reference_min_cost_arborescence(net, t, costs, *, arcs=None):
    n = net.n
    if arcs is None:
        arcs = reference_in_arcs(net, t, range(net.arc_count))
    tails, heads = net.tails, net.heads
    key = costs.__getitem__
    choice = [min(out, key=key) if out else -1 for out in arcs]
    choice[t] = -1
    if choice.count(-1) > 1:
        raise DircutError("no t-arborescence exists: a node cannot reach t")
    up = [-1] * n
    owner = list(range(n))
    state = [0] * n
    state[t] = 2
    cycle_cost = []
    candidates = []

    def live(v):
        root = v
        while owner[root] != root:
            root = owner[root]
        while owner[v] != root:
            owner[v], v = root, owner[v]
        return root

    for start in range(n):
        if state[start]:
            continue
        path = [start]
        state[start] = 1
        x = start
        while True:
            w = heads[choice[x]]
            if owner[w] != w:
                w = live(w)
            seen = state[w]
            if seen == 2:
                break
            if seen == 0:
                state[w] = 1
                path.append(w)
                x = w
                continue
            i = path.index(w)
            cycle = path[i:]
            del path[i:]
            s = len(choice)
            for m in cycle:
                owner[m] = up[m] = s
            owner.append(s)
            up.append(-1)
            entering = []
            for m in cycle:
                if m < n:
                    b = costs[choice[m]]
                    entering += [
                        (costs[a] - b, a) for a in arcs[m] if live(heads[a]) != s
                    ]
                else:
                    b = cycle_cost[m - n]
                    entering += [
                        (c - b, a) for c, a in candidates[m - n] if live(heads[a]) != s
                    ]
            if not entering:
                raise DircutError("no t-arborescence exists: a node cannot reach t")
            c, a = min(entering)
            choice.append(a)
            cycle_cost.append(c)
            candidates.append(entering)
            state.append(1)
            path.append(s)
            x = s
        for x in path:
            state[x] = 2
    arc_of = choice[:n]
    entered = [False] * len(choice)
    for x in range(len(choice) - 1, n - 1, -1):
        if not entered[x]:
            a = choice[x]
            v = tails[a]
            arc_of[v] = a
            while v != x:
                entered[v] = True
                v = up[v]
    parent = [heads[a] if a >= 0 else -1 for a in arc_of]
    return Arborescence(t=t, parent=tuple(parent), arc_ids=tuple(arc_of))


def reference_pack_arborescences(net, t, k, epsilon, *, iterations):
    eps = float(epsilon)
    caps = net.caps
    usable = [i for i in range(net.arc_count) if caps[i] >= 1]
    wmin = min((caps[i] for i in usable), default=1)
    omega = 1.0 / wmin
    y = [1.0] * net.arc_count
    counts = Counter()
    arcs = reference_in_arcs(net, t, usable)
    costs = [0.0] * net.arc_count
    for i in usable:
        costs[i] = y[i] / caps[i]
    for _ in range(iterations):
        tree = reference_min_cost_arborescence(net, t, costs, arcs=arcs)
        counts[tree] += 1
        top = 1.0
        for a in tree.arc_ids:
            if a >= 0:
                y[a] *= 1.0 + eps * (1.0 / caps[a]) / omega
                costs[a] = y[a] / caps[a]
                if y[a] > top:
                    top = y[a]
        if top > 1e250:
            for i in usable:
                y[i] /= top
                costs[i] = y[i] / caps[i]
    arc_counts = Counter()
    for tree, cnt in counts.items():
        for a in tree.arc_ids:
            if a >= 0:
                arc_counts[a] += cnt
    gamma_bar = max(Fr(cnt, iterations * caps[a]) for a, cnt in arc_counts.items())
    items = tuple(
        (tree, Fr(cnt, iterations) / gamma_bar) for tree, cnt in counts.items()
    )
    return dircut.ArborescencePacking(items=items, value=1 / gamma_bar)


def tie_prone_network(rng, n, t):
    """Random arcs with parallels and zero capacities, plus (usually) an arc
    into t from every other node, so that most draws have a t-arborescence."""
    net = DirectedNetwork(n)
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            for _ in range(rng.choice((1, 1, 2))):
                net.add_arc(u, v, rng.choice((0, 1, 1, 2, 3)))
    if rng.random() < 0.9:
        for v in range(n):
            if v != t:
                net.add_arc(v, t, rng.randint(1, 3))
    return net


def solve_or_error(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except DircutError as exc:
        return str(exc)


def packing_rows(packing):
    return (
        [(tree.t, tree.parent, tree.arc_ids, weight) for tree, weight in packing.items],
        packing.value,
    )


class TestAgainstPreviousEdmonds:
    def test_trees_match_on_tie_prone_costs(self):
        rng = random.Random(140)
        solved = 0
        for _ in range(400):
            n = rng.randint(2, 14)
            t = rng.randrange(n)
            net = tie_prone_network(rng, n, t)
            costs = [rng.randint(1, 3) for _ in range(net.arc_count)]
            if rng.random() < 0.3:
                costs = [float(c) / rng.choice((1, 3, 7)) for c in costs]
            got = solve_or_error(min_cost_arborescence, net, t, costs)
            want = solve_or_error(reference_min_cost_arborescence, net, t, costs)
            assert got == want
            solved += isinstance(got, Arborescence)
        assert solved >= 300

    def test_packings_match(self):
        rng = random.Random(141)
        packed = 0
        for _ in range(300):
            n = rng.randint(2, 14)
            t = rng.randrange(n)
            net = tie_prone_network(rng, n, t)
            k = rng.randint(1, 3)
            epsilon = rng.choice((0.1, 0.3, 0.5, Fr(1, 10)))
            iterations = rng.randint(1, 40)
            got = solve_or_error(pack_arborescences, net, t, k, epsilon, iterations=iterations)
            want = solve_or_error(
                reference_pack_arborescences, net, t, k, epsilon, iterations=iterations
            )
            if isinstance(want, str):
                assert got == want
                continue
            assert packing_rows(got) == packing_rows(want)
            packed += 1
        assert packed >= 250

    def test_packings_across_renormalizations(self):
        # With epsilon 0.9 an arc of the least capacity grows by 1.9 per
        # use and passes 1e250 after about 900 uses; the costs are then
        # rescaled.
        rng = random.Random(142)
        for _ in range(8):
            n = rng.randint(3, 4)
            t = rng.randrange(n)
            net = tie_prone_network(rng, n, t)
            # One node leaves only by a capacity-1 arc into t (its zero arcs
            # are no candidates), so every round uses that arc.
            lone = rng.choice([v for v in range(n) if v != t])
            arcs = [(u, v, 0 if u == lone else c) for u, v, c in net.arcs()]
            arcs += [(v, t, 1 if v == lone else rng.randint(1, 3)) for v in range(n) if v != t]
            net = network_from_arcs(n, arcs)
            iterations = rng.randint(950, 1300)
            got = pack_arborescences(net, t, 2, 0.9, iterations=iterations)
            want = reference_pack_arborescences(net, t, 2, 0.9, iterations=iterations)
            assert packing_rows(got) == packing_rows(want)
            # Some arc was used often enough to pass the bound: its count is
            # usage * iterations / value.
            wmin = min(c for c in net.caps if c >= 1)
            exponent = max(
                float(used * iterations / got.value) * math.log1p(0.9 * wmin / net.caps[a])
                for a, used in got.arc_usage().items()
            )
            assert exponent > math.log(1e250)


class TestIntegerSparsify:
    def test_matches_the_fraction_formula(self, monkeypatch):
        # Same rounded capacities and the same draws: the stream continues
        # where the Fraction formula's leaves off.
        streams = []

        class Recording(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                streams.append(self)

        monkeypatch.setattr(dircut, "random", SimpleNamespace(Random=Recording))
        rng = random.Random(143)
        for _ in range(300):
            n = rng.randint(2, 8)
            t = rng.randrange(n)
            if rng.random() < 0.5:
                params = SparsifierParams.derive(
                    Fr(rng.randint(1, 200), rng.randint(1, 9)),
                    rng.randint(1, 4),
                    Fr(rng.randint(1, 9), 10),
                    n,
                    rng.getrandbits(64),
                )
            else:
                mu = Fr(rng.randint(1, 40), rng.randint(1, 12))
                params = SparsifierParams(
                    tau=mu * 8, k=1, epsilon=Fr(1, 4), mu=mu, rng_seed=rng.getrandbits(64)
                )
            net = DirectedNetwork(n)
            for _ in range(rng.randint(0, 12)):
                cap = rng.choice((0, rng.randint(1, 50), rng.randint(1, 10**12)))
                net.add_arc(rng.randrange(n), rng.randrange(n), cap)
            out = sparsify(net, t, params)
            ref = random.Random(params.rng_seed)
            want = []
            for cap in net.caps:
                ratio = Fr(cap) / params.mu
                base = ratio.numerator // ratio.denominator
                frac = ratio - base
                if frac:
                    base += ref.randrange(frac.denominator) < frac.numerator
                want.append(base)
            assert out.caps[: net.arc_count] == want
            assert all(type(c) is int for c in out.caps)
            assert streams[-1].getrandbits(32) == ref.getrandbits(32)
