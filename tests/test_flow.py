"""Max flow / min cut engine against cut enumeration."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from laminar import (
    INF,
    DirectedNetwork,
    FlowResult,
    STCut,
    SparsifierParams,
    WeightedGraph,
    build_goldberg,
    build_modified,
    max_flow,
    min_st_cut,
    sparsify,
    t_cuts_below,
    t_mincut_exhaustive,
)
from laminar import goldberg
from laminar.flow import FlowError, max_source_side, min_source_side

from .conftest import network_from_arcs, random_connected_graph, random_digraph


def enumerate_min_st_cut(net: DirectedNetwork, s: int, t: int):
    """Minimum s-t cut value over all source sides, by direct enumeration."""
    others = [v for v in range(net.n) if v not in (s, t)]
    best = None
    for size in range(len(others) + 1):
        for extra in combinations(others, size):
            value = net.cut_value({s, *extra})
            if best is None or value < best:
                best = value
    return best


class TestMaxFlow:
    def test_single_arc(self):
        net = network_from_arcs(2, [(0, 1, 5)])
        flow = max_flow(net, 0, 1)
        assert flow.value == 5
        assert flow.residual == [0, 5]  # flow on arc i at 2i+1
        cut = min_st_cut(net, 0, 1)
        assert cut.source_side == {0} and cut.value == 5

    def test_small_diamond(self):
        # s=0, a=1, b=2, t=3; cut enumeration gives 4.
        net = network_from_arcs(4, [(0, 1, 3), (0, 2, 2), (1, 3, 2), (2, 3, 2), (1, 2, 1)])
        assert enumerate_min_st_cut(net, 0, 3) == 4
        assert max_flow(net, 0, 3).value == 4

    def test_unreachable_sink(self):
        net = network_from_arcs(3, [(1, 0, 4)])
        assert max_flow(net, 0, 2).value == 0

    def test_rejects_equal_endpoints(self):
        net = network_from_arcs(2, [(0, 1, 1)])
        with pytest.raises(FlowError):
            max_flow(net, 1, 1)

    def test_conservation_and_capacity(self):
        rng = random.Random(3)
        for _ in range(30):
            net = random_digraph(rng, rng.randint(3, 8))
            flow = max_flow(net, 0, net.n - 1)
            flows = flow.residual[1::2]
            balance = [0] * net.n
            for i, (u, v, c) in enumerate(net.arcs()):
                assert 0 <= flows[i] <= c
                assert flow.residual[2 * i] == c - flows[i]
                balance[u] -= flows[i]
                balance[v] += flows[i]
            for v in range(net.n):
                if v == 0:
                    assert balance[v] == -flow.value
                elif v == net.n - 1:
                    assert balance[v] == flow.value
                else:
                    assert balance[v] == 0

    def test_matches_cut_enumeration(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(3, 7)
            net = random_digraph(rng, n)
            s, t = 0, n - 1
            assert max_flow(net, s, t).value == enumerate_min_st_cut(net, s, t)

    def test_matches_cut_enumeration_larger(self):
        rng = random.Random(18)
        for _ in range(6):
            n = rng.randint(10, 12)
            net = random_digraph(rng, n, arc_prob=0.3)
            s, t = 0, n - 1
            assert max_flow(net, s, t).value == enumerate_min_st_cut(net, s, t)

    def test_scaling_paths_agree(self):
        # Capacities up to 10^7: plain blocking flows still reach the exact
        # max flow.
        rng = random.Random(23)
        for _ in range(20):
            net = random_digraph(rng, rng.randint(3, 7), max_cap=10**7)
            s, t = 0, net.n - 1
            assert max_flow(net, s, t).value == enumerate_min_st_cut(net, s, t)

    def test_extra_sinks(self):
        # 0 -> 1 -> 3 and 0 -> 2 -> 3: with 1 a sink too, the flow through 1
        # ends there and the cut arc moves to 0 -> 1.
        net = network_from_arcs(4, [(0, 1, 2), (1, 3, 1), (0, 2, 1), (2, 3, 5)])
        assert max_flow(net, 0, 3).value == 2
        flow = max_flow(net, 0, 3, sinks=[1, 3])
        assert flow.value == 3 and min_source_side(net, flow, 0) == {0}
        for sinks in ([0], [4], [-1]):
            with pytest.raises(FlowError):
                max_flow(net, 0, 3, sinks=sinks)

    def test_limit_early_exit(self):
        net = network_from_arcs(2, [(0, 1, 5)])
        capped = max_flow(net, 0, 1, limit=3)
        assert capped.reached_limit and capped.value >= 3
        exact = max_flow(net, 0, 1, limit=6)
        assert not exact.reached_limit and exact.value == 5
        assert min_st_cut(net, 0, 1, limit=5) is None
        assert min_st_cut(net, 0, 1, limit=6).value == 5


class TestCutSides:
    def test_canonical_minimal_side(self):
        # Two min cuts tie; the residual-reachable side is the smaller one.
        net = network_from_arcs(3, [(0, 1, 2), (1, 2, 2)])
        flow = max_flow(net, 0, 2)
        assert min_source_side(net, flow, 0) == {0}
        assert max_source_side(net, flow, 2) == {0, 1}

    def test_infinite_cut_reported(self):
        net = network_from_arcs(2, [(0, 1, INF)])
        cut = min_st_cut(net, 0, 1)
        assert cut.value == INF

    def test_mixed_infinite_finite(self):
        net = network_from_arcs(3, [(0, 1, INF), (1, 2, 7)])
        cut = min_st_cut(net, 0, 2)
        assert cut.value == 7 and cut.source_side == {0, 1}


def residual_cut_value(net: DirectedNetwork, flow, side) -> int:
    """d+(side) in the residual graph of `flow`: arc 2i runs along network
    arc i with what it can still carry, arc 2i+1 back along it with its flow."""
    inside = frozenset(side)
    total = 0
    for i, (u, v) in enumerate(zip(net.tails, net.heads)):
        if u in inside and v not in inside:
            total += flow.residual[2 * i]
        elif v in inside and u not in inside:
            total += flow.residual[2 * i + 1]
    return total


class TestResidual:
    # FlowResult.residual per arc: [left on arc 0, flow on arc 0, left on arc 1, ...]

    def test_zero_flow_identity(self):
        net = network_from_arcs(2, [(0, 1, 5)])
        zero = max_flow(net, 1, 0)  # no path, value 0
        assert zero.value == 0 and zero.residual == [5, 0]

    def test_saturating_single_arc(self):
        net = network_from_arcs(2, [(0, 1, 5)])
        assert max_flow(net, 0, 1).residual == [0, 5]

    def test_infinite_arc_keeps_infinite_residual(self):
        # An INF arc's room plus its flow is the engine's substitute, more
        # than all finite capacities together: no finite cut can saturate it.
        net = network_from_arcs(3, [(0, 1, INF), (1, 2, 4)])
        flow = max_flow(net, 0, 2)
        assert flow.residual[1] == 4 and flow.residual[2:] == [0, 4]
        assert flow.residual[0] + flow.residual[1] > net.finite_total()

    def test_validate_flow_catches_violations(self):
        from laminar.flow import FlowResult, validate_flow

        net = network_from_arcs(3, [(0, 1, 2), (1, 2, 2)])
        good = max_flow(net, 0, 2)
        validate_flow(net, good, 0, 2)
        # residual = [left on arc 0, flow on arc 0, left on arc 1, flow on arc 1]
        with pytest.raises(FlowError, match="conservation"):
            validate_flow(net, FlowResult(2, [0, 2, 1, 1]), 0, 2)
        with pytest.raises(FlowError, match="capacity"):
            validate_flow(net, FlowResult(3, [-1, 3, -1, 3]), 0, 2)
        with pytest.raises(FlowError, match="arcs"):
            validate_flow(net, FlowResult(2, [0, 2]), 0, 2)

    def test_residual_cut_identity(self):
        # d+_residual(S) = d+(S) - flow value for any side S with s, not t.
        rng = random.Random(41)
        for _ in range(25):
            n = rng.randint(3, 10)
            net = random_digraph(rng, n)
            s, t = 0, n - 1
            flow = max_flow(net, s, t)
            others = [v for v in range(n) if v not in (s, t)]
            for size in range(len(others) + 1):
                for extra in combinations(others, size):
                    side = {s, *extra}
                    assert residual_cut_value(net, flow, side) == net.cut_value(side) - flow.value


class TestTMincutExhaustive:
    def test_two_nodes(self):
        net = network_from_arcs(2, [(0, 1, 7)])
        cut = t_mincut_exhaustive(net, 1)
        assert cut.source_side == {0} and cut.value == 7

    def test_star_into_sink(self):
        net = network_from_arcs(5, [(v, 4, v + 1) for v in range(4)])
        cut = t_mincut_exhaustive(net, 4)
        assert cut.value == 1 and cut.source_side == {0}

    def test_all_infinite(self):
        net = network_from_arcs(3, [(0, 2, INF), (1, 2, INF)])
        cut = t_mincut_exhaustive(net, 2)
        assert cut.value == INF

    def test_limit_semantics(self):
        net = network_from_arcs(2, [(0, 1, 7)])
        assert t_mincut_exhaustive(net, 1, limit=7) is None
        assert t_mincut_exhaustive(net, 1, limit=8).value == 7

    def test_matches_subset_enumeration(self):
        from laminar import brute_t_mincut

        rng = random.Random(59)
        for _ in range(30):
            n = rng.randint(2, 7)
            net = random_digraph(rng, n)
            t = rng.randrange(n)
            fast = t_mincut_exhaustive(net, t)
            brute = brute_t_mincut(net, t)
            assert fast.value == brute.value
            assert net.cut_value(fast.source_side) == fast.value

    def test_single_node_rejected(self):
        with pytest.raises(FlowError):
            t_mincut_exhaustive(DirectedNetwork(1), 0)


def big_random_network(
    rng: random.Random, n: int, arcs_per_node: int = 3, max_cap: int = 60
) -> DirectedNetwork:
    """Sparse random network with parallel arcs, zero arcs and a few INF arcs."""
    net = DirectedNetwork(n)
    for _ in range(arcs_per_node * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        roll = rng.random()
        net.add_arc(u, v, INF if roll < 0.04 else 0 if roll < 0.08 else rng.randint(1, max_cap))
    return net


def to_networkx(net: DirectedNetwork):
    """The network as a networkx DiGraph; parallel arcs merge, INF arcs have no capacity."""
    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    graph.add_nodes_from(range(net.n))
    for u, v, c in net.arcs():
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, capacity=0)
        data = graph[u][v]
        if c == INF or "capacity" not in data:
            data.pop("capacity", None)
        else:
            data["capacity"] += c
    return graph


def networkx_cut(net: DirectedNetwork, s: int, t: int):
    """(max flow value, minimal source side, maximal source side) by preflow_push.

    The value is INF when networkx reports an infinite-capacity s-t path.
    """
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.flow import preflow_push

    try:
        res = preflow_push(to_networkx(net), s, t)
    except nx.NetworkXUnbounded:
        return INF, None, None
    open_arcs = [(u, v) for u, v, d in res.edges(data=True) if d["capacity"] > d["flow"]]
    forward = nx.DiGraph(open_arcs)
    forward.add_nodes_from(range(net.n))
    from_s = nx.descendants(forward, s) | {s}
    to_t = nx.ancestors(forward, t) | {t}
    return res.graph["flow_value"], frozenset(from_s), frozenset(range(net.n)) - to_t


class TestPastTheOracleGuards:
    """networkx preflow_push as a second max-flow implementation, n up to 300."""

    def test_values_and_both_sides(self):
        # The last network's capacities mostly exceed 2^40: the densest-set
        # probes scale edge weights by n*den(tau), up to n^2, so heavy
        # weights reach that range.
        rng = random.Random(71)
        for n, max_cap in ((20, 60), (60, 60), (150, 60), (300, 60), (300, 60), (150, 1 << 45)):
            net = big_random_network(rng, n, max_cap=max_cap)
            for _ in range(3):
                s, t = rng.sample(range(n), 2)
                value, low, high = networkx_cut(net, s, t)
                flow = max_flow(net, s, t)
                cut = min_st_cut(net, s, t)
                if value == INF:
                    assert cut.value == INF and flow.value > net.finite_total()
                    continue
                assert flow.value == cut.value == value
                assert min_source_side(net, flow, s) == cut.source_side == low
                assert max_source_side(net, flow, t) == high
                assert net.cut_value(low) == net.cut_value(high) == value
            unbounded = net.extended([(s, t, INF)])
            assert networkx_cut(unbounded, s, t)[0] == INF
            assert min_st_cut(unbounded, s, t).value == INF

    def test_limit_runs(self):
        rng = random.Random(72)
        checked = 0
        for n in (40, 120, 250):
            net = big_random_network(rng, n, arcs_per_node=4)
            for _ in range(4):
                s, t = rng.sample(range(n), 2)
                value, low, _ = networkx_cut(net, s, t)
                if value == INF or value == 0:
                    continue
                checked += 1
                for limit in (value // 2, value, value + 1):
                    capped = max_flow(net, s, t, limit=limit)
                    assert capped.reached_limit == (limit <= value)
                    if capped.reached_limit:
                        assert limit <= capped.value <= value
                        assert min_st_cut(net, s, t, limit=limit) is None
                    else:
                        assert capped.value == value
                        cut = min_st_cut(net, s, t, limit=limit)
                        assert cut.value == value and cut.source_side == low
        assert checked >= 6

    def test_t_mincut_scan(self):
        rng = random.Random(73)
        for n, inf_arcs in ((25, 0), (40, 0), (150, 0), (60, 24)):
            net = big_random_network(rng, n)
            t = rng.randrange(n)
            others = [v for v in range(n) if v != t]
            for _ in range(inf_arcs):  # about half into t: infinite sources
                u, v = rng.sample(others, 2)
                net.add_arc(u, t if rng.random() < 0.5 else v, INF)
            values = {s: networkx_cut(net, s, t)[0] for s in others}
            assert (INF in values.values()) == (inf_arcs > 0)
            best = min(values.values())
            cut = t_mincut_exhaustive(net, t)
            assert cut.value == best
            if best != INF:
                assert net.cut_value(cut.source_side) == best and t not in cut.source_side
                assert t_mincut_exhaustive(net, t, limit=best) is None
                assert t_mincut_exhaustive(net, t, limit=best + 1).value == best
                hits = [s for s in values if values[s] == best]
                sources = [s for s in range(n) if s not in hits] + hits[:1]
                assert t_mincut_exhaustive(net, t, sources=sources).value == best

    def test_sink_set_flows(self):
        # The textbook reduction of extra sinks: a copy with an INF arc from
        # each of them to t.
        rng = random.Random(74)
        finite = 0
        for n in (30, 80, 150):
            net = big_random_network(rng, n)
            for _ in range(4):
                s, t, *sinks = rng.sample(range(n), 2 + rng.randint(1, n // 5))
                reduction = net.extended((v, t, INF) for v in sinks)
                value, low, _ = networkx_cut(reduction, s, t)
                flow = max_flow(net, s, t, sinks=sinks)
                if value == INF:
                    assert flow.value > net.finite_total()
                    continue
                finite += 1
                assert flow.value == value
                assert min_source_side(net, flow, s) == low
        assert finite >= 6


class TestEngineReuse:
    def test_set_cap_equals_a_fresh_network(self):
        rng = random.Random(75)
        for _ in range(30):
            n = rng.randint(3, 9)
            net = random_digraph(rng, n)
            if not net.arc_count:
                continue
            engine = net.engine()
            edited = list(net.caps)
            for _ in range(3):
                arc = rng.randrange(net.arc_count)
                # Finite edits only lower: the original cap bounds an INF arc.
                ceiling = net.caps[arc] if edited[arc] == INF else edited[arc]
                edited[arc] = rng.choice([0, INF, rng.randint(0, ceiling)])
                engine.set_cap(arc, edited[arc])
                fresh = network_from_arcs(n, list(zip(net.tails, net.heads, edited)))
                s, t = rng.sample(range(n), 2)
                # The substitute for INF differs (fresh totals are smaller), so
                # compare finite answers and sides only.
                got, want = max_flow(net, s, t), max_flow(fresh, s, t)
                if want.value <= fresh.finite_total():
                    assert got.value == want.value
                    assert min_source_side(net, got, s) == min_source_side(fresh, want, s)
                    assert max_source_side(net, got, t) == max_source_side(fresh, want, t)

    def test_set_cap_only_lowers_finite_caps(self):
        net = network_from_arcs(3, [(0, 1, 5), (1, 2, 3)])
        engine = net.engine()
        engine.set_cap(0, 2)
        for cap in (3, -1):
            with pytest.raises(FlowError, match="only be lowered"):
                engine.set_cap(0, cap)
        engine.set_cap(0, INF)
        engine.set_cap(0, 4)
        assert max_flow(net, 0, 2).value == 3

    def test_flow_results_compare_by_identity(self):
        net = network_from_arcs(2, [(0, 1, 5)])
        a, b = max_flow(net, 0, 1), max_flow(net, 0, 1)
        assert a.residual == b.residual and a != b and a == a
        assert len({a, b}) == 2

    def test_pinned_scan_equals_fresh_per_source_cuts(self):
        rng = random.Random(76)
        for _ in range(60):
            n = rng.randint(2, 9)
            net = random_digraph(rng, n, arc_prob=0.45)
            if rng.random() < 0.3 and net.arc_count:
                net.caps[rng.randrange(net.arc_count)] = INF
                net = network_from_arcs(n, list(net.arcs()))
            t = rng.randrange(n)
            sources = [v for v in range(n) if v != t]
            if rng.random() < 0.5:
                sources = rng.sample(sources, rng.randint(1, len(sources)))
            # Fresh: one min_st_cut per source on a network nothing edits.
            fresh = network_from_arcs(n, list(net.arcs()))
            cuts = [(min_st_cut(fresh, s, t), s) for s in sources]
            first = min(cuts, key=lambda item: (item[0].value, sources.index(item[1])))[0]
            limit = rng.choice([None, first.value, first.value + 1, first.value + 5])
            if limit == INF:
                limit = None
            got = t_mincut_exhaustive(net, t, limit=limit, sources=sources)
            # Repeated sources and t itself are skipped.
            noisy = [v for s in sources for v in (s, t, s)]
            assert t_mincut_exhaustive(net, t, limit=limit, sources=noisy) == got
            if limit is not None and first.value >= limit:
                assert got is None
                continue
            assert got.value == first.value
            if first.value != INF:
                assert got.source_side == first.source_side

    def test_scan_builds_one_engine(self, engine_builds):
        net = random_digraph(random.Random(77), 8)
        t_mincut_exhaustive(net, 7)
        assert engine_builds == [net]


def reference_run(engine, s, sink, limit):
    """Dinic as the engine ran it before dead ends at the sink depth were
    unlabeled: the search enters them, finds no arc on and backs up."""
    n, to, adj = engine.n, engine.to, engine.adj
    cap = engine.base_cap.copy()
    value = 0
    if limit is not None and value >= limit:
        return value, cap, True
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        qi = 0
        depth = n
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            lv = level[v] + 1
            if lv > depth:
                break
            for a in adj[v]:
                if cap[a]:
                    w = to[a]
                    if level[w] < 0:
                        level[w] = lv
                        if sink[w]:
                            depth = lv
                        else:
                            queue.append(w)
        if depth == n:
            break
        it = [0] * n
        while True:
            path = []
            v = s
            found = False
            while True:
                if sink[v]:
                    found = True
                    break
                advanced = False
                itv = it[v]
                adj_v = adj[v]
                la = len(adj_v)
                lv1 = level[v] + 1
                while itv < la:
                    a = adj_v[itv]
                    if cap[a] and level[to[a]] == lv1:
                        advanced = True
                        break
                    itv += 1
                it[v] = itv
                if advanced:
                    path.append(a)
                    v = to[a]
                    continue
                if not path:
                    break
                level[v] = -1
                a = path.pop()
                v = to[a ^ 1]
            if not found:
                break
            bottleneck = min(map(cap.__getitem__, path))
            for a in path:
                cap[a] -= bottleneck
                cap[a ^ 1] += bottleneck
            value += bottleneck
            if limit is not None and value >= limit:
                return value, cap, True
    return value, cap, False


class TestCarriedFlows:
    def test_runs_match_the_reference_engine(self):
        # Same paths in the same order: value, limit flag and every residual
        # entry agree with the reference.
        rng = random.Random(78)
        for _ in range(400):
            n = rng.randint(2, 14)
            net = big_random_network(rng, n, arcs_per_node=rng.randint(0, 4), max_cap=30)
            s, t = rng.sample(range(n), 2)
            sinks = rng.sample([v for v in range(n) if v != s], rng.randint(0, n - 2))
            limit = rng.choice([None, 0, rng.randint(1, 60)])
            flow = max_flow(net, s, t, limit=limit, sinks=sinks)
            mark = [False] * n
            for v in (t, *sinks):
                mark[v] = True
            want = reference_run(net.engine(), s, mark, limit)
            assert (flow.value, flow.residual, flow.reached_limit) == want

    def test_scan_equals_cold_flows_per_source(self):
        # t_cuts_below carries one residual from source to source; cold
        # max_flow calls from zero with the same sink sets give the same cuts.
        rng = random.Random(79)
        for _ in range(300):
            n = rng.randint(2, 12)
            net = big_random_network(rng, n, arcs_per_node=rng.randint(0, 4), max_cap=30)
            t = rng.randrange(n)
            sources = None
            if rng.random() < 0.6:
                sources = [rng.randrange(n) for _ in range(rng.randint(1, 2 * n))]
            limit = rng.choice([None, rng.randint(0, 40)])
            want, retired = [], {t}
            for s in range(n) if sources is None else sources:
                if s in retired:
                    continue
                cold = max_flow(net, s, t, limit=limit, sinks=retired)
                if not cold.reached_limit:
                    value = INF if cold.value > net.finite_total() else cold.value
                    want.append(STCut(min_source_side(net, cold, s), value))
                retired.add(s)
            assert t_cuts_below(net, t, limit=limit, sources=sources) == want

    def test_scan_rejects_an_out_of_range_source(self):
        net = network_from_arcs(3, [(0, 2, 1), (1, 2, 4)])
        for bad in (3, -1):
            with pytest.raises(FlowError):
                t_cuts_below(net, 2, sources=[0, 1, bad])

    def test_start_of_another_length_is_rejected(self):
        net = network_from_arcs(3, [(0, 1, 2), (1, 2, 3)])
        other = network_from_arcs(2, [(0, 1, 1)])
        with pytest.raises(FlowError, match="does not match"):
            max_flow(net, 1, 2, start=max_flow(other, 0, 1))

    def test_start_continues_the_given_residual(self):
        # 0 -> 1 -> 2 carries 2 units.  The flow out of 1 into {0, 2} sends
        # them back to 0 and the 1 unit left on 1 -> 2 on: its value is
        # d+({1}) = 3, as from zero, and its residual holds both flows.
        net = network_from_arcs(3, [(0, 1, 2), (1, 2, 3)])
        first = max_flow(net, 0, 2)
        assert first.residual == [0, 2, 1, 2]
        second = max_flow(net, 1, 2, sinks=[0], start=first)
        assert second.value == 3 and second.residual is first.residual
        assert second.residual == [2, 0, 0, 3]


def add_arc_copy(net: DirectedNetwork) -> DirectedNetwork:
    """The same arcs, each through the checks of public add_arc."""
    public = DirectedNetwork(net.n)
    for u, v, c in net.arcs():
        public.add_arc(u, v, c)
    return public


def goldberg_by_add_arc(graph, tau):
    """The density network's arcs, in the documented order, by add_arc."""
    n, m = graph.n, graph.m
    net = DirectedNetwork(n + m + 2)
    s, t = n + m, n + m + 1
    for idx, (u, v, w) in enumerate(graph.edges):
        net.add_arc(s, n + idx, tau.denominator * w)
        net.add_arc(n + idx, u, INF)
        net.add_arc(n + idx, v, INF)
    for v in range(n):
        net.add_arc(v, t, tau.numerator)
    return net


class TestDerivedNetworks:
    def test_bulk_built_networks_equal_add_arc_built_ones(self):
        # build_goldberg, build_modified, its one-way view, sparsify and
        # extended skip the per-arc checks; their arcs must pass them and
        # give the same lists and finite total.
        def same(net, public):
            assert (net.n, net.tails, net.heads, net.caps) == (
                public.n, public.tails, public.heads, public.caps
            )
            assert net.finite_total() == public.finite_total()
            assert all(c == INF or type(c) is int for c in net.caps)

        rng = random.Random(144)
        modified = 0
        for _ in range(200):
            graph = random_connected_graph(rng, rng.randint(1, 9))
            tau = Fraction(rng.randint(1, 60), rng.randint(1, 7))
            h = build_goldberg(graph, tau)
            same(h.network, add_arc_copy(h.network))
            same(h.network, goldberg_by_add_arc(graph, tau))
            flow = max_flow(h.network, h.s, h.t, limit=h.saturation_target())
            if flow.value == h.saturation_target():
                shortcut = build_modified(h, flow)
                same(shortcut.network, add_arc_copy(shortcut.network))
                one_way = shortcut.one_way()
                same(one_way, add_arc_copy(one_way))
                modified += 1
            n = rng.randint(2, 8)
            net = random_digraph(rng, n, arc_prob=0.4, max_cap=rng.choice((9, 10**6)))
            t = rng.randrange(n)
            params = SparsifierParams.derive(
                Fraction(rng.randint(1, 90), rng.randint(1, 5)), rng.randint(1, 3),
                Fraction(1, 10), n, rng.getrandbits(64),
            )
            sparse = sparsify(net, t, params)
            same(sparse, add_arc_copy(sparse))
            extra = [(rng.randrange(n), rng.randrange(n), rng.choice((0, 3, INF)))
                     for _ in range(rng.randint(0, 4))]
            same(net.extended(extra), network_from_arcs(n, [*net.arcs(), *extra]))
        assert modified >= 50

    @pytest.mark.parametrize("validated", [True, False])
    def test_modified_rejects_a_flow_above_a_capacity(self, monkeypatch, validated):
        # A given flow is validated only with assertions on; without them,
        # a flow that leaves a shortcut capacity negative still raises.
        if not validated:
            monkeypatch.setattr(goldberg, "validate_flow", lambda *args: None)
        graph = WeightedGraph.from_edges(3, [(0, 1, 2), (1, 2, 1)])
        h = build_goldberg(graph, Fraction(3))
        flow = max_flow(h.network, h.s, h.t)
        assert flow.value == h.saturation_target()
        build_modified(h, flow)
        sink = 3 * graph.m + 1  # arc 3m+v is v -> t
        into = 1  # arc 3e+1 is e -> u
        for arc, bad in ((sink, h.tau.numerator + 1), (into, -1)):
            residual = list(flow.residual)
            residual[2 * arc + 1] = bad
            with pytest.raises(FlowError):
                build_modified(h, FlowResult(flow.value, residual))

    @pytest.mark.parametrize("validated", [True, False])
    def test_paired_shortcut_rejects_a_flow_above_a_capacity(self, monkeypatch, validated):
        # Arc e of the shortcut network is u -> v with residual slots
        # (f(e -> u), f(e -> v)). With validate_flow skipped, as under -O,
        # a flow that leaves either slot of a pair negative still raises.
        if not validated:
            monkeypatch.setattr(goldberg, "validate_flow", lambda *args: None)
        graph = WeightedGraph.from_edges(3, [(0, 1, 2), (1, 2, 1)])
        h = build_goldberg(graph, Fraction(3))
        flow = max_flow(h.network, h.s, h.t)
        assert flow.value == h.saturation_target()
        shortcut = build_modified(h, flow)
        assert shortcut.start.residual == [2, 0, 1, 0, 1, 0, 2, 0, 3, 0]
        assert shortcut.network.caps == [2, 1, 1, 2, 3]
        sink = 3 * graph.m + 1  # arc 3m+v is v -> t
        for arc, bad in ((sink, h.tau.numerator + 1), (1, -1), (2, -1)):
            residual = list(flow.residual)
            residual[2 * arc + 1] = bad
            with pytest.raises(FlowError):
                build_modified(h, FlowResult(flow.value, residual))

    @pytest.mark.parametrize("arc", [(3, 0, 1), (0, -1, 1), (0, 1, -1), (0, 1, 1.5)])
    def test_extended_checks_the_new_arcs(self, arc):
        net = network_from_arcs(3, [(0, 1, 2)])
        with pytest.raises(FlowError):
            net.extended([(1, 2, 1), arc])
        with pytest.raises(FlowError):
            net.add_arc(*arc)
