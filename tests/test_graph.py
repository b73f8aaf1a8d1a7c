"""Graph primitives: densities, ratios, contraction, rank."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction as Fr
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laminar import (
    MultiwayCut,
    WeightedGraph,
    connected_components,
    contract,
    induced_subgraph,
    parse_edge_list,
    rank,
    skew_density,
)
from laminar.graph import EdgeListError, GraphError, component_subgraphs

from .conftest import format_edge_list, random_connected_graph, random_graph


def all_subset_densities(graph: WeightedGraph):
    vertices = range(graph.n)
    for size in range(1, graph.n + 1):
        for subset in combinations(vertices, size):
            yield frozenset(subset), skew_density(graph, subset)


class TestSkewDensity:
    def test_heavy_pair_on_path(self, trubin_path):
        assert skew_density(trubin_path, {2, 3}) == Fr(100, 1)

    def test_singleton_is_zero(self, trubin_path):
        for v in range(4):
            assert skew_density(trubin_path, {v}) == 0
        assert skew_density(trubin_path, set()) == 0

    def test_triangle_whole_graph(self, unit_triangle):
        # Confirmed by the subset enumeration below: 3/2 is the maximum.
        assert skew_density(unit_triangle, {0, 1, 2}) == Fr(3, 2)
        assert max(d for _, d in all_subset_densities(unit_triangle)) == Fr(3, 2)

    def test_density_times_size_is_inside_weight(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 7))
            for s, rho in all_subset_densities(g):
                assert rho * (len(s) - 1) == g.weight_inside(s)

    def test_rejects_foreign_vertices(self, unit_triangle):
        with pytest.raises(GraphError):
            skew_density(unit_triangle, {0, 7})


class TestMultiwayCut:
    def test_two_sided_cut_on_path(self, trubin_path):
        cut = MultiwayCut(trubin_path, [{0, 1}, {2, 3}])
        assert cut.boundary == {1}
        assert cut.ratio == Fr(1, 1)

    def test_all_singleton_ratio_is_whole_graph_density(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 8))
            cut = MultiwayCut(g, [{v} for v in range(g.n)])
            assert cut.ratio == skew_density(g, range(g.n))

    def test_three_sides_on_c4(self, unit_c4):
        cut = MultiwayCut(unit_c4, [{0}, {1}, {2, 3}])
        assert cut.boundary_weight == 3
        assert cut.ratio == Fr(3, 2)

    def test_rejects_non_partition(self, unit_triangle):
        with pytest.raises(GraphError):
            MultiwayCut(unit_triangle, [{0, 1}, {1, 2}])
        with pytest.raises(GraphError):
            MultiwayCut(unit_triangle, [{0, 1, 2}])


class TestContract:
    def test_contract_heavy_pair(self, trubin_path):
        contracted, forward = contract(trubin_path, {2, 3})
        assert contracted.n == 3
        assert sorted(contracted.edges) == [(0, 1, 2), (1, 2, 1)]
        assert forward == (0, 1, 2, 2)

    def test_contract_singleton_is_identity(self, unit_c4):
        contracted, forward = contract(unit_c4, {2})
        assert contracted.n == unit_c4.n
        assert sorted(contracted.edges) == sorted(unit_c4.edges)
        assert forward == (0, 1, 2, 3)

    def test_contract_everything(self, trubin_path):
        contracted, forward = contract(trubin_path, range(4))
        assert contracted.n == 1
        assert contracted.m == 0
        assert forward == (0, 0, 0, 0)

    def test_parallel_edges_are_kept(self):
        g = WeightedGraph.from_edges(4, [(0, 1, 2), (0, 2, 3), (1, 3, 1), (2, 3, 5)])
        contracted, _ = contract(g, {1, 2})
        assert contracted.m == 4
        assert sorted(contracted.edges) == [(0, 1, 2), (0, 1, 3), (1, 2, 1), (1, 2, 5)]

    def test_rejects_bad_sets(self, unit_triangle):
        with pytest.raises(GraphError):
            contract(unit_triangle, set())
        with pytest.raises(GraphError):
            contract(unit_triangle, {0, 9})
        with pytest.raises(GraphError):
            contract(unit_triangle)
        with pytest.raises(GraphError, match="disjoint"):
            contract(unit_triangle, {0, 1}, {0, 2})
        with pytest.raises(GraphError):
            contract(unit_triangle, {0}, {1}, set())

    def test_disjoint_sets_in_one_pass_match_one_after_another(self):
        rng = random.Random(19)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 12))
            order = list(range(g.n))
            rng.shuffle(order)
            cuts = sorted(rng.sample(range(1, g.n + 1), rng.randint(1, min(g.n, 4))))
            sets = [frozenset(order[a:b]) for a, b in zip([0, *cuts], cuts)]
            contracted, forward = contract(g, *sets)
            one_by_one, composed = g, list(range(g.n))
            for s in sets:
                one_by_one, step = contract(one_by_one, {composed[v] for v in s})
                composed = [step[v] for v in composed]
            assert contracted == one_by_one
            assert list(forward) == composed
            # Each node holds exactly one set, or one vertex outside them all,
            # and takes the slot of its smallest vertex: slots keep their order.
            members = {}
            for v, node in enumerate(forward):
                members.setdefault(node, set()).add(v)
            assert sorted(members) == list(range(contracted.n))
            assert {frozenset(members[forward[min(s)]]) for s in sets} == set(sets)
            firsts = [min(members[node]) for node in range(contracted.n)]
            assert firsts == sorted(firsts)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_contraction_preserves_cut_weights(self, hyp_rng):
        # For U containing S or disjoint from S, the boundary weight of U is
        # unchanged by contracting S.
        g = random_connected_graph(hyp_rng, hyp_rng.randint(2, 8))
        vertices = list(range(g.n))
        s = frozenset(hyp_rng.sample(vertices, hyp_rng.randint(1, g.n)))
        rest = [v for v in vertices if v not in s]
        if hyp_rng.random() < 0.5 and rest:
            u = frozenset(hyp_rng.sample(rest, hyp_rng.randint(1, len(rest))))
        else:
            u = s | frozenset(
                hyp_rng.sample(rest, hyp_rng.randint(0, len(rest)))
            )
        contracted, forward = contract(g, s)
        u_mapped = {forward[v] for v in u}
        assert g.boundary_weight(u) == contracted.boundary_weight(u_mapped)


class TestInducedSubgraph:
    def test_whole_graph(self, trubin_path):
        sub, mapping = induced_subgraph(trubin_path, range(4))
        assert sub.n == 4 and sorted(sub.edges) == sorted(trubin_path.edges)
        assert mapping == (0, 1, 2, 3)

    def test_single_edge(self, trubin_path):
        sub, mapping = induced_subgraph(trubin_path, {0, 1})
        assert sub.edges == ((0, 1, 2),)
        assert mapping == (0, 1)

    def test_no_internal_edges(self, trubin_path):
        sub, _ = induced_subgraph(trubin_path, {0, 2})
        assert sub.n == 2 and sub.m == 0

    def test_rejects_foreign_vertices(self, trubin_path):
        for bad in ({0, 4}, {-1}, {"a"}):
            with pytest.raises(GraphError):
                induced_subgraph(trubin_path, bad)

    def test_component_subgraphs_are_the_induced_components(self):
        # One pass over the edges gives what induced_subgraph gives per
        # component, in order of smallest vertex.
        rng = random.Random(41)
        for trial in range(30):
            g = random_graph(rng, rng.randint(0, 12), edge_prob=rng.choice((0.1, 0.25)))
            expected = [
                induced_subgraph(g, comp) for comp in sorted(connected_components(g), key=min)
            ]
            assert list(component_subgraphs(g)) == expected
        assert list(component_subgraphs(WeightedGraph.from_edges(3, []))) == [
            (WeightedGraph(1, ()), (v,)) for v in range(3)
        ]


class TestComponentsAndRank:
    def test_no_edges_all_singletons(self, unit_c4):
        assert connected_components(unit_c4, []) == [frozenset({v}) for v in range(4)]

    def test_full_edge_set_connected(self, unit_c4):
        assert connected_components(unit_c4) == [frozenset(range(4))]

    def test_path_minus_middle_edge(self, trubin_path):
        comps = connected_components(trubin_path, [0, 2])
        assert set(comps) == {frozenset({0, 1}), frozenset({2, 3})}

    def test_rank_extremes(self, trubin_path):
        assert rank(trubin_path, []) == 0
        assert rank(trubin_path) == 3
        assert rank(trubin_path, [0, 2]) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_rank_submodularity(self, hyp_rng):
        g = random_connected_graph(hyp_rng, hyp_rng.randint(2, 7), extra_edges=6)
        edge_ids = list(range(g.m))
        b = set(hyp_rng.sample(edge_ids, hyp_rng.randint(0, g.m)))
        a = set(hyp_rng.sample(sorted(b), hyp_rng.randint(0, len(b)))) if b else set()
        outside = [e for e in edge_ids if e not in b]
        x = set(hyp_rng.sample(outside, hyp_rng.randint(0, len(outside))))
        lhs = rank(g, b | x) - rank(g, b)
        rhs = rank(g, a | x) - rank(g, a)
        assert lhs <= rhs


    def test_connectivity_is_computed_once_per_graph(self, monkeypatch):
        import laminar.graph as graph_module
        from laminar import compute_arboricity

        calls = []
        real = graph_module._component_roots

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(graph_module, "_component_roots", counting)
        g = random_connected_graph(random.Random(3), 9)
        compute_arboricity(g)
        assert g.is_connected() and len(calls) == 1
        split = WeightedGraph.from_edges(4, [(0, 1, 1), (2, 3, 1), (0, 1, 2)])
        assert not split.is_connected() and not split.is_connected()
        assert len(calls) == 2
        assert split == WeightedGraph.from_edges(4, split.edges)

    def test_contraction_hands_on_connectivity(self, monkeypatch):
        # A hierarchy build checks every round's graph, yet only its input
        # runs a union-find: contracting a connected graph keeps it connected.
        import laminar.graph as graph_module
        from laminar import build_hierarchy

        calls = []
        real = graph_module._component_roots

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(graph_module, "_component_roots", counting)
        rng = random.Random(43)
        for n in (2, 9, 30):
            calls.clear()
            build_hierarchy(random_connected_graph(rng, n))
            assert len(calls) == 1
        # An unknown or negative answer is not handed on; contracting can
        # join components, so the result runs its own check.
        calls.clear()
        split = WeightedGraph.from_edges(4, [(0, 1, 1), (2, 3, 1), (0, 1, 2), (2, 3, 2)])
        fresh, _ = contract(split, {1, 2})
        assert fresh.is_connected() and len(calls) == 1
        assert not split.is_connected() and len(calls) == 2
        joined, _ = contract(split, {1, 2})
        assert joined.is_connected() and len(calls) == 3
        apart, _ = contract(split, {0, 1})
        assert not apart.is_connected() and len(calls) == 4


class TestEdgeList:
    def test_roundtrip(self, trubin_path):
        assert parse_edge_list(format_edge_list(trubin_path)) == trubin_path

    def test_comments_and_blank_lines(self):
        text = "# a path\n\n3 2\n0 1 4\n# middle comment\n1 2 5\n"
        g = parse_edge_list(text)
        assert g.n == 3 and g.edges == ((0, 1, 4), (1, 2, 5))

    @pytest.mark.parametrize(
        "text,line",
        [
            ("3\n0 1 4\n", 1),
            ("2 1\n0 1\n", 2),
            ("2 1\n0 2 4\n", 2),
            ("2 1\n0 0 4\n", 2),
            ("2 1\n0 1 0\n", 2),
            ("# only comments\n", 1),
        ],
    )
    def test_malformed_lines_report_position(self, text, line):
        with pytest.raises(EdgeListError) as err:
            parse_edge_list(text)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text,line,value",
        [
            ("2 1\n0 1 1_000\n", 2, "1_000"),
            ("2 1\n0 1 \uff12\n", 2, "\uff12"),  # full-width 2
            ("2 1\n0 \u0661 1\n", 2, "\u0661"),  # Arabic-Indic 1
            ("2 1\n0 1 \U0001d7d0\n", 2, "\U0001d7d0"),  # mathematical bold 2
            ("1_0 1\n0 1 1\n", 1, "1_0"),
            ("\u0662 1\n0 1 1\n", 1, "\u0662"),  # Arabic-Indic 2
        ],
    )
    def test_values_are_ascii_decimal_only(self, text, line, value):
        # int() reads each of these values; the format takes ASCII digits alone.
        assert int(value) > 0
        with pytest.raises(EdgeListError, match="values must be integers") as err:
            parse_edge_list(text)
        assert err.value.line == line

    def test_unicode_whitespace_separates_ascii_values(self):
        # split() cuts at any Unicode whitespace, so ASCII digits between
        # such spaces are values.  A line holding one is read value by value,
        # and a bad value on it is still refused with its line number.
        plain = parse_edge_list("3 2\n0 1 5\n1 2 7\n")
        spaced = parse_edge_list("3\u00a02\n0\u20031\u30005\n1 2\u00a07\n")
        assert (spaced.n, spaced.edges) == (plain.n, plain.edges)
        for text, line in (
            ("3 1\n0\u00a01 1_0\n", 2),
            ("3\u00a01_0\n0 1 1\n", 1),
            ("3 1\n0\u00a0\u0661 1\n", 2),
        ):
            with pytest.raises(EdgeListError, match="values must be integers") as err:
                parse_edge_list(text)
            assert err.value.line == line

    def test_header_alone_allocates_nothing_per_vertex(self):
        # A graph keeps only its edge tuple, so a header announcing a million
        # vertices costs no per-vertex storage before any edge is read.
        tracemalloc.start()
        try:
            g = parse_edge_list("1000000 0\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n == 1_000_000 and g.m == 0
        assert peak < 1 << 20

    def test_graph_validation(self):
        with pytest.raises(GraphError):
            WeightedGraph.from_edges(2, [(0, 0, 1)])
        with pytest.raises(GraphError):
            WeightedGraph.from_edges(2, [(0, 1, 0)])
        with pytest.raises(GraphError):
            WeightedGraph.from_edges(2, [(0, 5, 1)])

    @pytest.mark.parametrize(
        "n,edge,text",
        [
            (2, (0, 2, 1), "2 1\n0 2 1\n"),
            (2, (-1, 1, 1), "2 1\n-1 1 1\n"),
            (2, (1, 1, 1), "2 1\n1 1 1\n"),
            (2, (0, 1, 0), "2 1\n0 1 0\n"),
            (2, (0, 1, -3), "2 1\n0 1 -3\n"),
            (2, (0, 1, 1.5), "2 1\n0 1 1.5\n"),
            (-1, None, "-1 0\n"),
        ],
    )
    def test_public_construction_checks_every_edge_kind(self, n, edge, text):
        # Only graphs derived from a valid graph skip the edge checks.
        edges = () if edge is None else ((0, 1, 1), edge)
        with pytest.raises(GraphError):
            WeightedGraph(n, edges)
        with pytest.raises(GraphError):
            WeightedGraph.from_edges(n, edges)
        with pytest.raises(EdgeListError):
            parse_edge_list(text)

    def test_derived_graphs_equal_publicly_built_ones(self):
        # contract, induced_subgraph and component_subgraphs build their
        # results without checking edges again; the graphs they return must
        # be the ones public construction gives, by == and by hash.
        rng = random.Random(43)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 12), edge_prob=rng.choice((0.15, 0.4)))
            order = list(range(g.n))
            rng.shuffle(order)
            cuts = sorted(rng.sample(range(1, g.n + 1), rng.randint(1, min(g.n, 3))))
            sets = [order[a:b] for a, b in zip([0, *cuts], cuts)]
            derived = [contract(g, *sets)[0], induced_subgraph(g, sets[0])[0]]
            derived += [sub for sub, _ in component_subgraphs(g)]
            for graph in derived:
                public = WeightedGraph(graph.n, tuple(graph.edges))
                assert type(graph) is WeightedGraph
                assert graph == public and hash(graph) == hash(public)
                assert graph.is_connected() == public.is_connected()


def test_merged_edges_view():
    g = WeightedGraph.from_edges(3, [(0, 1, 2), (1, 0, 3), (1, 2, 1)])
    assert g.merged_edges() == {(0, 1): 5, (1, 2): 1}


def test_merged_edge_count_hands_its_map_to_the_next_view_once():
    g = WeightedGraph.from_edges(3, [(0, 1, 2), (1, 0, 3), (1, 2, 1)])
    assert g.merged_edge_count() == 2
    counted = g.merged_edges()
    assert counted == {(0, 1): 5, (1, 2): 1}
    counted[(0, 1)] = 0  # the caller owns it: the graph keeps no copy
    fresh = g.merged_edges()
    assert fresh is not counted and fresh == {(0, 1): 5, (1, 2): 1}
    assert g == WeightedGraph.from_edges(3, g.edges)


def test_random_graph_generator_bounds():
    rng = random.Random(0)
    g = random_graph(rng, 6)
    assert g.n == 6
    assert all(1 <= w <= 9 for _, _, w in g.edges)
