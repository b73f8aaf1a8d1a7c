"""Shared fixtures and small random-instance generators."""

from __future__ import annotations

import random

import pytest

from laminar import DirectedNetwork, WeightedGraph


@pytest.fixture
def trubin_path() -> WeightedGraph:
    """Path a-b-c-d with weights 2, 1, 100 (vertices 0..3).

    The golden fixture: its min-ratio cut has sides {a,b} and {c,d}, its
    strength is 1, and its densest set is {c,d} at density 100.
    """
    return WeightedGraph.from_edges(4, [(0, 1, 2), (1, 2, 1), (2, 3, 100)])


@pytest.fixture
def unit_triangle() -> WeightedGraph:
    return WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


@pytest.fixture
def unit_c4() -> WeightedGraph:
    return WeightedGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])


@pytest.fixture
def unit_k4() -> WeightedGraph:
    return WeightedGraph.from_edges(
        4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)]
    )


@pytest.fixture
def engine_builds(monkeypatch) -> list[DirectedNetwork]:
    """The networks that build a flow engine while the test runs, in order."""
    from laminar import flow

    built: list[DirectedNetwork] = []

    class CountingEngine(flow._Engine):
        __slots__ = ()

        def __init__(self, net):
            built.append(net)
            super().__init__(net)

    monkeypatch.setattr(flow, "_Engine", CountingEngine)
    return built


def random_connected_graph(
    rng: random.Random, n: int, max_weight: int = 9, extra_edges: int | None = None
) -> WeightedGraph:
    """Random spanning tree plus extra (possibly parallel) random edges."""
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, rng.randint(1, max_weight)))
    if extra_edges is None:
        extra_edges = rng.randint(0, max(1, n))
    for _ in range(extra_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v), rng.randint(1, max_weight)))
    return WeightedGraph.from_edges(n, edges)


def format_edge_list(graph: WeightedGraph) -> str:
    """The graph in the edge-list format `parse_edge_list` reads."""
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v} {w}" for u, v, w in graph.edges)
    return "\n".join(lines) + "\n"


def random_cyclic_graph(
    rng: random.Random, n: int, max_weight: int = 9, extra_edges: int | None = None
) -> WeightedGraph:
    """Random Hamiltonian cycle on n >= 3 vertices plus extra parallel
    copies of its edges, each of a fresh random weight.  Densest sets are
    connected, so on a cycle they are arcs or the whole cycle; contracting
    disjoint arcs leaves a cycle, so an exact build on such a graph stays
    non-tree until it has two vertices or one."""
    order = list(range(n))
    rng.shuffle(order)
    cycle = [(order[i - 1], order[i]) for i in range(n)]
    if extra_edges is None:
        extra_edges = rng.randint(0, n)
    pairs = cycle + [rng.choice(cycle) for _ in range(extra_edges)]
    return WeightedGraph.from_edges(n, [(u, v, rng.randint(1, max_weight)) for u, v in pairs])


def random_graph(
    rng: random.Random, n: int, edge_prob: float = 0.4, max_weight: int = 9
) -> WeightedGraph:
    """Random graph, not necessarily connected."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.append((u, v, rng.randint(1, max_weight)))
    return WeightedGraph.from_edges(n, edges)


def random_digraph(
    rng: random.Random,
    n: int,
    arc_prob: float = 0.4,
    max_cap: int = 9,
    ensure_sink_path: int | None = None,
) -> DirectedNetwork:
    """Random capacitated digraph; optionally guarantee every node reaches a sink."""
    net = DirectedNetwork(n)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < arc_prob:
                net.add_arc(u, v, rng.randint(1, max_cap))
    if ensure_sink_path is not None:
        t = ensure_sink_path
        for v in range(n):
            if v != t:
                net.add_arc(v, t, rng.randint(1, max_cap))
    return net


def network_from_arcs(n: int, arcs) -> DirectedNetwork:
    net = DirectedNetwork(n)
    for u, v, c in arcs:
        net.add_arc(u, v, c)
    return net
