"""Ideal edge loads from the cut hierarchy, and the max-entropy certificate.

Each edge is charged to the deepest hierarchy node containing both endpoints
(the LCA of its leaves), which a `HierarchyTree` works out once, when it is
made; that node's ratio is the total weight charged to it divided by one
less than its child count.  The load of an edge is its weight over its
node's ratio; per unit edge (viewing a weight-c edge as c parallel unit
edges) the load is the reciprocal of the ratio.  These unit loads are
exactly the entropy-maximizing point of the spanning tree polytope, which
the logarithmic dual certificate below witnesses.

Logs and exponentials are the only floating-point surface of the package;
everything upstream of them stays rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graph import WeightedGraph
from .hierarchy import HierarchyNode, HierarchyTree

RECONSTRUCTION_TOL = 1e-9


class LoadsError(ValueError):
    """The tree does not structurally fit the graph."""


@dataclass(frozen=True)
class IdealLoads:
    """Per-edge loads plus the per-node ratios and edge assignments."""

    graph: WeightedGraph
    tree: HierarchyTree
    per_edge: tuple[Fraction, ...]
    unit_per_edge: tuple[Fraction, ...]  # per_edge / weight = 1 / node ratio
    edge_node: tuple[HierarchyNode, ...]  # LCA node per edge
    node_sigma: dict[HierarchyNode, Fraction]

    def unit_marginal_pairs(self) -> list[tuple[float, int]]:
        """(unit load as float, multiplicity c_e) per edge, for entropy sums."""
        return [
            (float(self.unit_per_edge[i]), self.graph.edges[i][2])
            for i in range(self.graph.m)
        ]


def ideal_loads(graph: WeightedGraph, tree: HierarchyTree) -> IdealLoads:
    """Exact loads: each edge's weight over the ratio of its LCA node, read
    off the tree's charge (on `graph`, where the tree was made on another)."""
    on_graph = tree if graph == tree.graph else HierarchyTree(tree.root, graph)
    for fault in on_graph.faults:
        raise LoadsError(f"{fault}; the tree does not structurally fit this graph")
    edge_node: list = [None] * graph.m
    unit_per_edge: list = [None] * graph.m
    node_sigma: dict[HierarchyNode, Fraction] = {}
    for node, charged, ratio in on_graph.charge:
        if not charged:
            raise LoadsError(
                f"internal node {sorted(node.vertex_set)} has no crossing edges; the tree "
                "cannot be a cut hierarchy of this graph"
            )
        node_sigma[node] = ratio
        unit = 1 / ratio
        for e in charged:
            edge_node[e] = node
            unit_per_edge[e] = unit
    return IdealLoads(
        graph=graph,
        tree=tree,
        per_edge=tuple(w * unit for (_, _, w), unit in zip(graph.edges, unit_per_edge)),
        unit_per_edge=tuple(unit_per_edge),
        edge_node=tuple(edge_node),
        node_sigma=node_sigma,
    )


def min_max_loads(loads: IdealLoads) -> tuple[Fraction, Fraction]:
    """Extreme unit-edge loads: (1/fractional arboricity, 1/strength)."""
    if not loads.unit_per_edge:
        raise LoadsError("graph has no edges")
    return min(loads.unit_per_edge), max(loads.unit_per_edge)


@dataclass(frozen=True)
class DualCertificate:
    """Log-ratio dual variables and the unit marginals they reconstruct.

    y is indexed by the internal nodes: the root carries ln(root
    ratio) and every other internal node the log of its ratio over its
    parent's; ratio monotonicity along root paths makes all non-root entries
    nonnegative.  unit_marginals[i] = exp(-sum of y over nodes containing
    edge i) and equals the unit load up to float rounding.
    """

    y: dict[HierarchyNode, float]
    unit_marginals: tuple[float, ...]


def entropy_certificate(loads: IdealLoads) -> DualCertificate:
    """The dual certificate of the loads' tree, read from the loads' node ratios."""
    y: dict[HierarchyNode, float] = {}
    prefix: dict[HierarchyNode, float] = {}
    stack: list[tuple[HierarchyNode, float]] = [(loads.tree.root, 0.0)]
    while stack:
        node, acc = stack.pop()
        if node.is_leaf:
            continue
        sigma = loads.node_sigma[node]
        try:
            y_node = math.log(sigma) - acc
        except OverflowError:  # past the float range; math.log takes integers of any size
            y_node = math.log(sigma.numerator) - math.log(sigma.denominator) - acc
        y[node] = y_node
        prefix[node] = acc + y_node
        for child in node.children:
            stack.append((child, acc + y_node))
    marginals = []
    for i in range(loads.graph.m):
        x = math.exp(-prefix[loads.edge_node[i]])
        expected = float(loads.unit_per_edge[i])
        if abs(x - expected) > RECONSTRUCTION_TOL:
            raise LoadsError(
                f"certificate reconstruction off by {abs(x - expected):.3e} "
                f"on edge {i}"
            )
        marginals.append(x)
    return DualCertificate(y=y, unit_marginals=tuple(marginals))


def entropy_value(
    marginals: Iterable[float], weights: Iterable[int] | None = None
) -> float:
    """Sum of x*ln(x) over unit edges (0 ln 0 := 0), optional multiplicities."""
    if weights is None:
        return sum(x * math.log(x) for x in marginals if x > 0)
    return sum(w * x * math.log(x) for x, w in zip(marginals, weights) if x > 0)
