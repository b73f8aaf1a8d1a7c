"""Flow networks whose min cuts locate skew-dense vertex sets.

For a weighted graph G and a threshold tau > 0 the density network has a node
per edge and per vertexplus s and t; its s-t min cuts encode
argmax(c(E[X]) - tau|X|).  Because tau is rational and the flow engine wants
integers, every capacity is multiplied by scale = denominator(tau); all cut
identities below carry that factor.

The shortcut network is built from the residual graph of a saturating s-t max
flow by splicing out the edge nodes; its cuts over vertex sets X have value
scale * (tau|X| - c(E[X])).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .flow import INF, DirectedNetwork, FlowResult, max_flow, max_source_side, validate_flow
from .graph import WeightedGraph


class GoldbergError(ValueError):
    """Invalid parameter or unsatisfied precondition for a network build."""


@dataclass(frozen=True)
class GoldbergNetwork:
    """The density network for (graph, tau), with node/arc bookkeeping.

    Node layout: original vertices keep their ids, edge nodes follow
    (n .. n+m-1), then s and t.  Arcs: s->e with capacity scale*c_e, e->u and
    e->v with INF, v->t with capacity scale*tau (an integer by construction).
    """

    graph: WeightedGraph
    network: DirectedNetwork
    s: int
    t: int
    tau: Fraction
    scale: int
    endpoint_arcs: tuple[tuple[int, int], ...]  # per edge: arcs e->u, e->v
    sink_arcs: tuple[int, ...]  # per vertex: arc v -> t
    root: int | None = None  # vertex forced into the source side, if any

    def edge_node(self, edge_index: int) -> int:
        return self.graph.n + edge_index

    def saturation_target(self) -> int:
        """Flow value at which every s-arc is saturated: scale * c(E)."""
        return self.scale * self.graph.total_weight()


@dataclass(frozen=True)
class ModifiedNetwork:
    """Shortcut network over the original vertices plus t (node id n)."""

    graph: WeightedGraph
    network: DirectedNetwork
    t: int
    tau: Fraction
    scale: int
    # per original edge: arc ids for the spliced (u,v) and (v,u) arcs
    edge_arcs: tuple[tuple[int, int], ...]


def build_goldberg(graph: WeightedGraph, tau: Fraction, *, root: int | None = None) -> GoldbergNetwork:
    """Density network for (graph, tau); tau must be positive.

    With `root`, an extra INF arc s->root forces the root vertex into every
    finite source side.
    """
    tau = Fraction(tau)
    if tau <= 0:
        raise GoldbergError("tau must be positive")
    scale = tau.denominator
    sink_cap = tau.numerator  # scale * tau
    n, m = graph.n, graph.m
    net = DirectedNetwork(n + m + 2)
    s = n + m
    t = n + m + 1
    endpoint_arcs = []
    sink_arcs = []
    for idx, (u, v, w) in enumerate(graph.edges):
        e = n + idx
        net.add_arc(s, e, scale * w)
        endpoint_arcs.append((net.add_arc(e, u, INF), net.add_arc(e, v, INF)))
    for v in range(n):
        sink_arcs.append(net.add_arc(v, t, sink_cap))
    if root is not None:
        if not 0 <= root < n:
            raise GoldbergError("root vertex out of range")
        net.add_arc(s, root, INF)
    return GoldbergNetwork(
        graph=graph,
        network=net,
        s=s,
        t=t,
        tau=tau,
        scale=scale,
        endpoint_arcs=tuple(endpoint_arcs),
        sink_arcs=tuple(sink_arcs),
        root=root,
    )


def expected_cut_value(h: GoldbergNetwork, side_vertices, side_edges) -> int | float:
    """Closed-form cut value of source side {s} + side_edges + side_vertices.

    scale * (c(E) - c(S_E) + tau * |S_V|) when every chosen edge has both
    endpoints chosen, INF otherwise (an INF arc would cross).  The rooted
    variant additionally needs the root inside S_V.
    """
    sv = frozenset(side_vertices)
    se = frozenset(side_edges)
    if h.root is not None and h.root not in sv:
        return INF
    for idx in se:
        u, v, _ = h.graph.edges[idx]
        if u not in sv or v not in sv:
            return INF
    chosen = sum(h.graph.edges[i][2] for i in se)
    total = h.graph.total_weight()
    return h.scale * (total - chosen) + h.tau.numerator * len(sv)


def min_cut_vertex_side(h: GoldbergNetwork, flow: FlowResult) -> frozenset[int]:
    """Largest maximizer of c(E[X]) - tau|X| from a max flow on h.

    Min-cut source sides of the density network form a lattice; the maximal
    one (everything that cannot reach t in the residual graph) corresponds to
    the unique largest argmax, which is the side downstream extraction wants.
    """
    side = max_source_side(h.network, flow, h.t)
    return frozenset(v for v in side if v < h.graph.n)


def build_modified(h: GoldbergNetwork, flow: FlowResult | None = None) -> ModifiedNetwork:
    """Shortcut network of h from a saturating max flow.

    The flow must have value scale*c(E) (all s-arcs saturated); otherwise the
    construction's cut identity does not hold and this raises.  When `flow` is
    omitted it is computed here; when given with assertions enabled it is
    validated rather than trusted (a feasible flow at the saturation value is
    necessarily maximum, so a linear check suffices).
    """
    if h.root is not None:
        raise GoldbergError("shortcut network is only defined for the unrooted variant")
    target = h.saturation_target()
    if flow is None:
        flow = max_flow(h.network, h.s, h.t, limit=target)
    elif __debug__:
        validate_flow(h.network, flow, h.s, h.t)
    if flow.value < target:
        raise GoldbergError(
            "s-t max flow does not saturate the source arcs; "
            "shortcut network is undefined"
        )
    graph = h.graph
    n = graph.n
    flows = flow.arc_flows()
    net = DirectedNetwork(n + 1)
    t = n
    edge_arcs = []
    for idx, (u, v, _) in enumerate(graph.edges):
        arc_to_u, arc_to_v = h.endpoint_arcs[idx]
        # Residual of the reverse of e->u is the flow pushed into u; splicing
        # u->e->v therefore carries capacity flow(e->u), and symmetrically.
        uv = net.add_arc(u, v, flows[arc_to_u])
        vu = net.add_arc(v, u, flows[arc_to_v])
        edge_arcs.append((uv, vu))
    sink_cap = h.tau.numerator
    for v in range(n):
        net.add_arc(v, t, sink_cap - flows[h.sink_arcs[v]])
    return ModifiedNetwork(
        graph=graph,
        network=net,
        t=t,
        tau=h.tau,
        scale=h.scale,
        edge_arcs=tuple(edge_arcs),
    )


def expected_modified_cut_value(m: ModifiedNetwork, side_vertices) -> int:
    """Closed-form cut value in the shortcut network: scale*(tau|X| - c(E[X]))."""
    sv = frozenset(side_vertices)
    inside = m.graph.weight_inside(sv)
    return m.tau.numerator * len(sv) - m.scale * inside
