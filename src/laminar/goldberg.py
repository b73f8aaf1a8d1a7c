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

from .flow import (
    INF,
    DirectedNetwork,
    FlowError,
    FlowResult,
    _derived,
    max_flow,
    max_source_side,
    validate_flow,
)
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
    if root is not None and not 0 <= root < n:
        raise GoldbergError("root vertex out of range")
    s = n + m
    t = n + m + 1
    # Per edge e: arcs 3e (s -> e), 3e+1 (e -> u), 3e+2 (e -> v); then one
    # arc v -> t per vertex, and s -> root last.
    tails: list[int] = []
    heads: list[int] = []
    caps: list[int | float] = []
    for idx, (u, v, w) in enumerate(graph.edges):
        e = n + idx
        tails += (s, e, e)
        heads += (e, u, v)
        caps += (scale * w, INF, INF)
    tails += range(n)
    heads += [t] * n
    caps += [sink_cap] * n
    if root is not None:
        tails.append(s)
        heads.append(root)
        caps.append(INF)
    return GoldbergNetwork(
        graph=graph,
        network=_derived(n + m + 2, tails, heads, caps),
        s=s,
        t=t,
        tau=tau,
        scale=scale,
        endpoint_arcs=tuple((3 * i + 1, 3 * i + 2) for i in range(m)),
        sink_arcs=tuple(range(3 * m, 3 * m + n)),
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
    necessarily maximum, so a linear check suffices).  Without them, a given
    flow that leaves a shortcut capacity negative still raises FlowError.
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
    t = n
    # Per edge: arcs 2e (u -> v) and 2e+1 (v -> u); then v -> t per vertex.
    tails: list[int] = []
    heads: list[int] = []
    caps: list[int | float] = []
    for idx, (u, v, _) in enumerate(graph.edges):
        arc_to_u, arc_to_v = h.endpoint_arcs[idx]
        # Residual of the reverse of e->u is the flow pushed into u; splicing
        # u->e->v therefore carries capacity flow(e->u), and symmetrically.
        tails += (u, v)
        heads += (v, u)
        caps += (flows[arc_to_u], flows[arc_to_v])
    sink_cap = h.tau.numerator
    tails += range(n)
    heads += [t] * n
    caps += [sink_cap - flows[a] for a in h.sink_arcs]
    if min(caps, default=0) < 0:
        raise FlowError("the flow violates an arc capacity")
    return ModifiedNetwork(
        graph=graph,
        network=_derived(n + 1, tails, heads, caps),
        t=t,
        tau=h.tau,
        scale=h.scale,
        edge_arcs=tuple((2 * i, 2 * i + 1) for i in range(graph.m)),
    )


def expected_modified_cut_value(m: ModifiedNetwork, side_vertices) -> int:
    """Closed-form cut value in the shortcut network: scale*(tau|X| - c(E[X]))."""
    sv = frozenset(side_vertices)
    inside = m.graph.weight_inside(sv)
    return m.tau.numerator * len(sv) - m.scale * inside
