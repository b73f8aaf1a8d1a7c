"""Flow networks whose min cuts locate skew-dense vertex sets.

For a weighted graph G and a threshold tau > 0 the density network has a node
per edge and per vertex plus s and t; its s-t min cuts encode
argmax(c(E[X]) - tau|X|).  Because tau is rational and the flow engine wants
integers, every capacity is multiplied by scale = denominator(tau); all cut
identities below carry that factor.

The shortcut network is built from the residual graph of a saturating s-t max
flow by splicing out the edge nodes; its cuts over vertex sets X have value
scale * (tau|X| - c(E[X])).  Every density question the library asks, rooted
at a vertex or not, is read off these two networks (see `densecore`).

Arc layouts, for a graph with n vertices and m edges.  Density network:
arcs 3e, 3e+1, 3e+2 are s->e, e->u, e->v for edge e = (u, v), and arc 3m+v
is v->t.  Shortcut network, as `build_modified` builds it (paired): arc e is
u->v and arc m+v is v->t; the two residual slots of arc e carry u->v and
v->u, so one slot pair per edge replaces two one-way arcs that each bring
an empty reverse slot.  Its one-way view (`ModifiedNetwork.one_way`), which
the sampling pipeline reads: arcs 2e, 2e+1 are u->v, v->u with the two
slots as capacities, and arc 2m+v is v->t.
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
    max_flow,  # noqa: F401  (bench/test_bench.py looks it up here)
    max_source_side,
    validate_flow,
)
from .graph import WeightedGraph


class GoldbergError(ValueError):
    """Invalid parameter or unsatisfied precondition for a network build."""


@dataclass(frozen=True)
class GoldbergNetwork:
    """The density network for (graph, tau), arcs laid out as above.

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

    def saturation_target(self) -> int:
        """Flow value at which every s-arc is saturated: scale * c(E)."""
        return self.scale * self.graph.total_weight()


@dataclass(frozen=True)
class ModifiedNetwork:
    """Shortcut network over the original vertices plus t (node id n), in the
    paired layout above.

    Its cuts are those of the residual network `start` leaves, not of the
    network's own capacities; a flow run from `start` uses it up.
    """

    graph: WeightedGraph
    network: DirectedNetwork
    t: int
    tau: Fraction
    scale: int
    start: FlowResult

    def one_way(self) -> DirectedNetwork:
        """The one-way layout of the same residual capacities, a network
        whose own cuts are the shortcut network's; read before a flow uses
        `start` up."""
        n, m = self.graph.n, self.graph.m
        tails: list[int] = []
        heads: list[int] = []
        for u, v, _ in self.graph.edges:
            tails += (u, v)
            heads += (v, u)
        tails += range(n)
        heads += [self.t] * n
        slots = self.start.residual
        return _derived(n + 1, tails, heads, slots[: 2 * m] + slots[2 * m :: 2])


def build_goldberg(graph: WeightedGraph, tau: Fraction) -> GoldbergNetwork:
    """Density network for (graph, tau); tau must be positive."""
    tau = Fraction(tau)
    if tau <= 0:
        raise GoldbergError("tau must be positive")
    scale = tau.denominator
    sink_cap = tau.numerator  # scale * tau
    n, m = graph.n, graph.m
    s = n + m
    t = n + m + 1
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
    return GoldbergNetwork(
        graph=graph,
        network=_derived(n + m + 2, tails, heads, caps),
        s=s,
        t=t,
        tau=tau,
        scale=scale,
    )


def min_cut_vertex_side(h: GoldbergNetwork, flow: FlowResult) -> frozenset[int]:
    """Largest maximizer of c(E[X]) - tau|X| from a max flow on h.

    Min-cut source sides of the density network form a lattice; the maximal
    one (everything that cannot reach t in the residual graph) corresponds to
    the unique largest argmax, which is the side downstream extraction wants.
    A flow of value n*scale*tau fills every sink arc, so nothing reaches t
    and the side is every vertex, read without a walk.
    """
    if flow.value == h.graph.n * h.tau.numerator:
        return frozenset(range(h.graph.n))
    side = max_source_side(h.network, flow, h.t)
    return frozenset(v for v in side if v < h.graph.n)


def _first_phase(h: GoldbergNetwork) -> FlowResult:
    """Dinic's first phase on h in closed form: the residual array, value and
    limit flag that `max_flow` with limit scale*c(E) holds after it.  Each
    edge, in edge order, sends scale*w into u and then into v, as far as each
    one's sink arc has room; `densecore` says why that is the engine's phase.
    """
    graph = h.graph
    n, m, scale = graph.n, graph.m, h.scale
    sink_cap = h.tau.numerator
    room = [sink_cap] * n
    into_u = [0] * m
    into_v = [0] * m
    for e, (u, v, w) in enumerate(graph.edges):
        left = scale * w
        f = into_u[e] = min(left, room[u])
        room[u] -= f
        left -= f
        f = into_v[e] = min(left, room[v])
        room[v] -= f
    big = h.network.finite_total() + 1  # the engine's INF substitute
    sent = [a + b for a, b in zip(into_u, into_v)]
    value = sum(sent)
    # Arc i's residual slots are 2i (left) and 2i+1 (flow), arc ids as above.
    residual = [0] * (6 * m + 2 * n)
    residual[0 : 6 * m : 6] = [scale * w - f for (_, _, w), f in zip(graph.edges, sent)]
    residual[1 : 6 * m : 6] = sent
    residual[2 : 6 * m : 6] = [big - f for f in into_u]
    residual[3 : 6 * m : 6] = into_u
    residual[4 : 6 * m : 6] = [big - f for f in into_v]
    residual[5 : 6 * m : 6] = into_v
    residual[6 * m :: 2] = room
    residual[6 * m + 1 :: 2] = [sink_cap - r for r in room]
    return FlowResult(value=value, residual=residual, reached_limit=value >= h.saturation_target())


def build_modified(h: GoldbergNetwork, flow: FlowResult) -> ModifiedNetwork:
    """Shortcut network of h from a saturating max flow on it.

    Edge e = (u, v) becomes arc u->v, its forward slot seeded with
    flow(e->u) and its reverse slot with flow(e->v): splicing u->e->v
    carries the flow pushed into u, and symmetrically.  Arc m+v is v->t
    with capacity scale*tau - flow(v->t).  Each arc's capacity is the sum
    of its two slots, and `start` holds the slots.

    The flow must have value scale*c(E) (all s-arcs saturated); otherwise
    the construction's cut identity does not hold and this raises.  With
    assertions enabled the flow is validated rather than trusted (a feasible
    flow at the saturation value is necessarily maximum, so a linear check
    suffices).  Without them, a flow that leaves a slot negative still
    raises FlowError.
    """
    if __debug__:
        validate_flow(h.network, flow, h.s, h.t)
    if flow.value < h.saturation_target():
        raise GoldbergError(
            "s-t max flow does not saturate the source arcs; "
            "shortcut network is undefined"
        )
    graph = h.graph
    n, m = graph.n, graph.m
    flows = flow.residual[1::2]  # flow on density-network arc i at i
    sink = 3 * m
    slots = [0] * (2 * (m + n))
    slots[0 : 2 * m : 2] = flows[1:sink:3]  # e->u
    slots[1 : 2 * m : 2] = flows[2:sink:3]  # e->v
    slots[2 * m :: 2] = [h.tau.numerator - f for f in flows[sink:]]
    if min(slots, default=0) < 0:
        raise FlowError("the flow violates an arc capacity")
    tails = [u for u, _, _ in graph.edges]
    heads = [v for _, v, _ in graph.edges]
    tails += range(n)
    heads += [n] * n
    caps: list[int | float] = [a + b for a, b in zip(slots[0 : 2 * m : 2], slots[1 : 2 * m : 2])]
    caps += slots[2 * m :: 2]
    return ModifiedNetwork(
        graph=graph,
        network=_derived(n + 1, tails, heads, caps),
        t=n,
        tau=h.tau,
        scale=h.scale,
        start=FlowResult(value=0, residual=slots),
    )

