"""Finding the maximum skew-densest set and verifying dense cores.

The maximum skew-density tau* = max c(E[X])/(|X|-1) is found by Dinkelbach's
iteration, Newton's method for this fractional program.  A probe at tau
returns, when one exists, a set X with c(E[X]) - tau(|X|-1) > 0, which is
strictly denser than tau; its density becomes the next tau.  All arithmetic
is exact rational.

Exact mode probes just below tau = p/q, at tau - delta with delta = 1/(n q).
Scores c(E[X]) - tau(|X|-1) are multiples of 1/q and the shift adds at most
delta(n-1) < 1/q, so below tau* the maximizer is strictly denser than tau
(also when the density network is unsaturated, as tau >= 1 >= delta n), and
at tau* it is the largest densest set: the last Newton step is the extraction.
The maximal densest sets are pairwise disjoint (c(E[X]) - tau*(|X|-1) is
supermodular on intersecting pairs), and that step's scan meets all of them:
the first scanned source inside each one cuts exactly that set.

Every flow runs on the tau-core: what is left after repeatedly deleting a
vertex whose weighted degree among the remaining vertices is strictly below
tau (a root, when given, is never deleted).  If v lies in X and
deg_X(v) < tau, removing v strictly raises both c(E[X]) - tau|X| and
c(E[X]) - tau(|X|-1); the first vertex of X that the peel deletes is such a
v.  So every maximizer of the first objective, every maximizer of the
second over nonempty sets that has two vertices or more, every maximizer
among the sets that contain the root, and every scanned source's minimal
t-cut side below scale*tau lies inside the core.  A set X that beats tau,
c(E[X]) > tau(|X|-1), keeps a subset that beats tau inside the core, as no
single vertex beats it: a core of fewer than two vertices holds none.  The
unrooted exact scan stops early: a source scanned after the first k
records only a side that beats tau and avoids them, so once the tau-core of
the core minus those k has fewer than two vertices no later source records
one, and that prefix of the sources meets every t-cut below scale*tau.
The probe finds it by continuing its own peel, deleting the sources in
turn.  An exact probe, rooted or not, whose core is a pair {a, b} builds no
network.  The pair is the one set there that can beat tau, and each end
keeps c = c(E[{a, b}]) as its degree after the peel, so the probe misses
iff c <= tau.
If c > 2 tau, the pair is also the one set with c(E[X]) > tau|X|, the
density network's side.  If tau < c <= 2 tau, no set has that, the network
saturates, and the scan's first source records the pair, its only side
below scale*tau: a vertex's cut is scale*tau, the pair's scale*(2 tau - c).

The density network's max flow starts with Dinic's first phase in closed
form: each edge, in edge order, sends scale*w into u and then into v, as
far as each one's sink arc has room.  That is exactly the engine's first
phase.  Its BFS levels are s, the edge nodes, the vertices with an edge,
and t, since s-arcs (scale*w), e-arcs (INF) and sink arcs (scale*tau) all
have room and every reverse slot is empty.  Current arcs walk each node's
arcs in arc order: s takes the edges in edge order, an edge node tries u
before v, and a vertex's only arc one level deeper is its sink arc.  An INF
arc never binds, as its substitute exceeds every s-arc, so each path
s, e, x, t carries what s->e and x->t both have left, and a vertex whose
sink arc is full is a dead end for the rest of the phase.  After the phase
the flow has reached scale*c(E), which ends the run, or n*scale*tau, every
sink arc full, which makes the whole vertex set the largest maximizer; only
otherwise does Dinic go on, from that residual, and build the engine.  One
builder, `goldberg.build_modified`, lays the shortcut network out with one
residual slot pair per edge, and the exact scan runs on it from those
slots.  The sampling pipeline reads its one-way view instead, the same
residual capacities as a network of their own, one arc per slot (see
`goldberg`).

A set S is a dense core when no subset is strictly denser and every proper
superset is strictly sparser.  `verify_core` asks each half as one exact
probe: subsets, of G[S] at rho(S); supersets, of G/S rooted at S's node s.
A rooted probe at tau asks whether some X that contains the root, of two
vertices or more, has c(E[X]) > tau(|X|-1): the root is never peeled and is
the scan's only source, and an unsaturated density network's side W, with
c(E[W]) > tau|W|, proves it through W | {root}.  A proper superset S | Y is
at least as dense as S iff X = {s} | Y has c(E[X]) >= rho(S)(|X|-1) in G/S.
As |X|-1 < n' = |G/S|, exactly those X beat rho(S) - 1/(n' den rho(S))
(see `_below`), so the rooted probe there decides the superset half.  The
sets of an exact search need no such check one by one: the `hierarchy`
module certifies the whole tree they build once it is complete.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .dircut import find_small_cut, size_bounded_t_mincut
from .flow import FlowResult, max_flow, t_cuts_below
from .goldberg import (
    GoldbergNetwork,
    ModifiedNetwork,
    _first_phase,
    build_goldberg,
    build_modified,
    min_cut_vertex_side,
)
from .graph import (
    GraphError,
    WeightedGraph,
    _within,
    contract,
    induced_subgraph,
    skew_density,
)


@dataclass(frozen=True)
class FindStarResult:
    """Outcome of the densest-set search.

    probes holds each iterate tau and whether its probe found a set strictly
    denser than tau: thresholds strictly increase, and only the last one, at
    tau_star, found none.  In exact mode tau_star is the maximum skew-density
    and candidate the largest set attaining it, found by the last Newton step
    at tau* - delta (see above); sets holds every maximal set attaining it,
    pairwise disjoint, largest first and candidate first among the largest.
    In randomized mode a probe can miss, so the search may stop below the
    maximum, and sets holds the candidate alone.
    """

    candidate: frozenset[int]
    tau_star: Fraction
    probes: tuple[tuple[Fraction, bool], ...]
    sets: tuple[frozenset[int], ...]


def tau_core(graph: WeightedGraph, tau: Fraction, root: int | None = None) -> list[int]:
    """The vertices left after peeling every non-root vertex of degree below tau.

    Repeatedly deletes a vertex other than `root` whose weighted degree among
    the remaining vertices is strictly below tau, in O(n + m) exact integer
    arithmetic; returns the survivors in index order.  This is the peel an
    exact probe starts with.
    """
    alive = _tau_peel(graph, Fraction(tau), root)[0]
    return [v for v in range(graph.n) if alive[v]]


def _tau_peel(
    graph: WeightedGraph, tau: Fraction, root: int | None = None
) -> tuple[list[bool], list[int], list[list[tuple[int, int]]]]:
    """The peel of `tau_core` as state a caller can continue with `_peel`:
    whether each vertex is alive, its degree among the live ones, and its
    incident (neighbour, weight) pairs in the whole graph."""
    num, den = tau.numerator, tau.denominator
    degree = [0] * graph.n
    incident: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for u, v, w in graph.edges:
        degree[u] += w
        degree[v] += w
        incident[u].append((v, w))
        incident[v].append((u, w))
    alive = [True] * graph.n
    stack = [v for v in range(graph.n) if degree[v] * den < num and v != root]
    _peel(incident, degree, alive, stack, tau, root)
    return alive, degree, incident


def _peel(incident, degree, alive, stack, tau: Fraction, root: int | None = None) -> int:
    """Deletes the live vertices on `stack`, then every live non-root vertex
    whose degree among the live ones falls below tau; returns how many."""
    num, den = tau.numerator, tau.denominator
    for v in stack:
        alive[v] = False
    deleted = len(stack)
    while stack:
        for u, w in incident[stack.pop()]:
            if alive[u]:
                degree[u] -= w
                if degree[u] * den < num and u != root:
                    alive[u] = False
                    stack.append(u)
                    deleted += 1
    return deleted


def _below(tau: Fraction, n: int) -> Fraction:
    """tau - 1/(n * den(tau)): only sets at least as dense as tau beat it."""
    return tau - Fraction(1, n * tau.denominator)


def _density_flow(h: GoldbergNetwork) -> FlowResult:
    """`max_flow(h.network, h.s, h.t, limit=scale*c(E))`, its first phase in
    closed form; Dinic continues only while the target is unmet and some
    sink arc has room."""
    flow = _first_phase(h)
    if flow.reached_limit or flow.value == h.graph.n * h.tau.numerator:
        return flow
    more = max_flow(h.network, h.s, h.t, limit=h.saturation_target() - flow.value, start=flow)
    return FlowResult(flow.value + more.value, more.residual, more.reached_limit)


def _saturate(
    graph: WeightedGraph, tau: Fraction
) -> tuple[frozenset[int] | None, ModifiedNetwork | None]:
    """The density network's max flow at tau, read one of two ways.

    When the flow falls short of scale*c(E), returns the largest maximizer of
    c(E[X]) - tau|X| (positive, so denser than tau) and no shortcut network;
    otherwise no side and the shortcut network.
    Neither the density network nor its flow outlives the call.
    """
    h = build_goldberg(graph, tau)
    flow = _density_flow(h)
    if flow.reached_limit:
        return None, build_modified(h, flow)
    return min_cut_vertex_side(h, flow), None


def probe(
    graph: WeightedGraph,
    tau: Fraction,
    k: int,
    *,
    mode: str = "exact",
    rng: random.Random | None = None,
    sides: list[frozenset[int]] | None = None,
) -> tuple[bool, frozenset[int] | None]:
    """Is some vertex set skew-denser than tau?

    Succeeds when (a) the density network's s-t max flow falls short of
    scale*c(E), or (b) the shortcut network has a t-cut below scale*tau.  In
    exact mode (b) is decided by the exhaustive scan and the answer is
    exactly [tau < max density]; in randomized mode (b) uses the sampling
    pipeline and can only err toward failure, which the callers absorb.
    On success the witness is strictly denser than tau: in case (a) the
    largest maximizer of c(E[X]) - tau|X|, in case (b) the source side of a
    cut below scale*tau, which in exact mode is the minimum t-cut and so
    maximizes c(E[X]) - tau(|X|-1).  With `sides`, an exact probe that
    scans appends to it the source side of every cut the scan recorded below
    scale*tau, in scan order (see `flow.t_cuts_below`).  The networks are
    built on the graph's tau-core (see above).  The scan's sources are the
    core's vertices whose degree in the whole graph exceeds tau: a core
    degree equal to tau may leave one out that starts a tied minimum cut.
    The unrooted scan stops once the unscanned vertices' tau-core has fewer
    than two, which the probe tracks by continuing the core's own peel; the
    prefix meets every t-cut below scale*tau (see above).  An exact probe
    whose core has two vertices reads the answer, the witness and the
    recorded side off the degree the peel leaves either end, building no
    network.
    """
    if graph.n == 0 or not graph.is_connected():
        raise GraphError("probe needs a connected, nonempty graph")
    tau = Fraction(tau)
    if tau <= 0:
        raise GraphError("tau must be positive")
    return _probe(graph, tau, k, mode, rng, sides)


def _probe(
    graph: WeightedGraph,
    tau: Fraction,
    k: int,
    mode: str = "exact",
    rng: random.Random | None = None,
    sides: list[frozenset[int]] | None = None,
    *,
    root: int | None = None,
) -> tuple[bool, frozenset[int] | None]:
    """`probe` past its guards: any graph, connected or not, and tau > 0.

    With `root` (exact mode only), asks whether some set of two vertices or
    more that contains the root beats tau, and witnesses one (see above).
    """
    if root is not None and mode != "exact":
        raise ValueError("a rooted probe runs in exact mode only")
    alive, degree, incident = _tau_peel(graph, tau, root)
    core = [v for v in range(graph.n) if alive[v]]
    if len(core) < 2:
        return False, None
    if len(core) == 2 and mode == "exact":  # decided without a network (see above)
        pair, inside = frozenset(core), degree[core[0]]
        if inside * tau.denominator <= tau.numerator:
            return False, None
        if sides is not None and inside * tau.denominator <= 2 * tau.numerator:
            sides.append(pair)
        return True, pair
    sub = graph if len(core) == graph.n else induced_subgraph(graph, core)[0]
    side, shortcut = _saturate(sub, tau)
    if shortcut is None:
        witness = frozenset(core[v] for v in side)
        return True, witness if root is None else witness | {root}
    threshold = shortcut.tau.numerator  # scale * tau
    if mode == "exact":
        if root is None:
            sources, left = [], len(core)
            for i, v in enumerate(core):
                if left < 2:
                    break
                # incident[v] holds every edge at v, so this is v's whole-graph degree
                if sum(w for _, w in incident[v]) * tau.denominator > tau.numerator:
                    sources.append(i)
                    if alive[v]:
                        left -= _peel(incident, degree, alive, [v], tau)
        else:
            sources = [core.index(root)]
        cuts = t_cuts_below(
            shortcut.network, shortcut.t, limit=threshold, sources=sources, start=shortcut.start
        )
        if sides is not None:
            sides.extend(frozenset(core[v] for v in cut.source_side) for cut in cuts)
        cut = min(cuts, key=lambda cut: cut.value, default=None)
    elif mode == "randomized":
        if rng is None:
            raise GraphError("randomized mode needs an RNG stream")
        cut = find_small_cut(shortcut.one_way(), shortcut.t, threshold, k, rng)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if cut is not None and cut.value < threshold:
        return True, frozenset(core[v] for v in cut.source_side)
    return False, None


def _maximal_densest(
    graph: WeightedGraph, tau: Fraction, sides: list[frozenset[int]], witness: frozenset[int]
) -> tuple[frozenset[int], ...]:
    """The sides no other side strictly contains, largest first, else in scan order.

    `sides` are the last exact probe's, at tau* - delta.  Only densest sets
    beat that threshold, so each scanned source yields the largest densest
    set that contains it and avoids every source scanned before it; the
    first source scanned inside a maximal densest set yields that set, and
    every later one a proper subset of it.  The witness, the earliest
    largest side, comes first.  Raises RuntimeError unless the sides kept
    have density tau, the witness leads them, and they are disjoint; the
    search has already matched the witness's own density to tau.
    """
    top = [side for side in sides if not any(side < other for other in sides)]
    for side in top:
        if side == witness:
            continue
        density = skew_density(graph, side)
        if density != tau:
            raise RuntimeError(f"a maximal scanned side has density {density}, not {tau}")
    top.sort(key=len, reverse=True)
    if top[:1] != [witness]:
        raise RuntimeError("the search's witness is not the first maximal densest set")
    if sum(map(len, top)) != len(frozenset().union(*top)):
        raise RuntimeError("the maximal densest sets overlap")
    return tuple(top)


def find_star_full(
    graph: WeightedGraph,
    k: int,
    *,
    mode: str = "exact",
    rng: random.Random | None = None,
) -> FindStarResult:
    """The maximum skew-density and the largest set attaining it.

    Dinkelbach's iteration starts at the heaviest merged edge, whose
    endpoints have density equal to its weight, and moves to each probe's
    witness while it is strictly denser.  Exact mode probes at
    tau - delta, delta = 1/(n den(tau)), and stops on a witness of density
    tau: only the densest sets beat tau* - delta, and the minimum t-cut there
    is the largest of them, so the last Newton step is the extraction, and
    its scan also yields every maximal densest set, in `sets`.  Randomized
    mode probes at tau and stops at the first miss, then extracts at
    tau - delta with the size-bounded sampler, falling back to the last
    witness, the densest seen.  With k at least the size of the largest
    densest set, the candidate is that set (always in exact mode, w.h.p. in
    randomized mode).
    """
    if k < 1:
        raise GraphError("k must be at least 1")
    if graph.n == 0 or not graph.is_connected():
        raise GraphError("the densest-set search needs a connected, nonempty graph")
    if graph.n == 1:
        return FindStarResult(frozenset({0}), Fraction(0), (), (frozenset({0}),))
    if rng is None:
        rng = random.Random(0)
    (u, v), weight = max(graph.merged_edges().items(), key=lambda item: item[1])
    witness = frozenset((u, v))
    tau = Fraction(weight)
    probes: list[tuple[Fraction, bool]] = []
    while True:
        threshold = _below(tau, graph.n) if mode == "exact" else tau
        sides: list[frozenset[int]] = []
        ok, found = probe(graph, threshold, k, mode=mode, rng=rng, sides=sides)
        if not ok and threshold < tau:  # an exact probe below the witness cannot miss
            raise RuntimeError(f"probe at {threshold} missed a witness of density {tau}")
        density = skew_density(graph, found) if ok else tau  # a miss finds nothing denser
        if ok and density <= threshold:
            raise RuntimeError(f"probe witness at {threshold} has density {density}, not above it")
        probes.append((tau, density > tau))
        if density == tau:
            break
        witness, tau = found, density
    if mode == "exact":
        return FindStarResult(found, tau, tuple(probes), _maximal_densest(graph, tau, sides, found))
    witness = found or witness
    # No shortcut network only when the search stopped below the maximum:
    # the density network's own min cut then carries a denser set.
    candidate, shortcut = _saturate(graph, _below(tau, graph.n))
    if shortcut is not None:
        cut = size_bounded_t_mincut(shortcut.one_way(), shortcut.t, k, rng)
        candidate = frozenset(cut.source_side)
    if not candidate or skew_density(graph, candidate) < tau:
        candidate = witness
    return FindStarResult(candidate, tau, tuple(probes), (candidate,))


def find_star(
    graph: WeightedGraph, k: int, *, mode: str = "exact", rng: random.Random | None = None
) -> frozenset[int]:
    return find_star_full(graph, k, mode=mode, rng=rng).candidate


def _denser_subset(graph: WeightedGraph, s_set: frozenset[int], rho: Fraction) -> str | None:
    """Why some subset of s_set is strictly denser than rho, or None if none is.

    One exact probe of the induced subgraph, connected or not.  Its witness
    W has c(E[W]) > rho|W| only when it is the density network's own cut:
    once that network saturates, no set has c(E[X]) > rho|X|.
    """
    sub, _ = induced_subgraph(graph, s_set)
    found, witness = _probe(sub, rho, sub.n)
    if not found:
        return None
    if sub.weight_inside(witness) > rho * len(witness):
        return "a subset is denser (density network not saturated)"
    return "a subset is denser (shortcut network has a small cut)"


def verify_core_explain(
    graph: WeightedGraph, k: int, candidate
) -> tuple[bool, str | None]:
    """Dense-core check returning (verdict, failed condition or None): the
    size bound, then one exact probe per half (see above)."""
    s_set = frozenset(candidate)
    if not s_set:
        raise GraphError("the candidate set is empty")
    if not _within(graph, s_set):
        raise GraphError("the candidate set is not a subset of the vertices")
    if len(s_set) > k:
        return False, "set exceeds the size bound"
    rho = skew_density(graph, s_set)
    if rho == 0:
        # No internal weight: subsets are trivially no denser, and any proper
        # superset has density >= 0 = rho(S), violating strictness.
        if len(s_set) == graph.n:
            return True, None
        return False, "a proper superset is at least as dense"
    denser = _denser_subset(graph, s_set, rho)
    if denser is not None:
        return False, denser
    contracted, forward = contract(graph, s_set)
    root = forward[min(s_set)]
    if _probe(contracted, _below(rho, contracted.n), contracted.n, root=root)[0]:
        return False, "a proper superset is at least as dense"
    return True, None


def verify_core(graph: WeightedGraph, k: int, candidate) -> bool:
    """True iff candidate is a dense core of graph with at most k vertices."""
    ok, _ = verify_core_explain(graph, k, candidate)
    return ok
