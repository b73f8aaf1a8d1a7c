"""Randomized small-cut machinery for directed networks.

Pipeline: round capacities to multiples of mu and add a cheap arc from every
node to the root t (so the rounded network has a small t-mincut), pack
t-arborescences fractionally by multiplicative weights, sample a few trees
from the packing, and take the best cut that crosses a sampled tree on
exactly one tree arc.  Every candidate is evaluated against the original
capacities; a miss is a legal outcome and the caller retries or falls back
to an exact search, the per-source scan `flow.t_cuts_below`.

Randomness is explicit everywhere: operations take a `random.Random` stream
or a 64-bit seed, and substreams are derived with getrandbits(64).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .flow import INF, DirectedNetwork, STCut, _derived, min_st_cut

#: accuracy parameter of the sampling pipeline that find_small_cut runs
EPSILON = Fraction(1, 10)
#: default multiplier in the packing iteration count C * k * log2(n)
PACKING_CONSTANT = 64
#: the desk-scale multiplier find_small_cut packs with instead, without the
#: worst-case iteration bound the standalone default honors
PIPELINE_PACKING_CONSTANT = 8
#: trees drawn per find_small_cut call: SAMPLE_CONSTANT * log2(n)
SAMPLE_CONSTANT = 8
#: solves a packing keeps to replay, and by how many rounds those that no
#: replay served may outnumber those one did before the packing stops trying
REPLAY_SLOTS = 4
REPLAY_SLACK = 4
#: granularity factor for capacity rounding; 1/(2*C_MU) is the union-bound
#: exponent, and 1/8 is the largest power of two keeping it >= 3
C_MU = Fraction(1, 8)


class DircutError(ValueError):
    """Invalid input to the directed-cut pipeline."""


def _log2_ceil(n: int) -> int:
    return max(1, (max(n, 2) - 1).bit_length())


@dataclass(frozen=True)
class SparsifierParams:
    """Rounding parameters: tau and eps*tau/(2k) are integer multiples of mu."""

    tau: Fraction
    k: int
    epsilon: Fraction
    mu: Fraction
    rng_seed: int

    def __post_init__(self):
        if self.tau <= 0:
            raise DircutError("tau must be positive")
        if self.k < 1:
            raise DircutError("k must be at least 1")
        if not 0 < self.epsilon < 1:
            raise DircutError("epsilon must lie in (0, 1)")
        if self.mu <= 0:
            raise DircutError("mu must be positive")
        if (self.tau / self.mu).denominator != 1:
            raise DircutError("tau must be an integer multiple of mu")
        if (self.epsilon * self.tau / (2 * self.k) / self.mu).denominator != 1:
            raise DircutError("eps*tau/(2k) must be an integer multiple of mu")

    @property
    def backbone_cap(self) -> Fraction:
        """Capacity eps*tau/(2k) of the added per-node arcs into t."""
        return self.epsilon * self.tau / (2 * self.k)

    @staticmethod
    def derive(
        tau: Fraction | int,
        k: int,
        epsilon: Fraction,
        n: int,
        rng_seed: int,
    ) -> "SparsifierParams":
        """Pick mu ~ C_MU*eps^2*tau/(k log n), rounded down so that tau and
        eps*tau/(2k) are exact integer multiples of it."""
        tau = Fraction(tau)
        epsilon = Fraction(epsilon)
        if tau <= 0 or k < 1 or not 0 < epsilon < 1:
            raise DircutError("invalid sparsifier parameters")
        level = _log2_ceil(n)
        mu_target = C_MU * epsilon * epsilon * tau / (k * level)
        backbone = epsilon * tau / (2 * k)
        j0 = max(1, math.ceil(backbone / mu_target))
        p, q = epsilon.numerator, epsilon.denominator
        step = p // gcd(p, 2 * k * q)  # makes tau/mu = 2*k*j*q/p integral
        j = ((j0 + step - 1) // step) * step
        return SparsifierParams(
            tau=tau, k=k, epsilon=epsilon, mu=backbone / j, rng_seed=rng_seed
        )


def sparsify(net: DirectedNetwork, t: int, params: SparsifierParams) -> DirectedNetwork:
    """Rounded network with a cheap per-node backbone into t, scaled by 1/mu.

    Step 1 rounds each capacity to an adjacent multiple of mu, preserving the
    expectation; step 2 adds an arc v->t of capacity eps*tau/(2k) for every
    v != t; step 3 divides everything by mu, yielding integers.  The RNG is
    seeded from params.rng_seed and consumes one randrange(denominator) draw
    per arc whose capacity is not already a multiple of mu, in arc order.
    """
    if not 0 <= t < net.n:
        raise DircutError("t out of range")
    if INF in net.caps:
        raise DircutError("sparsifier requires finite integer capacities")
    rng = random.Random(params.rng_seed)
    p, q = params.mu.numerator, params.mu.denominator
    # c/mu = c*q/p = base + r/p, and the draw is over r/p in lowest terms.
    caps = []
    for c in net.caps:
        base, r = divmod(c * q, p)
        if r:
            g = gcd(r, p)
            base += rng.randrange(p // g) < r // g
        caps.append(base)
    others = [v for v in range(net.n) if v != t]
    backbone = int(params.backbone_cap / params.mu)
    return _derived(
        net.n,
        net.tails + others,
        net.heads + [t] * len(others),
        caps + [backbone] * len(others),
    )


@dataclass(frozen=True)
class Arborescence:
    """Out-tree toward t: every other node has one outgoing arc on a path to t.

    parent[v] is the unique out-neighbor (parent[t] = -1); arc_ids[v] is the
    network arc realizing it (-1 for t), so parallel arcs stay distinguishable.
    """

    t: int
    parent: tuple[int, ...]
    arc_ids: tuple[int, ...]

    def __post_init__(self):
        n = len(self.parent)
        if len(self.arc_ids) != n:
            raise DircutError("arc_ids and parent differ in length")
        if not 0 <= self.t < n:
            raise DircutError("root out of range")
        if self.parent[self.t] != -1 or self.arc_ids[self.t] != -1:
            raise DircutError("root must have no parent")
        # Each node is walked once: a walk stops at the first node already
        # known to reach t, and revisiting its own nodes means a cycle.
        parent = self.parent
        state = [0] * n  # 1: on the current walk, 2: reaches the root
        state[self.t] = 2
        for v in range(n):
            walk = []
            w = v
            while state[w] == 0:
                state[w] = 1
                walk.append(w)
                w = parent[w]
                if not 0 <= w < n or state[w] == 1:
                    raise DircutError(f"node {v} does not reach the root")
            for u in walk:
                state[u] = 2

    @property
    def n(self) -> int:
        return len(self.parent)


@dataclass(frozen=True)
class ArborescencePacking:
    """Nonnegative weights on arborescences; per-arc usage stays within capacity."""

    items: tuple[tuple[Arborescence, Fraction], ...]
    value: Fraction


_NO_ARBORESCENCE = "no t-arborescence exists: a node cannot reach t"


def _tree(net: DirectedNetwork, t: int, arc_of: tuple[int, ...]) -> Arborescence:
    """The validated arborescence whose node v leaves by arc arc_of[v]."""
    heads = net.heads
    parent = tuple(heads[a] if a >= 0 else -1 for a in arc_of)
    return Arborescence(t=t, parent=parent, arc_ids=arc_of)


def min_cost_arborescence(
    net: DirectedNetwork, t: int, costs: Sequence[float | Fraction]
) -> Arborescence:
    """Exact minimum-cost t-arborescence (Edmonds' cycle contraction).

    costs are indexed by arc id.  Among optimal trees the one returned is
    fixed: each node, plain or contracted, takes its cheapest arc with the
    lowest arc id.  Raises when some node cannot reach t.
    """
    if not 0 <= t < net.n:
        raise DircutError("t out of range")
    if len(costs) != net.arc_count:
        raise DircutError("costs must hold one value per arc")
    arcs = _in_arcs(net, t, range(net.arc_count))
    cheapest = [min(out, key=costs.__getitem__) if out else -1 for out in arcs]
    return _tree(net, t, _edmonds(net, t, costs, arcs=arcs, cheapest=cheapest))


def _edmonds(
    net: DirectedNetwork,
    t: int,
    costs: Sequence[float | Fraction],
    *,
    arcs: Sequence[Sequence[int]],
    cheapest: Sequence[int],
    plan: list | None = None,
) -> tuple[int, ...]:
    """`min_cost_arborescence` on checked input, as arc_of: node v's arc in
    the tree (-1 for t), not yet checked to form one.  cheapest[v] is v's
    cheapest arc in arcs[v], the lowest id among equals (-1 when it has none).
    Each contraction is appended to `plan`, when given, as `_replays` reads it."""
    n = net.n
    tails, heads = net.tails, net.heads
    # Nodes n, n+1, ... are contracted cycles.  Per node: its chosen arc;
    # the cycle node that absorbed it (`up`, kept for the unwind); and 0
    # unseen / 1 on the current walk / 2 known to reach t.  The original
    # nodes a live node holds form a group named by one of them: `lead`
    # gives each node's group (a live node's own), `holder` each group's
    # live node, `size` its size and `members` a contracted group's
    # original nodes.  A contraction relabels all groups of its cycle but
    # the largest, so each node is relabelled O(log n) times.  Per cycle
    # node: the reduced cost of its choice and its (reduced cost, arc id)
    # candidates.
    choice = list(cheapest)
    if choice.count(-1) > 1:
        raise DircutError(_NO_ARBORESCENCE)
    up = [-1] * n
    lead = list(range(n))
    holder = list(range(n))
    size = [1] * n
    members: dict[int, list[int]] = {}
    state = [0] * n
    state[t] = 2
    cycle_cost: list = []
    candidates: list[list[tuple]] = []
    for start in range(n):
        if state[start]:
            continue
        path = [start]
        state[start] = 1
        x = start
        while True:
            w = holder[lead[heads[choice[x]]]]
            seen = state[w]
            if seen == 2:
                break
            if seen == 0:
                state[w] = 1
                path.append(w)
                x = w
                continue
            # The chosen arcs close a cycle: contract it into node s, whose
            # candidates are the arcs entering it, reduced by the cost of the
            # member's own choice.  No other node's choice changes.
            i = path.index(w)
            cycle = path[i:]
            del path[i:]
            s = len(choice)
            groups = [lead[m] for m in cycle]
            g = max(groups, key=size.__getitem__)
            inside = members.setdefault(g, [g])
            for h in groups:
                if h != g:
                    moved = members.pop(h, [h])
                    for v in moved:
                        lead[v] = g
                    inside += moved
            size[g] = len(inside)
            for m in cycle:
                up[m] = s
            holder[g] = s
            lead.append(g)
            up.append(-1)
            entering = []
            for m in cycle:
                if m < n:
                    b = costs[choice[m]]
                    entering += [(costs[a] - b, a) for a in arcs[m] if lead[heads[a]] != g]
                else:
                    b = cycle_cost[m - n]
                    entering += [
                        (c - b, a) for c, a in candidates[m - n] if lead[heads[a]] != g
                    ]
            if not entering:
                raise DircutError(_NO_ARBORESCENCE)
            c, a = min(entering)
            if plan is not None:
                # Per member, the candidates kept above: arc ids for a plain
                # node, positions in its own candidates for a cycle.
                parts = [
                    (m, [arc for arc in arcs[m] if lead[heads[arc]] != g])
                    if m < n
                    else (m, [p for p, arc in enumerate(plan[m - n][2]) if lead[heads[arc]] != g])
                    for m in cycle
                ]
                order = [arc for _, arc in entering]
                plan.append((parts, order.index(a), order))
            choice.append(a)
            cycle_cost.append(c)
            candidates.append(entering)
            state.append(1)
            path.append(s)
            x = s
        for x in path:
            state[x] = 2
    # Unwind, outermost cycle first: a node keeps its choice unless an
    # enclosing cycle's arc enters through it.
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
    return tuple(arc_of)


def _replays(plan: list, n: int, costs: Sequence[float], cheapest: Sequence[int]) -> bool:
    """Whether `_edmonds` on these costs, from the cheapest vector `plan` was
    recorded at, makes the recorded run: whether every contraction's reduced
    costs have their minimum, lowest arc id first, at its recorded arc."""
    done: list[list[float]] = []  # per contraction, its candidates' reduced costs
    for parts, i, order in plan:
        reduced: list[float] = []
        for m, kept in parts:
            if m < n:
                b = costs[cheapest[m]]
                reduced += [costs[a] - b for a in kept]
            else:
                inner = done[m - n]
                b = inner[plan[m - n][1]]
                reduced += [inner[p] - b for p in kept]
        low = min(reduced)
        if reduced[i] != low:
            return False
        if reduced.count(low) > 1 and min(a for c, a in zip(reduced, order) if c == low) != order[i]:
            return False
        done.append(reduced)
    return True


def _in_arcs(net: DirectedNetwork, t: int, arc_ids: Iterable[int]) -> list[list[int]]:
    """Per node, its out-arcs among arc_ids in ascending id, loops left out;
    t gets none.

    Edmonds works on the reversal: choosing one in-arc per node there,
    rooted at t, is choosing one out-arc per node toward t here.
    """
    tails, heads = net.tails, net.heads
    lists: list[list[int]] = [[] for _ in range(net.n)]
    for i in sorted(arc_ids):
        if tails[i] != heads[i] and tails[i] != t:
            lists[tails[i]].append(i)
    return lists


def _cost_heaps(arcs: Sequence[Sequence[int]], costs: list[float]) -> tuple[list, list[int]]:
    """Per node, its arcs' (cost, arc id) pairs sorted, which is a heap, and
    its cheapest arc (-1 when it has none)."""
    heaps = [sorted((costs[a], a) for a in out) for out in arcs]
    return heaps, [heap[0][1] if heap else -1 for heap in heaps]


def _young_iterations(epsilon: float, arcs: int, k: int) -> int:
    """Iteration count guaranteeing a (1+eps)-approximate packing ratio."""
    delta = (1 + epsilon) * math.log1p(epsilon) - epsilon
    return math.ceil((1 + epsilon) * k * math.log(max(arcs, 2)) / delta)


def pack_arborescences(
    net: DirectedNetwork,
    t: int,
    k: int,
    epsilon: float | Fraction,
    *,
    iterations: int | None = None,
) -> ArborescencePacking:
    """Fractional t-arborescence packing by multiplicative weights.

    Each round picks the arborescence minimizing sum of y_j / w_j and bumps
    the used arcs' y by (1 + eps*f_j/omega); the averaged choice, rescaled to
    per-arc feasibility, is the packing.  With the default iteration budget
    (C*k*log2 n, raised to the worst-case bound when that is larger) the
    value is at least (1-eps) times the t-mincut when that mincut is <= k.
    Zero-capacity arcs are never candidates.

    A round's tree is its tuple of arc ids, counted in the order trees first
    appear.  Rounds repeat trees often, so after the loop each distinct
    tuple becomes one `Arborescence`, checked for cycles once.

    Rounds also repeat cheapest vectors (each node's cheapest arc).  A round
    whose vector is one of the last REPLAY_SLOTS solves' replays that
    solve's contractions, newest first, and takes its tree when each would
    choose its recorded arc again.  That is exact, across ties and
    renormalizations: Edmonds' walk and each contraction's members and
    candidates follow from the choices alone, and the replay finds the
    reduced costs by the same float subtractions.  A packing stops replaying
    once its failed replays and fresh solves outnumber its replayed rounds
    by more than REPLAY_SLACK.
    """
    # Imported here, as only randomized mode packs: at the top, every CLI
    # start would load it.
    from heapq import heappop, heappush, heapreplace

    if net.n < 2:
        raise DircutError("packing needs at least 2 nodes")
    if not 0 <= t < net.n:
        raise DircutError("t out of range")
    if k < 1:
        raise DircutError("k must be at least 1")
    eps = float(epsilon)
    if not 0 < eps < 1:
        raise DircutError("epsilon must lie in (0, 1)")
    caps = net.caps
    if any(c == INF for c in caps):
        raise DircutError("packing requires finite integer capacities")
    usable = [i for i in range(net.arc_count) if caps[i] >= 1]
    if iterations is None:
        level = _log2_ceil(net.n)
        iterations = max(
            math.ceil(PACKING_CONSTANT * k * level),
            _young_iterations(eps, len(usable), k),
        )
    wmin = min((caps[i] for i in usable), default=1)
    omega = 1.0 / wmin
    y = [1.0] * net.arc_count
    growth = [1.0] * net.arc_count
    costs: list[float] = [0.0] * net.arc_count
    for i in usable:
        growth[i] = 1.0 + eps * (1.0 / caps[i]) / omega
        costs[i] = y[i] / caps[i]
    arcs = _in_arcs(net, t, usable)
    heaps, cheapest = _cost_heaps(arcs, costs)
    counts: dict[tuple[int, ...], int] = {}
    # The last REPLAY_SLOTS solves as (cheapest, arc_of, plan), None once
    # replaying stops; balance is replayed rounds less failed replays and solves.
    solves: list | None = []
    balance = 0
    for _ in range(iterations):
        arc_of = None
        for key, tree, plan in reversed(solves or ()):
            if key == cheapest:
                if _replays(plan, net.n, costs, cheapest):
                    arc_of = tree
                    balance += 1
                    break
                balance -= 1
        if arc_of is None:
            plan = None if solves is None else []
            arc_of = _edmonds(net, t, costs, arcs=arcs, cheapest=cheapest, plan=plan)
            if solves is not None:
                solves.append((cheapest[:], arc_of, plan))
                del solves[:-REPLAY_SLOTS]
                balance -= 1
                if balance < -REPLAY_SLACK:
                    solves = None
        counts[arc_of] = counts.get(arc_of, 0) + 1
        top = 1.0
        for v, a in enumerate(arc_of):
            if a >= 0:
                y[a] *= growth[a]
                c = costs[a] = y[a] / caps[a]
                if y[a] > top:
                    top = y[a]
                # Costs only rise, so an entry whose cost is no longer its
                # arc's is stale, and v's cheapest can change only when its
                # own tree arc was the cheapest.
                heap = heaps[v]
                if cheapest[v] == a:
                    heapreplace(heap, (c, a))
                    while heap[0][0] != costs[heap[0][1]]:
                        heappop(heap)
                    cheapest[v] = heap[0][1]
                else:
                    heappush(heap, (c, a))
        if top > 1e250:  # argmin is scale-invariant; renormalize before overflow
            for i in usable:
                y[i] /= top
                costs[i] = y[i] / caps[i]
            heaps, cheapest = _cost_heaps(arcs, costs)
    arc_counts: Counter[int] = Counter()
    for arc_of, cnt in counts.items():
        for a in arc_of:
            if a >= 0:
                arc_counts[a] += cnt
    gamma_bar = max(
        (Fraction(cnt, iterations * caps[a]) for a, cnt in arc_counts.items()),
        default=Fraction(0),
    )
    if gamma_bar == 0:
        raise DircutError("degenerate packing: no arcs were ever used")
    items = tuple(
        (_tree(net, t, arc_of), Fraction(cnt, iterations) / gamma_bar)
        for arc_of, cnt in counts.items()
    )
    return ArborescencePacking(items=items, value=1 / gamma_bar)


def one_respecting_mincut(
    net: DirectedNetwork,
    tree: Arborescence,
    t: int,
    *,
    limit: int | Fraction | None = None,
    _missed: set[tuple] | None = None,
) -> STCut | None:
    """Minimum t-cut whose boundary contains exactly one arborescence arc.

    For each tree arc (u, parent(u)): infinite arcs v->parent(v) for every
    other node force min u-t cut source sides to be closed under tree
    parents except at u, which makes them exactly the cuts 1-respecting the
    tree at that arc.  Minimizing over the n-1 designated arcs is exact.
    A node outside u's subtree reaches t along those arcs without passing
    u, so no finite cut holds it: u's flow runs on its subtree, the rest
    merged into t, and a one-node subtree needs no flow.  Each flow stops
    at the best cut so far (at first at `limit`), so a cut is kept only
    when strictly smaller and the earliest arc wins ties.  With `limit`,
    returns None when no 1-respecting cut is below it.  When every cut is
    infinite, the side is the first arc's on the whole pinned network.

    `_missed` is `find_small_cut`'s record, for one network and limit, of
    the subtrees (nodes from u, their parents) whose cut is not below it:
    those are skipped, and new ones added.
    """
    if tree.n != net.n or tree.t != t:
        raise DircutError("arborescence does not match the network")
    if net.n < 2:
        raise DircutError("need at least 2 nodes")
    parent, heads, caps = tree.parent, net.heads, net.caps
    out: list[list[int]] = [[] for _ in range(net.n)]
    children: list[list[int]] = [[] for _ in range(net.n)]
    for a, (v, h) in enumerate(zip(net.tails, heads)):
        if v != h:
            out[v].append(a)
    nodes = [v for v in range(net.n) if v != t]
    for v in nodes:
        children[parent[v]].append(v)
    best: STCut | None = None
    bound = limit  # what the next cut must be strictly below
    for u in nodes:
        if not children[u]:
            cut = STCut(source_side=frozenset((u,)), value=sum(caps[a] for a in out[u]))
        else:
            sub = [u]
            for v in sub:
                sub += children[v]
            key = (tuple(sub), tuple(parent[v] for v in sub[1:]))
            if _missed is not None and key in _missed:
                continue
            k = len(sub)
            local = dict(zip(sub, range(k)))
            # the pins inside the subtree, then the arcs leaving its nodes
            arcs = [(i, local[parent[v]], INF) for i, v in enumerate(sub) if i]
            arcs += [(i, local.get(heads[a], k), caps[a]) for i, v in enumerate(sub) for a in out[v]]
            cut = min_st_cut(_derived(k + 1, *map(list, zip(*arcs))), 0, k, limit=bound)
            if cut is None:
                if _missed is not None and best is None:
                    _missed.add(key)
                continue
            cut = STCut(frozenset(sub[i] for i in cut.source_side), cut.value)
        # A flow that stops below a bound past every finite cut may still
        # cross an infinite arc, so the value is compared too.
        if bound is None or cut.value < bound:
            best, bound = cut, cut.value
    if best is not None and best.value == INF:
        # Which infinite side is minimal depends on the INF substitute, which
        # a subtree network sets lower than the whole network does.
        u = nodes[0]
        pinned = net.extended((v, parent[v], INF) for v in nodes if v != u)
        best = min_st_cut(pinned, u, t)
    return best


def find_small_cut(
    net: DirectedNetwork, t: int, threshold: Fraction | int, k: int, rng: random.Random
) -> STCut | None:
    """Look for a t-cut of value strictly below threshold.

    Runs the sparsify/pack/sample pipeline at accuracy EPSILON and evaluates
    every candidate against the original network, returning the first hit,
    which need not be the smallest cut below threshold; an empty result is
    legal (the caller retries, descends no further, or falls back).
    """
    if net.n < 2:
        raise DircutError("need at least 2 nodes")
    params = SparsifierParams.derive(Fraction(threshold), k, EPSILON, net.n, rng.getrandbits(64))
    sparse = sparsify(net, t, params)
    level = _log2_ceil(net.n)
    packing = pack_arborescences(
        sparse, t, k, EPSILON, iterations=PIPELINE_PACKING_CONSTANT * k * level
    )
    trees = [tree for tree, _ in packing.items]
    weights = [float(w) for _, w in packing.items]
    samples = SAMPLE_CONSTANT * level
    drawn = rng.choices(trees, weights=weights, k=samples)
    seen: set[Arborescence] = set()
    # Each tree before the first hit missed, so a subtree whose cut one of
    # them found not below threshold is not below it in a later tree either.
    missed: set[tuple] = set()
    for tree in drawn:
        if tree in seen:
            continue
        seen.add(tree)
        cut = one_respecting_mincut(net, tree, t, limit=threshold, _missed=missed)
        if cut is not None:
            return cut
    return None


def size_bounded_t_mincut(net: DirectedNetwork, t: int, k: int, rng: random.Random) -> STCut:
    """Minimum t-cut by the sampling pipeline, descending from the trivial cut.

    Starting from every node but t, it asks the small-cut finder for a cut
    below the best value so far, steps to each hit's value and stops at the
    first miss, so each call either lowers the value or ends the search.  It
    is correct w.h.p. when some t-mincut source side has at most k nodes,
    and can only miss (return a cut that is not minimum, never an invalid
    one); `flow.t_cuts_below` scans for it exactly.
    """
    if any(c == INF for c in net.caps):
        raise DircutError("the sampling pipeline requires finite capacities")
    everything = frozenset(v for v in range(net.n) if v != t)
    best = STCut(source_side=everything, value=net.cut_value(everything))
    while best.value > 0:
        cut = find_small_cut(net, t, best.value, k, rng)
        if cut is None:
            break
        best = cut
    return best
