"""Directed capacitated networks and exact integral max flow / min cut.

Capacities are nonnegative integers or the INF sentinel.  Inside the flow
engine INF arcs are replaced by 1 + (sum of all finite capacities), which
exceeds every finite cut; a cut whose value comes out above the finite total
is reported as infinite.

Each network builds its engine once, on first use: residual arrays `to`,
`base_cap` and `adj` in which arc 2i is network arc i and arc 2i+1 its
reverse.  A flow is one array over those arcs: `FlowResult.residual` is what
the engine's run left, so the flow on arc i is residual[2i+1].  Min-cut sides
are read by walking `adj`/`to` over that array.  `_Engine.set_cap` edits a
capacity in place between runs: the 1-respecting cut search in `dircut`
lowers one tree arc at a time.

The engine is plain Dinic (blocking flows along shortest augmenting paths,
strongly polynomial).  Each phase's BFS stops at the level of the nearest
sink, so a non-sink at that level has no arc into the next level and is a
dead end; it is unlabeled before the search, which then finds the same paths
in the same order without entering it.  A flow ends at t or at any extra
sink the caller names, so the per-source scan retires each scanned source
into the sink set (Hao and Orlin 1994) on the caller's own network, and
each source's flow continues the residual the previous one left (see
`t_cuts_below` for why that is exact).  A `limit` stops augmentation once
the flow value reaches it, which lets callers ask "is the min cut below x?"
without paying for an exact answer when it is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

INF = float("inf")


class FlowError(ValueError):
    """Invalid network construction or flow query."""


class DirectedNetwork:
    """Digraph with parallel arcs and integer-or-infinite capacities."""

    __slots__ = ("n", "tails", "heads", "caps", "_finite_total", "_engine")

    def __init__(self, n: int):
        if n < 0:
            raise FlowError("node count must be nonnegative")
        self.n = n
        self.tails: list[int] = []
        self.heads: list[int] = []
        self.caps: list[int | float] = []
        self._finite_total = 0
        self._engine: "_Engine | None" = None

    def add_arc(self, tail: int, head: int, cap: int | float) -> int:
        _check_arc(self.n, tail, head, cap)
        if cap != INF:
            self._finite_total += cap
        self.tails.append(tail)
        self.heads.append(head)
        self.caps.append(cap)
        self._engine = None
        return len(self.caps) - 1

    @property
    def arc_count(self) -> int:
        return len(self.caps)

    def arcs(self) -> Iterable[tuple[int, int, int | float]]:
        return zip(self.tails, self.heads, self.caps)

    def finite_total(self) -> int:
        return self._finite_total

    def cut_value(self, source_side: Iterable[int]) -> int | float:
        """d+(S): total capacity of arcs leaving source_side."""
        s = frozenset(source_side)
        total = 0
        for u, v, c in zip(self.tails, self.heads, self.caps):
            if u in s and v not in s:
                if c == INF:
                    return INF
                total += c
        return total

    def extended(self, extra_arcs: Iterable[tuple[int, int, int | float]]) -> "DirectedNetwork":
        """Copy of this network with additional arcs appended; only those
        are checked, as `add_arc` checks them."""
        tails, heads, caps = list(self.tails), list(self.heads), list(self.caps)
        for u, v, c in extra_arcs:
            _check_arc(self.n, u, v, c)
            tails.append(u)
            heads.append(v)
            caps.append(c)
        return _derived(self.n, tails, heads, caps)

    def engine(self) -> "_Engine":
        if self._engine is None:
            self._engine = _Engine(self)
        return self._engine

    def __repr__(self):
        return f"DirectedNetwork(n={self.n}, arcs={self.arc_count})"


def _check_arc(n: int, tail: int, head: int, cap: int | float) -> None:
    if not (0 <= tail < n and 0 <= head < n):
        raise FlowError("arc endpoint out of range")
    if cap != INF and (not isinstance(cap, int) or cap < 0):
        raise FlowError("capacity must be a nonnegative integer or INF")


def _derived(
    n: int, tails: list[int], heads: list[int], caps: list[int | float]
) -> DirectedNetwork:
    """A network on arcs derived from checked ones, with endpoints in
    0..n-1 and nonnegative integer or INF caps, built without checking each
    arc again; it takes the three lists as they are."""
    net = DirectedNetwork(n)
    net.tails, net.heads, net.caps = tails, heads, caps
    net._finite_total = sum(c for c in caps if c != INF)
    return net


@dataclass(frozen=True, eq=False)
class FlowResult:
    """An s-t flow, as the residual capacities its engine run ended with.

    residual[2i] is what network arc i can still carry and residual[2i+1] is
    the flow on it; INF arcs carry the engine's finite substitute.  The array
    is the run's own, not a copy, so results compare and hash by identity.
    """

    value: int
    residual: list[int]
    reached_limit: bool = False


@dataclass(frozen=True)
class STCut:
    """A directed cut given by its source side; value INF means no finite cut."""

    source_side: frozenset[int]
    value: int | float


class _Engine:
    """Residual arrays for one network; arc 2i is forward, 2i+1 back."""

    __slots__ = ("n", "to", "base_cap", "adj", "big")

    def __init__(self, net: DirectedNetwork):
        big = net.finite_total() + 1
        arcs = 2 * net.arc_count
        to = [0] * arcs
        to[0::2] = net.heads
        to[1::2] = net.tails
        base_cap = [0] * arcs
        base_cap[0::2] = [big if c == INF else c for c in net.caps]
        owner = [0] * arcs  # the node each residual arc leaves
        owner[0::2] = net.tails
        owner[1::2] = net.heads
        adj: list[list[int]] = [[] for _ in range(net.n)]
        for a, u in enumerate(owner):
            adj[u].append(a)
        self.n = net.n
        self.to = to
        self.base_cap = base_cap
        self.adj = adj
        self.big = big

    def set_cap(self, arc: int, cap: int | float) -> None:
        """Give network arc `arc` capacity `cap` in every later run.

        INF stands for the engine's substitute.  A finite cap may not exceed
        the arc's current one: a raise could lift a finite cut above the
        substitute.  The network's own arcs, caps and finite total are left
        as they were, so edit only engines of networks private to the caller.
        """
        if cap == INF:
            c = self.big
        elif not 0 <= cap <= self.base_cap[2 * arc]:
            raise FlowError("a finite capacity can only be lowered, to 0 at least")
        else:
            c = cap
        self.base_cap[2 * arc] = c

    def run(self, s: int, sink: list[bool], limit: int | None, cap: list[int]) -> tuple[int, bool]:
        """Blocking flows from s into the marked sinks, augmenting the residual
        array `cap` in place; (value of the added flow, reached_limit)."""
        n = self.n
        to = self.to
        adj = self.adj

        value = 0
        if limit is not None and value >= limit:
            return value, True
        while True:
            # BFS level graph on arcs with residual left; sinks are not expanded.
            level = [-1] * n
            level[s] = 0
            queue = [s]
            qi = 0
            depth = n  # level of the nearest sink, once one is reached
            while qi < len(queue):
                v = queue[qi]
                qi += 1
                lv = level[v] + 1
                if lv > depth:
                    break  # deeper nodes cannot lie on a shortest path
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
            # A non-sink at the sink depth has no arc one level deeper, so
            # it is a dead end: unlabel it and the search never enters it.
            for w in reversed(queue):
                if level[w] < depth:
                    break
                level[w] = -1
            it = [0] * n
            # Extract augmenting paths from the level graph.
            while True:
                path: list[int] = []
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
                    level[v] = -1  # dead end within this phase
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
                    return value, True
        return value, False


def max_flow(
    net: DirectedNetwork,
    s: int,
    t: int,
    *,
    limit: int | None = None,
    sinks: Iterable[int] = (),
    start: FlowResult | None = None,
) -> FlowResult:
    """Exact integral max flow by blocking flows (Dinic).

    With `limit`, augmentation stops once the flow value reaches it and the
    result is marked reached_limit; the caller then knows the min cut is at
    least `limit`.  With `sinks`, the flow may end at any of them as well as
    at t; its min cuts are the s-t cuts that keep every sink on the t side.
    With `start`, the run augments that flow's residual in place (`start`
    is used up) and the value counts only the new flow; see `t_cuts_below`
    for when that answers the same question as a flow from zero.
    """
    ends = (s, t, *sinks)
    if min(ends) < 0 or max(ends) >= net.n:
        raise FlowError("source or sink out of range")
    sink = [False] * net.n
    for v in ends[1:]:
        sink[v] = True
    if sink[s]:
        raise FlowError("source and sink must differ")
    engine = net.engine()
    cap = engine.base_cap.copy() if start is None else _residual_of(net, start)
    value, reached = engine.run(s, sink, limit, cap)
    return FlowResult(value=value, residual=cap, reached_limit=reached)


def _residual_of(net: DirectedNetwork, flow: FlowResult) -> list[int]:
    if len(flow.residual) != 2 * net.arc_count:
        raise FlowError("the flow does not match the network's arcs")
    return flow.residual


def validate_flow(net: DirectedNetwork, flow: FlowResult, s: int, t: int) -> None:
    """Check bounds and conservation of a single-sink flow; raises FlowError."""
    flows = _residual_of(net, flow)[1::2]
    balance = [0] * net.n
    for i, (u, v, c, f) in enumerate(zip(net.tails, net.heads, net.caps, flows)):
        if f < 0 or (c != INF and f > c):
            raise FlowError(f"arc {i} flow {f} violates capacity {c}")
        balance[u] -= f
        balance[v] += f
    for v in range(net.n):
        if v == s:
            if balance[v] != -flow.value:
                raise FlowError("source outflow does not match the flow value")
        elif v == t:
            if balance[v] != flow.value:
                raise FlowError("sink inflow does not match the flow value")
        elif balance[v] != 0:
            raise FlowError(f"node {v} violates flow conservation")


def _reach(net: DirectedNetwork, flow: FlowResult, start: int, flip: int) -> set[int]:
    """Nodes reachable from start on arcs with residual left (flip=0), or the
    nodes that reach start that way (flip=1: arc a leaves v, so its reverse
    a ^ 1 enters v from to[a])."""
    res = _residual_of(net, flow)
    engine = net.engine()
    to, adj = engine.to, engine.adj
    seen = {start}
    stack = [start]
    while stack:
        for a in adj[stack.pop()]:
            if res[a ^ flip] > 0:
                w = to[a]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return seen


def min_source_side(net: DirectedNetwork, flow: FlowResult, s: int) -> frozenset[int]:
    """Canonical minimal min-cut source side: residual reachability from s."""
    return frozenset(_reach(net, flow, s, 0))


def max_source_side(net: DirectedNetwork, flow: FlowResult, t: int) -> frozenset[int]:
    """Maximal min-cut source side of a single-sink flow: what cannot reach t."""
    return frozenset(range(net.n)).difference(_reach(net, flow, t, 1))


def _as_cut_value(net: DirectedNetwork, value: int) -> int | float:
    return INF if value > net.finite_total() else value


def min_st_cut(
    net: DirectedNetwork, s: int, t: int, *, limit: int | None = None
) -> STCut | None:
    """Minimum s-t cut with the canonical minimal source side.

    Returns None when `limit` is given and the min cut value is >= limit.
    """
    flow = max_flow(net, s, t, limit=limit)
    if flow.reached_limit:
        return None
    side = min_source_side(net, flow, s)
    return STCut(source_side=side, value=_as_cut_value(net, flow.value))


def t_cuts_below(
    net: DirectedNetwork,
    t: int,
    *,
    limit: int | None = None,
    sources: Iterable[int] | None = None,
    start: FlowResult | None = None,
) -> list[STCut]:
    """Per scanned source, its minimal min t-cut when that is below `limit`.

    Sources are scanned in order (default: every node; repeats and t are
    skipped), each by one flow that stops at the fixed `limit`.  A scanned
    source joins the sink set (Hao and Orlin): every side containing it is
    accounted for by its own flow, so later flows cut only sides avoiding
    the set and stop sooner.  A flow below the limit is maximum into the
    set, so the side recorded for it is the smallest min cut that contains
    its source and avoids every earlier one.  When `sources` meets every
    t-cut below the limit, the least recorded value is the minimum t-cut.
    Without a limit every scanned source is recorded, with value INF when
    it has no finite cut.

    Each flow starts from the residual the previous source's flow left, not
    from zero.  That carried flow F is a sum of flows out of earlier sources
    into sinks, so it balances every node except t and the earlier sources,
    and those are all sinks now.  A side X that holds the current source and
    avoids the sinks therefore has net F-flow 0 out of it, and its residual
    out-capacity is exactly its cut value d+(X).  So whether the new flow
    reaches the limit, its value when it does not, and the residual-reachable
    minimal side all come out as a flow from zero gives them.  A flow that
    stops at the limit is still a flow to carry, and INF arcs keep their
    finite substitute throughout.

    With `start`, as in `max_flow`, the scan runs on the residual network
    `start` leaves, each residual slot an arc with what is left on it as
    capacity: every cut value and side above is that network's, and the
    first flow continues `start` (used up) as each later one continues the
    flow before it.
    """
    if net.n < 2:
        raise FlowError("t-mincut needs at least 2 nodes")
    if not 0 <= t < net.n:
        raise FlowError("t out of range")
    if sources is None:
        sources = range(net.n)
    retired = {t}
    cuts: list[STCut] = []
    flow = start
    for s in sources:
        if s in retired:
            continue
        flow = max_flow(net, s, t, limit=limit, sinks=retired, start=flow)
        if not flow.reached_limit:
            side = min_source_side(net, flow, s)
            cuts.append(STCut(source_side=side, value=_as_cut_value(net, flow.value)))
        retired.add(s)
    return cuts


def t_mincut_exhaustive(
    net: DirectedNetwork,
    t: int,
    *,
    limit: int | None = None,
    sources: Iterable[int] | None = None,
) -> STCut | None:
    """Minimum over all sources s != t of the min s-t cut.

    Covers every t-cut (source side excluding t) exactly: the least of
    `t_cuts_below`, the earliest scanned on ties.  With `limit`, returns
    None unless some t-cut is strictly below it.  `sources`, when given,
    must be guaranteed by the caller to intersect every t-cut below the
    limit; repeats and t are skipped.
    An all-infinite answer is reported with value INF.
    """
    cuts = t_cuts_below(net, t, limit=limit, sources=sources)
    return min(cuts, key=lambda cut: cut.value, default=None)
