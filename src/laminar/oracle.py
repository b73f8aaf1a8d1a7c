"""Brute-force reference implementations backing the property tests.

Everything here is independent of the flow-based fast paths: set partitions
are enumerated via restricted-growth strings, subsets via bitmasks, and the
entropy oracle is a Frank-Wolfe loop over the spanning tree polytope.  Size
guards are hard errors, never silent truncation.  Ties are broken
deterministically: enumeration follows increasing bitmask / lexicographic
vertex order and keeps the first optimum (for densest sets, the largest
optimum, then lexicographic).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .flow import INF, DirectedNetwork, STCut
from .graph import MultiwayCut, WeightedGraph, connected_components, induced_subgraph
from .hierarchy import HierarchyNode, HierarchyTree, _certify_tree, _join
from .loads import entropy_value

PARTITION_GUARD = 10
SUBSET_GUARD = 20
UNIT_EDGE_GUARD = 200
FW_CLIP = 1e-12
#: largest graph on which `validate_hierarchy` also compares the tree against
#: the brute-force hierarchy of maximal min-ratio cuts
ORACLE_LIMIT = 7


class SizeGuardError(ValueError):
    """Instance exceeds the documented brute-force size bound."""


def set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    """All set partitions of items, by restricted-growth strings."""
    n = len(items)
    if n == 0:
        yield []
        return
    rgs = [0] * n
    maxes = [0] * n
    while True:
        blocks: list[list[int]] = [[] for _ in range(max(rgs) + 1)]
        for i, b in enumerate(rgs):
            blocks[b].append(items[i])
        yield blocks
        i = n - 1
        while i > 0:
            if rgs[i] <= maxes[i - 1]:
                rgs[i] += 1
                maxes[i] = max(maxes[i - 1], rgs[i])
                for j in range(i + 1, n):
                    rgs[j] = 0
                    maxes[j] = maxes[i]
                break
            i -= 1
        else:
            return


def _inside_weights(graph: WeightedGraph) -> list[int]:
    """inner[mask] = total weight of edges with both endpoints in mask."""
    n = graph.n
    inner = [0] * (1 << n)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (other, weight)
    for u, v, w in graph.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        extra = 0
        for u, w in adj[v]:
            if rest >> u & 1:
                extra += w
        inner[mask] = inner[rest] + extra
    return inner


def _mask_density(inner: list[int], mask: int) -> Fraction:
    size = bin(mask).count("1")
    if size <= 1:
        return Fraction(0)
    return Fraction(inner[mask], size - 1)


def brute_min_ratio_cut(graph: WeightedGraph) -> tuple[Fraction, MultiwayCut]:
    """Minimum cut ratio and the maximal min-ratio cut, by full enumeration.

    The maximal cut is recovered as the connected components left after
    deleting the union of the boundaries of every ratio-minimizing partition.
    """
    if graph.n > PARTITION_GUARD:
        raise SizeGuardError(f"partition enumeration refuses n > {PARTITION_GUARD}")
    if graph.n < 2:
        raise ValueError("a multiway cut needs at least 2 vertices")
    if not graph.is_connected():
        raise ValueError("min-ratio cut is defined for connected graphs")
    best: Fraction | None = None
    boundary_union: set[int] = set()
    vertices = list(range(graph.n))
    for blocks in set_partitions(vertices):
        k = len(blocks)
        if k < 2:
            continue
        side_of = {}
        for i, b in enumerate(blocks):
            for v in b:
                side_of[v] = i
        boundary = [
            idx for idx, (u, v, _) in enumerate(graph.edges) if side_of[u] != side_of[v]
        ]
        weight = sum(graph.edges[i][2] for i in boundary)
        ratio = Fraction(weight, k - 1)
        if best is None or ratio < best:
            best = ratio
            boundary_union = set(boundary)
        elif ratio == best:
            boundary_union |= set(boundary)
    assert best is not None
    keep = [i for i in range(graph.m) if i not in boundary_union]
    sides = connected_components(graph, keep)
    cut = MultiwayCut(graph, sides)
    if cut.ratio != best:
        raise AssertionError("maximal min-ratio cut reconstruction is inconsistent")
    return best, cut


def brute_max_skew_density(graph: WeightedGraph) -> tuple[Fraction, frozenset[int]]:
    """Maximum skew-density and its largest maximizer (then lexicographic).

    For an edgeless graph every density is 0 and the lowest-id singleton is
    returned by convention.
    """
    if graph.n > SUBSET_GUARD:
        raise SizeGuardError(f"subset enumeration refuses n > {SUBSET_GUARD}")
    if graph.n == 0:
        raise ValueError("graph has no vertices")
    if graph.total_weight() == 0:
        return Fraction(0), frozenset({0})
    inner = _inside_weights(graph)
    best = Fraction(0)
    best_mask = 1
    best_size = 1
    for mask in range(1, 1 << graph.n):
        size = bin(mask).count("1")
        if size < 2:
            continue
        rho = Fraction(inner[mask], size - 1)
        if rho > best or (rho == best and size > best_size):
            best = rho
            best_mask = mask
            best_size = size
    return best, frozenset(v for v in range(graph.n) if best_mask >> v & 1)


def brute_dense_core(graph: WeightedGraph, s: Iterable[int]) -> bool:
    """Literal quantifier check: denser-or-equal than every subset, strictly
    denser than every proper superset."""
    if graph.n > SUBSET_GUARD:
        raise SizeGuardError(f"subset enumeration refuses n > {SUBSET_GUARD}")
    s_set = frozenset(s)
    if not s_set or not s_set <= set(range(graph.n)):
        raise ValueError("set must be a nonempty subset of the vertices")
    inner = _inside_weights(graph)
    s_mask = 0
    for v in s_set:
        s_mask |= 1 << v
    rho_s = _mask_density(inner, s_mask)
    sub = s_mask
    while True:  # submask enumeration, including the empty set
        if _mask_density(inner, sub) > rho_s:
            return False
        if sub == 0:
            break
        sub = (sub - 1) & s_mask
    full = (1 << graph.n) - 1
    outside = full ^ s_mask
    extra = outside
    while extra:  # all nonempty additions to s
        if _mask_density(inner, s_mask | extra) >= rho_s:
            return False
        extra = (extra - 1) & outside
    return True


def brute_hierarchy(graph: WeightedGraph) -> HierarchyTree:
    """Top-down recursion with the maximal min-ratio cut at every level."""
    if graph.n > PARTITION_GUARD:
        raise SizeGuardError(f"partition enumeration refuses n > {PARTITION_GUARD}")
    if not graph.is_connected():
        raise ValueError("hierarchy is defined for connected graphs")

    def descend(sub: WeightedGraph, to_orig: Sequence[int]) -> HierarchyNode:
        if sub.n == 1:
            return HierarchyNode(to_orig[0])
        ratio, cut = brute_min_ratio_cut(sub)
        sides = (induced_subgraph(sub, side) for side in cut.sides)
        return _join((descend(inner, [to_orig[v] for v in back]) for inner, back in sides), ratio)

    root = descend(graph, list(range(graph.n)))
    return HierarchyTree(root=root, graph=graph)


def validate_hierarchy(graph: WeightedGraph, tree: HierarchyTree) -> list[str]:
    """The tree certificate's violations (see `hierarchy`), at any size; on
    small connected graphs also compares the whole tree against the
    brute-force hierarchy, every node's children and ratio, once the shape
    is sound.  Returns a list of violation descriptions, empty when the tree
    is consistent.
    """
    if graph != tree.graph:
        tree = HierarchyTree(tree.root, graph)
    violations = _certify_tree(tree)
    if graph.n <= ORACLE_LIMIT and not tree.faults and graph.is_connected():
        if tree.root != brute_hierarchy(graph).root:
            violations.append("the tree is not the oracle's hierarchy of maximal min-ratio cuts")
    return violations


def _node_masks(net: DirectedNetwork, t: int) -> list[int]:
    return [v for v in range(net.n) if v != t]


def brute_t_mincut(net: DirectedNetwork, t: int) -> STCut:
    """Minimum d+(S) over all nonempty S excluding t, by subset enumeration."""
    if net.n > SUBSET_GUARD:
        raise SizeGuardError(f"subset enumeration refuses more than {SUBSET_GUARD} nodes")
    if net.n < 2:
        raise ValueError("t-mincut needs at least 2 nodes")
    others = _node_masks(net, t)
    bit_of = {v: i for i, v in enumerate(others)}
    arcs = []
    for u, v, c in net.arcs():
        u_bit = bit_of.get(u)
        v_bit = bit_of.get(v)
        arcs.append((u_bit, v_bit, c))
    best_value: int | float | None = None
    best_mask = None
    for mask in range(1, 1 << len(others)):
        value: int | float = 0
        for u_bit, v_bit, c in arcs:
            if u_bit is None:  # tail is t, never leaves an S excluding t
                continue
            if mask >> u_bit & 1 and (v_bit is None or not mask >> v_bit & 1):
                if c == INF:
                    value = INF
                    break
                value += c
        if best_value is None or value < best_value:
            best_value = value
            best_mask = mask
    assert best_mask is not None and best_value is not None
    side = frozenset(others[i] for i in range(len(others)) if best_mask >> i & 1)
    return STCut(source_side=side, value=best_value)


def brute_one_respecting(net: DirectedNetwork, parent: dict[int, int], t: int) -> STCut:
    """Minimum t-cut crossed by exactly one arborescence arc, by enumeration."""
    if net.n > SUBSET_GUARD:
        raise SizeGuardError(f"subset enumeration refuses more than {SUBSET_GUARD} nodes")
    others = _node_masks(net, t)
    bit_of = {v: i for i, v in enumerate(others)}
    best_value: int | float | None = None
    best_mask = None
    for mask in range(1, 1 << len(others)):
        crossings = 0
        for v, p in parent.items():
            if mask >> bit_of[v] & 1 and (p == t or not mask >> bit_of[p] & 1):
                crossings += 1
        if crossings != 1:
            continue
        side = frozenset(others[i] for i in range(len(others)) if mask >> i & 1)
        value = net.cut_value(side)
        if best_value is None or value < best_value:
            best_value = value
            best_mask = mask
    if best_mask is None:
        raise ValueError("no 1-respecting cut exists (invalid arborescence)")
    side = frozenset(others[i] for i in range(len(others)) if best_mask >> i & 1)
    return STCut(source_side=side, value=best_value)


@dataclass(frozen=True)
class FrankWolfeResult:
    """Approximate entropy maximizer over the spanning tree polytope."""

    unit_edges: tuple[tuple[int, int, int], ...]  # (u, v, weighted edge index)
    marginals: tuple[float, ...]
    value: float  # sum x ln x at the marginals
    gap: float  # Frank-Wolfe duality gap estimate


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _min_weight_tree(n: int, unit_edges, weights: Sequence[float]) -> list[int]:
    """Kruskal over unit edges; returns chosen unit-edge indices."""
    order = sorted(range(len(unit_edges)), key=lambda i: weights[i])
    uf = _UnionFind(n)
    chosen = []
    for i in order:
        u, v, _ = unit_edges[i]
        if uf.union(u, v):
            chosen.append(i)
            if len(chosen) == n - 1:
                break
    if len(chosen) != n - 1:
        raise ValueError("graph is not connected")
    return chosen


def frank_wolfe_entropy(
    graph: WeightedGraph, iterations: int, *, seed: int = 0
) -> FrankWolfeResult:
    """Entropy maximization over the spanning tree polytope by Frank-Wolfe.

    Works on the unit-edge expansion (each weight-c edge becomes c parallel
    unit edges, at most 200 in total).  The linear step is a minimum-weight
    spanning tree against the gradient 1 + ln x (clipped near zero), the step
    size is 2/(t+2), and the start point is the average of n random spanning
    trees.  Raises ValueError unless iterations is at least 1.
    """
    if iterations < 1:
        raise ValueError(f"Frank-Wolfe needs at least 1 iteration, got {iterations}")
    if not graph.is_connected() or graph.n == 0:
        raise ValueError("entropy oracle needs a connected, nonempty graph")
    if graph.total_weight() > UNIT_EDGE_GUARD:  # the expansion's length, without building it
        raise SizeGuardError(f"unit-edge expansion exceeds {UNIT_EDGE_GUARD}")
    unit_edges = tuple(
        (u, v, idx) for idx, (u, v, w) in enumerate(graph.edges) for _ in range(w)
    )
    n = graph.n
    k = len(unit_edges)
    if n == 1:
        return FrankWolfeResult((), (), 0.0, 0.0)
    rng = random.Random(seed)
    x = [0.0] * k
    trees = max(1, n)
    for _ in range(trees):
        shuffled = list(range(k))
        rng.shuffle(shuffled)
        rank_of = {idx: pos for pos, idx in enumerate(shuffled)}
        tree = _min_weight_tree(n, unit_edges, [rank_of[i] for i in range(k)])
        for i in tree:
            x[i] += 1.0 / trees
    gradient = [0.0] * k
    tree = list(range(min(n - 1, k)))
    for step in range(iterations):
        for i in range(k):
            gradient[i] = 1.0 + math.log(max(x[i], FW_CLIP))
        tree = _min_weight_tree(n, unit_edges, gradient)
        gamma = 2.0 / (step + 2.0)
        in_tree = set(tree)
        for i in range(k):
            target = 1.0 if i in in_tree else 0.0
            x[i] += gamma * (target - x[i])
    for i in range(k):
        gradient[i] = 1.0 + math.log(max(x[i], FW_CLIP))
    tree = _min_weight_tree(n, unit_edges, gradient)
    gap = sum(gradient[i] * x[i] for i in range(k)) - sum(gradient[i] for i in tree)
    return FrankWolfeResult(
        unit_edges=unit_edges,
        marginals=tuple(x),
        value=entropy_value(x),
        gap=gap,
    )
