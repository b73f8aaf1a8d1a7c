"""Canonical cut hierarchy: laminar min-ratio cuts as a rooted tree.

Construction contracts star sets in rounds: find candidate dense sets,
check that they are dense cores, contract them, repeat.  An exact round
contracts every maximal densest set of the current graph at once (they are
pairwise disjoint, and one search finds them all); a randomized round, and
its exact fallback, contracts one set, which `verify_core` checks.  Each
accepted set becomes an internal node whose sigma is the set's
skew-density in the graph it was contracted from, which equals the cut
ratio of the all-singleton min-ratio cut of that node's contracted
subgraph.

An exact round is checked by one certificate (`densecore.certify_round`)
instead of one `verify_core` per set.  Why it is exact: let
f(X) = c(E[X]) - tau*(|X|-1), where tau* is the search's density; f is 0
on single vertices and supermodular on intersecting pairs,
f(X | Y) + f(X & Y) >= f(X) + f(Y) (Picard & Queyranne 1982).  Let the
sets S_1..S_r be pairwise disjoint with f(S_j) = 0, and let no subset of
any S_j be strictly denser than tau*, so f <= 0 on every nonempty subset
of an S_j.  Contracting S_j into one node leaves f unchanged on every set
that contains S_j or avoids it, as c(E[S_j]) = tau*(|S_j|-1).  Let G' be
the graph with every S_j contracted.  Claim: G' has no set of two nodes or
more with f >= 0 iff tau* is the maximum skew-density and the S_j are
exactly the maximal densest sets; each S_j is then a dense core.
- Take X with |X| >= 2 and f(X) >= 0 that lies inside no S_j.  For each
  S_j that X meets, f(X & S_j) <= 0, so f(X | S_j) >= f(X).  Growing X by
  every S_j it meets gives a set that contains or avoids each S_j and is
  not a single S_j, with f >= 0; its image in G' has two nodes or more and
  the same f.  So when G' has no such set, every X with f(X) >= 0 lies
  inside some S_j, where f <= 0: tau* is the maximum, every densest set
  lies inside some S_j, and the S_j are the maximal densest sets.  A
  proper superset of S_j lies inside no S_k, so it is strictly sparser,
  and S_j is a dense core.
- Conversely, a set of G' with two nodes or more and f >= 0 expands to a
  densest set that lies inside no S_j, hence in no maximal densest set
  among them.
Scores f are multiples of 1/den(tau*), so on G' the sets with two nodes or
more and f >= 0 are exactly those denser than tau* - delta, with
delta = 1/(n' den(tau*)) and n' the node count of G': one exact probe
decides it.  A two-vertex set has no proper subset of two vertices or
more, so only sets of three or more need the subset check.  G' is the next
round's graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .densecore import certify_round, find_star, find_star_full, verify_core
from .dircut import EPSILON
from .graph import GraphError, MultiwayCut, WeightedGraph, contract, skew_density

#: full randomized size sweeps, each on fresh RNG streams, before the exact
#: search takes over for one contraction
MAX_RESTARTS = 3

#: largest graph on which `validate_hierarchy` also compares every internal
#: node against the brute-force maximal min-ratio cut
ORACLE_LIMIT = 7


@dataclass(frozen=True)
class HierarchyNode:
    """A laminar set: its children partition it; leaves are singletons.

    sigma is the cut ratio of the maximal min-ratio cut of the induced
    subgraph on vertex_set; leaves carry None.
    """

    vertex_set: frozenset[int]
    children: tuple["HierarchyNode", ...]
    sigma: Fraction | None

    # Equality and repr are what the dataclass would generate, and the hash
    # agrees with equality; all three walk the tree with a stack instead of
    # recursing through the children.

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (
                b.__class__ is not a.__class__
                or a.vertex_set != b.vertex_set
                or a.sigma != b.sigma
                or len(a.children) != len(b.children)
            ):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        # Bottom up: a node hashes its vertex set, its children's hashes and
        # its sigma, so equal trees hash equal.
        hashes: dict[int, int] = {}
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                children = tuple(hashes[id(child)] for child in node.children)
                hashes[id(node)] = hash((node.vertex_set, children, node.sigma))
            elif id(node) not in hashes:
                stack.append((node, True))
                stack.extend((child, False) for child in node.children)
        return hashes[id(self)]

    def __repr__(self):
        parts: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            parts.append(
                f"{item.__class__.__qualname__}(vertex_set={item.vertex_set!r}, children=("
            )
            kids = item.children
            stack.append(("," if len(kids) == 1 else "") + f"), sigma={item.sigma!r})")
            for i in reversed(range(len(kids))):
                stack.append(kids[i])
                if i:
                    stack.append(", ")
        return "".join(parts)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator["HierarchyNode"]:
        """This node and its descendants in preorder, without recursion."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass(frozen=True)
class HierarchyTree:
    root: HierarchyNode
    graph: WeightedGraph
    node_by_set: dict[frozenset[int], HierarchyNode] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        index = {node.vertex_set: node for node in self.root.walk()}
        object.__setattr__(self, "node_by_set", index)

    def nodes(self) -> Iterator[HierarchyNode]:
        return self.root.walk()

    def internal_nodes(self) -> Iterator[HierarchyNode]:
        return (node for node in self.root.walk() if not node.is_leaf)


def _leaf(v: int) -> HierarchyNode:
    return HierarchyNode(frozenset({v}), (), None)


def build_hierarchy(
    graph: WeightedGraph,
    *,
    mode: str = "exact",
    rng: random.Random | None = None,
    epsilon: Fraction = EPSILON,
) -> HierarchyTree:
    """Build the canonical cut hierarchy by star-set contraction.

    mode "exact" wires every internal cut subroutine to the exhaustive exact
    implementations; "randomized" exercises the sparsify/pack/sample pipeline
    and, if MAX_RESTARTS full size sweeps accept nothing, falls back to exact
    for that iteration rather than failing.
    """
    if graph.n == 0:
        raise GraphError("hierarchy of the empty graph is undefined")
    if not graph.is_connected():
        raise GraphError("hierarchy is defined for connected graphs")
    if mode not in ("exact", "randomized"):
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        rng = random.Random(0)
    registry = [_leaf(v) for v in range(graph.n)]  # the node of each vertex of cur
    cur = graph
    while cur.n > 1:
        stars, sigma, cur, forward = _accept_star_sets(cur, mode, rng, epsilon)
        nodes: list = [None] * cur.n  # the node of each vertex of the new cur
        for v, slot in enumerate(forward):
            nodes[slot] = registry[v]  # a slot no star took holds one vertex
        for star in stars:
            children = tuple(
                sorted((registry[v] for v in star), key=lambda nd: min(nd.vertex_set))
            )
            nodes[forward[min(star)]] = HierarchyNode(
                frozenset().union(*(c.vertex_set for c in children)), children, sigma
            )
        registry = nodes
    return HierarchyTree(root=registry[0], graph=graph)


def _sweep_sizes(n: int) -> list[int]:
    sizes = []
    k = 2
    while True:
        sizes.append(k)
        if k >= n:
            break
        k *= 2
    return sizes


def _accept_star_sets(
    cur: WeightedGraph, mode: str, rng: random.Random, epsilon: Fraction
) -> tuple[tuple[frozenset[int], ...], Fraction, WeightedGraph, tuple[int, ...]]:
    """One outer iteration: the disjoint dense cores of cur to contract.

    Returns them, their common skew-density in cur, and cur with each of
    them contracted, with the contraction's forward map.  Exact mode takes
    every maximal densest set of one exact search, under one round
    certificate; randomized mode takes one verified set (see
    `_randomized_star`).
    """
    if mode == "exact":
        search = find_star_full(cur, cur.n, mode="exact", epsilon=epsilon)
        sets, tau = search.sets, search.tau_star
        return sets, tau, *certify_round(cur, tau, sets)
    star = _randomized_star(cur, rng, epsilon)
    return (star,), skew_density(cur, star), *contract(cur, star)


def _randomized_star(cur: WeightedGraph, rng: random.Random, epsilon: Fraction) -> frozenset[int]:
    """A dense core of cur from the sampling pipeline, else from the exact search.

    Sweeps doubling sizes k, accepting a candidate of more than k/2 and at
    most k vertices that verifies, for MAX_RESTARTS rounds.  The exact
    search then runs once, ignoring k, and its candidate must verify.
    """
    for _ in range(MAX_RESTARTS):
        for k in _sweep_sizes(cur.n):
            sub_rng = random.Random(rng.getrandbits(64))
            candidate = find_star(cur, k, mode="randomized", rng=sub_rng, epsilon=epsilon)
            if k // 2 < len(candidate) <= k and verify_core(cur, k, candidate):
                return candidate
    sub_rng = random.Random(rng.getrandbits(64))
    star = find_star(cur, cur.n, mode="exact", rng=sub_rng, epsilon=epsilon)
    if not verify_core(cur, cur.n, star):
        raise RuntimeError(f"{sorted(star)} from the exact search is not a dense core")
    return star


def node_sigma(tree: HierarchyTree, vertex_set) -> Fraction:
    node = tree.node_by_set.get(frozenset(vertex_set))
    if node is None:
        raise KeyError(f"no hierarchy node for {sorted(vertex_set)}")
    if node.sigma is None:
        raise ValueError("leaves carry no cut ratio")
    return node.sigma


def strength(tree: HierarchyTree) -> Fraction:
    """Minimum cut ratio over all multiway cuts: the root's sigma."""
    if tree.root.sigma is None:
        raise ValueError("single-vertex graph has no multiway cut")
    return tree.root.sigma


def maximal_min_ratio_cut(tree: HierarchyTree) -> MultiwayCut:
    """The root's children as a multiway cut of the underlying graph."""
    if tree.root.is_leaf:
        raise ValueError("single-vertex graph has no multiway cut")
    return MultiwayCut(tree.graph, [c.vertex_set for c in tree.root.children])


def _charge_edges(
    graph: WeightedGraph, root: HierarchyNode
) -> tuple[list[frozenset[int]], dict[frozenset[int], int]]:
    """Charge each edge to the deepest node holding both its ends.

    Returns each edge's node, as its vertex set, and the weight charged to
    each node.  The node is the lowest common ancestor of the ends' leaves:
    the shallowest node between them on an Euler tour of the tree, read in
    O(1) per edge from a sparse table of the tour's depths.  Every vertex
    needs a singleton node; the first one on the tour stands for it.
    """
    euler: list[HierarchyNode] = []
    depth: list[int] = []
    first: dict[int, int] = {}  # vertex -> tour position of its leaf
    stack: list[tuple[HierarchyNode, int, int]] = [(root, 0, 0)]
    while stack:
        node, d, child_idx = stack.pop()
        if child_idx == 0 and len(node.vertex_set) == 1:
            first.setdefault(next(iter(node.vertex_set)), len(euler))
        euler.append(node)
        depth.append(d)
        if child_idx < len(node.children):
            stack.append((node, d, child_idx + 1))
            stack.append((node.children[child_idx], d + 1, 0))
    # table[j][i]: the shallowest tour position among i .. i + 2^j - 1
    table = [list(range(len(euler)))]
    for j in range(1, len(euler).bit_length()):
        prev = table[-1]
        table.append(
            [a if depth[a] <= depth[b] else b for a, b in zip(prev, prev[1 << (j - 1) :])]
        )
    edge_node: list[frozenset[int]] = []
    charged: dict[frozenset[int], int] = {}
    for u, v, w in graph.edges:
        i, j = sorted((first[u], first[v]))
        level = (j - i + 1).bit_length() - 1
        a, b = table[level][i], table[level][j + 1 - (1 << level)]
        key = euler[a if depth[a] <= depth[b] else b].vertex_set
        edge_node.append(key)
        charged[key] = charged.get(key, 0) + w
    return edge_node, charged


def validate_hierarchy(graph: WeightedGraph, tree: HierarchyTree) -> list[str]:
    """Structural checks, then each internal node's sigma certificate; on
    small graphs also compares each internal node's children against the
    brute-force maximal min-ratio cut.  Returns a list of violation
    descriptions, empty when the tree is consistent.

    The certificate holds at any size: an internal node's sigma is the
    weight charged to it, that of its edges that join different children,
    divided by the number of children minus one.  It runs once the tree's
    shape is sound, so that every edge has one node to be charged to.
    """
    violations: list[str] = []
    ratios: list[str] = []  # sigma violations, listed after the shape's
    if tree.root.vertex_set != frozenset(range(graph.n)):
        violations.append("root does not cover the vertex set")
    for node in tree.nodes():
        if node.is_leaf:
            if len(node.vertex_set) != 1:
                violations.append(f"leaf {sorted(node.vertex_set)} is not a singleton")
            if node.sigma is not None:
                violations.append(f"leaf {sorted(node.vertex_set)} carries a ratio")
            continue
        if node.sigma is None:
            violations.append(f"internal node {sorted(node.vertex_set)} lacks a ratio")
        if len(node.children) < 2:
            violations.append(f"internal node {sorted(node.vertex_set)} has < 2 children")
        union: set[int] = set()
        for child in node.children:
            if union & child.vertex_set:
                violations.append(
                    f"children of {sorted(node.vertex_set)} overlap"
                )
            union |= child.vertex_set
            if (
                not child.is_leaf
                and child.sigma is not None
                and node.sigma is not None
                and child.sigma < node.sigma
            ):
                ratios.append(
                    f"ratio decreases from {sorted(node.vertex_set)} to "
                    f"{sorted(child.vertex_set)}"
                )
        if union != node.vertex_set:
            violations.append(f"children of {sorted(node.vertex_set)} do not partition it")
    if not violations:
        _, charged = _charge_edges(graph, tree.root)
        for node in tree.internal_nodes():
            ratio = Fraction(charged.get(node.vertex_set, 0), len(node.children) - 1)
            if ratio != node.sigma:
                ratios.append(
                    f"ratio of {sorted(node.vertex_set)} is {node.sigma}, the "
                    f"weight between its children gives {ratio}"
                )
    violations += ratios
    if graph.n <= ORACLE_LIMIT:
        from .graph import induced_subgraph
        from .oracle import brute_min_ratio_cut

        for node in tree.internal_nodes():
            sub, to_orig = induced_subgraph(graph, node.vertex_set)
            if sub.n < 2:
                continue
            ratio, cut = brute_min_ratio_cut(sub)
            expected = {frozenset(to_orig[v] for v in side) for side in cut.sides}
            actual = {c.vertex_set for c in node.children}
            if expected != actual:
                violations.append(
                    f"children of {sorted(node.vertex_set)} are not the maximal "
                    "min-ratio cut"
                )
            if node.sigma != ratio:
                violations.append(
                    f"ratio of {sorted(node.vertex_set)} is {node.sigma}, oracle "
                    f"says {ratio}"
                )
    return violations
