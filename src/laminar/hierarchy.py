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

Every hierarchy, exact or randomized, is checked once, when it is
complete, by a certificate of the whole tree (`_certify_tree`), so a
randomized build cannot return a wrong tree silently.  For an
internal node X with children C_1..C_r, let G_X be the graph on the
children, each contracted to one node, with the edges charged to X: those
of G[X] that join two different children.  Besides the tree's shape, the
certificate checks at every X:
(a) G_X is connected and no set of its nodes is denser than the whole of
    G_X: c(G_X) > 0 and one exact probe at c(G_X)/(r-1) misses (with r = 2
    only the whole set has two nodes; with r >= 3 the probe also finds a
    split, as of two parts with no edge between them one is denser than the
    whole);
(b) sigma rises strictly from X to each internal child;
(c) sigma(X) = c(G_X)/(r-1).
Why it is exact.  Load each edge e with y_e = w_e/sigma(X_e), where X_e is
the node it is charged to.  Claim: on G[X], y lies in the spanning-tree
polytope, y(E[X]) = |X|-1 and y(E[S]) <= |S|-1 for every nonempty S inside
X.  By induction from the leaves: the edges charged to X carry
c(G_X)/sigma(X) = r-1 by (c), and each child C carries |C|-1 inside it,
which sums to |X|-1.  Let S meet the children in I, with S_i = S & C_i:
its edges charged to X join children in I and carry at most |I|-1 by (a)
(none when |I| = 1), and those inside C_i carry at most |S_i|-1; the sum is
at most |S|-1.  Now let P partition X into p >= 2 parts.  The loads inside
the parts are at most |X|-p, so the edges crossing P carry at least p-1.
By (b) every edge e of G[X] has sigma(X_e) >= sigma(X), so w_e >=
sigma(X) y_e and c(delta P) >= sigma(X)(p-1): with (c), sigma(X) is the
strength of G[X] and the children attain it (so G[X] is connected).  When P
attains it, every crossing edge has w_e = sigma(X) y_e, which (b) allows
only for edges charged to X; each child, connected, then lies inside one
part of P, so P is the children's partition or coarser, and the children
are the maximal min-ratio cut.  Applied at every node, the tree is the
canonical hierarchy.  A tree's G_X hold m edges in total, and a probe runs
only where r >= 3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .densecore import _probe, find_star, find_star_full, verify_core
from .dircut import EPSILON
from .graph import GraphError, MultiwayCut, WeightedGraph, _checked, contract, skew_density

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
    for that iteration rather than failing.  In both modes the finished tree
    must pass the certificate, or this raises RuntimeError.
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
    violations = _certify_tree(graph, registry[0])
    if violations:
        raise RuntimeError(f"the {mode} hierarchy fails its certificate: {violations[0]}")
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
    every maximal densest set of one exact search, which the tree
    certificate checks once the hierarchy is complete; randomized mode
    takes one verified set (see `_randomized_star`).
    """
    if mode == "exact":
        search = find_star_full(cur, cur.n, mode="exact", epsilon=epsilon)
        return search.sets, search.tau_star, *contract(cur, *search.sets)
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


def _certify_tree(graph: WeightedGraph, root: HierarchyNode) -> list[str]:
    """The tree's violations of the certificate above, empty iff root is the
    canonical cut hierarchy of graph.

    The shape comes first: the root covers the vertices, leaves are
    singletons without a ratio, and every internal node has a ratio and two
    children or more that partition it.  Checks (a)-(c) run once the shape
    is sound, so that every edge has one node to be charged to.  Children
    come before their parents, and a union-find over the vertices, merged
    as each node is certified, names the child that holds each end of an
    edge charged to it.
    """
    violations: list[str] = []
    if root.vertex_set != frozenset(range(graph.n)):
        violations.append("root does not cover the vertex set")
    nodes = list(root.walk())
    for node in nodes:
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
            if not union.isdisjoint(child.vertex_set):
                violations.append(f"children of {sorted(node.vertex_set)} overlap")
            union.update(child.vertex_set)
        if union != node.vertex_set:
            violations.append(f"children of {sorted(node.vertex_set)} do not partition it")
    if violations:
        return violations
    edge_node, weight = _charge_edges(graph, root)
    between: dict[frozenset[int], list[tuple[int, int, int]]] = {}
    for edge, key in zip(graph.edges, edge_node):
        between.setdefault(key, []).append(edge)
    rep = list(range(graph.n))

    def find(v: int) -> int:
        while rep[v] != v:
            rep[v] = v = rep[rep[v]]  # path halving
        return v

    for node in reversed(nodes):
        if node.is_leaf:
            continue
        heads = [find(next(iter(child.vertex_set))) for child in node.children]
        ratio = Fraction(weight.get(node.vertex_set, 0), len(heads) - 1)
        if not ratio:
            violations.append(f"no edge joins the children of {sorted(node.vertex_set)}")
        elif len(heads) > 2:
            slot = {head: i for i, head in enumerate(heads)}
            edges = between[node.vertex_set]
            g_x = _checked(len(heads), tuple((slot[find(u)], slot[find(v)], w) for u, v, w in edges))
            if _probe(g_x, ratio, g_x.n)[0]:
                violations.append(
                    f"the children of {sorted(node.vertex_set)} hold a set denser than {ratio}"
                )
        for head in heads:
            rep[head] = heads[0]
        for child in node.children:
            if not child.is_leaf and child.sigma <= node.sigma:
                violations.append(
                    f"ratio does not rise from {sorted(node.vertex_set)} to "
                    f"{sorted(child.vertex_set)}"
                )
        if ratio != node.sigma:
            violations.append(
                f"ratio of {sorted(node.vertex_set)} is {node.sigma}, the weight between its "
                f"children gives {ratio}"
            )
    return violations


def validate_hierarchy(graph: WeightedGraph, tree: HierarchyTree) -> list[str]:
    """The tree certificate's violations (see above), at any size; on small
    graphs also compares each internal node's children against the
    brute-force maximal min-ratio cut.  Returns a list of violation
    descriptions, empty when the tree is consistent.
    """
    violations = _certify_tree(graph, tree.root)
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
