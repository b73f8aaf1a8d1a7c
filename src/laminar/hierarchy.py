"""Canonical cut hierarchy: laminar min-ratio cuts as a rooted tree.

Construction contracts star sets in rounds: find dense sets, contract them,
repeat.  An exact round contracts every maximal densest set of the current
graph at once (they are pairwise disjoint, and one search finds them all);
a randomized round contracts one set that `verify_core` accepts, or else
the exact search's largest densest set.  Each accepted set becomes an
internal node whose sigma is the set's skew-density in the graph it was
contracted from, which equals the cut ratio of the all-singleton min-ratio
cut of that node's contracted subgraph.

An exact build ends early once the current graph is a tree, its merged
edges n-1 in number: the rest is single linkage (`_single_linkage`).  Why
it is exact.  Let w_max be the largest merged weight.  A set X whose
induced forest has k components holds |X|-k merged edges, so c(E[X]) <=
w_max(|X|-k) <= w_max(|X|-1), with equality exactly when w_max edges alone
connect X.  So tau* = w_max, and the maximal densest sets, which the round
would contract, are the components of the w_max edges with two vertices or
more.  Contracting connected subtrees of a tree leaves a tree with the same
merged weights, as no parallel edge forms without a cycle.  So each
distinct weight w, largest first, is one round, whose nodes are the
components that its edges join, at sigma w: Kruskal's order, one
union-find in O(m log m) for all the rounds, and no search.

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
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import attrgetter, itemgetter
from typing import Iterator

from .densecore import _probe, find_star, find_star_full, verify_core
from .graph import GraphError, MultiwayCut, WeightedGraph, _checked, contract, skew_density

#: full randomized size sweeps, each on fresh RNG streams, before the exact
#: search takes over for one contraction
MAX_RESTARTS = 3


@dataclass(frozen=True, slots=True)
class HierarchyNode:
    """A laminar set, fixed by its leaves: a leaf names its vertex and has no
    sigma; an internal node holds its children, which partition it, and
    sigma, the cut ratio of the maximal min-ratio cut of the induced
    subgraph on its vertices.  least, size and the hash are worked out from
    the children when it is made."""

    vertex: int | None
    children: tuple["HierarchyNode", ...] = ()
    sigma: Fraction | None = None
    least: int = field(init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kids = self.children
        if not (self.vertex is None) == (self.sigma is not None) == bool(kids):
            raise ValueError("a leaf names a vertex; an internal node has children and a sigma")
        object.__setattr__(self, "least", min(c.least for c in kids) if kids else self.vertex)
        object.__setattr__(self, "size", sum(c.size for c in kids) if kids else 1)
        object.__setattr__(self, "_hash", hash((self.vertex, self.sigma, *(c._hash for c in kids))))

    # Equality and repr are what the dataclass would generate, and the hash
    # agrees with equality; both walk the tree without recursing through the
    # children.  A preorder with each node's number of children fixes an
    # ordered tree, so walks that agree entry by entry end together, and zip
    # compares whole trees.

    def _preorder(self) -> Iterator[tuple]:
        return ((x.__class__, x.vertex, x.sigma, len(x.children)) for x in self.walk())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(a == b for a, b in zip(self._preorder(), other._preorder()))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        parts: list[str] = []
        for entering, node, _, first in self.tour():
            if entering:
                parts.append(
                    ("" if first else ", ")
                    + f"{node.__class__.__qualname__}(vertex={node.vertex!r}, children=("
                )
            else:
                parts.append(("," if len(node.children) == 1 else "") + f"), sigma={node.sigma!r})")
        return "".join(parts)

    @property
    def vertex_set(self) -> frozenset[int]:
        """The node's vertices, read from its leaves in O(size)."""
        return frozenset(x.vertex for x in self.walk() if x.is_leaf)

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

    def tour(self) -> Iterator[tuple[bool, "HierarchyNode", int, bool]]:
        """Each node of this subtree twice, on entering it and on leaving it
        once its children's subtrees are left, without recursion.

        Yields (entering, node, depth, first): depth counts from this node,
        at 0, and first says whether the node is its parent's first child
        (true for this node).  The entering steps are `walk`'s preorder.
        """
        stack = [(True, self, 0, True)]
        while stack:
            step = stack.pop()
            yield step
            entering, node, depth, _ = step
            if entering:
                stack.append((False, *step[1:]))
                kids = node.children
                stack.extend((True, kids[i], depth + 1, not i) for i in reversed(range(len(kids))))


@dataclass(frozen=True)
class HierarchyTree:
    """A tree over a graph, charged once when it is made.

    `faults` says how the tree fails to be a laminar family over the
    graph's vertices (`_shape_violations`).  When it is empty, `charge`
    holds each internal node, children first, with the edges charged to it
    and its ratio c(G_X)/(r-1) (`_charged_edges`); else it is empty.  The
    certificate, `oracle.validate_hierarchy` and `loads.ideal_loads` read both.
    """

    root: HierarchyNode
    graph: WeightedGraph
    faults: tuple[str, ...] = field(init=False, repr=False, compare=False)
    charge: tuple[tuple[HierarchyNode, dict[int, tuple[int, int, int]], Fraction], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        nodes = list(self.root.walk())
        faults = tuple(_shape_violations(self.graph, nodes))
        charge = () if faults else tuple(_charged_edges(self.graph, nodes))
        object.__setattr__(self, "faults", faults)
        object.__setattr__(self, "charge", charge)

    def nodes(self) -> Iterator[HierarchyNode]:
        return self.root.walk()

    def internal_nodes(self) -> Iterator[HierarchyNode]:
        return (node for node in self.root.walk() if not node.is_leaf)


def build_hierarchy(
    graph: WeightedGraph, *, mode: str = "exact", rng: random.Random | None = None
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
    registry = [HierarchyNode(v) for v in range(graph.n)]  # the node of each vertex of cur
    cur = graph
    while cur.n > 1:
        if mode == "randomized":
            star = _randomized_star(cur, rng)
            stars, sigma = (star,), skew_density(cur, star)
        elif _is_tree(cur):
            registry = [_single_linkage(cur, registry)]
            break
        else:
            search = find_star_full(cur, cur.n, mode="exact")
            stars, sigma = search.sets, search.tau_star
        cur, forward = contract(cur, *stars)
        nodes: list = [None] * cur.n  # the node of each vertex of the new cur
        for v, slot in enumerate(forward):
            nodes[slot] = registry[v]  # a slot no star took holds one vertex
        for star in stars:
            nodes[forward[min(star)]] = _join((registry[v] for v in star), sigma)
        registry = nodes
    tree = HierarchyTree(root=registry[0], graph=graph)
    violations = _certify_tree(tree)
    if violations:
        raise RuntimeError(f"the {mode} hierarchy fails its certificate: {violations[0]}")
    return tree


def _join(parts: Iterator[HierarchyNode], sigma: Fraction) -> HierarchyNode:
    """The node at sigma whose children are parts, sorted by least vertex."""
    return HierarchyNode(None, tuple(sorted(parts, key=attrgetter("least"))), sigma)


def _is_tree(cur: WeightedGraph) -> bool:
    """Whether the merged edges of cur, a connected graph, form a tree."""
    return cur.merged_edge_count() == cur.n - 1


def _single_linkage(cur: WeightedGraph, registry: list[HierarchyNode]) -> HierarchyNode:
    """The root that the exact rounds would build on cur, whose merged
    edges form a tree, given the node of each vertex of cur.

    Each distinct merged weight w, largest first, is one round: a union-find
    joins this weight's edges, and each component they join becomes a node
    of sigma w whose children are the components it joins.  See the module
    docstring for why this is exact.
    """
    parent = list(range(cur.n))
    nodes = list(registry)  # the node of each union-find root

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]  # path halving
        return v

    merged = sorted(cur.merged_edges().items(), key=itemgetter(1), reverse=True)
    for weight, level in groupby(merged, key=itemgetter(1)):
        pairs = [(find(u), find(v)) for (u, v), _ in level]
        for a, b in pairs:
            parent[find(a)] = find(b)
        joined: dict[int, set[int]] = {}  # new root -> the roots it joins
        for a, b in pairs:
            joined.setdefault(find(a), set()).update((a, b))
        for root, parts in joined.items():
            nodes[root] = _join((nodes[x] for x in parts), Fraction(weight))
    return nodes[find(0)]


def _sweep_sizes(n: int) -> list[int]:
    sizes = []
    k = 2
    while True:
        sizes.append(k)
        if k >= n:
            break
        k *= 2
    return sizes


def _randomized_star(cur: WeightedGraph, rng: random.Random) -> frozenset[int]:
    """A dense core of cur from the sampling pipeline, else from the exact search.

    Sweeps doubling sizes k, accepting a candidate of more than k/2 and at
    most k vertices that verifies, for MAX_RESTARTS rounds.  Then the exact
    search runs once, ignoring k: the largest maximal densest set is a dense
    core (no subset is denser, no proper superset as dense), and the end
    certificate checks it with the rest of the tree.
    """
    for _ in range(MAX_RESTARTS):
        for k in _sweep_sizes(cur.n):
            sub_rng = random.Random(rng.getrandbits(64))
            candidate = find_star(cur, k, mode="randomized", rng=sub_rng)
            if k // 2 < len(candidate) <= k and verify_core(cur, k, candidate):
                return candidate
    return find_star(cur, cur.n, mode="exact")


def node_sigma(tree: HierarchyTree, vertex_set) -> Fraction:
    key = frozenset(vertex_set)
    node = next((x for x in tree.nodes() if x.size == len(key) and x.vertex_set == key), None)
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


def _charged_edges(
    graph: WeightedGraph, nodes: list[HierarchyNode]
) -> Iterator[tuple[HierarchyNode, dict[int, tuple[int, int, int]], Fraction]]:
    """Each internal node of the preorder `nodes`, children first, with the
    edges charged to it and their weight over one less than its child count.

    An edge is charged to the deepest node that holds both its ends, that
    is, to the node whose children it joins.  Each such edge maps its id to
    (the position of the child that holds u, that of the child that holds
    v, w), in edge-id order.  A union-find by size labels each vertex with
    the largest node visited so far that holds it: at a node, only the
    edges at the vertices of the children other than the largest are read,
    and once the node is yielded those vertices take the largest child's
    label.  A vertex is read only when its set at least doubles, O(m log n)
    in all.  Needs the sound shape `_shape_violations` checks.
    """
    incident: list[list[int]] = [[] for _ in range(graph.n)]
    for e, (u, v, _) in enumerate(graph.edges):
        incident[u].append(e)
        incident[v].append(e)
    label = list(range(graph.n))
    for node in reversed(nodes):
        if node.is_leaf:
            continue
        kids = node.children
        slot = {label[child.least]: i for i, child in enumerate(kids)}
        big = max(range(len(kids)), key=lambda i: kids[i].size)
        small = [child.vertex_set for i, child in enumerate(kids) if i != big]
        read = {e for vertex_set in small for x in vertex_set for e in incident[x]}
        charged: dict[int, tuple[int, int, int]] = {}
        for e in sorted(read):
            u, v, w = graph.edges[e]
            a, b = slot.get(label[u]), slot.get(label[v])
            if a != b and a is not None and b is not None:
                charged[e] = (a, b, w)
        yield node, charged, Fraction(sum(w for _, _, w in charged.values()), len(kids) - 1)
        top = label[kids[big].least]
        for vertex_set in small:
            for x in vertex_set:
                label[x] = top


def _shape_violations(graph: WeightedGraph, nodes: list[HierarchyNode]) -> Iterator[str]:
    """How the preorder `nodes` fail to be a laminar family over the graph's
    vertices: the leaves name each vertex once, and every internal node has
    two children or more.  Then every edge has one node to be charged to.
    """
    leaves = Counter(x.vertex for x in nodes if x.is_leaf)
    for v in sorted(leaves.keys() - range(graph.n)):
        yield f"leaf {v!r} is not a vertex of the graph"
    for v in range(graph.n):
        if leaves[v] != 1:
            yield f"vertex {v} has {leaves[v]} leaves"
    for node in nodes:
        if len(node.children) == 1:
            yield f"internal node {sorted(node.vertex_set)} has < 2 children"


def _certify_tree(tree: HierarchyTree) -> list[str]:
    """The tree's violations of the certificate above, empty iff its root is
    the canonical cut hierarchy of its graph.

    The shape comes first: the tree's faults.  Checks (a)-(c) run once the
    shape is sound and read each G_X, children first, off the tree's charge.
    """
    if tree.faults:
        return list(tree.faults)
    violations = []
    for node, charged, ratio in tree.charge:
        r = len(node.children)
        if not ratio:
            violations.append(f"no edge joins the children of {sorted(node.vertex_set)}")
        elif r > 2:
            g_x = _checked(r, tuple(charged.values()))
            if _probe(g_x, ratio, g_x.n)[0]:
                violations.append(
                    f"the children of {sorted(node.vertex_set)} hold a set denser than {ratio}"
                )
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

