"""Canonical cut hierarchy: laminar min-ratio cuts as a rooted tree.

Construction contracts one star set at a time: find a candidate dense set,
verify it is a dense core, contract, repeat.  Each accepted set becomes an
internal node whose sigma is the set's skew-density in the graph it was
contracted from, which equals the cut ratio of the all-singleton min-ratio
cut of that node's contracted subgraph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .densecore import find_star, verify_core
from .dircut import EPSILON
from .graph import GraphError, MultiwayCut, WeightedGraph, contract, skew_density

#: full randomized size sweeps, each on fresh RNG streams, before the exact
#: search takes over for one contraction
MAX_RESTARTS = 3


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
    registry: dict[int, HierarchyNode] = {v: _leaf(v) for v in range(graph.n)}
    cur = graph
    while cur.n > 1:
        accepted = _accept_star_set(cur, mode, rng, epsilon)
        sigma = skew_density(cur, accepted)
        children = tuple(
            sorted((registry[v] for v in accepted), key=lambda nd: min(nd.vertex_set))
        )
        merged = HierarchyNode(
            frozenset().union(*(c.vertex_set for c in children)), children, sigma
        )
        cur, cmap = contract(cur, accepted)
        new_registry: dict[int, HierarchyNode] = {}
        rep = cmap.forward[min(accepted)]
        for old, node in registry.items():
            if old in accepted:
                continue
            new_registry[cmap.forward[old]] = node
        new_registry[rep] = merged
        registry = new_registry
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


def _accept_star_set(
    cur: WeightedGraph, mode: str, rng: random.Random, epsilon: Fraction
) -> frozenset[int]:
    """One outer iteration: the dense core of cur to contract.

    Randomized mode sweeps doubling sizes k, accepting a candidate of more
    than k/2 and at most k vertices that verifies, for MAX_RESTARTS rounds.
    The exact search, which is also the randomized fallback, ignores k and
    runs once.
    """
    if mode == "randomized":
        for _ in range(MAX_RESTARTS):
            for k in _sweep_sizes(cur.n):
                sub_rng = random.Random(rng.getrandbits(64))
                candidate = find_star(
                    cur, k, mode="randomized", rng=sub_rng, epsilon=epsilon
                )
                if k // 2 < len(candidate) <= k and verify_core(cur, k, candidate):
                    return candidate
    sub_rng = random.Random(rng.getrandbits(64))
    candidate = find_star(cur, cur.n, mode="exact", rng=sub_rng, epsilon=epsilon)
    if verify_core(cur, cur.n, candidate):
        return candidate
    raise RuntimeError("no star set accepted; the exact search should always succeed")


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


def validate_hierarchy(
    graph: WeightedGraph, tree: HierarchyTree, *, oracle_limit: int = 7
) -> list[str]:
    """Structural checks; on small graphs also compares each internal node's
    children against the brute-force maximal min-ratio cut.  Returns a list of
    violation descriptions, empty when the tree is consistent."""
    violations: list[str] = []
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
                violations.append(
                    f"ratio decreases from {sorted(node.vertex_set)} to "
                    f"{sorted(child.vertex_set)}"
                )
        if union != set(node.vertex_set):
            violations.append(f"children of {sorted(node.vertex_set)} do not partition it")
    if graph.n <= oracle_limit:
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
