"""Weighted undirected multigraphs with exact rational densities and cut ratios.

All quantities that could be fractional (skew-density, cut ratios, thresholds,
loads) are `fractions.Fraction`; nothing in this package rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

Edge = tuple[int, int, int]  # (u, v, weight)


class GraphError(ValueError):
    """Invalid graph construction or operation argument."""


class EdgeListError(ValueError):
    """Malformed edge-list input; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected multigraph with positive integer edge weights.

    Vertices are dense ids 0..n-1.  Parallel edges are kept distinct (they are
    never merged, so a weighted edge can also be viewed as parallel unit
    edges).  Self-loops are rejected.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("vertex count must be nonnegative")
        for idx, (u, v, w) in enumerate(self.edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge {idx} endpoint out of range")
            if u == v:
                raise GraphError(f"edge {idx} is a self-loop")
            if not isinstance(w, int) or w < 1:
                raise GraphError(f"edge {idx} weight must be a positive integer")

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "WeightedGraph":
        return WeightedGraph(n, tuple((e[0], e[1], e[2]) for e in edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges)

    def weight_inside(self, s: Iterable[int]) -> int:
        """Total weight of edges with both endpoints in s."""
        inside = set(s)
        return sum(w for u, v, w in self.edges if u in inside and v in inside)

    def boundary_weight(self, s: Iterable[int]) -> int:
        """Total weight of edges with exactly one endpoint in s."""
        inside = set(s)
        return sum(w for u, v, w in self.edges if (u in inside) != (v in inside))

    def merged_edges(self) -> dict[tuple[int, int], int]:
        """Parallel-merged view: (min(u,v), max(u,v)) -> summed weight.

        The map that `merged_edge_count` built is handed over here, once,
        instead of being built again.
        """
        merged = self.__dict__.pop("_merged", None)
        if merged is None:
            merged = {}
            for u, v, w in self.edges:
                key = (u, v) if u < v else (v, u)
                merged[key] = merged.get(key, 0) + w
        return merged

    def merged_edge_count(self) -> int:
        """Number of merged edges, that is, of vertex pairs joined by an edge.

        The map counted is kept for the next `merged_edges` call: in an
        exact hierarchy round, the tree test counts and the densest-set
        search then reads the map.  The graph keeps it no longer, as a map
        held through the search doubled the young-generation collections
        of the garbage collector on the rising cycle.
        """
        merged = self.__dict__["_merged"] = self.merged_edges()
        return len(merged)

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        # Computed once per instance: the graph is frozen, and every layer
        # of a run checks the same graph object.
        return self.n <= 1 or (self.m >= self.n - 1 and _component_roots(self)[1] == 1)


def _checked(n: int, edges: tuple[Edge, ...]) -> WeightedGraph:
    """A graph on edges taken from a valid graph and already mapped into
    0..n-1 without self-loops, built without checking each edge again."""
    graph = object.__new__(WeightedGraph)
    graph.__dict__.update(n=n, edges=edges)
    return graph


class MultiwayCut:
    """A partition of V into >= 2 sides, with its boundary and cut ratio."""

    __slots__ = ("sides", "boundary", "ratio", "boundary_weight")

    def __init__(self, graph: WeightedGraph, sides: Iterable[Iterable[int]]):
        side_sets = tuple(frozenset(s) for s in sides)
        if len(side_sets) < 2:
            raise GraphError("a multiway cut needs at least 2 sides")
        seen: set[int] = set()
        for s in side_sets:
            if not s:
                raise GraphError("empty side in multiway cut")
            if seen & s:
                raise GraphError("sides of a multiway cut must be disjoint")
            seen |= s
        if seen != set(range(graph.n)):
            raise GraphError("sides must partition the vertex set")
        side_of = {}
        for i, s in enumerate(side_sets):
            for v in s:
                side_of[v] = i
        boundary = frozenset(
            idx for idx, (u, v, _) in enumerate(graph.edges) if side_of[u] != side_of[v]
        )
        weight = sum(graph.edges[i][2] for i in boundary)
        self.sides = side_sets
        self.boundary = boundary
        self.boundary_weight = weight
        self.ratio = Fraction(weight, len(side_sets) - 1)

    def __eq__(self, other):
        return (
            isinstance(other, MultiwayCut)
            and set(self.sides) == set(other.sides)
        )

    def __hash__(self):
        return hash(frozenset(self.sides))

    def __repr__(self):
        sides = sorted(tuple(sorted(s)) for s in self.sides)
        return f"MultiwayCut(sides={sides}, ratio={self.ratio})"


def _unheld(graph: WeightedGraph) -> GraphError:
    """The refusal of a graph whose per-vertex tables do not fit in memory."""
    return GraphError(f"the graph declares {graph.n} vertices, more than fit in memory")


def _within(graph: WeightedGraph, inside: Iterable[int]) -> bool:
    """Whether every member of `inside` is a vertex of graph."""
    vertices = range(graph.n)
    return all(v in vertices for v in inside)


def skew_density(graph: WeightedGraph, s: Iterable[int]) -> Fraction:
    """Weight of edges inside s divided by |s|-1; zero when |s| <= 1."""
    inside = frozenset(s)
    if not _within(graph, inside):
        raise GraphError("set is not a subset of the vertices")
    if len(inside) <= 1:
        return Fraction(0)
    return Fraction(graph.weight_inside(inside), len(inside) - 1)


def contract(
    graph: WeightedGraph, *sets: Iterable[int]
) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Contract each of the pairwise disjoint vertex sets into a single node.

    Edges inside a set are deleted, edges leaving it are re-attached to its
    node, and parallel edges are kept distinct so all cut values are
    preserved exactly.  Each set's node takes the slot of the set's smallest
    vertex; all slots keep their relative order, so contracting the sets one
    after another gives the same graph.  Returns the contracted graph and
    the forward map: forward[v] is the node that vertex v went to.
    """
    if not sets:
        raise GraphError("no set to contract")
    try:
        rep_of = list(range(graph.n))  # the smallest vertex of v's set
        forward = [0] * graph.n
    except (OverflowError, MemoryError):
        raise _unheld(graph) from None
    claimed: set[int] = set()
    for s in sets:
        inside = frozenset(s)
        if not inside:
            raise GraphError("cannot contract the empty set")
        if not _within(graph, inside):
            raise GraphError("set is not a subset of the vertices")
        if not claimed.isdisjoint(inside):
            raise GraphError("the sets to contract must be disjoint")
        claimed |= inside
        rep = min(inside)
        for v in inside:
            rep_of[v] = rep
    next_id = 0
    for v in range(graph.n):
        if rep_of[v] == v:
            forward[v] = next_id
            next_id += 1
    for v in range(graph.n):
        forward[v] = forward[rep_of[v]]
    new_edges = [
        (forward[u], forward[v], w) for u, v, w in graph.edges if forward[u] != forward[v]
    ]
    contracted = _checked(next_id, tuple(new_edges))
    if graph.__dict__.get("_connected"):
        # Contracting vertex sets keeps a connected graph connected.
        contracted.__dict__["_connected"] = True
    return contracted, tuple(forward)


def induced_subgraph(graph: WeightedGraph, s: Iterable[int]) -> tuple[WeightedGraph, tuple[int, ...]]:
    """Induced subgraph on s, plus the map from new ids back to originals."""
    inside = frozenset(s)
    if not _within(graph, inside):
        raise GraphError("set is not a subset of the vertices")
    sub_to_orig = tuple(sorted(inside))
    orig_to_sub = {v: i for i, v in enumerate(sub_to_orig)}
    new_edges = [
        (orig_to_sub[u], orig_to_sub[v], w)
        for u, v, w in graph.edges
        if u in inside and v in inside
    ]
    return _checked(len(sub_to_orig), tuple(new_edges)), sub_to_orig


def _component_roots(
    graph: WeightedGraph, edge_subset: Iterable[int] | None = None
) -> tuple[dict[int, int], int]:
    """Union-find over the edges F (default: all edges), in O(|F|) memory.

    Returns the component count of (V, F) and a map from each vertex to the
    smallest vertex of its component, which leaves out those smallest ones.
    """
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while parent.get(v, v) != v:
            parent[v] = v = parent.get(parent[v], parent[v])  # path halving
        return v

    merges = 0
    for idx in range(graph.m) if edge_subset is None else set(edge_subset):
        u, v, _ = graph.edges[idx]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            merges += 1
    return {v: find(v) for v in parent}, graph.n - merges


def connected_components(
    graph: WeightedGraph, edge_subset: Iterable[int] | None = None
) -> list[frozenset[int]]:
    """Partition of V by connectivity in (V, F), ordered by smallest vertex."""
    roots, _ = _component_roots(graph, edge_subset)
    members: dict[int, list[int]] = {}
    for v in range(graph.n):
        members.setdefault(roots.get(v, v), []).append(v)
    return [frozenset(c) for c in members.values()]


def component_subgraphs(graph: WeightedGraph) -> Iterator[tuple[WeightedGraph, tuple[int, ...]]]:
    """Each connected component's induced subgraph and its map back to
    original ids, ordered by smallest vertex, in one O(n + m) pass; each
    subgraph is built when the caller reaches it."""
    roots, _ = _component_roots(graph)
    index: dict[int, int] = {}  # component root -> position in the list
    members: list[list[int]] = []
    try:
        comp_of = [0] * graph.n
        local = [0] * graph.n
    except (OverflowError, MemoryError):
        raise _unheld(graph) from None
    for v in range(graph.n):
        c = index.setdefault(roots.get(v, v), len(members))
        if c == len(members):
            members.append([])
        comp_of[v], local[v] = c, len(members[c])
        members[c].append(v)
    edges: list[list[Edge]] = [[] for _ in members]
    for u, v, w in graph.edges:
        edges[comp_of[u]].append((local[u], local[v], w))
    for vs, es in zip(members, edges):
        yield _checked(len(vs), tuple(es)), tuple(vs)


def rank(graph: WeightedGraph, edge_subset: Iterable[int] | None = None) -> int:
    """Graphic-matroid rank of an edge subset: |V| minus component count."""
    return graph.n - _component_roots(graph, edge_subset)[1]


def decimal(text: str) -> int:
    """The integer `text` writes in ASCII decimal digits with an optional sign
    (and any surrounding whitespace, which int() ignores).

    int() alone also reads `1_000` and the digits of other scripts.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


def parse_edge_list(text: str) -> WeightedGraph:
    """Parse the edge-list format: header `n m`, then m lines `u v w`.

    Vertices are 0-indexed, weights are positive integers, every value is
    read by `decimal`, and lines starting with `#` are ignored.  Raises
    EdgeListError with the offending 1-based line number.
    """
    header: tuple[int, int] | None = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise EdgeListError(lineno, "expected header `n m`")
            try:
                n, m = map(decimal, parts)
            except ValueError:
                raise EdgeListError(lineno, "header values must be integers") from None
            if n < 0 or m < 0:
                raise EdgeListError(lineno, "header values must be nonnegative")
            header = (n, m)
            continue
        if len(parts) != 3:
            raise EdgeListError(lineno, "expected edge line `u v w`")
        try:
            u, v, w = map(decimal, parts)
        except ValueError:
            raise EdgeListError(lineno, "edge values must be integers") from None
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(lineno, f"vertex out of range 0..{n - 1}")
        if u == v:
            raise EdgeListError(lineno, "self-loops are not allowed")
        if w < 1:
            raise EdgeListError(lineno, "weight must be a positive integer")
        edges.append((u, v, w))
    if header is None:
        raise EdgeListError(1, "missing header `n m`")
    if len(edges) != header[1]:
        raise EdgeListError(1, f"header declares {header[1]} edges, found {len(edges)}")
    return WeightedGraph(header[0], tuple(edges))

