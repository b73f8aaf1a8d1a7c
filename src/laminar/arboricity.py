"""Arboricity as the ceiling of the maximum skew-density.

The fractional arboricity is the maximum skew-density over all vertex sets;
the (integer) arboricity is its ceiling.  The exact densest-set search in
densecore finds it with a few threshold probes, each one a density-network
max flow and, when that saturates, a rooted min-cut scan of the shortcut
network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .densecore import max_density_search
from .flow import INF, DirectedNetwork, STCut, t_mincut_exhaustive
from .flow import max_flow  # noqa: F401  (bench/test_bench.py looks it up here)
from .graph import GraphError, WeightedGraph


class ArboricityError(ValueError):
    """Invalid input or an internal consistency failure."""


@dataclass(frozen=True)
class ArboricityResult:
    arboricity: int
    fractional: Fraction
    probes: tuple[tuple[Fraction, bool], ...]  # (threshold, went below max density)


def global_directed_min_cut(
    net: DirectedNetwork, *, limit: int | None = None
) -> STCut | None:
    """Minimum d+(S) over all nonempty proper node sets.

    Two per-source scans against a pivot node: one covers the sides avoiding
    the pivot, and one on the arc reversal covers their complements, the
    sides containing it.  With `limit`, returns None unless some cut is
    strictly below it.
    """
    if net.n < 2:
        raise ArboricityError("global min cut needs at least 2 nodes")
    pivot = 0
    best = t_mincut_exhaustive(net, pivot, limit=limit)
    if best is not None and best.value != INF:
        limit = best.value
    reversal = DirectedNetwork(net.n)
    for u, v, c in net.arcs():
        reversal.add_arc(v, u, c)
    flipped = t_mincut_exhaustive(reversal, pivot, limit=limit)
    if flipped is not None and (best is None or flipped.value < best.value):
        best = STCut(frozenset(range(net.n)) - flipped.source_side, flipped.value)
    return best


def t_bar_mincut(
    net: DirectedNetwork,
    t: int,
    *,
    limit: int | None = None,
    sources=None,
) -> STCut | None:
    """Minimum d+(S) over all nonempty S excluding t.

    Equivalent to a single global directed min cut on the network augmented
    with infinite arcs incident to t (which make every side containing t
    infinite); since the augmentation pins t to the sink side, the pivot-based
    global scan degenerates to min-cut-per-source against the fixed sink, and
    that is what runs here.  The equivalence with augment-plus-global is
    property-tested.  `limit`/`sources` behave as in the exhaustive scan.
    """
    if net.n < 2:
        raise ArboricityError("t-bar mincut needs at least 2 nodes")
    if not 0 <= t < net.n:
        raise ArboricityError("t out of range")
    return t_mincut_exhaustive(net, t, limit=limit, sources=sources)


def compute_arboricity(graph: WeightedGraph) -> ArboricityResult:
    """The maximum skew-density, exactly, and its ceiling.

    Deterministic: the search runs in exact mode, so its last probe fails at
    exactly the maximum density.  Requires a connected graph; a single vertex
    has arboricity 0 by convention.
    """
    if graph.n == 0:
        raise GraphError("arboricity of the empty graph is undefined")
    if not graph.is_connected():
        raise GraphError(
            "arboricity core routine needs a connected graph; split into "
            "components and take the maximum"
        )
    search = max_density_search(graph, graph.n)
    return ArboricityResult(
        arboricity=math.ceil(search.tau_star),
        fractional=search.tau_star,
        probes=search.probes,
    )
