"""Arboricity as the ceiling of the maximum skew-density.

The fractional arboricity is the maximum skew-density over all vertex sets;
the (integer) arboricity is its ceiling.  The exact densest-set search in
densecore finds it with a few threshold probes, each one a density-network
max flow and, when that saturates, a per-source t-cut scan of the shortcut
network, which stops once the unscanned vertices' tau-core has collapsed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .densecore import find_star_full
from .flow import DirectedNetwork, STCut, t_mincut_exhaustive
from .flow import max_flow  # noqa: F401  (bench/test_bench.py looks it up here)
from .graph import GraphError, WeightedGraph


class ArboricityError(ValueError):
    """Invalid input or an internal consistency failure."""


@dataclass(frozen=True)
class ArboricityResult:
    arboricity: int
    fractional: Fraction
    probes: tuple[tuple[Fraction, bool], ...]  # (threshold, went below max density)


def t_bar_mincut(
    net: DirectedNetwork,
    t: int,
    *,
    limit: int | None = None,
    sources=None,
) -> STCut | None:
    """Minimum d+(S) over all nonempty S excluding t.

    The per-source scan against the fixed sink t, with its range checks;
    `limit`/`sources` behave as in `flow.t_mincut_exhaustive`.
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
    search = find_star_full(graph, graph.n)
    return ArboricityResult(
        arboricity=math.ceil(search.tau_star),
        fractional=search.tau_star,
        probes=search.probes,
    )
