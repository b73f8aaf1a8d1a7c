"""Exact cut hierarchies, strength, arboricity, and ideal edge loads."""

from .arboricity import (
    ArboricityResult,
    compute_arboricity,
    t_bar_mincut,
)
from .densecore import (
    FindStarResult,
    find_star,
    find_star_full,
    probe,
    verify_core,
)
from .dircut import (
    Arborescence,
    ArborescencePacking,
    SparsifierParams,
    find_small_cut,
    min_cost_arborescence,
    one_respecting_mincut,
    pack_arborescences,
    size_bounded_t_mincut,
    sparsify,
)
from .flow import (
    INF,
    DirectedNetwork,
    FlowResult,
    STCut,
    max_flow,
    min_st_cut,
    t_cuts_below,
    t_mincut_exhaustive,
)
from .goldberg import (
    GoldbergNetwork,
    ModifiedNetwork,
    build_goldberg,
    build_modified,
)
from .graph import (
    MultiwayCut,
    WeightedGraph,
    connected_components,
    contract,
    induced_subgraph,
    parse_edge_list,
    rank,
    skew_density,
)
from .hierarchy import (
    HierarchyNode,
    HierarchyTree,
    build_hierarchy,
    maximal_min_ratio_cut,
    node_sigma,
    strength,
)
from .loads import (
    DualCertificate,
    IdealLoads,
    entropy_certificate,
    entropy_value,
    ideal_loads,
    min_max_loads,
)
from .oracle import (
    FrankWolfeResult,
    SizeGuardError,
    brute_dense_core,
    brute_hierarchy,
    brute_max_skew_density,
    brute_min_ratio_cut,
    brute_one_respecting,
    brute_t_mincut,
    frank_wolfe_entropy,
    validate_hierarchy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
