"""The seven fine-grained components of the unified pipeline (Figure 4).

Construction components: C1 initialization, C2 candidate neighbor
acquisition, C3 neighbor selection, C4 seed preprocessing, C5
connectivity.  Search components: C6 seed acquisition, C7 routing.
Every algorithm in :mod:`repro.algorithms` is assembled from these
parts, which is what makes the §5.4 component-swapping study possible.
"""

from repro.components.context import SearchContext
from repro.components.routing import Route, SearchResult, best_first_search
from repro.components.selection import (
    select_closest,
    select_rng_heuristic,
    select_angle_sum,
    select_angle_threshold,
    select_mst,
    path_adjustment,
)
from repro.components.seeding import (
    SeedProvider,
    RandomSeeds,
    FixedSeeds,
    CentroidSeeds,
    KDTreeSeeds,
    KDTreeDescendSeeds,
    VPTreeSeeds,
    KMeansTreeSeeds,
    LSHSeeds,
)
from repro.components.candidates import (
    candidates_by_search,
    candidates_by_expansion,
    candidates_direct,
)
from repro.components.connectivity import ensure_reachable_from
from repro.components.initialization import (
    random_neighbor_lists,
    kdtree_neighbor_lists,
)

__all__ = [
    "SearchContext",
    "Route",
    "SearchResult",
    "best_first_search",
    "select_closest",
    "select_rng_heuristic",
    "select_angle_sum",
    "select_angle_threshold",
    "select_mst",
    "path_adjustment",
    "SeedProvider",
    "RandomSeeds",
    "FixedSeeds",
    "CentroidSeeds",
    "KDTreeSeeds",
    "KDTreeDescendSeeds",
    "VPTreeSeeds",
    "KMeansTreeSeeds",
    "LSHSeeds",
    "candidates_by_search",
    "candidates_by_expansion",
    "candidates_direct",
    "ensure_reachable_from",
    "random_neighbor_lists",
    "kdtree_neighbor_lists",
]
