"""HCNNG (A13) — Hierarchical Clustering-based Nearest Neighbor Graph.

The only MST-based algorithm in the survey: ``num_clusterings`` random
two-pivot hierarchical clusterings each contribute the exact MST of
every leaf cluster; the union of MST edges (undirected, degree-capped
by keeping the shortest) is the index.  Seeds come from KD-trees
descended by pure value comparison (zero NDC) and routing is guided
search (§4.2 C7_HCNNG).
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.base import GraphANNS
from repro.clustering import hierarchical_two_pivot_clusters
from repro.components.routing import Route
from repro.components.seeding import KDTreeDescendSeeds
from repro.graphs.graph import Graph
from repro.graphs.mst import euclidean_mst

__all__ = ["HCNNG"]


class HCNNG(GraphANNS):
    """Union of per-cluster MSTs with guided search."""

    name = "hcnng"
    #: guided search: every expansion skips neighbors facing away
    route = Route(guided_hops=math.inf)

    def __init__(
        self,
        num_clusterings: int = 8,
        min_cluster_size: int = 50,
        max_degree: int = 40,
        num_trees: int = 3,
        num_seeds: int = 8,
        seed: int = 0,
        n_workers: int = 1,
    ):
        super().__init__(seed=seed, n_workers=n_workers)
        self.num_clusterings = num_clusterings
        self.min_cluster_size = min_cluster_size
        self.max_degree = max_degree
        self.seed_provider = KDTreeDescendSeeds(
            num_trees=num_trees, count=num_seeds, seed=seed
        )

    def _build_phases(self, data: np.ndarray, bctx):
        counter = bctx.counter
        n = len(data)
        state: dict = {}

        def cluster_phase():
            # the shared rng threads through all clusterings, so this loop
            # is inherently sequential; n_workers is a no-op for HCNNG
            rng = np.random.default_rng(self.seed)
            edge_weights: dict[tuple[int, int], float] = {}
            for _ in range(self.num_clusterings):
                clusters = hierarchical_two_pivot_clusters(
                    data, self.min_cluster_size, rng, counter=counter
                )
                for cluster in clusters:
                    if len(cluster) < 2:
                        continue
                    for u, v, w in euclidean_mst(
                        data[cluster], counter=counter
                    ):
                        a, b = int(cluster[u]), int(cluster[v])
                        key = (a, b) if a < b else (b, a)
                        edge_weights.setdefault(key, w)
            state["edge_weights"] = edge_weights

        def cap_phase():
            per_vertex: list[list[tuple[float, int]]] = [[] for _ in range(n)]
            for (a, b), w in state["edge_weights"].items():
                per_vertex[a].append((w, b))
                per_vertex[b].append((w, a))
            graph = Graph(n)
            for v, incident in enumerate(per_vertex):
                incident.sort()
                graph.set_neighbors(
                    v, [u for _, u in incident[: self.max_degree]]
                )
            self.graph = graph

        return [("c2+c3", cluster_phase), ("c2+c3", cap_phase)]
