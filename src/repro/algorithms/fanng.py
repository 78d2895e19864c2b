"""FANNG (A3) — occlusion-rule RNG approximation over brute-force candidates.

Unlike HNSW, FANNG applies the occlusion (RNG) rule to *all* other
points sorted by distance, which is what makes its construction
O(|S|²·log|S|) (Table 2).  The original paper itself proposes candidate
truncation to keep this tractable; ``scan_limit`` reproduces that
optimisation.  Search is best-first with backtracking (C7_FANNG).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import GraphANNS
from repro.components.refinement import map_refine, select_rng
from repro.components.routing import Route
from repro.components.seeding import RandomSeeds
from repro.graphs.graph import Graph
from repro.graphs.knng import exact_knn_lists

__all__ = ["FANNG"]


class FANNG(GraphANNS):
    """Occlusion-pruned graph with backtracking search."""

    name = "fanng"

    def __init__(
        self,
        max_degree: int = 30,
        scan_limit: int = 300,
        backtracks: int = 10,
        num_seeds: int = 8,
        seed: int = 0,
        n_workers: int = 1,
    ):
        super().__init__(seed=seed, n_workers=n_workers)
        self.max_degree = max_degree
        self.scan_limit = scan_limit
        self.backtracks = backtracks
        self.seed_provider = RandomSeeds(count=num_seeds, seed=seed)

    def _build_phases(self, data: np.ndarray, bctx):
        counter = bctx.counter
        n = len(data)
        state: dict = {}

        def init_phase():
            scan = min(self.scan_limit, n - 1)
            state["ids"], state["dists"] = exact_knn_lists(
                data, scan, counter=counter
            )

        def prune_phase():
            ids, dists = state["ids"], state["dists"]
            graph = Graph(n)

            def refine_point(p, worker):
                return select_rng(
                    data[p], ids[p], dists[p], data, self.max_degree,
                    counter=worker.counter,
                )

            map_refine(bctx, n, refine_point, graph.set_neighbors)
            self.graph = graph

        return [("c1", init_phase), ("c2+c3", prune_phase)]

    @property
    def route(self) -> Route:
        """Best-first search with ``backtracks`` extra pops (C7_FANNG)."""
        return Route(backtracks=self.backtracks)
