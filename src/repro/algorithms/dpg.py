"""DPG (A9) — Diversified Proximity Graph.

Diversifies a KGraph by angle-sum neighbor selection (keep κ/2 of κ,
Appendix C proves this approximates RNG) and then *undirects* every
edge — the reverse edges give DPG its single connected component and
cluster robustness (Table 4) at the price of a large index (Figure 6,
some vertices' degree "surges back" per Appendix H).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import GraphANNS
from repro.components.refinement import map_refine
from repro.components.selection import select_angle_sum
from repro.components.seeding import RandomSeeds
from repro.graphs.graph import Graph
from repro.nndescent import nn_descent

__all__ = ["DPG"]


class DPG(GraphANNS):
    """Angle-diversified, undirected KGraph."""

    name = "dpg"

    def __init__(
        self,
        k: int = 40,
        iterations: int = 8,
        num_seeds: int = 8,
        seed: int = 0,
        n_workers: int = 1,
    ):
        super().__init__(seed=seed, n_workers=n_workers)
        self.k = k
        self.iterations = iterations
        self.seed_provider = RandomSeeds(count=num_seeds, seed=seed)

    def _build_phases(self, data: np.ndarray, bctx):
        state: dict = {}

        def init_phase():
            state["knn"] = nn_descent(
                data, self.k, iterations=self.iterations,
                counter=bctx.counter, seed=self.seed, bctx=bctx,
            )

        def diversify_phase():
            result = state["knn"]
            keep = max(1, self.k // 2)
            graph = Graph(len(data))

            def refine_point(p, worker):
                return select_angle_sum(
                    data[p], result.ids[p], result.dists[p], data, keep
                )

            map_refine(bctx, len(data), refine_point, graph.set_neighbors)
            state["graph"] = graph

        def undirect_phase():
            graph = state["graph"]
            # add reverse edges: DPG keeps bi-directed edges (§3.2 A9)
            for u, v in list(graph.edges()):
                graph.add_edge(v, u)
            self.graph = graph

        return [
            ("c1", init_phase),
            ("c2+c3", diversify_phase),
            ("c5", undirect_phase),
        ]
