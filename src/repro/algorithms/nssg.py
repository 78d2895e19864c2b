"""NSSG (A11) — Navigating Satellite System Graph.

NSG's framework with two swaps: C2 is neighbor *expansion* on the
initial graph instead of per-point ANNS (the big construction-time win
the paper credits, §3.2), and C3 is the relaxed minimum-angle rule
(θ = 60° by default), which keeps more edges than MRNG.  Seeds are
random; DFS reachability repair keeps the graph navigable.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import GraphANNS
from repro.components.candidates import candidates_by_expansion
from repro.components.connectivity import ensure_reachable_from
from repro.components.refinement import map_refine
from repro.components.selection import select_angle_threshold
from repro.components.seeding import RandomSeeds
from repro.graphs.graph import Graph
from repro.nndescent import nn_descent

__all__ = ["NSSG"]


class NSSG(GraphANNS):
    """Angle-threshold-pruned graph with expansion-based candidates."""

    name = "nssg"

    def __init__(
        self,
        init_k: int = 20,
        iterations: int = 8,
        candidate_limit: int = 100,
        max_degree: int = 25,
        min_angle_deg: float = 60.0,
        num_seeds: int = 8,
        seed: int = 0,
        n_workers: int = 1,
    ):
        super().__init__(seed=seed, n_workers=n_workers)
        self.init_k = init_k
        self.iterations = iterations
        self.candidate_limit = candidate_limit
        self.max_degree = max_degree
        self.min_angle_deg = min_angle_deg
        self.seed_provider = RandomSeeds(count=num_seeds, seed=seed)

    def _build_phases(self, data: np.ndarray, bctx):
        counter = bctx.counter
        n = len(data)
        state: dict = {}

        def init_phase():
            state["init"] = nn_descent(
                data, self.init_k, iterations=self.iterations,
                counter=counter, seed=self.seed, bctx=bctx,
            )

        def refine_phase():
            init = state["init"]
            graph = Graph(n)

            def refine_point(p, worker):
                cand_ids, cand_dists = candidates_by_expansion(
                    init.ids, data, p, self.candidate_limit,
                    counter=worker.counter,
                )
                return select_angle_threshold(
                    data[p], cand_ids, cand_dists, data,
                    self.max_degree, min_angle_deg=self.min_angle_deg,
                )

            map_refine(bctx, n, refine_point, graph.set_neighbors)
            state["graph"] = graph

        def connect_phase():
            graph = state["graph"]
            root = int(np.random.default_rng(self.seed).integers(n))
            ensure_reachable_from(
                graph, data, root, counter=counter,
                ctx=bctx.search_context(),
            )
            self.graph = graph

        return [
            ("c1", init_phase),
            ("c2+c3", refine_phase),
            ("c5", connect_phase),
        ]
