"""NSG (A10) — Navigating Spreading-out Graph.

C1 NN-Descent, C2 ANNS on the initial graph (candidates = search
results ∪ visited KNN list), C3 the MRNG rule (== HNSW's heuristic,
Appendix A), C4 approximate centroid entry, C5 DFS-based reachability
repair from the entry, C7 best-first search.  The resulting small
out-degree / small index / strong search tradeoff is the paper's
running example of a well-balanced design (Table 7: S1, S4, S5, S7).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import GraphANNS
from repro.components.connectivity import ensure_reachable_from
from repro.components.context import BuildContext
from repro.components.refinement import (
    map_refine,
    search_candidates,
    select_rng,
)
from repro.components.seeding import CentroidSeeds
from repro.graphs.graph import Graph
from repro.nndescent import nn_descent

__all__ = ["NSG"]


class NSG(GraphANNS):
    """MRNG-pruned graph navigated from the dataset medoid."""

    name = "nsg"

    def __init__(
        self,
        init_k: int = 20,
        iterations: int = 8,
        candidate_ef: int = 40,
        max_degree: int = 20,
        seed: int = 0,
        n_workers: int = 1,
    ):
        super().__init__(seed=seed, n_workers=n_workers)
        self.init_k = init_k
        self.iterations = iterations
        self.candidate_ef = candidate_ef
        self.max_degree = max_degree
        self.seed_provider = CentroidSeeds()

    def _build_phases(self, data: np.ndarray, bctx: BuildContext):
        counter = bctx.counter
        n = len(data)
        state: dict = {}

        def init_phase():
            init = nn_descent(
                data, self.init_k, iterations=self.iterations,
                counter=counter, seed=self.seed, bctx=bctx,
            )
            state["init"] = init
            state["init_graph"] = Graph(n, init.ids.tolist()).finalize()

        def entry_phase():
            mean = data.mean(axis=0)
            state["medoid"] = int(np.argmin(counter.one_to_many(mean, data)))

        def refine_phase():
            init = state["init"]
            init_graph = state["init_graph"]
            graph = Graph(n)
            entry = np.asarray([state["medoid"]], dtype=np.int64)

            def refine_point(p, worker):
                found_ids, _ = search_candidates(
                    worker, init_graph, data, p, self.candidate_ef, entry
                )
                # NSG pools the search results with the point's KNN list
                pool = np.unique(np.concatenate([found_ids, init.ids[p]]))
                pool = pool[pool != p]
                pool_dists = worker.counter.one_to_many(data[p], data[pool])
                order = np.argsort(pool_dists, kind="stable")
                return select_rng(
                    data[p], pool[order], pool_dists[order], data,
                    self.max_degree, counter=worker.counter,
                )

            map_refine(bctx, n, refine_point, graph.set_neighbors)
            state["graph"] = graph

        def connect_phase():
            ensure_reachable_from(
                state["graph"], data, state["medoid"], counter=counter,
                ctx=bctx.search_context(),
            )
            self.graph = state["graph"]
            self.medoid = state["medoid"]

        return [
            ("c1", init_phase),
            ("c4", entry_phase),
            ("c2+c3", refine_phase),
            ("c5", connect_phase),
        ]
