"""The optimized algorithm (OA) designed in §6 "Improvement".

Component recipe (verbatim from the paper):

* C1 — NN-Descent initialization with *appropriate* (not maximal)
  graph quality;
* C2 — NSSG's expansion-based candidate acquisition (no ANNS cost);
* C3 — NSG/HNSW's RNG heuristic to trim redundant neighbors;
* C4/C6 — a fixed pool of random entries (no auxiliary index);
* C5 — depth-first-traversal connectivity repair;
* C7 — two-stage routing: guided search first, best-first search after.

Figure 11 / Tables 19–22 show OA beating the state of the art on the
efficiency-accuracy tradeoff while keeping construction cheap and
memory low; the Figure 11 bench reproduces that comparison.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import GraphANNS
from repro.components.candidates import candidates_by_expansion
from repro.components.connectivity import ensure_reachable_from
from repro.components.refinement import map_refine, select_rng
from repro.components.routing import Route
from repro.components.seeding import FixedSeeds
from repro.graphs.graph import Graph
from repro.nndescent import nn_descent

__all__ = ["OptimizedAlgorithm"]


class OptimizedAlgorithm(GraphANNS):
    """The survey's own best-of-all-components design (§6)."""

    name = "oa"
    #: two-stage routing: guided for the first max(4, ef // 2)
    #: expansions, plain best-first after
    route = Route(guided_hops=None)

    def __init__(
        self,
        init_k: int = 20,
        iterations: int = 8,
        candidate_limit: int = 100,
        max_degree: int = 20,
        num_entries: int = 8,
        seed: int = 0,
        n_workers: int = 1,
    ):
        super().__init__(seed=seed, n_workers=n_workers)
        self.init_k = init_k
        self.iterations = iterations
        self.candidate_limit = candidate_limit
        self.max_degree = max_degree
        self.num_entries = num_entries

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
                return select_rng(
                    data[p], cand_ids, cand_dists, data, self.max_degree,
                    counter=worker.counter,
                )

            map_refine(bctx, n, refine_point, graph.set_neighbors)
            state["graph"] = graph

        def entry_phase():
            rng = np.random.default_rng(self.seed)
            state["entries"] = rng.choice(
                n, size=min(self.num_entries, n), replace=False
            )

        def connect_phase():
            graph = state["graph"]
            entries = state["entries"]
            # C5: every vertex reachable from the fixed entries
            ensure_reachable_from(
                graph, data, int(entries[0]), counter=counter,
                ctx=bctx.search_context(),
            )
            self.graph = graph
            self.seed_provider = FixedSeeds(entries)

        return [
            ("c1", init_phase),
            ("c2+c3", refine_phase),
            ("c4", entry_phase),
            ("c5", connect_phase),
        ]
