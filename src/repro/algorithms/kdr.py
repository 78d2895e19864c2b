"""k-DR (Appendix N) — degree-reduced KNN graph (Aoyama et al.).

Build an exact KNNG by linear scan, then delete every edge whose
endpoints are already connected by an alternative path through kept
neighbors (the *strict* variant of NGT's path adjustment — Appendix N
explains the difference), and finally undirect the surviving edges.
Routing is best-first search (the paper lists "BFS or RS").
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import GraphANNS
from repro.components.routing import PLAIN, Route
from repro.components.selection import path_adjustment
from repro.components.seeding import RandomSeeds
from repro.graphs.graph import Graph
from repro.graphs.knng import exact_knn_lists

__all__ = ["KDR"]


class KDR(GraphANNS):
    """Exact KNNG pruned by strict alternative-path deletion."""

    name = "kdr"

    def __init__(
        self,
        k: int = 20,
        max_degree: int = 15,
        num_seeds: int = 8,
        routing: str = "bfs",
        epsilon: float = 0.1,
        seed: int = 0,
        n_workers: int = 1,
    ):
        if routing not in ("bfs", "rs"):
            raise ValueError(f"routing must be 'bfs' or 'rs', got {routing!r}")
        super().__init__(seed=seed, n_workers=n_workers)
        self.k = k
        self.max_degree = max_degree
        self.routing = routing
        self.epsilon = epsilon
        self.seed_provider = RandomSeeds(count=num_seeds, seed=seed)

    def _build_phases(self, data: np.ndarray, bctx):
        counter = bctx.counter
        state: dict = {}

        def init_phase():
            ids, _ = exact_knn_lists(data, self.k, counter=counter)
            state["knng"] = Graph(len(data), ids.tolist())

        def prune_phase():
            state["pruned"] = path_adjustment(
                state["knng"], data, self.max_degree, counter=counter,
                strict=True,
            )

        def undirect_phase():
            pruned = state["pruned"]
            # reverse edges are added back (Appendix H: "the actual number
            # of neighbors may exceed R due to the addition of reverse edges")
            for u, v in list(pruned.edges()):
                pruned.add_edge(v, u)
            self.graph = pruned

        return [
            ("c1", init_phase),
            ("c2+c3", prune_phase),
            ("c5", undirect_phase),
        ]

    @property
    def route(self) -> Route:
        # the paper lists "BFS or RS" for k-DR (Table 9)
        return Route(epsilon=self.epsilon) if self.routing == "rs" else PLAIN
