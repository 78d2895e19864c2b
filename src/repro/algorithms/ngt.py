"""NGT (A4) — Neighborhood Graph and Tree (Yahoo Japan).

Construction: an ANNG is grown incrementally like NSW but using *range
search* for candidate acquisition; degree is then reduced:

* **NGT-panng** — path adjustment (the RNG approximation of Appendix B)
  caps each vertex at ``max_degree``;
* **NGT-onng** — out-degree/in-degree adjustment first (keep the best
  ``out_edges`` per vertex, then guarantee ``in_edges`` incoming edges),
  followed by the same path adjustment.

Search: seeds from a VP-tree, routing by range search with ε.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import GraphANNS
from repro.components.routing import Route, best_first_search
from repro.components.selection import path_adjustment
from repro.components.seeding import VPTreeSeeds
from repro.distance import DistanceCounter
from repro.graphs.graph import Graph

__all__ = ["NGTPanng", "NGTOnng"]


class _NGTBase(GraphANNS):
    """Shared ANNG construction + range-search routing."""

    def __init__(
        self,
        k: int = 10,
        ef_construction: int = 40,
        max_degree: int = 20,
        epsilon: float = 0.1,
        num_seeds: int = 4,
        seed: int = 0,
        n_workers: int = 1,
    ):
        super().__init__(seed=seed, n_workers=n_workers)
        self.k = k
        self.ef_construction = ef_construction
        self.max_degree = max_degree
        self.epsilon = epsilon
        self.seed_provider = VPTreeSeeds(count=num_seeds, seed=seed)

    def _build_anng(self, data: np.ndarray, counter: DistanceCounter) -> Graph:
        n = len(data)
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(n)
        graph = Graph(n)
        inserted: list[int] = []
        for pos, p in enumerate(order):
            p = int(p)
            if pos == 0:
                inserted.append(p)
                continue
            m = min(self.k, len(inserted))
            entry = np.asarray(
                [inserted[int(rng.integers(len(inserted)))]], dtype=np.int64
            )
            result = best_first_search(
                graph, data, data[p], entry,
                ef=max(self.ef_construction, m), counter=counter,
                route=self.route,
            )
            for neighbor in result.ids[:m]:
                graph.add_undirected_edge(p, int(neighbor))
            inserted.append(p)
        return graph

    @property
    def route(self) -> Route:
        """Range search with this index's ε (C7_NGT)."""
        return Route(epsilon=self.epsilon)


class NGTPanng(_NGTBase):
    """ANNG + path adjustment (pruned ANNG)."""

    name = "ngt-panng"

    def _build_phases(self, data: np.ndarray, bctx):
        counter = bctx.counter
        state: dict = {}

        def init_phase():
            state["anng"] = self._build_anng(data, counter)

        def adjust_phase():
            self.graph = path_adjustment(
                state["anng"], data, self.max_degree, counter=counter
            )

        return [("c1", init_phase), ("c2+c3", adjust_phase)]


class NGTOnng(_NGTBase):
    """ANNG + out/in-degree adjustment + path adjustment."""

    name = "ngt-onng"

    def __init__(self, out_edges: int = 10, in_edges: int = 12, **kwargs):
        super().__init__(**kwargs)
        self.out_edges = out_edges
        self.in_edges = in_edges

    def _build_phases(self, data: np.ndarray, bctx):
        counter = bctx.counter
        state: dict = {}

        def init_phase():
            state["anng"] = self._build_anng(data, counter)

        def adjust_phase():
            anng = state["anng"]
            adjusted = Graph(anng.n)
            # out-degree adjustment: keep each vertex's closest out_edges
            for p in range(anng.n):
                nbrs = anng.neighbor_array(p)
                if len(nbrs) == 0:
                    continue
                dists = counter.one_to_many(data[p], data[nbrs])
                order = np.argsort(dists, kind="stable")[: self.out_edges]
                adjusted.set_neighbors(p, nbrs[order])
            # in-degree adjustment: ensure each vertex receives in_edges edges
            in_degree = np.zeros(anng.n, dtype=np.int64)
            for _, v in adjusted.edges():
                in_degree[v] += 1
            for v in range(anng.n):
                if in_degree[v] >= self.in_edges:
                    continue
                nbrs = anng.neighbor_array(v)
                if len(nbrs) == 0:
                    continue
                dists = counter.one_to_many(data[v], data[nbrs])
                for u in nbrs[np.argsort(dists, kind="stable")]:
                    if in_degree[v] >= self.in_edges:
                        break
                    u = int(u)
                    if v not in adjusted.neighbors(u):
                        adjusted.add_edge(u, v)
                        in_degree[v] += 1
            self.graph = path_adjustment(
                adjusted, data, self.max_degree, counter=counter
            )

        return [("c1", init_phase), ("c2+c3", adjust_phase)]
