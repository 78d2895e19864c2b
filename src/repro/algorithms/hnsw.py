"""HNSW (A2) — Hierarchical Navigable Small World graphs.

Each point draws a level from an exponential distribution; upper layers
form a coarse-to-fine navigation hierarchy, and every layer's neighbors
are chosen by the heuristic (RNG) rule of Appendix A.  The greedy
descent from the fixed top-layer entry to layer 1 is HNSW's C6 seed
acquisition (:class:`TopLayerSeeds`); the base layer is then walked by
the plain best-first search every index shares.  The extra layers are
the memory overhead the paper notes (§3.2 A2); base-layer statistics
(GQ/AD/CC) are what Table 4 reports.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.base import GraphANNS
from repro.components.routing import best_first_search
from repro.components.selection import select_rng_heuristic
from repro.components.seeding import FixedSeeds, SeedProvider
from repro.distance import DistanceCounter
from repro.graphs.graph import Graph

__all__ = ["HNSW", "TopLayerSeeds"]


def _greedy_step(
    graph: Graph, data: np.ndarray, entry: int, query: np.ndarray,
    counter: DistanceCounter,
) -> int:
    """Move to the closest neighbor on one layer until none is closer."""
    current = entry
    current_dist = counter.pair(query, data[current])
    improved = True
    while improved:
        improved = False
        nbrs = graph.neighbor_array(current)
        if len(nbrs) == 0:
            break
        dists = counter.one_to_many(query, data[nbrs])
        best = int(np.argmin(dists))
        if dists[best] < current_dist:
            current = int(nbrs[best])
            current_dist = float(dists[best])
            improved = True
    return current


class TopLayerSeeds(SeedProvider):
    """HNSW's C6: greedy descent from the top entry down to layer 1.

    The vertex the descent lands on is the base-layer walk's one seed,
    and the descent's distance computations are the acquisition NDC.
    The provider shares the index's ``layers`` list (their bytes are
    :meth:`HNSW.aux_size_bytes`).  A saved index keeps only the top
    entry, so :meth:`spec` is :class:`FixedSeeds`' recipe for it.
    """

    def __init__(self, layers: list[Graph], entry_point: int):
        self.layers = layers
        self.entry_point = int(entry_point)
        self._data: np.ndarray | None = None

    def prepare(self, data: np.ndarray, graph: Graph) -> None:
        self._data = data

    def acquire(self, query, counter=None) -> np.ndarray:
        counter = counter if counter is not None else DistanceCounter()
        entry = self.entry_point
        for graph in self.layers[:0:-1]:
            entry = _greedy_step(graph, self._data, entry, query, counter)
        return np.asarray([entry], dtype=np.int64)

    def spec(self) -> dict:
        return FixedSeeds([self.entry_point]).spec()


class HNSW(GraphANNS):
    """Multi-layer graph with heuristic neighbor selection."""

    name = "hnsw"
    # the upper-layer graphs and entry point hard-code base-layer
    # vertex ids; a base-layer relabeling would orphan them
    _reorder_ok = False

    def __init__(
        self,
        m: int = 10,
        ef_construction: int = 40,
        seed: int = 0,
        n_workers: int = 1,
    ):
        super().__init__(seed=seed, n_workers=n_workers)
        self.m = m
        self.m0 = 2 * m           # base-layer degree bound, per the paper
        self.ef_construction = ef_construction
        self.level_mult = 1.0 / math.log(m)
        self.layers: list[Graph] = []
        self.levels = np.zeros(0, dtype=np.int64)  # each vertex's top layer
        self.entry_point = 0
        self.max_level = 0

    # -- construction ---------------------------------------------------

    def _build_phases(self, data: np.ndarray, bctx):
        # incremental insertion is inherently sequential (each point
        # searches the graph every earlier point mutated), so the
        # refinement loop runs on one thread at any worker count
        counter = bctx.counter
        n = len(data)
        state: dict = {}

        def init_phase():
            rng = np.random.default_rng(self.seed)
            levels = np.minimum(
                (-np.log(rng.random(n)) * self.level_mult).astype(np.int64),
                12,
            )
            self.levels = levels
            self.max_level = int(levels.max())
            self.layers = [Graph(n) for _ in range(self.max_level + 1)]
            order = rng.permutation(n)
            # start with the first point as the global entry
            first = int(order[0])
            self.entry_point = first
            state["order"] = order
            state["current_max"] = int(levels[first])
            state["rng"] = rng

        def insert_phase():
            levels = self.levels
            current_max = state["current_max"]
            inserted_any = False
            for p in state["order"]:
                p = int(p)
                if not inserted_any:
                    inserted_any = True
                    continue
                self._insert(p, int(levels[p]), data, counter)
                if levels[p] > current_max:
                    current_max = int(levels[p])
                    self.entry_point = p
            self.graph = self.layers[0]
            self.seed_provider = TopLayerSeeds(self.layers, self.entry_point)
            self._rng = state["rng"]

        return [("c1", init_phase), ("c2+c3", insert_phase)]

    def insert(self, vector: np.ndarray) -> int:
        """Incremental insertion — HNSW's native construction step."""
        self._require_built()
        vector = self._validate_insert(vector)
        level = min(int(-math.log(self._rng.random()) * self.level_mult), 12)
        while level > self.max_level:
            self.layers.append(Graph(self.graph.n))
            self.max_level += 1
        self.data = np.vstack([self.data, vector[None, :]])
        new_id = None
        for layer in self.layers:
            new_id = layer.add_vertex()
        self.levels = np.append(self.levels, level)
        counter = DistanceCounter()
        self._insert(new_id, level, self.data, counter)
        if level >= self.levels[self.entry_point]:
            self.entry_point = new_id
        for layer in self.layers:
            layer.finalize()
        self.seed_provider = TopLayerSeeds(self.layers, self.entry_point)
        self._grow_bookkeeping()
        return new_id

    def _insert(
        self, p: int, level: int, data: np.ndarray, counter: DistanceCounter
    ) -> None:
        entry = self.entry_point
        entry_level = int(self.levels[entry])
        # greedy descent through layers above the insertion level
        for layer in range(entry_level, level, -1):
            entry = _greedy_step(self.layers[layer], data, entry, data[p], counter)
        entries = np.asarray([entry], dtype=np.int64)
        for layer in range(min(level, entry_level), -1, -1):
            graph = self.layers[layer]
            result = best_first_search(
                graph, data, data[p], entries, ef=self.ef_construction,
                counter=counter,
            )
            cap = self.m0 if layer == 0 else self.m
            selected = select_rng_heuristic(
                data[p], result.ids, result.dists, data, cap, counter=counter
            )
            for v in selected:
                v = int(v)
                graph.add_edge(p, v)
                graph.add_edge(v, p)
                nbrs = graph.neighbors(v)
                if len(nbrs) > cap:
                    arr = np.asarray(nbrs, dtype=np.int64)
                    dists = counter.one_to_many(data[v], data[arr])
                    srt = np.argsort(dists, kind="stable")
                    pruned = select_rng_heuristic(
                        data[v], arr[srt], dists[srt], data, cap, counter=counter
                    )
                    graph.set_neighbors(v, pruned)
            entries = result.ids if len(result.ids) else entries

    def aux_size_bytes(self) -> int:
        """The hierarchy's upper layers (the paper's memory-usage caveat
        for HNSW) — the C4 auxiliary structure over the base graph."""
        upper = sum(g.index_size_bytes() for g in self.layers[1:])
        return upper + self.seed_provider.extra_bytes
