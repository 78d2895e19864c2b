"""SPTAG (A5) — Space Partition Tree And Graph (Microsoft).

Divide-and-conquer construction: TP-tree partitions are repeated
``num_divisions`` times; an exact KNN subgraph is built inside every
leaf subset and the per-vertex neighbor lists are merged by distance
(Definition 4.1/4.4 "subspace" candidates).  A neighborhood-propagation
pass then improves the merged graph.

* **SPTAG-KDT** — plain KNN lists, KD-tree seeds;
* **SPTAG-BKT** — adds the RNG-heuristic pruning option and takes
  seeds from a balanced k-means tree.

Routing is the plain best-first search every index shares (§4.2 C7
lists SPTAG as BFS).  The original restarts a stuck pass from fresh
tree seeds, but both tree providers here are deterministic: a restart
would re-acquire seeds the first pass already visited, so one pass
from the tree seeds is the whole search.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import GraphANNS
from repro.components.refinement import map_refine
from repro.components.refinement import select_rng as fast_select_rng
from repro.components.selection import select_rng_heuristic
from repro.components.seeding import KDTreeSeeds, KMeansTreeSeeds
from repro.distance import DistanceCounter, pairwise_l2
from repro.graphs.graph import Graph
from repro.trees.tp_tree import TPTree

__all__ = ["SPTAGKDT", "SPTAGBKT"]


class _SPTAGBase(GraphANNS):
    """Shared divide-and-conquer KNNG construction."""

    def __init__(
        self,
        k: int = 16,
        num_divisions: int = 4,
        leaf_size: int = 100,
        propagation_rounds: int = 1,
        seed: int = 0,
        n_workers: int = 1,
    ):
        super().__init__(seed=seed, n_workers=n_workers)
        self.k = k
        self.num_divisions = num_divisions
        self.leaf_size = leaf_size
        self.propagation_rounds = propagation_rounds

    def _merged_knn_lists(
        self, data: np.ndarray, counter: DistanceCounter
    ) -> tuple[np.ndarray, np.ndarray]:
        """Union of per-leaf exact KNN lists over repeated divisions."""
        n = len(data)
        best_ids = np.full((n, self.k), -1, dtype=np.int64)
        best_d = np.full((n, self.k), np.inf)
        for division in range(self.num_divisions):
            tree = TPTree(data, leaf_size=self.leaf_size, seed=self.seed + division)
            for leaf in tree.partition():
                if len(leaf) < 2:
                    continue
                block = pairwise_l2(data[leaf], data[leaf])
                counter.count += len(leaf) ** 2
                np.fill_diagonal(block, np.inf)
                k_here = min(self.k, len(leaf) - 1)
                part = np.argpartition(block, k_here - 1, axis=1)[:, :k_here]
                for row, p in enumerate(leaf):
                    cand_ids = leaf[part[row]]
                    cand_d = block[row, part[row]]
                    merged_ids = np.concatenate([best_ids[p], cand_ids])
                    merged_d = np.concatenate([best_d[p], cand_d])
                    # dedupe keeping smallest distance per id
                    order = np.argsort(merged_d, kind="stable")
                    seen: set[int] = set()
                    keep_ids, keep_d = [], []
                    for pos in order:
                        idx = int(merged_ids[pos])
                        if idx < 0 or idx in seen or idx == p:
                            continue
                        seen.add(idx)
                        keep_ids.append(idx)
                        keep_d.append(float(merged_d[pos]))
                        if len(keep_ids) == self.k:
                            break
                    best_ids[p, : len(keep_ids)] = keep_ids
                    best_d[p, : len(keep_d)] = keep_d
        # fill any residual -1 slots with random vertices
        rng = np.random.default_rng(self.seed)
        for p in range(n):
            missing = np.flatnonzero(best_ids[p] < 0)
            if len(missing):
                fillers = rng.integers(0, n, size=len(missing))
                fillers[fillers == p] = (p + 1) % n
                best_ids[p, missing] = fillers
                best_d[p, missing] = counter.one_to_many(
                    data[p], data[best_ids[p, missing]]
                )
        return best_ids, best_d

    def _propagate(
        self,
        ids: np.ndarray,
        dists: np.ndarray,
        data: np.ndarray,
        counter: DistanceCounter,
        bctx=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Neighborhood propagation: one NN-expansion round per call."""
        from repro.nndescent import nn_descent

        result = nn_descent(
            data, self.k, iterations=self.propagation_rounds,
            counter=counter, seed=self.seed, initial_ids=ids, bctx=bctx,
        )
        return result.ids, result.dists


class SPTAGKDT(_SPTAGBase):
    """Original SPTAG: merged KNNG + KD-tree seeds."""

    name = "sptag-kdt"

    def __init__(self, num_trees: int = 3, num_seeds: int = 8, **kwargs):
        super().__init__(**kwargs)
        self.seed_provider = KDTreeSeeds(
            num_trees=num_trees, count=num_seeds, seed=self.seed
        )

    def _build_phases(self, data: np.ndarray, bctx):
        counter = bctx.counter
        state: dict = {}

        def init_phase():
            state["ids"], state["dists"] = self._merged_knn_lists(
                data, counter
            )

        def propagate_phase():
            ids, _ = self._propagate(
                state["ids"], state["dists"], data, counter, bctx=bctx
            )
            self.graph = Graph(len(data), ids.tolist())

        return [("c1", init_phase), ("c2+c3", propagate_phase)]


class SPTAGBKT(_SPTAGBase):
    """Improved SPTAG: RNG pruning option + balanced k-means tree seeds."""

    name = "sptag-bkt"

    def __init__(self, num_seeds: int = 8, rng_prune: bool = True, **kwargs):
        super().__init__(**kwargs)
        self.rng_prune = rng_prune
        self.seed_provider = KMeansTreeSeeds(count=num_seeds, seed=self.seed)

    def _build_phases(self, data: np.ndarray, bctx):
        counter = bctx.counter
        state: dict = {}

        def init_phase():
            state["ids"], state["dists"] = self._merged_knn_lists(
                data, counter
            )

        def refine_phase():
            ids, dists = self._propagate(
                state["ids"], state["dists"], data, counter, bctx=bctx
            )
            if not self.rng_prune:
                self.graph = Graph(len(data), ids.tolist())
                return
            graph = Graph(len(data))
            if bctx.parallel:
                def prune_point(p, worker):
                    return fast_select_rng(
                        data[p], ids[p], dists[p], data, self.k,
                        counter=worker.counter,
                    )

                map_refine(bctx, len(data), prune_point,
                           lambda p, sel: graph.set_neighbors(p, sel))
            else:
                for p in range(len(data)):
                    selected = select_rng_heuristic(
                        data[p], ids[p], dists[p], data, self.k,
                        counter=counter,
                    )
                    graph.set_neighbors(p, selected)
            self.graph = graph

        return [("c1", init_phase), ("c2+c3", refine_phase)]
