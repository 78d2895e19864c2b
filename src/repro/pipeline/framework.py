"""The §5.4 unified evaluation framework.

A *benchmark algorithm* is assembled from one implementation per
component; evaluating a component means swapping only it while every
other component keeps the Table 13 default:

==== ==============================
C1   ``nsg``   (NN-Descent initialization)
C2   ``nssg``  (neighbor expansion)
C3   ``hnsw``  (RNG heuristic — equals NSG's, Appendix A)
C4   ``nssg``  (random entries, no auxiliary index)
C5   ``ieh``   (no connectivity guarantee)
C6   ``nssg``  (tied to C4)
C7   ``nsw``   (best-first search)
==== ==============================

Choices are referred to by the ``C#_Algorithm`` names of the paper,
lower-cased (e.g. ``c3="dpg"`` is the paper's *C3_DPG*).
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.base import GraphANNS
from repro.components.candidates import (
    candidates_by_expansion,
    candidates_direct,
)
from repro.components.connectivity import ensure_reachable_from
from repro.components.refinement import (
    BuildWorker,
    map_refine,
    search_candidates,
    select_rng,
)
from repro.components.initialization import (
    kdtree_neighbor_lists,
    random_neighbor_lists,
)
from repro.components.routing import PLAIN, Route
from repro.components.seeding import (
    CentroidSeeds,
    KDTreeDescendSeeds,
    KMeansTreeSeeds,
    LSHSeeds,
    RandomSeeds,
    VPTreeSeeds,
)
from repro.components.selection import (
    select_angle_sum,
    select_angle_threshold,
    select_closest,
)
from repro.distance import DistanceCounter
from repro.graphs.graph import Graph
from repro.graphs.knng import exact_knn_lists
from repro.nndescent import nn_descent

__all__ = ["BenchmarkAlgorithm", "BENCHMARK_DEFAULTS"]

BENCHMARK_DEFAULTS = {
    "c1": "nsg",
    "c2": "nssg",
    "c3": "hnsw",
    "c4": "nssg",
    "c5": "ieh",
    "c7": "nsw",
}

C1_CHOICES = ("nsg", "efanna", "kgraph", "ieh")
C2_CHOICES = ("nssg", "dpg", "nsw")
C3_CHOICES = ("hnsw", "nsg", "kgraph", "dpg", "nssg", "vamana")
C4_CHOICES = ("nssg", "nsg", "hcnng", "ieh", "ngt", "sptag-bkt")
C5_CHOICES = ("nsg", "ieh", "vamana")      # ieh/vamana: no guarantee
C7_CHOICES = ("nsw", "ngt", "fanng", "hcnng", "oa")


class BenchmarkAlgorithm(GraphANNS):
    """Refinement-strategy algorithm with pluggable C1–C7 components."""

    name = "benchmark"

    def __init__(
        self,
        c1: str = BENCHMARK_DEFAULTS["c1"],
        c2: str = BENCHMARK_DEFAULTS["c2"],
        c3: str = BENCHMARK_DEFAULTS["c3"],
        c4: str = BENCHMARK_DEFAULTS["c4"],
        c5: str = BENCHMARK_DEFAULTS["c5"],
        c7: str = BENCHMARK_DEFAULTS["c7"],
        init_k: int = 20,
        iterations: int = 8,
        candidate_limit: int = 100,
        max_degree: int = 20,
        num_seeds: int = 8,
        alpha: float = 2.0,
        min_angle_deg: float = 60.0,
        epsilon: float = 0.1,
        seed: int = 0,
        n_workers: int = 1,
    ):
        for label, value, choices in (
            ("c1", c1, C1_CHOICES), ("c2", c2, C2_CHOICES),
            ("c3", c3, C3_CHOICES), ("c4", c4, C4_CHOICES),
            ("c5", c5, C5_CHOICES), ("c7", c7, C7_CHOICES),
        ):
            if value not in choices:
                raise ValueError(f"{label}={value!r} not in {choices}")
        super().__init__(seed=seed, n_workers=n_workers)
        self.c1, self.c2, self.c3 = c1, c2, c3
        self.c4, self.c5, self.c7 = c4, c5, c7
        self.init_k = init_k
        self.iterations = iterations
        self.candidate_limit = candidate_limit
        self.max_degree = max_degree
        self.num_seeds = num_seeds
        self.alpha = alpha
        self.min_angle_deg = min_angle_deg
        self.epsilon = epsilon
        self.name = f"bench[{c1}|{c2}|{c3}|{c4}|{c5}|{c7}]"

    @property
    def phase_times(self) -> dict[str, float]:
        """Wall-clock seconds per build phase (from the last ``build``)."""
        if self.build_report is None:
            return {}
        return {
            label: stats.wall_s
            for label, stats in self.build_report.phases.items()
        }

    # -- C1 ---------------------------------------------------------------

    def _initialize(
        self, data: np.ndarray, counter: DistanceCounter, bctx=None
    ) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        n = len(data)
        k = min(self.init_k, n - 1)
        if self.c1 == "kgraph":  # random initialization only
            ids = random_neighbor_lists(n, k, rng)
            dists = np.stack(
                [counter.one_to_many(data[v], data[ids[v]]) for v in range(n)]
            )
            order = np.argsort(dists, axis=1, kind="stable")
            return np.take_along_axis(ids, order, axis=1), np.take_along_axis(
                dists, order, axis=1
            )
        if self.c1 == "ieh":  # brute force (exact lists)
            return exact_knn_lists(data, k, counter=counter)
        if self.c1 == "efanna":  # KD-tree ANNS then NN-Descent
            initial = kdtree_neighbor_lists(
                data, k, counter=counter, seed=self.seed
            )
            result = nn_descent(
                data, k, iterations=max(2, self.iterations // 2),
                counter=counter, seed=self.seed, initial_ids=initial,
                bctx=bctx,
            )
            return result.ids, result.dists
        # "nsg": NN-Descent from random start
        result = nn_descent(
            data, k, iterations=self.iterations, counter=counter,
            seed=self.seed, bctx=bctx,
        )
        return result.ids, result.dists

    # -- C2 ---------------------------------------------------------------

    def _candidates(
        self,
        point: int,
        init_ids: np.ndarray,
        init_dists: np.ndarray,
        init_graph: Graph,
        data: np.ndarray,
        worker: BuildWorker,
        entry: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.c2 == "dpg":
            return candidates_direct(init_ids, init_dists, point)
        if self.c2 == "nsw":
            ids, dists = search_candidates(
                worker, init_graph, data, point, self.candidate_limit, entry,
            )
            return ids[: self.candidate_limit], dists[: self.candidate_limit]
        return candidates_by_expansion(
            init_ids, data, point, self.candidate_limit,
            counter=worker.counter,
        )

    # -- C3 ---------------------------------------------------------------

    def _select(
        self,
        point: int,
        cand_ids: np.ndarray,
        cand_dists: np.ndarray,
        data: np.ndarray,
        counter: DistanceCounter,
    ) -> np.ndarray:
        if self.c3 == "kgraph":
            return select_closest(cand_ids, cand_dists, self.max_degree)
        if self.c3 == "dpg":
            return select_angle_sum(
                data[point], cand_ids, cand_dists, data, self.max_degree
            )
        if self.c3 == "nssg":
            return select_angle_threshold(
                data[point], cand_ids, cand_dists, data, self.max_degree,
                min_angle_deg=self.min_angle_deg,
            )
        alpha = self.alpha if self.c3 == "vamana" else 1.0
        return select_rng(
            data[point], cand_ids, cand_dists, data, self.max_degree,
            counter=counter, alpha=alpha,
        )

    # -- C4/C6 --------------------------------------------------------------

    def _make_seed_provider(self):
        if self.c4 == "nsg":
            return CentroidSeeds()
        if self.c4 == "hcnng":
            return KDTreeDescendSeeds(count=self.num_seeds, seed=self.seed)
        if self.c4 == "ieh":
            return LSHSeeds(count=self.num_seeds, seed=self.seed)
        if self.c4 == "ngt":
            return VPTreeSeeds(count=max(2, self.num_seeds // 2), seed=self.seed)
        if self.c4 == "sptag-bkt":
            return KMeansTreeSeeds(count=self.num_seeds, seed=self.seed)
        return RandomSeeds(count=self.num_seeds, seed=self.seed)

    # -- build --------------------------------------------------------------

    def _build_phases(self, data: np.ndarray, bctx):
        counter = bctx.counter
        n = len(data)
        state: dict = {}

        def init_phase():
            state["init_ids"], state["init_dists"] = self._initialize(
                data, counter, bctx=bctx
            )

        def refine_phase():
            init_ids, init_dists = state["init_ids"], state["init_dists"]
            init_graph = Graph(n, init_ids.tolist()).finalize()
            rng = np.random.default_rng(self.seed)
            entry = np.asarray([int(rng.integers(n))], dtype=np.int64)
            state["entry"] = entry
            graph = Graph(n)

            def refine_point(p, worker):
                return self._select(
                    p,
                    *self._candidates(
                        p, init_ids, init_dists, init_graph, data, worker,
                        entry,
                    ),
                    data, worker.counter,
                )

            map_refine(bctx, n, refine_point, graph.set_neighbors)
            state["graph"] = graph

        def connect_phase():
            if self.c5 == "nsg":
                ensure_reachable_from(
                    state["graph"], data, int(state["entry"][0]),
                    counter=counter, ctx=bctx.search_context(),
                )

        def seed_phase():
            self.graph = state["graph"]
            self.seed_provider = self._make_seed_provider()

        return [
            ("c1", init_phase),
            ("c2+c3", refine_phase),
            ("c5", connect_phase),
            ("c4", seed_phase),
        ]

    # -- C7 -----------------------------------------------------------------

    @property
    def route(self) -> Route:
        """The C7 choice as a :class:`Route` (defaults of each origin)."""
        return {
            "nsw": PLAIN,
            "ngt": Route(epsilon=self.epsilon),
            "fanng": Route(backtracks=10),
            "hcnng": Route(guided_hops=math.inf),
            "oa": Route(guided_hops=None),
        }[self.c7]
