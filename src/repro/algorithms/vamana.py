"""Vamana (A12) — DiskANN's graph (random init + two α-pruned passes).

C1 random neighbor lists, C2 ANNS on the evolving graph from the
medoid, C3 the α-relaxed RNG heuristic run in two passes (α = 1 then
α > 1, Appendix H), with reverse-edge insertion and re-pruning on
overflow.  No connectivity guarantee (the C5 gap Figure 10(e)
penalises).  Seeds: medoid; routing: best-first search.

Vamana's refinement is *not* embarrassingly parallel — each point
searches the graph as mutated by every previous point — so the build
engine cannot chunk it and ``n_workers`` has no effect.  With the
native kernel the two passes mirror the evolving adjacency lists in a
padded int32 matrix the kernel traverses directly
(``best_first_build`` with per-row counts); without it they run over
the ``Graph`` lists.  Both loops give bit-identical adjacency and NDC.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import GraphANNS
from repro.components.candidates import candidates_by_search
from repro.components.context import BuildContext
from repro.components.refinement import (
    search_candidates_padded,
    select_rng,
)
from repro.components.seeding import CentroidSeeds
from repro.graphs.graph import Graph

__all__ = ["Vamana"]


class Vamana(GraphANNS):
    """Two-pass α-RNG graph built from a random start."""

    name = "vamana"

    def __init__(
        self,
        max_degree: int = 30,
        candidate_ef: int = 40,
        alpha: float = 2.0,
        init_degree: int = 10,
        seed: int = 0,
        n_workers: int = 1,
    ):
        super().__init__(seed=seed, n_workers=n_workers)
        self.max_degree = max_degree
        self.candidate_ef = candidate_ef
        self.alpha = alpha
        self.init_degree = init_degree
        self.seed_provider = CentroidSeeds()

    def _build_phases(self, data: np.ndarray, bctx: BuildContext):
        from repro.components.initialization import random_neighbor_lists

        counter = bctx.counter
        n = len(data)
        state: dict = {}

        def init_phase():
            rng = np.random.default_rng(self.seed)
            init = random_neighbor_lists(n, min(self.init_degree, n - 1), rng)
            state["rng"] = rng
            state["graph"] = Graph(n, init.tolist()).finalize()

        def entry_phase():
            mean = data.mean(axis=0)
            state["medoid"] = int(np.argmin(counter.one_to_many(mean, data)))

        def refine_phase():
            graph = state["graph"]
            medoid = state["medoid"]
            entry = np.asarray([medoid], dtype=np.int64)
            order = state["rng"].permutation(n)
            if bctx.search_context().native:
                self._refine_padded(data, bctx, graph, entry, order)
            else:
                # the padded loop's search_candidates_padded calls
                # _native.best_first_build directly, so without the
                # kernel this Graph-list loop is the only path
                for alpha in (1.0, self.alpha):  # two passes, per the paper
                    for p in order:
                        p = int(p)
                        cand_ids, cand_dists = candidates_by_search(
                            graph, data, p, self.candidate_ef, entry,
                            counter=counter,
                        )
                        selected = select_rng(
                            data[p], cand_ids, cand_dists, data,
                            self.max_degree, counter=counter, alpha=alpha,
                        )
                        graph.set_neighbors(p, selected)
                        # reverse edges with overflow re-pruning (RobustPrune)
                        for v in selected:
                            v = int(v)
                            nbrs = graph.neighbors(v)
                            if p not in nbrs:
                                nbrs.append(p)
                            if len(nbrs) > self.max_degree:
                                arr = np.asarray(nbrs, dtype=np.int64)
                                dists = counter.one_to_many(data[v], data[arr])
                                srt = np.argsort(dists, kind="stable")
                                pruned = select_rng(
                                    data[v], arr[srt], dists[srt], data,
                                    self.max_degree, counter=counter,
                                    alpha=alpha,
                                )
                                graph.set_neighbors(v, pruned)
            self.graph = state["graph"]
            self.medoid = medoid

        return [
            ("c1", init_phase),
            ("c4", entry_phase),
            ("c2+c3", refine_phase),
        ]

    def _refine_padded(self, data, bctx, graph, entry, order) -> None:
        """The two refinement passes over a padded adjacency mirror.

        The matrix rows replicate the ``Graph`` list state exactly
        (same order, same dedup semantics), so the native traversal
        evaluates the same vertices as the Python frontier would.
        """
        counter = bctx.counter
        ctx = bctx.search_context()
        n = len(data)
        rows = [graph.neighbors(v) for v in range(n)]
        cap = max(self.max_degree, max(len(row) for row in rows)) + 1
        padded = np.zeros((n, cap), dtype=np.int32)
        counts = np.zeros(n, dtype=np.int32)
        for v, row in enumerate(rows):
            padded[v, : len(row)] = row
            counts[v] = len(row)
        flat = padded.reshape(-1)
        offsets = (np.arange(n, dtype=np.int64) * cap).astype(np.int32)

        for alpha in (1.0, self.alpha):
            for p in order:
                p = int(p)
                cand_ids, cand_dists = search_candidates_padded(
                    ctx, counter, offsets, flat, counts, data, p,
                    self.candidate_ef, entry,
                )
                selected = select_rng(
                    data[p], cand_ids, cand_dists, data,
                    self.max_degree, counter=counter, alpha=alpha,
                )
                counts[p] = len(selected)
                padded[p, : len(selected)] = selected
                for v in selected:
                    v = int(v)
                    row = padded[v, : counts[v]]
                    if not (row == p).any():
                        padded[v, counts[v]] = p
                        counts[v] += 1
                    if counts[v] > self.max_degree:
                        arr = padded[v, : counts[v]].astype(np.int64)
                        dists = counter.one_to_many(data[v], data[arr])
                        srt = np.argsort(dists, kind="stable")
                        pruned = select_rng(
                            data[v], arr[srt], dists[srt], data,
                            self.max_degree, counter=counter, alpha=alpha,
                        )
                        counts[v] = len(pruned)
                        padded[v, : len(pruned)] = pruned
        for v in range(n):
            graph.set_neighbors(v, padded[v, : counts[v]].tolist())
