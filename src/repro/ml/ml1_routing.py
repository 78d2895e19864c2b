"""ML1 — learning to route in similarity graphs ([14], §5.5).

The original work learns compressed vertex representations whose
distances guide routing so fewer true distances are computed.  Our
from-scratch equivalent:

* **preprocessing** — embed every vertex by its distances to ``L``
  landmarks (an ``n × L`` matrix: the big memory bill of Table 6), then
  run several epochs of SGD on sampled triplets to learn per-dimension
  weights that make embedding distances rank like true distances (the
  big time bill);
* **search** — the query is embedded once (``L`` true distances,
  charged), then the index's own best-first walk (its seeds, its C7
  route) runs with a neighbor selector in the slot after the guided
  half-space test: it scores each expansion's unvisited neighbors by
  weighted embedding distance *to the query* (no NDC), and true
  distances are evaluated only for the most promising fraction.

Same shape as the paper's finding: better NDC-vs-recall at the price of
index-processing time and memory (Figure 9, Table 6).
"""

from __future__ import annotations

import time

import numpy as np

from repro.algorithms.base import GraphANNS
from repro.components.routing import SearchResult
from repro.distance import DistanceCounter, l2_batch

__all__ = ["ML1LearnedRouting"]


class ML1LearnedRouting:
    """Wraps a built index with landmark-embedding-guided routing."""

    def __init__(
        self,
        base: GraphANNS,
        num_landmarks: int = 16,
        epochs: int = 30,
        triplets_per_epoch: int = 20_000,
        keep_fraction: float = 0.5,
        seed: int = 0,
    ):
        if base.graph is None:
            raise RuntimeError("base index must be built before wrapping")
        self.base = base
        self.num_landmarks = num_landmarks
        self.epochs = epochs
        self.triplets_per_epoch = triplets_per_epoch
        self.keep_fraction = keep_fraction
        self.seed = seed
        self.embedding: np.ndarray | None = None
        self.weights: np.ndarray | None = None
        self.landmarks: np.ndarray | None = None
        self.preprocessing_time_s = 0.0

    # -- preprocessing ----------------------------------------------------

    def fit(self) -> "ML1LearnedRouting":
        """Compute embeddings and train routing weights (the costly part)."""
        started = time.perf_counter()
        data = self.base.data
        n = len(data)
        rng = np.random.default_rng(self.seed)
        landmarks = rng.choice(n, size=min(self.num_landmarks, n), replace=False)
        embedding = np.empty((n, len(landmarks)))
        for column, landmark in enumerate(landmarks):
            embedding[:, column] = l2_batch(data[landmark], data)
        self.embedding = embedding
        self.landmarks = landmarks

        # triplet SGD: want w·|e_a - e_b| < w·|e_a - e_c| whenever
        # δ(a,b) < δ(a,c) — a margin ranking loss on random triplets
        weights = np.ones(embedding.shape[1])
        lr = 0.05
        for _ in range(self.epochs):
            anchors = rng.integers(0, n, size=self.triplets_per_epoch)
            pos = rng.integers(0, n, size=self.triplets_per_epoch)
            neg = rng.integers(0, n, size=self.triplets_per_epoch)
            d_pos = np.linalg.norm(data[anchors] - data[pos], axis=1)
            d_neg = np.linalg.norm(data[anchors] - data[neg], axis=1)
            swap = d_pos > d_neg
            pos[swap], neg[swap] = neg[swap], pos[swap]
            f_pos = np.abs(embedding[anchors] - embedding[pos])
            f_neg = np.abs(embedding[anchors] - embedding[neg])
            margin = (f_pos - f_neg) @ weights + 1.0
            active = margin > 0
            if active.any():
                grad = (f_pos[active] - f_neg[active]).mean(axis=0)
                weights -= lr * grad
                np.clip(weights, 0.0, None, out=weights)
            if weights.sum() <= 0:
                weights[:] = 1.0
        self.weights = weights / max(weights.sum(), 1e-12) * len(weights)
        self.preprocessing_time_s = time.perf_counter() - started
        return self

    @property
    def memory_bytes(self) -> int:
        """Extra memory for the learned representations (Table 6 MC)."""
        return 0 if self.embedding is None else self.embedding.nbytes

    # -- search -------------------------------------------------------------

    def search(
        self,
        query: np.ndarray,
        k: int = 10,
        ef: int | None = None,
        counter: DistanceCounter | None = None,
    ) -> SearchResult:
        """Embedding-guided best-first search on the base graph."""
        raise_if_unfit(self)
        base = self.base
        ef = max(k, ef if ef is not None else base.default_ef)
        counter = counter if counter is not None else DistanceCounter()
        start_ndc = counter.count
        # embed the query: L true distance computations, charged
        query_embedding = counter.one_to_many(
            query, base.data[self.landmarks]
        )

        def select(ctx, nbrs: np.ndarray) -> np.ndarray:
            nbrs = nbrs[ctx.visit_gen[nbrs] != ctx.generation]
            if len(nbrs) == 0:
                return nbrs
            # score by embedding distance to the *query* (no NDC)
            scores = np.abs(self.embedding[nbrs] - query_embedding).dot(
                self.weights
            )
            keep = max(1, int(np.ceil(len(nbrs) * self.keep_fraction)))
            return nbrs[np.argsort(scores, kind="stable")[:keep]]

        result = base._hooked_answer(query, k, ef, counter, select=select)
        result.ndc = counter.count - start_ndc
        return result


def raise_if_unfit(wrapper: ML1LearnedRouting) -> None:
    if wrapper.embedding is None or wrapper.weights is None:
        raise RuntimeError("call fit() before searching with ML1")
