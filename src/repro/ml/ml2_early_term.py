"""ML2 — learned adaptive early termination ([59], §5.5).

Li et al. train gradient-boosting models to predict, per query, when
the search can stop.  Our from-scratch equivalent fits a least-squares
predictor of the *expansion budget* from cheap search-state features
observed after a short warm-up:

* distance of the best seed to the query,
* best distance after the warm-up expansions,
* relative improvement during warm-up.

Training runs full searches on held-out queries and records how many
expansions each actually needed before its top-k stopped changing.  At
query time the budgeted search stops at the predicted expansion count —
latency drops mostly in the easy-query tail, the modest high-recall
gain the paper reports.

Both run the index's own best-first walk (its seeds, its C7 route)
under one :class:`~repro.resilience.BudgetTracker` subclass: before
every hop it reads the result set off the frontier — the features once
the warm-up is done, the last hop that changed the set — and at the
warm-up it sets the learned hop cap for the rest of the same walk.
"""

from __future__ import annotations

import time

import numpy as np

from repro.algorithms.base import GraphANNS
from repro.components.routing import SearchResult
from repro.distance import DistanceCounter
from repro.resilience import BudgetTracker, QueryBudget

__all__ = ["ML2EarlyTermination"]


class _StopHopTracker(BudgetTracker):
    """The hop budget of one ML2 walk, learned mid-walk.

    ``results`` is the walk's result heap (negated squared distances).
    :meth:`observe` runs before every hop: at hop 0 it records the best
    seed distance, after ``warmup`` hops the best distance so far (and,
    given ``predict``, the cap ``predict(features)`` with at least one
    hop past the warm-up); any change of the result set during the hop
    just done moves ``stop_hop``.  Stopping at the cap is the answer,
    not a degradation, so ``fired`` stays None.
    """

    __slots__ = ("results", "warmup", "predict", "cap", "seed_best",
                 "warmup_best", "stop_hop", "_state")

    def __init__(self, counter, results, warmup, predict=None):
        super().__init__(QueryBudget(), counter)
        self.results = results
        self.warmup = warmup
        self.predict = predict
        self.cap = None
        self.seed_best = self.warmup_best = 0.0
        self.stop_hop = 0     # last hop at which the top-ef set changed
        self._state = None

    def observe(self, hops: int) -> None:
        results = self.results
        # a push grows the heap and a replace evicts its root, so this
        # pair changes exactly when the result set does
        state = (len(results), results[0])
        if hops == 0:
            self.seed_best = self.warmup_best = self._best()
        elif state != self._state:
            self.stop_hop = hops
        self._state = state
        if hops == self.warmup:
            self.warmup_best = self._best()
            if self.predict is not None:
                self.cap = max(self.warmup + 1,
                               int(self.predict(self.features())))

    def stop_before_hop(self, hops: int) -> bool:
        self.observe(hops)
        return self.cap is not None and hops >= self.cap

    def _best(self) -> float:
        return float(np.sqrt(-max(self.results)[0]))

    def features(self) -> np.ndarray:
        seed_best, warmup_best = self.seed_best, self.warmup_best
        return np.asarray([
            1.0,
            seed_best,
            warmup_best,
            (seed_best - warmup_best) / max(seed_best, 1e-12),
        ])


class ML2EarlyTermination:
    """Wraps a built index with a learned stop-hop predictor."""

    def __init__(self, base: GraphANNS, warmup_hops: int = 5, seed: int = 0):
        if base.graph is None:
            raise RuntimeError("base index must be built before wrapping")
        self.base = base
        self.warmup_hops = warmup_hops
        self.seed = seed
        self.coefficients: np.ndarray | None = None
        self.safety_margin = 1.5
        self.preprocessing_time_s = 0.0

    def _tracked_search(self, query, k, ef, counter, predict=None):
        """One walk under a fresh stop-hop tracker: ``(result, tracker)``."""
        base = self.base
        tracker = _StopHopTracker(counter, base._context().results,
                                  self.warmup_hops, predict)
        result = base._hooked_answer(query, k, ef, counter, tracker=tracker)
        tracker.observe(result.hops)   # the last hop's changes
        return result, tracker

    def fit(
        self, train_queries: np.ndarray, ef: int = 80, k: int = 10
    ) -> "ML2EarlyTermination":
        """Learn the hop predictor from full searches on ``train_queries``."""
        started = time.perf_counter()
        rows, targets = [], []
        for query in train_queries:
            _, tracker = self._tracked_search(query, k, ef, DistanceCounter())
            rows.append(tracker.features())
            targets.append(tracker.stop_hop)
        design = np.asarray(rows)
        target = np.asarray(targets, dtype=np.float64)
        self.coefficients, *_ = np.linalg.lstsq(design, target, rcond=None)
        self.preprocessing_time_s = time.perf_counter() - started
        return self

    @property
    def memory_bytes(self) -> int:
        """Model size — negligible, unlike ML1/ML3 (Table 24)."""
        return 0 if self.coefficients is None else self.coefficients.nbytes

    def search(
        self,
        query: np.ndarray,
        k: int = 10,
        ef: int | None = None,
        counter: DistanceCounter | None = None,
    ) -> SearchResult:
        """Budgeted search: stop at the predicted expansion count."""
        if self.coefficients is None:
            raise RuntimeError("call fit() before searching with ML2")
        ef = max(k, ef if ef is not None else self.base.default_ef)
        counter = counter if counter is not None else DistanceCounter()

        def predict(features: np.ndarray) -> float:
            predicted = float(features @ self.coefficients)
            return np.ceil(predicted * self.safety_margin)

        result, _ = self._tracked_search(query, k, ef, counter, predict)
        return result
