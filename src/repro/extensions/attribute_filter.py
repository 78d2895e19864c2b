"""Hybrid queries: ANNS with structured attribute constraints.

The survey's Tendencies section points at hybrid vector+attribute
search (AnalyticDB-V [104], NSW with multi-attribute constraints [106])
as where graph ANNS is heading.  This extension implements the standard
*filtered routing* approach on top of any built index in the library,
as one hook on the shared best-first walk
(:mod:`repro.components.routing`): a result-admission mask.

* the routing still walks the **unfiltered** graph along the index's
  route (filtering edges would disconnect it — the same reason the
  base algorithms guarantee connectivity), but
* only vertices whose attributes satisfy the predicate may enter the
  result set, and
* the walk keeps expanding until ``ef`` *matching* results are held
  and the frontier lies beyond the worst of them, or a hop cap fires.

Attribute records are read in original-id order and answers finish like
``GraphANNS.search``: tombstones dropped, original ids.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.algorithms.base import GraphANNS
from repro.components.routing import SearchResult
from repro.distance import DistanceCounter
from repro.resilience import BudgetTracker, QueryBudget

__all__ = ["AttributeFilteredIndex"]


class AttributeFilteredIndex:
    """Wrap a built index with per-vertex attributes and filtered search."""

    def __init__(self, base: GraphANNS, attributes):
        if base.graph is None:
            raise RuntimeError("base index must be built before wrapping")
        if len(attributes) != len(base.data):
            raise ValueError(
                f"need one attribute record per vertex: "
                f"{len(attributes)} != {len(base.data)}"
            )
        self.base = base
        self.attributes = attributes

    def search(
        self,
        query: np.ndarray,
        predicate: Callable[[object], bool],
        k: int = 10,
        ef: int | None = None,
        counter: DistanceCounter | None = None,
        max_hops: int | None = None,
    ) -> SearchResult:
        """k nearest neighbors among vertices satisfying ``predicate``.

        ``max_hops`` bounds the extra exploration a very selective
        predicate can cause (default: 4x the unfiltered budget); a walk
        it cuts returns ``degraded=True`` with ``budget.limit == "hops"``.
        """
        base = self.base
        ef = max(k, ef if ef is not None else base.default_ef)
        counter = counter if counter is not None else DistanceCounter()
        if max_hops is None:
            max_hops = 4 * ef
        attributes, id_map = self.attributes, base._id_map

        def admit(ids: np.ndarray) -> np.ndarray:
            original = ids if id_map is None else id_map[ids]
            return np.fromiter(
                (predicate(attributes[i]) for i in original.tolist()),
                dtype=bool, count=len(ids),
            )

        tracker = BudgetTracker(QueryBudget(max_hops=max_hops), counter)
        return base._hooked_answer(query, k, ef, counter, tracker=tracker,
                                   admit=admit)
