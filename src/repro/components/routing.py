"""C7 — routing strategies (§4.2, Definition 4.6/4.7, Appendix F).

The survey's routing variants are parameters of one candidate-set loop
(Table 9: BFS / RS / GS), and here they are exactly that: a frozen
:class:`Route` value (range-search ε, backtracks, guided hops) selects
the stop test and the neighbor filter of the single best-first walk in
:func:`best_first_search`.  Every variant works on a finalized
:class:`~repro.graphs.graph.Graph` plus the raw vectors, counts every
distance evaluation through the supplied :class:`DistanceCounter`, and
reports the per-query search statistics the paper tracks: NDC, query
path length (number of expanded vertices, the hop count that drives I/O
on external storage — Table 5 PL) and the number of visited vertices.

Mechanics (none of which change a single NDC): distances are evaluated
in the *squared* domain against the cached norms of a reusable
:class:`~repro.components.context.SearchContext` (square roots are
taken once, on the final result set), adjacency is read from the frozen
CSR layout, and — for the plain route on a frozen graph — the whole
loop runs inside the optional C kernel of :mod:`repro._native`.
Pass ``ctx`` to reuse scratch across queries; omitting it builds a
transient context with identical semantics.

The §5.5 ML wrappers and the attribute filter change one step of the
same walk through private hooks on the NumPy frontier: ``_walk``'s
neighbor selector (ML1), ``_Frontier``'s result-admission mask (the
filter) and a :class:`~repro.resilience.BudgetTracker` subclass (ML2).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import _native, faults
from repro.components.context import SearchContext
from repro.distance import DistanceCounter
from repro.graphs.graph import Graph
from repro.resilience import BudgetReport, BudgetTracker, QueryBudget

__all__ = [
    "PLAIN",
    "Route",
    "SearchResult",
    "SearchContext",
    "best_first_search",
]

#: a guided expansion filters only vertices with more than MIN_KEEP
#: neighbors, and only when at least MIN_KEEP of them survive the filter
MIN_KEEP = 2


@dataclass(frozen=True)
class Route:
    """One C7 routing strategy as parameters of the best-first walk.

    * ``epsilon`` — NGT's range search: the walk stops at the first
      candidate farther than ``(1+ε)·r`` (``r`` the current worst
      result), so a larger ε escapes local optima at more NDC.
    * ``backtracks`` — FANNG: that many extra candidates are expanded
      past the stop test (the "second-closest vertex with unexplored
      edges"), for slightly better accuracy at noticeably more time.
    * ``guided_hops`` — HCNNG's guided search: the first ``guided_hops``
      expansions evaluate only neighbors in the query's half-space
      (``<q - u, x_n - u> > 0``, a coordinate test costing no NDC).
      ``math.inf`` filters every hop (HCNNG); ``None`` filters the first
      ``max(4, ef // 2)`` at the call's ``ef`` and hands over to plain
      best-first search after that (OA's two-stage routing, §6).

    The default is plain best-first search (Algorithm 1), the only
    route the C kernels run.
    """

    epsilon: float = 0.0
    backtracks: int = 0
    guided_hops: float | None = 0

    @property
    def plain(self) -> bool:
        return (self.epsilon == 0.0 and self.backtracks == 0
                and self.guided_hops == 0)


#: Algorithm 1 — NSW, HNSW, KGraph, IEH, EFANNA, DPG, NSG, NSSG, Vamana
PLAIN = Route()


@dataclass
class SearchResult:
    """Ids/distances in ascending distance order, plus search telemetry.

    ``degraded`` marks a search cut short by a :class:`QueryBudget`:
    the ids/dists are the best-k found so far (never invalid, never
    silently wrong), and ``budget`` says which limit fired and what was
    spent.  Unbudgeted searches always report ``degraded=False``.

    Compressed (ADC) searches keep the survey's NDC accounting honest:
    ``ndc`` counts only *true* distance computations (seed acquisition
    plus the exact re-rank), while the traversal's table lookups — which
    never touch a float32 row — are reported separately in
    ``adc_lookups``; ``rerank_ndc`` is the exact-re-rank share of
    ``ndc``.  Both stay 0 for exact searches.
    """

    ids: np.ndarray
    dists: np.ndarray
    ndc: int = 0          # number of distance computations
    hops: int = 0         # expanded vertices ~= query path length (PL)
    visited: int = 0      # vertices whose distance was evaluated
    visited_ids: np.ndarray | None = None    # set by record_visited=True
    visited_dists: np.ndarray | None = None
    degraded: bool = False
    budget: BudgetReport | None = None
    trace_id: str | None = None   # joins a hop-level QueryTrace, if traced
    adc_lookups: int = 0  # compressed traversal's LUT gathers (not NDC)
    rerank_ndc: int = 0   # exact re-rank distance computations

    def top(self, k: int) -> np.ndarray:
        return self.ids[:k]


def _tracker_for(budget: QueryBudget | None, counter) -> BudgetTracker | None:
    if budget is None or budget.unlimited:
        return None
    return BudgetTracker(budget, counter)


def _attach_budget(result: SearchResult, tracker: BudgetTracker | None) -> SearchResult:
    if tracker is not None and tracker.fired is not None:
        result.degraded = True
        result.budget = tracker.report(result.hops)
    return result


def _context_for(ctx: SearchContext | None, data: np.ndarray) -> SearchContext:
    if ctx is not None and ctx.compatible(data):
        return ctx
    return SearchContext(data)


class _Frontier:
    """Candidate/result bookkeeping of the best-first walk.

    ``candidates`` is a min-heap of vertices to expand; ``results`` a
    max-heap (negated) capped at ``ef`` — the candidate set C of
    Definition 4.7 whose size is the paper's "candidate set size (CS)"
    knob.  Both heaps and the visited set live on the context and hold
    *squared* distances; :meth:`finish` converts once.

    ``admit`` (the attribute filter's hook) maps evaluated ids to their
    result-admission mask: only admitted vertices enter ``results``,
    while every vertex closer than a full result set's worst still
    becomes a candidate, so the walk routes through the rest.
    """

    __slots__ = ("ef", "ctx", "candidates", "results", "visited", "log",
                 "tracker", "trace", "admit")

    def __init__(
        self,
        ctx: SearchContext,
        query: np.ndarray,
        ef: int,
        record_visited: bool = False,
        tracker: BudgetTracker | None = None,
        admit: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        self.ef = ef
        self.admit = admit
        self.ctx = ctx
        ctx.begin_query(query)
        self.candidates = ctx.candidates
        self.results = ctx.results
        self.visited = 0
        self.log: list[tuple[float, int]] | None = [] if record_visited else None
        self.tracker = tracker
        # hop-level trace attached by GraphANNS.search / the batch
        # engine; None (the common case) costs one check per expansion
        self.trace = ctx.trace

    def worst(self) -> float:
        return -self.results[0][0] if len(self.results) == self.ef else np.inf

    def _offer_bulk(self, ids: np.ndarray, sq: np.ndarray) -> None:
        """Feed newly evaluated vertices to both heaps.

        Pre-filtering against the current worst result is exact: the
        bound only tightens while survivors are inserted, and the
        sequential path discards those entries anyway.
        """
        self.visited += len(ids)
        if self.log is not None:
            self.log.extend(zip(sq.tolist(), ids.tolist()))
        results, candidates, ef = self.results, self.candidates, self.ef
        if len(results) == ef:
            keep = sq < -results[0][0]
            if not keep.any():
                return
            ids, sq = ids[keep], sq[keep]
        if self.admit is not None:
            self._offer_admitted(ids, sq)
            return
        for dist, idx in zip(sq.tolist(), ids.tolist()):
            if len(results) < ef:
                heapq.heappush(results, (-dist, idx))
                heapq.heappush(candidates, (dist, idx))
            elif dist < -results[0][0]:
                heapq.heapreplace(results, (-dist, idx))
                heapq.heappush(candidates, (dist, idx))

    def _offer_admitted(self, ids: np.ndarray, sq: np.ndarray) -> None:
        """:meth:`_offer_bulk` under the admission mask: candidates keep
        the plain rule, ``results`` takes admitted vertices only."""
        results, candidates, ef = self.results, self.candidates, self.ef
        admitted = self.admit(ids).tolist()
        for dist, idx, ok in zip(sq.tolist(), ids.tolist(), admitted):
            if len(results) < ef:
                heapq.heappush(candidates, (dist, idx))
                if ok:
                    heapq.heappush(results, (-dist, idx))
            elif dist < -results[0][0]:
                heapq.heappush(candidates, (dist, idx))
                if ok:
                    heapq.heapreplace(results, (-dist, idx))

    def seed(self, seeds: np.ndarray, counter: DistanceCounter) -> None:
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        seeds = self.ctx.fresh(seeds)
        if self.tracker is not None:
            seeds = self.tracker.clip(seeds)
        if len(seeds) == 0:
            return
        counter.count += len(seeds)
        if self.trace is not None:
            self.trace.seed_event(len(seeds), counter.count)
        self._offer_bulk(seeds, self.ctx.sq_dists(seeds))

    def expand(self, u: int, nbrs: np.ndarray, counter: DistanceCounter) -> None:
        """Evaluate the unvisited ones of ``u``'s (filtered) neighbors."""
        if len(nbrs):
            nbrs = self.ctx.fresh(nbrs)
            if self.tracker is not None:
                nbrs = self.tracker.clip(nbrs)
        if len(nbrs) == 0:
            if self.trace is not None:
                self.trace.hop(u, counter.count, 0)
            return
        counter.count += len(nbrs)
        if self.trace is not None:
            self.trace.hop(u, counter.count, len(nbrs))
        self._offer_bulk(nbrs, self.ctx.sq_dists(nbrs))

    def finish(self, ndc: int, hops: int) -> SearchResult:
        ordered = sorted((-negd, idx) for negd, idx in self.results)
        ids = np.asarray([idx for _, idx in ordered], dtype=np.int64)
        dists = np.sqrt(np.asarray([d for d, _ in ordered], dtype=np.float64))
        result = SearchResult(ids, dists, ndc=ndc, hops=hops, visited=self.visited)
        if self.log is not None:
            self.log.sort()
            result.visited_dists = np.sqrt(np.asarray([d for d, _ in self.log]))
            result.visited_ids = np.asarray(
                [i for _, i in self.log], dtype=np.int64
            )
        return result


def _native_best_first(
    ctx: SearchContext,
    graph: Graph,
    query: np.ndarray,
    seeds: np.ndarray,
    ef: int,
    counter: DistanceCounter,
    budget: QueryBudget | None = None,
) -> SearchResult:
    """Whole-loop C fast path: identical bookkeeping, no Python frontier."""
    started = time.perf_counter()
    ctx.begin_query(query)
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    if len(seeds) and (seeds[0] < 0 or seeds[-1] >= graph.n):
        raise IndexError(
            f"seed ids must lie in [0, {graph.n}), got {seeds[0]}..{seeds[-1]}"
        )
    max_ndc = max_hops = -1
    deadline = 0.0
    if budget is not None:
        max_ndc = -1 if budget.max_ndc is None else budget.max_ndc
        max_hops = -1 if budget.max_hops is None else budget.max_hops
        if budget.deadline_s is not None:
            # the kernel reads CLOCK_MONOTONIC, which time.monotonic is
            deadline = time.monotonic() + budget.deadline_s
    # with ctx.compressed set the kernel walks uint8 codes against the
    # per-query LUT begin_query just built; the float32 tier stays cold
    ids, sq, ndc, hops, visited, fired = _native.best_first(
        ctx, graph, ctx.query64, ctx.query_sq, seeds, ef, max_ndc, max_hops,
        deadline,
    )
    counter.count += ndc
    result = SearchResult(
        ids, np.sqrt(sq), ndc=ndc, hops=hops, visited=visited
    )
    if fired is not None:
        result.degraded = True
        result.budget = BudgetReport(
            limit=fired, ndc=ndc, hops=hops,
            elapsed_s=time.perf_counter() - started,
        )
    return result


def _toward_query(
    ctx: SearchContext, data: np.ndarray, u: int, nbrs: np.ndarray
) -> np.ndarray:
    """HCNNG's half-space test ``<q - u, x_n - u> > 0`` (costs no NDC)."""
    anchor = data[u]
    direction = ctx.query64 - anchor
    return (data[nbrs] - anchor) @ direction > 0.0


def _walk(
    frontier: _Frontier,
    graph: Graph,
    data: np.ndarray,
    counter: DistanceCounter,
    route: Route,
    select: Callable[[SearchContext, np.ndarray], np.ndarray] | None = None,
) -> int:
    """The candidate-set loop of Definition 4.7, shaped by ``route``.

    Pops the closest unexpanded candidate until it lies beyond the
    route's stop radius (and its backtracks are spent) or a budget
    fires; returns the hop count.  ``select`` (ML1's hook) narrows each
    expansion's neighbors after the guided half-space test, costing no
    NDC; it must not stamp them visited.
    """
    tracker = frontier.tracker
    hops = 0
    # (1+ε)·r on true distances == (1+ε)²·r² in the squared domain
    factor = (1.0 + route.epsilon) ** 2
    backtracks = route.backtracks
    guided = route.guided_hops
    if guided is None:
        guided = max(4, frontier.ef // 2)
    while frontier.candidates:
        if tracker is not None and tracker.stop_before_hop(hops):
            break
        dist, u = heapq.heappop(frontier.candidates)
        if dist > frontier.worst() * factor:
            if backtracks == 0:
                break
            backtracks -= 1  # backtrack: expand anyway
        hops += 1
        nbrs = graph.neighbor_array(u)
        if hops <= guided and len(nbrs) > MIN_KEEP:
            toward = _toward_query(frontier.ctx, data, u, nbrs)
            if toward.sum() >= MIN_KEEP:
                nbrs = nbrs[toward]
        if select is not None:
            nbrs = select(frontier.ctx, nbrs)
        frontier.expand(u, nbrs, counter)
    return hops


def best_first_search(
    graph: Graph,
    data: np.ndarray,
    query: np.ndarray,
    seeds: np.ndarray,
    ef: int,
    counter: DistanceCounter | None = None,
    record_visited: bool = False,
    ctx: SearchContext | None = None,
    budget: QueryBudget | None = None,
    route: Route = PLAIN,
) -> SearchResult:
    """Best First Search (Algorithm 1 / Definition 4.7) along ``route``.

    ``ef`` is the candidate-set size ``c``; ``route`` selects the C7
    variant (plain BFS, NGT's range search, FANNG's backtracking,
    HCNNG's guided search or OA's two-stage routing — see
    :class:`Route`).  With ``record_visited`` the full evaluated set is
    returned — builders use it as the candidate pool (NSG/Vamana keep
    every vertex the search touched, which is where their long-range
    edges come from).  The plain route runs in the serial C kernel when
    one is loaded, budgets included (NDC and hop caps exactly, a
    wall-clock deadline checked every few expansions); the other routes,
    traced queries and armed fault plans walk the NumPy frontier, which
    checks every limit between hops.
    """
    counter = counter if counter is not None else DistanceCounter()
    ctx = _context_for(ctx, data)
    if (
        route.plain and ctx.native and not record_visited
        and graph.finalized and graph.n > 0
        # hop-level tracing needs the Python frontier; its ids/NDC are
        # bit-identical to the kernel's, so traces never change results
        and ctx.trace is None
        # so does an armed fault plan: its distance seam is in ctx.sq_dists
        and faults.active() is None
    ):
        return _native_best_first(ctx, graph, query, seeds, ef, counter, budget)
    start_ndc = counter.count
    tracker = _tracker_for(budget, counter)
    frontier = _Frontier(ctx, query, ef, record_visited=record_visited,
                         tracker=tracker)
    frontier.seed(seeds, counter)
    hops = _walk(frontier, graph, data, counter, route)
    return _attach_budget(frontier.finish(counter.count - start_ndc, hops), tracker)
