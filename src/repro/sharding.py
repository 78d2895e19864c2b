"""Sharded scatter–gather index: horizontal scale that fails gracefully.

A dataset that outgrows one graph is partitioned with balanced k-means
into ``S`` shards, each a full :class:`~repro.algorithms.base.GraphANNS`
index over its own slice of the points.  A query is routed to the
``P`` shards whose centroids are closest (*fan-out*), searched on each,
and the per-shard top-k lists are merged in the global id space.  Like
ParlayANN, the parallelism is across queries, not inside one: a single
:meth:`ShardedIndex.search` walks its shards one after another in the
caller's thread (a pool runs only when hedged replicas race), while
:meth:`ShardedIndex.search_batch` runs one batch per shard concurrently
with the multi-threaded kernel inside each.  The merge is a stable
``(distance, id)`` sort over fixed per-shard result slots, so the
answer is bit-identical at any shard thread count, and a single-shard
index answers exactly like the unsharded path (same ids, same NDC).

The robustness core — the reason this layer exists — is that a query
must return its best-effort top-k even when a shard is corrupt, slow,
or gone:

* **per-shard budgets** — a :class:`~repro.resilience.QueryBudget` is
  sliced across the fan-out (each shard gets an even share of
  ``max_ndc``; hop caps apply per shard; a single query's deadline is
  one window its shards share, see :meth:`ShardedIndex.search`), and
  each shard's :class:`~repro.resilience.BudgetReport` survives in the
  :class:`ShardReport`;
* **fault isolation** — a shard that raises, exceeds
  ``shard_timeout_s``, or failed checksum verification at load is
  *quarantined*: the query merges the survivors, returns
  ``degraded=True``, and the :class:`ShardReport` names who answered
  and who did not.  No exception escapes the scatter–gather path;
* **hedged replicas** — :meth:`ShardedIndex.replicate` registers ``R``
  replicas per shard (clones sharing the immutable graph/vectors, each
  with private search scratch).  A hedge fires the same request on a
  second replica once the primary exceeds a latency percentile; the
  first success wins and the loser is discarded.  Replicas search from
  the *same* seeds (acquired once per query), so the result is
  bit-identical whether or not the hedge fires.

Persistence lives in :func:`repro.io.save_sharded` /
:func:`repro.io.load_sharded`: a JSON manifest of per-shard index
files with per-member sha256 checksums, committed by atomic rename so
a crashed save never clobbers a loadable index.
"""

from __future__ import annotations

import copy
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace

import numpy as np

from repro import faults
from repro import observability as obs
from repro.algorithms import create
from repro.algorithms.base import check_batch, merge_topk
from repro.components.routing import SearchResult
from repro.distance import DistanceCounter, l2_batch, pairwise_l2
from repro.resilience import (
    InvalidQueryError,
    QueryBudget,
    validate_query,
    verify_index,
)

__all__ = [
    "ShardReport",
    "ShardedSearchResult",
    "ShardedIndex",
    "kmeans_partition",
    "slice_budget",
]


# -- partitioning -------------------------------------------------------


def kmeans_partition(
    data: np.ndarray,
    num_shards: int,
    seed: int = 0,
    iterations: int = 8,
    balance_slack: float = 1.25,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic balanced k-means partition of ``data``.

    Lloyd iterations with a capacity cap of ``balance_slack * n/k``
    points per shard (the greedy confidence-ordered assignment of
    :class:`~repro.trees.kmeans_tree.BalancedKMeansTree`), so no shard
    can degenerate to a sliver that routing would never pick or a giant
    that defeats the partitioning.  Returns ``(assign, centroids)``
    with ``assign[i]`` the shard of point ``i`` and float32 centroids.
    """
    n = len(data)
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if n < 2 * num_shards:
        raise ValueError(
            f"cannot cut {n} points into {num_shards} shards of >= 2 points"
        )
    if num_shards == 1:
        centroid = np.asarray(data, dtype=np.float64).mean(axis=0)
        return (np.zeros(n, dtype=np.int64),
                centroid[None, :].astype(np.float32))
    rng = np.random.default_rng(seed)
    points = np.asarray(data, dtype=np.float64)
    centroids = points[rng.choice(n, size=num_shards, replace=False)].copy()
    cap = max(2, int(np.ceil(balance_slack * n / num_shards)))
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        dists = pairwise_l2(points, centroids)
        pref = np.argsort(dists, axis=1, kind="stable")
        counts = np.zeros(num_shards, dtype=np.int64)
        order = np.argsort(
            dists[np.arange(n), pref[:, 0]], kind="stable"
        )
        for row in order:
            for choice in pref[row]:
                if counts[choice] < cap:
                    assign[row] = choice
                    counts[choice] += 1
                    break
        for c in range(num_shards):
            members = points[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    counts = np.bincount(assign, minlength=num_shards)
    if counts.min() < 2:
        # degenerate data (duplicates): deterministic contiguous split
        assign = np.zeros(n, dtype=np.int64)
        for s, chunk in enumerate(np.array_split(np.arange(n), num_shards)):
            assign[chunk] = s
        for c in range(num_shards):
            centroids[c] = points[assign == c].mean(axis=0)
    return assign, centroids.astype(np.float32)


#: quarantine reason of a shard the query's deadline left no time for
_NO_TIME_LEFT = "deadline: no time left for this shard"


def slice_budget(budget: QueryBudget | None, fanout: int) -> QueryBudget | None:
    """The per-shard slice of a query budget: ``max_ndc`` is split
    evenly across the fan-out (so the shards' combined spend respects
    the cap); hop caps and ``deadline_s`` are passed on as-is.

    ``search_batch`` runs its shards concurrently, so there the
    deadline applies to each shard whole.  A single ``search`` without
    hedging runs its shards one after another and narrows each shard's
    deadline to what is left of the query's window (see
    :meth:`ShardedIndex.search`)."""
    if budget is None or budget.max_ndc is None or fanout <= 1:
        return budget
    return replace(budget, max_ndc=max(1, budget.max_ndc // fanout))


# -- reports ------------------------------------------------------------


@dataclass
class ShardReport:
    """Who answered a scatter–gather query, and at what cost.

    ``quarantined`` holds ``(shard, reason)`` pairs for shards that
    raised, timed out, were already quarantined at load, or were not
    searched because the query's deadline had run out; the merged
    result covers only ``survivors``.  ``budgets`` maps a shard id to
    the :class:`~repro.resilience.BudgetReport` of its budget-degraded
    sub-search.  ``routing_ndc`` is the centroid-routing cost (zero for
    a single-shard index, where there is no routing decision to make).
    """

    fanout: int
    shards_queried: tuple = ()
    survivors: tuple = ()
    quarantined: tuple = ()          # ((shard, reason), ...)
    hedges_fired: int = 0
    hedge_wins: int = 0
    routing_ndc: int = 0
    per_shard_ndc: dict = field(default_factory=dict)
    budgets: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """Whether every queried shard contributed to the merge."""
        return not self.quarantined


@dataclass
class ShardedSearchResult(SearchResult):
    """A :class:`SearchResult` plus the scatter–gather telemetry."""

    shard_report: ShardReport | None = None


class _LatencyTracker:
    """Pooled per-shard latency samples driving the hedge trigger."""

    def __init__(self, maxlen: int = 128):
        self._samples: deque = deque(maxlen=maxlen)

    def observe(self, seconds: float) -> None:
        self._samples.append(seconds)

    def hedge_delay(self, percentile: float = 95.0,
                    floor_s: float = 1e-3, default_s: float = 0.01) -> float:
        if not self._samples:
            return default_s
        return max(float(np.percentile(list(self._samples), percentile)),
                   floor_s)


# -- the index ----------------------------------------------------------


class ShardedIndex:
    """``S`` independent graph indexes behind one scatter–gather front.

    Build with :meth:`build`, or restore with
    :func:`repro.io.load_sharded`.  ``shards[s]`` is ``None`` while
    shard ``s`` is quarantined (a load-time checksum failure in repair
    mode, or :meth:`verify` with ``quarantine=True``); live queries
    skip it and report it in their :class:`ShardReport`.
    """

    def __init__(
        self,
        shards: list,
        shard_ids: list,
        centroids: np.ndarray,
        algorithm: str = "?",
        seed: int = 0,
        quarantined: dict | None = None,
    ):
        if len(shards) != len(shard_ids) or len(shards) != len(centroids):
            raise ValueError(
                f"{len(shards)} shards, {len(shard_ids)} id maps and "
                f"{len(centroids)} centroids do not line up"
            )
        self.shards = list(shards)
        self.shard_ids = [np.asarray(ids, dtype=np.int64) for ids in shard_ids]
        self.centroids = np.ascontiguousarray(centroids, dtype=np.float32)
        self.algorithm = algorithm
        self.seed = seed
        #: shard -> reason, for shards dropped at load/verify time
        self.quarantined: dict[int, str] = dict(quarantined or {})
        for s in self.quarantined:
            self.shards[s] = None
        #: per-shard replica sets; replica 0 is the shard itself
        self.replicas: list[list] = [
            [shard] if shard is not None else [] for shard in self.shards
        ]
        self._latency = _LatencyTracker()
        self._log = obs.get_logger("repro.sharding")
        # next global id for insert(); resolved lazily from the id maps
        self._next_gid: int | None = None

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        data: np.ndarray,
        num_shards: int,
        algorithm: str = "nsg",
        seed: int = 0,
        n_workers: int = 1,
        kmeans_iterations: int = 8,
    ) -> "ShardedIndex":
        """Partition ``data`` into ``num_shards`` and build one
        ``algorithm`` index per shard (every shard uses ``seed``, so a
        single-shard build is the unsharded build verbatim)."""
        data = np.ascontiguousarray(data, dtype=np.float32)
        assign, centroids = kmeans_partition(
            data, num_shards, seed=seed, iterations=kmeans_iterations
        )
        shards, shard_ids = [], []
        started = time.perf_counter()
        for s in range(num_shards):
            ids = np.flatnonzero(assign == s).astype(np.int64)
            shard = create(algorithm, seed=seed)
            shard.build(data[ids], n_workers=n_workers)
            shards.append(shard)
            shard_ids.append(ids)
        index = cls(shards, shard_ids, centroids,
                    algorithm=algorithm, seed=seed)
        if obs.enabled():
            obs.record_span(
                "build_sharded", time.perf_counter() - started,
                algorithm=algorithm, n=len(data), num_shards=num_shards,
            )
        return index

    # -- bookkeeping -----------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def num_points(self) -> int:
        return int(sum(len(ids) for ids in self.shard_ids))

    @property
    def dim(self) -> int:
        return int(self.centroids.shape[1])

    @property
    def alive_shards(self) -> list[int]:
        return [s for s, shard in enumerate(self.shards) if shard is not None]

    def index_size_bytes(self) -> int:
        return int(sum(
            shard.index_size_bytes() for shard in self.shards
            if shard is not None
        )) + self.centroids.nbytes

    def replicate(self, factor: int = 2) -> None:
        """Register ``factor`` replicas per shard for hedged fan-out.

        Replicas are shallow clones: they share the frozen graph, the
        vectors and the tombstones (all read-only during search) but
        own their search scratch, so a hedge can run the same shard
        concurrently with its primary.  With ``factor=1`` hedging is
        disabled again.
        """
        if factor < 1:
            raise ValueError(f"replica factor must be >= 1, got {factor}")
        for s, shard in enumerate(self.shards):
            if shard is None:
                continue
            reps = [shard]
            for _ in range(1, factor):
                clone = copy.copy(shard)
                clone._search_ctx = None  # private scratch per replica
                reps.append(clone)
            self.replicas[s] = reps

    def quarantine(self, shard: int, reason: str) -> None:
        """Permanently drop ``shard`` from the serving set."""
        if not 0 <= shard < len(self.shards):
            raise IndexError(f"shard {shard} out of range")
        self.shards[shard] = None
        self.replicas[shard] = []
        self.quarantined[shard] = reason
        self._log.warning("shard.quarantine", shard=shard, reason=reason[:200])
        if obs.enabled():
            obs.instruments().shard_quarantines_total.inc()

    def verify(self, repair: bool = False, quarantine: bool = True) -> dict:
        """Run :func:`~repro.resilience.verify_index` on every live
        shard.  Shards whose issues survive (after repair, if asked)
        are quarantined when ``quarantine=True`` instead of raising.
        Returns ``{shard: IntegrityReport}``."""
        reports = {}
        for s in self.alive_shards:
            report = verify_index(self.shards[s], repair=repair, strict=False)
            reports[s] = report
            if not report.ok and quarantine:
                self.quarantine(
                    s, "integrity: " + "; ".join(report.issues)[:300]
                )
        return reports

    def _require_shards(self) -> None:
        if not any(shard is not None for shard in self.shards):
            raise RuntimeError(
                "every shard is quarantined; nothing can answer queries"
            )

    # -- updates (Table 7 scenario S1) -----------------------------------

    def _refresh_replicas(self, s: int) -> None:
        """Re-clone shard ``s``'s hedged replicas after a mutation so
        they see the shard's current tiers (clones are shallow; a delta
        created after cloning would otherwise be invisible to them)."""
        reps = self.replicas[s]
        if len(reps) <= 1:
            return
        fresh = [self.shards[s]]
        for _ in range(1, len(reps)):
            clone = copy.copy(self.shards[s])
            clone._search_ctx = None
            fresh.append(clone)
        self.replicas[s] = fresh

    def _next_global_id(self) -> int:
        if self._next_gid is None:
            self._next_gid = int(max(
                (int(ids.max()) for ids in self.shard_ids if len(ids)),
                default=-1,
            )) + 1
        gid = self._next_gid
        self._next_gid += 1
        return gid

    def insert(self, vector: np.ndarray) -> int:
        """Insert one point, routed to the alive shard whose centroid is
        nearest (ties break toward the lower shard id — the same rule
        query routing uses).  Returns the point's *global* id.  The
        shard absorbs it natively (NSW/HNSW) or through its delta tier,
        so every algorithm is insertable behind the sharded front."""
        self._require_shards()
        reason = validate_query(vector, self.dim)
        if reason is not None:
            raise InvalidQueryError(
                f"sharded[{self.algorithm}]: cannot insert: {reason}"
            )
        vector = np.ascontiguousarray(vector, dtype=np.float32)
        alive = self.alive_shards
        if len(alive) == 1:
            s = alive[0]
        else:
            dists = l2_batch(vector.astype(np.float64), self.centroids[alive])
            s = alive[int(np.argmin(dists))]
        gid = self._next_global_id()
        # the shard's new local id is its current point count, which by
        # invariant equals len(shard_ids[s]) — appending gid keeps the
        # local -> global map aligned
        self.shards[s].insert(vector)
        self.shard_ids[s] = np.append(self.shard_ids[s], gid)
        self._refresh_replicas(s)
        return gid

    def delete(self, global_id: int) -> None:
        """Tombstone ``global_id`` on its owning shard (the one whose
        id map holds it)."""
        self._require_shards()
        gid = int(global_id)
        for s in self.alive_shards:
            local = np.flatnonzero(self.shard_ids[s] == gid)
            if len(local):
                self.shards[s].delete(int(local[0]))
                return
        raise IndexError(f"global id {gid} not found in any alive shard")

    def consolidate(self, wait: bool = True) -> dict:
        """Consolidate every alive shard carrying a non-empty delta;
        returns ``{shard: ConsolidationReport-or-Thread}``."""
        reports = {}
        for s in self.alive_shards:
            shard = self.shards[s]
            if getattr(shard, "delta_points", 0):
                reports[s] = shard.consolidate(wait=wait)
                if wait:
                    self._refresh_replicas(s)
        return reports

    @property
    def delta_points(self) -> int:
        """Unconsolidated inserts across all alive shards."""
        return int(sum(
            getattr(shard, "delta_points", 0)
            for shard in self.shards if shard is not None
        ))

    def _route_query(
        self, query: np.ndarray, fanout: int | None
    ) -> tuple[list[int], int]:
        """Top-``fanout`` alive shards by centroid distance (ties break
        toward the lower shard id).  Returns ``(chosen, routing_ndc)``;
        a single alive shard needs no routing decision and charges 0."""
        alive = self.alive_shards
        if len(alive) <= 1:
            return alive, 0
        fanout = len(alive) if fanout is None else max(1, min(fanout, len(alive)))
        dists = l2_batch(query.astype(np.float64), self.centroids[alive])
        order = np.argsort(dists, kind="stable")[:fanout]
        return [alive[int(i)] for i in order], len(alive)

    # -- single-query scatter–gather ------------------------------------

    def search(
        self,
        query: np.ndarray,
        k: int = 10,
        ef: int | None = None,
        fanout: int | None = None,
        budget: QueryBudget | None = None,
        shard_timeout_s: float | None = None,
        hedge: bool | None = None,
        hedge_after_s: float | None = None,
    ) -> ShardedSearchResult:
        """Best-effort top-k over the ``fanout`` closest shards.

        Every per-shard failure mode — an exception, a shard slower
        than ``shard_timeout_s``, a quarantine that predates the query
        — degrades the result instead of raising: the survivors are
        merged, ``degraded=True`` is set, and ``result.shard_report``
        names who was dropped and why.

        Without hedging the shards run one after another in the
        caller's thread, and no thread is started.  ``budget.deadline_s``
        is then one window for the whole query: each shard walks under
        what is left of it, and a shard reached with no time left is not
        searched (it is reported with reason ``"deadline: …"``).
        ``shard_timeout_s`` is a window per shard, from that shard's own
        start; the walk stops at it, and the shard is quarantined with
        reason ``"timeout after …"``.

        ``hedge`` (default: on whenever :meth:`replicate` registered
        replicas) runs the shards' primaries concurrently on a pool and
        fires a second replica of a shard that exceeds
        ``hedge_after_s`` (default: the p95 of recent shard latencies);
        both replicas search from the same seeds, so the ids are
        identical either way.  On that path ``shard_timeout_s`` counts
        from the query's start and the deadline applies to each shard
        whole, as in :meth:`search_batch`.
        """
        self._require_shards()
        reason = validate_query(query, self.dim)
        if reason is not None:
            raise InvalidQueryError(f"sharded[{self.algorithm}]: {reason}")
        query = np.asarray(query, dtype=np.float32)
        started = time.perf_counter()
        chosen, routing_ndc = self._route_query(query, fanout)
        shard_budget = slice_budget(budget, len(chosen))
        hedging = (
            any(len(self.replicas[s]) > 1 for s in chosen)
            if hedge is None else bool(hedge)
        )
        plan = faults.active()

        # Seeds are acquired once per shard, up front: hedged replicas
        # must walk from identical entry points, and the acquisition
        # NDC must be charged exactly once however many replicas run.
        seeds: dict[int, np.ndarray] = {}
        acq_ndc: dict[int, int] = {}
        quarantined: list[tuple[int, str]] = []
        runnable: list[int] = []
        for s in chosen:
            counter = DistanceCounter()
            try:
                seeds[s] = np.asarray(
                    self.shards[s].seed_provider.acquire(query, counter),
                    dtype=np.int64,
                )
            except Exception as exc:  # noqa: BLE001 - isolate the shard
                quarantined.append((s, f"{type(exc).__name__}: {exc}"))
                continue
            acq_ndc[s] = counter.count
            runnable.append(s)

        def run_replica(s: int, replica: int, window_end: float | None = None):
            """One shard search; ``None`` if ``window_end`` (a
            ``perf_counter`` instant) passed before the walk could start."""
            if plan is not None:
                plan.before_shard(s, replica)
            t0 = time.perf_counter()
            sub_budget = (
                None if shard_budget is None
                else shard_budget.after_spending(acq_ndc[s])
            )
            if window_end is not None:
                if t0 >= window_end:
                    return None
                sub_budget = replace(sub_budget or QueryBudget(),
                                     deadline_s=window_end - t0)
            result = self.replicas[s][replica].search(
                query, k=k, ef=ef, budget=sub_budget, seeds=seeds[s],
            )
            self._latency.observe(time.perf_counter() - t0)
            return result

        results: dict[int, SearchResult] = {}
        hedges_fired = 0
        hedge_wins = 0
        if hedging:
            hedges_fired, hedge_wins = self._gather_hedged(
                runnable, run_replica, results, quarantined, started,
                shard_timeout_s, hedge_after_s,
            )
        else:
            query_end = (
                None if budget is None or budget.deadline_s is None
                else started + budget.deadline_s
            )
            self._gather_serial(runnable, run_replica, results, quarantined,
                                query_end, shard_timeout_s)

        # a lone survivor's rows pass through untouched (bit-identical to
        # the unsharded search); several merge by (distance, global id)
        merged = merge_topk([
            (self.shard_ids[s][result.ids], result.dists)
            for s, result in sorted(results.items())
        ], k)
        survivors = tuple(s for s in chosen if s in results)
        # shards quarantined before this query (load-time checksum
        # failures, verify) also mean incomplete coverage: report them
        persistent = tuple(sorted(self.quarantined.items()))
        report = ShardReport(
            fanout=len(chosen),
            shards_queried=tuple(chosen),
            survivors=survivors,
            quarantined=persistent + tuple(quarantined),
            hedges_fired=hedges_fired,
            hedge_wins=hedge_wins,
            routing_ndc=routing_ndc,
            per_shard_ndc={
                s: acq_ndc[s] + results[s].ndc for s in survivors
            },
            budgets={
                s: results[s].budget for s in survivors
                if results[s].degraded and results[s].budget is not None
            },
        )
        degraded = bool(persistent) or bool(quarantined) or any(
            results[s].degraded for s in survivors
        )
        out = ShardedSearchResult(
            ids=merged[0],
            dists=merged[1],
            ndc=routing_ndc + sum(report.per_shard_ndc.values()),
            hops=int(sum(results[s].hops for s in survivors)),
            visited=int(sum(results[s].visited for s in survivors)),
            degraded=degraded,
            shard_report=report,
        )
        self._observe(report, degraded, time.perf_counter() - started, 1)
        for s, reason in quarantined:
            self._log.warning("shard.dropped", shard=s, reason=reason[:200])
        return out

    def _gather_serial(
        self, runnable, run_replica, results, quarantined, query_end,
        shard_timeout_s,
    ) -> None:
        """Run the shards one after another in the caller's thread.

        ``query_end`` (a ``perf_counter`` instant, or ``None``) closes
        the caller's deadline window for the whole query;
        ``shard_timeout_s`` opens a window per shard at its own start.
        Each walk stops at whichever window closes first.  A shard
        counts as timed out if it returns after its own window, or if
        its walk stopped on it.  Fills ``results`` and ``quarantined``.
        """
        for s in runnable:
            t0 = time.perf_counter()
            if query_end is not None and t0 >= query_end:
                quarantined.append((s, _NO_TIME_LEFT))
                continue
            shard_end = (
                None if shard_timeout_s is None else t0 + shard_timeout_s
            )
            window_end = min(
                (end for end in (query_end, shard_end) if end is not None),
                default=None,
            )
            try:
                result = run_replica(s, 0, window_end)
            except Exception as exc:  # noqa: BLE001 - isolate the shard
                quarantined.append((s, f"{type(exc).__name__}: {exc}"))
                continue
            stopped = result is None or (
                result.budget is not None and result.budget.limit == "deadline"
            )
            if shard_end is not None and (
                time.perf_counter() > shard_end
                or (stopped and shard_end == window_end)
            ):
                quarantined.append((s, f"timeout after {shard_timeout_s:.3f}s"))
            elif result is None:
                quarantined.append((s, _NO_TIME_LEFT))
            else:
                results[s] = result

    def _gather_hedged(
        self, runnable, run_replica, results, quarantined, started,
        shard_timeout_s, hedge_after_s,
    ) -> tuple[int, int]:
        """Run every shard's primary on a pool, fire a second replica
        for each primary still running after the hedge delay, and keep
        the first success per shard.  Fills ``results`` and
        ``quarantined``; returns ``(hedges_fired, hedge_wins)``."""
        hedges_fired = 0
        hedge_wins = 0
        if not runnable:
            return hedges_fired, hedge_wins
        pool = ThreadPoolExecutor(max_workers=2 * len(runnable))
        try:
            futures = {
                s: [(0, pool.submit(run_replica, s, 0))] for s in runnable
            }
            delay = (
                self._latency.hedge_delay()
                if hedge_after_s is None else float(hedge_after_s)
            )
            primaries = [fs[0][1] for fs in futures.values()]
            done, _ = wait(primaries, timeout=delay)
            for s in runnable:
                if (futures[s][0][1] not in done
                        and len(self.replicas[s]) > 1):
                    futures[s].append((1, pool.submit(run_replica, s, 1)))
                    hedges_fired += 1
            deadline = (
                None if shard_timeout_s is None
                else started + shard_timeout_s
            )
            for s in runnable:
                pending = {f: rep for rep, f in futures[s]}
                errors: list[str] = []
                winner = None
                while pending and winner is None:
                    timeout = (
                        None if deadline is None
                        else max(0.0, deadline - time.perf_counter())
                    )
                    done, _ = wait(
                        set(pending), timeout=timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    if not done:
                        errors.append(f"timeout after {shard_timeout_s:.3f}s")
                        break
                    for future in done:
                        rep = pending.pop(future)
                        try:
                            result = future.result()
                        except Exception as exc:  # noqa: BLE001
                            errors.append(f"{type(exc).__name__}: {exc}")
                            continue
                        if winner is None:
                            winner = result
                            if rep > 0:
                                hedge_wins += 1
                if winner is not None:
                    results[s] = winner
                else:
                    quarantined.append(
                        (s, "; ".join(errors) or "no replica answered")
                    )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return hedges_fired, hedge_wins

    # -- batched scatter–gather -----------------------------------------

    def search_batch(
        self,
        queries: np.ndarray,
        k: int = 10,
        ef: int | None = None,
        workers: int = 1,
        fanout: int | None = None,
        budget=None,
        shard_timeout_s: float | None = None,
    ):
        """Batched scatter–gather: group the batch by shard, run one
        :func:`repro.batch.search_batch` per shard concurrently (the
        multi-threaded kernel with ``workers`` threads inside each),
        and merge per query.  Shard failures and timeouts degrade the
        affected queries (``result.degraded[i]``) instead of raising;
        ``result.shard_report`` summarizes the scatter.
        ``shard_timeout_s`` is one window for every shard, counted from
        the start of the call.  A single-shard index is bit-identical to
        the unsharded ``search_batch``.

        ``budget`` may be one :class:`QueryBudget` for the whole batch
        or a sequence of ``QueryBudget | None``, one per query (the
        serving coalescer's shape — requests arrive with heterogeneous
        deadlines).  Each query's budget is sliced across its fan-out
        exactly as the scalar form is.
        """
        from repro.batch import BatchQueryResult, search_batch

        self._require_shards()
        queries, budget, errors, finite_rows = check_batch(
            queries, self.dim, budget
        )
        started = time.perf_counter()
        num_queries = len(queries)
        ids = np.full((num_queries, k), -1, dtype=np.int64)
        dists = np.full((num_queries, k), np.inf)
        ndc = np.zeros(num_queries, dtype=np.int64)
        hops = np.zeros(num_queries, dtype=np.int64)
        visited = np.zeros(num_queries, dtype=np.int64)
        degraded = np.zeros(num_queries, dtype=bool)
        alive = self.alive_shards
        report = ShardReport(fanout=0, shards_queried=(), survivors=())
        if num_queries == 0:
            return BatchQueryResult(
                ids, dists, ndc, hops, visited, 0.0, workers,
                errors=errors, degraded=degraded, shard_report=report,
            )

        # route every finite query to its top-P alive shards
        if len(alive) == 1:
            fan = 1
            routing_ndc = 0
            routes = {alive[0]: finite_rows}
        else:
            fan = len(alive) if fanout is None else max(1, min(fanout, len(alive)))
            routing_ndc = len(alive)
            cdists = pairwise_l2(
                queries[finite_rows].astype(np.float64),
                self.centroids[alive].astype(np.float64),
            )
            pick = np.argsort(cdists, axis=1, kind="stable")[:, :fan]
            routes = {}
            for s_pos in range(len(alive)):
                mask = (pick == s_pos).any(axis=1)
                rows = finite_rows[mask]
                if len(rows):
                    routes[alive[s_pos]] = rows
        ndc[finite_rows] = routing_ndc

        slice_fan = fan if len(alive) > 1 else 1
        if isinstance(budget, list):
            shard_budget = None
            per_query_budget = [slice_budget(b, slice_fan) for b in budget]
        else:
            shard_budget = slice_budget(budget, slice_fan)
            per_query_budget = None
        plan = faults.active()
        quarantined: list[tuple[int, str]] = []
        shard_results: dict[int, tuple[np.ndarray, object]] = {}

        def run_shard(s: int, rows: np.ndarray):
            if plan is not None:
                plan.before_shard(s, 0)
            if per_query_budget is None:
                row_budget = shard_budget
            else:
                row_budget = [per_query_budget[int(i)] for i in rows]
            return search_batch(
                self.shards[s], queries[rows], k=k, ef=ef,
                workers=workers, budget=row_budget,
            )

        involved = sorted(routes)
        if involved:
            # one window for every shard: waiting shard by shard with a
            # fresh timeout each would stretch a later shard's window by
            # the earlier waits
            deadline = (
                None if shard_timeout_s is None else started + shard_timeout_s
            )
            pool = ThreadPoolExecutor(max_workers=len(involved))
            try:
                futures = {
                    s: pool.submit(run_shard, s, routes[s]) for s in involved
                }
                for s in involved:
                    timeout = (
                        None if deadline is None
                        else max(0.0, deadline - time.perf_counter())
                    )
                    try:
                        shard_results[s] = (
                            routes[s], futures[s].result(timeout=timeout)
                        )
                    except TimeoutError:
                        quarantined.append(
                            (s, f"timeout after {shard_timeout_s:.3f}s")
                        )
                    except Exception as exc:  # noqa: BLE001 - isolate
                        quarantined.append(
                            (s, f"{type(exc).__name__}: {exc}")
                        )
            finally:
                pool.shutdown(wait=False, cancel_futures=True)

        # queries whose shards all vanished stay -1/inf and degraded
        for s, _reason in quarantined:
            degraded[routes[s]] = True

        # gather: fixed per-shard slots, merged per query by (dist, id)
        per_query: dict[int, list] = {}
        for s in sorted(shard_results):
            rows, res = shard_results[s]
            gmap = self.shard_ids[s]
            for pos, i in enumerate(rows):
                if res.errors[pos] is not None:
                    degraded[i] = True
                    continue
                row_ids = res.ids[pos]
                keep = row_ids >= 0
                per_query.setdefault(int(i), []).append(
                    (gmap[row_ids[keep]], res.dists[pos][keep])
                )
                ndc[i] += int(res.ndc[pos])
                hops[i] += int(res.hops[pos])
                visited[i] += int(res.visited[pos])
                if res.degraded[pos]:
                    degraded[i] = True

        for i, parts in per_query.items():
            gids, gdists = merge_topk(parts, k)
            ids[i, : len(gids)] = gids
            dists[i, : len(gids)] = gdists

        for i in finite_rows:
            if int(i) not in per_query and errors[i] is None and degraded[i]:
                errors[i] = "no shard answered this query"

        persistent = tuple(sorted(self.quarantined.items()))
        if persistent:
            # incomplete coverage for the whole batch: some of the
            # dataset is behind shards that cannot answer
            degraded[finite_rows] = True
        survivors = tuple(s for s in involved if s in shard_results)
        report = ShardReport(
            fanout=fan,
            shards_queried=tuple(involved),
            survivors=survivors,
            quarantined=persistent + tuple(quarantined),
            routing_ndc=routing_ndc,
            per_shard_ndc={
                s: int(shard_results[s][1].ndc.sum()) for s in survivors
            },
        )
        elapsed = time.perf_counter() - started
        paths = {shard_results[s][1].kernel_path for s in survivors}
        kernel_path = (
            paths.pop() if len(paths) == 1
            else ("mixed" if paths else None)
        )
        result = BatchQueryResult(
            ids=ids, dists=dists, ndc=ndc, hops=hops, visited=visited,
            elapsed_s=elapsed, workers=workers, errors=errors,
            degraded=degraded, shard_report=report,
            kernel_path=kernel_path,
        )
        self._observe(report, bool(degraded.any()), elapsed, num_queries)
        for s, reason in quarantined:
            self._log.warning("shard.dropped", shard=s, reason=reason[:200])
        return result

    # -- observability ---------------------------------------------------

    def _observe(self, report: ShardReport, degraded: bool,
                 elapsed_s: float, num_queries: int) -> None:
        if not obs.enabled():
            return
        handles = obs.instruments()
        handles.sharded_queries_total.inc(num_queries)
        handles.shard_fanout.set(report.fanout)
        if report.quarantined:
            handles.shard_quarantines_total.inc(len(report.quarantined))
        if report.hedges_fired:
            handles.shard_hedge_fires_total.inc(report.hedges_fired)
        if report.hedge_wins:
            handles.shard_hedge_wins_total.inc(report.hedge_wins)
        if degraded:
            handles.sharded_degraded_total.inc()
        for s, shard_ndc in report.per_shard_ndc.items():
            handles.shard_ndc(s).observe(shard_ndc)
