"""Batched query engine: :func:`search_batch`.

The survey evaluates single-threaded, one-query-at-a-time search; a
production service batches.  For indexes that route with plain
best-first search, :func:`search_batch` hands the *entire* batch to
the multi-threaded native kernel in **one ctypes call**: the GIL is
released once, a pthread pool inside the C library fans the queries
out (per-thread scratch, fixed per-query output slots), and results
are bit-identical to the serial kernel for any thread count.  Seed
acquisition runs up front through
:meth:`~repro.components.seeding.SeedProvider.acquire_batch` — in query
order, so stateful providers (e.g. the random seeders) yield exactly
the seeds a sequential loop would have drawn, with providers that score
a candidate pool (PQ/ADC, fixed entries) vectorizing the whole batch in
one GEMM — making the per-query telemetry (NDC including seed
acquisition, hops, visited) identical to ``index.search`` query by
query.

Everything else takes the per-query path: indexes whose
:class:`~repro.components.routing.Route` is not plain, traced runs,
armed fault plans, kernel-less environments, and batches whose fused
call raised.  A pool of ``workers`` threads runs
``index._answer`` (the answer step ``index.search`` runs) query by
query, one :class:`~repro.components.context.SearchContext` per chunk,
which reaches the serial C kernel whenever it can — so this path is
bit-identical too, only slower.  Either way, every row then merges a
non-empty delta tier through ``index._merge_delta``, as search does.

Budgets: both the fused kernel and the serial kernel of the per-query
path enforce NDC caps, hop caps and wall-clock deadlines in C
(deadlines checked every few expansions); the NumPy frontier checks
the clock between hops.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro import _native, faults
from repro import observability as obs
from repro.algorithms.base import GraphANNS, check_batch, finish_ids
from repro.components.context import SearchContext
from repro.components.routing import SearchResult
from repro.compressed import rerank_exact
from repro.distance import DistanceCounter, squared_norms
from repro.resilience import QueryBudget

__all__ = ["BatchQueryResult", "search_batch"]


@dataclass
class BatchQueryResult:
    """Batch output with lossless per-query telemetry (§5.1).

    Nothing is aggregated away: the NDC (seed acquisition included,
    matching ``index.search``), hop and visited counts survive per
    query, so recall-vs-NDC curves computed from a batched run are
    identical to ones from a sequential loop.

    Resilience telemetry: ``errors[i]`` is ``None`` for a healthy query
    or a reason string when query ``i`` was rejected up front (NaN/Inf)
    or failed even after the sequential retry — its result row stays
    ``-1``/``inf`` padded.  ``degraded[i]`` marks queries cut short by
    a :class:`QueryBudget` (their rows hold the best-k found so far).

    Observability: with hop-level tracing on, ``trace_ids[i]`` is the
    stable id (``"<batch_id>/<i>"``) under which query ``i``'s trace was
    recorded — joining a degraded row to its hop events — and
    ``batch_id`` names the batch; both stay ``None`` when tracing is
    off.  ``worker_utilization`` is the mean busy fraction of the
    worker pool (0.0 when metrics are off).
    """

    ids: np.ndarray          # (Q, k) int64, -1-padded
    dists: np.ndarray        # (Q, k) float64, inf-padded
    ndc: np.ndarray          # (Q,) int64, includes seed acquisition
    hops: np.ndarray         # (Q,) int64
    visited: np.ndarray      # (Q,) int64
    elapsed_s: float
    workers: int
    errors: list = field(default_factory=list)       # (Q,) str | None
    degraded: np.ndarray = None                      # (Q,) bool
    trace_ids: list | None = None                    # (Q,) str, tracing only
    batch_id: str | None = None
    worker_utilization: float = 0.0
    # which engine answered the batch: "fused_mt" / "fused_mt_adc" (one
    # GIL-released MT kernel call) or "python" (per-query
    # orchestration).  Serving telemetry uses this to prove
    # SLO-budgeted batches stayed on the fast path; None for empty
    # batches.
    kernel_path: str | None = None
    # compressed mode only (None otherwise): per-query ADC table lookups
    # (zero true NDC) and exact re-rank cost (included in ndc)
    adc_lookups: np.ndarray | None = None            # (Q,) int64
    rerank_ndc: np.ndarray | None = None             # (Q,) int64
    # sharded scatter-gather only (None otherwise): the batch-level
    # repro.sharding.ShardReport naming survivors and quarantined shards
    shard_report: object | None = None

    @property
    def qps(self) -> float:
        """Whole-batch throughput."""
        return len(self.ids) / max(self.elapsed_s, 1e-9)

    @property
    def total_ndc(self) -> int:
        return int(self.ndc.sum())

    @property
    def mean_hops(self) -> float:
        return float(self.hops.mean()) if len(self.hops) else 0.0

    @property
    def num_errors(self) -> int:
        return sum(1 for e in self.errors if e is not None)

    @property
    def num_degraded(self) -> int:
        return 0 if self.degraded is None else int(self.degraded.sum())


def _pack_seeds(seed_lists: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR-pack per-query seed lists (uniqued, range-checked) for the
    MT kernel: ``(seed_indptr, seeds)``."""
    uniq = [np.unique(s) for s in seed_lists]
    for s in uniq:
        if len(s) and (s[0] < 0 or s[-1] >= n):
            raise IndexError(f"seed ids must lie in [0, {n}), got {s[0]}..{s[-1]}")
    seed_indptr = np.zeros(len(uniq) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in uniq], out=seed_indptr[1:])
    seeds = (
        np.concatenate(uniq) if uniq else np.empty(0, dtype=np.int64)
    ).astype(np.int64, copy=False)
    return seed_indptr, seeds


def search_batch(
    index: GraphANNS,
    queries: np.ndarray,
    k: int = 10,
    ef: int | None = None,
    workers: int = 1,
    budget: "QueryBudget | Sequence[QueryBudget | None] | None" = None,
    compressed: bool = False,
    rerank_factor: int | None = None,
) -> BatchQueryResult:
    """Answer a query batch with ``workers`` parallel search lanes.

    Semantics match a ``[index.search(q, k, ef) for q in queries]``
    loop exactly — same ids, distances, per-query NDC (seed acquisition
    included), hops and visited counts, same tombstone filtering.  For
    plain-route indexes the whole batch runs below the interpreter:
    one ctypes call into the multi-threaded C kernel (``workers``
    pthreads, the GIL released once), bit-identical for any thread
    count.  Non-plain routes, traced runs, armed fault plans and
    kernel-less environments use the per-query worker pool instead,
    each chunk reusing one :class:`SearchContext` and running
    ``index.search``'s answer step
    (``index._answer``); the delta merge is search's own as well.

    Resilience semantics:

    * Queries containing NaN/Inf are rejected *individually* — their
      rows stay ``-1``/``inf`` padded and ``result.errors[i]`` records
      the reason; the rest of the batch is unaffected.  A batch whose
      dtype or dimensionality is wrong as a whole still raises, since
      no per-query result is meaningful.
    * ``budget`` applies per query (the ``max_ndc``/``max_hops`` caps
      are *per query*, with each query's own seed-acquisition NDC
      charged against it).  Budget-capped queries return their best-k
      so far with ``result.degraded[i]`` set.  A sequence of budgets
      (one entry per query, ``None`` for unlimited) carries
      heterogeneous per-request limits — the serving front door maps
      each request's SLO deadline here.  Deadline budgets stay on the
      fused MT kernel: the C worker pool checks CLOCK_MONOTONIC
      coarsely (every few expansions) against each query's allowance,
      measured from kernel entry.  On the per-query path the serial
      kernel (or the NumPy frontier) measures from that query's own
      route start; a deadline that never fires changes no bits either
      way.
    * A worker that raises mid-chunk does not sink the batch: the chunk
      is retried once, sequentially and in pure NumPy.  Queries that
      still fail get ``result.errors[i]`` set instead of propagating.
      A fused call that raises (scratch allocation, bad seeds) is
      answered by the per-query path in the same way.

    ``compressed=True`` traverses on the index's ADC tier: the per-query
    float32 LUTs for the whole batch are built up front (one GEMM per
    subspace) and handed to the multi-threaded kernel — or gathered by
    the per-query path *from the same tables*, which is what keeps the
    two paths bit-identical at any thread count.  Each query's
    ADC-ordered pool (capped at ``rerank_factor * k``) is then re-ranked
    exactly; ``result.ndc`` counts seeds + re-rank only, with traversal
    lookups reported in ``result.adc_lookups``.
    """
    if index.graph is None or index.data is None:
        raise RuntimeError("build the index before batch searching")
    queries, budget, errors, finite_rows = check_batch(
        queries, index.data.shape[1], budget
    )
    num_queries = len(queries)
    budgets = budget if isinstance(budget, list) else [budget] * num_queries

    ef, tier, max_pool = index._pool_size(k, ef, compressed, rerank_factor)
    metrics = obs.enabled()
    tracing = obs.tracing()
    handles = obs.instruments() if metrics else None
    batch_id = obs.new_batch_id() if metrics else None
    # stable per-query trace ids: "<batch_id>/<row>" joins a degraded
    # row (or its BudgetReport) to the hop-level trace recorded for it
    trace_ids = (
        [f"{batch_id}/{i}" for i in range(num_queries)] if tracing else None
    )
    started = time.perf_counter()

    ids = np.full((num_queries, k), -1, dtype=np.int64)
    dists = np.full((num_queries, k), np.inf)
    ndc = np.zeros(num_queries, dtype=np.int64)
    hops = np.zeros(num_queries, dtype=np.int64)
    visited = np.zeros(num_queries, dtype=np.int64)
    degraded = np.zeros(num_queries, dtype=bool)
    adc_lookups = np.zeros(num_queries, dtype=np.int64) if compressed else None
    rerank_ndc = np.zeros(num_queries, dtype=np.int64) if compressed else None
    if num_queries == 0:
        return BatchQueryResult(ids, dists, ndc, hops, visited, 0.0, workers,
                                errors=errors, degraded=degraded,
                                trace_ids=trace_ids, batch_id=batch_id,
                                adc_lookups=adc_lookups, rerank_ndc=rerank_ndc)

    # Seed acquisition runs batched but *in query order*: the default
    # acquire_batch loops per query exactly like the sequential search
    # (stateful providers draw identical seeds), while pool-scoring
    # providers (PQ/ADC, fixed entries, vectorized RNG) answer the
    # whole batch in one GEMM/draw without changing a single id.
    seed_lists: list = [None] * num_queries
    if len(finite_rows):
        acquired, acq_counts = index.seed_provider.acquire_batch(
            queries[finite_rows]
        )
        for pos, i in enumerate(finite_rows):
            seed_lists[i] = np.asarray(acquired[pos], dtype=np.int64)
        ndc[finite_rows] = acq_counts
    # frozen copy of the acquisition cost so a retry can restore
    # per-query state idempotently
    acq_ndc = ndc.copy()
    if handles is not None:
        handles.batch_stage_seed_seconds.observe(time.perf_counter() - started)

    # Compressed mode: every query's (M, K) float32 table is built here,
    # once, by one GEMM per subspace over the whole batch.  The MT
    # kernel reads slices of this very block and the per-query path
    # gathers from the same slices via ctx.lut_override — a shared
    # source of truth, so thread count can never change a bit.
    luts = None
    lut_pos = None
    if compressed and len(finite_rows):
        luts = tier.lut_batch(queries[finite_rows])
        lut_pos = np.zeros(num_queries, dtype=np.int64)
        lut_pos[finite_rows] = np.arange(len(finite_rows), dtype=np.int64)

    deleted = index._live_tombstones()
    id_map = index._id_map  # reordered indexes return original-space ids
    # The fused kernel honors *every* budget kind — per-query NDC/hop
    # caps and coarse wall-clock deadlines are enforced inside the C
    # worker pool.  It steps around hop tracing (hop events are only
    # observable on the Python path, which is bit-identical) and armed
    # fault plans (their injection points are per-chunk/per-query hooks
    # in the per-query orchestration below).
    fused = (
        index.route.plain
        and _native.LIB is not None
        and index.graph.finalized
        and index.graph.n > 0
        and not tracing
        and len(finite_rows) > 0
        and faults.active() is None
    )

    def budget_cap_arrays(rows):
        """Per-query (max_ndcs, max_hops, deadlines) arrays for the MT
        kernel — -1/0 entries mean unlimited.  Seed-acquisition NDC is
        already charged; deadlines are relative to kernel entry (seed
        acquisition happened before it, so a request's wall budget
        covers the whole in-index span)."""
        if budget is None:
            return None, None, None
        max_ndcs = np.full(len(rows), -1, dtype=np.int64)
        max_hops = np.full(len(rows), -1, dtype=np.int64)
        deadlines = np.zeros(len(rows), dtype=np.float64)
        for pos, i in enumerate(rows):
            b = budgets[i]
            if b is None:
                continue
            if b.max_ndc is not None:
                max_ndcs[pos] = max(b.max_ndc - int(acq_ndc[i]), 0)
            if b.max_hops is not None:
                max_hops[pos] = int(b.max_hops)
            if b.deadline_s is not None:
                deadlines[pos] = float(b.deadline_s)
        return max_ndcs, max_hops, deadlines

    def fill_query(i: int, res_ids: np.ndarray, res_dists: np.ndarray) -> None:
        res_ids, res_dists = finish_ids(res_ids, res_dists, deleted, k, id_map)
        ids[i, : len(res_ids)] = res_ids
        dists[i, : len(res_ids)] = res_dists

    def store(i: int, result: SearchResult) -> None:
        """Copy a finished answer and its telemetry into row ``i`` (no
        row shrinks: a delta merge only adds candidates)."""
        ids[i, : len(result.ids)] = result.ids
        dists[i, : len(result.ids)] = result.dists
        ndc[i] = result.ndc
        hops[i] = result.hops
        visited[i] = result.visited
        degraded[i] = result.degraded

    def reset(rows) -> None:
        """Undo whatever a failed attempt wrote for ``rows``."""
        ids[rows] = -1
        dists[rows] = np.inf
        ndc[rows] = acq_ndc[rows]
        hops[rows] = 0
        visited[rows] = 0
        degraded[rows] = False
        if compressed:
            adc_lookups[rows] = 0
            rerank_ndc[rows] = 0
        if trace_ids is not None:   # a retry must not duplicate trace ids
            obs.RECORDER.discard({trace_ids[i] for i in rows})

    def run_fused() -> np.ndarray:
        """One GIL-released C call walks every finite query on a pthread
        pool (compressed: over the uint8 codes against its slice of the
        shared LUT block, then each ADC-ordered pool is re-ranked
        exactly in query order); returns per-thread busy seconds."""
        rows = finite_rows
        seed_indptr, seeds = _pack_seeds(
            [seed_lists[i] for i in rows], index.graph.n
        )
        max_ndcs, max_hops, deadlines = budget_cap_arrays(rows)
        # results are bit-identical for any thread count, so threads
        # beyond the physical cores buy nothing but context switches
        # and per-thread scratch pressure — clamp to the machine
        kernel_threads = max(1, min(workers, os.cpu_count() or workers))
        caps = dict(max_ndcs=max_ndcs, max_hops=max_hops, deadlines=deadlines)
        queries64 = np.ascontiguousarray(queries[rows], dtype=np.float64)
        if compressed:
            out_ids, out_sq, out_len, stats, thread_busy = (
                _native.best_first_batch_adc_mt(
                    tier.codes, luts, index.graph, len(rows), seed_indptr,
                    seeds, ef, kernel_threads, **caps,
                )
            )
        else:
            # per-row np.dot to match SearchContext.begin_query bit for bit
            qsqs = np.asarray([np.dot(row, row) for row in queries64])
            out_ids, out_sq, out_len, stats, thread_busy = (
                _native.best_first_batch_mt(
                    index.data, squared_norms(index.data), index.graph,
                    queries64, qsqs, seed_indptr, seeds, ef, kernel_threads,
                    **caps,
                )
            )
        hops[rows] = stats[:, 1]
        visited[rows] = stats[:, 2]
        degraded[rows] = stats[:, 3] > 0
        if compressed:
            adc_lookups[rows] = stats[:, 0]
            for pos, i in enumerate(rows):
                pool = out_ids[pos, : out_len[pos]].astype(np.int64)
                # same order as finish_compressed: tombstone-filter
                # first, then cap — pool ids arrive in ascending ADC order
                if deleted is not None and len(pool):
                    pool = pool[~deleted[pool]]
                pool = pool[:max_pool]
                res_ids, res_dists = rerank_exact(index.data, queries64[pos], pool)
                ndc[i] = acq_ndc[i] + len(pool)
                rerank_ndc[i] = len(pool)
                fill_query(i, res_ids, res_dists)
            return thread_busy
        ndc[rows] = acq_ndc[rows] + stats[:, 0]
        if deleted is None and int(out_len.min()) >= k:
            top = out_ids[:, :k]
            ids[rows] = top if id_map is None else id_map[top]
            dists[rows] = np.sqrt(out_sq[:, :k])
        else:
            for pos, i in enumerate(rows):
                fill_query(i, out_ids[pos, : out_len[pos]].astype(np.int64),
                           np.sqrt(out_sq[pos, : out_len[pos]]))
        return thread_busy

    def run_query(i: int, ctx: SearchContext) -> None:
        plan = faults.active()
        if plan is not None:
            plan.before_query(i)
        counter = DistanceCounter()
        trace = None
        if trace_ids is not None:
            trace = obs.start_query_trace(index.name, k, ef,
                                          trace_id=trace_ids[i])
            # running NDC in hop events includes the up-front seed
            # acquisition, matching the ndc[i] telemetry exactly
            trace.attach(counter.count, already_spent=int(acq_ndc[i]))
            trace.record_seeds(seed_lists[i], counter.count)
            ctx.trace = trace
        t0 = time.perf_counter() if trace is not None else 0.0
        if compressed:
            ctx.lut_override = luts[lut_pos[i]]
        try:
            result = index._answer(
                queries[i], seed_lists[i], k, ef, counter, ctx, budgets[i],
                int(acq_ndc[i]), tier, max_pool,
            )
        finally:
            ctx.trace = None
            ctx.lut_override = None
        store(i, result)
        if compressed:
            adc_lookups[i] = result.adc_lookups
            rerank_ndc[i] = result.rerank_ndc
        if trace is not None:
            obs.finish_query_trace(trace, result, time.perf_counter() - t0)

    def run_chunk(worker_index: int, chunk: np.ndarray) -> None:
        """Answer ``chunk`` query by query.  Fault isolation: a chunk
        whose worker raises is reset and retried once, query by query,
        in pure NumPy; queries that still fail report an error string
        instead of sinking the batch."""
        if len(chunk) == 0:
            return
        try:
            plan = faults.active()
            if plan is not None:
                plan.before_chunk(worker_index)
            ctx = SearchContext(index.data)
            for i in chunk:
                run_query(i, ctx)
            return
        except Exception:
            reset(chunk)
            if handles is not None:
                handles.chunk_retries_total.inc()
        ctx = SearchContext(index.data)
        ctx.native = False   # retry on the always-available NumPy path
        for i in chunk:
            try:
                run_query(i, ctx)
            except Exception as exc:  # persistent per-query failure
                errors[i] = f"{type(exc).__name__}: {exc}"
                reset([i])

    workers = max(1, min(int(workers), num_queries))
    busy = [0.0] * workers

    def run_timed(worker_index: int, chunk: np.ndarray) -> None:
        t0 = time.perf_counter()
        try:
            run_chunk(worker_index, chunk)
        finally:
            busy[worker_index] = time.perf_counter() - t0

    compute_started = time.perf_counter()
    kernel_path = "python"
    if fused:
        try:
            thread_busy = run_fused()
            busy = [float(b) for b in thread_busy] + [0.0] * max(
                0, workers - len(thread_busy)
            )
            kernel_path = "fused_mt_adc" if compressed else "fused_mt"
        except Exception:
            # kernel-side failure (scratch allocation, bad seeds): reset
            # any partial per-query state and answer per query below,
            # exactly as a failed chunk would be
            reset(finite_rows)
            if handles is not None:
                handles.chunk_retries_total.inc()
    if kernel_path == "python":
        chunks = np.array_split(finite_rows, workers)
        if workers == 1:
            run_timed(0, chunks[0])
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(run_timed, w, c)
                    for w, c in enumerate(chunks)
                ]
                for future in futures:
                    future.result()

    # Two-tier merge: every healthy row, whichever path answered it,
    # folds in the delta's top-k through the sequential search's own
    # merge step.  With an empty delta nothing runs, so the batch stays
    # bit-identical (ids and NDC) to the single-tier code.
    delta = index._delta
    if delta is not None and delta.n:
        for i in finite_rows:
            if errors[i] is not None:
                continue
            keep = ids[i] >= 0
            result = SearchResult(
                ids[i][keep], dists[i][keep], ndc=int(ndc[i]),
                hops=int(hops[i]), visited=int(visited[i]),
                degraded=bool(degraded[i]),
            )
            index._merge_delta(result, queries[i], k, ef, DistanceCounter(),
                               budgets[i])
            store(i, result)
    elapsed_s = time.perf_counter() - started
    utilization = 0.0
    if handles is not None:
        compute_wall = max(time.perf_counter() - compute_started, 1e-9)
        utilization = min(sum(busy) / (workers * compute_wall), 1.0)
        handles.batch_stage_compute_seconds.observe(compute_wall)
        for worker_busy in busy:
            handles.batch_chunk_seconds.observe(worker_busy)
        handles.batch_worker_utilization.set(utilization)
        handles.batch_seconds.observe(elapsed_s)
        handles.batch_queries_total.inc(num_queries)
        handles.batch_kernel_path(kernel_path).inc()
        num_degraded = int(degraded.sum())
        if num_degraded:
            handles.batch_degraded_total.inc(num_degraded)
        num_errors = sum(1 for e in errors if e is not None)
        if num_errors:
            handles.batch_errors_total.inc(num_errors)
    return BatchQueryResult(
        ids=ids,
        dists=dists,
        ndc=ndc,
        hops=hops,
        visited=visited,
        elapsed_s=elapsed_s,
        workers=workers,
        errors=errors,
        degraded=degraded,
        trace_ids=trace_ids,
        batch_id=batch_id,
        worker_utilization=utilization,
        adc_lookups=adc_lookups,
        rerank_ndc=rerank_ndc,
        kernel_path=kernel_path,
    )
