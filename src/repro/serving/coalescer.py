"""Continuous batching: many concurrent requests, one kernel call.

The single-query path answers ~thousands of QPS; the fused
``best_first_batch_mt`` kernel answers tens of thousands — but only if
someone hands it batches.  The :class:`Coalescer` is that someone: it
queues concurrent single-query requests and, whenever one of its
``inflight_batches`` kernel slots is free, runs up to ``max_batch`` of
them through ``index.search_batch`` in one call (the running batch is
the window), then demultiplexes per-request results.  Each response is
bit-identical (ids and NDC) to a direct ``index.search()`` of that
query — batching is a throughput transform, never a semantic one.

Batches form per ``(k, ef, compressed, rerank_factor)`` key, because
``search_batch`` takes those as scalars and bit-identity demands exact
parameters.  Deadlines are charged end-to-end: the remaining SLO is
computed *as the batch starts* (queue wait already spent) and handed to
the kernel as a per-query :class:`QueryBudget`, so an SLO-budgeted batch
stays on the fused MT path and a request that runs out of time gets
its best-k back flagged ``degraded`` rather than an error.

Admission control is a simple bounded queue: more than ``queue_depth``
requests waiting or in flight → :class:`Overloaded` (HTTP 429); a
draining server → :class:`Draining` (503); a request whose deadline
expired before its batch started → :class:`DeadlineExceeded` (504)
without wasting kernel time on it.

The coalescer is duck-typed over anything exposing ``search_batch``
with the :func:`repro.batch.search_batch` signature — a bare
:class:`~repro.algorithms.base.GraphANNS`, a
:class:`~repro.sharding.ShardedIndex` (hedging and quarantine
compose), or a delta-tier mutable index all work unchanged.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

import repro.observability as obs

from repro.serving.protocol import SearchRequest

__all__ = [
    "Coalescer",
    "CoalescerStats",
    "Overloaded",
    "Draining",
    "DeadlineExceeded",
    "RequestFailed",
]


class Overloaded(Exception):
    """Bounded queue full — shed load (HTTP 429)."""


class Draining(Exception):
    """Server shutting down — no new admissions (HTTP 503)."""


class DeadlineExceeded(Exception):
    """The request's SLO expired while it waited in queue (HTTP 504)."""


class RequestFailed(Exception):
    """The index rejected this one query (its batchmates are fine)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class _Pending:
    request: SearchRequest
    future: asyncio.Future
    enqueued: float                      # time.perf_counter()
    deadline_at: float | None            # absolute perf_counter deadline


@dataclass
class CoalescerStats:
    """Cumulative counters (also exported as metrics when enabled)."""

    admitted: int = 0
    answered: int = 0
    degraded: int = 0
    batches: int = 0
    rejected: dict = field(default_factory=lambda: {
        "overloaded": 0, "draining": 0, "expired": 0,
    })
    batched: int = 0                     # queries over all batches
    kernel_paths: dict = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        return self.batched / self.batches if self.batches else 0.0

    def snapshot(self) -> dict:
        return {
            "admitted": self.admitted,
            "answered": self.answered,
            "degraded": self.degraded,
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "rejected": dict(self.rejected),
            "kernel_paths": dict(self.kernel_paths),
        }


class Coalescer:
    """Queues requests and starts a fused-kernel batch per free slot.

    Must be used from a single asyncio event loop (the server's); the
    ``search_batch`` calls themselves run in ``inflight_batches`` pool
    threads so the loop keeps accepting requests while a batch computes
    — arrivals during compute coalesce into the *next* batch, which is
    exactly the adaptive batching a loaded server wants.
    """

    def __init__(
        self,
        index,
        *,
        max_batch: int = 64,
        queue_depth: int = 256,
        workers: int = 1,
        inflight_batches: int = 1,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.index = index
        self.max_batch = int(max_batch)
        self.queue_depth = int(queue_depth)
        self.workers = int(workers)
        self.inflight_batches = max(1, int(inflight_batches))
        self.stats = CoalescerStats()
        self._buckets: dict[tuple, list[_Pending]] = {}  # oldest first
        self._running = 0               # batches in the pool
        self._pump_scheduled = False
        self._outstanding = 0           # queued + in a running batch
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._lock = threading.Lock()   # stats touched from executor
        self._pool = ThreadPoolExecutor(
            max_workers=self.inflight_batches,
            thread_name_prefix="repro-serve",
        )

    # -- admission -------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return self._outstanding

    @property
    def draining(self) -> bool:
        return self._draining

    async def submit(self, request: SearchRequest) -> dict:
        """Admit one request, wait for its batch, return its slice.

        Raises :class:`Draining`/:class:`Overloaded`/
        :class:`DeadlineExceeded` for admission failures and
        :class:`RequestFailed` when the index rejected this query.
        """
        if self._draining:
            self.stats.rejected["draining"] += 1
            self._observe_rejection("draining")
            raise Draining("server is draining")
        if self._outstanding >= self.queue_depth:
            self.stats.rejected["overloaded"] += 1
            self._observe_rejection("overloaded")
            raise Overloaded(
                f"queue depth {self.queue_depth} exceeded"
            )
        loop = asyncio.get_running_loop()
        now = time.perf_counter()
        pending = _Pending(
            request=request,
            future=loop.create_future(),
            enqueued=now,
            deadline_at=(
                now + request.deadline_ms / 1000.0
                if request.deadline_ms is not None else None
            ),
        )
        self._outstanding += 1
        self._idle.clear()
        self.stats.admitted += 1
        if obs.enabled():
            handles = obs.instruments()
            handles.serving_requests_total.inc()
            handles.serving_queue_depth.set(self._outstanding)
        self._buckets.setdefault(request.batch_key, []).append(pending)
        if self._running < self.inflight_batches and not self._pump_scheduled:
            # one pump per loop tick: that tick's requests share a batch
            self._pump_scheduled = True
            loop.call_soon(self._pump)
        try:
            return await pending.future
        finally:
            self._outstanding -= 1
            if obs.enabled():
                obs.instruments().serving_queue_depth.set(self._outstanding)
            if self._outstanding == 0:
                self._idle.set()

    # -- batching --------------------------------------------------------

    def _pump(self) -> None:
        """Start the oldest buckets while a kernel slot is free."""
        self._pump_scheduled = False
        while self._buckets and self._running < self.inflight_batches:
            key = next(iter(self._buckets))
            bucket = self._buckets.pop(key)
            if len(bucket) > self.max_batch:
                # the rest goes to the back of the queue: keys take turns
                self._buckets[key] = bucket[self.max_batch:]
                bucket = bucket[:self.max_batch]
            self._start(key, bucket)

    def _start(self, key: tuple, bucket: list[_Pending]) -> None:
        """Hand one batch to a free slot, minus its expired requests."""
        loop = asyncio.get_running_loop()

        start_at = time.perf_counter()
        live: list[_Pending] = []
        for p in bucket:
            if p.deadline_at is not None and start_at >= p.deadline_at:
                # expired while queued — don't waste kernel time on it
                self.stats.rejected["expired"] += 1
                self._observe_rejection("expired")
                if not p.future.done():
                    p.future.set_exception(
                        DeadlineExceeded("deadline expired in queue")
                    )
                continue
            live.append(p)
        if not live:
            return

        k, ef, compressed, rerank_factor = key
        queries = np.stack([p.request.vector for p in live])
        budgets = [
            p.request.make_budget(
                None if p.deadline_at is None
                else max(1e-4, p.deadline_at - start_at)
            )
            for p in live
        ]
        if all(b is None for b in budgets):
            budgets = None

        # duck-typing: ShardedIndex's search_batch has no compressed
        # mode — only pass those kwargs when a request actually set them
        kwargs: dict = {"budget": budgets}
        if compressed:
            kwargs["compressed"] = True
        if rerank_factor is not None:
            kwargs["rerank_factor"] = rerank_factor

        def compute():
            started = time.perf_counter()
            result = self.index.search_batch(
                queries, k=k, ef=ef, workers=self.workers, **kwargs,
            )
            return result, time.perf_counter() - started

        self._running += 1
        task = loop.run_in_executor(self._pool, compute)
        task.add_done_callback(
            lambda fut: self._resolve(fut, live, start_at)
        )

    def _resolve(self, fut, live: list[_Pending], start_at: float) -> None:
        """Start the next batch in the freed slot, then demultiplex this
        one onto its futures (on the loop, where executor futures land)."""
        done_at = time.perf_counter()
        self._running -= 1
        self._pump()
        try:
            result, index_s = fut.result()
        except Exception as exc:  # noqa: BLE001 - fail the whole bucket
            for p in live:
                if not p.future.done():
                    p.future.set_exception(
                        RequestFailed(f"{type(exc).__name__}: {exc}")
                    )
            return
        batch_size = len(live)
        kernel_path = result.kernel_path
        with self._lock:
            self.stats.batches += 1
            self.stats.batched += batch_size
            self.stats.kernel_paths[kernel_path] = (
                self.stats.kernel_paths.get(kernel_path, 0) + 1
            )
        metrics = obs.enabled()
        handles = obs.instruments() if metrics else None
        if handles is not None:
            handles.serving_batch_size.observe(batch_size)
            handles.serving_index_seconds.observe(index_s)
        for i, p in enumerate(live):
            if p.future.done():
                continue
            if result.errors[i] is not None:
                p.future.set_exception(RequestFailed(result.errors[i]))
                continue
            wait_s = start_at - p.enqueued
            total_s = done_at - p.enqueued
            degraded = bool(result.degraded[i])
            with self._lock:
                self.stats.answered += 1
                if degraded:
                    self.stats.degraded += 1
            if handles is not None:
                handles.serving_coalesce_wait_seconds.observe(wait_s)
                handles.serving_request_seconds.observe(total_s)
            p.future.set_result({
                "ids": result.ids[i],
                "dists": result.dists[i],
                "ndc": int(result.ndc[i]),
                "degraded": degraded,
                "batch_size": batch_size,
                "kernel_path": kernel_path,
                "wait_ms": wait_s * 1000.0,
                "total_ms": total_s * 1000.0,
            })

    def _observe_rejection(self, reason: str) -> None:
        if obs.enabled():
            obs.instruments().serving_rejected(reason).inc()

    # -- shutdown --------------------------------------------------------

    async def drain(self, timeout_s: float = 30.0) -> bool:
        """Stop admitting, run everything queued, wait for the running
        batches to finish.  Returns True when fully drained."""
        self._draining = True
        self._pump()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout_s)
            return True
        except asyncio.TimeoutError:
            return False

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)
