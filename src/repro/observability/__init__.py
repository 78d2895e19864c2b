"""Unified observability: metrics registry, query tracing, exporters.

One subsystem replaces the isolated reporting the earlier layers grew
(per-query batch telemetry, ``BudgetReport``, ``BuildReport.phases``):

* a process-wide :class:`MetricsRegistry` (``REGISTRY``) with the
  standard instrument kinds and fixed log-scale buckets,
* a bounded :class:`TraceRecorder` (``RECORDER``) of hop-level
  :class:`QueryTrace` records, plus a :class:`SpanLog` (``SPANS``) fed
  by the phased build engine,
* exporters: Prometheus text exposition, JSON-lines dumps, and the
  ``python -m repro stats`` summary,
* a structured logger (:func:`get_logger`) whose events land in a
  machine-readable buffer as well as stderr.

**The disabled state is a strict no-op.**  ``enabled()`` / ``tracing()``
are single global reads; instrumented call sites check them once per
query (or once per batch) and skip *all* observability work when off,
so search and build results stay bit-identical and the hot-path cost is
negligible (measured by ``benchmarks/bench_observability_overhead.py``).
Enabling tracing routes searches through the pure-Python frontier —
whose ids/NDC are bit-identical to the C kernel's by construction — so
traces never change what a query returns.

Environment switches (read once at import): ``REPRO_TRACE=1`` enables
metrics + hop-level tracing; ``REPRO_METRICS=1`` enables metrics only.
"""

from __future__ import annotations

import os

from repro.observability.exporters import (
    format_stats,
    prometheus_text as _prometheus_text,
    read_jsonl,
    summarize_traces,
    write_jsonl,
)
from repro.observability.registry import (
    LATENCY_BUCKETS_S,
    NDC_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.slog import EVENTS, EventLog, StructuredLogger, get_logger
from repro.observability.tracing import (
    QueryTrace,
    Span,
    SpanLog,
    TraceRecorder,
    next_batch_id,
    next_trace_id,
)

__all__ = [
    "REGISTRY", "RECORDER", "SPANS", "EVENTS",
    "enabled", "tracing", "enable", "disable", "reset",
    "instruments", "Instruments",
    "start_query_trace", "finish_query_trace",
    "new_trace_id", "new_batch_id",
    "prometheus_text", "dump_traces", "dump_events", "dump_spans",
    "summarize_traces", "format_stats", "read_jsonl", "write_jsonl",
    "get_logger", "record_span",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "QueryTrace", "TraceRecorder", "Span", "SpanLog",
    "StructuredLogger", "EventLog",
    "LATENCY_BUCKETS_S", "NDC_BUCKETS",
]

#: process-wide sinks — always importable, always safe to write to
REGISTRY = MetricsRegistry()
RECORDER = TraceRecorder()
SPANS = SpanLog()

_metrics_on = False
_trace_on = False
_instruments: "Instruments | None" = None


def enabled() -> bool:
    """Whether metrics collection is on (single global read)."""
    return _metrics_on


def tracing() -> bool:
    """Whether hop-level query tracing is on (single global read)."""
    return _trace_on


def enable(metrics: bool = True, trace: bool = True) -> None:
    """Turn instrumentation on.  Tracing implies metrics."""
    global _metrics_on, _trace_on
    _metrics_on = bool(metrics or trace)
    _trace_on = bool(trace)


def disable() -> None:
    """Back to the strict no-op fast path."""
    global _metrics_on, _trace_on
    _metrics_on = False
    _trace_on = False


def reset() -> None:
    """Clear every sink and cached instrument handle (test isolation)."""
    global _instruments
    REGISTRY.reset()
    RECORDER.clear()
    SPANS.clear()
    EVENTS.clear()
    _instruments = None


class Instruments:
    """Pre-resolved handles for the hot-path metric families.

    Resolving an instrument is a dict lookup under a lock; the search
    and batch paths instead grab this bundle once per query/batch via
    :func:`instruments` and touch plain attributes.
    """

    def __init__(self, registry: MetricsRegistry):
        self.queries_total = registry.counter(
            "repro_queries_total", "Queries answered by GraphANNS.search.")
        self.query_ndc = registry.histogram(
            "repro_query_ndc", "Distance computations per query "
            "(seed acquisition included).", buckets=NDC_BUCKETS)
        self.query_hops = registry.histogram(
            "repro_query_hops", "Expanded vertices per query "
            "(the paper's query path length).", buckets=NDC_BUCKETS)
        self.query_seconds = registry.histogram(
            "repro_query_seconds", "Wall-clock per query.")
        self.degraded_total = registry.counter(
            "repro_degraded_queries_total",
            "Queries cut short by a QueryBudget (best-k returned).")
        self.budget_exhausted = {
            limit: registry.counter(
                "repro_budget_exhausted_total",
                "Budget terminations by which limit fired.",
                labels={"limit": limit})
            for limit in ("deadline", "ndc", "hops")
        }
        self.compressed_queries_total = registry.counter(
            "repro_compressed_queries_total",
            "Queries answered by compressed (ADC) traversal.")
        self.query_adc_lookups = registry.histogram(
            "repro_query_adc_lookups",
            "PQ table lookups per compressed query (zero true NDC; the "
            "surrogate work the ADC traversal does instead of distances).",
            buckets=NDC_BUCKETS)
        self.query_rerank_ndc = registry.histogram(
            "repro_query_rerank_ndc",
            "Exact re-rank distance computations per compressed query "
            "(the only stage that reads float32 vectors).",
            buckets=NDC_BUCKETS)
        self.batch_queries_total = registry.counter(
            "repro_batch_queries_total", "Queries answered by search_batch.")
        self.batch_seconds = registry.histogram(
            "repro_batch_seconds", "Wall-clock per search_batch call.")
        self.batch_stage_seed_seconds = registry.histogram(
            "repro_batch_stage_seconds",
            "Per-stage wall-clock inside search_batch.",
            labels={"stage": "seed_acquisition"})
        self.batch_stage_compute_seconds = registry.histogram(
            "repro_batch_stage_seconds",
            "Per-stage wall-clock inside search_batch.",
            labels={"stage": "compute"})
        self.batch_chunk_seconds = registry.histogram(
            "repro_batch_chunk_seconds",
            "Busy wall-clock of one worker's chunk.")
        self.batch_worker_utilization = registry.gauge(
            "repro_batch_worker_utilization",
            "Mean worker busy fraction of the last search_batch call.")
        self.batch_degraded_total = registry.counter(
            "repro_batch_degraded_total",
            "Budget-degraded queries inside search_batch.")
        self.batch_errors_total = registry.counter(
            "repro_batch_query_errors_total",
            "Queries that failed even after the sequential retry.")
        self.chunk_retries_total = registry.counter(
            "repro_worker_chunk_retries_total",
            "Worker chunks that raised and were retried in pure NumPy.")
        self.sharded_queries_total = registry.counter(
            "repro_sharded_queries_total",
            "Queries answered by the sharded scatter-gather layer.")
        self.sharded_degraded_total = registry.counter(
            "repro_sharded_degraded_total",
            "Sharded queries that returned a degraded (partial or "
            "budget-cut) result.")
        self.shard_quarantines_total = registry.counter(
            "repro_shard_quarantines_total",
            "Shards dropped from a query or the serving set "
            "(raise, timeout, or checksum failure).")
        self.shard_hedge_fires_total = registry.counter(
            "repro_shard_hedge_fires_total",
            "Hedged replica requests fired after the latency trigger.")
        self.shard_hedge_wins_total = registry.counter(
            "repro_shard_hedge_wins_total",
            "Hedged replica requests that beat their primary.")
        self.shard_fanout = registry.gauge(
            "repro_shard_fanout",
            "Fan-out (shards queried) of the most recent sharded query.")
        self.build_seconds = registry.histogram(
            "repro_build_seconds", "Wall-clock per index build.")
        self.builds_total = registry.counter(
            "repro_builds_total", "Completed index builds.")
        self.inserts_total = registry.counter(
            "repro_inserts_total",
            "Points inserted into a built index (delta tier or native).")
        self.consolidations_total = registry.counter(
            "repro_consolidations_total",
            "Completed delta consolidations (rebuild + snapshot swap).")
        self.delta_points = registry.gauge(
            "repro_delta_points",
            "Points currently in the mutable delta tier.")
        self.consolidation_lag_seconds = registry.gauge(
            "repro_consolidation_lag_seconds",
            "Age of the oldest insert not yet folded into the base.")
        self.compressed_tier_dropped_total = registry.counter(
            "repro_compressed_tier_dropped_total",
            "Compressed tiers dropped because an insert invalidated "
            "the PQ codes.")
        self.repairs_total = registry.counter(
            "repro_index_repairs_total",
            "Repair actions applied by verify_index(repair=True).")
        self.integrity_issues_total = registry.counter(
            "repro_index_integrity_issues_total",
            "Integrity issues found by verify_index.")
        self.serving_requests_total = registry.counter(
            "repro_serving_requests_total",
            "Search requests admitted by the serving front door.")
        self.serving_queue_depth = registry.gauge(
            "repro_serving_queue_depth",
            "Requests queued or in flight inside the coalescer.")
        self.serving_batch_size = registry.histogram(
            "repro_serving_batch_size",
            "Queries per coalesced search_batch call.",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0))
        self.serving_coalesce_wait_seconds = registry.histogram(
            "repro_serving_coalesce_wait_seconds",
            "Time a request queued behind running batches before "
            "its batch started.")
        self.serving_request_seconds = registry.histogram(
            "repro_serving_request_seconds",
            "End-to-end request latency (enqueue to response ready).")
        self.serving_index_seconds = registry.histogram(
            "repro_serving_index_seconds",
            "In-index time of a coalesced batch (the search_batch call "
            "itself; subtract from end-to-end for queueing overhead).")
        self._registry = registry

    def serving_rejected(self, reason: str) -> Counter:
        """Admission rejections by reason (overloaded/draining/expired)."""
        return self._registry.counter(
            "repro_serving_rejected_total",
            "Requests rejected by serving admission control.",
            labels={"reason": reason})

    def batch_kernel_path(self, path: str) -> Counter:
        """Which compute path a search_batch call took."""
        return self._registry.counter(
            "repro_batch_kernel_path_total",
            "search_batch calls by compute path "
            "(fused_mt/fused_mt_adc/python).",
            labels={"path": path})

    def build_phase_seconds(self, phase: str) -> Histogram:
        """Per-phase build histogram (phases are dynamic labels)."""
        return self._registry.histogram(
            "repro_build_phase_seconds",
            "Wall-clock per C1-C5 build phase.", labels={"phase": phase})

    def shard_ndc(self, shard: int) -> Histogram:
        """Per-shard NDC histogram (shard ids are dynamic labels)."""
        return self._registry.histogram(
            "repro_shard_ndc",
            "Distance computations one shard spent on one sharded query.",
            labels={"shard": str(shard)}, buckets=NDC_BUCKETS)


def instruments() -> Instruments:
    """The lazily-built bundle of hot-path instrument handles."""
    global _instruments
    if _instruments is None:
        _instruments = Instruments(REGISTRY)
    return _instruments


# -- query-trace lifecycle ----------------------------------------------


def new_trace_id() -> str:
    return next_trace_id()


def new_batch_id() -> str:
    return next_batch_id()


def start_query_trace(algorithm: str, k: int, ef: int,
                      trace_id: str | None = None) -> QueryTrace:
    return QueryTrace(trace_id if trace_id is not None else next_trace_id(),
                      algorithm, k, ef)


def finish_query_trace(trace: QueryTrace, result, elapsed_s: float) -> None:
    """Finalize a trace from a ``SearchResult`` and hand it to the
    recorder; stamps ``trace_id`` onto the result (and its
    ``BudgetReport``, making degraded queries joinable to their trace).
    """
    budget_dict = None
    termination = "completed"
    report = getattr(result, "budget", None)
    if result.degraded:
        limit = report.limit if report is not None else "unknown"
        termination = f"budget:{limit}"
        if report is not None:
            report.trace_id = trace.trace_id
            budget_dict = {"limit": report.limit, "ndc": report.ndc,
                           "hops": report.hops,
                           "elapsed_s": report.elapsed_s}
    trace.finish(
        ndc=result.ndc, hops=result.hops, visited=result.visited,
        degraded=result.degraded, termination=termination,
        result_ids=result.ids, budget=budget_dict, elapsed_s=elapsed_s,
        adc_lookups=getattr(result, "adc_lookups", 0),
        rerank_ndc=getattr(result, "rerank_ndc", 0),
    )
    result.trace_id = trace.trace_id
    RECORDER.add(trace)


def observe_query(result, elapsed_s: float) -> None:
    """Record one search's metrics (call only when ``enabled()``)."""
    handles = instruments()
    handles.queries_total.inc()
    handles.query_ndc.observe(result.ndc)
    handles.query_hops.observe(result.hops)
    handles.query_seconds.observe(elapsed_s)
    adc = getattr(result, "adc_lookups", 0)
    if adc:
        handles.compressed_queries_total.inc()
        handles.query_adc_lookups.observe(adc)
        handles.query_rerank_ndc.observe(getattr(result, "rerank_ndc", 0))
    if result.degraded:
        handles.degraded_total.inc()
        report = getattr(result, "budget", None)
        limit = report.limit if report is not None else "ndc"
        counter = handles.budget_exhausted.get(limit)
        if counter is not None:
            counter.inc()


def record_span(name: str, wall_s: float, **attrs) -> None:
    SPANS.record(name, wall_s, **attrs)


# -- export conveniences -------------------------------------------------


def prometheus_text(registry: MetricsRegistry | None = None) -> str:
    return _prometheus_text(REGISTRY if registry is None else registry)


def dump_traces(path, clear: bool = False) -> int:
    """Write every recorded query trace as JSON lines; returns count."""
    count = write_jsonl(path, RECORDER.snapshot())
    if clear:
        RECORDER.clear()
    return count


def dump_spans(path, clear: bool = False) -> int:
    count = write_jsonl(path, SPANS.snapshot())
    if clear:
        SPANS.clear()
    return count


def dump_events(path, clear: bool = False) -> int:
    """Write the structured-log event buffer as JSON lines."""
    count = write_jsonl(path, EVENTS.snapshot())
    if clear:
        EVENTS.clear()
    return count


# -- environment switches ------------------------------------------------

_env_trace = os.environ.get("REPRO_TRACE", "")
_env_metrics = os.environ.get("REPRO_METRICS", "")
if _env_trace not in ("", "0"):
    enable(metrics=True, trace=True)
elif _env_metrics not in ("", "0"):
    enable(metrics=True, trace=False)
