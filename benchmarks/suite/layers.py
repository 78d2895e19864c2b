"""Which entry points the traced run wraps, and the per-layer metrics
derived from the spans they record.

Every per-layer metric is emitted by every workload.  A layer that a
workload never calls (the delta tier under ``search``, HTTP under
``churn``) reads 0, which is a true value only for a share or a count —
so layers that run on some workloads only report their time as a share
of the enclosing wall clock, while layers that run everywhere report
seconds.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict

from spans import Tracer, covered, self_times

__all__ = ["instrument", "query_layers", "coverage", "SETUP_LAYERS",
           "QUERY_LAYERS"]

#: set-up metrics (medians over the run's set-ups); their units and
#: directions are declared in BENCHMARK.json's ``per_layer``
SETUP_LAYERS = (
    "datasets.gen_s", "build.c1_s", "build.c2c3_s", "build.c4_s",
    "build.c5_s", "build.ndc", "build.index_bytes", "pq.fit_share",
    "io.save_share", "io.load_share", "server.boot_share",
    "shard.partition_share",
)

#: query-path metrics over the timed phases
QUERY_LAYERS = (
    "seed.busy_s", "seed.ndc_per_query",
    "kernel.batch_busy_s", "kernel.thread_util", "kernel.ndc_per_query",
    "kernel.hops_per_query", "kernel.visited_per_query",
    "kernel.serial_share",
    "batch.self_s", "search.self_share",
    "adc.lut_share", "adc.kernel_share", "adc.finish_share",
    "adc.lookups_per_query", "adc.rerank_useful_frac",
    "delta.insert_share", "delta.search_share", "delta.ndc_per_query",
    "delta.hit_frac",
    "consolidate.c1_share", "consolidate.c2c3_share", "consolidate.c5_share",
    "consolidate.swap_share",
    "shard.critical_share", "shard.busy_share", "sharded.self_share",
    "shard.fanout_per_query", "shard.useful_frac",
    "coalescer.wait_share", "server.index_share", "http.self_share",
    "coalescer.batch_size_mean", "coalescer.fused_share", "serve.rejected",
    "loadgen.backlog_end",
    "trace.coverage_min",
)


# -- wrappers --------------------------------------------------------------


def _serial(args, kwargs, result):
    return (("q", 1), ("ndc", result[2]), ("hops", result[3]),
            ("visited", result[4]))


def _mt(args, kwargs, result):
    stats, busy = result[3], result[4]
    return (("q", len(stats)), ("ndc", int(stats[:, 0].sum())),
            ("hops", int(stats[:, 1].sum())),
            ("visited", int(stats[:, 2].sum())),
            ("busy", float(busy.sum())), ("threads", len(busy)))


def _acquire_batch(args, kwargs, result):
    return (("q", len(result[1])), ("ndc", int(result[1].sum())))


def _batch(args, kwargs, result):
    return (("q", len(result.ids)),)


def _rerank(args, kwargs, result):
    return (("q", 1), ("pool", len(args[2])))


def _delta_search(args, kwargs, result):
    return (("q", 1), ("ndc", int(result.ndc)))


def instrument(tracer: Tracer, indexes=(), served=None) -> None:
    """Wrap every layer entry point the workloads reach.

    ``indexes`` are the built indexes (or sharded indexes) whose seed
    providers must be timed; ``served`` is the index a server
    subprocess answers from, whose ``search_batch`` gets the proxy
    span ``serve.index``.
    """
    from repro import _native, batch
    from repro.algorithms.base import GraphANNS
    from repro.delta import DeltaTier
    from repro.quantization import CompressedTier
    from repro.sharding import ShardedIndex

    tracer.wrap(_native, "best_first", "kernel.serial", _serial)
    tracer.wrap(_native, "best_first_batch_mt", "kernel.batch", _mt)
    tracer.wrap(_native, "best_first_batch_adc_mt", "kernel.batch_adc", _mt)
    tracer.wrap(batch, "search_batch", "batch", _batch)
    tracer.wrap(batch, "rerank_exact", "adc.finish", _rerank)
    tracer.wrap(CompressedTier, "lut_batch", "adc.lut")
    tracer.wrap(DeltaTier, "insert", "delta.insert")
    tracer.wrap(DeltaTier, "search", "delta.search", _delta_search)
    tracer.wrap(GraphANNS, "search", "search")
    tracer.wrap(GraphANNS, "insert", "insert")
    tracer.wrap(GraphANNS, "delete", "delete")
    tracer.wrap(GraphANNS, "consolidate", "consolidate")
    tracer.wrap(ShardedIndex, "search", "sharded.search", fanout=True)
    tracer.wrap(ShardedIndex, "search_batch", "sharded.search_batch", _batch,
                fanout=True)
    providers = set()
    for index in indexes:
        for shard in getattr(index, "shards", [index]):
            providers.add(type(shard.seed_provider))
    for cls in sorted(providers, key=lambda c: c.__name__):
        tracer.wrap(cls, "acquire", "seed.acquire")
        tracer.wrap(cls, "acquire_batch", "seed.acquire_batch", _acquire_batch)
    if served is not None:
        tracer.wrap(type(served), "search_batch", "serve.index")


# -- derivation -----------------------------------------------------------


def _per(total, count) -> float:
    return float(total) / count if count else 0.0


def query_layers(spans, phases, k: int, extra=None) -> dict:
    """Query-path layer metrics from the spans inside the timed phases.

    ``spans`` and ``phases`` (the benchmark process's timed phases) are
    :class:`~spans.Span` objects; spans of any process whose interval
    lies inside a phase are counted.
    ``k`` is the result size the re-rank pool is cut to; ``extra``
    supplies the values only the workload can see (delta hit
    fraction, serving breakdowns, shard usefulness...).  Returns
    ``{name: value}`` for every name in :data:`QUERY_LAYERS`.
    """
    windows = sorted((p.start, p.end) for p in phases)
    starts = [a for a, _ in windows]
    timed_wall = sum(b - a for a, b in windows)

    def inside(span):
        i = bisect_right(starts, span.start) - 1
        return i >= 0 and span.end <= windows[i][1]

    selected = [s for s in spans if inside(s)]
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for span in selected:
        by_name.setdefault(span.name, []).append(span)

    def self_sum(*names):
        return sum(selfs[(s.proc, s.id)] for n in names
                   for s in by_name.get(n, ()))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    def share(*names):
        return _per(self_sum(*names), timed_wall)

    mt = by_name.get("kernel.batch", []) + by_name.get("kernel.batch_adc", [])
    thread_wall = sum(s.duration * s.attrs["threads"] for s in mt)
    batch_q = attr_sum("kernel.batch", "q")
    adc_q = attr_sum("kernel.batch_adc", "q")
    pool = attr_sum("adc.finish", "pool")
    out = {
        "seed.busy_s": self_sum("seed.acquire", "seed.acquire_batch"),
        "seed.ndc_per_query": _per(attr_sum("seed.acquire_batch", "ndc"),
                                   attr_sum("seed.acquire_batch", "q")),
        "kernel.batch_busy_s": self_sum("kernel.batch", "kernel.batch_adc"),
        "kernel.thread_util": _per(sum(s.attrs["busy"] for s in mt),
                                   thread_wall),
        "kernel.ndc_per_query": _per(attr_sum("kernel.batch", "ndc"), batch_q),
        "kernel.hops_per_query": _per(attr_sum("kernel.batch", "hops"),
                                      batch_q),
        "kernel.visited_per_query": _per(attr_sum("kernel.batch", "visited"),
                                         batch_q),
        "kernel.serial_share": share("kernel.serial"),
        "batch.self_s": self_sum("batch"),
        "search.self_share": share("search"),
        "adc.lut_share": share("adc.lut"),
        "adc.kernel_share": share("kernel.batch_adc"),
        "adc.finish_share": share("adc.finish"),
        "adc.lookups_per_query": _per(attr_sum("kernel.batch_adc", "ndc"),
                                      adc_q),
        "adc.rerank_useful_frac": _per(k * attr_sum("adc.finish", "q"), pool),
        "delta.insert_share": share("delta.insert"),
        "delta.search_share": share("delta.search"),
        "delta.ndc_per_query": _per(attr_sum("delta.search", "ndc"),
                                    attr_sum("delta.search", "q")),
        "sharded.self_share": share("sharded.search", "sharded.search_batch"),
    }
    # per-shard calls are the "batch" spans a sharded pass fanned out
    passes = by_name.get("sharded.search_batch", [])
    shard_calls = {p.id: [] for p in passes}
    for span in by_name.get("batch", ()):
        if span.parent in shard_calls:
            shard_calls[span.parent].append(span)
    queries = sum(p.attrs.get("q", 0) for p in passes)
    out["shard.critical_share"] = _per(
        sum(max((c.duration for c in calls), default=0.0)
            for calls in shard_calls.values()), timed_wall)
    out["shard.busy_share"] = _per(
        sum(c.duration for calls in shard_calls.values() for c in calls),
        timed_wall)
    out["shard.fanout_per_query"] = _per(
        sum(c.attrs["q"] for calls in shard_calls.values() for c in calls),
        queries)
    out["trace.coverage_min"] = min(coverage(phases, spans).values(),
                                    default=0.0)
    for name, value in (extra or {}).items():
        if name not in QUERY_LAYERS:
            raise KeyError(f"undeclared layer metric {name}")
        out[name] = value
    return {name: out.get(name, 0.0) for name in QUERY_LAYERS}


def coverage(phases, spans) -> dict:
    """``{phase name: share of its wall time its top-level spans cover}``,
    pooled over every phase of that name."""
    tops = defaultdict(list)
    for span in spans:
        tops[(span.proc, span.parent)].append((span.start, span.end))
    pooled: dict[str, list] = {}
    for phase in phases:
        acc = pooled.setdefault(phase.name, [0.0, 0.0])
        acc[0] += covered(tops.get((phase.proc, phase.id), ()),
                          phase.start, phase.end)
        acc[1] += phase.duration
    return {name: _per(c, wall) for name, (c, wall) in pooled.items()}
