"""Overhead proof for the observability layer's disabled fast path.

The no-op guarantee is that ``obs.enabled()`` / ``obs.tracing()`` cost
two global reads per query, so leaving the instrumentation compiled into
``GraphANNS.search`` may not tax the hot path.  This benchmark measures
that directly with an interleaved A/B comparison:

* **A (instrumented)** — ``index.search`` exactly as shipped, with
  observability globally disabled;
* **B (replica)**      — a local copy of the same search body with every
  observability line deleted (the counterfactual "never instrumented"
  code).

A and B alternate round-by-round on identical queries so frequency
scaling and cache state hit both sides equally; the reported overhead is
the median-of-rounds relative wall-clock difference.  For context the
enabled modes (metrics only, metrics + hop tracing) are timed too —
tracing is *expected* to cost real time since it forces the pure-Python
frontier and records every hop.

Writes ``benchmarks/results/observability_overhead.txt``.  Run directly::

    PYTHONPATH=src python benchmarks/bench_observability_overhead.py

Scale knobs: ``REPRO_BENCH_OBS_N`` (points, default 8000),
``REPRO_BENCH_OBS_QUERIES`` (default 150), ``REPRO_BENCH_OBS_ROUNDS``
(A/B rounds, default 9).
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro import create, observability as obs
from repro.algorithms.base import finish_ids
from repro.components.routing import best_first_search
from repro.distance import DistanceCounter
from repro.resilience import InvalidQueryError, validate_query

N = int(os.environ.get("REPRO_BENCH_OBS_N", "8000"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_OBS_QUERIES", "150"))
ROUNDS = int(os.environ.get("REPRO_BENCH_OBS_ROUNDS", "9"))
DIM = 32
K = 10
EF = 40

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def search_replica(index, query, k, ef):
    """``GraphANNS.search`` with the observability lines removed.

    Kept in lock-step with the exact (``compressed=False``) path of
    :meth:`repro.algorithms.base.GraphANNS.search` — validation,
    ``finish_ids`` (tombstones, top-k cut, reorder map) and the delta
    merge — so the only difference is the deleted instrumentation: this
    is the code that would exist had the observability layer never been
    added.
    """
    index._require_built()
    reason = validate_query(query, index.data.shape[1])
    if reason is not None:
        raise InvalidQueryError(f"{index.name}: {reason}")
    ef = max(k, ef if ef is not None else index.default_ef)
    counter = DistanceCounter()
    budget = None
    start = counter.count
    ctx = index._context()
    seeds = index.seed_provider.acquire(query, counter)
    if budget is not None:  # pre-existing resilience line, not obs
        budget = budget.after_spending(counter.count - start)
    result = best_first_search(
        index.graph, index.data, query, np.asarray(seeds, dtype=np.int64),
        ef, counter, ctx=ctx, budget=budget, route=index.route,
    )
    result.ndc = counter.count - start
    result.ids, result.dists = finish_ids(
        result.ids, result.dists, index._live_tombstones(), k, index._id_map
    )
    delta = index._delta
    if delta is not None and delta.n:
        index._merge_delta(result, query, k, ef, counter, budget)
    return result


def time_loop(fn, queries) -> float:
    started = time.perf_counter()
    for query in queries:
        fn(query)
    return time.perf_counter() - started


def main() -> None:
    rng = np.random.default_rng(0)
    data = rng.normal(size=(N, DIM)).astype(np.float32)
    queries = rng.normal(size=(NUM_QUERIES, DIM)).astype(np.float32)
    index = create("kgraph", seed=0)
    index.build(data)

    obs.disable()
    run_a = lambda q: index.search(q, k=K, ef=EF)          # noqa: E731
    run_b = lambda q: search_replica(index, q, K, EF)      # noqa: E731

    # warm-up: caches, norm tables, allocator
    time_loop(run_a, queries[:16])
    time_loop(run_b, queries[:16])

    a_times, b_times = [], []
    for _ in range(ROUNDS):
        a_times.append(time_loop(run_a, queries))
        b_times.append(time_loop(run_b, queries))
    a_med = statistics.median(a_times)
    b_med = statistics.median(b_times)
    overhead_pct = (a_med - b_med) / b_med * 100.0

    # sanity: identical answers either way (kgraph seeds randomly per
    # call, so pin the provider RNG before each side)
    index.seed_provider._rng = np.random.default_rng(7)
    r_a = index.search(queries[0], k=K, ef=EF)
    index.seed_provider._rng = np.random.default_rng(7)
    r_b = search_replica(index, queries[0], K, EF)
    assert np.array_equal(r_a.ids, r_b.ids) and r_a.ndc == r_b.ndc

    obs.enable(metrics=True, trace=False)
    metrics_s = time_loop(run_a, queries)
    obs.enable(metrics=True, trace=True)
    tracing_s = time_loop(run_a, queries)
    n_traces = len(obs.RECORDER)
    obs.disable()
    obs.reset()

    per_query_us = a_med / NUM_QUERIES * 1e6
    lines = [
        f"index: kgraph, n={N}, dim={DIM}, "
        f"queries={NUM_QUERIES}, rounds={ROUNDS}",
        f"disabled (instrumented)   {a_med:8.4f}s  "
        f"({per_query_us:7.1f} us/query)",
        f"uninstrumented replica    {b_med:8.4f}s",
        f"disabled-mode overhead    {overhead_pct:+7.2f}%  (target < 3%)",
        f"metrics enabled           {metrics_s:8.4f}s  "
        f"({(metrics_s - b_med) / b_med * 100.0:+.2f}%)",
        f"metrics + tracing         {tracing_s:8.4f}s  "
        f"({(tracing_s - b_med) / b_med * 100.0:+.2f}%, "
        f"{n_traces} traces recorded)",
    ]
    RESULTS_DIR.mkdir(exist_ok=True)
    body = "\n".join(["== observability overhead (search hot path) ==",
                      *lines, ""])
    (RESULTS_DIR / "observability_overhead.txt").write_text(body)
    print("\n" + body)


if __name__ == "__main__":
    main()
