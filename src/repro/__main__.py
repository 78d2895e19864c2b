"""Command-line interface:  python -m repro <command>.

Commands
--------
``list``      — registered algorithms with their Table 2 taxonomy row.
``datasets``  — available dataset names (real-world stand-ins + synthetic).
``eval``      — build one algorithm on one dataset and print recall / QPS
                / speedup at a given candidate-set size; ``--trace`` /
                ``--metrics`` dump the run's observability artifacts.
``recommend`` — Table 7 advice for a named dataset.
``stats``     — summarize a JSONL query-trace file (total/mean NDC,
                hops, degradations, termination reasons).
``serve``     — build an index and run the async HTTP front door
                (dynamic micro-batching onto the fused MT kernel);
                SIGINT/SIGTERM drain gracefully.
"""

from __future__ import annotations

import argparse
import copy
import sys

from repro import ALGORITHMS, available_datasets, create, load_dataset, observability as obs
from repro.advisor import recommend_for_data
from repro.observability.exporters import format_stats, read_jsonl, summarize_traces


def _cmd_list(_args) -> int:
    print(f"{'name':11s} {'base graph':13s} {'edges':11s} {'construction':20s}")
    for name, meta in ALGORITHMS.items():
        print(
            f"{name:11s} {meta.base_graph:13s} {meta.edge_type:11s} "
            f"{meta.construction:20s}"
        )
    return 0


def _cmd_datasets(_args) -> int:
    for name in available_datasets():
        print(name)
    return 0


def _batch_mismatch(search, batch, queries) -> str | None:
    """The ``--check`` failure if ``search(query)`` differs from its
    ``batch`` row on ids or NDC for any query, else None."""
    import numpy as np

    mismatched = []
    for i, query in enumerate(queries):
        single = search(query)
        row = batch.ids[i]
        if (not np.array_equal(single.ids, row[row >= 0])
                or single.ndc != int(batch.ndc[i])):
            mismatched.append(i)
    if not mismatched:
        return None
    return (f"search() differs from search_batch() on "
            f"{len(mismatched)} queries (first: {mismatched[0]})")


def _cmd_eval_sharded(args, dataset) -> int:
    import time

    import numpy as np

    from repro.metrics.recall import recall_at_k
    from repro.sharding import ShardedIndex

    t0 = time.perf_counter()
    index = ShardedIndex.build(
        dataset.base, num_shards=args.shards,
        algorithm=args.algorithm, seed=args.seed,
    )
    build_s = time.perf_counter() - t0
    if args.replicas > 1:
        index.replicate(args.replicas)
    result = index.search_batch(
        dataset.queries, k=args.k, ef=args.ef, fanout=args.fanout
    )
    recalls = [
        recall_at_k(result.ids[i][result.ids[i] >= 0],
                    dataset.ground_truth[i], args.k)
        for i in range(len(dataset.queries))
    ]
    recall = float(np.mean(recalls)) if recalls else float("nan")
    report = result.shard_report
    print(
        f"{args.algorithm} on {dataset.name} "
        f"[sharded S={args.shards} P={report.fanout} R={args.replicas}]: "
        f"build={build_s:.2f}s "
        f"index={index.index_size_bytes() / 1024:.0f}KiB "
        f"recall@{args.k}={recall:.3f} qps={result.qps:.0f} "
        f"degraded={result.num_degraded}/{len(dataset.queries)} "
        f"quarantined={len(report.quarantined)}"
    )
    if args.check:
        failures = []
        if recall != recall:
            failures.append("recall is NaN")
        if recall < args.check_recall:
            failures.append(
                f"recall@{args.k}={recall:.3f} "
                f"< required {args.check_recall:.3f}"
            )
        # the single-query scatter must answer every row exactly as the
        # batched one did
        mismatch = _batch_mismatch(
            lambda q: index.search(q, k=args.k, ef=args.ef, fanout=args.fanout),
            result, dataset.queries,
        )
        if mismatch:
            failures.append(mismatch)
        if failures:
            print("CHECK FAILED: " + "; ".join(failures), file=sys.stderr)
            return 1
        print("CHECK OK")
    if args.trace:
        n = obs.dump_traces(args.trace)
        print(f"wrote {n} traces to {args.trace}")
    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write(obs.prometheus_text())
        print(f"wrote metrics to {args.metrics}")
    return 0


def _cmd_eval(args) -> int:
    if args.trace:
        obs.enable(metrics=True, trace=True)
    elif args.metrics:
        obs.enable(metrics=True, trace=False)
    dataset = load_dataset(args.dataset, cardinality=args.n, num_queries=args.queries)
    if args.shards > 1:
        for flag, name in ((args.compressed, "--compressed"),
                           (args.mmap_vectors, "--mmap-vectors"),
                           (args.reorder, "--reorder"),
                           (args.inserts, "--inserts"),
                           (args.seed_provider, "--seed-provider")):
            if flag:
                print(f"{name} is not supported with --shards",
                      file=sys.stderr)
                return 2
        return _cmd_eval_sharded(args, dataset)
    index = create(args.algorithm, seed=args.seed)
    report = index.build(dataset.base)
    if args.seed_provider:
        # post-build so it also covers algorithms that install their own
        # provider during construction (prepare runs immediately)
        from repro.presets import apply_seed_provider

        apply_seed_provider(index, args.seed_provider)
    if args.reorder:
        index.reorder(args.reorder)
    if args.inserts:
        import time

        import numpy as np

        rng = np.random.default_rng(args.seed + 1)
        picks = rng.integers(len(dataset.base), size=args.inserts)
        jitter = rng.standard_normal(
            (args.inserts, dataset.base.shape[1])
        ).astype(np.float32)
        index.auto_consolidate = False  # explicit lifecycle via flags
        t0 = time.perf_counter()
        for row, noise in zip(picks, jitter):
            index.insert(dataset.base[row] + 0.01 * noise)
        insert_s = max(time.perf_counter() - t0, 1e-9)
        line = (f"inserted {args.inserts} points "
                f"({args.inserts / insert_s:.0f} inserts/s, "
                f"delta={index.delta_points})")
        if args.consolidate:
            t0 = time.perf_counter()
            index.consolidate()
            line += f"; consolidated in {time.perf_counter() - t0:.2f}s"
        print(line)
    if args.compressed:
        index.enable_compressed()

    def run(index):
        """``evaluate``; under ``--check`` also the search() vs
        search_batch() mismatch, both run from one seed-provider state
        so random seeders draw the same seeds."""
        options = dict(k=args.k, ef=args.ef, compressed=args.compressed,
                       rerank_factor=args.rerank_factor)
        stats = index.evaluate(dataset.queries, dataset.ground_truth, **options)
        if not args.check:
            return stats, None
        provider = copy.deepcopy(index.seed_provider)
        batch = index.search_batch(dataset.queries, **options)
        index.seed_provider = provider
        return stats, _batch_mismatch(
            lambda q: index.search(q, **options), batch, dataset.queries
        )

    if args.mmap_vectors:
        # exercise the tiered deployment shape: persist with a raw
        # float32 sidecar, reload with the vectors memory-mapped
        import tempfile
        from pathlib import Path

        from repro.io import load_index, save_index

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "index.npz"
            save_index(index, path, vector_tier="sidecar")
            index = load_index(path, mmap_vectors=True)
            stats, mismatch = run(index)
    else:
        stats, mismatch = run(index)
    mode = "compressed" if args.compressed else "exact"
    print(
        f"{args.algorithm} on {dataset.name} [{mode}]: "
        f"build={report.build_time_s:.2f}s "
        f"index={report.index_size_bytes / 1024:.0f}KiB "
        f"recall@{args.k}={stats.recall:.3f} "
        f"qps={stats.qps:.0f} speedup={stats.speedup:.1f}x"
    )
    if args.check:
        failures = []
        if not (stats.recall == stats.recall):  # NaN guard
            failures.append("recall is NaN")
        if stats.recall < args.check_recall:
            failures.append(
                f"recall@{args.k}={stats.recall:.3f} "
                f"< required {args.check_recall:.3f}"
            )
        if stats.qps <= 0:
            failures.append("qps is not positive")
        if mismatch:
            failures.append(mismatch)
        if failures:
            print("CHECK FAILED: " + "; ".join(failures), file=sys.stderr)
            return 1
        print("CHECK OK")
    if args.trace:
        n = obs.dump_traces(args.trace)
        print(f"wrote {n} traces to {args.trace}")
    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write(obs.prometheus_text())
        print(f"wrote metrics to {args.metrics}")
    return 0


def _cmd_serve(args) -> int:
    from repro.serving import ServingConfig, serve

    obs.enable(metrics=True, trace=False)
    dataset = load_dataset(args.dataset, cardinality=args.n, num_queries=1)
    if args.shards > 1:
        from repro.sharding import ShardedIndex

        if args.compressed or args.mmap_vectors:
            print("--compressed/--mmap-vectors are not supported with "
                  "--shards", file=sys.stderr)
            return 2
        index = ShardedIndex.build(
            dataset.base, num_shards=args.shards,
            algorithm=args.algorithm, seed=args.seed,
        )
    else:
        index = create(args.algorithm, seed=args.seed)
        index.build(dataset.base)
        if args.compressed:
            index.enable_compressed()
        if args.mmap_vectors:
            import tempfile
            from pathlib import Path

            from repro.io import load_index, save_index

            tmp = tempfile.mkdtemp(prefix="repro-serve-")
            path = Path(tmp) / "index.npz"
            save_index(index, path, vector_tier="sidecar")
            index = load_index(path, mmap_vectors=True)
    config = ServingConfig(
        host=args.host, port=args.port,
        max_batch=args.max_batch, queue_depth=args.queue_depth,
        deadline_ms=args.deadline_ms,
        workers=args.workers, default_k=args.k, default_ef=args.ef,
        compressed=args.compressed, rerank_factor=args.rerank_factor,
    )
    serve(index, config)
    return 0


def _cmd_stats(args) -> int:
    traces = read_jsonl(args.trace_file)
    if not traces:
        print(f"no traces in {args.trace_file}", file=sys.stderr)
        return 1
    print(format_stats(summarize_traces(traces)))
    return 0


def _cmd_recommend(args) -> int:
    dataset = load_dataset(args.dataset, cardinality=args.n, num_queries=10)
    picks = recommend_for_data(
        dataset.base,
        updates_frequent=args.frequent_updates,
        memory_limited=args.limited_memory,
        external_memory=args.external_memory,
    )
    print(", ".join(picks))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="graph-based ANNS survey reproduction"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list algorithms").set_defaults(run=_cmd_list)
    commands.add_parser("datasets", help="list datasets").set_defaults(
        run=_cmd_datasets
    )

    evaluate = commands.add_parser("eval", help="build + evaluate one algorithm")
    evaluate.add_argument("algorithm", choices=sorted(ALGORITHMS))
    evaluate.add_argument("dataset")
    evaluate.add_argument("--n", type=int, default=2000)
    evaluate.add_argument("--queries", type=int, default=30)
    evaluate.add_argument("--k", type=int, default=10)
    evaluate.add_argument("--ef", type=int, default=60)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument(
        "--seed-provider", choices=("pq", "lsh", "random"), default=None,
        help="swap the algorithm's C4/C6 entry component "
             "(pq = zero-NDC ADC scan over compressed vectors)",
    )
    evaluate.add_argument(
        "--reorder", choices=("bfs", "degree"), default=None,
        help="relabel vertices for cache locality before searching",
    )
    evaluate.add_argument(
        "--compressed", action="store_true",
        help="traverse on uint8 PQ codes (ADC) and re-rank the best "
             "rerank_factor*k candidates exactly",
    )
    evaluate.add_argument(
        "--rerank-factor", type=int, default=None,
        help="over-fetch multiplier for the exact re-rank "
             "(compressed mode; default 3)",
    )
    evaluate.add_argument(
        "--shards", type=int, default=1,
        help="partition the dataset into S shards and serve with the "
             "scatter-gather layer (repro.sharding)",
    )
    evaluate.add_argument(
        "--fanout", type=int, default=None,
        help="shards queried per request (default: all alive shards)",
    )
    evaluate.add_argument(
        "--replicas", type=int, default=1,
        help="replicas per shard for hedged requests (sharded mode)",
    )
    evaluate.add_argument(
        "--mmap-vectors", action="store_true",
        help="round-trip the index through a float32 sidecar and "
             "search with the vectors memory-mapped",
    )
    evaluate.add_argument(
        "--inserts", type=int, default=0, metavar="N",
        help="after building, insert N perturbed base points (delta "
             "tier on refinement-built algorithms) and search both "
             "tiers — the S1 online-update scenario",
    )
    evaluate.add_argument(
        "--consolidate", action="store_true",
        help="fold the delta tier into a fresh base snapshot before "
             "searching (requires --inserts)",
    )
    evaluate.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the run clears --check-recall and a "
             "sequential search() loop equals search_batch() on ids and "
             "NDC (CI smoke gate)",
    )
    evaluate.add_argument(
        "--check-recall", type=float, default=0.5,
        help="recall floor enforced by --check (default 0.5)",
    )
    evaluate.add_argument(
        "--trace", metavar="PATH",
        help="enable tracing; write per-query JSONL traces here",
    )
    evaluate.add_argument(
        "--metrics", metavar="PATH",
        help="enable metrics; write a Prometheus text scrape here",
    )
    evaluate.set_defaults(run=_cmd_eval)

    serving = commands.add_parser(
        "serve", help="run the async HTTP serving front door"
    )
    serving.add_argument("algorithm", choices=sorted(ALGORITHMS))
    serving.add_argument("dataset")
    serving.add_argument("--n", type=int, default=10000,
                         help="dataset cardinality to build (default 10000)")
    serving.add_argument("--seed", type=int, default=0)
    serving.add_argument("--host", default="127.0.0.1")
    serving.add_argument("--port", type=int, default=8080,
                         help="listen port (0 = ephemeral)")
    serving.add_argument("--max-batch", type=int, default=64,
                         help="most queries in one kernel call")
    serving.add_argument("--queue-depth", type=int, default=256,
                         help="admission bound: queued + in-flight "
                              "requests before 429s")
    serving.add_argument("--deadline-ms", type=float, default=None,
                         help="default per-request SLO mapped onto a "
                              "QueryBudget (requests may override)")
    serving.add_argument("--workers", type=int, default=2,
                         help="MT kernel threads per batch")
    serving.add_argument("--k", type=int, default=10,
                         help="default neighbors per request")
    serving.add_argument("--ef", type=int, default=64,
                         help="default candidate-set size per request")
    serving.add_argument("--shards", type=int, default=1,
                         help="serve a sharded scatter-gather index")
    serving.add_argument("--compressed", action="store_true",
                         help="serve the ADC (PQ) traversal tier")
    serving.add_argument("--rerank-factor", type=int, default=None,
                         help="compressed-mode exact re-rank multiplier")
    serving.add_argument("--mmap-vectors", action="store_true",
                         help="serve with vectors memory-mapped from a "
                              "float32 sidecar")
    serving.set_defaults(run=_cmd_serve)

    stats = commands.add_parser(
        "stats", help="summarize a JSONL query-trace file"
    )
    stats.add_argument("trace_file")
    stats.set_defaults(run=_cmd_stats)

    advise = commands.add_parser("recommend", help="Table 7 advice for a dataset")
    advise.add_argument("dataset")
    advise.add_argument("--n", type=int, default=2000)
    advise.add_argument("--frequent-updates", action="store_true")
    advise.add_argument("--limited-memory", action="store_true")
    advise.add_argument("--external-memory", action="store_true")
    advise.set_defaults(run=_cmd_recommend)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
