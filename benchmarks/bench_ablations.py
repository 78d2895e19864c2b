"""Ablations of the design choices the survey isolates.

Not a single paper table, but each row executes one claim made in the
text:

* **connectivity** (Figure 10(e)): NSG-style reachability repair on vs
  off, same graph otherwise;
* **hierarchy** ([62] via §3.2 A2): HNSW against a flat single-layer
  equivalent (NSW with heuristic-selected neighbors ~ flat HNSW);
* **reverse edges** (§3.2 A9): DPG with and without edge undirection;
* **two-stage routing** (§6): OA's guided+BFS against plain BFS on the
  identical graph.
"""

import numpy as np
import pytest

from common import get_dataset, write_table
from repro import create
from repro.components.routing import best_first_search
from repro.pipeline import BenchmarkAlgorithm

DATASET = "gist1m"  # a hard dataset makes the ablations visible

_rows: dict[str, tuple] = {}


def _evaluate(index, dataset, ef=60):
    stats = index.evaluate(dataset.queries, dataset.ground_truth, k=10, ef=ef)
    return stats.recall, stats.mean_ndc


def test_connectivity_ablation(benchmark):
    dataset = get_dataset(DATASET)

    def run():
        with_c5 = BenchmarkAlgorithm(c5="nsg", seed=0)
        with_c5.build(dataset.base)
        without_c5 = BenchmarkAlgorithm(c5="ieh", seed=0)
        without_c5.build(dataset.base)
        return _evaluate(with_c5, dataset), _evaluate(without_c5, dataset)

    (on_recall, on_ndc), (off_recall, off_ndc) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    _rows["connectivity on"] = (on_recall, on_ndc)
    _rows["connectivity off"] = (off_recall, off_ndc)
    assert on_recall >= off_recall - 0.02, "repair must not hurt recall"


def test_hierarchy_ablation(benchmark):
    dataset = get_dataset(DATASET)

    def run():
        hnsw = create("hnsw", seed=0)
        hnsw.build(dataset.base)
        hier = _evaluate(hnsw, dataset)
        # flat ablation: search only the base layer from a random entry
        rng = np.random.default_rng(0)
        flat_recalls, flat_ndcs = [], []
        for i, query in enumerate(dataset.queries):
            seeds = rng.integers(0, dataset.n, size=1)
            result = best_first_search(
                hnsw.graph, hnsw.data, query, seeds, ef=60
            )
            truth = set(int(t) for t in dataset.ground_truth[i][:10])
            flat_recalls.append(
                len(truth & set(int(r) for r in result.ids[:10])) / 10
            )
            flat_ndcs.append(result.ndc)
        return hier, (float(np.mean(flat_recalls)), float(np.mean(flat_ndcs)))

    hier, flat = benchmark.pedantic(run, rounds=1, iterations=1)
    _rows["hnsw hierarchical"] = hier
    _rows["hnsw flat (layer 0)"] = flat


def test_reverse_edge_ablation(benchmark):
    dataset = get_dataset(DATASET)

    def run():
        dpg = create("dpg", seed=0)
        dpg.build(dataset.base)
        undirected = _evaluate(dpg, dataset)
        # strip the reverse edges: keep each vertex's k/2 closest only
        directed = create("dpg", seed=0)
        directed.build(dataset.base)
        keep = directed.k // 2
        for v in range(directed.graph.n):
            nbrs = np.asarray(directed.graph.neighbors(v), dtype=np.int64)
            if len(nbrs) > keep:
                dists = np.linalg.norm(
                    directed.data[nbrs] - directed.data[v], axis=1
                )
                nbrs = nbrs[np.argsort(dists, kind="stable")[:keep]]
            directed.graph.set_neighbors(v, nbrs)
        directed.graph.finalize()
        return undirected, _evaluate(directed, dataset)

    undirected, directed = benchmark.pedantic(run, rounds=1, iterations=1)
    _rows["dpg undirected"] = undirected
    _rows["dpg directed-only"] = directed
    assert undirected[0] >= directed[0] - 0.02, (
        "reverse edges are DPG's robustness mechanism"
    )


def test_two_stage_routing_ablation(benchmark):
    dataset = get_dataset(DATASET)

    def run():
        oa = create("oa", seed=0)
        oa.build(dataset.base)
        two_stage = _evaluate(oa, dataset)
        # same graph + seeds, plain best-first search
        recalls, ndcs = [], []
        for i, query in enumerate(dataset.queries):
            seeds = oa.seed_provider.acquire(query)
            result = best_first_search(oa.graph, oa.data, query, seeds, ef=60)
            truth = set(int(t) for t in dataset.ground_truth[i][:10])
            recalls.append(
                len(truth & set(int(r) for r in result.ids[:10])) / 10
            )
            ndcs.append(result.ndc)
        return two_stage, (float(np.mean(recalls)), float(np.mean(ndcs)))

    two_stage, plain = benchmark.pedantic(run, rounds=1, iterations=1)
    _rows["oa two-stage"] = two_stage
    _rows["oa plain bfs"] = plain


def test_batched_vs_sequential_search(benchmark):
    """Batched search: same results, one fused kernel call per batch."""
    from repro.batch import search_batch

    dataset = get_dataset(DATASET)

    def run():
        index = create("nsg", seed=0)
        index.build(dataset.base)
        sequential = index.evaluate(
            dataset.queries, dataset.ground_truth, k=10, ef=60
        )
        batched = search_batch(index, dataset.queries, k=10, ef=60)
        return sequential.qps, batched.qps

    seq_qps, batch_qps = benchmark.pedantic(run, rounds=1, iterations=1)
    _rows["sequential search"] = (float("nan"), seq_qps)
    _rows["batched search"] = (float("nan"), batch_qps)


def test_zzz_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [f"{'variant':22s} {'recall@10':>9s} {'NDC/QPS':>8s}  ({DATASET})"]
    for label, (recall, value) in _rows.items():
        lines.append(f"{label:22s} {recall:9.3f} {value:8.1f}")
    write_table("ablations", "Ablations of isolated design choices", lines)
