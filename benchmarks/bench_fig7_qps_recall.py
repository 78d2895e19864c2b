"""Figures 7 & 20 — QPS vs Recall@10 curves for all algorithms.

Paper shape: RNG- and MST-based algorithms (NSG, NSSG, HNSW, DPG,
HCNNG) dominate the high-recall region; KNNG/DG-based ones hold up on
easy datasets but fall away on hard ones (GloVe/GIST).

Each pytest-benchmark entry times one full query batch at the default
``ef``; the full ef sweep is written to results/fig7_qps_recall.txt.
"""

import pytest

from common import BENCH_ALGORITHMS, bench_datasets, get_dataset, get_index, get_sweep, write_table

EF_GRID = (10, 20, 40, 80, 160)

_curves: dict[tuple[str, str], list] = {}


@pytest.mark.parametrize("dataset_name", bench_datasets())
@pytest.mark.parametrize("algorithm_name", BENCH_ALGORITHMS)
def test_qps_recall_curve(benchmark, algorithm_name, dataset_name):
    index = get_index(algorithm_name, dataset_name)
    dataset = get_dataset(dataset_name)

    def run_batch():
        return index.evaluate(
            dataset.queries, dataset.ground_truth, k=10, ef=80
        )

    stats = benchmark.pedantic(run_batch, rounds=1, iterations=1)
    benchmark.extra_info.update(recall=stats.recall, qps=stats.qps)
    _curves[(algorithm_name, dataset_name)] = get_sweep(
        algorithm_name, dataset_name, EF_GRID
    )


def test_zzz_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = []
    for ds in bench_datasets():
        lines.append(f"--- {ds} (QPS @ Recall@10 over ef={EF_GRID}) ---")
        for name in BENCH_ALGORITHMS:
            curve = _curves.get((name, ds))
            if curve is None:
                continue
            series = " ".join(
                f"({p.recall:.3f},{p.qps:7.1f})" for p in curve
            )
            lines.append(f"{name:11s} {series}")
    write_table("fig7_qps_recall", "Figure 7/20: QPS vs Recall@10", lines)
