"""Figure 15 + Table 14 / Appendix L — NN-Descent iterations study.

Paper shapes: construction time grows monotonically with the number of
NN-Descent iterations while search performance saturates (and can even
dip) — best graph quality is *not* required for best search, the
survey's headline I3 finding.
"""

import pytest

from common import get_dataset, write_table
from repro.graphs.knng import exact_knn_lists
from repro.metrics import graph_quality
from repro.pipeline import BenchmarkAlgorithm

DATASETS = ("sift1m", "gist1m")
ITERATIONS = (1, 2, 4, 8)

_rows: dict[tuple[int, str], tuple] = {}


@pytest.mark.parametrize("dataset_name", DATASETS)
@pytest.mark.parametrize("iterations", ITERATIONS)
def test_iterations(benchmark, iterations, dataset_name):
    dataset = get_dataset(dataset_name)

    def build_and_search():
        bench = BenchmarkAlgorithm(iterations=iterations, seed=0)
        bench.build(dataset.base)
        stats = bench.evaluate(
            dataset.queries, dataset.ground_truth, k=10, ef=60
        )
        return bench, stats

    bench, stats = benchmark.pedantic(build_and_search, rounds=1, iterations=1)
    exact_ids, _ = exact_knn_lists(dataset.base, 10)
    gq = graph_quality(bench.graph, dataset.base, k=10, exact_ids=exact_ids)
    _rows[(iterations, dataset_name)] = (
        bench.build_report.build_time_s, gq, stats.recall, stats.mean_ndc
    )
    benchmark.extra_info.update(recall=stats.recall, graph_quality=gq)


def test_zzz_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [
        f"{'iter':>4s} {'dataset':8s} {'build(s)':>9s} {'GQ':>6s} "
        f"{'recall@10':>9s} {'NDC':>8s}"
    ]
    for (iterations, ds), (build_s, gq, recall, ndc) in sorted(_rows.items()):
        lines.append(
            f"{iterations:4d} {ds:8s} {build_s:9.2f} {gq:6.3f} "
            f"{recall:9.3f} {ndc:8.1f}"
        )
    write_table(
        "fig15_iterations",
        "Figure 15 / Table 14: NN-Descent iterations vs build time & search",
        lines,
    )

    for ds in DATASETS:
        # Table 14's shape: more iterations, more construction time.
        # The very first build absorbs warmup noise, so compare within
        # the later measurements only.
        if all((i, ds) in _rows for i in (2, 8)):
            assert _rows[(8, ds)][0] > _rows[(2, ds)][0] * 0.9
        # Appendix L: recall saturates — the step from 4 to 8 iterations
        # buys almost nothing compared to the step from 1 to 4
        if all((i, ds) in _rows for i in (1, 4, 8)):
            gain_early = _rows[(4, ds)][2] - _rows[(1, ds)][2]
            gain_late = _rows[(8, ds)][2] - _rows[(4, ds)][2]
            assert gain_late <= max(gain_early, 0.02) + 0.02
