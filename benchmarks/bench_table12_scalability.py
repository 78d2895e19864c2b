"""Table 12 / Appendix J — scalability over the synthetic sweeps.

Four knobs from Table 10: dimensionality {8, 32, 128}, cardinality
(three sizes, 1:4:16), cluster count {1, 10, 100}, and per-cluster
standard deviation {1, 5, 10}.  Construction time (CT) and queries per
second (QPS) are reported per algorithm and knob setting.

Paper shapes: QPS falls as dimension/cardinality/SD rise for every
algorithm; RNG-based algorithms widen their lead as cardinality grows.

Each cell's QPS is the best of ``TIMED_PASSES`` ``evaluate`` passes over
``NUM_QUERIES`` queries: one pass over a handful of queries lasts a few
milliseconds on the fast algorithms, short enough for scheduler noise
to reverse the d=8 / d=128 ordering.  The passes are interleaved across
a sweep's three settings, so a slow stretch of the machine hits every
setting of the sweep rather than one of them.
"""

import pytest

from common import write_table
from repro import create
from repro.datasets import make_clustered

ALGORITHMS = ("kgraph", "hnsw", "nsg", "hcnng", "nssg")
NUM_QUERIES = 200
TIMED_PASSES = 5

SWEEPS = {
    "dim": [
        ("d=8", dict(dim=8, cardinality=1200, num_clusters=10, std_dev=5.0)),
        ("d=32", dict(dim=32, cardinality=1200, num_clusters=10, std_dev=5.0)),
        ("d=128", dict(dim=128, cardinality=1200, num_clusters=10, std_dev=5.0)),
    ],
    "cardinality": [
        ("n=500", dict(dim=32, cardinality=500, num_clusters=10, std_dev=5.0)),
        ("n=1200", dict(dim=32, cardinality=1200, num_clusters=10, std_dev=5.0)),
        ("n=2400", dict(dim=32, cardinality=2400, num_clusters=10, std_dev=5.0)),
    ],
    "clusters": [
        ("c=1", dict(dim=32, cardinality=1200, num_clusters=1, std_dev=5.0)),
        ("c=10", dict(dim=32, cardinality=1200, num_clusters=10, std_dev=5.0)),
        ("c=100", dict(dim=32, cardinality=1200, num_clusters=100, std_dev=5.0)),
    ],
    "std_dev": [
        ("s=1", dict(dim=32, cardinality=1200, num_clusters=10, std_dev=1.0)),
        ("s=5", dict(dim=32, cardinality=1200, num_clusters=10, std_dev=5.0)),
        ("s=10", dict(dim=32, cardinality=1200, num_clusters=10, std_dev=10.0)),
    ],
}

_rows: dict[tuple[str, str, str], tuple] = {}


@pytest.mark.parametrize("knob", sorted(SWEEPS))
@pytest.mark.parametrize("algorithm_name", ALGORITHMS)
def test_scalability(benchmark, algorithm_name, knob):
    def sweep():
        cells = []
        for label, params in SWEEPS[knob]:
            dataset = make_clustered(
                **params, num_queries=NUM_QUERIES, gt_depth=20, seed=1,
                name=label,
            )
            index = create(algorithm_name, seed=0)
            index.build(dataset.base)
            cells.append((label, index, dataset))
        best = {}
        for _ in range(TIMED_PASSES):
            for label, index, dataset in cells:
                stats = index.evaluate(
                    dataset.queries, dataset.ground_truth, k=10, ef=60
                )
                if label not in best or stats.qps > best[label].qps:
                    best[label] = stats
        return [
            (label, index.build_report.build_time_s, best[label])
            for label, index, _ in cells
        ]

    for label, build_s, stats in benchmark.pedantic(sweep, rounds=1, iterations=1):
        _rows[(algorithm_name, knob, label)] = (build_s, stats.qps, stats.recall)


def test_zzz_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = []
    for knob in sorted(SWEEPS):
        labels = [label for label, _ in SWEEPS[knob]]
        lines.append(f"--- {knob} sweep: CT(s) / QPS per setting ---")
        header = f"{'algorithm':10s} " + " ".join(f"{lab:>19s}" for lab in labels)
        lines.append(header)
        for name in ALGORITHMS:
            cells = []
            for label in labels:
                row = _rows.get((name, knob, label))
                if row is None:
                    cells.append(f"{'-':>19s}")
                else:
                    build_s, qps, _ = row
                    cells.append(f"{build_s:8.2f}s {qps:8.1f}q")
            lines.append(f"{name:10s} " + " ".join(cells))
    write_table("table12_scalability", "Table 12: synthetic-dataset scalability", lines)

    # QPS must fall as dimensionality rises, for every algorithm that ran
    for name in ALGORITHMS:
        low = _rows.get((name, "dim", "d=8"))
        high = _rows.get((name, "dim", "d=128"))
        if low and high:
            assert high[1] < low[1], f"{name}: QPS should drop from d=8 to d=128"
