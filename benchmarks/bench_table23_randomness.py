"""Table 23 / Appendix Q — variance of the randomized algorithms.

Vamana (random initialization) and NSSG (random seeds) are built and
searched under three different seeds.  Paper shape: single trials sit
very close to the average — the randomized parts do not destabilise
either construction or search.
"""

import numpy as np
import pytest

from common import get_dataset, write_table
from repro import create

DATASET = "sift1m"
TRIALS = (0, 1, 2)

_rows: dict[tuple[str, int], tuple] = {}


@pytest.mark.parametrize("algorithm_name", ("vamana", "nssg"))
def test_randomized_trials(benchmark, algorithm_name):
    dataset = get_dataset(DATASET)

    def run_trials():
        out = []
        for trial in TRIALS:
            index = create(algorithm_name, seed=trial)
            index.build(dataset.base)
            stats = index.evaluate(
                dataset.queries, dataset.ground_truth, k=10, ef=60
            )
            out.append(
                (trial, index.build_report.build_time_s,
                 index.index_size_bytes(), stats.recall)
            )
        return out

    for trial, build_s, size, recall in benchmark.pedantic(
        run_trials, rounds=1, iterations=1
    ):
        _rows[(algorithm_name, trial)] = (build_s, size, recall)


def test_zzz_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = [
        f"{'algorithm':8s} {'trial':>5s} {'ICT(s)':>7s} {'IS(K)':>8s} "
        f"{'recall@10':>9s}"
    ]
    for name in ("vamana", "nssg"):
        recalls = []
        for trial in TRIALS:
            row = _rows.get((name, trial))
            if row is None:
                continue
            build_s, size, recall = row
            recalls.append(recall)
            lines.append(
                f"{name:8s} {trial:5d} {build_s:7.2f} {size / 1024:8.1f} "
                f"{recall:9.3f}"
            )
        if recalls:
            lines.append(
                f"{name:8s}  avg {'':7s} {'':8s} {np.mean(recalls):9.3f} "
                f"(spread {max(recalls) - min(recalls):.3f})"
            )
            # Appendix Q: single trials sit close to the average
            assert max(recalls) - min(recalls) < 0.15
    write_table(
        "table23_randomness", "Table 23: multi-trial variance", lines
    )
