"""Search-performance sweeps: the QPS/Speedup-vs-Recall machinery.

Figures 7/8 (and 20/21) are produced by sweeping the candidate-set size
``ef`` and recording (recall, QPS, speedup) per point; Table 5's CS
column is the smallest ``ef`` reaching a target recall, with explicit
"ceiling" detection for algorithms whose recall saturates below the
target (the paper marks those with "+").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.base import BatchStats, GraphANNS
from repro.datasets.dataset import Dataset

__all__ = [
    "SweepPoint",
    "sweep_recall_curve",
    "candidate_size_for_recall",
    "CandidateSizeResult",
]

DEFAULT_EF_GRID = (10, 20, 30, 40, 60, 80, 120, 160, 240, 320, 480)


@dataclass(frozen=True)
class SweepPoint:
    """One point of a QPS/Speedup-vs-Recall curve."""

    ef: int
    recall: float
    qps: float
    speedup: float
    mean_ndc: float
    mean_hops: float


def sweep_recall_curve(
    algorithm: GraphANNS,
    dataset: Dataset,
    k: int = 10,
    ef_grid: tuple[int, ...] = DEFAULT_EF_GRID,
) -> list[SweepPoint]:
    """Evaluate the tradeoff curve over an ``ef`` grid (ascending)."""
    points = []
    for ef in ef_grid:
        stats = algorithm.evaluate(
            dataset.queries, dataset.ground_truth, k=k, ef=ef
        )
        points.append(
            SweepPoint(
                ef=ef,
                recall=stats.recall,
                qps=stats.qps,
                speedup=stats.speedup,
                mean_ndc=stats.mean_ndc,
                mean_hops=stats.mean_hops,
            )
        )
    return points


@dataclass(frozen=True)
class CandidateSizeResult:
    """Table 5 row fragment: CS (+ ceiling flag), PL and stats at CS."""

    candidate_size: int
    hit_ceiling: bool       # recall saturated below the target ("+" rows)
    recall: float
    mean_hops: float
    mean_ndc: float


def candidate_size_for_recall(
    algorithm: GraphANNS,
    dataset: Dataset,
    target_recall: float,
    k: int = 10,
    ef_grid: tuple[int, ...] = DEFAULT_EF_GRID,
) -> CandidateSizeResult:
    """Smallest ``ef`` whose recall reaches ``target_recall``.

    If even the largest grid value falls short, the largest is reported
    with ``hit_ceiling=True`` — the paper's "CS value with a +".
    """
    last: BatchStats | None = None
    for ef in ef_grid:
        stats = algorithm.evaluate(
            dataset.queries, dataset.ground_truth, k=k, ef=ef
        )
        last = stats
        if stats.recall >= target_recall:
            return CandidateSizeResult(
                candidate_size=ef,
                hit_ceiling=False,
                recall=stats.recall,
                mean_hops=stats.mean_hops,
                mean_ndc=stats.mean_ndc,
            )
    assert last is not None
    return CandidateSizeResult(
        candidate_size=ef_grid[-1],
        hit_ceiling=True,
        recall=last.recall,
        mean_hops=last.mean_hops,
        mean_ndc=last.mean_ndc,
    )
