"""External-memory cost model for graph search.

Table 7's S3 recommendation (DPG/HCNNG for data on SSD) rests on the
observation that the *query path length* determines the number of I/O
round trips when vectors live on external storage (§5.3, citing
DiskANN [88]).  This model makes that argument executable: given a
built index and a storage profile, it estimates per-query latency as

    latency = hops * read_latency + ndc * compute_per_distance

so the PL-vs-NDC tradeoff between algorithms can be compared under
different storage speeds (the crossover moves as storage slows down).

Compressed (ADC) traversal changes the I/O shape entirely: the walk
reads only resident uint8 codes and its per-query LUT, so the storage
tier is touched *once per re-ranked candidate* instead of once per hop
— ``rerank_factor * k`` random row reads per query, independent of
``ef``.  :meth:`DiskIOModel.estimate_compressed` prices that regime;
``tests/test_compressed.py::TestPersistence::test_mmap_rerank_reads_match_io_model``
checks the predicted read count against the measured ``rerank_ndc``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import BatchStats, GraphANNS
from repro.datasets.dataset import Dataset

__all__ = ["DiskIOModel", "StorageProfile", "IOEstimate",
           "CompressedIOEstimate"]


@dataclass(frozen=True)
class StorageProfile:
    """Latency parameters of one storage tier."""

    name: str
    read_latency_s: float        # one vertex-block fetch
    compute_per_distance_s: float

    @classmethod
    def ram(cls) -> "StorageProfile":
        """In-memory serving: compute-only latency."""
        return cls("ram", read_latency_s=0.0, compute_per_distance_s=5e-8)

    @classmethod
    def ssd(cls) -> "StorageProfile":
        """NVMe-class storage (DiskANN's regime)."""
        return cls("ssd", read_latency_s=1e-4, compute_per_distance_s=5e-8)

    @classmethod
    def hdd(cls) -> "StorageProfile":
        """Spinning disk: I/O utterly dominates."""
        return cls("hdd", read_latency_s=5e-3, compute_per_distance_s=5e-8)


@dataclass(frozen=True)
class IOEstimate:
    """Modelled per-query cost for one (index, storage) pair."""

    io_count: float
    ndc: float
    latency_s: float


@dataclass(frozen=True)
class CompressedIOEstimate:
    """Modelled per-query cost of compressed (ADC) traversal.

    ``io_count`` is the number of storage reads — the exact re-rank's
    row fetches, nothing else, because the traversal itself touches only
    resident codes.  ``adc_lookups`` are priced as cache-speed table
    gathers (``adc_lookup_s``), not distance computations.
    """

    io_count: float
    adc_lookups: float
    rerank_ndc: float
    latency_s: float


class DiskIOModel:
    """Estimate external-memory query latency from measured search stats."""

    def __init__(self, profile: StorageProfile):
        self.profile = profile

    def estimate(self, stats: BatchStats) -> IOEstimate:
        """Cost model applied to measured batch statistics."""
        latency = (
            stats.mean_hops * self.profile.read_latency_s
            + stats.mean_ndc * self.profile.compute_per_distance_s
        )
        return IOEstimate(
            io_count=stats.mean_hops, ndc=stats.mean_ndc, latency_s=latency
        )

    def evaluate(
        self,
        index: GraphANNS,
        dataset: Dataset,
        k: int = 10,
        ef: int | None = None,
    ) -> IOEstimate:
        """Measure a query batch and apply the cost model."""
        stats = index.evaluate(
            dataset.queries, dataset.ground_truth, k=k, ef=ef
        )
        return self.estimate(stats)

    #: one LUT gather — an L1/L2 access, orders of magnitude below a
    #: full d-dimensional distance
    ADC_LOOKUP_S = 2e-9

    def estimate_compressed(
        self,
        adc_lookups: float,
        rerank_ndc: float,
        adc_lookup_s: float | None = None,
    ) -> CompressedIOEstimate:
        """Cost model for a compressed query.

        The traversal performs ``adc_lookups`` table gathers against
        resident memory; only the exact re-rank reaches the vector
        tier, costing one row read plus one true distance per pooled
        candidate.
        """
        adc_lookup_s = self.ADC_LOOKUP_S if adc_lookup_s is None else adc_lookup_s
        latency = (
            rerank_ndc * self.profile.read_latency_s
            + rerank_ndc * self.profile.compute_per_distance_s
            + adc_lookups * adc_lookup_s
        )
        return CompressedIOEstimate(
            io_count=rerank_ndc, adc_lookups=adc_lookups,
            rerank_ndc=rerank_ndc, latency_s=latency,
        )

    def evaluate_compressed(
        self,
        index: GraphANNS,
        dataset: Dataset,
        k: int = 10,
        ef: int | None = None,
        rerank_factor: int | None = None,
    ) -> CompressedIOEstimate:
        """Measure a compressed query batch and apply the cost model."""
        from repro.batch import search_batch

        result = search_batch(
            index, dataset.queries, k=k, ef=ef,
            compressed=True, rerank_factor=rerank_factor,
        )
        return self.estimate_compressed(
            float(np.mean(result.adc_lookups)),
            float(np.mean(result.rerank_ndc)),
        )
