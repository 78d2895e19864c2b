"""Tests for the evaluation harness and the §5.4 component framework."""

import numpy as np
import pytest

from repro.pipeline import (
    BENCHMARK_DEFAULTS,
    BenchmarkAlgorithm,
    candidate_size_for_recall,
    fit_power_law,
    sweep_recall_curve,
)


class TestPowerLaw:
    def test_exact_power(self):
        sizes = np.asarray([100, 1_000, 10_000])
        values = 3.0 * sizes.astype(float) ** 0.54
        exponent, coeff = fit_power_law(sizes, values)
        assert exponent == pytest.approx(0.54, abs=1e-9)
        assert coeff == pytest.approx(3.0, rel=1e-9)

    def test_linear(self):
        exponent, _ = fit_power_law([10, 100, 1000], [20, 200, 2000])
        assert exponent == pytest.approx(1.0, abs=1e-9)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law([10], [5])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1.0])


class TestSweeps:
    def test_curve_shape(self, easy_dataset, built_indexes):
        points = sweep_recall_curve(
            built_indexes["hnsw"], easy_dataset, k=10, ef_grid=(10, 40, 120)
        )
        assert [p.ef for p in points] == [10, 40, 120]
        recalls = [p.recall for p in points]
        assert recalls == sorted(recalls)
        # speedup decreases as ef (work) increases
        assert points[0].speedup >= points[-1].speedup

    def test_candidate_size_found(self, easy_dataset, built_indexes):
        result = candidate_size_for_recall(
            built_indexes["hnsw"], easy_dataset, 0.9, ef_grid=(10, 20, 40, 80, 160)
        )
        assert not result.hit_ceiling
        assert result.recall >= 0.9

    def test_ceiling_detected(self, easy_dataset, built_indexes):
        result = candidate_size_for_recall(
            built_indexes["hnsw"], easy_dataset, 1.01, ef_grid=(10, 20)
        )
        assert result.hit_ceiling
        assert result.candidate_size == 20


class TestBenchmarkFramework:
    def test_defaults_match_table13(self):
        assert BENCHMARK_DEFAULTS == {
            "c1": "nsg", "c2": "nssg", "c3": "hnsw",
            "c4": "nssg", "c5": "ieh", "c7": "nsw",
        }

    def test_invalid_choice_rejected(self):
        with pytest.raises(ValueError, match="c3="):
            BenchmarkAlgorithm(c3="bogus")

    def test_default_benchmark_works(self, tiny_dataset):
        bench = BenchmarkAlgorithm(seed=0, init_k=10, max_degree=10)
        bench.build(tiny_dataset.base)
        stats = bench.evaluate(
            tiny_dataset.queries, tiny_dataset.ground_truth, k=10, ef=40
        )
        assert stats.recall >= 0.8
        assert set(bench.phase_times) == {"c1", "c2+c3", "c5", "c4"}

    @pytest.mark.parametrize("c1", ["kgraph", "efanna", "ieh"])
    def test_c1_swaps(self, tiny_dataset, c1):
        bench = BenchmarkAlgorithm(c1=c1, seed=0, init_k=10, max_degree=10)
        bench.build(tiny_dataset.base)
        assert bench.graph.num_edges > 0

    @pytest.mark.parametrize("c2", ["dpg", "nsw"])
    def test_c2_swaps(self, tiny_dataset, c2):
        bench = BenchmarkAlgorithm(c2=c2, seed=0, init_k=10, max_degree=10)
        bench.build(tiny_dataset.base)
        stats = bench.evaluate(
            tiny_dataset.queries, tiny_dataset.ground_truth, k=10, ef=40
        )
        assert stats.recall > 0.5

    @pytest.mark.parametrize("c7", ["ngt", "fanng", "hcnng", "oa"])
    def test_c7_swaps(self, tiny_dataset, c7):
        bench = BenchmarkAlgorithm(c7=c7, seed=0, init_k=10, max_degree=10)
        bench.build(tiny_dataset.base)
        result = bench.search(tiny_dataset.queries[0], k=5, ef=30)
        assert len(result.ids) == 5

    def test_c5_nsg_ensures_reachability(self, tiny_dataset):
        from repro.components.connectivity import _reachable_from

        bench = BenchmarkAlgorithm(c5="nsg", seed=0, init_k=10, max_degree=10)
        bench.build(tiny_dataset.base)
        # the framework repairs from a random root; at least one vertex
        # must reach everything
        reachable_any = any(
            _reachable_from(bench.graph, np.asarray([r])).all()
            for r in range(0, bench.graph.n, 17)
        )
        assert reachable_any or bench.graph.num_connected_components() == 1

    def test_c3_distance_only_higher_gq(self, tiny_dataset):
        """§5.4 C3: distance-only selection maximises graph quality."""
        from repro.metrics import graph_quality

        distance_only = BenchmarkAlgorithm(
            c3="kgraph", seed=0, init_k=10, max_degree=10
        )
        distance_only.build(tiny_dataset.base)
        heuristic = BenchmarkAlgorithm(c3="hnsw", seed=0, init_k=10, max_degree=10)
        heuristic.build(tiny_dataset.base)
        gq_distance = graph_quality(distance_only.graph, tiny_dataset.base, k=10)
        gq_heuristic = graph_quality(heuristic.graph, tiny_dataset.base, k=10)
        assert gq_distance >= gq_heuristic

    def test_name_encodes_configuration(self):
        bench = BenchmarkAlgorithm(c3="dpg")
        assert "dpg" in bench.name
