"""Tests for the §5.1 metrics: recall, graph quality, degrees, memory."""

import numpy as np
import pytest

from repro.graphs import Graph, exact_knn_graph
from repro.graphs.knng import exact_knn_lists
from repro.metrics import (
    degree_stats,
    graph_index_stats,
    graph_quality,
    recall_at_k,
    search_memory_bytes,
)


class TestRecall:
    def test_perfect(self):
        assert recall_at_k(np.asarray([1, 2, 3]), np.asarray([3, 2, 1]), 3) == 1.0

    def test_partial(self):
        assert recall_at_k(np.asarray([1, 9, 8]), np.asarray([1, 2, 3]), 3) == pytest.approx(1 / 3)

    def test_short_result_penalised(self):
        assert recall_at_k(np.asarray([1]), np.asarray([1, 2, 3]), 3) == pytest.approx(1 / 3)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(np.asarray([1]), np.asarray([1]), 0)

    def test_only_first_k_considered(self):
        # extra result ids beyond k must not help
        assert recall_at_k(np.asarray([9, 1]), np.asarray([1, 2]), 1) == 0.0


class TestGraphQuality:
    @pytest.fixture(scope="class")
    def cloud(self):
        rng = np.random.default_rng(6)
        return rng.normal(size=(150, 8)).astype(np.float32)

    def test_exact_knng_scores_one(self, cloud):
        g = exact_knn_graph(cloud, 10)
        assert graph_quality(g, cloud, k=10) == pytest.approx(1.0)

    def test_empty_graph_scores_zero(self, cloud):
        assert graph_quality(Graph(len(cloud)), cloud, k=10) == 0.0

    def test_precomputed_exact_ids_match(self, cloud):
        g = exact_knn_graph(cloud, 10)
        exact_ids, _ = exact_knn_lists(cloud, 10)
        assert graph_quality(g, cloud, k=10) == graph_quality(
            g, cloud, k=10, exact_ids=exact_ids
        )

    def test_superset_graph_keeps_quality(self, cloud):
        g = exact_knn_graph(cloud, 10)
        g.add_edge(0, 100)  # extra edge cannot lower GQ
        assert graph_quality(g, cloud, k=10) == pytest.approx(1.0)

    def test_partial_quality(self, cloud):
        ids, _ = exact_knn_lists(cloud, 10)
        half = Graph(len(cloud), ids[:, :5].tolist())
        gq = graph_quality(half, cloud, k=10)
        assert 0.4 < gq < 0.6


class TestDegreeAndStats:
    def test_degree_stats(self):
        g = Graph(3, [[1, 2], [2], []])
        stats = degree_stats(g)
        assert stats.maximum == 2
        assert stats.minimum == 0
        assert stats.average == pytest.approx(1.0)

    def test_graph_index_stats_bundle(self):
        rng = np.random.default_rng(7)
        cloud = rng.normal(size=(80, 6)).astype(np.float32)
        g = exact_knn_graph(cloud, 5)
        stats = graph_index_stats(g, cloud, k=5)
        assert stats.graph_quality == pytest.approx(1.0)
        assert stats.average_out_degree == pytest.approx(5.0)
        assert stats.index_size_bytes == g.index_size_bytes()
        assert stats.connected_components >= 1


class TestSearchMemory:
    def test_components_add_up(self, easy_dataset, built_indexes):
        algorithm = built_indexes["nsg"]
        total = search_memory_bytes(algorithm, ef=50)
        assert total > algorithm.data.nbytes
        assert total > algorithm.index_size_bytes()

    def test_grows_with_ef(self, built_indexes):
        algorithm = built_indexes["nsg"]
        assert search_memory_bytes(algorithm, 500) > search_memory_bytes(algorithm, 10)

    def test_unbuilt_rejected(self):
        from repro import create

        with pytest.raises(RuntimeError):
            search_memory_bytes(create("kgraph"), 10)

    def test_tree_augmented_algorithms_cost_more(self, built_indexes):
        """Table 5 MO driver: attached index structures raise memory."""
        nsg = built_indexes["nsg"]
        efanna = built_indexes["efanna"]
        assert efanna.seed_provider.extra_bytes > nsg.seed_provider.extra_bytes


class TestLatencyPercentiles:
    def test_percentiles_populated_and_ordered(self, easy_dataset, built_indexes):
        stats = built_indexes["hnsw"].evaluate(
            easy_dataset.queries, easy_dataset.ground_truth, k=10, ef=40
        )
        assert stats.latency_p50_ms > 0
        assert stats.latency_p50_ms <= stats.latency_p95_ms <= stats.latency_p99_ms
