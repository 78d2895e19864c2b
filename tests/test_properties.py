"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.components.routing import best_first_search
from repro.components.selection import select_rng_heuristic
from repro.datasets import brute_force_knn
from repro.graphs import Graph, exact_knn_graph, euclidean_mst
from repro.graphs.knng import exact_knn_lists

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def cloud(n: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, dim)).astype(np.float32)


class TestSearchInvariants:
    @given(seeds, st.integers(2, 6))
    @settings(max_examples=15, deadline=None)
    def test_full_ef_search_is_exact_on_connected_graph(self, seed, k):
        """With ef = n, BFS on a connected graph is a linear scan."""
        data = cloud(60, 6, seed)
        graph = exact_knn_graph(data, 8)
        for u, v in list(graph.edges()):
            graph.add_edge(v, u)
        for v in range(59):  # chain guarantees connectivity
            graph.add_undirected_edge(v, v + 1)
        graph.finalize()
        # asymmetric blend: a 50/50 midpoint would tie data[0] and data[1]
        query = data[0] * 0.71 + data[1] * 0.29
        result = best_first_search(
            graph, data, query, np.asarray([30]), ef=len(data)
        )
        truth, _ = brute_force_knn(data, query[None, :], k)
        assert set(result.top(k).tolist()) == set(truth[0].tolist())

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_search_only_returns_reachable_vertices(self, seed):
        data = cloud(50, 4, seed)
        # star graph: seed 0 connects to 1..9 only
        graph = Graph(50)
        for v in range(1, 10):
            graph.add_undirected_edge(0, v)
        graph.finalize()
        result = best_first_search(graph, data, data[20], np.asarray([0]), ef=30)
        assert set(result.ids.tolist()) <= set(range(10))

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_ndc_bounded_by_vertices(self, seed):
        data = cloud(80, 5, seed)
        graph = exact_knn_graph(data, 6).finalize()
        result = best_first_search(graph, data, data[3], np.asarray([40]), ef=20)
        assert result.ndc <= len(data)  # each vertex evaluated at most once


class TestSelectionInvariants:
    @given(seeds, st.integers(2, 30))
    @settings(max_examples=20, deadline=None)
    def test_selected_ids_unique_and_bounded(self, seed, max_degree):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(40, 5))
        point = data[0]
        cand = np.arange(1, 40)
        dists = np.linalg.norm(data[cand] - point, axis=1)
        order = np.argsort(dists)
        out = select_rng_heuristic(
            point, cand[order], dists[order], data, max_degree
        )
        assert len(out) == len(set(out.tolist()))
        assert len(out) <= max_degree


class TestExactStructures:
    @given(seeds, st.integers(3, 30))
    @settings(max_examples=20, deadline=None)
    def test_knng_rows_are_true_neighbors(self, seed, n):
        data = cloud(n, 3, seed).astype(np.float64)
        k = min(3, n - 1)
        ids, dists = exact_knn_lists(data, k)
        full = np.linalg.norm(data[:, None] - data[None, :], axis=2)
        np.fill_diagonal(full, np.inf)
        for i in range(n):
            assert dists[i][-1] <= np.sort(full[i])[k - 1] + 1e-9

    @given(seeds, st.integers(2, 25))
    @settings(max_examples=20, deadline=None)
    def test_mst_weight_leq_any_spanning_path(self, seed, n):
        """MST total weight <= the weight of the sequential path chain."""
        data = cloud(n, 3, seed).astype(np.float64)
        mst_weight = sum(w for _, _, w in euclidean_mst(data))
        chain = sum(
            float(np.linalg.norm(data[i] - data[i + 1])) for i in range(n - 1)
        )
        assert mst_weight <= chain + 1e-9


class TestRecallMonotonicity:
    @pytest.mark.parametrize("name", ["hnsw", "nsg", "kgraph"])
    def test_recall_nondecreasing_over_ef_grid(
        self, name, easy_dataset, built_indexes
    ):
        algorithm = built_indexes[name]
        recalls = []
        for ef in (10, 30, 90, 270):
            stats = algorithm.evaluate(
                easy_dataset.queries, easy_dataset.ground_truth, k=10, ef=ef
            )
            recalls.append(round(stats.recall, 6))
        # allow tiny non-monotonic wiggles from randomized seed providers
        for lo, hi in zip(recalls, recalls[1:]):
            assert hi >= lo - 0.02
