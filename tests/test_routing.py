"""Tests for the C7 routing strategies (Definition 4.7 and variants)."""

import math

import numpy as np
import pytest

from repro.distance import DistanceCounter
from repro.graphs import Graph, exact_knn_graph
from repro.components.routing import Route, best_first_search

GUIDED = Route(guided_hops=math.inf)   # HCNNG
TWO_STAGE = Route(guided_hops=None)    # OA


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(400, 12)).astype(np.float32)
    graph = exact_knn_graph(data, 10)
    # undirect so every strategy can reach everywhere
    for u, v in list(graph.edges()):
        graph.add_edge(v, u)
    graph.finalize()
    return data, graph


def exact_top(data, query, k):
    return set(np.argsort(np.linalg.norm(data - query, axis=1))[:k].tolist())


class TestBestFirstSearch:
    def test_finds_exact_neighbors(self, world):
        data, graph = world
        query = data[0] + 0.01
        result = best_first_search(graph, data, query, np.asarray([200]), ef=60)
        assert len(exact_top(data, query, 10) & set(result.top(10).tolist())) >= 9

    def test_results_sorted(self, world):
        data, graph = world
        result = best_first_search(graph, data, data[5], np.asarray([100]), ef=30)
        assert np.all(np.diff(result.dists) >= -1e-9)

    def test_result_never_worse_than_seed(self, world):
        data, graph = world
        query = data[1] + 0.05
        seed = 399
        seed_dist = float(np.linalg.norm(data[seed] - query))
        result = best_first_search(graph, data, query, np.asarray([seed]), ef=20)
        assert result.dists[0] <= seed_dist + 1e-9

    def test_recall_monotone_in_ef(self, world):
        data, graph = world
        query = data[2] + 0.02
        truth = exact_top(data, query, 10)
        recalls = []
        for ef in (10, 40, 160):
            result = best_first_search(
                graph, data, query, np.asarray([300]), ef=ef
            )
            recalls.append(len(truth & set(result.top(10).tolist())))
        assert recalls == sorted(recalls)

    def test_ndc_hops_visited_reported(self, world):
        data, graph = world
        counter = DistanceCounter()
        result = best_first_search(
            graph, data, data[0], np.asarray([10]), ef=20, counter=counter
        )
        assert result.ndc == counter.count
        assert result.hops > 0
        assert result.visited >= len(result.ids)

    def test_duplicate_seeds_deduplicated(self, world):
        data, graph = world
        result = best_first_search(
            graph, data, data[0], np.asarray([5, 5, 5]), ef=20
        )
        assert len(set(result.ids.tolist())) == len(result.ids)

    def test_record_visited(self, world):
        data, graph = world
        result = best_first_search(
            graph, data, data[0], np.asarray([7]), ef=20, record_visited=True
        )
        assert result.visited_ids is not None
        assert len(result.visited_ids) == result.visited
        assert np.all(np.diff(result.visited_dists) >= -1e-9)
        # every result must be in the visited set
        assert set(result.ids.tolist()) <= set(result.visited_ids.tolist())

    def test_isolated_seed_returns_it(self):
        data = np.random.default_rng(0).normal(size=(5, 3)).astype(np.float32)
        graph = Graph(5).finalize()  # no edges at all
        result = best_first_search(graph, data, data[0], np.asarray([2]), ef=5)
        assert result.ids.tolist() == [2]


class TestRangeSearch:
    def test_epsilon_zero_close_to_bfs(self, world):
        data, graph = world
        query = data[3] + 0.02
        a = best_first_search(
            graph, data, query, np.asarray([50]), ef=30, route=Route(epsilon=0.0)
        )
        b = best_first_search(graph, data, query, np.asarray([50]), ef=30)
        assert set(a.top(10).tolist()) == set(b.top(10).tolist())

    def test_larger_epsilon_explores_more(self, world):
        data, graph = world
        query = data[3] + 0.02
        small = best_first_search(
            graph, data, query, np.asarray([50]), ef=30, route=Route(epsilon=0.0)
        )
        big = best_first_search(
            graph, data, query, np.asarray([50]), ef=30, route=Route(epsilon=0.5)
        )
        assert big.visited >= small.visited


class TestBacktrackingSearch:
    def test_explores_more_than_bfs(self, world):
        data, graph = world
        query = data[4] + 0.02
        plain = best_first_search(graph, data, query, np.asarray([60]), ef=20)
        back = best_first_search(
            graph, data, query, np.asarray([60]), ef=20,
            route=Route(backtracks=10),
        )
        assert back.visited >= plain.visited

    def test_accuracy_at_least_bfs(self, world):
        data, graph = world
        truth = exact_top(data, data[4] + 0.02, 10)
        plain = best_first_search(
            graph, data, data[4] + 0.02, np.asarray([60]), ef=15
        )
        back = best_first_search(
            graph, data, data[4] + 0.02, np.asarray([60]), ef=15,
            route=Route(backtracks=20),
        )
        assert len(truth & set(back.top(10).tolist())) >= len(
            truth & set(plain.top(10).tolist())
        )


class TestGuidedSearch:
    def test_visits_no_more_than_bfs(self, world):
        data, graph = world
        query = data[6] + 0.02
        plain = best_first_search(graph, data, query, np.asarray([70]), ef=30)
        guided = best_first_search(
            graph, data, query, np.asarray([70]), ef=30, route=GUIDED
        )
        assert guided.ndc <= plain.ndc

    def test_still_accurate(self, world):
        data, graph = world
        query = data[6] + 0.02
        truth = exact_top(data, query, 10)
        guided = best_first_search(
            graph, data, query, np.asarray([70]), ef=60, route=GUIDED
        )
        assert len(truth & set(guided.top(10).tolist())) >= 7


class TestTwoStageSearch:
    def test_accurate(self, world):
        data, graph = world
        query = data[9] + 0.02
        truth = exact_top(data, query, 10)
        result = best_first_search(
            graph, data, query, np.asarray([150]), ef=60, route=TWO_STAGE
        )
        assert len(truth & set(result.top(10).tolist())) >= 8

    def test_stats_accumulate_both_stages(self, world):
        data, graph = world
        counter = DistanceCounter()
        result = best_first_search(
            graph, data, data[9], np.asarray([150]), ef=40, counter=counter,
            route=TWO_STAGE,
        )
        assert result.ndc == counter.count
        assert result.hops > 0
