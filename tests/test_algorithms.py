"""Integration tests: every registered algorithm builds and searches well.

These are the library's core guarantees: on an easy dataset every
algorithm must reach high Recall@10, report coherent statistics, and be
deterministic under a fixed seed.
"""

import numpy as np
import pytest

from repro import ALGORITHMS, ALL_ALGORITHMS, create, info
from repro.algorithms.hnsw import HNSW
from repro.datasets import make_clustered
from repro.distance import DistanceCounter

ALL_NAMES = sorted(ALGORITHMS)


class TestRegistry:
    def test_thirteen_survey_algorithms(self):
        # 13 algorithms of §3.2, with NGT and SPTAG in two variants = 15
        assert len(ALL_ALGORITHMS) == 15

    def test_create_unknown_rejected(self):
        with pytest.raises(KeyError):
            create("faiss")

    def test_info(self):
        meta = info("hnsw")
        assert meta.base_graph == "DG+RNG"
        assert meta.construction == "increment"

    def test_table2_categories(self):
        assert info("kgraph").base_graph == "KNNG"
        assert info("hcnng").base_graph == "MST"
        assert info("nsw").edge_type == "undirected"
        assert info("sptag-kdt").construction == "divide-and-conquer"


@pytest.mark.parametrize("name", ALL_NAMES)
class TestEveryAlgorithm:
    def test_recall_on_easy_data(self, name, easy_dataset, built_indexes):
        algorithm = built_indexes[name]
        stats = algorithm.evaluate(
            easy_dataset.queries, easy_dataset.ground_truth, k=10, ef=80
        )
        assert stats.recall >= 0.85, f"{name} recall {stats.recall}"

    def test_search_stats_coherent(self, name, easy_dataset, built_indexes):
        algorithm = built_indexes[name]
        counter = DistanceCounter()
        result = algorithm.search(
            easy_dataset.queries[0], k=10, ef=40, counter=counter
        )
        assert len(result.ids) == 10
        assert result.ndc == counter.count
        assert result.ndc > 0
        assert result.hops >= 0
        assert np.all(np.diff(result.dists) >= -1e-9)
        assert np.all((0 <= result.ids) & (result.ids < easy_dataset.n))

    def test_build_report(self, name, built_indexes):
        report = built_indexes[name].build_report
        assert report is not None
        assert report.build_time_s > 0
        assert report.build_ndc > 0
        assert report.index_size_bytes > 0

    def test_no_self_loops(self, name, built_indexes):
        graph = built_indexes[name].graph
        for u in range(0, graph.n, 37):
            assert u not in graph.neighbors(u)

    def test_search_before_build_rejected(self, name):
        fresh = create(name)
        with pytest.raises(RuntimeError):
            fresh.search(np.zeros(8), k=1)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["kgraph", "hnsw", "nsg", "hcnng"])
    def test_same_seed_same_graph(self, name, tiny_dataset):
        a = create(name, seed=3)
        a.build(tiny_dataset.base)
        b = create(name, seed=3)
        b.build(tiny_dataset.base)
        assert a.graph.edge_set() == b.graph.edge_set()


class TestAlgorithmSpecifics:
    def test_nsw_has_hubs(self, built_indexes):
        """§3.2 A1: undirected incremental insertion creates hub vertices."""
        graph = built_indexes["nsw"].graph
        assert graph.max_out_degree > 2 * graph.average_out_degree

    def test_hnsw_has_layers(self, built_indexes):
        hnsw = built_indexes["hnsw"]
        assert isinstance(hnsw, HNSW)
        assert hnsw.max_level >= 1
        assert hnsw.index_size_bytes() > hnsw.graph.index_size_bytes()

    def test_ieh_graph_quality_is_one(self, easy_dataset, built_indexes):
        """Table 4: IEH's brute-force KNNG has GQ = 1.0."""
        from repro.metrics import graph_quality

        gq = graph_quality(built_indexes["ieh"].graph, easy_dataset.base, k=10)
        assert gq == pytest.approx(1.0)

    def test_rng_pruned_graphs_are_sparser_than_knng(self, built_indexes):
        """Figure 6 ordering: RNG-based indexes are smaller."""
        assert (
            built_indexes["nsg"].graph.average_out_degree
            < built_indexes["kgraph"].graph.average_out_degree
        )

    def test_dpg_is_undirected(self, built_indexes):
        graph = built_indexes["dpg"].graph
        for u in range(0, graph.n, 53):
            for v in graph.neighbors(u):
                assert u in graph.neighbors(v)

    def test_nsg_connected_from_medoid(self, easy_dataset, built_indexes):
        from repro.components.connectivity import _reachable_from

        nsg = built_indexes["nsg"]
        reachable = _reachable_from(nsg.graph, np.asarray([nsg.medoid]))
        assert reachable.all()

    def test_hcnng_degree_capped(self, built_indexes):
        hcnng = built_indexes["hcnng"]
        assert hcnng.graph.max_out_degree <= hcnng.max_degree

    def test_vamana_alpha_two_denser_than_alpha_one(self, tiny_dataset):
        sparse = create("vamana", alpha=1.0, seed=2)
        sparse.build(tiny_dataset.base)
        dense = create("vamana", alpha=2.0, seed=2)
        dense.build(tiny_dataset.base)
        assert (
            dense.graph.average_out_degree >= sparse.graph.average_out_degree
        )

    def test_kdr_stricter_than_panng(self, easy_dataset, built_indexes):
        """Appendix N: k-DR's strict rule yields smaller out-degree than
        NGT-panng would keep for the same budget (compared via AD)."""
        assert (
            built_indexes["kdr"].graph.average_out_degree
            <= built_indexes["ngt-panng"].graph.average_out_degree * 2.5
        )

    def test_oa_uses_two_stage_routing(self, easy_dataset, built_indexes):
        oa = built_indexes["oa"]
        result = oa.search(easy_dataset.queries[0], k=10, ef=40)
        assert result.hops > 0


class TestBatchSearch:
    def test_speedup_definition(self, easy_dataset, built_indexes):
        stats = built_indexes["hnsw"].evaluate(
            easy_dataset.queries, easy_dataset.ground_truth, k=10, ef=40
        )
        assert stats.speedup == pytest.approx(
            easy_dataset.n / stats.mean_ndc, rel=1e-6
        )

    def test_recall_monotone_in_ef(self, easy_dataset, built_indexes):
        algorithm = built_indexes["nsg"]
        low = algorithm.evaluate(
            easy_dataset.queries, easy_dataset.ground_truth, k=10, ef=10
        )
        high = algorithm.evaluate(
            easy_dataset.queries, easy_dataset.ground_truth, k=10, ef=120
        )
        assert high.recall >= low.recall

    def test_tiny_build_rejected(self):
        with pytest.raises(ValueError):
            create("kgraph").build(np.zeros((1, 4), dtype=np.float32))
