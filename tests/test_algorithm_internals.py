"""White-box tests of algorithm-specific construction mechanics."""

import numpy as np
import pytest

from repro import create
from repro.algorithms.hnsw import HNSW, TopLayerSeeds, _greedy_step
from repro.algorithms.ngt import NGTOnng, NGTPanng
from repro.algorithms.sptag import SPTAGKDT
from repro.distance import DistanceCounter


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(44)
    return rng.normal(size=(400, 12)).astype(np.float32)


class TestHNSWInternals:
    def test_entry_point_lives_on_top_layer(self, cloud):
        hnsw = HNSW(seed=3)
        hnsw.build(cloud)
        top_nonempty = [
            layer
            for layer in range(hnsw.max_level, 0, -1)
            if any(hnsw.layers[layer].neighbors(v) for v in range(len(cloud)))
        ]
        if top_nonempty:
            top = top_nonempty[0]
            # the entry point must be present (connected) on the top
            # populated layer or be its only occupant
            occupants = [
                v for v in range(len(cloud))
                if hnsw.layers[top].neighbors(v)
            ]
            assert hnsw.entry_point in occupants or len(occupants) == 0

    def test_upper_layers_sparser(self, cloud):
        hnsw = HNSW(seed=3)
        hnsw.build(cloud)
        if hnsw.max_level >= 1:
            # every vertex drawn above layer 0 is wired into its layers
            assert (
                0 < hnsw.layers[1].num_edges < hnsw.layers[0].num_edges
            )

    def test_base_layer_degree_bounded(self, cloud):
        hnsw = HNSW(m=8, seed=3)
        hnsw.build(cloud)
        assert hnsw.graph.max_out_degree <= hnsw.m0

    def test_greedy_step_descends(self, cloud):
        hnsw = HNSW(seed=3)
        hnsw.build(cloud)
        counter = DistanceCounter()
        query = cloud[5] + 0.01
        entry = hnsw.entry_point
        landed = _greedy_step(hnsw.layers[0], hnsw.data, entry, query, counter)
        d_entry = np.linalg.norm(cloud[entry] - query)
        d_landed = np.linalg.norm(cloud[landed] - query)
        assert d_landed <= d_entry + 1e-6

    def test_descent_is_seed_acquisition(self, cloud):
        """The upper-layer descent is HNSW's C6: its distances are the
        acquisition NDC and its landing vertex the walk's one seed."""
        hnsw = HNSW(seed=3)
        hnsw.build(cloud)
        assert isinstance(hnsw.seed_provider, TopLayerSeeds)
        query = cloud[5] + 0.01
        counter = DistanceCounter()
        seeds = hnsw.seed_provider.acquire(query, counter)
        entry = hnsw.entry_point
        expected = DistanceCounter()
        for layer in range(hnsw.max_level, 0, -1):
            entry = _greedy_step(hnsw.layers[layer], hnsw.data, entry, query,
                                 expected)
        assert seeds.tolist() == [entry]
        assert counter.count == expected.count >= hnsw.max_level
        assert hnsw.seed_provider.spec() == {
            "kind": "fixed", "ids": [hnsw.entry_point]
        }


class TestNGTInternals:
    def test_panng_degree_capped(self, cloud):
        ngt = NGTPanng(max_degree=12, seed=1)
        ngt.build(cloud)
        assert ngt.graph.max_out_degree <= 12

    def test_onng_out_edges_respected_before_reverse(self, cloud):
        ngt = NGTOnng(out_edges=6, in_edges=4, max_degree=10, seed=1)
        ngt.build(cloud)
        # path adjustment caps at max_degree; out-degree adjustment means
        # the average should sit well below the raw ANNG's
        assert ngt.graph.average_out_degree <= 10

    def test_onng_boosts_in_degree(self, cloud):
        sparse = NGTOnng(out_edges=4, in_edges=1, max_degree=8, seed=1)
        sparse.build(cloud)
        boosted = NGTOnng(out_edges=4, in_edges=8, max_degree=8, seed=1)
        boosted.build(cloud)

        def min_in_degree(graph):
            incoming = np.zeros(graph.n, dtype=np.int64)
            for _, v in graph.edges():
                incoming[v] += 1
            return incoming.min()

        assert min_in_degree(boosted.graph) >= min_in_degree(sparse.graph)


class TestSPTAGInternals:
    def test_merged_lists_valid(self, cloud):
        sptag = SPTAGKDT(k=8, num_divisions=3, seed=2)
        counter = DistanceCounter()
        ids, dists = sptag._merged_knn_lists(cloud, counter)
        assert ids.shape == (len(cloud), 8)
        assert np.all(ids >= 0)
        for v in range(0, len(cloud), 29):
            assert v not in ids[v]
            assert len(set(ids[v].tolist())) == 8

    def test_more_divisions_better_lists(self, cloud):
        from repro.graphs.knng import exact_knn_lists

        exact, _ = exact_knn_lists(cloud, 8)

        def quality(num_divisions):
            sptag = SPTAGKDT(k=8, num_divisions=num_divisions, seed=2)
            ids, _ = sptag._merged_knn_lists(cloud, DistanceCounter())
            return sum(
                len(set(ids[v]) & set(exact[v])) for v in range(len(cloud))
            )

        assert quality(4) >= quality(1)


class TestOAInternals:
    def test_fixed_entries_stable(self, cloud):
        oa = create("oa", seed=5)
        oa.build(cloud)
        first = oa.seed_provider.acquire(cloud[0])
        second = oa.seed_provider.acquire(cloud[1])
        np.testing.assert_array_equal(first, second)

    def test_entries_reach_everything(self, cloud):
        from repro.components.connectivity import _reachable_from

        oa = create("oa", seed=5)
        oa.build(cloud)
        entries = oa.seed_provider.acquire(cloud[0])
        assert _reachable_from(oa.graph, np.asarray(entries)).all()


class TestNNDescentChunking:
    def test_high_dim_auto_chunks(self):
        """The auto chunk size must shrink for high-dimensional data."""
        from repro.nndescent import nn_descent

        rng = np.random.default_rng(0)
        wide = rng.normal(size=(200, 512)).astype(np.float32)
        result = nn_descent(wide, 10, iterations=2, seed=0)
        assert result.ids.shape == (200, 10)

    def test_explicit_chunk_rows_honoured(self):
        from repro.nndescent import nn_descent

        rng = np.random.default_rng(1)
        data = rng.normal(size=(150, 8)).astype(np.float32)
        a = nn_descent(data, 6, iterations=3, seed=2, chunk_rows=7)
        b = nn_descent(data, 6, iterations=3, seed=2, chunk_rows=150)
        np.testing.assert_array_equal(a.ids, b.ids)
