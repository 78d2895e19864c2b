"""Tests for the §6-outlook extensions: attribute filtering and I/O model."""

import numpy as np
import pytest

from repro import create
from repro.datasets import brute_force_knn, make_clustered
from repro.extensions import AttributeFilteredIndex, DiskIOModel
from repro.extensions.io_model import StorageProfile


@pytest.fixture(scope="module")
def world():
    ds = make_clustered(16, 500, 5, 4.0, num_queries=15, gt_depth=50, seed=23)
    index = create("hnsw", seed=1)
    index.build(ds.base)
    rng = np.random.default_rng(0)
    attributes = [
        {"color": ("red" if flag else "blue"), "price": int(price)}
        for flag, price in zip(rng.random(ds.n) < 0.5, rng.integers(1, 100, ds.n))
    ]
    return ds, index, attributes


class TestAttributeFilter:
    def test_requires_built_base(self):
        with pytest.raises(RuntimeError):
            AttributeFilteredIndex(create("hnsw"), [])

    def test_attribute_count_validated(self, world):
        _, index, _ = world
        with pytest.raises(ValueError):
            AttributeFilteredIndex(index, [{}] * 3)

    def test_all_results_satisfy_predicate(self, world):
        ds, index, attributes = world
        filtered = AttributeFilteredIndex(index, attributes)
        result = filtered.search(
            ds.queries[0], lambda a: a["color"] == "red", k=10, ef=60
        )
        assert len(result.ids) > 0
        for idx in result.ids:
            assert attributes[int(idx)]["color"] == "red"

    def test_matches_filtered_brute_force(self, world):
        ds, index, attributes = world
        filtered = AttributeFilteredIndex(index, attributes)
        red_ids = np.asarray(
            [i for i, a in enumerate(attributes) if a["color"] == "red"]
        )
        query = ds.queries[1]
        truth, _ = brute_force_knn(ds.base[red_ids], query[None, :], 5)
        expected = set(red_ids[truth[0]].tolist())
        result = filtered.search(
            query, lambda a: a["color"] == "red", k=5, ef=80
        )
        overlap = len(expected & set(result.ids.tolist()))
        assert overlap >= 4  # near-exact filtered recall

    def test_range_predicate(self, world):
        ds, index, attributes = world
        filtered = AttributeFilteredIndex(index, attributes)
        result = filtered.search(
            ds.queries[2], lambda a: a["price"] < 30, k=5, ef=60
        )
        for idx in result.ids:
            assert attributes[int(idx)]["price"] < 30

    def test_impossible_predicate_returns_empty(self, world):
        ds, index, attributes = world
        filtered = AttributeFilteredIndex(index, attributes)
        result = filtered.search(ds.queries[0], lambda a: False, k=5, ef=40)
        assert len(result.ids) == 0

    def test_selective_predicate_costs_more(self, world):
        ds, index, attributes = world
        filtered = AttributeFilteredIndex(index, attributes)
        loose = filtered.search(ds.queries[3], lambda a: True, k=10, ef=40)
        tight = filtered.search(
            ds.queries[3], lambda a: a["price"] < 10, k=10, ef=40
        )
        assert tight.hops >= loose.hops


    def test_hop_cap_degrades(self, world):
        ds, index, attributes = world
        filtered = AttributeFilteredIndex(index, attributes)
        cut = filtered.search(
            ds.queries[4], lambda a: a["price"] < 3, k=10, ef=40, max_hops=10
        )
        assert cut.hops == 10
        assert cut.degraded
        assert cut.budget.limit == "hops"
        loose = filtered.search(ds.queries[4], lambda a: True, k=10, ef=40)
        assert not loose.degraded and loose.budget is None


class TestFilterIndexState:
    """Records are read and ids returned in original-id order, and
    tombstoned vertices never come back."""

    @pytest.fixture()
    def reordered(self, world):
        ds, _, attributes = world
        index = create("nsg", seed=1)
        index.build(ds.base)
        index.reorder("bfs")
        return ds, index, attributes

    def test_unfiltered_matches_search(self, reordered):
        ds, index, attributes = reordered
        filtered = AttributeFilteredIndex(index, attributes)
        for query in ds.queries[:5]:
            plain = index.search(query, k=10, ef=40).ids
            result = filtered.search(query, lambda a: True, k=10, ef=40)
            assert len(set(plain.tolist()) & set(result.ids.tolist())) >= 9

    def test_predicate_reads_original_records(self, reordered):
        ds, index, attributes = reordered
        filtered = AttributeFilteredIndex(index, attributes)
        red_ids = np.asarray(
            [i for i, a in enumerate(attributes) if a["color"] == "red"]
        )
        query = ds.queries[1]
        truth, _ = brute_force_knn(ds.base[red_ids], query[None, :], 5)
        result = filtered.search(
            query, lambda a: a["color"] == "red", k=5, ef=80
        )
        for idx in result.ids:
            assert attributes[int(idx)]["color"] == "red"
        assert len(set(red_ids[truth[0]].tolist()) & set(result.ids.tolist())) >= 4

    def test_deleted_ids_never_returned(self, world):
        ds, _, attributes = world
        index = create("nsg", seed=1)
        index.build(ds.base)
        filtered = AttributeFilteredIndex(index, attributes)
        query = ds.queries[0]
        nearest = index.search(query, k=10, ef=40).ids[:3]
        for vertex in nearest.tolist():
            index.delete(vertex)
        result = filtered.search(query, lambda a: True, k=10, ef=40)
        assert len(result.ids) == 10
        assert not set(nearest.tolist()) & set(result.ids.tolist())


class TestIOModel:
    def test_profiles_ordered_by_latency(self):
        assert StorageProfile.ram().read_latency_s < StorageProfile.ssd().read_latency_s
        assert StorageProfile.ssd().read_latency_s < StorageProfile.hdd().read_latency_s

    def test_latency_formula(self, world):
        ds, index, _ = world
        model = DiskIOModel(StorageProfile.ssd())
        estimate = model.evaluate(index, ds, k=10, ef=40)
        expected = (
            estimate.io_count * 1e-4 + estimate.ndc * 5e-8
        )
        assert estimate.latency_s == pytest.approx(expected)

    def test_slower_storage_costs_more(self, world):
        ds, index, _ = world
        stats = index.evaluate(ds.queries, ds.ground_truth, k=10, ef=40)
        ssd = DiskIOModel(StorageProfile.ssd()).estimate(stats)
        hdd = DiskIOModel(StorageProfile.hdd()).estimate(stats)
        assert hdd.latency_s > ssd.latency_s

    def test_path_length_dominates_on_disk(self, world):
        """Table 7 S3's rationale: on slow storage, hops dominate NDC."""
        ds, index, _ = world
        stats = index.evaluate(ds.queries, ds.ground_truth, k=10, ef=40)
        hdd = DiskIOModel(StorageProfile.hdd()).estimate(stats)
        io_part = hdd.io_count * StorageProfile.hdd().read_latency_s
        compute_part = hdd.ndc * StorageProfile.hdd().compute_per_distance_s
        assert io_part > compute_part
