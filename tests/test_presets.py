"""Tests for the tuned-parameter presets and seed-provider swaps."""

import numpy as np
import pytest

from repro import ALGORITHMS, create
from repro.components.routing import best_first_search
from repro.datasets import make_clustered
from repro.distance import DistanceCounter
from repro.presets import PRESETS, apply_seed_provider, create_tuned, tuned_params


class TestPresets:
    def test_all_preset_algorithms_registered(self):
        for (algorithm, _dataset) in PRESETS:
            assert algorithm in ALGORITHMS

    def test_missing_preset_returns_empty(self):
        assert tuned_params("hnsw", "no-such-dataset") == {}

    def test_create_tuned_falls_back_to_defaults(self):
        index = create_tuned("hnsw", "no-such-dataset")
        assert index.name == "hnsw"

    def test_overrides_win(self):
        index = create_tuned("hnsw", "sift1m", m=3)
        assert index.m == 3

    def test_presets_are_constructible(self):
        for (algorithm, _dataset), params in PRESETS.items():
            index = create_tuned(algorithm, _dataset)
            for key, value in params.items():
                assert getattr(index, key) == value

    def test_tuned_params_returns_copy(self):
        first = tuned_params("hnsw", "sift1m")
        first["m"] = 999
        assert tuned_params("hnsw", "sift1m").get("m") != 999


class TestSeedProviderSwap:
    """A swapped-in provider seeds the shared best-first walk on every
    algorithm — HNSW and SPTAG included, whose own seeding (the
    upper-layer descent, the tree lookups) is just their provider."""

    @pytest.mark.parametrize("name", ["hnsw", "sptag-kdt", "sptag-bkt"])
    def test_walk_starts_from_swapped_seeds(self, name):
        ds = make_clustered(16, 400, 5, 4.0, num_queries=20, gt_depth=10,
                            seed=4)
        index = create(name, seed=0)
        index.build(ds.base)
        provider = apply_seed_provider(index, "lsh")
        for query in ds.queries:
            counter = DistanceCounter()
            seeds = provider.acquire(query, counter)
            walk = best_first_search(index.graph, index.data, query, seeds,
                                     30, counter)
            result = index.search(query, k=5, ef=30)
            np.testing.assert_array_equal(result.ids, walk.ids[:5])
            assert (result.ndc, result.hops) == (counter.count, walk.hops)
