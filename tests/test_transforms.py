"""Tests for the cosine / MIPS metric reductions."""

import numpy as np
import pytest

from repro import create
from repro.transforms import (
    MetricIndex,
    augment_base_for_mips,
    augment_query_for_mips,
    normalize_for_cosine,
)


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(13)
    return (rng.normal(size=(400, 16)) * rng.uniform(0.5, 3.0, (400, 1))).astype(
        np.float32
    )


class TestTransforms:
    def test_normalization_unit_norm(self, vectors):
        unit = normalize_for_cosine(vectors)
        np.testing.assert_allclose(
            np.linalg.norm(unit, axis=1), 1.0, rtol=1e-5
        )

    def test_zero_vector_untouched(self):
        out = normalize_for_cosine(np.zeros((3, 4), dtype=np.float32))
        np.testing.assert_array_equal(out, 0.0)

    def test_mips_augmentation_equalises_norms(self, vectors):
        augmented, max_norm = augment_base_for_mips(vectors)
        assert augmented.shape == (len(vectors), 17)
        np.testing.assert_allclose(
            np.linalg.norm(augmented.astype(np.float64), axis=1),
            max_norm,
            rtol=1e-4,
        )

    def test_mips_l2_order_is_ip_order(self, vectors):
        """The reduction's whole point: augmented-L2 ranks == IP ranks."""
        augmented, _ = augment_base_for_mips(vectors)
        query = vectors[0] * 0.3
        aug_query = augment_query_for_mips(query)
        l2_order = np.argsort(
            np.linalg.norm(augmented - aug_query, axis=1)
        )[:10]
        ip_order = np.argsort(-(vectors @ query))[:10]
        assert set(l2_order.tolist()) == set(ip_order.tolist())


class TestMetricIndex:
    def test_invalid_metric_rejected(self):
        with pytest.raises(ValueError):
            MetricIndex(lambda: create("hnsw"), "manhattan")

    def test_search_before_build_rejected(self):
        index = MetricIndex(lambda: create("hnsw"), "cosine")
        with pytest.raises(RuntimeError):
            index.search(np.zeros(4, dtype=np.float32))

    def test_cosine_matches_brute_force(self, vectors):
        index = MetricIndex(lambda: create("hnsw", seed=1), "cosine").build(
            vectors
        )
        query = vectors[5] * 7.0  # scaling must not matter under cosine
        result = index.search(query, k=10, ef=80)
        sims = (vectors @ query) / (
            np.linalg.norm(vectors, axis=1) * np.linalg.norm(query)
        )
        expected = set(np.argsort(-sims)[:10].tolist())
        assert len(expected & set(result.ids.tolist())) >= 9
        # scores reported descending
        assert np.all(np.diff(result.dists) <= 1e-9)

    def test_ip_matches_brute_force(self, vectors):
        index = MetricIndex(lambda: create("hnsw", seed=1), "ip").build(vectors)
        query = vectors[3]
        result = index.search(query, k=10, ef=80)
        expected = set(np.argsort(-(vectors @ query))[:10].tolist())
        assert len(expected & set(result.ids.tolist())) >= 8

    @pytest.mark.slow
    def test_works_with_any_inner_algorithm(self, vectors):
        index = MetricIndex(lambda: create("nsg", seed=1), "cosine").build(
            vectors
        )
        result = index.search(vectors[0], k=5, ef=60)
        assert result.ids[0] == 0  # the vector itself has cosine 1.0
