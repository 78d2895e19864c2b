"""Tests for the §5.5 ML-based optimizations (ML1/ML2/ML3)."""

import numpy as np
import pytest

from repro import create
from repro.datasets import make_clustered
from repro.metrics import recall_at_k
from repro.ml import ML1LearnedRouting, ML2EarlyTermination, ML3DimensionReduction


@pytest.fixture(scope="module")
def world():
    ds = make_clustered(24, 700, 6, 4.0, num_queries=20, gt_depth=30, seed=17)
    base = create("nsg", seed=1)
    base.build(ds.base)
    return ds, base


@pytest.fixture(scope="module")
def reordered():
    """A BFS-reordered NSG: internal ids differ from the original ones."""
    ds = make_clustered(16, 400, 4, 4.0, num_queries=20, gt_depth=10, seed=5)
    base = create("nsg", seed=1)
    base.build(ds.base)
    base.reorder("bfs")
    return ds, base


def mean_recall_ndc(searcher, ds, k=10, ef=50):
    recalls, ndcs = [], []
    for i, query in enumerate(ds.queries):
        result = searcher.search(query, k=k, ef=ef)
        recalls.append(recall_at_k(result.ids, ds.ground_truth[i], k))
        ndcs.append(result.ndc)
    return float(np.mean(recalls)), float(np.mean(ndcs))


class TestML1:
    def test_requires_built_base(self):
        with pytest.raises(RuntimeError):
            ML1LearnedRouting(create("nsg"))

    def test_requires_fit(self, world):
        _, base = world
        wrapper = ML1LearnedRouting(base, epochs=1)
        with pytest.raises(RuntimeError):
            wrapper.search(np.zeros(24, dtype=np.float32))

    def test_reduces_ndc_at_similar_recall(self, world):
        ds, base = world
        wrapper = ML1LearnedRouting(base, epochs=5, seed=0).fit()
        base_recall, base_ndc = mean_recall_ndc(base, ds)
        ml_recall, ml_ndc = mean_recall_ndc(wrapper, ds)
        assert ml_ndc < base_ndc              # fewer distance computations
        assert ml_recall >= base_recall - 0.1  # at most a mild recall cost

    def test_memory_bill(self, world):
        _, base = world
        wrapper = ML1LearnedRouting(base, num_landmarks=16, epochs=1).fit()
        # Table 6's point: the learned representations dwarf the graph
        assert wrapper.memory_bytes > base.graph.index_size_bytes()
        assert wrapper.preprocessing_time_s > 0

    def test_weights_nonnegative(self, world):
        _, base = world
        wrapper = ML1LearnedRouting(base, epochs=3, seed=0).fit()
        assert np.all(wrapper.weights >= 0)


class TestML2:
    def test_requires_fit(self, world):
        _, base = world
        wrapper = ML2EarlyTermination(base)
        with pytest.raises(RuntimeError):
            wrapper.search(np.zeros(24, dtype=np.float32))

    def test_high_recall_with_fewer_hops(self, world):
        ds, base = world
        wrapper = ML2EarlyTermination(base, seed=0).fit(ds.queries[:8], ef=60)
        recalls, hops = [], []
        base_hops = []
        for i, query in enumerate(ds.queries):
            result = wrapper.search(query, k=10, ef=60)
            recalls.append(recall_at_k(result.ids, ds.ground_truth[i], 10))
            hops.append(result.hops)
            base_hops.append(base.search(query, k=10, ef=60).hops)
        assert np.mean(recalls) >= 0.9
        assert np.mean(hops) <= np.mean(base_hops)

    def test_learned_cap_applies_when_warmup_hop_finds_nothing(self, world):
        """The cap is set after hop ``warmup_hops`` even when that hop
        evaluates no fresh neighbor: zero coefficients cap every walk
        at ``warmup_hops + 1`` hops."""
        ds, base = world
        wrapper = ML2EarlyTermination(base, warmup_hops=20)
        wrapper.coefficients = np.zeros(4)
        for query in ds.queries:
            assert wrapper.search(query, k=10, ef=50).hops <= 21

    def test_preprocessing_time_recorded(self, world):
        ds, base = world
        wrapper = ML2EarlyTermination(base).fit(ds.queries[:5], ef=40)
        assert wrapper.preprocessing_time_s > 0


class TestIndexState:
    """The wrappers walk the index as ``search()`` does: original ids
    out, tombstones dropped."""

    def test_ml1_answers_in_original_ids(self, reordered):
        ds, base = reordered
        wrapper = ML1LearnedRouting(base, epochs=3, seed=0).fit()
        base_recall, _ = mean_recall_ndc(base, ds)
        ml_recall, _ = mean_recall_ndc(wrapper, ds)
        assert base_recall >= 0.9
        assert ml_recall >= base_recall - 0.1

    def test_ml2_answers_in_original_ids(self, reordered):
        ds, base = reordered
        wrapper = ML2EarlyTermination(base, seed=0).fit(ds.queries[:8], ef=50)
        base_recall, _ = mean_recall_ndc(base, ds)
        ml_recall, _ = mean_recall_ndc(wrapper, ds)
        assert ml_recall >= base_recall - 0.1

    @pytest.mark.parametrize("kind", ["ml1", "ml2"])
    def test_deleted_ids_never_returned(self, kind):
        ds = make_clustered(16, 400, 4, 4.0, num_queries=5, gt_depth=10,
                            seed=5)
        base = create("nsg", seed=1)
        base.build(ds.base)
        query = ds.queries[0]
        nearest = base.search(query, k=10, ef=50).ids[:3]
        for vertex in nearest.tolist():
            base.delete(vertex)
        if kind == "ml1":
            wrapper = ML1LearnedRouting(base, epochs=3, seed=0).fit()
        else:
            wrapper = ML2EarlyTermination(base, seed=0).fit(ds.queries, ef=50)
        result = wrapper.search(query, k=10, ef=50)
        assert len(result.ids) == 10
        assert not set(nearest.tolist()) & set(result.ids.tolist())


class TestML3:
    def test_requires_fit(self):
        wrapper = ML3DimensionReduction(lambda: create("nsg"))
        with pytest.raises(RuntimeError):
            wrapper.search(np.zeros(24, dtype=np.float32))

    @pytest.mark.slow
    def test_search_in_reduced_space(self, world):
        ds, _ = world
        wrapper = ML3DimensionReduction(
            lambda: create("nsg", seed=1), target_dim=12
        ).fit(ds.base)
        recall, ndc = mean_recall_ndc(wrapper, ds)
        assert recall >= 0.8
        # reduced-space distances are charged fractionally, so NDC drops
        base = create("nsg", seed=1)
        base.build(ds.base)
        base_recall, base_ndc = mean_recall_ndc(base, ds)
        assert ndc < base_ndc

    def test_memory_and_time_bill(self, world):
        ds, _ = world
        wrapper = ML3DimensionReduction(
            lambda: create("nsg", seed=1), target_dim=8
        ).fit(ds.base)
        assert wrapper.memory_bytes > 0
        assert wrapper.preprocessing_time_s > 0

    def test_target_dim_clamped(self, world):
        ds, _ = world
        wrapper = ML3DimensionReduction(
            lambda: create("kgraph", seed=1), target_dim=10_000
        ).fit(ds.base)
        assert wrapper.components.shape[0] <= ds.dim
