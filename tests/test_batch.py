"""Tests for the batched query engine (``repro.batch.search_batch``)."""

import copy

import numpy as np
import pytest

from repro import _native, create, faults
from repro import observability as obs
from repro.batch import search_batch
from repro.components.routing import best_first_search
from repro.components.seeding import FixedSeeds, RandomSeeds
from repro.datasets import make_clustered
from repro.distance import DistanceCounter
from repro.pipeline.framework import BenchmarkAlgorithm


@pytest.fixture(scope="module")
def world():
    ds = make_clustered(16, 600, 6, 4.0, num_queries=25, gt_depth=20, seed=29)
    index = create("hnsw", seed=1)
    index.build(ds.base)
    return ds, index


@pytest.fixture(scope="module")
def kgraph_world():
    ds = make_clustered(16, 600, 6, 4.0, num_queries=25, gt_depth=20, seed=29)
    index = create("kgraph", k=8, seed=0)
    index.build(ds.base)
    return ds, index


class TestEquivalence:
    """kgraph routes with the stock best-first search, so a batch must
    match ``best_first_search`` called per query with the same seeds."""

    def test_matches_sequential_with_same_seeds(self, kgraph_world):
        ds, index = kgraph_world
        graph, data = index.graph, index.data
        queries = ds.queries[:5]
        # two providers on one RNG stream: the batch draws from the
        # index's, the sequential reference from its twin
        index.seed_provider = RandomSeeds(count=4, seed=5)
        index.seed_provider.prepare(data, graph)
        twin = RandomSeeds(count=4, seed=5)
        twin.prepare(data, graph)
        batch = search_batch(index, queries, k=10, ef=40)
        for q in range(5):
            solo = best_first_search(
                graph, data, queries[q], twin.acquire(queries[q]), ef=40
            )
            np.testing.assert_array_equal(batch.ids[q], solo.ids[:10])

    def test_ndc_matches_sequential_total(self, kgraph_world):
        ds, index = kgraph_world
        graph, data = index.graph, index.data
        queries = ds.queries[:5]
        index.seed_provider = FixedSeeds(np.asarray([7]))
        batch = search_batch(index, queries, k=10, ef=30)
        total = 0
        for q in range(5):
            counter = DistanceCounter()
            best_first_search(
                graph, data, queries[q], np.asarray([7]), ef=30, counter=counter
            )
            total += counter.count
        assert batch.total_ndc == total


class TestBatchSearch:
    def test_unbuilt_rejected(self):
        with pytest.raises(RuntimeError):
            search_batch(create("kgraph"), np.zeros((2, 4), dtype=np.float32),
                         workers=2)

    def test_reports_throughput(self, world):
        ds, index = world
        result = search_batch(index, ds.queries, k=10, ef=40)
        assert result.qps > 0
        assert result.mean_hops > 0


class TestSearchBatch:
    """The worker-pool engine must be indistinguishable from a
    sequential ``index.search`` loop, telemetry included."""

    def _sequential(self, index, queries, k, ef):
        ids, dists, ndc, hops, visited = [], [], [], [], []
        for query in queries:
            r = index.search(query, k=k, ef=ef)
            ids.append(np.pad(r.ids, (0, k - len(r.ids)), constant_values=-1))
            dists.append(
                np.pad(r.dists.astype(float), (0, k - len(r.dists)),
                       constant_values=np.inf)
            )
            ndc.append(r.ndc)
            hops.append(r.hops)
            visited.append(r.visited)
        return (np.stack(ids), np.stack(dists), np.asarray(ndc),
                np.asarray(hops), np.asarray(visited))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_matches_sequential_loop(self, world, workers):
        ds, index = world
        seq = self._sequential(index, ds.queries, k=10, ef=40)
        got = search_batch(index, ds.queries, k=10, ef=40, workers=workers)
        np.testing.assert_array_equal(got.ids, seq[0])
        np.testing.assert_array_equal(got.dists, seq[1])
        np.testing.assert_array_equal(got.ndc, seq[2])
        np.testing.assert_array_equal(got.hops, seq[3])
        np.testing.assert_array_equal(got.visited, seq[4])
        assert got.workers == workers
        assert got.qps > 0

    def test_recall(self, world):
        ds, index = world
        result = search_batch(index, ds.queries, k=10, ef=60)
        hits = 0
        for q in range(ds.num_queries):
            truth = set(int(t) for t in ds.ground_truth[q][:10])
            hits += len(truth & set(int(i) for i in result.ids[q] if i >= 0))
        assert hits / (10 * ds.num_queries) >= 0.9

    def test_padding_for_unfillable_queries(self):
        """k beyond what a tiny index holds pads with -1 / inf, on the
        fused kernel and on the per-query path (an armed, empty fault
        plan forces the latter) alike."""
        ds = make_clustered(8, 30, 2, 2.0, num_queries=3, gt_depth=5, seed=1)
        index = create("kgraph", k=5, seed=0)
        index.build(ds.base)

        def run():
            # stateful provider: give both runs identical RNG streams
            index.seed_provider = RandomSeeds(count=4, seed=11)
            index.seed_provider.prepare(index.data, index.graph)
            return search_batch(index, ds.queries, k=50, ef=50)

        fused = run()
        with faults.inject(faults.FaultPlan()):
            per_query = run()
        assert per_query.kernel_path == "python"
        for result in (fused, per_query):
            assert (result.ids >= -1).all()
            assert (result.ids[:, len(ds.base):] == -1).all()
            assert np.isinf(result.dists[result.ids == -1]).all()
            assert np.isfinite(result.dists[result.ids >= 0]).all()
        np.testing.assert_array_equal(per_query.ids, fused.ids)
        np.testing.assert_array_equal(per_query.dists, fused.dists)

    def test_default_route_native_chunk(self):
        """kgraph routes with the stock best-first search, so the batch
        takes the fused kernel; results must still match a sequential
        loop drawing the same seeds."""
        ds = make_clustered(16, 500, 5, 4.0, num_queries=15, gt_depth=20, seed=3)
        index = create("kgraph", k=8, seed=0)
        index.build(ds.base)
        # stateful provider: give both runs identical RNG streams
        index.seed_provider = RandomSeeds(count=6, seed=11)
        index.seed_provider.prepare(index.data, index.graph)
        seq = self._sequential(index, ds.queries, k=5, ef=30)
        index.seed_provider = RandomSeeds(count=6, seed=11)
        index.seed_provider.prepare(index.data, index.graph)
        got = search_batch(index, ds.queries, k=5, ef=30, workers=4)
        np.testing.assert_array_equal(got.ids, seq[0])
        np.testing.assert_array_equal(got.dists, seq[1])
        np.testing.assert_array_equal(got.ndc, seq[2])
        np.testing.assert_array_equal(got.hops, seq[3])
        np.testing.assert_array_equal(got.visited, seq[4])

    def test_tombstones_filtered(self, world):
        ds, index = world
        baseline = search_batch(index, ds.queries[:5], k=10, ef=40)
        victim = int(baseline.ids[0][0])
        index.delete(victim)
        try:
            got = search_batch(index, ds.queries[:5], k=10, ef=40, workers=2)
            assert victim not in got.ids
        finally:
            index._deleted[victim] = False

    def test_per_query_telemetry_is_lossless(self, world):
        ds, index = world
        got = search_batch(index, ds.queries, k=10, ef=40, workers=2)
        assert got.ndc.shape == (len(ds.queries),)
        assert (got.ndc > 0).all() and (got.hops > 0).all()
        assert got.total_ndc == got.ndc.sum()
        assert got.mean_hops == pytest.approx(got.hops.mean())

    def test_unbuilt_rejected(self):
        with pytest.raises(RuntimeError):
            search_batch(create("hnsw"), np.zeros((2, 4), dtype=np.float32))

    def test_empty_batch(self, world):
        ds, index = world
        got = search_batch(index, np.zeros((0, ds.dim), dtype=np.float32), k=5)
        assert got.ids.shape == (0, 5)
        assert got.total_ndc == 0


def _assert_same_rows(got, ref):
    for name in ("ids", "dists", "ndc", "hops", "visited",
                 "adc_lookups", "rerank_ndc"):
        got_arr, ref_arr = getattr(got, name), getattr(ref, name)
        if ref_arr is None:
            assert got_arr is None, name
        else:
            np.testing.assert_array_equal(got_arr, ref_arr, err_msg=name)


@pytest.fixture(scope="module")
def adc_world():
    ds = make_clustered(16, 600, 6, 4.0, num_queries=25, gt_depth=20, seed=29)
    index = create("nsg", seed=0)
    index.build(ds.base)
    index.enable_compressed(num_subspaces=8, codebook_size=32)
    return ds, index


@pytest.mark.parametrize("compressed", [False, True])
class TestFallbacks:
    """The per-query path answers whatever the fused kernel cannot, with
    the fused run's exact ids, dists and telemetry."""

    def test_armed_fault_plan(self, adc_world, compressed):
        ds, index = adc_world
        ref = search_batch(index, ds.queries, k=10, ef=40, workers=2,
                           compressed=compressed)
        with faults.inject(faults.FaultPlan()):
            got = search_batch(index, ds.queries, k=10, ef=40, workers=2,
                               compressed=compressed)
        assert got.kernel_path == "python"
        assert got.num_errors == 0
        _assert_same_rows(got, ref)

    @pytest.mark.skipif(_native.LIB is None, reason="native kernel unavailable")
    def test_mt_kernel_failure(self, adc_world, compressed, monkeypatch):
        ds, index = adc_world
        was_on, was_tracing = obs.enabled(), obs.tracing()
        # hop tracing would keep the batch off the fused kernel entirely
        obs.enable(metrics=True, trace=False)
        try:
            ref = search_batch(index, ds.queries, k=10, ef=40, workers=2,
                               compressed=compressed)
            assert ref.kernel_path == (
                "fused_mt_adc" if compressed else "fused_mt"
            )

            def no_scratch(*args, **kwargs):
                raise MemoryError("could not allocate per-thread scratch")

            monkeypatch.setattr(_native, "best_first_batch_mt", no_scratch)
            monkeypatch.setattr(_native, "best_first_batch_adc_mt", no_scratch)
            retries = obs.instruments().chunk_retries_total
            before = retries.value
            got = search_batch(index, ds.queries, k=10, ef=40, workers=2,
                               compressed=compressed)
            assert retries.value == before + 1
        finally:
            obs.disable()
            if was_on:
                obs.enable(metrics=True, trace=was_tracing)
        assert got.kernel_path == "python"
        assert got.num_errors == 0
        _assert_same_rows(got, ref)


class TestRouteKernelPath:
    """Only the plain route reaches the fused MT kernel — whether an
    algorithm gets it by default or derives it from its parameters —
    and every other C7 route answers query by query on the Python path."""

    @pytest.fixture(scope="class")
    def small(self):
        return make_clustered(16, 400, 5, 4.0, num_queries=12, gt_depth=10,
                              seed=3)

    @pytest.mark.parametrize("make", [
        lambda: create("kdr", seed=0, routing="bfs"),
        lambda: BenchmarkAlgorithm(seed=0, c7="nsw"),
        lambda: create("hnsw", seed=0),
        lambda: create("sptag-kdt", seed=0),
        lambda: create("sptag-bkt", seed=0),
    ], ids=["kdr-bfs", "framework-nsw", "hnsw", "sptag-kdt", "sptag-bkt"])
    def test_plain_route_fuses(self, small, make):
        index = make()
        index.build(small.base)
        # stateful provider: give both runs identical RNG streams
        provider = copy.deepcopy(index.seed_provider)
        seq = [index.search(q, k=5, ef=30) for q in small.queries]
        index.seed_provider = provider
        got = search_batch(index, small.queries, k=5, ef=30, workers=2)
        fused = _native.LIB is not None and not obs.tracing()
        assert got.kernel_path == ("fused_mt" if fused else "python")
        np.testing.assert_array_equal(got.ids, np.stack([r.ids for r in seq]))
        np.testing.assert_array_equal(got.ndc, [r.ndc for r in seq])

    @pytest.mark.parametrize("name", ["ngt-panng", "hcnng", "fanng", "oa"])
    def test_other_routes_stay_python(self, small, name):
        index = create(name, seed=0)
        index.build(small.base)
        got = search_batch(index, small.queries, k=5, ef=30, workers=2)
        assert got.kernel_path == "python"
