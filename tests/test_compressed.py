"""Tests for compressed (ADC) traversal and the tiered vector memory.

Runs in both native and ``REPRO_NO_NATIVE`` mode (DUAL_MODE_SUITES):
the assertions about ids/dists/telemetry must hold identically, because
the NumPy fallback and the C LUT kernel score from the same float32
tables with the same float64 accumulation order.
"""

import os

import numpy as np
import pytest

from repro import create
from repro.batch import search_batch
from repro.compressed import DEFAULT_RERANK_FACTOR, rerank_exact
from repro.extensions.io_model import DiskIOModel, StorageProfile
from repro.io import load_index, save_index


@pytest.fixture(scope="module")
def compressed_index(easy_dataset):
    index = create("nsg", seed=3)
    index.build(easy_dataset.base)
    index.enable_compressed(num_subspaces=16, codebook_size=32)
    return index


class TestCompressedSearch:
    def test_requires_enable(self, easy_dataset):
        index = create("kgraph", seed=0)
        index.build(easy_dataset.base)
        with pytest.raises(RuntimeError, match="enable_compressed"):
            index.search(easy_dataset.queries[0], k=5, compressed=True)

    def test_recall_close_to_exact(self, compressed_index, easy_dataset):
        k = 10
        exact_hits = comp_hits = 0
        for query, truth in zip(easy_dataset.queries, easy_dataset.ground_truth):
            truth = set(int(t) for t in truth[:k])
            exact = compressed_index.search(query, k=k, ef=80)
            comp = compressed_index.search(query, k=k, ef=80, compressed=True,
                                           rerank_factor=6)
            exact_hits += len(truth.intersection(int(i) for i in exact.ids))
            comp_hits += len(truth.intersection(int(i) for i in comp.ids))
        total = k * len(easy_dataset.queries)
        assert comp_hits / total >= exact_hits / total - 0.05

    def test_ndc_accounting(self, compressed_index, easy_dataset):
        k = 5
        result = compressed_index.search(
            easy_dataset.queries[0], k=k, ef=60, compressed=True,
            rerank_factor=3,
        )
        # traversal lookups are surrogates, not true NDC
        assert result.adc_lookups > 0
        assert result.rerank_ndc <= 3 * k
        assert result.ndc <= result.rerank_ndc + 64  # + seed acquisition
        exact = compressed_index.search(easy_dataset.queries[0], k=k, ef=60)
        assert exact.adc_lookups == 0 and exact.rerank_ndc == 0
        assert result.ndc < exact.ndc

    def test_rerank_factor_bounds_pool(self, compressed_index, easy_dataset):
        for factor in (1, 2, 5):
            result = compressed_index.search(
                easy_dataset.queries[1], k=4, ef=100, compressed=True,
                rerank_factor=factor,
            )
            assert result.rerank_ndc <= factor * 4
        with pytest.raises(ValueError):
            compressed_index.search(
                easy_dataset.queries[0], k=4, compressed=True, rerank_factor=0
            )

    def test_dists_are_exact(self, compressed_index, easy_dataset):
        query = easy_dataset.queries[2]
        result = compressed_index.search(query, k=5, ef=60, compressed=True)
        expected = np.linalg.norm(
            compressed_index.data[result.ids].astype(np.float64)
            - np.asarray(query, dtype=np.float64), axis=1
        )
        np.testing.assert_allclose(result.dists, expected, rtol=1e-6)
        assert (np.diff(result.dists) >= 0).all()

    @pytest.mark.slow
    def test_exact_path_unchanged_by_tier(self, easy_dataset):
        plain = create("nsg", seed=3)
        plain.build(easy_dataset.base)
        tiered = create("nsg", seed=3)
        tiered.build(easy_dataset.base)
        tiered.enable_compressed()
        for query in easy_dataset.queries[:5]:
            a = plain.search(query, k=10, ef=60)
            b = tiered.search(query, k=10, ef=60)
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.dists, b.dists)
            assert a.ndc == b.ndc


class TestBitIdentity:
    """NumPy fallback vs C kernel, sequential vs batched, any threads."""

    def test_fallback_matches_native_flag(self, compressed_index, easy_dataset):
        # same index, same provider state: flip ctx.native per query by
        # running the whole round twice off one frozen seed draw
        from repro.components.context import SearchContext
        from repro.components.routing import best_first_search
        from repro.distance import DistanceCounter

        index = compressed_index
        tier = index.compressed_tier
        for query in easy_dataset.queries[:8]:
            counter = DistanceCounter()
            seeds = np.asarray(
                index.seed_provider.acquire(query, counter), dtype=np.int64
            )
            outputs = []
            for native in (True, False):
                ctx = SearchContext(index.data)
                ctx.native = ctx.native and native
                ctx.compressed = tier
                adc = DistanceCounter()
                route = best_first_search(
                    index.graph, index.data, query, seeds, 60, adc, ctx=ctx,
                    route=index.route,
                )
                ctx.compressed = None
                ctx.lut = None
                outputs.append((route.ids, route.dists, adc.count))
            np.testing.assert_array_equal(outputs[0][0], outputs[1][0])
            np.testing.assert_array_equal(outputs[0][1], outputs[1][1])
            assert outputs[0][2] == outputs[1][2]

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.slow
    def test_batch_matches_sequential(self, easy_dataset, workers):
        def fresh():
            index = create("nsg", seed=3)
            index.build(easy_dataset.base)
            index.enable_compressed(num_subspaces=8, codebook_size=32)
            return index

        queries = easy_dataset.queries[:12]
        seq = [
            fresh_seq.search(q, k=10, ef=60, compressed=True)
            for fresh_seq in [fresh()]
            for q in queries
        ]
        batch = search_batch(
            fresh(), queries, k=10, ef=60, workers=workers, compressed=True
        )
        for i, r in enumerate(seq):
            ids = batch.ids[i][batch.ids[i] >= 0]
            np.testing.assert_array_equal(np.asarray(r.ids), ids)
            np.testing.assert_array_equal(
                np.asarray(r.dists),
                batch.dists[i][np.isfinite(batch.dists[i])],
            )
            assert r.adc_lookups == batch.adc_lookups[i]
            assert r.rerank_ndc == batch.rerank_ndc[i]
            assert r.ndc == batch.ndc[i]


@pytest.mark.slow
class TestTombstones:
    def test_deleted_never_returned(self, easy_dataset):
        index = create("nsg", seed=3)
        index.build(easy_dataset.base)
        index.enable_compressed()
        query = easy_dataset.queries[0]
        before = index.search(query, k=5, ef=60, compressed=True)
        victim = int(before.ids[0])
        index.delete(victim)
        after = index.search(query, k=5, ef=60, compressed=True)
        assert victim not in after.ids
        batch = search_batch(index, easy_dataset.queries[:6], k=5, ef=60,
                             workers=2, compressed=True)
        assert victim not in batch.ids

    def test_deleted_cost_no_rerank(self, easy_dataset):
        index = create("nsg", seed=3)
        index.build(easy_dataset.base)
        index.enable_compressed()
        query = easy_dataset.queries[1]
        before = index.search(query, k=5, ef=60, compressed=True,
                              rerank_factor=2)
        for victim in before.ids[:3]:
            index.delete(int(victim))
        after = index.search(query, k=5, ef=60, compressed=True,
                             rerank_factor=2)
        # tombstones are dropped before the pool cap, so the re-rank
        # still pays at most factor*k tier reads
        assert after.rerank_ndc <= 10


class TestPersistence:
    def test_v4_roundtrip_with_tier(self, compressed_index, easy_dataset,
                                    tmp_path):
        path = tmp_path / "tiered.npz"
        save_index(compressed_index, path)
        with np.load(path) as archive:
            assert int(archive["format_version"]) == 4
        loaded = load_index(path)
        assert loaded.compressed_tier is not None
        np.testing.assert_array_equal(
            loaded.compressed_tier.codes, compressed_index.compressed_tier.codes
        )
        result = loaded.search(easy_dataset.queries[0], k=5, ef=60,
                               compressed=True)
        assert result.adc_lookups > 0 and len(result.ids) == 5

    @pytest.mark.slow
    def test_v3_written_without_tier(self, easy_dataset, tmp_path):
        index = create("nsg", seed=3)
        index.build(easy_dataset.base)
        path = tmp_path / "plain.npz"
        save_index(index, path)
        with np.load(path) as archive:
            assert int(archive["format_version"]) == 3
            assert "pq_codes" not in archive.files
        assert load_index(path).compressed_tier is None

    def test_sidecar_mmap_matches_resident(self, compressed_index,
                                           easy_dataset, tmp_path):
        path = tmp_path / "side.npz"
        save_index(compressed_index, path, vector_tier="sidecar")
        assert (tmp_path / "side.npz.vec").exists()
        mapped = load_index(path, mmap_vectors=True)
        resident = load_index(path)
        assert isinstance(mapped.data, np.memmap)
        assert not isinstance(resident.data, np.memmap)
        for query in easy_dataset.queries[:5]:
            a = mapped.search(query, k=5, ef=60, compressed=True)
            b = resident.search(query, k=5, ef=60, compressed=True)
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.dists, b.dists)

    def test_mmap_rerank_reads_match_io_model(self, compressed_index,
                                              easy_dataset, tmp_path):
        """Only the exact re-rank touches the mapped float32 tier: each
        query reads ``min(rerank_factor * k, n)`` rows, the count the
        I/O model prices, while codes + codebooks stay resident."""
        k, factor = 10, 4
        path = tmp_path / "side.npz"
        save_index(compressed_index, path, vector_tier="sidecar")
        mapped = load_index(path, mmap_vectors=True)
        result = search_batch(
            mapped, easy_dataset.queries, k=k, ef=60, workers=2,
            compressed=True, rerank_factor=factor,
        )
        reads = min(factor * k, len(mapped.data))
        np.testing.assert_array_equal(result.rerank_ndc, reads)
        estimate = DiskIOModel(StorageProfile.ssd()).estimate_compressed(
            float(result.adc_lookups.mean()), float(result.rerank_ndc.mean())
        )
        assert estimate.io_count == reads
        assert mapped.compressed_tier.memory_bytes() < mapped.data.nbytes / 3

    @pytest.mark.slow
    def test_verify_repair_drops_bad_tier(self, easy_dataset):
        from repro.resilience import verify_index

        index = create("nsg", seed=3)
        index.build(easy_dataset.base)
        index.enable_compressed(codebook_size=16)
        index.compressed_tier.codes[0, 0] = 255
        report = verify_index(index, repair=True, check_reachability=False)
        assert index.compressed_tier is None
        assert any("compressed tier" in note for note in report.repairs)
        # exact search is unharmed by the drop
        result = index.search(easy_dataset.queries[0], k=5, ef=60)
        assert len(result.ids) == 5


class TestLifecycle:
    def test_insert_drops_tier(self, easy_dataset):
        index = create("hnsw", seed=0)
        index.build(easy_dataset.base)
        index.enable_compressed()
        assert index.compressed_tier is not None
        index.insert(easy_dataset.queries[0])
        assert index.compressed_tier is None

    @pytest.mark.slow
    def test_reorder_permutes_tier(self, easy_dataset):
        index = create("nsg", seed=3)
        index.build(easy_dataset.base)
        index.enable_compressed()
        query = easy_dataset.queries[3]
        before = index.search(query, k=5, ef=60, compressed=True)
        index.reorder("bfs")
        after = index.search(query, k=5, ef=60, compressed=True)
        # ids are mapped back to original labels; the tier followed the
        # permutation, so results describe the same points
        np.testing.assert_array_equal(np.sort(before.ids), np.sort(after.ids))


class TestRerankExact:
    def test_empty_pool(self):
        data = np.zeros((4, 3), dtype=np.float32)
        ids, dists = rerank_exact(data, np.zeros(3), np.empty(0, dtype=np.int64))
        assert len(ids) == 0 and len(dists) == 0

    def test_sorted_with_stable_ties(self):
        data = np.asarray([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
        ids, dists = rerank_exact(
            data, np.zeros(2, dtype=np.float64), np.asarray([2, 1, 0])
        )
        # equal distances break ties by ascending id
        np.testing.assert_array_equal(ids, [0, 1, 2])
        np.testing.assert_allclose(dists, [1.0, 1.0, 1.0])

    def test_default_factor_exported(self):
        assert DEFAULT_RERANK_FACTOR >= 1


def test_mode_marker():
    """Make the active mode visible in -v output (native vs fallback)."""
    assert os.environ.get("REPRO_NO_NATIVE") in (None, "", "0", "1")
