"""Tests for index save/load round-trips."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import create
from repro.components.seeding import FixedSeeds, RandomSeeds
from repro.io import StaticGraphIndex, load_index, save_index


@pytest.fixture(scope="module")
def built(tiny_dataset):
    index = create("nsg", seed=1)
    index.build(tiny_dataset.base)
    return index


class TestRoundTrip:
    def test_graph_preserved(self, built, tmp_path):
        path = tmp_path / "index.npz"
        save_index(built, path)
        loaded = load_index(path)
        assert loaded.graph.n == built.graph.n
        assert loaded.graph.edge_set() == built.graph.edge_set()
        np.testing.assert_array_equal(loaded.data, built.data)
        assert loaded.source_algorithm == "nsg"

    def test_search_equivalent(self, built, tiny_dataset, tmp_path):
        path = tmp_path / "index.npz"
        save_index(built, path)
        loaded = load_index(path)
        stats = loaded.evaluate(
            tiny_dataset.queries, tiny_dataset.ground_truth, k=10, ef=60
        )
        baseline = built.evaluate(
            tiny_dataset.queries, tiny_dataset.ground_truth, k=10, ef=60
        )
        assert stats.recall >= baseline.recall - 0.05

    def test_unbuilt_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            save_index(create("kgraph"), tmp_path / "x.npz")

    def test_loaded_cannot_rebuild(self, built, tmp_path):
        path = tmp_path / "index.npz"
        save_index(built, path)
        loaded = load_index(path)
        with pytest.raises(RuntimeError, match="loaded, not built"):
            loaded.build(np.zeros((5, 3), dtype=np.float32))

    def test_version_check(self, built, tmp_path):
        path = tmp_path / "index.npz"
        save_index(built, path)
        # tamper with the version field
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["format_version"] = np.asarray(99)
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="unsupported index format"):
            load_index(path)

    def test_fixed_seed_algorithms_keep_entries(self, tiny_dataset, tmp_path):
        hnsw = create("hnsw", seed=2)
        hnsw.build(tiny_dataset.base)
        path = tmp_path / "hnsw.npz"
        save_index(hnsw, path)
        loaded = load_index(path)
        assert isinstance(loaded, StaticGraphIndex)
        assert hnsw.entry_point in loaded.seed_provider.acquire(None)

    def test_stochastic_provider_survives_roundtrip(
        self, tiny_dataset, tmp_path
    ):
        """A RandomSeeds provider is reconstructed from its recipe, not
        frozen into a fixed seed snapshot: the loaded index replays the
        exact search sequence a freshly built index produces."""
        index = create("nsw", seed=4)
        index.build(tiny_dataset.base)
        queries = tiny_dataset.queries[:5]
        # reference run consumes the *fresh* provider state post-build
        pre = [index.search(q, k=5, ef=30) for q in queries]
        path = tmp_path / "nsw.npz"
        save_index(index, path)
        # verify=True would spend one provider draw on its probe search;
        # skip it here so the replayed sequence aligns draw for draw
        loaded = load_index(path, verify=False)
        assert isinstance(loaded.seed_provider, RandomSeeds)
        assert loaded.seed_provider.seed == 4
        post = [loaded.search(q, k=5, ef=30) for q in queries]
        for before, after in zip(pre, post):
            np.testing.assert_array_equal(before.ids, after.ids)
            assert before.ndc == after.ndc

    def test_loaded_random_seeds_stay_stochastic(self, tiny_dataset, tmp_path):
        index = create("nsw", seed=4)
        index.build(tiny_dataset.base)
        path = tmp_path / "nsw.npz"
        save_index(index, path)
        loaded = load_index(path)
        first = np.sort(np.asarray(loaded.seed_provider.acquire(None)))
        second = np.sort(np.asarray(loaded.seed_provider.acquire(None)))
        assert not np.array_equal(first, second)

    def test_version1_file_falls_back_to_frozen_seeds(
        self, tiny_dataset, tmp_path
    ):
        index = create("nsw", seed=4)
        index.build(tiny_dataset.base)
        path = tmp_path / "nsw.npz"
        save_index(index, path)
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload.pop("seed_spec")
        payload["format_version"] = np.asarray(1)
        legacy = tmp_path / "legacy.npz"
        np.savez_compressed(legacy, **payload)
        loaded = load_index(legacy)
        assert isinstance(loaded.seed_provider, FixedSeeds)
        np.testing.assert_array_equal(
            loaded.seed_provider.acquire(None),
            loaded.seed_provider.acquire(None),
        )

    def test_tombstones_survive_roundtrip(self, tiny_dataset, tmp_path):
        index = create("hnsw", seed=3)
        index.build(tiny_dataset.base)
        victim = int(index.search(tiny_dataset.queries[0], k=1, ef=20).ids[0])
        index.delete(victim)
        path = tmp_path / "tombstoned.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.num_deleted == 1
        result = loaded.search(tiny_dataset.queries[0], k=10, ef=40)
        assert victim not in result.ids


# -- golden archives written by each format's own release ----------------

FORMATS = Path(__file__).parent / "data" / "formats"
GOLDEN = json.loads((FORMATS / "golden.json").read_text())


def _digest(array) -> str:
    """Same digest as ``scripts/gen_format_archives.py``: shape, dtype
    and values, with ints widened to int64."""
    array = np.asarray(array)
    if array.dtype.kind in "iu":
        array = array.astype(np.int64)
    array = np.ascontiguousarray(array)
    h = hashlib.sha256(str(array.shape).encode())
    h.update(str(array.dtype).encode())
    h.update(array.tobytes())
    return h.hexdigest()


def _held_arrays(index) -> dict:
    """The arrays a loaded index holds, under their archive key names."""
    offsets, neighbors = index.graph.csr()
    held = {"data": index.data, "offsets": offsets, "neighbors": neighbors,
            "deleted": index._deleted}
    if isinstance(index.seed_provider, FixedSeeds):
        held["seeds"] = index.seed_provider.acquire(None)
    if index._id_map is not None:
        held["id_map"] = index._id_map
    if index.compressed_tier is not None:
        held["pq_codes"], held["pq_codebook"], _ = (
            index.compressed_tier.export_state()
        )
    if index._delta is not None:
        (held["delta_vectors"], held["delta_indptr"],
         held["delta_neighbors"], held["delta_deleted"], _) = (
            index._delta.export_state()
        )
    return held


def _search_digest(index, compressed: bool = False) -> str:
    spec = GOLDEN["queries"]
    rng = np.random.default_rng(spec["seed"])
    queries = rng.standard_normal(
        (spec["num"], GOLDEN["dataset"]["dim"])
    ).astype(np.float32)
    h = hashlib.sha256()
    for query in queries:
        result = index.search(query, k=spec["k"], ef=spec["ef"],
                              compressed=compressed)
        h.update(np.asarray(result.ids, dtype=np.int64).tobytes())
        h.update(np.int64(result.ndc).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_golden_archive_loads(version):
    golden = GOLDEN["archives"][f"v{version}"]
    index = load_index(FORMATS / f"v{version}.npz", verify=True)
    held = _held_arrays(index)
    stored = golden["arrays"]
    # a seed snapshot is only read back when no seed recipe was saved
    assert set(stored) - set(held) <= {"seeds"}
    for name, want in stored.items():
        if name in held:
            assert _digest(held[name]) == want, f"v{version}: {name}"
    if version == 1:
        assert isinstance(index.seed_provider, FixedSeeds)
    if version == 2:
        assert index._id_map is None
    if version >= 3:
        assert index._id_map is not None
    if version == 4:
        assert index.compressed_tier is not None
        assert _search_digest(index, compressed=True) == golden["search_compressed"]
    if version == 5:
        assert index.delta_points > 0 and index.num_deleted == 1
    assert _search_digest(index) == golden["search"]
