"""Build-engine regression tests: pinned hashes, worker-count
determinism, and per-phase telemetry invariants.

``tests/data/build_hashes.json`` (``scripts/gen_build_hashes.py``) pins
every algorithm's adjacency and build NDC at ``n_workers=1``, plus every
framework C2 x C3 pairing; a refactor of the build layer must keep them.
The cross-``n_workers`` tests then prove that a multi-worker build gives
the same adjacency and NDC, run after run.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import ALGORITHMS, create
from repro import _native
from repro.pipeline.framework import C2_CHOICES, C3_CHOICES, BenchmarkAlgorithm

# must match scripts/gen_build_hashes.py
DATASET_N, DATASET_D, DATASET_SEED = 300, 24, 7

HASHES = json.loads(
    (Path(__file__).parent / "data" / "build_hashes.json").read_text()
)
MODE = "no_native" if _native.LIB is None else "native"
PINNED = HASHES[MODE]

ALL_NAMES = sorted(ALGORITHMS) + ["framework"]
PARALLEL_NAMES = [
    "nsg", "nssg", "dpg", "fanng", "oa", "sptag-bkt", "hnsw", "vamana",
    "framework",
]
#: every C2 x C3 pairing of the framework, keyed as in build_hashes.json
FRAMEWORK_GRID = {
    f"framework[{c2}|{c3}]": {"c2": c2, "c3": c3}
    for c2 in C2_CHOICES for c3 in C3_CHOICES
}


def make_algorithm(name: str, **kwargs):
    if name == "framework":
        return BenchmarkAlgorithm(seed=0, **kwargs)
    return create(name, seed=0, **kwargs)


def adjacency_hash(graph) -> str:
    indptr, indices = graph.csr()
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(indptr).tobytes())
    digest.update(np.ascontiguousarray(indices).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def pinned_dataset():
    rng = np.random.default_rng(DATASET_SEED)
    return rng.standard_normal((DATASET_N, DATASET_D)).astype(np.float32)


@pytest.fixture(scope="module")
def serial_builds(pinned_dataset):
    """Every algorithm built once at n_workers=1 on the pinned dataset,
    with the Python threads each build started."""
    built = {}
    started: list[str] = []
    real_start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        real_start(thread)

    threading.Thread.start = recording_start
    try:
        for name in ALL_NAMES:
            started.clear()
            algorithm = make_algorithm(name)
            report = algorithm.build(pinned_dataset)
            built[name] = (algorithm, report, list(started))
    finally:
        threading.Thread.start = real_start
    return built


class TestPinnedHashes:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_serial_adjacency_matches_prerefactor(self, serial_builds, name):
        algorithm, report, _ = serial_builds[name]
        assert adjacency_hash(algorithm.graph) == PINNED[name]["adjacency"], (
            f"{name}: one-worker adjacency diverged from the pin"
        )
        assert int(report.build_ndc) == PINNED[name]["ndc"]


    @pytest.mark.parametrize("key", sorted(FRAMEWORK_GRID))
    def test_framework_grid_matches_pin(self, pinned_dataset, key):
        algorithm = BenchmarkAlgorithm(seed=0, **FRAMEWORK_GRID[key])
        report = algorithm.build(pinned_dataset)
        assert adjacency_hash(algorithm.graph) == PINNED[key]["adjacency"]
        assert int(report.build_ndc) == PINNED[key]["ndc"]


class TestParallelDeterminism:
    @pytest.mark.parametrize("name", PARALLEL_NAMES)
    def test_workers_reproduce_serial_build(self, pinned_dataset, name):
        """Same seed => bit-identical adjacency and identical NDC for
        n_workers in {1, 4}, and across repeated four-worker runs."""
        results = []
        for _ in range(2):  # repeatability of the four-worker build
            algorithm = make_algorithm(name, n_workers=4)
            report = algorithm.build(pinned_dataset)
            results.append(
                (adjacency_hash(algorithm.graph), int(report.build_ndc))
            )
        assert results[0] == results[1]
        assert results[0][0] == PINNED[name]["adjacency"]
        assert results[0][1] == PINNED[name]["ndc"]


class TestOneWorkerInline:
    @pytest.mark.parametrize("name", PARALLEL_NAMES)
    def test_one_worker_build_starts_no_thread(self, serial_builds, name):
        """At n_workers=1 the refinement loop runs on the calling thread."""
        _, _, threads = serial_builds[name]
        assert threads == [], f"{name} started {threads}"


class TestBuildTelemetry:
    def test_phase_walls_sum_to_build_time(self, serial_builds):
        for name, (_, report, _) in serial_builds.items():
            total = sum(s.wall_s for s in report.phases.values())
            assert total == pytest.approx(report.build_time_s), name

    def test_phase_ndc_sums_to_build_ndc(self, serial_builds):
        for name, (_, report, _) in serial_builds.items():
            total = sum(s.ndc for s in report.phases.values())
            assert total == report.build_ndc, name

    def test_phase_labels_are_canonical(self, serial_builds):
        for name, (_, report, _) in serial_builds.items():
            assert set(report.phases) <= {"c1", "c2+c3", "c4", "c5"}, name
            assert "c4" in report.phases, name  # engine epilogue

    def test_index_size_splits_into_graph_and_aux(self, serial_builds):
        for name, (algorithm, report, _) in serial_builds.items():
            assert report.index_size_bytes == (
                report.graph_bytes + report.aux_bytes
            ), name
            assert report.graph_bytes == algorithm.graph.index_size_bytes()
            assert report.aux_bytes >= 0

    def test_aux_bytes_cover_seed_structures(self, serial_builds):
        # algorithms whose C4 builds a real auxiliary structure must
        # report a non-zero aux share (satellite of Figure 6)
        for name in ("ieh", "hnsw", "ngt-panng", "sptag-kdt", "sptag-bkt",
                     "efanna", "hcnng"):
            _, report, _ = serial_builds[name]
            assert report.aux_bytes > 0, name

    def test_report_records_worker_count(self, pinned_dataset):
        algorithm = make_algorithm("nsg", n_workers=4)
        report = algorithm.build(pinned_dataset)
        assert report.n_workers == 4
