"""Deterministic fault-injection tests (marked ``faults``).

Every injected fault must produce a structured error or a degraded
result — never a crash, a hang, or silently wrong ids.  The injection
plans are seeded and scheduled, so each scenario replays exactly.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro import IndexFormatError, QueryBudget
from repro import faults
from repro.batch import search_batch
from repro.io import load_index, save_index

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def static_index(tmp_path_factory, built_indexes):
    # nsg: centroid seed, so the loaded index answers repeated queries
    # identically — these tests compare clean vs faulted runs.
    # (Stochastic providers stay stochastic after load; see test_io.py.)
    path = tmp_path_factory.mktemp("faults") / "nsg.npz"
    save_index(built_indexes["nsg"], path)
    return load_index(path)


@pytest.fixture(scope="module")
def saved_path(tmp_path_factory, built_indexes):
    path = tmp_path_factory.mktemp("faults-io") / "index.npz"
    save_index(built_indexes["nsw"], path)
    return path


# -- worker fault isolation ---------------------------------------------


class TestWorkerFaults:
    def test_crashed_worker_chunk_is_retried(self, static_index, easy_dataset):
        queries = easy_dataset.queries[:8]
        clean = search_batch(static_index, queries, k=5, workers=2)
        with faults.inject(faults.FaultPlan(fail_workers=frozenset({0}))):
            result = search_batch(static_index, queries, k=5, workers=2)
        assert result.num_errors == 0
        np.testing.assert_array_equal(result.ids, clean.ids)
        np.testing.assert_array_equal(result.ndc, clean.ndc)
        np.testing.assert_array_equal(result.hops, clean.hops)
        np.testing.assert_allclose(result.dists, clean.dists, rtol=1e-12)

    def test_all_workers_crashing_still_answers(self, static_index, easy_dataset):
        queries = easy_dataset.queries[:8]
        clean = search_batch(static_index, queries, k=5, workers=4)
        with faults.inject(faults.FaultPlan(fail_workers=frozenset(range(4)))):
            result = search_batch(static_index, queries, k=5, workers=4)
        assert result.num_errors == 0
        np.testing.assert_array_equal(result.ids, clean.ids)

    def test_persistent_query_fault_reports_per_query(
        self, static_index, easy_dataset
    ):
        queries = easy_dataset.queries[:6]
        clean = search_batch(static_index, queries, k=5, workers=2)
        plan = faults.FaultPlan(
            fail_workers=frozenset({0, 1}), fail_queries=frozenset({1})
        )
        with faults.inject(plan):
            result = search_batch(static_index, queries, k=5, workers=2)
        assert result.num_errors == 1
        assert "injected fault for query 1" in result.errors[1]
        assert np.all(result.ids[1] == -1)
        assert np.all(np.isinf(result.dists[1]))
        for i in (0, 2, 3, 4, 5):
            assert result.errors[i] is None
            np.testing.assert_array_equal(result.ids[i], clean.ids[i])
            assert result.ndc[i] == clean.ndc[i]

    def test_no_armed_plan_outside_context(self, static_index, easy_dataset):
        with faults.inject(faults.FaultPlan(fail_workers=frozenset({0}))):
            pass
        assert faults.active() is None
        result = search_batch(static_index, easy_dataset.queries[:3], k=5)
        assert result.num_errors == 0


# -- deadline via distance delay ----------------------------------------


class TestDeadlineFaults:
    def test_slow_distances_trip_the_deadline(self, static_index, easy_dataset):
        budget = QueryBudget(deadline_s=0.005)
        with faults.inject(faults.FaultPlan(distance_delay_s=0.02)):
            result = static_index.search(
                easy_dataset.queries[0], k=5, budget=budget
            )
        assert result.degraded
        assert result.budget.limit == "deadline"
        assert result.budget.elapsed_s >= 0.005

    def test_slow_distances_without_budget_still_finish(
        self, static_index, easy_dataset
    ):
        clean = static_index.search(easy_dataset.queries[0], k=5)
        with faults.inject(faults.FaultPlan(distance_delay_s=0.0005)):
            # the armed plan keeps search on the NumPy path, where the
            # delay hook lives; the deadline is far enough not to fire
            result = static_index.search(
                easy_dataset.queries[0], k=5, budget=QueryBudget(deadline_s=60.0)
            )
        assert not result.degraded
        np.testing.assert_array_equal(result.ids, clean.ids)


# -- persisted-index faults ---------------------------------------------


class TestFileFaults:
    def test_truncated_file(self, saved_path, tmp_path):
        broken = tmp_path / "trunc.npz"
        shutil.copy(saved_path, broken)
        faults.truncate_file(broken, keep_fraction=0.5)
        with pytest.raises(IndexFormatError) as info:
            load_index(broken)
        assert str(broken) in str(info.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IndexFormatError):
            load_index(tmp_path / "does-not-exist.npz")

    def test_missing_keys(self, saved_path, tmp_path):
        with np.load(saved_path) as archive:
            payload = {k: archive[k] for k in archive.files}
        payload.pop("neighbors")
        broken = tmp_path / "missing.npz"
        np.savez_compressed(broken, **payload)
        with pytest.raises(IndexFormatError, match="missing keys"):
            load_index(broken)

    def test_checksum_mismatch(self, saved_path, tmp_path):
        with np.load(saved_path) as archive:
            payload = {k: archive[k] for k in archive.files}
        tampered = payload["data"].copy()
        tampered[0, 0] += 1.0
        payload["data"] = tampered
        broken = tmp_path / "tampered.npz"
        np.savez_compressed(broken, **payload)
        with pytest.raises(IndexFormatError, match="checksum mismatch"):
            load_index(broken)

    def test_version_mismatch(self, saved_path, tmp_path):
        with np.load(saved_path) as archive:
            payload = {k: archive[k] for k in archive.files}
        payload["format_version"] = np.asarray(999)
        broken = tmp_path / "future.npz"
        np.savez_compressed(broken, **payload)
        with pytest.raises(IndexFormatError, match="unsupported index format"):
            load_index(broken)

    def test_corrupt_adjacency_in_file_detected_then_repaired(
        self, saved_path, tmp_path, easy_dataset
    ):
        from repro.resilience import IndexIntegrityError

        with np.load(saved_path) as archive:
            payload = {k: archive[k] for k in archive.files}
        neighbors = payload["neighbors"].copy()
        neighbors[::7] = len(payload["data"]) + 3  # out-of-range ids
        payload["neighbors"] = neighbors
        # recompute the checksum so only the *integrity* layer can object
        from repro.io import _content_checksum

        payload["checksum"] = np.asarray(
            _content_checksum(
                payload["data"], payload["offsets"], payload["neighbors"],
                payload["seeds"], payload["deleted"],
            )
        )
        broken = tmp_path / "badgraph.npz"
        np.savez_compressed(broken, **payload)
        with pytest.raises(IndexIntegrityError):
            load_index(broken)
        index = load_index(broken, repair=True)
        result = index.search(easy_dataset.queries[0], k=5)
        assert np.all(result.ids < index.graph.n)
        from repro import verify_index

        assert verify_index(index).ok
