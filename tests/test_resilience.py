"""Budgets, degradation, validation and integrity checking.

Property tests for the serving-grade resilience layer: budget-capped
results must be prefix-quality subsets of the unbudgeted search (the
truncation point is the only divergence, so quality is monotone in the
budget), caps must hold exactly, and an absent budget must change
nothing at all.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import (
    IndexIntegrityError,
    InvalidQueryError,
    QueryBudget,
    verify_index,
)
from repro import _native, faults
from repro import observability as obs
from repro.batch import search_batch
from repro.graphs.graph import Graph
from repro.io import load_index, save_index
from repro.resilience import repair_csr_arrays, validate_query


@pytest.fixture(scope="module")
def static_index(tmp_path_factory, built_indexes):
    """A loaded (fixed-seed, default-route) index: deterministic across
    repeated searches, so budget runs can be compared call to call.
    nsg persists a centroid entry; stochastic providers (e.g. nsw's
    random seeds) are reconstructed as stochastic on load."""
    path = tmp_path_factory.mktemp("resilience") / "nsg.npz"
    save_index(built_indexes["nsg"], path)
    return load_index(path)


def _count_kernel_calls(monkeypatch) -> list:
    """Record every call into the serial C kernel's entry point."""
    calls = []
    kernel = _native.best_first

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(_native, "best_first", counted)
    return calls


def _kernel_serves_search() -> bool:
    # hop-level tracing walks the (bit-identical) NumPy frontier
    return _native.LIB is not None and not obs.tracing()


# -- QueryBudget basics --------------------------------------------------


class TestQueryBudget:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            QueryBudget(deadline_s=0.0)
        with pytest.raises(ValueError):
            QueryBudget(max_ndc=-1)
        with pytest.raises(ValueError):
            QueryBudget(max_hops=-5)

    def test_unlimited_and_native(self):
        assert QueryBudget().unlimited
        assert not QueryBudget(max_ndc=10).unlimited

    def test_after_spending(self):
        budget = QueryBudget(max_ndc=100, max_hops=7)
        left = budget.after_spending(30)
        assert left.max_ndc == 70 and left.max_hops == 7
        assert budget.after_spending(500).max_ndc == 0
        assert QueryBudget(max_hops=3).after_spending(10).max_hops == 3


# -- budgeted single-query search ---------------------------------------


class TestBudgetedSearch:
    def test_no_budget_is_bit_identical(self, static_index, easy_dataset):
        query = easy_dataset.queries[0]
        plain = static_index.search(query, k=10)
        unlimited = static_index.search(query, k=10, budget=QueryBudget())
        explicit_none = static_index.search(query, k=10, budget=None)
        for other in (unlimited, explicit_none):
            np.testing.assert_array_equal(plain.ids, other.ids)
            np.testing.assert_array_equal(plain.dists, other.dists)
            assert plain.ndc == other.ndc
            assert plain.hops == other.hops
            assert not other.degraded and other.budget is None

    @pytest.mark.parametrize("cap", [5, 20, 80, 300])
    def test_ndc_cap_is_exact(self, static_index, easy_dataset, cap):
        for query in easy_dataset.queries[:5]:
            result = static_index.search(query, k=10, budget=QueryBudget(max_ndc=cap))
            assert result.ndc <= cap
            valid = result.ids[result.ids >= 0]
            assert np.all(valid < static_index.graph.n)
            if result.degraded:
                assert result.budget is not None
                assert result.budget.limit == "ndc"

    @pytest.mark.parametrize("cap", [1, 3, 10])
    def test_hops_cap_is_exact(self, static_index, easy_dataset, cap):
        for query in easy_dataset.queries[:5]:
            result = static_index.search(
                query, k=10, budget=QueryBudget(max_hops=cap)
            )
            assert result.hops <= cap

    def test_quality_is_monotone_in_ndc_budget(self, static_index, easy_dataset):
        """More budget never hurts: the evaluated set under a smaller cap
        is a prefix of the larger cap's, so best-k distances dominate
        pointwise and recall against the full search is non-decreasing."""
        k = 10
        caps = [10, 30, 100, 300, 1000, None]
        for query in easy_dataset.queries[:8]:
            prev_dists = np.full(k, np.inf)
            prev_recall = -1.0
            full = static_index.search(query, k=k)
            full_ids = set(full.ids.tolist())
            for cap in caps:
                budget = None if cap is None else QueryBudget(max_ndc=cap)
                result = static_index.search(query, k=k, budget=budget)
                padded = np.full(k, np.inf)
                padded[: len(result.dists)] = result.dists
                assert np.all(padded <= prev_dists + 1e-12)
                recall = len(set(result.ids.tolist()) & full_ids) / k
                assert recall >= prev_recall
                prev_dists, prev_recall = padded, recall
            assert prev_recall == 1.0  # the unlimited run IS the full run

    def test_deadline_fires_and_degrades(self, static_index, easy_dataset):
        result = static_index.search(
            easy_dataset.queries[0], k=5, budget=QueryBudget(deadline_s=1e-9)
        )
        assert result.degraded
        assert result.budget.limit == "deadline"
        # seeds were still evaluated: a degraded result is not an empty one
        assert len(result.ids) > 0

    def test_serial_kernel_fires_deadline(
        self, static_index, easy_dataset, monkeypatch
    ):
        """A deadline budget stays on the serial C kernel, which fires it
        (the NumPy frontier fires it without a kernel or when tracing)."""
        calls = _count_kernel_calls(monkeypatch)
        result = static_index.search(
            easy_dataset.queries[0], k=5, budget=QueryBudget(deadline_s=1e-9)
        )
        assert len(calls) == (1 if _kernel_serves_search() else 0)
        assert result.degraded
        assert result.budget.limit == "deadline"

    def test_unfired_deadline_is_bit_identical(
        self, static_index, easy_dataset, monkeypatch
    ):
        calls = _count_kernel_calls(monkeypatch)
        for query in easy_dataset.queries[:5]:
            plain = static_index.search(query, k=10)
            timed = static_index.search(
                query, k=10, budget=QueryBudget(deadline_s=60.0)
            )
            np.testing.assert_array_equal(plain.ids, timed.ids)
            np.testing.assert_array_equal(plain.dists, timed.dists)
            assert (plain.ndc, plain.hops, plain.visited) == (
                timed.ndc, timed.hops, timed.visited
            )
            assert not timed.degraded and timed.budget is None
        assert len(calls) == (10 if _kernel_serves_search() else 0)

    def test_budget_works_on_every_algorithm(self, built_indexes, easy_dataset):
        """All routing strategies and seed providers honor the cap: the
        six C7 routes, HNSW's layered descent and SPTAG's tree seeds.
        Caps 150 and 250 bind after SPTAG's first acquisition, where a
        second, uncharged acquisition once overshot them."""

        def check(name, index, cap, queries):
            for query in queries:
                result = index.search(query, k=5, budget=QueryBudget(max_ndc=cap))
                # seed acquisition is a black box and may alone overshoot
                # the cap; in that case routing must spend nothing further
                if result.ndc > cap:
                    assert result.degraded, (name, cap)
                    assert result.budget.ndc == 0, (name, cap)
                valid = result.ids[result.ids >= 0]
                assert np.all((valid >= 0) & (valid < index.graph.n)), name

        for name, index in built_indexes.items():
            check(name, index, 60, easy_dataset.queries[:1])
            # the extra inputs must not advance a stateful provider that
            # later tests share through the session fixture
            provider = copy.deepcopy(index.seed_provider)
            for cap in (60, 150, 250):
                check(name, index, cap, easy_dataset.queries)
            index.seed_provider = provider


# -- budgeted / validated batch search ----------------------------------


class TestBatchResilience:
    def test_batch_budget_matches_sequential(self, static_index, easy_dataset):
        queries = easy_dataset.queries[:8]
        budget = QueryBudget(max_ndc=100)
        batch = search_batch(static_index, queries, k=5, workers=2, budget=budget)
        for i, query in enumerate(queries):
            single = static_index.search(query, k=5, budget=budget)
            m = len(single.ids)
            np.testing.assert_array_equal(batch.ids[i, :m], single.ids)
            assert batch.ndc[i] == single.ndc
            assert bool(batch.degraded[i]) == single.degraded

    def test_empty_batch(self, static_index):
        dim = static_index.data.shape[1]
        result = search_batch(
            static_index, np.empty((0, dim), dtype=np.float32), k=5
        )
        assert result.ids.shape == (0, 5)
        assert result.dists.shape == (0, 5)
        assert result.errors == [] and len(result.degraded) == 0
        assert result.qps == 0.0 and result.mean_hops == 0.0

    def test_k_exceeds_index_size_pads(self, tiny_dataset):
        from repro.algorithms.nsw import NSW

        index = NSW(seed=3)
        index.build(tiny_dataset.base)
        n = index.graph.n
        result = search_batch(index, tiny_dataset.queries[:3], k=n + 5)
        assert result.ids.shape == (3, n + 5)
        assert np.all(result.ids[:, -5:] == -1)
        assert np.all(np.isinf(result.dists[:, -5:]))
        assert result.num_errors == 0

    def test_nan_query_rejected_per_query(self, static_index, easy_dataset):
        queries = easy_dataset.queries[:6].copy()
        queries[2, 0] = np.nan
        queries[4, 1] = np.inf
        result = search_batch(static_index, queries, k=5, workers=2)
        assert result.num_errors == 2
        for i in (2, 4):
            assert "non-finite" in result.errors[i]
            assert np.all(result.ids[i] == -1)
            assert np.all(np.isinf(result.dists[i]))
        clean = search_batch(
            static_index, easy_dataset.queries[:6], k=5, workers=2
        )
        for i in (0, 1, 3, 5):
            np.testing.assert_array_equal(result.ids[i], clean.ids[i])
            assert result.ndc[i] == clean.ndc[i]

    def test_whole_batch_shape_errors_still_raise(self, static_index):
        with pytest.raises(ValueError):
            search_batch(static_index, np.zeros((4, 3, 2), dtype=np.float32))
        with pytest.raises(InvalidQueryError):
            search_batch(static_index, np.zeros((4, 7), dtype=np.float32))


# -- single-query validation --------------------------------------------


class TestQueryValidation:
    def test_invalid_queries_raise(self, static_index):
        dim = static_index.data.shape[1]
        bad = [
            np.full(dim, np.nan, dtype=np.float32),
            np.zeros(dim + 3, dtype=np.float32),
            np.zeros((2, dim), dtype=np.float32),
            np.zeros(dim, dtype=np.complex128),
            np.array(["a"] * dim, dtype=object),
        ]
        for query in bad:
            with pytest.raises(InvalidQueryError):
                static_index.search(query, k=5)

    def test_validate_query_reasons(self):
        assert validate_query(np.zeros(8, dtype=np.float32), 8) is None
        assert validate_query(np.zeros(8), 4) is not None
        assert "non-finite" in validate_query(np.full(4, np.inf), 4)
        assert validate_query(np.zeros((2, 4)), 4) is not None

    def test_valid_input_not_copied(self):
        query = np.zeros(16, dtype=np.float32)
        assert validate_query(query, 16) is None  # never raises, no copy


# -- integrity verification and repair ----------------------------------


class TestIntegrity:
    def test_healthy_index_passes(self, built_indexes):
        report = verify_index(built_indexes["nsw"])
        assert report.ok
        assert report.n_vertices == built_indexes["nsw"].graph.n

    @pytest.mark.parametrize("mode", ["out_of_range", "negative", "self_loop"])
    def test_corruption_detected_and_repaired(self, tiny_dataset, mode):
        from repro.algorithms.nsw import NSW

        index = NSW(seed=3)
        index.build(tiny_dataset.base)
        index.graph = faults.corrupt_adjacency(
            index.graph, seed=11, n_edges=6, mode=mode
        )
        with pytest.raises(IndexIntegrityError):
            verify_index(index)
        report = verify_index(index, strict=False)
        assert not report.ok
        repaired = verify_index(index, repair=True)
        assert repaired.repairs
        assert verify_index(index).ok
        result = index.search(tiny_dataset.queries[0], k=5)
        assert np.all(result.ids < index.graph.n)

    def test_nonfinite_vectors_zeroed_and_tombstoned(self, tiny_dataset):
        from repro.algorithms.nsw import NSW

        index = NSW(seed=3)
        index.build(tiny_dataset.base)
        index.data = faults.corrupt_vectors(index.data, seed=2, n_rows=3)
        bad = np.flatnonzero(~np.isfinite(index.data).all(axis=1))
        with pytest.raises(IndexIntegrityError):
            verify_index(index)
        verify_index(index, repair=True)
        assert np.isfinite(index.data).all()
        assert index._deleted[bad].all()
        result = index.search(tiny_dataset.queries[0], k=10)
        assert not set(result.ids.tolist()) & set(bad.tolist())

    @pytest.mark.parametrize("seed", range(6))
    def test_repair_csr_arrays_always_valid(self, seed):
        """Property: whatever garbage goes in, the repaired CSR pair
        satisfies Graph.from_csr's validated invariants."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        m = int(rng.integers(0, 200))
        indptr = rng.integers(-10, m + 10, size=int(rng.integers(1, n + 4)))
        indices = rng.integers(-5, n + 5, size=m)
        fixed_ptr, fixed_idx, _ = repair_csr_arrays(indptr, indices, n)
        graph = Graph.from_csr(fixed_ptr, fixed_idx)  # validate=True
        assert graph.n == n
        owner = np.repeat(np.arange(n), np.diff(fixed_ptr))
        assert not np.any(fixed_idx == owner)  # no self-loops survive

    def test_stranded_vertices_detected_and_reconnected(self, tiny_dataset):
        from repro.algorithms.nsw import NSW

        index = NSW(seed=3)
        index.build(tiny_dataset.base)
        indptr, indices = index.graph.csr()
        # strand the last vertex: nobody points at it, it points nowhere
        n = index.graph.n
        owner = np.repeat(np.arange(n), np.diff(indptr))
        keep = (indices != (n - 1)) & (owner != (n - 1))
        counts = np.zeros(n, dtype=np.int64)
        np.add.at(counts, owner[keep], 1)
        new_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=new_ptr[1:])
        index.graph = Graph.from_csr(
            new_ptr.astype(np.int32), indices[keep].astype(np.int32)
        )
        with pytest.raises(IndexIntegrityError, match="unreachable"):
            verify_index(index)
        verify_index(index, repair=True)
        assert verify_index(index).ok
