"""How arrays cross into the C kernels, and when a context rebinds them.

``repro._native`` passes every array as a raw address.  Each address is
checked (dtype, C-contiguity) before C sees it, and the long-lived
arrays of a :class:`SearchContext` are checked once and bound on the
context.  These tests pin both halves: a wrong array raises instead of
being dereferenced, and a context whose bound arrays are replaced (regrown
heaps, a repaired CSR, a new compressed tier, a consolidated snapshot)
answers exactly like a freshly loaded index.  The rebinding and threading
tests also run under ``REPRO_NO_NATIVE=1``, where they pin that the
Python path answers the same.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import _native, create, verify_index
from repro import observability as obs
from repro.components.context import SearchContext
from repro.components.routing import best_first_search
from repro.distance import squared_norms
from repro.io import load_index, save_index

native_only = pytest.mark.skipif(
    _native.LIB is None, reason="native kernel unavailable"
)


def _kernel_serves_search() -> bool:
    # hop-level tracing walks the (bit-identical) NumPy frontier
    return _native.LIB is not None and not obs.tracing()


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(23)
    data = rng.normal(size=(600, 16)).astype(np.float32)
    queries = rng.normal(size=(16, 16)).astype(np.float32)
    extra = rng.normal(size=(12, 16)).astype(np.float32)
    return data, queries, extra


@pytest.fixture(scope="module")
def nsg(world):
    index = create("nsg", seed=0)
    index.build(world[0])
    return index


def _fresh(index, tmp_path):
    """The same index state, loaded into a new object with new scratch."""
    path = tmp_path / f"fresh-{id(index)}.npz"
    save_index(index, path)
    return load_index(path)


def _assert_same_answers(index, fresh, queries, ef, compressed=False):
    for qi, query in enumerate(queries):
        got = index.search(query, k=10, ef=ef, compressed=compressed)
        want = fresh.search(query, k=10, ef=ef, compressed=compressed)
        label = f"query {qi} ef={ef} compressed={compressed}"
        np.testing.assert_array_equal(got.ids, want.ids, err_msg=label)
        np.testing.assert_array_equal(got.dists, want.dists, err_msg=label)
        assert got.ndc == want.ndc, label
        assert got.hops == want.hops, label


def _assert_bound_to_current_arrays(index):
    """The context's binding holds the index's arrays of this moment."""
    if not _kernel_serves_search():
        return
    binding = index._search_ctx.native_binding
    indptr, indices = index.graph.csr()
    assert binding.indptr is indptr and binding.indices is indices
    assert binding.data is index.data


# -- checks before C dereferences anything ----------------------------------


@native_only
class TestArgumentChecks:
    def _ctx(self, nsg, query):
        ctx = SearchContext(nsg.data)
        ctx.begin_query(query)
        return ctx

    def _entry(self, nsg):
        return np.asarray([nsg.seed_provider.medoid], dtype=np.int64)

    def test_int32_seeds_raise(self, nsg, world):
        ctx = self._ctx(nsg, world[1][0])
        with pytest.raises(TypeError, match="int64"):
            _native.best_first(
                ctx, nsg.graph, ctx.query64, ctx.query_sq,
                self._entry(nsg).astype(np.int32), 32,
            )

    def test_seed_list_raises(self, nsg, world):
        ctx = self._ctx(nsg, world[1][0])
        with pytest.raises(TypeError, match="list"):
            _native.best_first(
                ctx, nsg.graph, ctx.query64, ctx.query_sq,
                [int(nsg.seed_provider.medoid)], 32,
            )

    def test_strided_query_raises(self, nsg, world):
        ctx = self._ctx(nsg, world[1][0])
        strided = np.repeat(ctx.query64, 2)[::2]
        assert not strided.flags.c_contiguous
        with pytest.raises(TypeError, match="C-contiguous"):
            _native.best_first(
                ctx, nsg.graph, strided, ctx.query_sq, self._entry(nsg), 32,
            )
        rows = nsg.data[:5]
        with pytest.raises(TypeError, match="C-contiguous"):
            _native.sq_dists_to_rows(
                strided, rows, squared_norms(nsg.data)[:5], ctx.query_sq,
            )

    @pytest.mark.parametrize("layout", ["float64", "fortran"])
    def test_wrong_dataset_raises_in_every_wrapper(self, nsg, world, layout):
        data = (nsg.data.astype(np.float64) if layout == "float64"
                else np.asfortranarray(nsg.data))
        ctx = SearchContext(data)
        assert not ctx.native   # routing never sends this context to C
        ctx.begin_query(world[1][0])
        entry = self._entry(nsg)
        with pytest.raises(TypeError):
            _native.best_first(
                ctx, nsg.graph, ctx.query64, ctx.query_sq, entry, 32,
            )
        assert ctx.native_binding is None   # nothing half-bound
        query64 = ctx.query64[None, :].copy()
        with pytest.raises(TypeError):
            _native.best_first_batch_mt(
                data, squared_norms(nsg.data), nsg.graph, query64,
                np.asarray([ctx.query_sq]),
                np.asarray([0, 1], dtype=np.int64), entry, 32, 1,
            )
        with pytest.raises(TypeError):
            _native.sq_dists_to_rows(
                ctx.query64, data[:5], squared_norms(nsg.data)[:5],
                ctx.query_sq,
            )
        with pytest.raises(TypeError):
            _native.select_rng_scan(
                np.zeros((3, 3), dtype=np.float64),
                np.zeros(3, dtype=np.float64), 2,
            )

    def test_context_still_answers_after_a_rejected_call(self, nsg, world):
        ctx = self._ctx(nsg, world[1][0])
        entry = self._entry(nsg)
        want = _native.best_first(
            ctx, nsg.graph, ctx.query64, ctx.query_sq, entry, 32,
        )
        ctx.begin_query(world[1][0])
        with pytest.raises(TypeError):
            _native.best_first(
                ctx, nsg.graph, ctx.query64, ctx.query_sq,
                entry.astype(np.int32), 32,
            )
        ctx.begin_query(world[1][0])
        got = _native.best_first(
            ctx, nsg.graph, ctx.query64, ctx.query_sq, entry, 32,
        )
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2:] == want[2:]

    def test_results_survive_the_next_call(self, nsg, world):
        """Returned arrays are copies, not views of the bound outputs."""
        ctx = SearchContext(nsg.data)
        entry = self._entry(nsg)
        answers = []
        for query in world[1][:4]:
            ctx.begin_query(query)
            answers.append(_native.best_first(
                ctx, nsg.graph, ctx.query64, ctx.query_sq, entry, 32,
            ))
        for query, (ids, sq, ndc, *_rest) in zip(world[1][:4], answers):
            fresh = SearchContext(nsg.data)
            fresh.begin_query(query)
            want = _native.best_first(
                fresh, nsg.graph, fresh.query64, fresh.query_sq, entry, 32,
            )
            np.testing.assert_array_equal(ids, want[0])
            np.testing.assert_array_equal(sq, want[1])
            assert ndc == want[2]


# -- rebinding when a bound array is replaced -------------------------------


def test_replaced_arrays_rebind(world, tmp_path):
    """One index through every event that swaps a bound array; after
    each, its answers equal a freshly loaded copy's (ids, dists, NDC)."""
    data, queries, extra = world
    index = create("nsg", seed=0)
    index.build(data)
    fresh = _fresh(index, tmp_path)

    _assert_same_answers(index, fresh, queries, ef=64)
    _assert_bound_to_current_arrays(index)
    first = index._search_ctx.native_binding
    # ef=500 outgrows the result heaps: the scratch regrows and rebinds
    _assert_same_answers(index, fresh, queries, ef=500)
    if _kernel_serves_search():
        regrown = index._search_ctx.native_binding
        assert regrown is not first and regrown.cap >= 500
    _assert_same_answers(index, fresh, queries, ef=64)

    # a compressed tier binds its codes; a refit replaces them
    index.enable_compressed(num_subspaces=4, codebook_size=16, seed=1)
    _assert_same_answers(index, _fresh(index, tmp_path), queries, ef=64,
                         compressed=True)
    index.enable_compressed(num_subspaces=4, codebook_size=16, seed=2)
    fresh = _fresh(index, tmp_path)
    _assert_same_answers(index, fresh, queries, ef=64, compressed=True)
    if _kernel_serves_search():
        assert (index._search_ctx.native_binding.codes
                is index.compressed_tier.codes)
    _assert_same_answers(index, fresh, queries, ef=64)

    # repair writes a new CSR; the damaged one must never be walked
    indptr, indices = index.graph.csr()
    indices[indptr[5]] = index.graph.n + 7
    indices[indptr[40]] = -3
    report = verify_index(index, repair=True)
    assert report.repairs
    assert index.graph.csr()[1] is not indices
    _assert_same_answers(index, _fresh(index, tmp_path), queries, ef=64)
    _assert_bound_to_current_arrays(index)

    # consolidation swaps in new data and a new graph
    for point in extra:
        index.insert(point)
    index.consolidate(wait=True)
    _assert_same_answers(index, _fresh(index, tmp_path), queries, ef=64)
    _assert_bound_to_current_arrays(index)


# -- one context per thread --------------------------------------------------


def test_threads_with_own_contexts_match_sequential(nsg, world):
    """More threads than this suite's two CPUs, each with its own
    context, walking at once (the kernel releases the GIL)."""
    queries = np.concatenate([world[1], world[2]])
    entry = np.asarray([nsg.seed_provider.medoid], dtype=np.int64)

    def answer(ctx, query, ef):
        result = best_first_search(nsg.graph, nsg.data, query, entry, ef,
                                   ctx=ctx)
        return (result.ids.tolist(), result.dists.tolist(), result.ndc,
                result.hops, result.visited)

    # ef alternates so each context's heaps regrow while others run
    efs = [32 if i % 3 else 200 for i in range(len(queries))]
    sequential = SearchContext(nsg.data)
    want = [answer(sequential, q, ef) for q, ef in zip(queries, efs)]

    n_threads = 3
    got: dict[int, list] = {}
    start = threading.Barrier(n_threads)

    def worker(slot):
        ctx = SearchContext(nsg.data)
        start.wait()
        for _ in range(3):
            got[slot] = [answer(ctx, q, ef) for q, ef in zip(queries, efs)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for slot in range(n_threads):
        assert got[slot] == want, f"thread {slot}"
