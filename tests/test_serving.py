"""Serving front door: coalescing correctness, admission, drain.

The contract under test is the tentpole claim: concurrent single-query
requests coalesced into one fused-kernel ``search_batch`` call return
responses *bit-identical* (ids and NDC) to a direct ``index.search()``
of the same vector — batching is a throughput transform, never a
semantic one.  On top of that: per-request deadlines ride the
``QueryBudget``/``degraded`` machinery without leaving the fused MT
path, malformed requests fail alone (never their batchmates), the
bounded queue sheds load with 429, and a draining server finishes
in-flight work while refusing new requests with 503.

Runs in both kernel modes (listed in DUAL_MODE_SUITES): with
``REPRO_NO_NATIVE=1`` the same requests flow through the pure-NumPy
batch path — slower, same bits.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import _native
from repro import observability as obs
from repro.batch import BatchQueryResult
from repro.serving import (
    BackgroundServer,
    Coalescer,
    DeadlineExceeded,
    Draining,
    Overloaded,
    ProtocolError,
    RequestFailed,
    Server,
    ServingConfig,
    parse_search_request,
)
from repro.serving.protocol import SearchRequest

DIM = 16
K = 10
EF = 64


@pytest.fixture(scope="module")
def served_index():
    """A small deterministic-seed index (NSG routes from the medoid, so
    sequential and batched searches share seeds bit-for-bit)."""
    rng = np.random.default_rng(11)
    data = rng.standard_normal((1500, DIM)).astype(np.float32)
    index = repro.create("nsg", seed=3)
    index.build(data)
    return index


@pytest.fixture(scope="module")
def query_set():
    rng = np.random.default_rng(12)
    return rng.standard_normal((48, DIM)).astype(np.float32)


@pytest.fixture(scope="module")
def sequential_reference(served_index, query_set):
    return [served_index.search(q, k=K, ef=EF) for q in query_set]


def make_request(vector, **extra) -> SearchRequest:
    body = json.dumps({"vector": list(map(float, vector)), **extra}).encode()
    return parse_search_request(body, DIM, default_k=K, default_ef=EF)


def post_json(port: int, payload, path: str = "/search", timeout=30.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = payload if isinstance(payload, (bytes, str)) else json.dumps(payload)
        conn.request("POST", path, body,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def run_concurrent_submits(coalescer, requests):
    """Drive many submits concurrently on one event loop; returns
    results/errors in request order."""

    async def go():
        return await asyncio.gather(
            *(coalescer.submit(r) for r in requests),
            return_exceptions=True,
        )

    return asyncio.run(go())


def fake_result(n: int, k: int, workers: int) -> BatchQueryResult:
    return BatchQueryResult(
        ids=np.zeros((n, k), dtype=np.int64),
        dists=np.zeros((n, k)),
        ndc=np.ones(n, dtype=np.int64),
        hops=np.zeros(n, dtype=np.int64),
        visited=np.zeros(n, dtype=np.int64),
        elapsed_s=0.0, workers=workers,
        errors=[None] * n,
        degraded=np.zeros(n, dtype=bool),
        kernel_path="fake",
    )


class GatedIndex:
    """Duck-typed index whose ``search_batch`` blocks until ``gate`` is
    set, and records each call: entry time, queries, k, budgets."""

    dim = DIM

    def __init__(self):
        self.gate = threading.Event()
        self.calls: list[dict] = []

    @property
    def sizes(self) -> list[int]:
        return [len(call["queries"]) for call in self.calls]

    def search_batch(self, queries, k=10, ef=None, workers=1,
                     budget=None, **_):
        self.calls.append({
            "entered": time.perf_counter(), "queries": queries.copy(),
            "k": k, "budget": budget,
        })
        self.gate.wait(timeout=30.0)
        return fake_result(len(queries), k, workers)


def run_behind_blocker(coalescer, index, requests, spacing_s=0.0):
    """Start one request alone so it holds the only kernel slot, submit
    ``requests`` (``spacing_s`` apart) while it is held, then open the
    gate.  Returns the queued requests' results in order."""

    async def go():
        blocker = asyncio.ensure_future(
            coalescer.submit(make_request(np.zeros(DIM)))
        )
        await asyncio.sleep(0.005)           # the blocker is in the kernel
        queued = []
        for request in requests:
            queued.append(asyncio.ensure_future(coalescer.submit(request)))
            await asyncio.sleep(spacing_s)
        await asyncio.sleep(0.005)
        index.gate.set()
        await blocker
        return await asyncio.gather(*queued, return_exceptions=True)

    try:
        return asyncio.run(go())
    finally:
        index.gate.set()
        coalescer.close()


# -- protocol ------------------------------------------------------------


class TestProtocol:
    def test_defaults_applied(self):
        req = make_request(np.zeros(DIM))
        assert req.k == K and req.ef == EF
        assert req.deadline_ms is None and req.max_ndc is None

    def test_ef_floored_to_k(self):
        req = make_request(np.zeros(DIM), k=32, ef=4)
        assert req.ef == 32

    @pytest.mark.parametrize("body", [
        b"not json",
        b"[1,2,3]",
        b'{"k": 5}',
        b'{"vector": []}',
        b'{"vector": "nope"}',
        b'{"vector": [1, "x"]}',
        json.dumps({"vector": [0.0] * (DIM + 1)}).encode(),
        json.dumps({"vector": [float("nan")] * DIM}).encode(),
        json.dumps({"vector": [0.0] * DIM, "k": 0}).encode(),
        json.dumps({"vector": [0.0] * DIM, "k": "five"}).encode(),
        json.dumps({"vector": [0.0] * DIM, "deadline_ms": -5}).encode(),
        json.dumps({"vector": [0.0] * DIM, "bogus": 1}).encode(),
    ])
    def test_malformed_rejected(self, body):
        with pytest.raises(ProtocolError):
            parse_search_request(body, DIM, default_k=K, default_ef=EF)

    def test_nan_vector_rejected(self):
        body = json.dumps({"vector": [None] + [0.0] * (DIM - 1)}).encode()
        with pytest.raises(ProtocolError):
            parse_search_request(body, DIM, default_k=K, default_ef=EF)

    def test_budget_mapping(self):
        req = make_request(np.zeros(DIM), deadline_ms=25, max_ndc=5000)
        budget = req.make_budget(0.025)
        assert budget.deadline_s == pytest.approx(0.025)
        assert budget.max_ndc == 5000
        assert make_request(np.zeros(DIM)).make_budget(None) is None


# -- coalescer correctness ----------------------------------------------


class TestCoalescerBitIdentity:
    def test_concurrent_equals_sequential(
        self, served_index, query_set, sequential_reference
    ):
        coalescer = Coalescer(
            served_index, max_batch=16, workers=2
        )
        requests = [make_request(q) for q in query_set]
        results = run_concurrent_submits(coalescer, requests)
        coalescer.close()
        for got, want in zip(results, sequential_reference):
            assert not isinstance(got, Exception), got
            assert list(got["ids"][got["ids"] >= 0]) == list(want.ids)
            assert got["ndc"] == want.ndc
            assert not got["degraded"]
        # and they actually coalesced
        assert coalescer.stats.batches < len(query_set)
        assert coalescer.stats.mean_batch_size > 1.0

    def test_generous_deadline_changes_no_bits(
        self, served_index, query_set, sequential_reference
    ):
        coalescer = Coalescer(
            served_index, max_batch=16, workers=2
        )
        requests = [make_request(q, deadline_ms=60_000) for q in query_set]
        results = run_concurrent_submits(coalescer, requests)
        coalescer.close()
        for got, want in zip(results, sequential_reference):
            assert not isinstance(got, Exception), got
            assert list(got["ids"][got["ids"] >= 0]) == list(want.ids)
            assert got["ndc"] == want.ndc
            assert not got["degraded"]

    @pytest.mark.skipif(_native.LIB is None, reason="native kernel unavailable")
    def test_deadline_budgets_stay_on_fused_kernel(
        self, served_index, query_set
    ):
        """The fast-path fix under test: SLO-budgeted batches must run
        the fused MT kernel, not the chunked Python fallback."""
        was_on, was_tracing = obs.enabled(), obs.tracing()
        # hop tracing would keep every batch off the fused kernel
        obs.enable(metrics=was_on, trace=False)
        try:
            coalescer = Coalescer(
                served_index, max_batch=16, workers=2
            )
            requests = [make_request(q, deadline_ms=60_000)
                        for q in query_set]
            results = run_concurrent_submits(coalescer, requests)
            coalescer.close()
        finally:
            obs.disable()
            if was_on:
                obs.enable(metrics=True, trace=was_tracing)
        assert all(r["kernel_path"] == "fused_mt" for r in results)
        assert set(coalescer.stats.kernel_paths) == {"fused_mt"}

    def test_mixed_budgets_preserved_per_request(self, served_index, query_set):
        """Heterogeneous SLOs in one batch: the hopeless deadline
        degrades its own request only."""
        coalescer = Coalescer(
            served_index, max_batch=len(query_set), workers=2
        )
        requests = [make_request(q, deadline_ms=60_000) for q in query_set]
        # one request with an un-meetable NDC cap instead of a tiny
        # deadline (deterministic in both kernel modes)
        requests[3] = make_request(query_set[3], max_ndc=1, deadline_ms=60_000)
        results = run_concurrent_submits(coalescer, requests)
        coalescer.close()
        assert results[3]["degraded"]
        flags = [r["degraded"] for i, r in enumerate(results) if i != 3]
        assert not any(flags)

    def test_tiny_deadline_degrades_not_errors(self, served_index, query_set):
        coalescer = Coalescer(
            served_index, max_batch=8, workers=2
        )
        # 10ms SLO: admitted (not expired in queue) but fires mid-walk
        # only if the walk is slow; either way the response is a valid
        # best-k, never an exception
        requests = [make_request(q, deadline_ms=10.0) for q in query_set[:8]]
        results = run_concurrent_submits(coalescer, requests)
        coalescer.close()
        for got in results:
            assert not isinstance(got, Exception), got
            assert got["ndc"] >= 0

    def test_batch_key_separates_parameter_groups(self, served_index, query_set):
        """Different (k, ef) never share a batch — bit-identity demands
        exact parameters."""
        coalescer = Coalescer(
            served_index, max_batch=64, workers=2
        )
        requests = [
            make_request(q, k=5 if i % 2 else K) for i, q in enumerate(query_set)
        ]
        results = run_concurrent_submits(coalescer, requests)
        coalescer.close()
        for i, (got, q) in enumerate(zip(results, query_set)):
            want = served_index.search(q, k=5 if i % 2 else K, ef=EF)
            assert list(got["ids"][got["ids"] >= 0]) == list(want.ids)
            assert got["ndc"] == want.ndc
        assert coalescer.stats.batches >= 2


class TestCoalescerResilience:
    def test_nan_batchmate_fails_alone(self, served_index, query_set,
                                       sequential_reference):
        """A request that slips past parse with a poisoned vector is
        isolated by the batch layer; its batchmates still answer
        bit-identically."""
        coalescer = Coalescer(
            served_index, max_batch=8, workers=2
        )
        requests = [make_request(q) for q in query_set[:8]]
        poisoned = make_request(query_set[2])
        poisoned.vector = poisoned.vector.copy()
        poisoned.vector[0] = np.nan
        requests[2] = poisoned
        results = run_concurrent_submits(coalescer, requests)
        coalescer.close()
        assert isinstance(results[2], RequestFailed)
        for i in (0, 1, 3, 4, 5, 6, 7):
            want = sequential_reference[i]
            got = results[i]
            assert not isinstance(got, Exception), got
            assert list(got["ids"][got["ids"] >= 0]) == list(want.ids)
            assert got["ndc"] == want.ndc

    def test_admission_control_sheds_load(self, query_set):
        """A slow duck-typed index backs the queue up; submissions past
        queue_depth are rejected with Overloaded, not queued forever."""

        class SlowIndex:
            dim = DIM

            def search_batch(self, queries, k=10, ef=None, workers=1,
                             budget=None, **_):
                time.sleep(0.25)
                return fake_result(len(queries), k, workers)

        coalescer = Coalescer(
            SlowIndex(), max_batch=4, queue_depth=8,
        )
        requests = [make_request(q) for q in query_set[:32]]
        results = run_concurrent_submits(coalescer, requests)
        coalescer.close()
        rejected = [r for r in results if isinstance(r, Overloaded)]
        answered = [r for r in results if isinstance(r, dict)]
        assert len(rejected) >= 1
        assert len(answered) >= 8
        assert coalescer.stats.rejected["overloaded"] == len(rejected)

    def test_expired_in_queue_rejected_without_kernel_time(self, query_set):
        """A deadline that lapses while the request queues behind a
        running batch is answered with DeadlineExceeded, not given to
        the kernel."""
        index = GatedIndex()
        coalescer = Coalescer(index, max_batch=1024)
        requests = [
            make_request(q, deadline_ms=1.0) for q in query_set[:4]
        ]
        results = run_behind_blocker(coalescer, index, requests)
        assert all(isinstance(r, DeadlineExceeded) for r in results)
        assert coalescer.stats.rejected["expired"] == len(requests)
        assert coalescer.stats.batches == 1      # the blocker only
        assert index.sizes == [1]

    def test_queued_batch_is_charged_its_pool_wait(self, query_set):
        """The remaining SLO handed to the kernel counts every moment
        since admission, including the wait behind a running batch: a
        request whose deadline passed meanwhile never reaches the
        index, and a live one's budget is cut by its wait."""
        index = GatedIndex()
        coalescer = Coalescer(index, max_batch=8)
        slo_s = {1: 0.050, 2: 2.0}
        admitted: dict[int, float] = {}

        async def go():
            blocker = asyncio.ensure_future(
                coalescer.submit(make_request(query_set[0]))
            )
            await asyncio.sleep(0.010)       # the blocker is in the kernel
            queued = []
            for i, slo in slo_s.items():
                admitted[i] = time.perf_counter()
                queued.append(asyncio.ensure_future(coalescer.submit(
                    make_request(query_set[i], deadline_ms=slo * 1000.0)
                )))
            await asyncio.sleep(0.090)
            index.gate.set()
            await blocker
            return await asyncio.gather(*queued, return_exceptions=True)

        try:
            late, live = asyncio.run(go())
        finally:
            index.gate.set()
            coalescer.close()
        assert isinstance(late, DeadlineExceeded)
        assert isinstance(live, dict), live
        assert coalescer.stats.rejected["expired"] == 1
        assert index.sizes == [1, 1]
        tolerance_s = 0.010
        for call in index.calls:
            for row, budget in zip(call["queries"], call["budget"] or []):
                if budget is None:
                    continue
                i = next(i for i in slo_s
                         if np.array_equal(row, query_set[i]))
                since_admission = call["entered"] - admitted[i]
                assert budget.deadline_s <= (
                    slo_s[i] - since_admission + tolerance_s
                ), (i, budget.deadline_s, since_admission)

    def test_drain_refuses_new_finishes_inflight(self, served_index, query_set):
        coalescer = Coalescer(
            served_index, max_batch=1024, workers=2
        )

        async def go():
            inflight = [
                asyncio.ensure_future(coalescer.submit(make_request(q)))
                for q in query_set[:6]
            ]
            await asyncio.sleep(0.02)      # let them queue
            drained = asyncio.ensure_future(coalescer.drain(timeout_s=30.0))
            await asyncio.sleep(0.02)      # draining flag now set
            with pytest.raises(Draining):
                await coalescer.submit(make_request(query_set[10]))
            results = await asyncio.gather(*inflight)
            assert await drained
            return results

        results = asyncio.run(go())
        coalescer.close()
        for got, q in zip(results, query_set[:6]):
            want = served_index.search(q, k=K, ef=EF)
            assert list(got["ids"][got["ids"] >= 0]) == list(want.ids)
            assert got["ndc"] == want.ndc


class TestContinuousBatching:
    """A batch starts whenever a kernel slot is free, so requests that
    arrive while one runs form the next batch together."""

    def test_arrivals_behind_a_running_batch_share_the_next(
        self, query_set
    ):
        index = GatedIndex()
        coalescer = Coalescer(index, max_batch=64)
        requests = [make_request(q) for q in query_set[:5]]
        results = run_behind_blocker(
            coalescer, index, requests, spacing_s=0.005
        )
        assert index.sizes == [1, 5]
        assert [r["batch_size"] for r in results] == [5] * 5
        assert np.array_equal(index.calls[1]["queries"], query_set[:5])

    def test_full_bucket_runs_in_max_batch_slices_in_arrival_order(
        self, query_set
    ):
        index = GatedIndex()
        coalescer = Coalescer(index, max_batch=8)
        requests = [make_request(q) for q in query_set[:20]]
        results = run_behind_blocker(coalescer, index, requests)
        assert all(isinstance(r, dict) for r in results)
        assert index.sizes == [1, 8, 8, 4]
        assert np.array_equal(
            np.concatenate([call["queries"] for call in index.calls[1:]]),
            query_set[:20],
        )

    def test_queued_keys_take_turns(self, query_set):
        index = GatedIndex()
        coalescer = Coalescer(index, max_batch=4)
        requests = [
            make_request(q, k=5 if i % 2 else K)
            for i, q in enumerate(query_set[:20])
        ]
        run_behind_blocker(coalescer, index, requests)
        assert [call["k"] for call in index.calls] == [K, K, 5, K, 5, K, 5]
        assert index.sizes == [1, 4, 4, 4, 4, 2, 2]


# -- composition: sharded and mutable indexes ---------------------------


@pytest.mark.slow
class TestComposition:
    def test_sharded_index_under_front_door(self, query_set):
        from repro.sharding import ShardedIndex

        rng = np.random.default_rng(21)
        data = rng.standard_normal((1800, DIM)).astype(np.float32)
        sharded = ShardedIndex.build(
            data, num_shards=3, algorithm="nsg", seed=3
        )
        reference = sharded.search_batch(query_set, k=K, ef=EF)
        coalescer = Coalescer(
            sharded, max_batch=16, workers=2
        )
        results = run_concurrent_submits(
            coalescer, [make_request(q) for q in query_set]
        )
        coalescer.close()
        for i, got in enumerate(results):
            assert not isinstance(got, Exception), got
            assert (got["ids"] == reference.ids[i]).all()
            assert got["ndc"] == reference.ndc[i]

    def test_delta_tier_under_front_door(self, query_set):
        rng = np.random.default_rng(22)
        data = rng.standard_normal((1200, DIM)).astype(np.float32)
        index = repro.create("nsg", seed=3)
        index.build(data)
        index.auto_consolidate = False
        for row in rng.standard_normal((30, DIM)).astype(np.float32):
            index.insert(row)
        reference = [index.search(q, k=K, ef=EF) for q in query_set[:16]]
        coalescer = Coalescer(
            index, max_batch=8, workers=2
        )
        results = run_concurrent_submits(
            coalescer, [make_request(q) for q in query_set[:16]]
        )
        coalescer.close()
        for got, want in zip(results, reference):
            assert not isinstance(got, Exception), got
            assert list(got["ids"][got["ids"] >= 0]) == list(want.ids)
            assert got["ndc"] == want.ndc


# -- HTTP end-to-end -----------------------------------------------------


class TestHTTPServer:
    @pytest.fixture(scope="class")
    def server(self, served_index):
        config = ServingConfig(
            port=0, max_batch=16, workers=2,
            default_k=K, default_ef=EF,
        )
        with BackgroundServer(served_index, config) as background:
            yield background

    def test_concurrent_http_bit_identical(
        self, server, query_set, sequential_reference
    ):
        answers: dict[int, tuple] = {}

        def one(i):
            answers[i] = post_json(
                server.port, {"vector": query_set[i].tolist(),
                              "k": K, "ef": EF},
            )

        threads = [
            threading.Thread(target=one, args=(i,))
            for i in range(len(query_set))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        batch_sizes = set()
        for i, want in enumerate(sequential_reference):
            status, body = answers[i]
            assert status == 200, body
            assert body["ids"] == [int(v) for v in want.ids]
            assert body["ndc"] == want.ndc
            assert not body["degraded"]
            batch_sizes.add(body["batch_size"])
        assert max(batch_sizes) > 1          # coalescing happened

    def test_malformed_request_400s_alone(self, server, query_set,
                                          sequential_reference):
        """Fire a bad request surrounded by good concurrent ones."""
        answers: dict[int, tuple] = {}

        def good(i):
            answers[i] = post_json(
                server.port, {"vector": query_set[i].tolist(),
                              "k": K, "ef": EF},
            )

        def bad():
            answers["bad"] = post_json(server.port, "this is not json")

        threads = [threading.Thread(target=good, args=(i,)) for i in range(8)]
        threads.append(threading.Thread(target=bad))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert answers["bad"][0] == 400
        assert "error" in answers["bad"][1]
        for i in range(8):
            status, body = answers[i]
            assert status == 200
            want = sequential_reference[i]
            assert body["ids"] == [int(v) for v in want.ids]
            assert body["ndc"] == want.ndc

    def test_keepalive_connection_survives_400_and_tiny_deadline(
        self, server, query_set, sequential_reference
    ):
        """One keep-alive connection: a 0.2 ms deadline is answered
        (degraded) or expired in the queue, never an error; a malformed
        request 400s; the same connection then still serves."""
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)

        def post(payload):
            conn.request("POST", "/search", json.dumps(payload),
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())

        try:
            status, body = post({"vector": query_set[0].tolist(),
                                 "k": K, "ef": EF, "deadline_ms": 0.2})
            assert status in (200, 504), (status, body)
            status, body = post({"vector": [1.0, 2.0]})
            assert status == 400 and "error" in body
            status, body = post({"vector": query_set[1].tolist(),
                                 "k": K, "ef": EF})
            assert status == 200, body
            want = sequential_reference[1]
            assert body["ids"] == [int(v) for v in want.ids]
            assert body["ndc"] == want.ndc
        finally:
            conn.close()

    def test_operational_endpoints(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read() == b'{"status": "ok"}'
            conn.request("GET", "/stats")
            stats = json.loads(conn.getresponse().read())
            assert stats["answered"] >= 1
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            conn.request("GET", "/nope")
            response = conn.getresponse()
            response.read()
            assert response.status == 404
            conn.request("GET", "/search")
            response = conn.getresponse()
            response.read()
            assert response.status == 405
        finally:
            conn.close()

    def test_wrong_dimension_400(self, server):
        status, body = post_json(server.port, {"vector": [1.0, 2.0]})
        assert status == 400
        assert "dimension mismatch" in body["error"]


class TestHTTPDrain:
    def test_draining_server_503s_then_stops(self, served_index, query_set):
        config = ServingConfig(
            port=0, max_batch=16, workers=2,
            default_k=K, default_ef=EF,
        )
        background = BackgroundServer(served_index, config).start()
        try:
            status, _ = post_json(
                background.port, {"vector": query_set[0].tolist()},
            )
            assert status == 200
            background.begin_drain()
            status, body = post_json(
                background.port, {"vector": query_set[0].tolist()},
            )
            assert status == 503
            conn = http.client.HTTPConnection(
                "127.0.0.1", background.port, timeout=10
            )
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 503
            assert json.loads(response.read())["status"] == "draining"
            conn.close()
        finally:
            background.stop()


# -- the repro serve command ---------------------------------------------


class TestServeCommand:
    def test_serve_answers_like_search_and_drains_on_sigint(self):
        """``repro serve`` end to end: it builds, listens on an
        ephemeral port, answers one query with the ids and NDC of an
        in-process ``search()`` on the same build, and drains cleanly
        on SIGINT."""
        from repro.datasets import load_dataset

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "nsg", "audio",
             "--n", "300", "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("repro serving on http://"), (
                banner, proc.stderr.read() if proc.poll() is not None else ""
            )
            port = int(banner.split("http://", 1)[1].split()[0]
                       .rsplit(":", 1)[1])
            dataset = load_dataset("audio", cardinality=300, num_queries=1)
            query = dataset.queries[0]
            status, body = post_json(port, {"vector": query.tolist()})
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert status == 200, body
        index = repro.create("nsg", seed=0)
        index.build(dataset.base)
        want = index.search(query, k=10, ef=64)
        assert body["ids"] == [int(v) for v in want.ids]
        assert body["ndc"] == want.ndc
        assert proc.returncode == 0, err
        assert "draining" in out and "stopped" in out
