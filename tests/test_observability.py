"""Observability layer: registry semantics, trace completeness, no-op
bit-identity, exporters, structured logging and the stats CLI.

The central guarantees under test:

* the disabled state is a strict no-op — search results (ids, dists,
  NDC) are bit-identical with instrumentation on and off;
* enabled mode is *lossless* — a query's trace replays its hop
  sequence exactly (``len(hop_events) == result.hops``, running NDC
  lands on ``result.ndc``) and aggregate summaries are exact sums of
  the per-query telemetry;
* a degraded query's ``BudgetReport`` joins its hop-level trace on
  ``trace_id``, from both ``search`` and ``search_batch``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import create, observability as obs
from repro.batch import search_batch
from repro.observability.exporters import (
    format_stats, prometheus_text, read_jsonl, summarize_traces, write_jsonl,
)
from repro.observability.registry import (
    LATENCY_BUCKETS_S, NDC_BUCKETS, MetricsRegistry,
)
from repro.observability.slog import EventLog, StructuredLogger
from repro.resilience import QueryBudget

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _observability_isolation():
    """Every test starts with observability off and empty, and ends with
    it empty in the mode it found (``REPRO_TRACE=1`` runs stay traced in
    the test files that follow)."""
    was_on, was_tracing = obs.enabled(), obs.tracing()
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    if was_on:
        obs.enable(metrics=True, trace=was_tracing)


@pytest.fixture()
def small_data():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(300, 16)).astype(np.float32)
    queries = rng.normal(size=(8, 16)).astype(np.float32)
    return data, queries


@pytest.fixture()
def nsg_index(small_data):
    data, _ = small_data
    index = create("nsg", seed=0)
    index.build(data)
    return index


# -- registry semantics --------------------------------------------------


class TestRegistry:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help")
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_goes_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("x")
        g.set(2.5)
        g.inc(-0.5)
        assert g.value == 2.0

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        assert reg.counter("a_total", labels={"x": "1"}) is not reg.counter(
            "a_total", labels={"x": "2"}
        )
        # label order must not matter
        assert reg.counter("b", labels={"x": "1", "y": "2"}) is reg.counter(
            "b", labels={"y": "2", "x": "1"}
        )

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")
        with pytest.raises(TypeError):
            reg.histogram("m")

    def test_histogram_bucket_edges_le_inclusive(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 1.5, 10.0, 99.0, 100.0, 101.0):
            h.observe(v)
        # le-semantics: 1.0 falls in the le="1" bucket, 101 overflows
        assert h.counts == [2, 2, 2, 1]
        assert h.cumulative() == [2, 4, 6, 7]
        assert h.count == 7
        assert h.sum == pytest.approx(0.5 + 1.0 + 1.5 + 10.0 + 99.0 + 100.0 + 101.0)
        assert h.mean == pytest.approx(h.sum / 7)

    def test_histogram_rejects_unsorted_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=(1.0, 1.0, 2.0))

    def test_standard_bucket_tables(self):
        assert LATENCY_BUCKETS_S[0] == pytest.approx(1e-6)
        assert LATENCY_BUCKETS_S[-1] == 10.0
        assert list(LATENCY_BUCKETS_S) == sorted(LATENCY_BUCKETS_S)
        assert NDC_BUCKETS[0] == 1.0 and NDC_BUCKETS[-1] == float(2**24)


# -- enable/disable state ------------------------------------------------


class TestSwitches:
    def test_default_off(self):
        assert not obs.enabled() and not obs.tracing()

    def test_tracing_implies_metrics(self):
        obs.enable(metrics=False, trace=True)
        assert obs.enabled() and obs.tracing()

    def test_metrics_only(self):
        obs.enable(metrics=True, trace=False)
        assert obs.enabled() and not obs.tracing()

    def test_reset_clears_sinks(self, nsg_index, small_data):
        _, queries = small_data
        obs.enable()
        nsg_index.search(queries[0], k=5)
        assert len(obs.RECORDER) == 1
        obs.reset()
        assert len(obs.RECORDER) == 0
        assert obs.REGISTRY.collect() == []


# -- no-op bit-identity --------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("name", ["nsg", "hnsw", "hcnng", "vamana"])
    @pytest.mark.slow
    def test_search_identical_with_and_without(self, small_data, name):
        data, queries = small_data
        obs.disable()
        plain = create(name, seed=0)
        plain.build(data)
        baseline = [plain.search(q, k=5) for q in queries]
        obs.enable(metrics=True, trace=True)
        traced = create(name, seed=0)
        traced.build(data)
        for query, expect in zip(queries, baseline):
            got = traced.search(query, k=5)
            assert np.array_equal(got.ids, expect.ids)
            assert np.array_equal(got.dists, expect.dists)
            assert got.ndc == expect.ndc
            assert got.hops == expect.hops

    @pytest.mark.slow
    def test_batch_identical_with_and_without(self, small_data):
        data, queries = small_data
        obs.disable()
        plain = create("nsg", seed=0)
        plain.build(data)
        b0 = search_batch(plain, queries, k=5, workers=2)
        obs.enable(metrics=True, trace=True)
        traced = create("nsg", seed=0)
        traced.build(data)
        b1 = search_batch(traced, queries, k=5, workers=2)
        assert np.array_equal(b0.ids, b1.ids)
        assert np.array_equal(b0.ndc, b1.ndc)
        assert np.array_equal(b0.hops, b1.hops)

    def test_disabled_records_nothing(self, nsg_index, small_data):
        _, queries = small_data
        nsg_index.search(queries[0], k=5)
        assert len(obs.RECORDER) == 0
        assert obs.REGISTRY.collect() == []
        result = nsg_index.search(queries[0], k=5)
        assert result.trace_id is None


# -- trace completeness --------------------------------------------------


class TestQueryTraces:
    def test_trace_replays_pinned_nsg_search(self, nsg_index, small_data):
        _, queries = small_data
        obs.enable(metrics=True, trace=True)
        result = nsg_index.search(queries[0], k=5, ef=30)
        traces = obs.RECORDER.snapshot()
        assert len(traces) == 1
        t = traces[0]
        assert t.trace_id == result.trace_id
        assert t.algorithm == "nsg" and t.k == 5 and t.ef == 30
        # every expansion is a hop event; running NDC ends at the total
        assert len(t.hop_events) == result.hops
        assert t.ndc == result.ndc
        assert t.hop_events[-1][1] == result.ndc
        ndcs = [ndc for _, ndc, _ in t.hop_events]
        assert ndcs == sorted(ndcs)
        assert t.seed_ids and t.seed_ndc <= ndcs[0]
        assert t.termination == "completed" and not t.degraded
        assert t.result_ids == [int(i) for i in result.ids]

    def test_budget_trace_joins_report(self, nsg_index, small_data):
        _, queries = small_data
        obs.enable(metrics=True, trace=True)
        result = nsg_index.search(
            queries[0], k=5, budget=QueryBudget(max_ndc=40)
        )
        assert result.degraded
        assert result.budget.trace_id == result.trace_id
        t = obs.RECORDER.snapshot()[-1]
        assert t.termination == "budget:ndc"
        assert t.budget["limit"] == "ndc"
        assert t.ndc <= 40

    def test_batch_traces_join_rows(self, nsg_index, small_data):
        _, queries = small_data
        obs.enable(metrics=True, trace=True)
        batch = search_batch(nsg_index, queries, k=5, workers=2)
        assert batch.batch_id is not None
        assert batch.trace_ids is not None
        assert len(batch.trace_ids) == len(queries)
        by_id = {t.trace_id: t for t in obs.RECORDER.snapshot()}
        assert len(by_id) == len(queries)
        for i, trace_id in enumerate(batch.trace_ids):
            assert trace_id == f"{batch.batch_id}/{i}"
            t = by_id[trace_id]
            # per-query trace NDC matches the batch telemetry exactly
            assert t.ndc == int(batch.ndc[i])
            assert t.hops == int(batch.hops[i])
            assert t.result_ids == [int(v) for v in batch.ids[i] if v >= 0]

    def test_batch_degraded_row_joins_trace(self, nsg_index, small_data):
        _, queries = small_data
        obs.enable(metrics=True, trace=True)
        batch = search_batch(
            nsg_index, queries, k=5, workers=2, budget=QueryBudget(max_ndc=40)
        )
        assert batch.degraded.all()
        by_id = {t.trace_id: t for t in obs.RECORDER.snapshot()}
        for i in range(len(queries)):
            t = by_id[batch.trace_ids[i]]
            assert t.degraded and t.termination == "budget:ndc"

    def test_hnsw_descent_hops_traced(self, small_data):
        data, queries = small_data
        index = create("hnsw", seed=0)
        index.build(data)
        obs.enable(metrics=True, trace=True)
        result = index.search(queries[0], k=5)
        t = obs.RECORDER.snapshot()[-1]
        assert len(t.hop_events) == result.hops
        assert t.ndc == result.ndc


# -- metrics from instrumented paths -------------------------------------


class TestMetrics:
    def test_query_metrics(self, nsg_index, small_data):
        _, queries = small_data
        obs.enable(metrics=True, trace=False)
        for q in queries:
            nsg_index.search(q, k=5)
        assert obs.REGISTRY.get("repro_queries_total").value == len(queries)
        hist = obs.REGISTRY.get("repro_query_ndc")
        assert hist.count == len(queries)
        # metrics-only mode must not record traces
        assert len(obs.RECORDER) == 0

    def test_degraded_and_budget_counters(self, nsg_index, small_data):
        _, queries = small_data
        obs.enable(metrics=True, trace=False)
        nsg_index.search(queries[0], k=5, budget=QueryBudget(max_ndc=40))
        assert obs.REGISTRY.get("repro_degraded_queries_total").value == 1
        assert obs.REGISTRY.get(
            "repro_budget_exhausted_total", labels={"limit": "ndc"}
        ).value == 1

    def test_batch_metrics(self, nsg_index, small_data):
        _, queries = small_data
        obs.enable(metrics=True, trace=False)
        batch = search_batch(nsg_index, queries, k=5, workers=2)
        assert obs.REGISTRY.get(
            "repro_batch_queries_total"
        ).value == len(queries)
        stage = obs.REGISTRY.get(
            "repro_batch_stage_seconds", labels={"stage": "seed_acquisition"}
        )
        assert stage.count == 1
        assert 0.0 < batch.worker_utilization <= 1.0
        assert obs.REGISTRY.get(
            "repro_batch_worker_utilization"
        ).value == pytest.approx(batch.worker_utilization)

    def test_integrity_metrics_and_event(self, small_data):
        from repro import verify_index
        from repro.faults import corrupt_adjacency

        data, _ = small_data
        index = create("nsg", seed=0)
        index.build(data)
        index.graph = corrupt_adjacency(index.graph, seed=3)
        obs.enable(metrics=True, trace=False)
        report = verify_index(index, repair=True, strict=False)
        assert report.repairs
        issues = obs.REGISTRY.get("repro_index_integrity_issues_total")
        repairs = obs.REGISTRY.get("repro_index_repairs_total")
        assert issues.value == len(report.issues) + len(report.repairs)
        assert repairs.value == len(report.repairs)
        events = [e for e in obs.EVENTS.snapshot()
                  if e["event"] == "index.integrity"]
        assert events and events[-1]["repairs"] == len(report.repairs)

    def test_build_metrics_and_spans(self, small_data):
        data, _ = small_data
        obs.enable(metrics=True, trace=False)
        index = create("nsg", seed=0)
        report = index.build(data)
        assert obs.REGISTRY.get("repro_builds_total").value == 1
        spans = obs.SPANS.snapshot()
        names = [s.name for s in spans]
        assert "build" in names
        # one span per C1-C5 phase, agreeing with BuildReport.phases
        phase_spans = {
            s.name.removeprefix("build."): s.wall_s
            for s in spans if s.name.startswith("build.")
        }
        assert set(phase_spans) == set(report.phases)


# -- exporters -----------------------------------------------------------


class TestExporters:
    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("t_total", "things").inc(2)
        h = reg.histogram("lat", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        g = reg.gauge("up", labels={"kernel": "c"})
        g.set(1)
        text = prometheus_text(reg)
        assert "# TYPE t_total counter" in text
        assert "t_total 2" in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 5.55" in text
        assert "lat_count 3" in text
        assert 'up{kernel="c"} 1' in text
        assert text.endswith("\n")

    def test_jsonl_round_trip(self, tmp_path, nsg_index, small_data):
        _, queries = small_data
        obs.enable(metrics=True, trace=True)
        for q in queries[:3]:
            nsg_index.search(q, k=5)
        out = tmp_path / "traces.jsonl"
        assert obs.dump_traces(out) == 3
        records = read_jsonl(out)
        assert len(records) == 3
        for record, trace in zip(records, obs.RECORDER.snapshot()):
            assert record == trace.to_dict()
            json.dumps(record)  # schema is pure JSON

    def test_summary_totals_are_exact(self, nsg_index, small_data):
        _, queries = small_data
        obs.enable(metrics=True, trace=True)
        results = [nsg_index.search(q, k=5) for q in queries]
        summary = summarize_traces(obs.RECORDER.snapshot())
        assert summary["queries"] == len(queries)
        assert summary["total_ndc"] == sum(r.ndc for r in results)
        assert summary["total_hops"] == sum(r.hops for r in results)
        assert summary["terminations"] == {"completed": len(queries)}
        assert summary["algorithms"] == {"nsg": len(queries)}
        text = format_stats(summary)
        assert f"total ndc      {summary['total_ndc']}" in text

    def test_summary_matches_prometheus_sum(self, nsg_index, small_data):
        _, queries = small_data
        obs.enable(metrics=True, trace=True)
        for q in queries:
            nsg_index.search(q, k=5)
        summary = summarize_traces(obs.RECORDER.snapshot())
        hist = obs.REGISTRY.get("repro_query_ndc")
        assert hist.sum == summary["total_ndc"]
        assert hist.count == summary["queries"]


# -- structured logging --------------------------------------------------


class TestStructuredLogging:
    def test_events_recorded(self):
        import io
        import logging

        log = StructuredLogger("repro.test")
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        log._logger.addHandler(handler)
        try:
            log.warning("thing.happened", code=7, detail="two words")
        finally:
            log._logger.removeHandler(handler)
        events = obs.EVENTS.snapshot()
        assert events[-1]["event"] == "thing.happened"
        assert events[-1]["code"] == 7
        assert events[-1]["level"] == "WARNING"
        line = stream.getvalue()
        assert "thing.happened" in line and 'detail="two words"' in line

    def test_echo_keeps_stdout_verbatim(self, capsys):
        log = StructuredLogger("repro.test")
        log.echo("plain table output", event="bench.table", rows=3)
        captured = capsys.readouterr()
        assert captured.out == "plain table output\n"
        assert obs.EVENTS.snapshot()[-1]["rows"] == 3

    def test_event_log_bounded(self):
        small = EventLog(capacity=4)
        for i in range(10):
            small.record({"i": i})
        assert [e["i"] for e in small.snapshot()] == [6, 7, 8, 9]

    def test_dump_events(self, tmp_path):
        log = StructuredLogger("repro.test")
        log.info("a")
        log.info("b")
        out = tmp_path / "events.jsonl"
        n = obs.dump_events(out)
        assert n == len(read_jsonl(out)) >= 2


# -- CLI -----------------------------------------------------------------


class TestCli:
    def test_stats_command(self, tmp_path, capsys, nsg_index, small_data):
        from repro.__main__ import main

        _, queries = small_data
        obs.enable(metrics=True, trace=True)
        results = [nsg_index.search(q, k=5) for q in queries]
        trace_file = tmp_path / "t.jsonl"
        obs.dump_traces(trace_file)
        obs.disable()
        assert main(["stats", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert f"queries        {len(queries)}" in out
        assert f"total ndc      {sum(r.ndc for r in results)}" in out

    def test_stats_command_missing_traces(self, tmp_path, capsys):
        from repro.__main__ import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["stats", str(empty)]) == 1


# -- native kernel load state -------------------------------------------


@pytest.mark.faults
class TestNativeLoadObservability:
    def _probe(self, env_extra, code):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-c", code], cwd=REPO_ROOT, env=env,
            capture_output=True, text=True, timeout=180,
        )

    def test_load_failure_is_structured(self, tmp_path):
        # An unusable build dir (a *file*) forces the compile/load path
        # to fail without touching the real cached kernel.
        bad_dir = tmp_path / "not_a_dir"
        bad_dir.write_text("in the way")
        proc = self._probe(
            # "" clears an inherited opt-out (dual-mode runs) so the
            # compile path genuinely runs and fails
            {"REPRO_NATIVE_BUILD_DIR": str(bad_dir), "REPRO_NO_NATIVE": ""},
            "import warnings\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    from repro import _native, observability as obs\n"
            "assert _native.LIB is None and _native.LOAD_ERROR\n"
            "assert any(w.category is RuntimeWarning for w in caught)\n"
            "assert obs.REGISTRY.get('repro_native_kernel_loaded').value == 0\n"
            "assert obs.REGISTRY.get("
            "'repro_native_kernel_load_failures_total').value == 1\n"
            "events = [e for e in obs.EVENTS.snapshot()"
            " if e['event'] == 'native.kernel_load_failed']\n"
            "assert events and events[0]['error'] == _native.LOAD_ERROR\n"
            "print('ok')",
        )
        assert proc.returncode == 0, proc.stderr
        assert "ok" in proc.stdout

    def test_no_native_optout_is_not_a_failure(self):
        proc = self._probe(
            {"REPRO_NO_NATIVE": "1"},
            "from repro import _native, observability as obs\n"
            "assert _native.LIB is None\n"
            "assert obs.REGISTRY.get('repro_native_kernel_loaded').value == 0\n"
            "assert obs.REGISTRY.get("
            "'repro_native_kernel_load_failures_total') is None\n"
            "print('ok')",
        )
        assert proc.returncode == 0, proc.stderr
        assert "ok" in proc.stdout

    def test_healthy_load_sets_gauge(self):
        proc = self._probe(
            {},
            "from repro import _native, observability as obs\n"
            "expected = 1 if _native.LIB is not None else 0\n"
            "assert obs.REGISTRY.get("
            "'repro_native_kernel_loaded').value == expected\n"
            "print('ok')",
        )
        assert proc.returncode == 0, proc.stderr
        assert "ok" in proc.stdout


# -- environment switches ------------------------------------------------


@pytest.mark.faults
class TestEnvSwitches:
    def test_repro_trace_enables_tracing(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_TRACE"] = "1"
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro import observability as obs\n"
             "assert obs.enabled() and obs.tracing()\n"
             "print('ok')"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_repro_metrics_enables_metrics_only(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_METRICS"] = "1"
        env.pop("REPRO_TRACE", None)
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro import observability as obs\n"
             "assert obs.enabled() and not obs.tracing()\n"
             "print('ok')"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
