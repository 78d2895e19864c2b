"""Smoke test of the benchmark suite at toy sizes.

    python3 -m pytest -q benchmarks/suite/test_suite.py

Runs all four workloads traced (which measures each one untraced and
traced) on a few hundred points, and checks that every metric
``BENCHMARK.json`` declares comes out with its unit, that the outputs
pass their checks, that a corrupted reference row is counted as a
failure, and that the span accounting adds up.
"""

from __future__ import annotations

import json
import re

import pytest

import run

PROBLEM = run._preflight()
if PROBLEM is not None:  # pragma: no cover - environment
    pytest.skip(PROBLEM, allow_module_level=True)

import workloads  # noqa: E402
from spans import Span, covered, self_times  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())
TOY = dict(n=600, queries=300, seconds=1.5, repeats=1)


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    cfg = workloads.Config(seed=5, scratch=tmp_path_factory.mktemp("suite"),
                           **TOY)
    return {name: workloads.run(name, cfg, trace=True)
            for name in run.WORKLOAD_NAMES}


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


def test_every_declared_metric_is_emitted_with_its_unit(outcomes):
    for name, outcome in outcomes.items():
        assert outcome.correct, (name, outcome.failures)
        for trace in (False, True):
            line = run._result_line(outcome, SPEC, trace)
            declared = run._declared(SPEC, trace)
            assert set(line["metrics"]) == set(declared), name
            for metric, entry in line["metrics"].items():
                assert entry["unit"] == declared[metric]
        for metric in SPEC["end_to_end"]:
            assert outcome.metrics[metric["name"]][0] > 0, (name, metric)
        assert outcome.metrics["error_rate"][0] == 0


def test_self_time_plus_children_equals_each_span(outcomes):
    for name, outcome in outcomes.items():
        spans = [Span(row) for row in outcome.spans]
        selfs = self_times(spans)
        by_parent = {}
        for span in spans:
            by_parent.setdefault((span.proc, span.parent), []).append(span)
        for span in spans:
            kids = by_parent.get((span.proc, span.id), [])
            for kid in kids:
                assert span.start <= kid.start and kid.end <= span.end
            cover = covered([(k.start, k.end) for k in kids],
                            span.start, span.end)
            assert selfs[(span.proc, span.id)] >= 0
            assert selfs[(span.proc, span.id)] + cover == pytest.approx(
                span.duration, abs=1e-12)
        assert min(outcome.coverage.values()) > 0.8, (name, outcome.coverage)


def test_corrupted_reference_row_counts_as_a_failure(monkeypatch, tmp_path):
    original = workloads.sequential_reference

    def corrupted(index, queries, **kwargs):
        ids, ndc = original(index, queries, **kwargs)
        ids[0, 0] = -7
        return ids, ndc

    monkeypatch.setattr(workloads, "sequential_reference", corrupted)
    cfg = workloads.Config(seed=5, scratch=tmp_path, **TOY)
    outcome = workloads.run("search", cfg)
    assert outcome.failed == 1 and not outcome.correct
    assert outcome.metrics["error_rate"][0] == pytest.approx(
        1 / outcome.attempted)


@pytest.mark.parametrize("parent, change, better, more_failures, expected", [
    ([10.0] * 10, [12.0] * 10, "higher", False, "improved"),
    ([10.0] * 10, [12.0] * 10, "higher", True, "unresolved"),
    ([10.0] * 9, [12.0] * 9, "higher", False, "within bound"),
    ([10.0] * 10, [8.0] * 10, "higher", False, "regressed"),
    ([10.0] * 10, [9.8] * 10, "higher", False, "within bound"),
    ([5.0, 15.0] * 5, [9.0] * 10, "lower", False, "unresolved"),
])
def test_compare_verdicts(parent, change, better, more_failures, expected):
    assert run.verdict(parent, change, better, 0.1,
                       more_failures)[0] == expected


def _ledger(path, seconds, failed):
    metrics = {"setup_s": {"value": 1.0, "unit": "s"}}
    path.write_text(json.dumps([
        {"workload": "search", "trace": False, "seconds": seconds,
         "sizes": {"n": 10}, "attempted": 100, "failed": failed,
         "metrics": metrics}
    ] * 10))
    return str(path)


def test_compare_refuses_unlike_runs_and_fails_on_more_failures(tmp_path):
    parent = _ledger(tmp_path / "a.json", 12, 0)
    assert run.compare([parent, "--", parent], SPEC) == 0
    shorter = _ledger(tmp_path / "b.json", 6, 0)
    assert run.compare([parent, "--", shorter], SPEC) == 2
    failing = _ledger(tmp_path / "c.json", 12, 1)
    assert run.compare([parent, "--", failing], SPEC) == 1
