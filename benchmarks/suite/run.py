"""The suite's one command: run workloads, print every metric by name
and unit, check the outputs, and keep a ledger of runs.

    python3 benchmarks/suite/run.py [--workload all|search|serve|churn|sharded]
                                    [--seed S] [--seconds T] [--trace [0|1]]
    python3 benchmarks/suite/run.py compare PARENT.json... -- CHANGE.json...

The ``BENCHMARK.json`` command takes ``--workload W --seed S --seconds T
--trace 0|1``; ``--seconds`` defaults to its ``run_seconds``.  Each
workload prints its metrics, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` untraced, its per-layer metrics with ``--trace``.
Every run also writes a new ledger file under
``benchmarks/results/suite/``.  The exit code is 0 only when every
output check passed; 2 means the run could not start (no program
source, native kernel missing, tracing environment set).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
LEDGER = ROOT / "benchmarks" / "results" / "suite"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("search", "serve", "churn", "sharded")
MIN_PAIRS = 10

#: the ungated end-to-end metrics, printed and judged by ``compare``:
#: name -> (better, bound as a share of the parent median).  The gated
#: ones, with their units, are declared in BENCHMARK.json.
EXTRA_METRICS = {
    "query_p90_us": ("lower", 0.25),
    "query_p99_us": ("lower", 0.25),
    "error_rate": ("lower", 0.0),
    "adc_batch_qps": ("higher", 0.25),
    "adc_recall_at_10": ("higher", 0.005),
    "http_p50_ms_heavy": ("lower", 0.25),
    "http_p90_ms_heavy": ("lower", 0.25),
    "insert_p50_us": ("lower", 0.25),
    "consolidate_s": ("lower", 0.25),
    # medians across rounds beside the fastest decile the metric keeps
    "query_p50_us.median_round": ("lower", 0.25),
    "query_p90_us.median_round": ("lower", 0.25),
    "throughput_per_s.median_round": ("higher", 0.25),
    "adc_batch_qps.median_round": ("higher", 0.25),
    "insert_p50_us.median_round": ("lower", 0.25),
    "consolidate_s.median_round": ("lower", 0.25),
}


def _preflight() -> str | None:
    """Why this run cannot measure the program, or None."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"program source not found under {SRC}"
    for var in ("REPRO_TRACE", "REPRO_METRICS"):
        if os.environ.get(var):
            return (f"{var} is set; hop tracing forces the Python frontier "
                    "and would measure a different program")
    # the load's thread count is fixed (two), not the machine's
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "2"
    sys.path.insert(0, str(SRC))
    from repro import _native

    if _native.LIB is None:
        return (f"native kernel did not load ({_native.LOAD_ERROR_KIND}: "
                f"{_native.LOAD_ERROR})")
    return None


def _fingerprint() -> dict:
    import numpy as np
    from repro import _native

    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain"],
                capture_output=True, text=True, timeout=30)
            if head.returncode == 0:
                commit = head.stdout.strip()
                dirty = bool(status.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "native_loaded": _native.LIB is not None,
        "native_load_error_kind": _native.LOAD_ERROR_KIND,
        "git_commit": commit, "git_dirty": dirty,
    }


def _declared(spec: dict, trace: bool) -> dict:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def _result_line(outcome, spec: dict, trace: bool) -> dict:
    """The run's last line.  Every metric the run measured must be
    declared: in BENCHMARK.json (with the unit it was measured in) or,
    for an ungated end-to-end metric, in ``EXTRA_METRICS``."""
    declared = _declared(spec, trace)
    if trace:
        values, known = outcome.layers, set(declared)
    else:
        values = {name: value for name, (value, _u) in outcome.metrics.items()}
        known = set(declared) | set(EXTRA_METRICS)
        for name, (_value, unit) in outcome.metrics.items():
            if name in declared and unit != declared[name]:
                raise ValueError(f"{name} measured in {unit}, "
                                 f"declared {declared[name]}")
    undeclared = set(values) - known
    missing = set(declared) - set(values)
    if undeclared or missing:
        raise ValueError(f"undeclared metrics {sorted(undeclared)}, "
                         f"declared but not measured {sorted(missing)}")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in declared.items()}
    return {"correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def _record(outcome, args, fingerprint: dict) -> dict:
    def table(metrics):
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()}

    record = {
        "workload": outcome.workload,
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "trace": bool(args.trace), "seed": args.seed,
        "seconds": args.seconds, "sizes": outcome.sizes,
        "fingerprint": fingerprint, "correct": outcome.correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failures": outcome.failures, "setup_s_runs": outcome.setup_s,
        "metrics": table(outcome.metrics), "notes": outcome.notes,
    }
    if args.trace:
        record["traced_metrics"] = table(outcome.traced_metrics)
        record["overhead"] = {
            name: value - outcome.untraced_alone[name][0]
            for name, (value, _unit) in outcome.traced_metrics.items()
        }
        record["layers"] = outcome.layers
        record["coverage"] = outcome.coverage
    return record


def _write_ledger(record: dict, spans) -> Path:
    """A new file per run; an earlier file is never overwritten."""
    from spans import write_jsonl

    LEDGER.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%S%fZ")
    kind = "traced" if record["trace"] else "plain"
    base = f"{stamp}-{record['workload']}-seed{record['seed']}-{kind}"
    for attempt in range(1000):
        path = LEDGER / (base + (f"-{attempt}" if attempt else "") + ".json")
        try:
            with open(path, "x") as handle:
                if spans:
                    record["spans_file"] = path.stem + ".spans.jsonl.gz"
                json.dump(record, handle, indent=1)
            break
        except FileExistsError:
            continue
    if spans:
        write_jsonl(spans, LEDGER / record["spans_file"])
    return path


def _print_outcome(outcome, record: dict, path: Path) -> None:
    sizes = ", ".join(f"{k}={v}" for k, v in outcome.sizes.items())
    print(f"== {outcome.workload}  seed={record['seed']}  "
          f"seconds={record['seconds']}  {sizes}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<22} {value:>14.6g} {unit}")
    print(f"  {'setup_s per set-up':<22} "
          + " ".join(f"{v:.3f}" for v in outcome.setup_s))
    print(f"  attempted={outcome.attempted} failed={outcome.failed}")
    for failure in outcome.failures:
        print(f"  CHECK FAILED: {failure}")
    for name, value in outcome.notes.items():
        print(f"  note {name} = {value}")
    if record["trace"]:
        print("  tracing overhead (traced set-up - last untraced set-up):")
        for name, diff in record["overhead"].items():
            base, unit = outcome.untraced_alone[name]
            rel = f" ({diff / base:+.1%})" if base else ""
            print(f"    {name:<22} {diff:>+14.6g} {unit}{rel}")
        print("  per-layer:")
        for name, value in outcome.layers.items():
            print(f"    {name:<28} {value:>14.6g}")
        for name, share in outcome.coverage.items():
            flag = "" if share >= 0.95 else "  (below 0.95)"
            print(f"  coverage {name:<20} {share:.4f}{flag}")
    print(f"  ledger: {path.relative_to(ROOT)}")


def _parse(argv, spec: dict):
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of a workload's timed phases")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    return parser.parse_args(argv)


def main(argv) -> int:
    spec = json.loads(SPEC.read_text())
    if argv and argv[0] == "compare":
        return compare(argv[1:], spec)
    args = _parse(argv, spec)
    problem = _preflight()
    if problem is not None:
        print(f"run.py: {problem}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so each peak_rss_mb is its own
        return max(
            subprocess.run([sys.executable, __file__, f"--workload={name}",
                            f"--seed={args.seed}", f"--seconds={args.seconds}",
                            f"--trace={args.trace}"]).returncode
            for name in WORKLOAD_NAMES
        )
    import workloads

    scratch = LEDGER / f"scratch-{os.getpid()}"
    cfg = workloads.Config(seed=args.seed, seconds=args.seconds,
                           scratch=scratch)
    try:
        outcome = workloads.run(args.workload, cfg, trace=bool(args.trace))
    finally:
        if scratch.is_dir():
            for leftover in scratch.iterdir():
                leftover.unlink()
            scratch.rmdir()
    record = _record(outcome, args, _fingerprint())
    path = _write_ledger(record, outcome.spans)
    _print_outcome(outcome, record, path)
    print(json.dumps(_result_line(outcome, spec, bool(args.trace))),
          flush=True)
    return 0 if outcome.correct else 1


# -- compare ------------------------------------------------------------------


def _load_records(paths) -> list:
    records = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        records.extend(data if isinstance(data, list) else [data])
    return [r for r in records if not r.get("trace")]


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float,
            more_failures: bool = False) -> tuple[str, int]:
    """Judge one metric.  A gain needs at least ``MIN_PAIRS`` pairs, 9 in
    10 of them won, a median gap wider than the parent's interquartile
    range, and no larger share of failed operations than the parent's
    (``more_failures``: else it is unresolved); a loss is a median worse
    by more than ``bound`` (a share of the parent median); a parent
    spread wider than the bound leaves the metric unresolved unless
    every change run beats every parent run.  Returns
    ``(verdict, wins)``."""
    sign = 1.0 if better == "higher" else -1.0
    q1, med_a, q3 = _quartiles(parent)
    med_b = statistics.median(change)
    gain = sign * (med_b - med_a)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    tolerance = bound * abs(med_a)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and gain > q3 - q1):
        return ("unresolved" if more_failures else "improved"), wins
    if q3 - q1 > tolerance:
        if all(sign * (b - a) > 0 for a in parent for b in change):
            return "within bound", wins
        return "unresolved", wins
    if -gain > tolerance:
        return "regressed", wins
    return "within bound", wins


def compare(argv, spec: dict) -> int:
    """Exit 1 on a regression or on more failed operations than the
    parent's, 2 when the two sides were run with different lengths or
    sizes (or the arguments are wrong)."""
    if "--" not in argv:
        print("usage: run.py compare PARENT.json... -- CHANGE.json...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    parent, change = _load_records(argv[:split]), _load_records(argv[split + 1:])
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.update(EXTRA_METRICS)
    status = 0
    for workload in WORKLOAD_NAMES:
        a_runs = [r for r in parent if r["workload"] == workload]
        b_runs = [r for r in change if r["workload"] == workload]
        if not a_runs or not b_runs:
            continue
        settings = {json.dumps([r["seconds"], r["sizes"]], sort_keys=True)
                    for r in a_runs + b_runs}
        if len(settings) > 1:
            print(f"== {workload}: not compared, runs differ in length or "
                  f"sizes: {' | '.join(sorted(settings))}", file=sys.stderr)
            status = 2
            continue
        share = {
            side: sum(r["failed"] for r in runs)
            / max(sum(r["attempted"] for r in runs), 1)
            for side, runs in (("parent", a_runs), ("change", b_runs))
        }
        more_failures = share["change"] > share["parent"]
        print(f"== {workload}: {len(a_runs)} parent / {len(b_runs)} change "
              f"runs; failure share {share['parent']:.3g} / "
              f"{share['change']:.3g}"
              + ("  (more failures: no gain counts)" if more_failures else ""))
        if more_failures:
            status = max(status, 1)
        print(f"  {'metric':<30} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'wins':>6}  verdict")
        for name, (better, bound) in rules.items():
            a = [r["metrics"][name]["value"] for r in a_runs
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs
                 if name in r["metrics"]]
            if not a or not b:
                continue
            result, wins = verdict(a, b, better, bound, more_failures)
            if result == "regressed":
                status = max(status, 1)
            qa = "/".join(f"{v:.4g}" for v in _quartiles(a))
            qb = "/".join(f"{v:.4g}" for v in _quartiles(b))
            print(f"  {name:<30} {qa:>32} {qb:>32} "
                  f"{wins:>3}/{min(len(a), len(b)):<2}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
