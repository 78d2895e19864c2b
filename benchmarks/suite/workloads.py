"""The suite's four workloads and the run that measures one of them.

Every workload builds an NSG index over the ``sift1m`` stand-in
(128-d, LID about 10) and answers k=10, ef=64 queries; they differ in
which layers carry the load:

* ``search``  — sequential ``search()``, exact ``search_batch`` and ADC
  ``search_batch``: seeding, the kernels and per-query orchestration.
* ``serve``   — the index saved, loaded and served over HTTP from a
  subprocess: coalescing and HTTP/JSON, with the kernel doing little.
* ``churn``   — inserts, searches and deletes against the delta tier,
  then a foreground consolidation: the write path.
* ``sharded`` — the ``search`` data cut into four shards and queried
  with fan-out 2: route, per-shard search, merge.

A run sets up ``repeats`` times (``setup_s`` is the median) and measures
each set-up for its share of ``seconds``; the workload then combines the
samples.  A traced run measures one more set-up with every layer entry
point wrapped, so the traced value of each end-to-end metric can be set
against an untraced set-up measured for as long.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count, islice
from pathlib import Path

import numpy as np

from repro import create
from repro.datasets.ground_truth import brute_force_knn
from repro.datasets.realworld import make_standin
from repro.io import load_index, save_index
from repro.sharding import ShardedIndex

from layers import SETUP_LAYERS, coverage, instrument, query_layers
from loadgen import Client, request_bytes
from spans import Span, Tracer, read_jsonl

__all__ = ["Config", "Outcome", "WORKLOADS", "run", "sequential_reference"]

DATASET = "sift1m"
#: the stand-in's own seed: the base data and the evaluation queries are
#: the same in every run, so recall is a property of the index alone (a
#: seed-drawn query set moved it by more than its bound); the run's seed
#: orders the queries and draws the inserts, deletes and arrivals
DATA_SEED = 11
#: held-out points (churn's inserts) the stand-in makes beside the
#: queries, as a share of the queries
HELD_OUT_SHARE = 0.25
ALGORITHM = "nsg"
K = 10
EF = 64
#: threads of the benchmark's load (build, batch kernel); fixed here so
#: the load is the same on every machine
WORKERS = 2
NUM_SHARDS = 4
FANOUT = 2
PQ_PARAMS = {"num_subspaces": 16, "codebook_size": 256}
RERANK_FACTOR = 4
SEARCHES_PER_STEP = 8
DELETE_EVERY = 4
INSERT_SHARE = 0.10        # churn: the delta grows to this share of n
RATES = {"light": 150.0, "heavy": 400.0}
CONNECTIONS = 2
CHECK_ROWS = 500
RECALL_FLOOR = 0.5
#: single queries per sequential block of a round (the sharded workload,
#: whose single query fans out to threads, runs half of this)
SEQUENTIAL_BLOCK = 400
FAST_PERCENTILE = 10
SERVER_BOOT_TIMEOUT_S = 60.0
#: the open loop kept its schedule if requests that found a connection
#: free went out this late at p99 (the event loop sleeps in whole ms)
LATE_LIMIT_MS = 2.0

#: set-up stages reported as a share of the set-up wall time
SHARE_OF = {
    "pq.fit_share": "pq.fit_s",
    "io.save_share": "io.save_s",
    "io.load_share": "io.load_s",
    "server.boot_share": "server.boot_s",
    "shard.partition_share": "shard.partition_s",
}


@dataclass
class Config:
    seed: int
    #: length of the run's timed phases, over all its set-ups
    seconds: float
    #: base points for every workload (None: each workload's default)
    n: int | None = None
    queries: int = 2000
    repeats: int = 3
    #: scratch space for saved indexes and server spans
    scratch: Path = Path(".")


@dataclass
class Outcome:
    workload: str
    sizes: dict
    metrics: dict                     # name -> (value, unit), untraced
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)   # every set-up's wall
    traced_metrics: dict = field(default_factory=dict)
    #: the last untraced set-up alone, measured as long as the traced one
    untraced_alone: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    coverage: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.failures


# -- helpers --------------------------------------------------------------


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q))


def _fast(values) -> float:
    """The fastest decile of per-round values (times: lower is faster).

    The CPU this suite was tuned on toggles between two speeds every few
    seconds (a fixed Python loop runs about 40 % slower in the slow one),
    and the share of a run spent in each varies from run to run.  Every
    run has rounds at the fast speed, so the fast decile of identical
    rounds repeats across runs where their median does not."""
    return _pct(values, FAST_PERCENTILE)


def _median(values) -> float:
    return float(statistics.median(values))


def _round_pct(rounds, q: float, across) -> float:
    """``q``-th percentile inside each round, ``across`` the rounds."""
    return across([_pct(r, q) for r in rounds])


@contextmanager
def one_cpu():
    """Run the calling thread, and every thread it starts meanwhile, on
    one CPU.

    A sharded ``search()`` hands each shard to a new thread and waits for
    it.  Free to run on either CPU, that thread waits for the other vCPU
    to be scheduled, which the host decides: on a 2-vCPU machine the
    median query moved between 610 and 900 us from one 1.4 s block of
    queries to the next.  On the caller's CPU it runs as soon as the
    caller blocks, and the median stayed within 445-485 us.  Single-query
    phases therefore run on one CPU; batch phases keep both."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def recall_at_k(ids: np.ndarray, truth: np.ndarray) -> float:
    hits = sum(
        len(np.intersect1d(row[row >= 0], t[:K])) for row, t in zip(ids, truth)
    )
    return hits / (K * len(ids))


def sequential_reference(index, queries, **kwargs):
    """Ids (``-1``-padded) and NDC of a one-query-at-a-time loop — the
    reference every batched and served answer must equal."""
    ids = np.full((len(queries), K), -1, dtype=np.int64)
    ndc = np.zeros(len(queries), dtype=np.int64)
    for i, query in enumerate(queries):
        result = index.search(query, k=K, ef=EF, **kwargs)
        ids[i, : len(result.ids)] = result.ids
        ndc[i] = result.ndc
    return ids, ndc


def _build_times(reports) -> dict:
    out = {"build.c1_s": 0.0, "build.c2c3_s": 0.0, "build.c4_s": 0.0,
           "build.c5_s": 0.0, "build.ndc": 0, "build.index_bytes": 0}
    labels = {"c1": "build.c1_s", "c2+c3": "build.c2c3_s",
              "c4": "build.c4_s", "c5": "build.c5_s"}
    for report in reports:
        for label, stats in report.phases.items():
            out[labels[label]] += stats.wall_s
        out["build.ndc"] += report.build_ndc
        out["build.index_bytes"] += report.index_size_bytes
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Data:
    base: np.ndarray
    queries: np.ndarray        # the evaluation queries, in the seed's order
    truth: np.ndarray          # exact top-k of each query in ``base``
    held_out: np.ndarray       # more points from the same distribution,
                               # in the seed's order


class _Timed:
    """One timed phase: a ``phase.<name>`` span."""

    def __init__(self, tracer: Tracer, name: str, phases: list):
        self.tracer = tracer
        self.name = name
        self.phases = phases

    def __enter__(self):
        self.open = self.tracer.begin(f"phase.{self.name}")
        return self

    def __exit__(self, *exc):
        self.span = Span(self.tracer.finish(self.open))
        self.phases.append(self.span)

    @property
    def wall(self) -> float:
        return self.span.duration


class Workload:
    name = "?"
    default_n = 2000
    #: metrics taken across rounds of identical work (see ``metrics``)
    across_rounds = ("query_p50_us", "query_p90_us", "throughput_per_s")

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.n = cfg.n or self.default_n
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.phases: list = []
        self.notes: dict = {}

    def sizes(self) -> dict:
        return {"n": self.n, "queries": self.cfg.queries, "k": K, "ef": EF}

    def fail(self, count: int, message: str) -> None:
        if count:
            self.failed += int(count)
            self.failures.append(message)

    def data(self, times: dict) -> Data:
        """The stand-in, its queries and held-out points in the seed's
        order, timed into ``times``."""
        started = time.perf_counter()
        q = self.cfg.queries
        ds = make_standin(DATASET, cardinality=self.n,
                          num_queries=q + round(HELD_OUT_SHARE * q),
                          gt_depth=K, seed=DATA_SEED)
        rng = _rng(self.cfg.seed, 0)
        order = rng.permutation(q)
        data = Data(ds.base, ds.queries[:q][order], ds.ground_truth[:q][order],
                    rng.permutation(ds.queries[q:]))
        times["datasets.gen_s"] = time.perf_counter() - started
        return data

    def build(self, times: dict):
        """The stand-in data and an NSG index over it, both timed."""
        ds = self.data(times)
        index = create(ALGORITHM, seed=0, n_workers=WORKERS)
        times.update(_build_times([index.build(ds.base)]))
        return ds, index

    def timed(self, tracer, name):
        return _Timed(tracer, name, self.phases)

    def rounds(self, tracer, steps, seconds: float) -> None:
        """Run the ``(name, step)`` phases in turn, round after round,
        until ``seconds`` are spent (at least three rounds).  Interleaving
        gives every phase rounds at each of the machine's speeds."""
        deadline = time.perf_counter() + seconds
        done = 0
        while done < 3 or time.perf_counter() < deadline:
            for name, step in steps:
                with self.timed(tracer, name):
                    step()
            done += 1

    def compare_batch(self, index, queries, **kwargs) -> None:
        """Batched rows must equal the sequential loop's ids and NDC."""
        ref_ids, ref_ndc = sequential_reference(index, queries, **kwargs)
        result = index.search_batch(queries, k=K, ef=EF, workers=WORKERS,
                                    **kwargs)
        bad = int(((result.ids != ref_ids).any(axis=1)
                   | (result.ndc != ref_ndc)).sum())
        self.attempted += len(queries)
        self.fail(bad, f"{bad} batch rows differ from the sequential loop")

    def check_recall(self, name: str, value: float) -> None:
        if value < RECALL_FLOOR:
            self.fail(1, f"{name} {value:.3f} is below {RECALL_FLOOR}")

    def batch_pass(self, run_pass, first, seconds: list) -> None:
        """Time one whole-batch pass; it must repeat ``first``'s ids."""
        started = time.perf_counter()
        result = run_pass()
        seconds.append(time.perf_counter() - started)
        self.attempted += len(result.ids)
        self.fail(result.num_errors, f"{result.num_errors} batch errors")
        differ = int((result.ids != first.ids).any(axis=1).sum())
        self.fail(differ, f"{differ} batch rows changed between passes")

    def sequential(self, tracer, call, queries, cursor, count: int,
                   rounds: list) -> None:
        """``count`` one-query-at-a-time calls, continuing through
        ``queries`` from ``cursor``; their latencies become one round."""
        latencies = []
        with one_cpu():
            for i in islice(cursor, count):
                tracer.request = i
                started = time.perf_counter()
                call(queries[i % len(queries)])
                latencies.append(time.perf_counter() - started)
        tracer.request = None
        rounds.append(latencies)
        self.attempted += count

    def setup(self, traced: bool) -> dict:
        """A fresh index and its inputs; ``state["times"]`` holds the
        set-up stages' seconds."""
        raise NotImplementedError

    def measure(self, state, tracer: Tracer, seconds: float) -> dict:
        """Timed phases and output checks on one set-up.  Returns the raw
        sample: ``answer`` (ids every set-up must reproduce), ``extra``
        (per-layer values only the workload sees) and the timings."""
        raise NotImplementedError

    def metrics(self, samples: list, across=_fast) -> dict:
        """End-to-end metrics ``{name: (value, unit)}`` from samples; by
        default those of rounds of sequential queries and batch passes.
        The metrics named in ``across_rounds`` pick one value ``across``
        the rounds."""
        rounds = [r for s in samples for r in s["rounds"]]
        batch_s = [t for s in samples for t in s["batch_s"]]
        return {
            "query_p50_us": (_round_pct(rounds, 50, across) * 1e6, "us"),
            "query_p90_us": (_round_pct(rounds, 90, across) * 1e6, "us"),
            "query_p99_us": (_pct(np.concatenate(rounds), 99) * 1e6, "us"),
            "throughput_per_s": (self.cfg.queries / across(batch_s), "1/s"),
            "recall_at_10": (samples[0]["recall"], "ratio"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }

    def teardown(self, state) -> None:
        pass


# -- search -----------------------------------------------------------------


class SearchWorkload(Workload):
    name = "search"
    across_rounds = Workload.across_rounds + ("adc_batch_qps",)

    def setup(self, traced):
        times = {}
        ds, index = self.build(times)
        started = time.perf_counter()
        index.enable_compressed(**PQ_PARAMS)
        times["pq.fit_s"] = time.perf_counter() - started
        return {"ds": ds, "index": index, "times": times}

    def measure(self, state, tracer, seconds):
        ds, index = state["ds"], state["index"]
        queries = ds.queries
        exact = lambda: index.search_batch(queries, k=K, ef=EF, workers=WORKERS)
        adc = lambda: index.search_batch(
            queries, k=K, ef=EF, workers=WORKERS, compressed=True,
            rerank_factor=RERANK_FACTOR)
        single = lambda q: index.search(q, k=K, ef=EF)
        for query in queries[:200]:
            single(query)
        exact_ref, adc_ref = exact(), adc()

        latencies, batch_s, adc_s = [], [], []
        cursor = count()
        self.rounds(tracer, [
            ("sequential", lambda: self.sequential(
                tracer, single, queries, cursor, SEQUENTIAL_BLOCK, latencies)),
            ("batch", lambda: self.batch_pass(exact, exact_ref, batch_s)),
            ("adc", lambda: self.batch_pass(adc, adc_ref, adc_s)),
        ], seconds)

        recall = recall_at_k(exact_ref.ids, ds.truth)
        adc_recall = recall_at_k(adc_ref.ids, ds.truth)
        self.check_recall("recall_at_10", recall)
        self.check_recall("adc_recall_at_10", adc_recall)
        self.compare_batch(index, queries[:CHECK_ROWS])
        return {"rounds": latencies, "batch_s": batch_s, "adc_s": adc_s,
                "recall": recall, "adc_recall": adc_recall,
                "answer": exact_ref.ids, "extra": {}}

    def metrics(self, samples, across=_fast):
        adc_s = [t for s in samples for t in s["adc_s"]]
        return {
            **super().metrics(samples, across),
            "adc_batch_qps": (self.cfg.queries / across(adc_s), "1/s"),
            "adc_recall_at_10": (samples[0]["adc_recall"], "ratio"),
        }


# -- sharded ----------------------------------------------------------------


class ShardedWorkload(Workload):
    name = "sharded"

    def sizes(self):
        return {**super().sizes(), "shards": NUM_SHARDS, "fanout": FANOUT}

    def setup(self, traced):
        times = {}
        ds = self.data(times)
        started = time.perf_counter()
        index = ShardedIndex.build(ds.base, num_shards=NUM_SHARDS,
                                   algorithm=ALGORITHM, n_workers=WORKERS)
        wall = time.perf_counter() - started
        reports = [shard.build_report for shard in index.shards]
        # what the shard builds do not account for is the partition
        times["shard.partition_s"] = wall - sum(r.build_time_s for r in reports)
        times.update(_build_times(reports))
        return {"ds": ds, "index": index, "times": times}

    def measure(self, state, tracer, seconds):
        ds, index = state["ds"], state["index"]
        queries = ds.queries
        batch = lambda: index.search_batch(queries, k=K, ef=EF,
                                           workers=WORKERS, fanout=FANOUT)
        single = lambda q: index.search(q, k=K, ef=EF, fanout=FANOUT)
        for query in queries[:50]:
            single(query)
        first = batch()

        latencies, batch_s = [], []
        cursor = count()
        self.rounds(tracer, [
            ("sequential", lambda: self.sequential(
                tracer, single, queries, cursor, SEQUENTIAL_BLOCK // 2,
                latencies)),
            ("batch", lambda: self.batch_pass(batch, first, batch_s)),
        ], seconds)

        recall = recall_at_k(first.ids, ds.truth)
        self.check_recall("recall_at_10", recall)
        self.compare_batch(index, queries[:CHECK_ROWS], fanout=FANOUT)
        owner = np.empty(index.num_points, dtype=np.int64)
        for s, ids in enumerate(index.shard_ids):
            owner[ids] = s
        useful = np.mean([
            len(np.unique(owner[row[row >= 0]])) for row in first.ids
        ]) / FANOUT
        return {"rounds": latencies, "batch_s": batch_s, "recall": recall,
                "answer": first.ids,
                "extra": {"shard.useful_frac": float(useful)}}


# -- churn ------------------------------------------------------------------


class ChurnWorkload(Workload):
    """Write cycles against the delta tier.  The delta grows through a
    cycle, so each round starts from a fresh copy of the saved index and
    runs the whole cycle; the set-up's own index then takes the same
    writes and is consolidated."""

    name = "churn"
    default_n = 1000
    across_rounds = Workload.across_rounds + ("insert_p50_us", "consolidate_s")

    @property
    def steps(self) -> int:
        return max(DELETE_EVERY, round(INSERT_SHARE * self.n))

    def sizes(self):
        return {**super().sizes(), "inserts": self.steps,
                "searches_per_step": SEARCHES_PER_STEP,
                "delete_every": DELETE_EVERY}

    def setup(self, traced):
        times = {}
        ds, index = self.build(times)
        scratch = Path(self.cfg.scratch)
        scratch.mkdir(parents=True, exist_ok=True)
        path = scratch / f"churn-{time.monotonic_ns()}.npz"
        started = time.perf_counter()
        save_index(index, path)
        times["io.save_s"] = time.perf_counter() - started
        deletes = _rng(self.cfg.seed, 1).choice(
            self.n, size=-(-self.steps // DELETE_EVERY), replace=False)
        return {"ds": ds, "index": index, "path": path, "deletes": deletes,
                "times": times}

    def teardown(self, state):
        Path(state["path"]).unlink(missing_ok=True)

    def cycle(self, index, state, tracer, timings: dict) -> dict:
        """One write cycle: per step an insert, ``SEARCHES_PER_STEP``
        searches and, every ``DELETE_EVERY`` steps, a delete; inserts and
        searches are timed into ``timings`` and every answer checked."""
        ds, n = state["ds"], self.n
        pool, queries = ds.held_out[: self.steps], ds.queries
        deleted: set[int] = set()
        returned = from_delta = leaked = 0
        for step in range(self.steps):
            tracer.request = step
            started = time.perf_counter()
            gid = index.insert(pool[step])
            timings["insert"].append(time.perf_counter() - started)
            self.fail(int(gid != n + step),
                      f"insert {step} returned id {gid}, not {n + step}")
            for j in range(SEARCHES_PER_STEP):
                query = queries[(step * SEARCHES_PER_STEP + j) % len(queries)]
                started = time.perf_counter()
                result = index.search(query, k=K, ef=EF)
                timings["search"].append(time.perf_counter() - started)
                ids = result.ids.tolist()
                returned += len(ids)
                from_delta += sum(1 for i in ids if i >= n)
                leaked += sum(1 for i in ids if i in deleted)
            if step % DELETE_EVERY == 0:
                victim = int(state["deletes"][step // DELETE_EVERY])
                index.delete(victim)
                deleted.add(victim)
        tracer.request = None
        self.attempted += self.steps * (1 + SEARCHES_PER_STEP) + len(deleted)
        self.fail(leaked, f"{leaked} deleted ids returned by search")
        return {"deleted": deleted, "hit_frac": from_delta / max(returned, 1)}

    def measure(self, state, tracer, seconds):
        ds, index, n = state["ds"], state["index"], self.n
        queries = ds.queries
        searches, inserts, loop_s = [], [], []
        deadline = time.perf_counter() + seconds
        first = None
        while len(loop_s) < 3 or time.perf_counter() < deadline:
            fresh = load_index(state["path"])
            if first is None:
                for query in queries[:50]:
                    fresh.search(query, k=K, ef=EF)
                fresh.search_batch(queries, k=K, ef=EF, workers=WORKERS)
            timings = {"search": [], "insert": []}
            with self.timed(tracer, "churn") as phase, one_cpu():
                cycle = self.cycle(fresh, state, tracer, timings)
            loop_s.append(phase.wall)
            searches.append(timings["search"])
            inserts.append(timings["insert"])
            if first is None:
                with self.timed(tracer, "batch"):
                    first = fresh.search_batch(queries, k=K, ef=EF,
                                               workers=WORKERS)
                self.attempted += len(queries)
                self.fail(first.num_errors, f"{first.num_errors} batch errors")
                self.compare_batch(fresh, queries[:CHECK_ROWS])
                hit_frac = cycle["hit_frac"]
        deleted = cycle["deleted"]
        live = np.setdiff1d(np.arange(n + self.steps), list(deleted))
        vectors = np.vstack([ds.base, ds.held_out[: self.steps]])[live]
        truth = live[brute_force_knn(vectors, queries, K)[0]]
        recall = recall_at_k(first.ids, truth)
        self.check_recall("recall_at_10", recall)

        # the set-up's own index takes the same writes and folds them in
        for step in range(self.steps):
            index.insert(ds.held_out[step])
            if step % DELETE_EVERY == 0:
                index.delete(int(state["deletes"][step // DELETE_EVERY]))
        with self.timed(tracer, "consolidate") as phase:
            report = index.consolidate(wait=True)
        consolidate_s = phase.wall
        self.attempted += 1
        self.fail(int(index.delta_points != 0),
                  f"{index.delta_points} points left in the delta")
        self.fail(int(index.num_points != n + self.steps),
                  f"{index.num_points} points after consolidation")
        after = index.search_batch(queries[:CHECK_ROWS], k=K, ef=EF,
                                   workers=WORKERS)
        self.attempted += CHECK_ROWS
        gone = int(np.isin(after.ids, list(deleted)).sum())
        self.fail(gone, f"{gone} deleted ids returned after consolidation")

        phases, wall = report.build_report.phases, report.wall_s
        return {
            "searches": searches, "inserts": inserts, "loop_s": loop_s,
            "operations": len(searches[0]) + self.steps + len(deleted),
            "consolidate_s": consolidate_s, "recall": recall,
            "answer": first.ids,
            "extra": {
                "delta.hit_frac": hit_frac,
                "consolidate.c1_share": phases["c1"].wall_s / wall,
                "consolidate.c2c3_share": phases["c2+c3"].wall_s / wall,
                "consolidate.c5_share": phases["c5"].wall_s / wall,
                "consolidate.swap_share":
                    (wall - report.build_report.build_time_s) / wall,
            },
        }

    def metrics(self, samples, across=_fast):
        searches = [r for s in samples for r in s["searches"]]
        inserts = [r for s in samples for r in s["inserts"]]
        loop = across([t for s in samples for t in s["loop_s"]])
        return {
            "query_p50_us": (_round_pct(searches, 50, across) * 1e6, "us"),
            "query_p90_us": (_round_pct(searches, 90, across) * 1e6, "us"),
            "query_p99_us": (_pct(np.concatenate(searches), 99) * 1e6, "us"),
            "throughput_per_s": (samples[0]["operations"] / loop, "1/s"),
            "recall_at_10": (samples[0]["recall"], "ratio"),
            "insert_p50_us": (_round_pct(inserts, 50, across) * 1e6, "us"),
            "consolidate_s": (across([s["consolidate_s"] for s in samples]),
                              "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }


# -- serve ------------------------------------------------------------------


class _Server:
    """The serve workload's server subprocess."""

    def __init__(self, index_path: Path, spans_path: Path | None):
        args = [sys.executable, str(Path(__file__).with_name("serve_child.py")),
                str(index_path)]
        if spans_path is not None:
            args.append(str(spans_path))
        self.spans_path = spans_path
        self.proc = subprocess.Popen(args, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.summary = None
        # a child that never prints its port must not hang the run
        watchdog = threading.Timer(SERVER_BOOT_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            self.stop()
            raise RuntimeError("server subprocess exited before listening")
        self.port = json.loads(line)["port"]
        url = f"http://127.0.0.1:{self.port}/healthz"
        deadline = time.perf_counter() + SERVER_BOOT_TIMEOUT_S
        while True:
            try:
                with urllib.request.urlopen(url, timeout=5) as response:
                    if response.status == 200:
                        break
            except OSError:
                if time.perf_counter() > deadline:
                    self.stop()
                    raise
                time.sleep(0.01)

    def stop(self) -> dict | None:
        """Close stdin (the drain signal), read the summary, reap."""
        if self.proc.returncode is not None:
            return self.summary
        try:
            out, _ = self.proc.communicate(timeout=60)
        except BaseException:
            self.proc.kill()
            self.proc.communicate()
            raise
        lines = [line for line in out.splitlines() if line.strip()]
        if self.proc.returncode == 0 and lines:
            self.summary = json.loads(lines[-1])
        return self.summary


class ServeWorkload(Workload):
    name = "serve"
    default_n = 1000
    #: latencies are pooled across set-ups, not picked across rounds
    across_rounds = ()

    def sizes(self):
        return {**super().sizes(), "connections": CONNECTIONS, "rates": RATES}

    def setup(self, traced):
        times = {}
        ds, index = self.build(times)
        scratch = Path(self.cfg.scratch)
        scratch.mkdir(parents=True, exist_ok=True)
        tag = f"serve-{time.monotonic_ns()}"
        path = scratch / f"{tag}.npz"
        started = time.perf_counter()
        save_index(index, path)
        times["io.save_s"] = time.perf_counter() - started
        started = time.perf_counter()
        loaded = load_index(path)
        times["io.load_s"] = time.perf_counter() - started
        reference = sequential_reference(loaded, ds.queries)
        requests = [
            request_bytes(json.dumps({"vector": q.tolist()}).encode())
            for q in ds.queries
        ]
        spans_path = scratch / f"{tag}.spans.jsonl.gz" if traced else None
        started = time.perf_counter()
        server = _Server(path, spans_path)
        times["server.boot_s"] = time.perf_counter() - started
        return {"ds": ds, "index": loaded, "path": path, "server": server,
                "reference": reference, "requests": requests, "times": times}

    def teardown(self, state):
        state["server"].stop()
        for path in (state["path"], state["server"].spans_path):
            if path is not None:
                Path(path).unlink(missing_ok=True)

    def measure(self, state, tracer, seconds):
        ds, server, requests = state["ds"], state["server"], state["requests"]
        order = _rng(self.cfg.seed, 2).permutation(len(requests))
        picks = (int(order[i % len(order)]) for i in count())
        arrivals = _rng(self.cfg.seed, 3)

        async def drive():
            client = Client("127.0.0.1", server.port, CONNECTIONS)
            await client.open()
            try:
                await client.closed_loop(requests, picks, 0.03 * seconds)
                before = await client.get_json("/stats")
                light = await client.open_loop(
                    requests, picks, RATES["light"], 0.4 * seconds, arrivals)
                heavy = await client.open_loop(
                    requests, picks, RATES["heavy"], 0.3 * seconds, arrivals)
                capacity = await client.closed_loop(requests, picks,
                                                    0.3 * seconds)
                after = await client.get_json("/stats")
            finally:
                await client.close()
            return light, heavy, capacity, before, after

        light, heavy, capacity, before, after = asyncio.run(drive())
        summary = server.stop() or {}
        self.fail(int(not summary), "server subprocess did not report")

        request_id = count()
        for name, load in (("light", light), ("heavy", heavy),
                           ("capacity", capacity)):
            phase = tracer.record(f"phase.{name}", load.start, load.end)
            self.phases.append(Span(phase))
            for a, b in load.sleeps:
                tracer.record("loadgen.sleep", a, b, parent=phase)
            for rec in load.records:
                tracer.record("http.request", rec.sent, rec.recv, parent=phase,
                              request=next(request_id))

        ref_ids, ref_ndc = state["reference"]
        bodies = {}
        bad = 0
        served = light.records + heavy.records + capacity.records
        for rec in served:
            body = json.loads(rec.payload) if rec.status == 200 else None
            want = ref_ids[rec.query]
            if (body is None
                    or body["ids"] != want[want >= 0].tolist()
                    or body["ndc"] != int(ref_ndc[rec.query])):
                bad += 1
                continue
            bodies[id(rec)] = body
        self.attempted += len(served)
        self.fail(bad, f"{bad} served responses failed or differ from the "
                       "in-process reference")
        # every served answer equals its reference row, so the served
        # index's recall is that of the reference over every query
        recall = recall_at_k(ref_ids, ds.truth)
        self.check_recall("recall_at_10", recall)
        self.compare_batch(state["index"], ds.queries[:CHECK_ROWS])
        rejected = (sum(after["rejected"].values())
                    - sum(before["rejected"].values()))
        self.fail(rejected, f"{rejected} requests rejected by the server")

        light_ms = [(r.recv - r.due) * 1e3 for r in light.records]
        p50 = statistics.median(light_ms)
        batches = max(after["batches"] - before["batches"], 1)
        fused = (after["kernel_paths"].get("fused_mt", 0)
                 - before["kernel_paths"].get("fused_mt", 0))
        light_ok = [r for r in light.records if id(r) in bodies]
        extra = {
            "coalescer.wait_share": statistics.median(
                bodies[id(r)]["wait_ms"] for r in light_ok) / p50,
            "http.self_share": statistics.median(
                (r.recv - r.sent) * 1e3 - bodies[id(r)]["total_ms"]
                for r in light_ok) / p50,
            "coalescer.batch_size_mean":
                (after["answered"] - before["answered"]) / batches,
            "coalescer.fused_share": fused / batches,
            "serve.rejected": rejected,
            "loadgen.backlog_end": light.backlog + heavy.backlog,
        }
        if server.spans_path is not None and Path(server.spans_path).exists():
            child = read_jsonl(server.spans_path)
            tracer.spans.extend(child)
            window = self.phases[-3]   # the light phase
            index_ms = [(end - start) * 1e3
                        for _, name, start, end, *_rest in child
                        if name == "serve.index"
                        and window.start <= start and end <= window.end]
            if index_ms:
                extra["server.index_share"] = statistics.median(index_ms) / p50
        return {"light": light.records, "heavy": heavy.records,
                "capacity": (len(capacity.records),
                             capacity.end - capacity.start),
                "backlog": light.backlog, "recall": recall,
                "answer": ref_ids, "rss": summary.get("peak_rss_mb", 0.0),
                "extra": extra}

    def metrics(self, samples, across=_fast):
        def pooled(key):
            return [r for s in samples for r in s[key]]

        light = [(r.recv - r.due) * 1e3 for r in pooled("light")]
        heavy = [(r.recv - r.due) * 1e3 for r in pooled("heavy")]
        opened = pooled("light") + pooled("heavy")
        queued = [(r.sent - r.due) * 1e3 for r in opened if not r.free]
        late = [(r.sent - r.due) * 1e3 for r in opened if r.free]
        late_p99 = _pct(late, 99) if late else 0.0
        backlog = sum(s["backlog"] for s in samples)
        self.notes = {
            "loadgen.queue_ms_p90": _pct(queued, 90) if queued else 0.0,
            "loadgen.late_ms_p99": late_p99,
            "loadgen.light_backlog_end": backlog,
            "loadgen.valid": late_p99 <= LATE_LIMIT_MS and backlog == 0,
        }
        done = sum(s["capacity"][0] for s in samples)
        wall = sum(s["capacity"][1] for s in samples)
        return {
            "query_p50_us": (_pct(light, 50) * 1e3, "us"),
            "query_p90_us": (_pct(light, 90) * 1e3, "us"),
            "query_p99_us": (_pct(light, 99) * 1e3, "us"),
            "throughput_per_s": (done / wall, "1/s"),
            "recall_at_10": (samples[0]["recall"], "ratio"),
            "http_p50_ms_heavy": (_pct(heavy, 50), "ms"),
            "http_p90_ms_heavy": (_pct(heavy, 90), "ms"),
            "peak_rss_mb": (statistics.median(s["rss"] for s in samples),
                            "MB"),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (SearchWorkload, ServeWorkload, ChurnWorkload, ShardedWorkload)
}


# -- one run ----------------------------------------------------------------


def _setup_layers(times: list, walls: list) -> dict:
    out = {}
    for name in SETUP_LAYERS:
        if name in SHARE_OF:
            values = [t.get(SHARE_OF[name], 0.0) / w
                      for t, w in zip(times, walls)]
        else:
            values = [t[name] for t in times]
        out[name] = float(statistics.median(values))
    return out


def run(name: str, cfg: Config, trace: bool = False) -> Outcome:
    """Set up and measure ``cfg.repeats`` times, check, combine; a traced
    run measures one more set-up with every layer wrapped."""
    workload = WORKLOADS[name](cfg)
    seconds = cfg.seconds / cfg.repeats
    outcome = Outcome(name, workload.sizes(), {})
    times, samples = [], []
    for _ in range(cfg.repeats):
        started = time.perf_counter()
        state = workload.setup(traced=False)
        outcome.setup_s.append(time.perf_counter() - started)
        times.append(state["times"])
        try:
            samples.append(workload.measure(state, Tracer(), seconds))
        finally:
            workload.teardown(state)
    differ = sum(not np.array_equal(s["answer"], samples[0]["answer"])
                 for s in samples[1:])
    workload.fail(differ, f"{differ} set-ups answered unlike the first")
    setup_s = (float(statistics.median(outcome.setup_s)), "s")
    if trace:
        state = workload.setup(traced=True)
        tracer = Tracer()
        try:
            instrument(tracer, [state["index"]])
            workload.phases = []
            traced = workload.measure(state, tracer, seconds)
        finally:
            tracer.uninstall()
            workload.teardown(state)
        outcome.traced_metrics = {**workload.metrics([traced]),
                                  "setup_s": setup_s}
        outcome.untraced_alone = {**workload.metrics(samples[-1:]),
                                  "setup_s": setup_s}
        spans = tracer.finished()
        outcome.layers = _setup_layers(times, outcome.setup_s)
        outcome.layers.update(
            query_layers(spans, workload.phases, K, traced["extra"]))
        outcome.coverage = coverage(workload.phases, spans)
        outcome.spans = tracer.spans
    outcome.metrics = {**workload.metrics(samples), "setup_s": setup_s}
    # the fastest decile hides a slowdown of some rounds only; the median
    # across rounds shows it
    medians = workload.metrics(samples, across=_median)
    for name in workload.across_rounds:
        outcome.metrics[f"{name}.median_round"] = medians[name]
    outcome.attempted = max(workload.attempted, 1)
    outcome.failed = workload.failed
    outcome.failures = workload.failures
    outcome.notes = workload.notes
    outcome.metrics["error_rate"] = (outcome.failed / outcome.attempted,
                                     "ratio")
    return outcome
