"""Span log and per-query hop-level search traces.

A :class:`QueryTrace` records what the paper's Figure 10-style component
analysis needs but aggregated telemetry destroys: the *path* one query
took through the graph — the seed set the C4 entry component produced,
every expanded vertex with the NDC spent up to that expansion, how the
search terminated (natural convergence vs. which :class:`QueryBudget`
limit fired) and the ids it returned.  Joined on ``trace_id`` with a
``BudgetReport`` or a ``BatchQueryResult`` row, a degraded production
query can be replayed hop by hop.

:class:`SpanLog` is the construction-side counterpart: the phased build
engine records one span per C1-C5 phase, so ``BuildReport.phases``
and an exported trace agree by construction.

Recording is append-only into bounded ring buffers (old entries fall
off) and thread-safe; nothing here imports any other ``repro`` module.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque

__all__ = ["QueryTrace", "TraceRecorder", "Span", "SpanLog"]


class QueryTrace:
    """Hop-level record of one search.

    Hop events are ``(vertex, ndc, evaluated)`` triples: the expanded
    vertex id, the query's running NDC *after* the expansion (seed
    acquisition included, matching ``SearchResult.ndc`` accounting) and
    how many fresh neighbors the expansion evaluated.  ``seed_events``
    records what the frontier was actually seeded with (deduplicated,
    budget-clipped), while ``seed_ids`` is the raw C4 provider output.
    """

    __slots__ = (
        "trace_id", "algorithm", "k", "ef",
        "seed_ids", "seed_ndc", "seed_events", "hop_events",
        "ndc", "hops", "visited", "degraded", "termination",
        "budget", "result_ids", "elapsed_s", "_base",
        "adc_lookups", "rerank_ndc",
    )

    def __init__(self, trace_id: str, algorithm: str = "",
                 k: int = 0, ef: int = 0):
        self.trace_id = trace_id
        self.algorithm = algorithm
        self.k = k
        self.ef = ef
        self.seed_ids: list[int] = []
        self.seed_ndc = 0
        self.seed_events: list[tuple[int, int]] = []   # (ndc, n_seeds)
        self.hop_events: list[tuple[int, int, int]] = []
        self.ndc = 0
        self.hops = 0
        self.visited = 0
        self.degraded = False
        self.termination = "unfinished"
        self.budget: dict | None = None
        self.result_ids: list[int] = []
        self.elapsed_s = 0.0
        self._base = 0
        # compressed (ADC) traversal only; stay 0 for exact searches
        self.adc_lookups = 0
        self.rerank_ndc = 0

    # -- recording (called from the hot path; keep them tiny) ----------

    def attach(self, counter_count: int, already_spent: int = 0) -> None:
        """Anchor running-NDC accounting to an absolute counter value.

        ``already_spent`` charges NDC paid before this counter started
        (the batch engine's up-front seed acquisition), so recorded
        running NDCs always match the per-query telemetry exactly.
        """
        self._base = counter_count - already_spent

    def record_seeds(self, seed_ids, counter_count: int) -> None:
        self.seed_ids = [int(s) for s in seed_ids]
        self.seed_ndc = counter_count - self._base

    def seed_event(self, n_seeds: int, counter_count: int) -> None:
        self.seed_events.append((counter_count - self._base, n_seeds))

    def hop(self, vertex: int, counter_count: int, evaluated: int) -> None:
        self.hop_events.append(
            (int(vertex), counter_count - self._base, evaluated)
        )

    def finish(
        self,
        ndc: int,
        hops: int,
        visited: int,
        degraded: bool,
        termination: str,
        result_ids,
        budget: dict | None = None,
        elapsed_s: float = 0.0,
        adc_lookups: int = 0,
        rerank_ndc: int = 0,
    ) -> None:
        self.ndc = int(ndc)
        self.hops = int(hops)
        self.visited = int(visited)
        self.degraded = bool(degraded)
        self.termination = termination
        self.budget = budget
        self.result_ids = [int(i) for i in result_ids]
        self.elapsed_s = float(elapsed_s)
        self.adc_lookups = int(adc_lookups)
        self.rerank_ndc = int(rerank_ndc)

    def to_dict(self) -> dict:
        """JSON-ready view (the JSONL trace schema of docs/observability.md)."""
        return {
            "trace_id": self.trace_id,
            "algorithm": self.algorithm,
            "k": self.k,
            "ef": self.ef,
            "seed_ids": self.seed_ids,
            "seed_ndc": self.seed_ndc,
            "seed_events": [list(e) for e in self.seed_events],
            "hop_events": [list(e) for e in self.hop_events],
            "ndc": self.ndc,
            "hops": self.hops,
            "visited": self.visited,
            "degraded": self.degraded,
            "termination": self.termination,
            "budget": self.budget,
            "result_ids": self.result_ids,
            "elapsed_s": self.elapsed_s,
            "adc_lookups": self.adc_lookups,
            "rerank_ndc": self.rerank_ndc,
        }


class TraceRecorder:
    """Bounded, thread-safe sink for finished :class:`QueryTrace`\\ s."""

    def __init__(self, capacity: int = 65536):
        self._traces: deque[QueryTrace] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def add(self, trace: QueryTrace) -> None:
        with self._lock:
            self._traces.append(trace)

    def discard(self, trace_ids: set[str]) -> None:
        """Drop traces by id (a failed worker chunk is retried, and the
        retry must not leave duplicate ids behind)."""
        with self._lock:
            kept = [t for t in self._traces if t.trace_id not in trace_ids]
            self._traces.clear()
            self._traces.extend(kept)

    def snapshot(self) -> list[QueryTrace]:
        with self._lock:
            return list(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


class Span:
    """One timed unit of work (a build phase, a batch stage)."""

    __slots__ = ("name", "wall_s", "attrs", "ts")

    def __init__(self, name: str, wall_s: float, attrs: dict, ts: float):
        self.name = name
        self.wall_s = wall_s
        self.attrs = attrs
        self.ts = ts

    def to_dict(self) -> dict:
        return {"span": self.name, "wall_s": self.wall_s,
                "ts": self.ts, **self.attrs}


class SpanLog:
    """Bounded, thread-safe sink for finished :class:`Span`\\ s."""

    def __init__(self, capacity: int = 8192):
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(self, name: str, wall_s: float, **attrs) -> Span:
        span = Span(name, float(wall_s), attrs, time.time())
        with self._lock:
            self._spans.append(span)
        return span

    def snapshot(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


_trace_counter = itertools.count()
_batch_counter = itertools.count()


def next_trace_id() -> str:
    return f"q-{next(_trace_counter):08d}"


def next_batch_id() -> str:
    return f"b-{next(_batch_counter):06d}"
