"""Reusable per-query search state for the routing hot path.

Profiling the survey's evaluation loop shows the Python wall-clock is
dominated by per-query allocations rather than by the traversal the
paper measures: an O(n) visited mask zeroed for every query, fresh
candidate/result heaps, and a ``points - query`` difference matrix per
expansion.  A :class:`SearchContext` owns all of that scratch once and
is reused across queries:

* **epoch-stamped visited array** — instead of re-zeroing O(n) booleans
  per query, a generation counter is bumped and a vertex counts as
  visited iff its stamp equals the current generation;
* **preallocated heaps** — the candidate min-heap and capped result
  heap of Definition 4.7, cleared (not reallocated) per query;
* **cached squared norms** — ``|x|^2`` for every data row (shared
  across contexts via :func:`repro.distance.squared_norms`), so each
  expansion evaluates ``|q|^2 - 2 q.x + |x|^2`` against the cache with
  no difference matrix;
* **native scratch** — heap buffers for the C best-first kernel when
  the compiled extension is available, with the checked addresses of
  every long-lived kernel argument bound once (``native_binding``)
  instead of re-checked per call.

One context serves one thread: workers in the batched query engine each
construct their own (sharing the norm cache, which is immutable).
"""

from __future__ import annotations

import numpy as np

from repro import _native, faults
from repro import observability as obs
from repro.distance import sq_dists_to_rows, squared_norms

__all__ = ["SearchContext", "BuildContext", "PhaseStats"]


class SearchContext:
    """Reusable scratch memory binding one dataset to one search thread."""

    __slots__ = (
        "data", "visit_gen", "generation",
        "candidates", "results", "query64", "query_sq", "native", "trace",
        "compressed", "lut", "lut_override",
        "_norms_sq", "_cand_d", "_cand_i", "_res_d", "_res_i",
        "_vis_i", "_vis_d", "native_binding",
    )

    def __init__(self, data: np.ndarray, norms_sq: np.ndarray | None = None):
        self.data = data
        # Lazily computed: compressed traversal over a memory-mapped
        # float32 tier must not page the whole tier in just to build a
        # norm cache it will never read.
        self._norms_sq = norms_sq
        self.visit_gen = np.zeros(len(data), dtype=np.int64)
        self.generation = 0
        self.candidates: list[tuple[float, int]] = []
        self.results: list[tuple[float, int]] = []
        self.query64: np.ndarray | None = None
        self.query_sq: float = 0.0
        #: hop-level QueryTrace for the in-flight query (None = untraced;
        #: set/cleared by GraphANNS.search and the batch engine)
        self.trace = None
        #: CompressedTier powering ADC traversal for the in-flight query
        #: (None = exact scoring; set/cleared around the walk by the
        #: shared answer step, GraphANNS._answer)
        self.compressed = None
        #: this query's (M, K) float32 ADC table (built by begin_query)
        self.lut = None
        #: precomputed table injected by the batch engine so the Python
        #: fallback scores from the same GEMM output as the MT kernel
        self.lut_override = None
        self.native = (
            _native.LIB is not None
            and data.dtype == np.float32
            and data.ndim == 2
            and data.flags["C_CONTIGUOUS"]
        )
        self._cand_d: np.ndarray | None = None
        self._cand_i: np.ndarray | None = None
        self._res_d: np.ndarray | None = None
        self._res_i: np.ndarray | None = None
        self._vis_i: np.ndarray | None = None
        self._vis_d: np.ndarray | None = None
        #: repro._native's bound kernel arguments (None until the first
        #: native walk; replaced when any bound array is)
        self.native_binding = None

    @property
    def norms_sq(self) -> np.ndarray:
        """Cached ``|x|^2`` per data row, computed on first exact use."""
        ns = self._norms_sq
        if ns is None:
            ns = self._norms_sq = squared_norms(self.data)
        return ns

    def compatible(self, data: np.ndarray) -> bool:
        """Whether this context's scratch belongs to ``data``."""
        return self.data is data

    # -- per-query lifecycle -------------------------------------------

    def begin_query(self, query: np.ndarray) -> None:
        """Start a fresh query: bump the epoch, clear heaps, cache q."""
        self.generation += 1
        self.candidates.clear()
        self.results.clear()
        self.query64 = np.ascontiguousarray(query, dtype=np.float64)
        self.query_sq = float(np.dot(self.query64, self.query64))
        if self.compressed is not None:
            lut = self.lut_override
            self.lut = self.compressed.lut(self.query64) if lut is None else lut

    # -- visited bookkeeping -------------------------------------------

    def fresh(self, ids: np.ndarray) -> np.ndarray:
        """Drop already-visited ids and stamp the remainder visited."""
        stamps = self.visit_gen[ids]
        if stamps.max(initial=-1) == self.generation:
            ids = ids[stamps != self.generation]
        if len(ids):
            self.visit_gen[ids] = self.generation
        return ids

    # -- distances ------------------------------------------------------

    def sq_dists(self, ids: np.ndarray) -> np.ndarray:
        """Squared distances from the current query to ``data[ids]``.

        With a compressed tier attached these are ADC surrogates
        gathered from the per-query LUT — the float32 rows stay
        untouched and the caller's counter is counting table lookups,
        not true distance computations.
        """
        plan = faults.active()
        if plan is not None:  # fault-injection seam; None in production
            plan.before_distances()
        if self.compressed is not None:
            return self.compressed.score(self.lut, ids)
        return sq_dists_to_rows(
            self.query64, self.data[ids], self.norms_sq[ids], self.query_sq
        )

    # -- native kernel support -----------------------------------------

    def native_scratch(self, ef: int):
        """(Re)allocate the C kernel's heap buffers; reused across calls."""
        n = len(self.data)
        if self._cand_d is None or len(self._cand_d) < n:
            self._cand_d = np.empty(n, dtype=np.float64)
            self._cand_i = np.empty(n, dtype=np.int32)
        if self._res_d is None or len(self._res_d) < ef:
            self._res_d = np.empty(max(ef, 64), dtype=np.float64)
            self._res_i = np.empty(max(ef, 64), dtype=np.int32)
        return self._cand_d, self._cand_i, self._res_d, self._res_i

    def visited_scratch(self):
        """Buffers the build kernel fills with every evaluated (id, sq)."""
        if self._vis_i is None or len(self._vis_i) < len(self.data):
            self._vis_i = np.empty(len(self.data), dtype=np.int32)
            self._vis_d = np.empty(len(self.data), dtype=np.float64)
        return self._vis_i, self._vis_d


class PhaseStats:
    """Wall-clock + NDC accumulated for one build phase (C1..C5 label)."""

    __slots__ = ("wall_s", "ndc")

    def __init__(self, wall_s: float = 0.0, ndc: int = 0):
        self.wall_s = wall_s
        self.ndc = ndc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhaseStats(wall_s={self.wall_s:.4f}, ndc={self.ndc})"


class BuildContext:
    """Shared construction-time state threaded through every builder.

    Construction mirrors what :class:`SearchContext` did for routing:
    one object owns the distance counter, the cached squared norms, a
    reusable search context and (for ``n_workers > 1``) a worker pool,
    so the per-point refinement loop never re-creates scratch state.
    :meth:`run_phase` executes one declarative phase (see
    ``GraphANNS._build_phases``) and charges its wall-clock and NDC to
    the phase's C1–C5 label; repeated labels accumulate, so the recorded
    phases always sum exactly to the build totals.
    """

    def __init__(self, data: np.ndarray, seed: int = 0, n_workers: int = 1,
                 counter=None):
        from repro.distance import DistanceCounter

        self.data = data
        self.seed = seed
        self.n_workers = max(1, int(n_workers))
        self.counter = DistanceCounter() if counter is None else counter
        self.norms_sq = squared_norms(data)
        self.phases: dict[str, PhaseStats] = {}
        self._ctx: SearchContext | None = None
        self._pool = None

    def search_context(self) -> SearchContext:
        """The build's reusable main-thread search context."""
        if self._ctx is None:
            self._ctx = SearchContext(self.data, norms_sq=self.norms_sq)
        return self._ctx

    def run_phase(self, label: str, fn) -> None:
        """Execute ``fn()`` and charge its wall/NDC to phase ``label``.

        With observability enabled, each phase is additionally recorded
        as a ``build.<label>`` span and a per-phase histogram sample —
        the same wall/NDC numbers ``BuildReport.phases`` reports, so
        exported spans and the report agree by construction.
        """
        from time import perf_counter

        start_wall = perf_counter()
        start_ndc = self.counter.count
        fn()
        wall_s = perf_counter() - start_wall
        ndc = self.counter.count - start_ndc
        stats = self.phases.setdefault(label, PhaseStats())
        stats.wall_s += wall_s
        stats.ndc += ndc
        if obs.enabled():
            obs.record_span(f"build.{label}", wall_s, ndc=ndc,
                            n_workers=self.n_workers)
            obs.instruments().build_phase_seconds(label).observe(wall_s)

    def pool(self):
        """The lazily-created refinement thread pool (n_workers wide).

        ``None`` at one worker: callers then run their chunks inline on
        the calling thread.
        """
        if self.n_workers == 1:
            return None
        from concurrent.futures import ThreadPoolExecutor

        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="repro-build"
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
