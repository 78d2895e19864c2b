"""Uniform interface for every graph-based ANNS algorithm in the survey.

``build`` constructs the graph index (and any C4 auxiliary structure)
over a dataset; ``search`` answers one query, charging *all* distance
evaluations — seed acquisition included — to a per-query counter so the
Speedup/NDC numbers match the paper's accounting.  ``evaluate``
aggregates the per-query statistics the evaluation section reports.
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import observability as obs
from repro.components.context import BuildContext, SearchContext
from repro.components.routing import (
    PLAIN, Route, SearchResult, _attach_budget, _Frontier, _walk,
    best_first_search,
)
from repro.components.seeding import RandomSeeds, SeedProvider
from repro.compressed import DEFAULT_RERANK_FACTOR, finish_compressed
from repro.delta import DeltaTier
from repro.distance import DistanceCounter
from repro.graphs.graph import Graph
from repro.resilience import InvalidQueryError, QueryBudget, validate_query

__all__ = [
    "BuildReport", "BatchStats", "ConsolidationReport", "GraphANNS",
    "check_batch", "finish_ids", "merge_topk",
]


def finish_ids(ids, dists, deleted, k, id_map):
    """A finished walk's answer: tombstones dropped, the best ``k`` kept,
    internal ids mapped to original ones.

    ``deleted`` is the tombstone mask, or None when nothing is deleted;
    ``id_map`` is the reorder map, or None for the identity.
    """
    if deleted is not None and len(ids):
        keep = ~deleted[ids]
        ids, dists = ids[keep], dists[keep]
    ids, dists = ids[:k], dists[:k]
    if id_map is not None and len(ids):
        ids = id_map[ids]
    return ids, dists


def merge_topk(parts, k):
    """The ``k`` best of several ``(ids, dists)`` result lists.

    Several parts merge under a stable sort by distance, then id — no
    arrival order can perturb it.  A single part passes through as it
    is (capped at ``k``), so a one-shard or one-tier answer stays
    bit-identical to the plain search.
    """
    if not parts:
        return np.empty(0, dtype=np.int64), np.empty(0)
    if len(parts) == 1:
        ids, dists = parts[0]
        return ids[:k], dists[:k]
    ids = np.concatenate([part[0] for part in parts])
    dists = np.concatenate([part[1] for part in parts])
    order = np.lexsort((ids, dists))[:k]
    return ids[order], dists[order]


def check_batch(queries, dim, budget):
    """Validate a query batch and normalise its budget.

    A batch that is not numeric, not 2-D or not ``dim``-wide raises,
    since no per-query result would mean anything; a row holding
    NaN/Inf only gets its own error.  Returns ``(queries, budget,
    errors, finite_rows)``: the batch as C-contiguous float32; the
    budget as None, one :class:`QueryBudget`, or a per-query list (a
    sequence of all ``None`` collapses to None); per-query error strings
    (None for a healthy row); and the indexes of the healthy rows.
    """
    try:
        queries = np.ascontiguousarray(queries, dtype=np.float32)
    except (TypeError, ValueError) as exc:
        raise InvalidQueryError(f"query batch is not numeric: {exc}") from None
    if queries.ndim != 2:
        raise ValueError(f"queries must be 2-D, got shape {queries.shape}")
    if queries.shape[1] != dim:
        raise InvalidQueryError(
            f"dimension mismatch: index is {dim}-d, "
            f"queries are {queries.shape[1]}-d"
        )
    if budget is not None and not isinstance(budget, QueryBudget):
        budget = list(budget)
        if len(budget) != len(queries):
            raise ValueError(
                f"budget sequence has {len(budget)} entries for "
                f"{len(queries)} queries"
            )
        for entry in budget:
            if entry is not None and not isinstance(entry, QueryBudget):
                raise TypeError(
                    f"budget entries must be QueryBudget or None, "
                    f"got {type(entry).__name__}"
                )
        if all(entry is None for entry in budget):
            budget = None
    finite = np.isfinite(queries).all(axis=1)
    errors: list = [None] * len(queries)
    for i in np.flatnonzero(~finite):
        errors[i] = "query contains non-finite values (NaN/Inf)"
    return queries, budget, errors, np.flatnonzero(finite)


@dataclass
class BuildReport:
    """Construction-side metrics (Figure 5/6, Table 4 inputs).

    ``phases`` maps C1–C5 labels ("c1", "c2+c3", "c4", "c5") to
    :class:`~repro.components.context.PhaseStats`; the per-phase
    wall-clocks and NDCs sum exactly to ``build_time_s`` /
    ``build_ndc`` because the engine derives the totals from them.
    ``index_size_bytes`` is the paper's full index-size definition:
    the base graph (``graph_bytes``) plus every C4 auxiliary structure
    (``aux_bytes`` — HNSW upper layers, SPTAG trees, IEH hash tables,
    NGT VP-trees, ...).
    """

    build_time_s: float
    build_ndc: int
    index_size_bytes: int
    graph_bytes: int = 0
    aux_bytes: int = 0
    n_workers: int = 1
    phases: dict = field(default_factory=dict)


@dataclass
class ConsolidationReport:
    """Outcome of one delta consolidation (Table 7 S1 churn telemetry).

    ``n_base``/``n_delta`` are the sizes of the two tiers that were
    merged; ``n_carried`` counts inserts that raced the background
    rebuild and were re-inserted into the fresh delta (their external
    ids are preserved).  ``build_report`` is the phased build engine's
    report for the rebuild.
    """

    n_base: int
    n_delta: int
    wall_s: float
    n_carried: int = 0
    build_report: "BuildReport | None" = None

    @property
    def n_total(self) -> int:
        return self.n_base + self.n_delta


@dataclass
class BatchStats:
    """Aggregated search metrics over a query batch (§5.1).

    Latency percentiles cover the tail behaviour a mean hides — the
    production-side counterpart of the paper's QPS numbers.
    """

    recall: float
    qps: float
    mean_ndc: float
    mean_hops: float
    speedup: float
    per_query_recall: np.ndarray = field(repr=False, default=None)
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0
    latency_p99_ms: float = 0.0


class GraphANNS:
    """Base class: one graph index + one seed provider + one router."""

    name = "base"
    default_ef = 40
    #: C7 routing strategy: every query is ``seed_provider.acquire``
    #: followed by the best-first walk along this route; algorithms
    #: that route differently set a class constant or derive it from
    #: their constructor parameters
    route: Route = PLAIN

    def __init__(self, seed: int = 0, n_workers: int = 1):
        self.seed = seed
        self.n_workers = max(1, int(n_workers))
        self.data: np.ndarray | None = None
        self.graph: Graph | None = None
        self.seed_provider: SeedProvider = RandomSeeds(seed=seed)
        self.build_report: BuildReport | None = None
        self._deleted: np.ndarray | None = None  # tombstones (S1 updates)
        self._compressed = None  # CompressedTier for ADC traversal
        self._search_ctx: SearchContext | None = None
        # After reorder(): internal vertex id -> original dataset id.
        # None means the identity (never reordered).
        self._id_map: np.ndarray | None = None
        self._id_inv: np.ndarray | None = None  # lazy inverse of _id_map
        # Mutable delta tier (S1 updates): points inserted after build()
        # live in a small NSW-style side-graph searched alongside the
        # frozen base; None until the first delta insert.
        self._delta: DeltaTier | None = None
        self._update_lock = threading.RLock()
        self._consolidation_thread: threading.Thread | None = None
        self._consolidation_error: BaseException | None = None
        self._last_consolidation: ConsolidationReport | None = None
        #: delta insertion parameters (NSW-style side-graph)
        self.delta_max_m = 10
        self.delta_ef_construction = 40
        #: auto-consolidation triggers: background rebuild kicks in when
        #: delta_n / base_n exceeds the ratio or delta_n exceeds the
        #: absolute cap (None disables the cap).
        self.delta_max_ratio: float = 0.25
        self.delta_max_points: int | None = None
        self.auto_consolidate = True

    # -- construction ---------------------------------------------------

    def build(self, data: np.ndarray,
              n_workers: int | None = None) -> BuildReport:
        """Construct the index; returns (and stores) the build report.

        The phases declared by :meth:`_build_phases` run in order under
        a :class:`BuildContext`, which charges each phase's wall-clock
        and NDC to its C1–C5 label; a final epilogue (graph freeze +
        seed-provider preparation, i.e. the C4 entry structures) is
        charged to ``"c4"``.  ``n_workers`` (default: the constructor's
        value) sets the refinement loop's worker pool (one worker runs
        inline) — the adjacency is bit-identical for every worker count.
        """
        if len(data) < 2:
            raise ValueError(f"cannot index fewer than 2 points, got {len(data)}")
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        workers = self.n_workers if n_workers is None else int(n_workers)
        bctx = BuildContext(self.data, seed=self.seed, n_workers=workers)
        try:
            for label, phase_fn in self._build_phases(self.data, bctx):
                bctx.run_phase(label, phase_fn)
            if self.graph is None:
                raise RuntimeError(f"{self.name}._build did not produce a graph")
            bctx.run_phase("c4", self._finish_build)
        finally:
            bctx.close()
        self._deleted = np.zeros(len(self.data), dtype=bool)
        self._compressed = None  # codes belong to the previous dataset
        self._search_ctx = None
        self._id_map = None   # a rebuild starts from the identity labeling
        self._id_inv = None
        self._delta = None    # a rebuild absorbs (and resets) the delta tier
        graph_bytes = self.graph.index_size_bytes()
        aux_bytes = self.aux_size_bytes()
        self.build_report = BuildReport(
            build_time_s=sum(s.wall_s for s in bctx.phases.values()),
            build_ndc=bctx.counter.count,
            index_size_bytes=graph_bytes + aux_bytes,
            graph_bytes=graph_bytes,
            aux_bytes=aux_bytes,
            n_workers=bctx.n_workers,
            phases=bctx.phases,
        )
        if obs.enabled():
            handles = obs.instruments()
            handles.builds_total.inc()
            handles.build_seconds.observe(self.build_report.build_time_s)
            obs.record_span(
                "build", self.build_report.build_time_s,
                algorithm=self.name, n=len(self.data),
                ndc=self.build_report.build_ndc,
                n_workers=bctx.n_workers,
                index_size_bytes=self.build_report.index_size_bytes,
            )
        return self.build_report

    def _finish_build(self) -> None:
        """Engine epilogue: freeze the graph, build the C4 entry state."""
        self.graph.finalize()
        self.seed_provider.prepare(self.data, self.graph)

    def _build_phases(self, data: np.ndarray, bctx: BuildContext):
        """Ordered ``(label, fn)`` phases; labels are C1–C5 component
        names ("c1", "c2+c3", "c4", "c5").  The default wraps a legacy
        monolithic ``_build`` so subclasses may migrate incrementally.
        """
        return [("c2+c3", lambda: self._build(data, bctx.counter))]

    def _build(self, data: np.ndarray, counter: DistanceCounter) -> None:
        raise NotImplementedError

    def index_size_bytes(self) -> int:
        """Graph storage plus any C4 auxiliary structure (Figure 6)."""
        if self.graph is None:
            return 0
        return self.graph.index_size_bytes() + self.aux_size_bytes()

    def aux_size_bytes(self) -> int:
        """Bytes held by C4 auxiliary structures (seed trees/tables...).

        Algorithms with index-resident structures beyond the seed
        provider's (HNSW's upper layers) add them by overriding.
        """
        return self.seed_provider.extra_bytes

    def _require_built(self) -> None:
        if self.graph is None or self.data is None:
            raise RuntimeError(f"{self.name}: call build() before search()")

    # -- updates (Table 7 scenario S1) -------------------------------------

    def _validate_insert(self, vector: np.ndarray) -> np.ndarray:
        """Up-front insert validation (mirrors PR 2's query validation).

        A NaN or mis-shaped vector must be rejected before it touches
        any graph — a non-finite coordinate silently poisons every
        distance comparison that ever visits the vertex.
        """
        reason = validate_query(vector, self.data.shape[1])
        if reason is not None:
            raise InvalidQueryError(f"{self.name}: cannot insert: {reason}")
        return np.ascontiguousarray(vector, dtype=np.float32)

    def _drop_compressed_on_insert(self) -> None:
        """Drop the PQ tier when an insert invalidates it (loudly).

        The new vector has no PQ code; serving compressed searches that
        can never reach it would silently cap recall, so the tier is
        dropped — callers re-enable after consolidation to refit.
        """
        if self._compressed is None:
            return
        self._compressed = None
        obs.get_logger("repro.updates").warning(
            "compressed.tier_dropped",
            algorithm=self.name, n=len(self.data),
            reason="insert invalidates PQ codes; re-enable after consolidation",
        )
        if obs.enabled():
            obs.instruments().compressed_tier_dropped_total.inc()

    def insert(self, vector: np.ndarray) -> int:
        """Insert one point into a built index; returns its external id.

        Increment-strategy algorithms (NSW, HNSW) override this to grow
        their own graph natively.  Every other construction — the
        refinement and divide-and-conquer families that Table 7's S1
        scenario says must be rebuilt — takes this universal path: the
        point goes into a small mutable NSW-style *delta* side-graph
        (:class:`repro.delta.DeltaTier`) searched alongside the frozen
        base, and a background :meth:`consolidate` pass later folds it
        into a fresh base snapshot.  External ids are stable across
        consolidation: the j-th delta insert is id ``base_n + j``
        forever.
        """
        self._require_built()
        vector = self._validate_insert(vector)
        with self._update_lock:
            self._drop_compressed_on_insert()
            delta = self._delta_tier()
            new_id = delta.insert(vector)
        self._observe_insert(delta)
        self._maybe_consolidate()
        return new_id

    def _observe_insert(self, delta: DeltaTier | None) -> None:
        if not obs.enabled():
            return
        handles = obs.instruments()
        handles.inserts_total.inc()
        if delta is not None:
            handles.delta_points.set(delta.n)
            if delta.first_insert_at is not None:
                handles.consolidation_lag_seconds.set(
                    time.monotonic() - delta.first_insert_at
                )

    def delete(self, vertex_id: int) -> None:
        """Tombstone one vertex: routing may pass through it, but it can
        no longer appear in results (the standard graph-ANNS deletion).
        Accepts both base ids and delta-tier ids (``>= base_n``)."""
        self._require_built()
        vertex_id = int(vertex_id)
        with self._update_lock:
            delta = self._delta
            if delta is not None and delta.contains(vertex_id):
                delta.delete(vertex_id)
                return
            if not 0 <= vertex_id < len(self.data):
                raise IndexError(f"vertex {vertex_id} out of range")
            self._deleted[self._internal_id(vertex_id)] = True

    @property
    def num_deleted(self) -> int:
        """How many vertices are tombstoned (both tiers)."""
        base = 0 if self._deleted is None else int(self._deleted.sum())
        delta = self._delta
        return base + (delta.num_deleted if delta is not None else 0)

    @property
    def num_points(self) -> int:
        """Total points across base + delta (including tombstoned)."""
        base = 0 if self.data is None else len(self.data)
        delta = self._delta
        return base + (delta.n if delta is not None else 0)

    @property
    def delta_points(self) -> int:
        """Points currently in the mutable delta tier."""
        delta = self._delta
        return delta.n if delta is not None else 0

    # -- consolidation: fold the delta into a fresh base snapshot ----------

    def _maybe_consolidate(self) -> None:
        """Kick a background consolidation when the delta outgrows its
        thresholds (ratio of base size, or absolute point cap)."""
        if not self.auto_consolidate:
            return
        delta = self._delta
        if delta is None or delta.n == 0 or self.data is None:
            return
        over_points = (self.delta_max_points is not None
                       and delta.n >= self.delta_max_points)
        over_ratio = delta.n / max(1, len(self.data)) > self.delta_max_ratio
        if over_points or over_ratio:
            thread = self._consolidation_thread
            if thread is None or not thread.is_alive():
                self.consolidate(wait=False)

    def consolidate(self, wait: bool = True):
        """Rebuild base + delta into one fresh snapshot and swap it in.

        The merged dataset (base rows in original order, then delta rows
        in insertion order) goes through the phased build engine — on a
        worker thread when ``wait=False`` — while reads continue on the
        old snapshot; the finished snapshot is installed atomically
        (single attribute swap under the update lock), preserving
        external ids.  Tombstones set *during* the rebuild survive, and
        inserts that race it are re-inserted into a fresh delta with
        their ids intact.

        Returns a :class:`ConsolidationReport` when ``wait=True`` (or
        when joining an in-flight background pass), else the worker
        :class:`threading.Thread`.
        """
        thread = self._consolidation_thread
        if thread is not None and thread.is_alive():
            if not wait:
                return thread
            thread.join()
            if self._consolidation_error is not None:
                raise self._consolidation_error
            return self._last_consolidation
        if wait:
            return self._consolidate_now()
        self._consolidation_error = None
        thread = threading.Thread(
            target=self._consolidate_in_background,
            name=f"repro-consolidate-{self.name}", daemon=True,
        )
        self._consolidation_thread = thread
        thread.start()
        return thread

    def _consolidate_in_background(self) -> None:
        try:
            self._consolidate_now()
        except BaseException as exc:  # surfaced on the next consolidate()
            self._consolidation_error = exc
            obs.get_logger("repro.updates").warning(
                "delta.consolidation_failed",
                algorithm=self.name, error=f"{type(exc).__name__}: {exc}",
            )

    def _consolidate_now(self) -> ConsolidationReport:
        from repro import faults

        self._require_built()
        started = time.perf_counter()
        plan = faults.active()
        with self._update_lock:
            delta = self._delta
            dim = self.data.shape[1]
            if delta is not None and delta.n:
                dvecs, _ddel, dcount = delta.snapshot()
            else:
                dvecs = np.empty((0, dim), dtype=np.float32)
                dcount = 0
            base_original = self._original_order_data()
            base_n = len(base_original)
        if plan is not None:
            plan.before_consolidate("build")
        merged = np.vstack([base_original, dvecs]) if dcount else base_original
        clone = self._clone_for_rebuild()
        build_report = clone.build(merged, n_workers=self.n_workers)
        with self._update_lock:
            if plan is not None:
                plan.before_consolidate("swap")
            # Tombstones are re-read *now* so deletes that raced the
            # rebuild land in the new snapshot (both tiers).
            new_deleted = np.zeros(base_n + dcount, dtype=bool)
            if self._deleted is not None and self._deleted.any():
                if self._id_map is not None:
                    new_deleted[self._id_map] = self._deleted
                else:
                    new_deleted[:base_n] = self._deleted
            live_delta = self._delta
            if live_delta is not None and dcount:
                new_deleted[base_n:] = live_delta.deleted_flags(dcount)
            if live_delta is not None:
                tail_vecs, tail_del = live_delta.tail_after(dcount)
            else:
                tail_vecs = np.empty((0, dim), dtype=np.float32)
                tail_del = np.zeros(0, dtype=bool)
            clone._deleted = new_deleted
            self._install_snapshot(clone)
            # Inserts that raced the rebuild restart a fresh delta with
            # their external ids preserved (new base_n == old total).
            for vec, dead in zip(tail_vecs, tail_del):
                carried_id = self._insert_without_consolidation(vec)
                if dead:
                    self._delta.delete(carried_id)
        wall_s = time.perf_counter() - started
        report = ConsolidationReport(
            n_base=base_n, n_delta=dcount, wall_s=wall_s,
            n_carried=len(tail_vecs), build_report=build_report,
        )
        self._last_consolidation = report
        obs.get_logger("repro.updates").info(
            "delta.consolidated", algorithm=self.name,
            n_base=base_n, n_delta=dcount, n_carried=len(tail_vecs),
            wall_s=round(wall_s, 6),
        )
        if obs.enabled():
            handles = obs.instruments()
            handles.consolidations_total.inc()
            handles.delta_points.set(self.delta_points)
            handles.consolidation_lag_seconds.set(0.0)
            obs.record_span(
                "consolidate", wall_s, algorithm=self.name,
                n_base=base_n, n_delta=dcount, n_carried=len(tail_vecs),
            )
        return report

    def _insert_without_consolidation(self, vector: np.ndarray) -> int:
        """Delta insert that never triggers auto-consolidation (used to
        carry racing inserts across a snapshot swap)."""
        vector = self._validate_insert(vector)
        with self._update_lock:
            return self._delta_tier().insert(vector)

    def _delta_tier(self) -> DeltaTier:
        """The delta tier, created on first use (hold the update lock)."""
        if self._delta is None:
            self._delta = DeltaTier(
                self.data.shape[1], len(self.data),
                max_m=self.delta_max_m,
                ef_construction=self.delta_ef_construction,
            )
        return self._delta

    def _original_order_data(self) -> np.ndarray:
        """Base vectors in original-id order (undoing any reorder())."""
        data = np.asarray(self.data)
        if self._id_map is None:
            return data
        out = np.empty_like(data)
        out[self._id_map] = data
        return out

    def _clone_for_rebuild(self):
        """A detached copy of this index that can build() the merged
        dataset without touching the live snapshot."""
        clone = copy.copy(self)
        clone.seed_provider = copy.deepcopy(self.seed_provider)
        clone.data = None
        clone.graph = None
        clone._deleted = None
        clone._compressed = None
        clone._search_ctx = None
        clone._delta = None
        clone._id_map = None
        clone._id_inv = None
        clone._update_lock = threading.RLock()
        clone._consolidation_thread = None
        clone._consolidation_error = None
        return clone

    #: live attributes that must NOT be overwritten by a snapshot swap
    _SWAP_EXCLUDE = frozenset({
        "_update_lock", "_consolidation_thread", "_consolidation_error",
        "_last_consolidation",
    })

    def _install_snapshot(self, clone) -> None:
        """Atomically adopt a rebuilt snapshot's state.

        Ordering matters for readers racing the swap without the lock:
        ``data`` (a row-superset of the old array) lands first, then the
        tombstones sized for the new graph, then the graph itself — so a
        torn read sees at worst the old graph over the new data, never
        an out-of-range index.
        """
        self.data = clone.data
        self._deleted = clone._deleted
        self._id_map = clone._id_map
        self._id_inv = clone._id_inv
        self.graph = clone.graph
        for key, value in clone.__dict__.items():
            if key in self._SWAP_EXCLUDE or key in (
                "data", "graph", "_deleted", "_id_map", "_id_inv",
            ):
                continue
            setattr(self, key, value)

    def _internal_id(self, vertex_id: int) -> int:
        """Original-space id -> internal vertex id (identity pre-reorder)."""
        if self._id_map is None:
            return int(vertex_id)
        if self._id_inv is None:
            self._id_inv = np.empty(len(self._id_map), dtype=np.int64)
            self._id_inv[self._id_map] = np.arange(
                len(self._id_map), dtype=np.int64
            )
        return int(self._id_inv[vertex_id])

    def _grow_bookkeeping(self) -> None:
        """Extend per-vertex state after a native (in-graph) insertion."""
        self._deleted = np.append(self._deleted, False)
        self._drop_compressed_on_insert()
        self._observe_insert(None)
        if self._id_map is not None:
            # the new vertex is appended in both labelings: its original
            # id is the next fresh one, its internal id the last row
            self._id_map = np.append(self._id_map, len(self._id_map))
            self._id_inv = None
        self.seed_provider.prepare(self.data, self.graph)
        self._search_ctx = None

    # -- cache-locality reordering ------------------------------------------

    #: subclasses whose auxiliary structures hard-code internal vertex
    #: ids (e.g. HNSW's upper-layer graphs) set this False to refuse
    _reorder_ok = True

    def reorder(self, strategy: str = "bfs") -> np.ndarray:
        """Relabel vertices so graph neighbors sit close in memory.

        Best-first search touches ``data[neighbors]`` in adjacency
        order; after a BFS (or degree) relabeling those rows — and the
        CSR adjacency slices — are largely sequential, so the native
        kernel's gathers hit warm cache lines.  The permutation is
        invisible to callers: an inverse map is kept and every returned
        id (``search``/``search_batch``) stays in the *original* dataset
        space, tombstones follow their vertices, and ``delete`` keeps
        accepting original ids.  Deterministic seed providers (centroid,
        fixed entries) yield bit-identical results before and after;
        stateful ones (random draws, rebuilt trees) stay
        recall-equivalent but may pick different seed points.

        Returns the applied permutation ``order`` (new row -> old row).
        Raises :class:`NotImplementedError` for algorithms whose C4
        structures hard-code internal ids (HNSW's layer graphs).
        """
        self._require_built()
        if not self._reorder_ok:
            raise NotImplementedError(
                f"{self.name}: auxiliary structures reference internal "
                "vertex ids; reordering is not supported"
            )
        started = time.perf_counter()
        roots = self._reorder_roots()
        order = self.graph.reorder_permutation(strategy, roots=roots)
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = np.arange(len(order), dtype=np.int64)
        self.graph = self.graph.permute(order)
        self.data = np.ascontiguousarray(self.data[order])
        if self._deleted is not None:
            self._deleted = self._deleted[order]
        if self._compressed is not None:  # codes follow their rows
            self._compressed = self._compressed.permute(order)
        # compose with any earlier reorder so internal ids always map
        # straight back to the original dataset rows
        self._id_map = (
            order.copy() if self._id_map is None else self._id_map[order]
        )
        self._id_inv = None
        self.seed_provider.permute(inverse)
        self.seed_provider.prepare(self.data, self.graph)
        if hasattr(self, "medoid"):   # NSG/Vamana keep the entry id too
            self.medoid = int(inverse[self.medoid])
        self._search_ctx = None
        if obs.enabled():
            obs.record_span(
                "reorder", time.perf_counter() - started,
                algorithm=self.name, n=len(self.data), strategy=strategy,
            )
        return order

    def _reorder_roots(self) -> np.ndarray | None:
        """Preferred BFS start vertices (internal ids); providers with a
        natural entry (the medoid) anchor the relabeling at id 0."""
        medoid = getattr(self.seed_provider, "medoid", None)
        if medoid is not None:
            return np.asarray([int(medoid)], dtype=np.int64)
        return None

    def _live_tombstones(self) -> np.ndarray | None:
        """The tombstone mask, or None while nothing is deleted."""
        deleted = self._deleted
        return deleted if deleted is not None and deleted.any() else None

    def _context(self) -> SearchContext:
        """The index's reusable search scratch, rebuilt if ``data`` moved."""
        ctx = self._search_ctx
        if ctx is None or not ctx.compatible(self.data):
            ctx = self._search_ctx = SearchContext(self.data)
        return ctx

    # -- compressed (ADC) tier ---------------------------------------------

    def enable_compressed(
        self,
        num_subspaces: int = 8,
        codebook_size: int = 32,
        kmeans_iterations: int = 8,
        seed: int | None = None,
    ):
        """Fit the uint8 PQ tier that powers ``search(compressed=True)``.

        One-time cost over the built data; afterwards compressed
        searches walk the graph on codes + per-query LUTs and read
        float32 rows only to re-rank.  Returns the fitted
        :class:`~repro.quantization.CompressedTier` (also kept on the
        index and persisted by index format v4).
        """
        from repro.quantization import CompressedTier

        self._require_built()
        self._compressed = CompressedTier.fit(
            self.data,
            num_subspaces=num_subspaces,
            codebook_size=codebook_size,
            kmeans_iterations=kmeans_iterations,
            seed=self.seed if seed is None else seed,
        )
        return self._compressed

    @property
    def compressed_tier(self):
        """The attached :class:`CompressedTier`, or None."""
        return self._compressed

    def _require_compressed(self):
        if self._compressed is None:
            raise RuntimeError(
                f"{self.name}: no compressed tier — call enable_compressed() "
                "or load a format-v4 index carrying PQ codes"
            )
        return self._compressed

    # -- search -----------------------------------------------------------

    def search(
        self,
        query: np.ndarray,
        k: int = 10,
        ef: int | None = None,
        counter: DistanceCounter | None = None,
        budget: QueryBudget | None = None,
        compressed: bool = False,
        rerank_factor: int | None = None,
        seeds: np.ndarray | None = None,
    ) -> SearchResult:
        """Approximate k nearest neighbors for one query.

        ``ef`` is the candidate-set size (CS); seed-acquisition distance
        evaluations are included in the reported NDC.  Malformed
        queries (wrong dtype/shape/dimension, NaN/Inf) raise
        :class:`InvalidQueryError` before touching the index.  With a
        :class:`QueryBudget`, a search that hits a limit returns its
        current best-k flagged ``degraded=True`` instead of raising;
        seed acquisition, the base walk and the delta walk are each
        charged against ``budget.max_ndc`` once, so the reported total
        never exceeds the cap.

        The walk, ADC re-rank and tombstone filter run in
        :meth:`_answer` and a non-empty delta tier merges in
        :meth:`_merge_delta`: the steps :func:`repro.batch.search_batch`
        runs per query, so the two entry points agree bit for bit.

        ``seeds`` overrides the provider's acquisition with explicit
        entry vertex ids (internal id space, already charged by the
        caller) — the sharded layer uses this to hand *identical* seeds
        to every replica of a hedged request, making the hedge's result
        bit-identical whether or not it fires.

        ``compressed=True`` routes on the ADC tier (see
        :meth:`enable_compressed`): the traversal scores frontier
        neighbors from uint8 PQ codes through a per-query LUT and never
        reads a float32 row; the best ``rerank_factor * k`` candidates
        (default ``repro.compressed.DEFAULT_RERANK_FACTOR``) are then
        re-ranked exactly.  ``result.ndc`` keeps counting only true
        distance computations (seeds + re-rank) while the traversal's
        table lookups land in ``result.adc_lookups``; an NDC budget caps
        that total work (seed NDC plus ADC lookups) in this mode.

        Observability: with metrics on, the query lands in the
        ``repro_query_*`` instrument family; with tracing on, a
        hop-level :class:`~repro.observability.QueryTrace` is recorded
        and ``result.trace_id`` set.  Disabled mode costs two global
        reads — ids, distances and NDC are bit-identical either way.
        """
        self._require_built()
        reason = validate_query(query, self.data.shape[1])
        if reason is not None:
            raise InvalidQueryError(f"{self.name}: {reason}")
        ef, tier, max_pool = self._pool_size(k, ef, compressed, rerank_factor)
        counter = counter if counter is not None else DistanceCounter()
        metrics = obs.enabled()
        trace = obs.start_query_trace(self.name, k, ef) if obs.tracing() else None
        started = time.perf_counter() if metrics else 0.0
        start = counter.count
        ctx = self._context()
        if trace is not None:
            trace.attach(start)
            ctx.trace = trace
        try:
            if seeds is None:
                seeds = self.seed_provider.acquire(query, counter)
            if trace is not None:
                trace.record_seeds(seeds, counter.count)
            result = self._answer(
                query, seeds, k, ef, counter, ctx, budget,
                counter.count - start, tier, max_pool,
            )
        finally:
            if trace is not None:
                ctx.trace = None
        delta = self._delta
        if delta is not None and delta.n:
            self._merge_delta(result, query, k, ef, counter, budget)
        if metrics:
            elapsed = time.perf_counter() - started
            if trace is not None:
                obs.finish_query_trace(trace, result, elapsed)
            obs.observe_query(result, elapsed)
        return result

    def search_batch(
        self,
        queries: np.ndarray,
        k: int = 10,
        ef: int | None = None,
        workers: int = 1,
        budget=None,
        compressed: bool = False,
        rerank_factor: int | None = None,
    ):
        """Answer many queries through :func:`repro.batch.search_batch`.

        Method form of the batch API so a bare index satisfies the same
        duck type as :class:`~repro.sharding.ShardedIndex` — anything
        exposing ``search_batch`` can sit behind the serving coalescer.
        ``budget`` may be a single :class:`QueryBudget` or one per query
        (``None`` entries = unbudgeted); results are bit-identical (ids
        and NDC) to a sequential ``search`` loop.
        """
        from repro.batch import search_batch as _search_batch

        return _search_batch(
            self, queries, k=k, ef=ef, workers=workers, budget=budget,
            compressed=compressed, rerank_factor=rerank_factor,
        )

    def _pool_size(self, k, ef, compressed, rerank_factor):
        """``(ef, tier, max_pool)``: the candidate-set size, then the
        compressed tier and its re-rank pool cap (None, 0 when exact)."""
        ef = max(k, ef if ef is not None else self.default_ef)
        if not compressed:
            return ef, None, 0
        tier = self._require_compressed()
        factor = (
            DEFAULT_RERANK_FACTOR if rerank_factor is None
            else int(rerank_factor)
        )
        if factor < 1:
            raise ValueError(f"rerank_factor must be >= 1, got {factor}")
        return max(ef, factor * k), tier, factor * k

    def _answer(self, query, seeds, k, ef, counter, ctx, budget, spent,
                tier, max_pool) -> SearchResult:
        """Walk one query from its ``seeds`` along :attr:`route` (C7)
        and finish its answer: the step :meth:`search` and the batch
        engine's per-query path share.

        ``spent`` (the seeds' NDC) is charged against ``budget`` once,
        here.  A compressed ``tier`` walk counts ADC lookups and re-ranks
        its best ``max_pool`` exactly.  ``result.ndc`` is ``spent`` plus
        what ``counter`` gained; ids are tombstone-free, original-space.
        """
        if budget is not None:
            budget = budget.after_spending(spent)
        start = counter.count
        seeds = np.asarray(seeds, dtype=np.int64)
        deleted = self._live_tombstones()
        if tier is None:
            result = best_first_search(
                self.graph, self.data, query, seeds, ef, counter, ctx=ctx,
                budget=budget, route=self.route,
            )
        else:
            lookups = DistanceCounter()
            ctx.compressed = tier
            try:
                walk = best_first_search(
                    self.graph, self.data, query, seeds, ef, lookups,
                    ctx=ctx, budget=budget, route=self.route,
                )
            finally:
                ctx.compressed = None
                ctx.lut = None
            result = finish_compressed(
                walk, self.data, ctx.query64, deleted, lookups.count,
                counter, max_pool=max_pool,
            )
        result.ndc = spent + counter.count - start
        result.ids, result.dists = finish_ids(
            result.ids, result.dists, deleted, k, self._id_map
        )
        return result

    def _hooked_answer(self, query, k, ef, counter, tracker=None, admit=None,
                       select=None) -> SearchResult:
        """One query walked along :attr:`route` on the NumPy frontier
        with a wrapper's hook, finished like :meth:`_answer`.

        The hooks are ML1's neighbor ``select`` (see ``_walk``), the
        attribute filter's ``admit`` mask (see ``_Frontier``) and ML2's
        stop-hop ``tracker``.  Seeds come from the provider and are
        charged to ``result.ndc``; ids are tombstone-free, original-space.
        """
        start = counter.count
        seeds = self.seed_provider.acquire(query, counter)
        frontier = _Frontier(self._context(), query, ef, tracker=tracker,
                             admit=admit)
        frontier.seed(seeds, counter)
        hops = _walk(frontier, self.graph, self.data, counter, self.route,
                     select)
        result = frontier.finish(counter.count - start, hops)
        result.ids, result.dists = finish_ids(
            result.ids, result.dists, self._live_tombstones(), k, self._id_map
        )
        return _attach_budget(result, tracker)

    def _merge_delta(self, result, query, k, ef, counter, budget) -> None:
        """Fold the delta tier's top-k into a finished base result.

        The global top-k is a subset of (base top-k ∪ delta top-k), so
        merging the two finished lists by ``(distance, id)`` is exact.
        The delta walk is charged to ``counter`` and ``result.ndc``
        under what ``budget`` leaves after ``result.ndc``.  Only called
        when the delta is non-empty, so an empty delta changes no bit.
        """
        remaining = (
            None if budget is None else budget.after_spending(result.ndc)
        )
        start = counter.count
        dres = self._delta.search(
            np.ascontiguousarray(query, dtype=np.float64), k, ef,
            counter, budget=remaining,
        )
        result.ndc += counter.count - start
        result.hops += dres.hops
        result.visited += dres.visited
        if dres.degraded:
            result.degraded = True
            if result.budget is None:
                result.budget = dres.budget
        if len(dres.ids):
            result.ids, result.dists = merge_topk(
                [(result.ids, result.dists), (dres.ids, dres.dists)], k
            )

    def evaluate(
        self,
        queries: np.ndarray,
        ground_truth: np.ndarray,
        k: int = 10,
        ef: int | None = None,
        compressed: bool = False,
        rerank_factor: int | None = None,
    ) -> BatchStats:
        """Score a query set against ground truth: recall/QPS/NDC/speedup.

        Queries run one at a time through :meth:`search`, so QPS and the
        latency percentiles are the sequential evaluation-section
        numbers; :meth:`search_batch` is the batch API.
        ``compressed``/``rerank_factor`` select per-query ADC traversal
        (see :meth:`search`); the reported ``mean_ndc`` then covers only
        true distance computations, matching the paper's accounting.
        """
        self._require_built()
        n = len(self.data)
        recalls = np.empty(len(queries))
        ndcs = np.empty(len(queries))
        hops = np.empty(len(queries))
        latencies = np.empty(len(queries))
        started = time.perf_counter()
        for i, query in enumerate(queries):
            query_started = time.perf_counter()
            result = self.search(
                query, k=k, ef=ef, compressed=compressed,
                rerank_factor=rerank_factor,
            )
            latencies[i] = time.perf_counter() - query_started
            truth = set(int(t) for t in ground_truth[i][:k])
            recalls[i] = len(truth.intersection(int(r) for r in result.ids)) / k
            ndcs[i] = result.ndc
            hops[i] = result.hops
        elapsed = max(time.perf_counter() - started, 1e-9)
        mean_ndc = float(ndcs.mean())
        return BatchStats(
            recall=float(recalls.mean()),
            qps=len(queries) / elapsed,
            mean_ndc=mean_ndc,
            mean_hops=float(hops.mean()),
            speedup=n / max(mean_ndc, 1.0),
            per_query_recall=recalls,
            latency_p50_ms=float(np.percentile(latencies, 50) * 1000),
            latency_p95_ms=float(np.percentile(latencies, 95) * 1000),
            latency_p99_ms=float(np.percentile(latencies, 99) * 1000),
        )
