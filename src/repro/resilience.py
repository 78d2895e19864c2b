"""Serving-grade resilience: budgets, degradation, validation, integrity.

The survey measures search cost in NDC precisely because it is the
hardware-independent unit of work (§5.3); the learned-termination line
(ML2, "Learning to Route in Similarity Graphs") shows that cutting a
query off early trades recall for cost *predictably*.  This module
turns that observation into serving machinery:

* :class:`QueryBudget` — per-query limits (wall-clock deadline, max
  NDC, max hops) threaded through every routing strategy and the
  native kernel.  An exhausted budget does not raise: the search stops
  and returns its current best-k flagged ``degraded=True`` with a
  :class:`BudgetReport` saying which limit fired and what was spent.
* query validation — :func:`validate_query` rejects malformed input
  (wrong dtype/shape/dimension, NaN/Inf) *before* it can poison a
  visited array or a distance heap; the batch engine rejects per query
  instead of failing the batch.
* integrity — :func:`verify_index` checks the CSR invariants every
  search path relies on (monotone offsets, in-range int32 neighbor
  ids, no self-loops, finite vectors, reachability from the entry
  points) and can *repair* a damaged index: out-of-range edges and
  self-loops are dropped, non-finite vectors are zeroed and
  tombstoned, stranded vertices are reconnected through the existing
  C5 connectivity component.

Nothing here changes an unbudgeted, fault-free search: ids, distances
and NDC stay bit-identical to the plain hot path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "QueryBudget",
    "BudgetReport",
    "BudgetTracker",
    "InvalidQueryError",
    "IndexFormatError",
    "IndexIntegrityError",
    "IntegrityReport",
    "validate_query",
    "verify_index",
    "repair_csr_arrays",
]


# -- errors -------------------------------------------------------------


class InvalidQueryError(ValueError):
    """A query vector failed up-front validation (dtype/shape/NaN)."""


class IndexFormatError(ValueError):
    """A persisted index could not be parsed (truncated file, missing
    keys, version/checksum mismatch).  Carries the path and the reason."""

    def __init__(self, path, reason: str):
        self.path = str(path)
        self.reason = reason
        super().__init__(f"cannot load index from {self.path}: {reason}")


class IndexIntegrityError(RuntimeError):
    """An index violates a structural invariant search depends on."""

    def __init__(self, report: "IntegrityReport"):
        self.report = report
        super().__init__(
            "index integrity check failed: " + "; ".join(report.issues)
        )


# -- budgets ------------------------------------------------------------


@dataclass(frozen=True)
class QueryBudget:
    """Per-query resource limits.  ``None`` means unlimited.

    ``max_ndc`` is a hard cap on distance computations during routing
    (the paper's NDC); ``max_hops`` caps expanded vertices (the query
    path length of Table 5); ``deadline_s`` is a wall-clock limit.
    Both C kernels — the serial one behind ``search`` and the
    multi-threaded one behind ``search_batch`` — honor all three,
    checking the clock every few expansions; the NumPy frontier checks
    it between hops.
    """

    deadline_s: float | None = None
    max_ndc: int | None = None
    max_hops: int | None = None

    def __post_init__(self):
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.max_ndc is not None and self.max_ndc < 0:
            raise ValueError(f"max_ndc must be non-negative, got {self.max_ndc}")
        if self.max_hops is not None and self.max_hops < 0:
            raise ValueError(f"max_hops must be non-negative, got {self.max_hops}")

    @property
    def unlimited(self) -> bool:
        return self.deadline_s is None and self.max_ndc is None and self.max_hops is None

    def after_spending(self, ndc: int) -> "QueryBudget":
        """The budget left once ``ndc`` computations (e.g. seed
        acquisition) have already been charged against ``max_ndc``."""
        if self.max_ndc is None or ndc <= 0:
            return self
        return replace(self, max_ndc=max(0, self.max_ndc - ndc))


@dataclass
class BudgetReport:
    """What a budget-terminated search actually spent.

    ``limit`` names the limit that fired (``"deadline"``, ``"ndc"`` or
    ``"hops"``); the remaining fields are honest telemetry for the
    degraded result that was returned anyway.  When hop-level tracing
    is on, ``trace_id`` joins this report to its recorded
    :class:`~repro.observability.QueryTrace`.
    """

    limit: str
    ndc: int
    hops: int
    elapsed_s: float
    trace_id: str | None = None


class BudgetTracker:
    """Enforces one :class:`QueryBudget` over one routing invocation.

    The tracker never changes the *order* in which vertices would be
    evaluated — it only truncates: :meth:`clip` cuts a bulk evaluation
    to the remaining NDC allowance, and :meth:`stop_before_hop` halts
    the loop once any limit is reached.  A search that finishes without
    hitting a limit reports ``fired is None`` and is not degraded.
    """

    __slots__ = ("budget", "counter", "start_ndc", "started", "deadline", "fired")

    def __init__(self, budget: QueryBudget, counter):
        self.budget = budget
        self.counter = counter
        self.start_ndc = counter.count
        self.started = time.perf_counter()
        self.deadline = (
            None if budget.deadline_s is None
            else self.started + budget.deadline_s
        )
        self.fired: str | None = None

    def spent(self) -> int:
        return self.counter.count - self.start_ndc

    def clip(self, ids: np.ndarray) -> np.ndarray:
        """Truncate a bulk evaluation to the remaining NDC allowance."""
        max_ndc = self.budget.max_ndc
        if max_ndc is None:
            return ids
        remaining = max_ndc - self.spent()
        if len(ids) > remaining:
            self.fired = "ndc"
            return ids[:max(remaining, 0)]
        return ids

    def stop_before_hop(self, hops: int) -> bool:
        """Whether the routing loop must stop before its next expansion."""
        budget = self.budget
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            self.fired = "deadline"
            return True
        if budget.max_hops is not None and hops >= budget.max_hops:
            self.fired = "hops"
            return True
        if budget.max_ndc is not None and self.spent() >= budget.max_ndc:
            self.fired = "ndc"
            return True
        return False

    def report(self, hops: int) -> BudgetReport:
        return BudgetReport(
            limit=self.fired or "none",
            ndc=self.spent(),
            hops=hops,
            elapsed_s=time.perf_counter() - self.started,
        )


# -- query validation ---------------------------------------------------


def validate_query(query, dim: int) -> str | None:
    """Reason a query is unusable against a ``dim``-dimensional index,
    or ``None`` if it is fine.  Never raises, never copies valid input."""
    try:
        arr = np.asarray(query)
    except Exception as exc:  # noqa: BLE001 - anything array-hostile
        return f"not convertible to an array ({type(exc).__name__})"
    if arr.dtype == object or not np.issubdtype(arr.dtype, np.number):
        return f"non-numeric dtype {arr.dtype}"
    if np.issubdtype(arr.dtype, np.complexfloating):
        return f"complex dtype {arr.dtype} is not supported"
    if arr.ndim != 1:
        return f"expected a 1-D query vector, got shape {arr.shape}"
    if arr.shape[0] != dim:
        return f"dimension mismatch: index is {dim}-d, query is {arr.shape[0]}-d"
    if np.issubdtype(arr.dtype, np.floating) and not np.isfinite(arr).all():
        return "query contains non-finite values (NaN/Inf)"
    return None


# -- integrity ----------------------------------------------------------


@dataclass
class IntegrityReport:
    """Outcome of :func:`verify_index`: what was checked, what was wrong,
    and (in repair mode) what was fixed."""

    n_vertices: int = 0
    n_edges: int = 0
    issues: list[str] = field(default_factory=list)
    repairs: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues


def _csr_issues(indptr: np.ndarray, indices: np.ndarray, n: int) -> list[str]:
    issues = []
    if len(indptr) != n + 1:
        issues.append(f"indptr has {len(indptr)} entries, expected {n + 1}")
        return issues
    if len(indptr) == 0 or int(indptr[0]) != 0:
        issues.append("indptr does not start at 0")
    if np.any(np.diff(indptr.astype(np.int64)) < 0):
        issues.append("indptr is not monotone non-decreasing")
    elif int(indptr[-1]) != len(indices):
        issues.append(
            f"indptr[-1]={int(indptr[-1])} != len(indices)={len(indices)}"
        )
    if len(indices):
        lo, hi = int(indices.min()), int(indices.max())
        if lo < 0 or hi >= n:
            bad = int(((indices < 0) | (indices >= n)).sum())
            issues.append(f"{bad} neighbor ids outside [0, {n})")
    return issues


def repair_csr_arrays(
    indptr: np.ndarray, indices: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Best-effort repair of a damaged CSR pair.

    Clamps the offsets back to a monotone in-range sequence, then drops
    every out-of-range neighbor id and self-loop.  Returns the cleaned
    ``(indptr, indices)`` plus human-readable notes on what was done.
    The result always satisfies :class:`~repro.graphs.graph.Graph`'s
    ``from_csr`` invariants (possibly with empty neighbor lists).
    """
    notes: list[str] = []
    indptr = np.asarray(indptr, dtype=np.int64).copy()
    indices = np.asarray(indices, dtype=np.int64).copy()

    if len(indptr) != n + 1:
        old = len(indptr)
        fixed = np.zeros(n + 1, dtype=np.int64)
        m = min(old, n + 1)
        fixed[:m] = indptr[:m]
        if m < n + 1 and m > 0:
            fixed[m:] = fixed[m - 1]
        indptr = fixed
        notes.append(f"resized indptr from {old} to {n + 1} entries")
    if len(indptr) and indptr[0] != 0:
        notes.append("reset indptr[0] to 0")
        indptr[0] = 0
    clipped = np.minimum(np.maximum.accumulate(np.maximum(indptr, 0)), len(indices))
    if not np.array_equal(clipped, indptr):
        notes.append("clamped indptr to a monotone in-range sequence")
        indptr = clipped
    if int(indptr[-1]) != len(indices):
        notes.append(
            f"truncated indices from {len(indices)} to {int(indptr[-1])} entries"
        )
        indices = indices[: int(indptr[-1])]

    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    keep = (indices >= 0) & (indices < n) & (indices != owner)
    dropped = int(len(indices) - keep.sum())
    if dropped:
        notes.append(f"dropped {dropped} out-of-range or self-loop edges")
        new_counts = np.zeros(n, dtype=np.int64)
        np.add.at(new_counts, owner[keep], 1)
        indices = indices[keep]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(new_counts, out=indptr[1:])
    return (
        indptr.astype(np.int32, copy=False),
        indices.astype(np.int32, copy=False),
        notes,
    )


def _entry_points(index) -> np.ndarray:
    """The entry vertices a generic query would start from (best effort)."""
    try:
        probe = index.data.mean(axis=0)
        seeds = np.unique(np.asarray(index.seed_provider.acquire(probe),
                                     dtype=np.int64))
    except Exception:  # noqa: BLE001 - a broken provider is itself a finding
        return np.empty(0, dtype=np.int64)
    n = index.graph.n
    return seeds[(seeds >= 0) & (seeds < n)]


def verify_index(
    index,
    repair: bool = False,
    check_reachability: bool = True,
    strict: bool = True,
) -> IntegrityReport:
    """Check (and optionally repair) the structural invariants of a
    built index.

    Checks: CSR offset monotonicity and bounds, neighbor ids in
    ``[0, n)``, no self-loops, data row count and finiteness, a
    compressed tier's code/codebook consistency (row count, subspace
    boundaries, code values inside each codebook) when one is attached,
    a delta tier's structure (dimension, id-range alignment, edge
    bounds, vector finiteness) when one is attached,
    and — when ``check_reachability`` — that every vertex is reachable
    from the index's entry points, which is exactly the guarantee the
    C5 connectivity component exists to provide.

    With ``repair=True`` the index is fixed in place: bad edges are
    dropped, non-finite vectors are zeroed *and tombstoned* (so they
    can never appear in a result), an inconsistent compressed tier is
    dropped (exact search keeps working; re-enable to rebuild it), a
    corrupt delta tier is dropped (base search keeps working; the
    unconsolidated inserts are lost), and
    stranded vertices are reconnected with
    :func:`repro.components.connectivity.ensure_reachable_from`.
    Without it, a failing check raises :class:`IndexIntegrityError`
    (pass ``strict=False`` to get the report back instead).

    Memory-mapped vector tiers (``load_index(..., mmap_vectors=True)``)
    skip the full-data finiteness scan: paging every vector in would
    defeat the point of the map, and the sidecar's size was already
    validated at load time.
    """
    from repro.components.connectivity import ensure_reachable_from
    from repro.distance import invalidate_norms
    from repro.graphs.graph import Graph

    if index.graph is None or index.data is None:
        raise RuntimeError("build or load the index before verifying it")
    graph = index.graph
    data = index.data
    report = IntegrityReport(n_vertices=graph.n, n_edges=graph.num_edges)

    indptr, indices = graph.csr()
    structural = _csr_issues(indptr, indices, graph.n)
    owner = None
    if not structural:
        owner = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(indptr))
        loops = int((indices == owner).sum())
        if loops:
            structural.append(f"{loops} self-loop edges")
    if structural:
        if not repair:
            report.issues.extend(structural)
        else:
            fixed_indptr, fixed_indices, notes = repair_csr_arrays(
                indptr, indices, graph.n
            )
            index.graph = graph = Graph.from_csr(fixed_indptr, fixed_indices)
            report.repairs.extend(structural)
            report.repairs.extend(notes)
            indptr, indices = graph.csr()

    if len(data) != graph.n:
        report.issues.append(
            f"{len(data)} data rows for {graph.n} vertices"
        )
        return _finish(report, repair, strict)
    if data.ndim != 2:
        report.issues.append(f"data must be 2-D, got shape {data.shape}")
        return _finish(report, repair, strict)

    if not isinstance(data, np.memmap):
        # a mapped tier is read-only and intentionally non-resident:
        # scanning (or zeroing) it would page the whole file in
        finite = np.isfinite(data).all(axis=1)
        if not finite.all():
            bad = np.flatnonzero(~finite)
            msg = f"{len(bad)} vectors contain NaN/Inf (first: {int(bad[0])})"
            if not repair:
                report.issues.append(msg)
            else:
                data[bad] = 0.0
                invalidate_norms(data)
                if getattr(index, "_deleted", None) is not None:
                    index._deleted[bad] = True
                report.repairs.append(msg + " — zeroed and tombstoned")

    tier = getattr(index, "_compressed", None)
    if tier is not None:
        tier_issues = tier.consistency_issues(graph.n, data.shape[1])
        if tier_issues:
            if not repair:
                report.issues.extend(
                    f"compressed tier: {issue}" for issue in tier_issues
                )
            else:
                # codes that disagree with the graph/vectors can only
                # produce wrong ADC rankings; exact search is unharmed
                index._compressed = None
                report.repairs.extend(
                    f"compressed tier: {issue}" for issue in tier_issues
                )
                report.repairs.append(
                    "compressed tier dropped (exact search unaffected; "
                    "re-run enable_compressed() to rebuild)"
                )

    delta = getattr(index, "_delta", None)
    if delta is not None:
        delta_issues = delta.consistency_issues(
            int(data.shape[1]), base_n=len(data)
        )
        if delta_issues:
            if not repair:
                report.issues.extend(
                    f"delta tier: {issue}" for issue in delta_issues
                )
            else:
                # a structurally damaged delta cannot be trusted to
                # route; base search keeps working without it
                index._delta = None
                report.repairs.extend(
                    f"delta tier: {issue}" for issue in delta_issues
                )
                report.repairs.append(
                    "delta tier dropped (points inserted since the last "
                    "consolidation are lost; base search unaffected)"
                )

    id_map = getattr(index, "_id_map", None)
    if id_map is not None:
        id_map = np.asarray(id_map)
        bad_map = None
        if len(id_map) != graph.n:
            bad_map = f"id_map has {len(id_map)} entries for {graph.n} vertices"
        elif graph.n and not np.array_equal(
            np.sort(id_map), np.arange(graph.n)
        ):
            bad_map = "id_map is not a permutation of 0..n-1"
        if bad_map is not None:
            if not repair:
                report.issues.append(bad_map)
            else:
                # nothing can recover the original labeling; fall back
                # to internal ids rather than returning garbage ids
                index._id_map = None
                index._id_inv = None
                report.repairs.append(
                    bad_map + " — dropped (results use internal ids)"
                )

    if check_reachability and report.ok and graph.n:
        entries = _entry_points(index)
        if len(entries) == 0:
            report.issues.append("no valid entry points could be acquired")
        else:
            reachable = graph.reachable_mask(entries)
            stranded = int((~reachable).sum())
            if stranded:
                msg = (f"{stranded} vertices unreachable from the "
                       f"{len(entries)} entry points")
                if not repair:
                    report.issues.append(msg)
                else:
                    ensure_reachable_from(graph, data, int(entries[0]))
                    report.repairs.append(msg + " — reconnected")
    return _finish(report, repair, strict)


def _finish(report: IntegrityReport, repair: bool, strict: bool) -> IntegrityReport:
    from repro import observability as obs

    if report.issues or report.repairs:
        if obs.enabled():
            handles = obs.instruments()
            handles.integrity_issues_total.inc(
                len(report.issues) + len(report.repairs))
            handles.repairs_total.inc(len(report.repairs))
        obs.get_logger("repro.resilience").warning(
            "index.integrity",
            issues=len(report.issues), repairs=len(report.repairs),
            detail="; ".join(report.issues + report.repairs)[:500],
        )
    if report.issues and strict and not repair:
        raise IndexIntegrityError(report)
    return report
