"""Mutable delta tier: the side-graph that makes every index insertable.

The paper's Table 7 / scenario S1 names the update asymmetry of graph
indexes: increment-built graphs (NSW, HNSW, NGT) absorb inserts
natively, while refinement and divide-and-conquer graphs (NSG, Vamana,
DPG, HCNNG, ...) are frozen at build time and must be rebuilt.  The
:class:`DeltaTier` removes that asymmetry at the serving layer: new
points land in a small NSW-style mutable side-graph with its own id
range *above* the frozen base, every search walks both tiers, and the
two result lists merge deterministically by ``(distance, id)``.  Both
tiers walk through the one best-first routine,
:func:`repro.components.routing.best_first_search`: the serial C kernel
when it is loaded (budgets and deadline handled in C), the shared NumPy
frontier otherwise.

Design points:

* **Append-grown storage.**  Vectors live in a geometrically doubled
  float32 block beside a float64 ``|x|²`` array filled at insert time.
  Adjacency is the layout the C walk reads when it is given per-row
  ``counts``: an int32 start offset and live count per row, and one flat
  int32 pool.  Rows keep spare room; a full row moves to the end of the
  pool with double its room.  Insertion is O(1) amortized, with no
  degree cap and no CSR rebuild per insert.
* **Deterministic NSW insertion.**  Each new point best-first searches
  the existing delta graph from vertex 0 (the first delta insert) at
  ``max(ef_construction, max_m)`` and links undirected edges to its best
  ``max_m`` neighbors.  No RNG: replaying the same insert sequence
  rebuilds the same side-graph bit for bit, which keeps consolidation
  carry-over and save/load round-trips reproducible.
* **External ids.**  Delta-local vertex ``j`` is addressed everywhere
  as ``base_n + j``; tombstoned delta points still route (standard
  graph-ANNS deletion) but never surface in results.
* **Budget honesty.**  The walk charges every distance evaluation to
  the caller's counter and honors a :class:`QueryBudget` exactly like
  the base walk, so a two-tier search never exceeds its NDC cap.
* **One lock.**  Inserts, deletes, walks and state exports hold the
  tier's lock, so a walk (whose C call releases the GIL) never sees a
  half-written row or a pool that was replaced under it, and two
  threads merging the delta take turns on the tier's one context.

Consolidation (rebuilding base+delta into a fresh frozen snapshot) is
orchestrated by :meth:`repro.algorithms.base.GraphANNS.consolidate`;
this module only has to export/import its state (index format v5) and
answer queries.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.components.context import SearchContext
from repro.components.routing import SearchResult, best_first_search
from repro.distance import DistanceCounter
from repro.resilience import QueryBudget

__all__ = ["DeltaTier"]

_INITIAL_CAPACITY = 16

#: every delta walk enters at local vertex 0: the delta graph is
#: connected by construction (every insert links to an earlier vertex)
_ENTRY = np.zeros(1, dtype=np.int64)


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    """``|x|²`` per float32 row in float64 (row-for-row the same sum as
    over a whole block, so inserts and a reload agree bit for bit)."""
    return np.einsum("ij,ij->i", rows, rows, dtype=np.float64)


class _Adjacency:
    """The delta graph in the serial C walk's counted-row layout.

    Row ``u`` holds ``counts[u]`` neighbors at ``indices[indptr[u]:]``
    with ``room[u]`` slots reserved; the pool is filled up to ``used``.
    It is graph-like for :func:`best_first_search`: ``n``,
    ``finalized``, ``csr()``, ``counts`` and ``neighbor_array``.
    """

    finalized = True

    def __init__(self, capacity: int, row_room: int):
        self.n = 0
        self.row_room = row_room
        self.indptr = np.zeros(capacity, dtype=np.int32)
        self.counts = np.zeros(capacity, dtype=np.int32)
        self.room = np.zeros(capacity, dtype=np.int32)
        self.indices = np.empty(capacity * row_room, dtype=np.int32)
        self.used = 0

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        return self.indptr, self.indices

    def neighbor_array(self, u: int) -> np.ndarray:
        start = self.indptr[u]
        return self.indices[start:start + self.counts[u]]

    def grow_rows(self, capacity: int) -> None:
        for name in ("indptr", "counts", "room"):
            old = getattr(self, name)
            grown = np.zeros(capacity, dtype=np.int32)
            grown[: len(old)] = old
            setattr(self, name, grown)

    def _reserve(self, room: int) -> int:
        """Start of ``room`` fresh slots at the end of the pool."""
        start = self.used
        if start + room > len(self.indices):
            grown = np.empty(max(2 * len(self.indices), start + room),
                             dtype=np.int32)
            grown[:start] = self.indices[:start]
            self.indices = grown
        self.used = start + room
        return start

    def add_row(self, neighbors: np.ndarray) -> None:
        """Append vertex ``n`` with out-edges ``neighbors``."""
        u, count = self.n, len(neighbors)
        room = max(self.row_room, count)
        start = self._reserve(room)
        self.indices[start:start + count] = neighbors
        self.indptr[u], self.counts[u], self.room[u] = start, count, room
        self.n = u + 1

    def append(self, u: int, v: int) -> None:
        """Add the edge ``u -> v``; a full row moves with double room."""
        count = int(self.counts[u])
        if count == self.room[u]:
            room = max(2 * count, self.row_room)
            start = self._reserve(room)
            old = int(self.indptr[u])
            self.indices[start:start + count] = self.indices[old:old + count]
            self.indptr[u], self.room[u] = start, room
        self.indices[self.indptr[u] + count] = v
        self.counts[u] = count + 1

    def load_packed(self, indptr: np.ndarray, neighbors: np.ndarray) -> None:
        """Adopt a CSR adjacency whose rows have no spare room: the
        first edge added to a row moves it to the end of the pool."""
        n = len(indptr) - 1
        self.indices = neighbors.astype(np.int32)
        self.used = len(neighbors)
        self.indptr[:n] = indptr[:n]
        self.counts[:n] = np.diff(indptr)
        self.room[:n] = self.counts[:n]
        self.n = n

    def edge_positions(self) -> np.ndarray:
        """Pool position of every edge, rows in order (int64)."""
        counts = self.counts[: self.n].astype(np.int64)
        offsets = np.cumsum(counts) - counts
        return (np.arange(int(counts.sum()), dtype=np.int64)
                + np.repeat(self.indptr[: self.n] - offsets, counts))


class DeltaTier:
    """NSW-style mutable side-graph over the points inserted post-build."""

    def __init__(self, dim: int, base_n: int, max_m: int = 10,
                 ef_construction: int = 40):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if base_n < 0:
            raise ValueError(f"base_n must be >= 0, got {base_n}")
        self.dim = int(dim)
        #: external ids of delta vertices are ``base_n + local``
        self.base_n = int(base_n)
        self.max_m = max(1, int(max_m))
        self.ef_construction = max(1, int(ef_construction))
        self._vectors = np.empty((_INITIAL_CAPACITY, dim), dtype=np.float32)
        self._norms = np.zeros(_INITIAL_CAPACITY, dtype=np.float64)
        self._deleted = np.zeros(_INITIAL_CAPACITY, dtype=bool)
        self._num_deleted = 0
        self._count = 0
        self._graph = _Adjacency(_INITIAL_CAPACITY, 2 * self.max_m)
        self._ctx: SearchContext | None = None
        self._lock = threading.Lock()
        #: NDC spent inside insert-time greedy searches (churn telemetry)
        self.insert_ndc = 0
        #: wall-clock of the first insert since the last consolidation,
        #: driving the consolidation-lag gauge
        self.first_insert_at: float | None = None

    # -- bookkeeping -----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of delta points (tombstoned ones included)."""
        return self._count

    def __len__(self) -> int:
        return self._count

    @property
    def vectors(self) -> np.ndarray:
        """The live float32 rows (a view into the growable block)."""
        return self._vectors[: self._count]

    @property
    def num_deleted(self) -> int:
        return self._num_deleted

    def size_bytes(self) -> int:
        edges = int(self._graph.counts[: self._count].sum())
        return int(self._vectors[: self._count].nbytes + 4 * edges
                   + self._count)

    def _ensure_capacity(self, needed: int) -> None:
        """Grow every per-row block to hold ``needed`` rows; the walk's
        context is rebuilt on its next use, against the new block."""
        cap = len(self._vectors)
        if needed <= cap:
            return
        while cap < needed:
            cap *= 2
        count = self._count
        grown = np.empty((cap, self.dim), dtype=np.float32)
        grown[:count] = self._vectors[:count]
        norms = np.zeros(cap, dtype=np.float64)
        norms[:count] = self._norms[:count]
        deleted = np.zeros(cap, dtype=bool)
        deleted[:count] = self._deleted[:count]
        self._graph.grow_rows(cap)
        self._vectors, self._norms, self._deleted = grown, norms, deleted

    # -- mutation --------------------------------------------------------

    def insert(self, vector: np.ndarray) -> int:
        """Add one float32 vector; returns its *external* id.

        The caller (``GraphANNS.insert``) validates the vector first;
        this method assumes a finite, contiguous ``(dim,)`` float32 row.
        """
        with self._lock:
            if self.first_insert_at is None:
                self.first_insert_at = time.monotonic()
            local = self._count
            self._ensure_capacity(local + 1)
            self._vectors[local] = vector
            self._norms[local] = _sq_norms(self._vectors[local:local + 1])[0]
            neighbors = np.empty(0, dtype=np.int64)
            if local > 0:
                # the walk sees the graph before this row exists, so the
                # new point can neither find itself nor a duplicate edge
                counter = DistanceCounter()
                result = self._walk_from_entry(
                    vector, max(self.ef_construction, self.max_m), counter,
                )
                self.insert_ndc += counter.count
                neighbors = result.ids[: self.max_m]
            self._graph.add_row(neighbors)
            for neighbor in neighbors.tolist():
                self._graph.append(neighbor, local)
            self._count = local + 1
        return self.base_n + local

    def delete(self, external_id: int) -> None:
        """Tombstone one delta point (addressed by its external id)."""
        local = external_id - self.base_n
        with self._lock:
            if not 0 <= local < self._count:
                raise IndexError(f"vertex {external_id} is not a delta point")
            if not self._deleted[local]:
                self._deleted[local] = True
                self._num_deleted += 1

    def contains(self, external_id: int) -> bool:
        return self.base_n <= external_id < self.base_n + self._count

    # -- search ----------------------------------------------------------

    def _walk_from_entry(self, query, ef, counter, budget=None) -> SearchResult:
        """Best-first walk of the delta graph from vertex 0 on the tier's
        own context (hold the lock).  Ids are local, ascending by
        ``(squared distance, id)``; tombstones are not filtered."""
        ctx = self._ctx
        if ctx is None or not ctx.compatible(self._vectors):
            ctx = self._ctx = SearchContext(self._vectors,
                                            norms_sq=self._norms)
        return best_first_search(
            self._graph, self._vectors, query, _ENTRY, ef, counter,
            ctx=ctx, budget=budget,
        )

    def search(
        self,
        query64: np.ndarray,
        k: int,
        ef: int,
        counter: DistanceCounter,
        budget: QueryBudget | None = None,
    ) -> SearchResult:
        """Top-k of the delta tier for one query (external ids).

        ``query64`` is the float64 contiguous query row; distances are
        true (square-rooted) L2 so they merge directly with the base
        tier's.  Tombstoned points are filtered from the result but
        still routed through, matching the base search semantics.
        """
        with self._lock:
            if self._count == 0:
                return SearchResult(ids=np.empty(0, dtype=np.int64),
                                    dists=np.empty(0))
            result = self._walk_from_entry(query64, max(ef, k), counter,
                                           budget)
            ids, dists = result.ids, result.dists
            if self._num_deleted and len(ids):
                keep = ~self._deleted[ids]
                ids, dists = ids[keep], dists[keep]
        result.ids = self.base_n + ids[:k]
        result.dists = dists[:k]
        return result

    # -- consolidation support -------------------------------------------

    def snapshot(self) -> tuple[np.ndarray, np.ndarray, int]:
        """A consistent copy of ``(vectors, deleted, count)`` for the
        consolidation worker to rebuild from while inserts continue."""
        with self._lock:
            count = self._count
            return (
                self._vectors[:count].copy(),
                self._deleted[:count].copy(),
                count,
            )

    def deleted_flags(self, count: int) -> np.ndarray:
        """Tombstone flags for the first ``count`` delta points."""
        with self._lock:
            return self._deleted[: min(count, self._count)].copy()

    def tail_after(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectors (and tombstones) inserted after position ``count`` —
        the inserts that raced a consolidation and must be re-inserted
        into the fresh delta, in order, to keep their external ids."""
        with self._lock:
            return (
                self._vectors[count: self._count].copy(),
                self._deleted[count: self._count].copy(),
            )

    # -- persistence (index format v5) -----------------------------------

    def export_state(self):
        """``(vectors, indptr, neighbors, deleted, meta)`` for v5 files.

        The adjacency is compacted to CSR, rows in vertex order.
        """
        with self._lock:
            n, graph = self._count, self._graph
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(graph.counts[:n], out=indptr[1:])
            neighbors = graph.indices[graph.edge_positions()]
            meta = {
                "base_n": self.base_n,
                "max_m": self.max_m,
                "ef_construction": self.ef_construction,
            }
            return (
                self._vectors[:n].copy(),
                indptr,
                neighbors,
                self._deleted[:n].copy(),
                meta,
            )

    @classmethod
    def from_state(cls, vectors, indptr, neighbors, deleted, meta) -> "DeltaTier":
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise ValueError(f"delta vectors must be 2-D, got {vectors.shape}")
        n, dim = vectors.shape
        indptr = np.asarray(indptr, dtype=np.int64)
        neighbors = np.asarray(neighbors, dtype=np.int64)
        if len(indptr) != n + 1 or (n and int(indptr[-1]) != len(neighbors)):
            raise ValueError("delta adjacency arrays are inconsistent")
        tier = cls(dim or 1, int(meta["base_n"]),
                   max_m=int(meta.get("max_m", 10)),
                   ef_construction=int(meta.get("ef_construction", 40)))
        tier.dim = dim
        tier._ensure_capacity(n)
        tier._vectors[:n] = vectors
        tier._norms[:n] = _sq_norms(vectors)
        tier._count = n
        tier._graph.load_packed(indptr, neighbors)
        flags = np.asarray(deleted, dtype=bool)[:n]
        tier._deleted[: len(flags)] = flags
        tier._num_deleted = int(flags.sum())
        return tier

    # -- integrity -------------------------------------------------------

    def consistency_issues(self, dim: int, base_n: int | None = None) -> list[str]:
        """Structural problems :func:`repro.resilience.verify_index`
        reports (and repairs by dropping the delta)."""
        issues: list[str] = []
        n, graph = self._count, self._graph
        if self.dim != dim:
            issues.append(
                f"delta is {self.dim}-d but the base data is {dim}-d"
            )
        if base_n is not None and self.base_n != base_n:
            issues.append(
                f"delta id range starts at {self.base_n} but the base "
                f"holds {base_n} points"
            )
        if (graph.n != n or len(graph.counts) < n
                or len(self._deleted) < n or len(self._norms) < n):
            issues.append(
                f"delta bookkeeping out of sync: {n} vectors, "
                f"{graph.n} adjacency rows, {len(self._deleted)} "
                f"tombstone slots"
            )
            return issues
        if n and not np.isfinite(self._vectors[:n]).all():
            bad = int((~np.isfinite(self._vectors[:n]).all(axis=1)).sum())
            issues.append(f"{bad} delta vectors contain NaN/Inf")
        starts = graph.indptr[:n].astype(np.int64)
        counts = graph.counts[:n].astype(np.int64)
        pool = min(graph.used, len(graph.indices))
        outside = np.flatnonzero(
            (starts < 0) | (counts < 0) | (starts + counts > pool)
        )
        if len(outside):
            u = int(outside[0])
            issues.append(
                f"delta row {u} spans [{starts[u]}, {starts[u] + counts[u]}) "
                f"outside its pool of {pool} slots"
            )
            return issues
        edges = graph.indices[graph.edge_positions()]
        sources = np.repeat(np.arange(n), counts)
        bad = np.flatnonzero((edges < 0) | (edges >= n))
        if len(bad):
            i = int(bad[0])
            issues.append(
                f"delta edge {sources[i]}->{edges[i]} points outside [0, {n})"
            )
            return issues
        loops = np.flatnonzero(edges == sources)
        if len(loops):
            issues.append(f"delta self-loop at vertex {sources[loops[0]]}")
        return issues
