"""Adjacency-list graph shared by every index in the library.

Vertices are integers ``0..n-1`` that correspond one-to-one with rows of
the dataset (Definition 2.3).  Edges are *directed*: ``v in
graph.neighbors(u)`` means the search may hop ``u -> v``.  Undirected
graphs (NSW, DPG, k-DR) simply store both directions.

The graph has two storage layouts.  During construction it is a Python
list-of-lists, cheap to mutate.  :meth:`finalize` freezes it into CSR
form — one ``indptr`` offsets array plus one flat ``indices`` array,
both ``int32``, the layout ParlayANN-style systems use — after which
:meth:`neighbor_array` is a zero-copy slice and the native search
kernel can walk adjacency without touching Python.  Any mutation drops
back to the list layout transparently.

The class also exposes the index-characteristic statistics of §5.1:
average/max/min out-degree (Table 4, Table 11), number of weakly
connected components (Table 4), and an index-size estimate (Figure 6).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Graph"]

_EDGE_BYTES = 4  # int32 neighbor id, matching the paper's C++ layouts


class Graph:
    """A directed proximity graph over ``n`` vertices."""

    #: per-row live lengths for the native walk; None means CSR, where
    #: row ``u`` ends at ``indptr[u + 1]``
    counts = None

    def __init__(self, n: int, neighbor_lists: Sequence[Iterable[int]] | None = None):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self.n = n
        if neighbor_lists is None:
            self._adj: list[list[int]] | None = [[] for _ in range(n)]
        else:
            if len(neighbor_lists) != n:
                raise ValueError(
                    f"expected {n} neighbor lists, got {len(neighbor_lists)}"
                )
            self._adj = [list(dict.fromkeys(int(v) for v in lst)) for lst in neighbor_lists]
        self._indptr: np.ndarray | None = None
        self._indices: np.ndarray | None = None

    @classmethod
    def from_csr(
        cls, indptr: np.ndarray, indices: np.ndarray, validate: bool = True
    ) -> "Graph":
        """Build a graph directly in the frozen CSR layout.

        ``indptr`` has ``n + 1`` monotone offsets into ``indices``; the
        neighbors of ``u`` are ``indices[indptr[u]:indptr[u + 1]]``.
        The adjacency lists are materialized lazily, only if the graph
        is mutated — a deserialized index searches straight from the
        arrays it was stored as.

        ``validate=False`` skips the invariant checks; it exists for
        the fault-injection harness, which deliberately constructs
        damaged graphs for :func:`repro.resilience.verify_index` to
        catch.  Searching an unvalidated graph is undefined behaviour.
        """
        indptr = np.ascontiguousarray(indptr, dtype=np.int32)
        indices = np.ascontiguousarray(indices, dtype=np.int32)
        if validate:
            if len(indptr) == 0 or indptr[0] != 0:
                raise ValueError("indptr must start at 0")
            if np.any(np.diff(indptr) < 0):
                raise ValueError("indptr must be non-decreasing")
            if int(indptr[-1]) != len(indices):
                raise ValueError(
                    f"indptr[-1]={int(indptr[-1])} != len(indices)={len(indices)}"
                )
            n = len(indptr) - 1
            if len(indices) and (indices.min() < 0 or indices.max() >= n):
                raise ValueError(f"neighbor ids must lie in [0, {n})")
        graph = cls.__new__(cls)
        graph.n = max(len(indptr) - 1, 0)
        graph._adj = None
        graph._indptr = indptr
        graph._indices = indices
        return graph

    # -- layout management ---------------------------------------------

    @property
    def finalized(self) -> bool:
        """Whether the frozen CSR arrays are current."""
        return self._indptr is not None

    def _lists(self) -> list[list[int]]:
        """The mutable adjacency, materialized from CSR if necessary."""
        if self._adj is None:
            indptr, indices = self._indptr, self._indices
            self._adj = [
                indices[indptr[v]:indptr[v + 1]].tolist() for v in range(self.n)
            ]
        return self._adj

    def _invalidate(self) -> None:
        self._indptr = None
        self._indices = None

    def finalize(self) -> "Graph":
        """Freeze adjacency into the CSR arrays for fast search access."""
        if self._indptr is None:
            adj = self._lists()
            indptr = np.zeros(self.n + 1, dtype=np.int32)
            if self.n:
                np.cumsum([len(lst) for lst in adj], out=indptr[1:])
            total = int(indptr[-1])
            indices = np.empty(total, dtype=np.int32)
            position = 0
            for lst in adj:
                indices[position:position + len(lst)] = lst
                position += len(lst)
            self._indptr = indptr
            self._indices = indices
        return self

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The frozen ``(indptr, indices)`` pair (finalizes if needed)."""
        self.finalize()
        return self._indptr, self._indices

    # -- construction -------------------------------------------------

    def add_vertex(self) -> int:
        """Append an isolated vertex; returns its id (incremental inserts)."""
        self._lists().append([])
        self.n += 1
        self._invalidate()
        return self.n - 1

    def add_edge(self, u: int, v: int) -> None:
        """Add the directed edge ``u -> v`` if absent."""
        if u == v:
            return
        adj = self._lists()
        if v not in adj[u]:
            adj[u].append(v)
            self._invalidate()

    def add_undirected_edge(self, u: int, v: int) -> None:
        """Add both edge directions (NSW/DPG-style undirected graphs)."""
        self.add_edge(u, v)
        self.add_edge(v, u)

    def set_neighbors(self, u: int, neighbors: Iterable[int]) -> None:
        """Replace ``u``'s out-neighbors (deduplicated, self-loops dropped)."""
        self._lists()[u] = [int(v) for v in dict.fromkeys(neighbors) if int(v) != u]
        self._invalidate()

    def neighbors(self, u: int) -> list[int]:
        """Mutable out-neighbor list of ``u``."""
        return self._lists()[u]

    def neighbor_array(self, u: int) -> np.ndarray:
        """Neighbors of ``u`` as an int array.

        On a finalized graph this is a zero-copy ``int32`` view into the
        CSR ``indices`` array — the whole point of the frozen layout.
        """
        if self._indices is not None:
            return self._indices[self._indptr[u]:self._indptr[u + 1]]
        return np.asarray(self._adj[u], dtype=np.int64)

    def copy(self) -> "Graph":
        """Deep copy of the adjacency (vertices share nothing)."""
        if self._adj is None:
            return Graph.from_csr(self._indptr.copy(), self._indices.copy())
        return Graph(self.n, [list(lst) for lst in self._adj])

    # -- iteration / comparison ----------------------------------------

    def __iter__(self) -> Iterator[list[int]]:
        return iter(self._lists())

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield every directed edge ``(u, v)``."""
        if self._adj is None:
            indptr, indices = self._indptr, self._indices
            for u in range(self.n):
                for v in indices[indptr[u]:indptr[u + 1]].tolist():
                    yield u, v
            return
        for u, lst in enumerate(self._adj):
            for v in lst:
                yield u, v

    def edge_set(self) -> set[tuple[int, int]]:
        """All directed edges as a set (graph-equality comparisons)."""
        return set(self.edges())

    @property
    def num_edges(self) -> int:
        """Total directed edge count."""
        if self._adj is None:
            return len(self._indices)
        return sum(len(lst) for lst in self._adj)

    # -- statistics (§5.1 metrics) --------------------------------------

    def _degrees(self) -> np.ndarray:
        if self._indptr is not None:
            return np.diff(self._indptr)
        return np.asarray([len(lst) for lst in self._adj], dtype=np.int64)

    @property
    def average_out_degree(self) -> float:
        """Table 4's AD column."""
        if self.n == 0:
            return 0.0
        return self.num_edges / self.n

    @property
    def max_out_degree(self) -> int:
        """Table 11's D_max."""
        if self.n == 0:
            return 0
        return int(self._degrees().max())

    @property
    def min_out_degree(self) -> int:
        """Table 11's D_min."""
        if self.n == 0:
            return 0
        return int(self._degrees().min())

    def reachable_mask(self, roots) -> np.ndarray:
        """Boolean mask of vertices reachable from ``roots`` (directed).

        This is the invariant the C5 connectivity component maintains
        and :func:`repro.resilience.verify_index` checks: a vertex
        outside the mask can never be returned for any query entering
        at ``roots``.  Runs a frontier-at-a-time BFS straight over the
        CSR arrays, so verifying a loaded index costs O(edges) with no
        Python adjacency materialization.
        """
        seen = np.zeros(self.n, dtype=bool)
        roots = np.asarray(roots, dtype=np.int64).reshape(-1)
        roots = roots[(roots >= 0) & (roots < self.n)]
        if len(roots) == 0:
            return seen
        seen[roots] = True
        if self._indptr is not None:
            indptr, indices = self._indptr, self._indices
            frontier = np.unique(roots)
            while len(frontier):
                counts = indptr[frontier + 1] - indptr[frontier]
                if int(counts.sum()) == 0:
                    break
                nbrs = np.concatenate([
                    indices[indptr[u]:indptr[u + 1]] for u in frontier.tolist()
                ])
                fresh = np.unique(nbrs[~seen[nbrs]])
                seen[fresh] = True
                frontier = fresh
            return seen
        queue = deque(int(r) for r in roots)
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen

    def sanitize(self) -> int:
        """Drop out-of-range neighbor ids and self-loops in place.

        Returns how many edges were removed.  This is the in-memory
        half of integrity repair; damaged CSR *offsets* (which cannot
        be fixed edge-by-edge) go through
        :func:`repro.resilience.repair_csr_arrays` instead.
        """
        if self._adj is None:
            indptr, indices = self._indptr, self._indices
            owner = np.repeat(
                np.arange(self.n, dtype=np.int64), np.diff(indptr)
            )
            keep = (indices >= 0) & (indices < self.n) & (indices != owner)
            dropped = int(len(indices) - keep.sum())
            if dropped:
                counts = np.zeros(self.n, dtype=np.int64)
                np.add.at(counts, owner[keep], 1)
                new_indptr = np.zeros(self.n + 1, dtype=np.int32)
                np.cumsum(counts, out=new_indptr[1:])
                self._indptr = new_indptr
                self._indices = indices[keep]
            return dropped
        dropped = 0
        for u, lst in enumerate(self._adj):
            clean = [v for v in lst if 0 <= v < self.n and v != u]
            dropped += len(lst) - len(clean)
            if len(clean) != len(lst):
                self._adj[u] = clean
        if dropped:
            self._invalidate()
        return dropped

    def num_connected_components(self) -> int:
        """Weakly connected components (edges treated as undirected).

        This is the CC column of Table 4: it measures whether every
        vertex is *reachable* when the search is allowed to enter from
        any component, which is what connectivity guarantees (C5) aim
        to maximise (CC == 1).
        """
        if self.n == 0:
            return 0
        undirected: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges():
            undirected[u].append(v)
            undirected[v].append(u)
        seen = np.zeros(self.n, dtype=bool)
        components = 0
        for start in range(self.n):
            if seen[start]:
                continue
            components += 1
            queue = deque([start])
            seen[start] = True
            while queue:
                u = queue.popleft()
                for v in undirected[u]:
                    if not seen[v]:
                        seen[v] = True
                        queue.append(v)
        return components

    def index_size_bytes(self) -> int:
        """Approximate serialized size: one int32 per edge + per-vertex length."""
        return self.num_edges * _EDGE_BYTES + self.n * _EDGE_BYTES

    def to_padded_matrix(self, pad: int = -1) -> np.ndarray:
        """Adjacency as an ``(n, D_max)`` int matrix, ``pad``-filled.

        Appendix I's memory-alignment trick: aligning every neighbor
        list to the maximum out-degree allows contiguous access — and
        lets NumPy fetch whole neighbor rows in one slice.  Algorithms
        whose D_max dwarfs their average degree (NSW, DPG, k-DR) pay a
        correspondingly large padding bill, which is exactly the
        paper's caveat about this optimisation.
        """
        width = self.max_out_degree
        matrix = np.full((self.n, width), pad, dtype=np.int64)
        for v, lst in enumerate(self._lists()):
            matrix[v, : len(lst)] = lst
        return matrix

    # -- cache-locality reordering --------------------------------------

    def reorder_permutation(
        self, strategy: str = "bfs", roots: np.ndarray | None = None
    ) -> np.ndarray:
        """A vertex permutation ``order[new_id] = old_id`` for locality.

        ``"bfs"`` walks the graph breadth-first from ``roots`` (default:
        vertex 0) and numbers vertices in first-visit order, so hop-1
        neighborhoods become contiguous index ranges — the classic
        Cuthill-McKee-flavoured layout graph search kernels want.
        ``"degree"`` places high-out-degree hubs first (stable sort), a
        cheaper heuristic that packs the hot hub rows together.  Both
        are deterministic; vertices unreached by the BFS are appended in
        ascending old-id order.  The graph itself is untouched — apply
        the result with :meth:`permute`.
        """
        if strategy == "degree":
            # stable argsort on negated degrees: hubs first, old-id
            # ascending within equal degrees
            return np.argsort(-self._degrees(), kind="stable").astype(np.int64)
        if strategy != "bfs":
            raise ValueError(f"unknown reorder strategy {strategy!r}")
        indptr, indices = self.csr()
        seen = np.zeros(self.n, dtype=bool)
        order = np.empty(self.n, dtype=np.int64)
        taken = 0
        if roots is None:
            roots = np.asarray([0], dtype=np.int64) if self.n else np.empty(0, np.int64)
        roots = np.asarray(roots, dtype=np.int64).reshape(-1)
        roots = roots[(roots >= 0) & (roots < self.n)]
        frontier = roots[~seen[roots]]
        # first-occurrence dedup keeps the root order deterministic
        frontier = frontier[np.sort(np.unique(frontier, return_index=True)[1])]
        while len(frontier):
            seen[frontier] = True
            order[taken:taken + len(frontier)] = frontier
            taken += len(frontier)
            nbrs = np.concatenate([
                indices[indptr[u]:indptr[u + 1]] for u in frontier.tolist()
            ]) if len(frontier) else np.empty(0, np.int64)
            nbrs = nbrs[~seen[nbrs]]
            # keep discovery order (parent by parent, adjacency order),
            # dropping repeats at their first occurrence
            frontier = nbrs[np.sort(np.unique(nbrs, return_index=True)[1])]
        rest = np.flatnonzero(~seen)
        order[taken:] = rest
        return order

    def permute(self, order: np.ndarray) -> "Graph":
        """The same graph under the relabeling ``order[new_id] = old_id``.

        Returns a *finalized* graph whose vertex ``i`` is the old vertex
        ``order[i]``, with every neighbor id translated and adjacency
        order preserved — searching it visits the same points in the
        same sequence, just under new labels.
        """
        order = np.asarray(order, dtype=np.int64)
        if len(order) != self.n or (
            self.n and not np.array_equal(np.sort(order), np.arange(self.n))
        ):
            raise ValueError("order must be a permutation of 0..n-1")
        indptr, indices = self.csr()
        inverse = np.empty(self.n, dtype=np.int64)
        inverse[order] = np.arange(self.n, dtype=np.int64)
        degrees = np.diff(indptr)[order]
        new_indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(degrees, out=new_indptr[1:])
        new_indices = np.empty(len(indices), dtype=np.int32)
        for new_id, old_id in enumerate(order.tolist()):
            lo, hi = indptr[old_id], indptr[old_id + 1]
            new_indices[new_indptr[new_id]:new_indptr[new_id + 1]] = inverse[
                indices[lo:hi]
            ]
        return Graph.from_csr(new_indptr, new_indices, validate=False)

    def reverse(self) -> "Graph":
        """Graph with every edge direction flipped."""
        rev = Graph(self.n)
        for u, v in self.edges():
            rev.add_edge(v, u)
        return rev

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(n={self.n}, edges={self.num_edges}, "
            f"avg_deg={self.average_out_degree:.1f})"
        )
