"""Deterministic chunked execution of the per-point refinement loop.

Every refinement builder in the survey spends its time in the same
shape of loop: for each point, acquire candidates (C2) over a frozen
input graph, prune them (C3), and write the result row.  The iterations
are independent — ParlayANN's observation that graph construction
parallelizes batch-synchronously — so :func:`map_refine` is the one
C2+C3 loop every such builder runs, at every worker count.  With one
worker it runs inline on the calling thread; with more it runs chunks
in the :class:`~repro.components.context.BuildContext` worker pool.
Either way the results are applied **in ascending point order on the
calling thread**, so output is a deterministic function of the seed
regardless of worker count or scheduling.

The workers use two native fast paths (both bit-identical to the NumPy
code they replace, see ``_native.py``):

* :func:`search_candidates` — visited-recording best-first search in C
  instead of the Python frontier;
* :func:`select_rng` — the RNG-heuristic occlusion scan in C over the
  NumPy-computed cross-distance matrix.

When the compiled kernel is unavailable both fall back to the exact
Python component functions, so ``REPRO_NO_NATIVE`` builds reproduce the
native adjacency bit-for-bit.
"""

from __future__ import annotations

import queue

import numpy as np

from repro import _native
from repro.components.candidates import candidates_by_search
from repro.components.context import BuildContext, SearchContext
from repro.components.selection import select_rng_heuristic
from repro.distance import DistanceCounter, pairwise_l2

__all__ = [
    "BuildWorker",
    "map_refine",
    "search_candidates",
    "search_candidates_padded",
    "select_rng",
]

#: points handed to a worker per task — large enough to amortize the
#: executor round-trip, small enough to keep all workers busy
CHUNK_SIZE = 64


class BuildWorker:
    """Per-thread scratch for refinement: a search context + counter.

    Each worker owns a private :class:`SearchContext` (sharing the
    immutable norm cache) and a private :class:`DistanceCounter`;
    :func:`map_refine` merges the counters into the build's counter
    after the loop so the total NDC is the same at every worker count.
    """

    __slots__ = ("ctx", "counter")

    def __init__(self, bctx: BuildContext):
        self.ctx = SearchContext(bctx.data, norms_sq=bctx.norms_sq)
        self.counter = DistanceCounter()


def map_refine(bctx: BuildContext, n_points: int, point_fn,
               apply_fn) -> None:
    """Run ``point_fn(p, worker)`` for every point, apply results in order.

    ``point_fn`` must be a pure function of its inputs (it may only
    read state frozen before the loop and the worker's scratch);
    ``apply_fn(p, result)`` runs on the calling thread in ascending
    ``p`` order and is the only place output state may be mutated.
    At one worker the points run inline: no thread, no queue.
    """
    workers = [BuildWorker(bctx) for _ in range(bctx.n_workers)]
    pool = bctx.pool()
    if pool is None:
        for p in range(n_points):
            apply_fn(p, point_fn(p, workers[0]))
    else:
        free: queue.Queue[BuildWorker] = queue.Queue()
        for worker in workers:
            free.put(worker)

        def run_chunk(start: int, stop: int) -> list:
            worker = free.get()
            try:
                return [point_fn(p, worker) for p in range(start, stop)]
            finally:
                free.put(worker)

        starts = range(0, n_points, CHUNK_SIZE)
        futures = [
            pool.submit(run_chunk, start, min(start + CHUNK_SIZE, n_points))
            for start in starts
        ]
        for start, future in zip(starts, futures):
            for offset, result in enumerate(future.result()):
                apply_fn(start + offset, result)
    for worker in workers:
        bctx.counter.count += worker.counter.count


def _finish_visited(vis_ids: np.ndarray, vis_sq: np.ndarray,
                    point_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort the raw visited log by (sq, id) and drop the point itself."""
    order = np.lexsort((vis_ids, vis_sq))
    ids = vis_ids[order].astype(np.int64)
    dists = np.sqrt(vis_sq[order])
    mask = ids != point_id
    return ids[mask], dists[mask]


def search_candidates(worker: BuildWorker, graph, data: np.ndarray,
                      point_id: int, ef: int,
                      seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``candidates_by_search`` with the native visited-recording kernel.

    Returns the identical ``(ids, dists)`` the Python frontier would:
    the C core evaluates the same vertex set in the same traversal and
    the wrapper re-sorts by (distance, id) like ``finish()`` does.
    """
    ctx = worker.ctx
    if ctx.native and graph.finalized:
        indptr, indices = graph.csr()
        ctx.begin_query(data[point_id])
        unique_seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        vis_ids, vis_sq, ndc = _native.best_first_build(
            ctx, indptr, indices, None, ctx.query64, ctx.query_sq,
            unique_seeds, ef,
        )
        worker.counter.count += ndc
        return _finish_visited(vis_ids, vis_sq, point_id)
    return candidates_by_search(
        graph, data, point_id, ef, seeds, counter=worker.counter, ctx=ctx,
    )


def search_candidates_padded(ctx: SearchContext, counter: DistanceCounter,
                             offsets: np.ndarray, flat: np.ndarray,
                             counts: np.ndarray, data: np.ndarray,
                             point_id: int, ef: int,
                             seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Visited-recording search over a padded (still-mutating) adjacency.

    ``offsets[u]`` is row u's start in the flattened int32 matrix
    ``flat`` and ``counts[u]`` its live length — the layout Vamana's
    fast path keeps in lockstep with the evolving ``Graph`` lists.
    """
    ctx.begin_query(data[point_id])
    unique_seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    vis_ids, vis_sq, ndc = _native.best_first_build(
        ctx, offsets, flat, counts, ctx.query64, ctx.query_sq,
        unique_seeds, ef,
    )
    counter.count += ndc
    return _finish_visited(vis_ids, vis_sq, point_id)


def select_rng(point: np.ndarray, candidate_ids: np.ndarray,
               candidate_dists: np.ndarray, data: np.ndarray,
               max_degree: int, counter: DistanceCounter | None = None,
               alpha: float = 1.0) -> np.ndarray:
    """``select_rng_heuristic`` with the occlusion scan in C.

    Computes the same float32 cross-distance matrix with NumPy, charges
    the same NDC, and hands the scan to the kernel, which replicates the
    comparison's IEEE semantics — selections are bit-identical.
    """
    candidates = np.asarray(candidate_ids, dtype=np.int64)
    if _native.LIB is None or len(candidates) == 0:
        return select_rng_heuristic(
            point, candidate_ids, candidate_dists, data, max_degree,
            counter=counter, alpha=alpha,
        )
    cross = pairwise_l2(data[candidates], data[candidates])
    if cross.dtype != np.float32 or not cross.flags["C_CONTIGUOUS"]:
        return select_rng_heuristic(
            point, candidate_ids, candidate_dists, data, max_degree,
            counter=counter, alpha=alpha,
        )
    if counter is not None:
        counter.count += len(candidates) * (len(candidates) - 1) // 2
    dists = np.ascontiguousarray(candidate_dists, dtype=np.float64)
    positions = _native.select_rng_scan(cross, dists, max_degree, alpha)
    return candidates[positions]
