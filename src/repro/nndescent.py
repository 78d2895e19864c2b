"""NN-Descent: approximate KNN-graph construction by neighbor propagation.

Dong et al.'s observation — *a neighbor of a neighbor is likely to be a
neighbor* — drives KGraph, EFANNA, DPG, NSG and NSSG initialization
(C1).  Each iteration replaces every point's neighbor list with the
best ``k`` among {current neighbors} ∪ {neighbors of neighbors} ∪
{sampled reverse neighbors}.

Implementation note (documented substitution): the classic formulation
performs *local joins* between pairs of neighbors with new/old flags;
that bookkeeping is pointer-chasing and prohibitively slow in pure
Python.  This module evaluates the same candidate pool per point with
batched NumPy distance kernels, which converges to the same fixpoint
(each point's list is already the best-of-pool, so any local-join
improvement is also found here) at a higher per-iteration NDC but far
lower wall-clock.  ``sample_rate`` caps the candidate pool exactly like
the classic ρ sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.distance import DistanceCounter

__all__ = ["NNDescentResult", "nn_descent"]


@dataclass
class NNDescentResult:
    """Approximate KNN lists plus convergence telemetry."""

    ids: np.ndarray          # (n, k) neighbor ids, ascending distance
    dists: np.ndarray        # (n, k) matching distances
    updates_per_iter: list[int] = field(default_factory=list)
    iterations_run: int = 0


def _reverse_sample(ids: np.ndarray, per_node: int, rng: np.random.Generator) -> np.ndarray:
    """Up to ``per_node`` reverse neighbors per node, -1 padded."""
    n, k = ids.shape
    sources = np.repeat(np.arange(n, dtype=np.int64), k)
    targets = ids.reshape(-1)
    order = np.argsort(targets, kind="stable")
    targets_sorted = targets[order]
    sources_sorted = sources[order]
    out = np.full((n, per_node), -1, dtype=np.int64)
    starts = np.searchsorted(targets_sorted, np.arange(n))
    stops = np.searchsorted(targets_sorted, np.arange(n) + 1)
    for v in range(n):
        lo, hi = starts[v], stops[v]
        count = hi - lo
        if count == 0:
            continue
        if count <= per_node:
            out[v, :count] = sources_sorted[lo:hi]
        else:
            pick = rng.choice(count, size=per_node, replace=False)
            out[v] = sources_sorted[lo + pick]
    return out


def nn_descent(
    data: np.ndarray,
    k: int,
    iterations: int = 8,
    counter: DistanceCounter | None = None,
    seed: int = 0,
    sample_rate: float = 1.0,
    initial_ids: np.ndarray | None = None,
    convergence_threshold: float = 0.001,
    chunk_rows: int | None = None,
    bctx=None,
) -> NNDescentResult:
    """Build an approximate KNN graph.

    Parameters mirror KGraph's knobs: ``k`` (K), ``iterations`` (iter),
    ``sample_rate`` (ρ / S+R sampling).  ``initial_ids`` lets EFANNA
    seed the lists from KD-tree ANNS instead of randomly (C1_EFANNA).
    Stops early when fewer than ``convergence_threshold * n * k``
    neighbor replacements happen in an iteration.

    With a multi-worker :class:`~repro.components.context.BuildContext`
    the Jacobi chunks of each iteration are evaluated in the build's worker
    pool; results are applied in chunk order, so the output matches the
    serial run bit-for-bit.  Sampling (``sample_rate < 1``) draws from
    the shared rng per chunk and therefore stays serial.
    """
    n, dim = data.shape
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    k = min(k, n - 1)
    if chunk_rows is None:
        # cap the (rows, pool, dim) temporaries at ~64 MB so that
        # high-dimensional data does not thrash memory
        pool_width = k * k + 2 * k
        chunk_rows = max(16, int(16_000_000 / max(pool_width * dim, 1)))
    rng = np.random.default_rng(seed)
    # with sample_rate >= 1 the pool never exceeds max_pool, so the
    # chunk computation is rng-free and safe to fan out
    executor = (
        bctx.pool() if bctx is not None and sample_rate >= 1.0 else None
    )

    if initial_ids is None:
        ids = np.empty((n, k), dtype=np.int64)
        for v in range(n):
            choice = rng.choice(n - 1, size=k, replace=False)
            choice[choice >= v] += 1  # skip self
            ids[v] = choice
    else:
        ids = _pad_initial(initial_ids, n, k, rng)

    dists = _rows_distances(data, ids, counter, chunk_rows, executor)
    order = np.argsort(dists, axis=1, kind="stable")
    ids = np.take_along_axis(ids, order, axis=1)
    dists = np.take_along_axis(dists, order, axis=1)

    result = NNDescentResult(ids=ids, dists=dists)
    max_pool = max(k + 1, int((k * k + 2 * k) * sample_rate))

    for _ in range(iterations):
        reverse = _reverse_sample(result.ids, per_node=k, rng=rng)
        updates = _iterate(
            data, result, reverse, max_pool, counter, rng, chunk_rows,
            executor,
        )
        result.updates_per_iter.append(updates)
        result.iterations_run += 1
        if updates < convergence_threshold * n * k:
            break
    return result


def _pad_initial(
    initial_ids: np.ndarray, n: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Normalise caller-provided initial lists to exactly (n, k)."""
    ids = np.asarray(initial_ids, dtype=np.int64)
    if ids.shape[0] != n:
        raise ValueError(f"initial_ids must have {n} rows, got {ids.shape[0]}")
    if ids.shape[1] >= k:
        return ids[:, :k].copy()
    pad = rng.integers(0, n, size=(n, k - ids.shape[1]))
    return np.concatenate([ids, pad], axis=1)


def _rows_distances(
    data: np.ndarray,
    ids: np.ndarray,
    counter: DistanceCounter | None,
    chunk_rows: int,
    executor=None,
) -> np.ndarray:
    """Distance from each point to each of its listed neighbors."""
    n, k = ids.shape
    out = np.empty((n, k), dtype=np.float64)

    def fill(start: int) -> None:
        stop = min(start + chunk_rows, n)
        block = data[ids[start:stop]] - data[start:stop, None, :]
        out[start:stop] = np.sqrt(np.einsum("ijk,ijk->ij", block, block))

    starts = range(0, n, chunk_rows)
    if executor is None:
        for start in starts:
            fill(start)
    else:
        list(executor.map(fill, starts))
    if counter is not None:
        counter.count += n * k
    return out


def _iterate_chunk(
    data: np.ndarray,
    ids: np.ndarray,
    reverse: np.ndarray,
    start: int,
    stop: int,
    max_pool: int,
    rng: np.random.Generator,
):
    """Candidate pooling + best-k for one Jacobi chunk of rows."""
    rows = stop - start
    k = ids.shape[1]
    own = ids[start:stop]                              # (rows, k)
    hop2 = ids[own].reshape(rows, k * k)               # neighbors of neighbors
    rev = reverse[start:stop]                          # (rows, k), -1 padded
    pool = np.concatenate([own, hop2, rev], axis=1)    # (rows, m)
    self_col = np.arange(start, stop)[:, None]
    pool = np.where(pool < 0, self_col, pool)          # -1 -> self (masked below)
    if pool.shape[1] > max_pool:
        cols = rng.choice(pool.shape[1] - k, size=max_pool - k, replace=False)
        pool = np.concatenate([own, pool[:, k + cols]], axis=1)
    # mask self and duplicates via row-wise sort
    sort_idx = np.argsort(pool, axis=1, kind="stable")
    sorted_pool = np.take_along_axis(pool, sort_idx, axis=1)
    dup = np.zeros_like(pool, dtype=bool)
    dup_sorted = np.zeros_like(pool, dtype=bool)
    dup_sorted[:, 1:] = sorted_pool[:, 1:] == sorted_pool[:, :-1]
    np.put_along_axis(dup, sort_idx, dup_sorted, axis=1)
    invalid = dup | (pool == self_col)

    diff = data[pool] - data[start:stop, None, :]
    dmat = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    ndc = int((~invalid).sum())
    dmat[invalid] = np.inf

    part = np.argpartition(dmat, k - 1, axis=1)[:, :k]
    part_d = np.take_along_axis(dmat, part, axis=1)
    order = np.argsort(part_d, axis=1, kind="stable")
    new_ids = np.take_along_axis(
        np.take_along_axis(pool, part, axis=1), order, axis=1
    )
    new_d = np.take_along_axis(part_d, order, axis=1)
    changed = int((new_ids != ids[start:stop]).sum())
    return new_ids, new_d, changed, ndc


def _iterate(
    data: np.ndarray,
    result: NNDescentResult,
    reverse: np.ndarray,
    max_pool: int,
    counter: DistanceCounter | None,
    rng: np.random.Generator,
    chunk_rows: int,
    executor=None,
) -> int:
    """One propagation round; returns the number of list replacements.

    Reads from a snapshot of the lists (Jacobi-style) so the outcome is
    independent of ``chunk_rows`` — and therefore reproducible across
    machines regardless of the memory-based auto chunking, and safe to
    evaluate chunk-parallel (callers only pass an executor when the
    rng-consuming sampling branch is provably dead).
    """
    n, k = result.ids.shape
    ids = result.ids.copy()
    starts = list(range(0, n, chunk_rows))

    def chunk(start: int):
        return _iterate_chunk(
            data, ids, reverse, start, min(start + chunk_rows, n),
            max_pool, rng,
        )

    outputs = executor.map(chunk, starts) if executor else map(chunk, starts)
    updates = 0
    for start, (new_ids, new_d, changed, ndc) in zip(starts, outputs):
        stop = start + len(new_ids)
        result.ids[start:stop] = new_ids
        result.dists[start:stop] = new_d
        updates += changed
        if counter is not None:
            counter.count += ndc
    return updates
