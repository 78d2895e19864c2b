"""Distance kernels with exact distance-computation accounting.

The survey's hardware-independent efficiency metric is *Speedup* =
``|S| / NDC``, where NDC is the number of distance computations an
algorithm performs for one query (§5.1 of the paper).  Every distance
evaluated anywhere in this library therefore flows through a
:class:`DistanceCounter`, which counts one unit per vector pair whether
the evaluation happened singly or as part of a vectorised batch.

All kernels operate on ``float32``/``float64`` NumPy arrays and return
true (not squared) Euclidean distances so that scale-sensitive rules —
e.g. Vamana's ``alpha * delta(x, y) > delta(y, p)`` — behave exactly as
the paper describes.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = [
    "l2",
    "l2_batch",
    "pairwise_l2",
    "squared_norms",
    "invalidate_norms",
    "sq_dists_to_rows",
    "DistanceCounter",
]


def l2(x: np.ndarray, y: np.ndarray) -> float:
    """Euclidean distance between two vectors (Equation 1 of the paper)."""
    diff = x - y
    return float(np.sqrt(np.dot(diff, diff)))


def l2_batch(query: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distances from one query to each row of ``points``."""
    diff = points - query
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def pairwise_l2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense ``(len(a), len(b))`` Euclidean distance matrix.

    Uses the expanded form ``|a|^2 - 2ab + |b|^2`` which is much faster
    than explicit differences for large blocks; negative rounding
    artefacts are clamped before the square root.
    """
    a_sq = np.einsum("ij,ij->i", a, a)[:, None]
    b_sq = np.einsum("ij,ij->i", b, b)[None, :]
    sq = a_sq - 2.0 * (a @ b.T) + b_sq
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


# -- norm cache -------------------------------------------------------
#
# The routing hot path evaluates distances with the expanded form
# ``|q|^2 - 2 q.x + |x|^2`` against cached per-row squared norms, which
# avoids materializing a ``points - query`` difference matrix on every
# expansion.  The cache is keyed by array identity and evicted when the
# data array is garbage-collected, so every search path (sequential,
# context-reuse, batched) slices the *same* norm array and
# produces bit-identical distances.

_NORM_CACHE: dict[int, tuple[weakref.ref, np.ndarray]] = {}


def squared_norms(points: np.ndarray) -> np.ndarray:
    """Cached float64 squared norms of every row of ``points``."""
    key = id(points)
    entry = _NORM_CACHE.get(key)
    if entry is not None and entry[0]() is points:
        return entry[1]
    norms = np.einsum("ij,ij->i", points, points, dtype=np.float64)
    try:
        ref = weakref.ref(points, lambda _unused, k=key: _NORM_CACHE.pop(k, None))
    except TypeError:  # pragma: no cover - non-weakrefable array subclass
        return norms
    _NORM_CACHE[key] = (ref, norms)
    return norms


def invalidate_norms(points: np.ndarray) -> None:
    """Drop the cached squared norms of ``points``.

    Required after mutating a data array in place (integrity repair
    zeroes non-finite rows): the cache is keyed by array identity, so
    without eviction every later search would keep using norms of the
    pre-repair contents.
    """
    _NORM_CACHE.pop(id(points), None)


def sq_dists_to_rows(
    query64: np.ndarray,
    rows: np.ndarray,
    rows_sq: np.ndarray,
    query_sq: float,
) -> np.ndarray:
    """Squared distances from a float64 query to gathered float32 rows.

    The single kernel every routing path funnels through: the native
    extension (``repro._native``) provides a drop-in C version whose
    summation order matches its in-kernel search, keeping the Python
    frontier and the native best-first kernels mutually bit-identical.
    """
    from repro import _native

    if _native.LIB is not None and rows.dtype == np.float32:
        return _native.sq_dists_to_rows(query64, rows, rows_sq, query_sq)
    dot = np.einsum("ij,j->i", rows, query64, dtype=np.float64)
    sq = query_sq - 2.0 * dot
    sq += rows_sq
    np.maximum(sq, 0.0, out=sq)
    return sq


class DistanceCounter:
    """Counts every vector-pair distance evaluation.

    Instances are cheap; builders and searchers create one per phase so
    construction cost and per-query NDC can be reported separately.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def reset(self) -> None:
        """Zero the counter (e.g. between construction and search)."""
        self.count = 0

    def pair(self, x: np.ndarray, y: np.ndarray) -> float:
        """Distance between two vectors; counts one evaluation."""
        self.count += 1
        return l2(x, y)

    def one_to_many(self, query: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Distances from ``query`` to each row; counts ``len(points)``."""
        self.count += len(points)
        return l2_batch(query, points)

    def many_to_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Full distance matrix; counts ``len(a) * len(b)``."""
        self.count += len(a) * len(b)
        return pairwise_l2(a, b)
