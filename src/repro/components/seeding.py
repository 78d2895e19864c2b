"""C4/C6 — seed preprocessing and acquisition.

C4 happens at build time (construct the auxiliary structure or fix the
entry vertices); C6 happens per query (produce the seed set S-hat of
Definition 4.3).  The two are interlocked — "after specifying C4, C6 is
also determined" (§5.4) — so a single :class:`SeedProvider` object
implements both: ``prepare`` is C4, ``acquire`` is C6.
"""

from __future__ import annotations

import numpy as np

from repro.distance import DistanceCounter, l2_batch
from repro.graphs.graph import Graph
from repro.hashing.lsh import RandomHyperplaneLSH
from repro.trees.kd_tree import KDTree
from repro.trees.kmeans_tree import BalancedKMeansTree
from repro.trees.vp_tree import VPTree

__all__ = [
    "SeedProvider",
    "RandomSeeds",
    "FixedSeeds",
    "CentroidSeeds",
    "KDTreeSeeds",
    "KDTreeDescendSeeds",
    "VPTreeSeeds",
    "KMeansTreeSeeds",
    "LSHSeeds",
    "provider_from_spec",
]


class SeedProvider:
    """Base class: C4 = :meth:`prepare`, C6 = :meth:`acquire`."""

    #: preprocessing bytes beyond the graph itself (Table 5 MO driver);
    #: measured from the actual auxiliary structure during :meth:`prepare`
    extra_bytes: int = 0

    def prepare(self, data: np.ndarray, graph: Graph) -> None:
        """Build whatever auxiliary structure C4 requires."""

    def acquire(
        self, query: np.ndarray, counter: DistanceCounter | None = None
    ) -> np.ndarray:
        """Return the seed ids for one query."""
        raise NotImplementedError

    def acquire_batch(
        self, queries: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Seed ids and per-query acquisition NDC for a whole batch.

        Returns ``(seed_lists, ndc)`` where ``seed_lists[i]`` is the
        int64 seed array for ``queries[i]`` and ``ndc[i]`` the distance
        computations its acquisition charged.  The default runs
        :meth:`acquire` per query **in query order** with a fresh
        counter each — exactly what a sequential ``index.search`` loop
        does, so stateful providers (RNG draws) stay
        bit-identical.  Providers whose acquisition is stateless or
        vectorizable without changing a single returned id override
        this (the batched query engine calls it once per batch).
        """
        ndc = np.zeros(len(queries), dtype=np.int64)
        lists: list[np.ndarray] = []
        for i, query in enumerate(queries):
            counter = DistanceCounter()
            lists.append(np.asarray(self.acquire(query, counter), dtype=np.int64))
            ndc[i] = counter.count
        return lists, ndc

    def permute(self, inverse: np.ndarray) -> None:
        """Remap stored vertex ids after a graph relabeling.

        ``inverse[old_id]`` is the new internal id.  Providers that
        rebuild their auxiliary structure in :meth:`prepare` (trees,
        hashes, centroid) need nothing here — ``reorder`` re-runs
        prepare right after; only providers holding literal vertex ids
        (:class:`FixedSeeds`) must translate them.
        """

    def spec(self) -> dict:
        """JSON-safe construction recipe (kind + parameters).

        ``provider_from_spec`` inverts this, so a persisted index can
        reconstruct the provider — including its stochastic state — by
        calling :meth:`prepare` on the loaded data, instead of freezing
        a snapshot of seeds at save time.
        """
        raise NotImplementedError


class RandomSeeds(SeedProvider):
    """KGraph/FANNG/NSW/DPG: random entries, no preprocessing."""

    def __init__(self, count: int = 8, seed: int = 0):
        self.count = count
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._n = 0

    def prepare(self, data: np.ndarray, graph: Graph) -> None:
        self._n = len(data)

    def acquire(self, query, counter=None) -> np.ndarray:
        return self._rng.integers(0, self._n, size=min(self.count, self._n))

    def acquire_batch(self, queries):
        # one vectorized draw: the bit generator consumes the stream
        # per element exactly as `len(queries)` successive size-`count`
        # calls would, so the ids match the sequential loop's draws
        size = min(self.count, self._n)
        block = self._rng.integers(0, self._n, size=(len(queries), size))
        return (
            [np.asarray(row, dtype=np.int64) for row in block],
            np.zeros(len(queries), dtype=np.int64),
        )

    def spec(self) -> dict:
        return {"kind": "random", "count": self.count, "seed": self.seed}


class FixedSeeds(SeedProvider):
    """Entries fixed at build time, e.g. a loaded HNSW's top entry.

    A built HNSW descends from that entry with ``TopLayerSeeds``.
    """

    def __init__(self, seed_ids: np.ndarray):
        self._ids = np.asarray(seed_ids, dtype=np.int64)

    def acquire(self, query, counter=None) -> np.ndarray:
        return self._ids

    def acquire_batch(self, queries):
        return (
            [self._ids] * len(queries),
            np.zeros(len(queries), dtype=np.int64),
        )

    def permute(self, inverse: np.ndarray) -> None:
        self._ids = inverse[self._ids]

    def spec(self) -> dict:
        return {"kind": "fixed", "ids": [int(i) for i in self._ids]}


class CentroidSeeds(SeedProvider):
    """NSG/Vamana: the approximate medoid of S as the single entry."""

    def __init__(self) -> None:
        self._medoid = 0

    def prepare(self, data: np.ndarray, graph: Graph) -> None:
        mean = data.mean(axis=0)
        self._medoid = int(np.argmin(l2_batch(mean, data)))

    @property
    def medoid(self) -> int:
        return self._medoid

    def acquire(self, query, counter=None) -> np.ndarray:
        return np.asarray([self._medoid], dtype=np.int64)

    def acquire_batch(self, queries):
        entry = np.asarray([self._medoid], dtype=np.int64)
        return [entry] * len(queries), np.zeros(len(queries), dtype=np.int64)

    def spec(self) -> dict:
        return {"kind": "centroid"}


class KDTreeSeeds(SeedProvider):
    """EFANNA/SPTAG-KDT: ANNS over randomized KD-trees (pays NDC)."""

    def __init__(self, num_trees: int = 4, count: int = 8, seed: int = 0):
        self.num_trees = num_trees
        self.count = count
        self.seed = seed
        self._trees: list[KDTree] = []

    def prepare(self, data: np.ndarray, graph: Graph) -> None:
        self._trees = [
            KDTree(data, seed=self.seed + t) for t in range(self.num_trees)
        ]
        self.extra_bytes = sum(tree.nbytes() for tree in self._trees)

    def acquire(self, query, counter=None) -> np.ndarray:
        per_tree = max(1, self.count // len(self._trees))
        found = [
            tree.search(query, per_tree, counter=counter, max_leaves=2)
            for tree in self._trees
        ]
        return np.unique(np.concatenate(found))[: self.count]

    def spec(self) -> dict:
        return {
            "kind": "kdtree",
            "num_trees": self.num_trees,
            "count": self.count,
            "seed": self.seed,
        }


class KDTreeDescendSeeds(SeedProvider):
    """HCNNG: descend KD-trees by value comparison only — zero NDC.

    The §5.4 C4 discussion singles this out: better than NGT/BKT seeds
    because locating the bucket costs no distance computations.
    """

    def __init__(self, num_trees: int = 3, count: int = 8, seed: int = 0):
        self.num_trees = num_trees
        self.count = count
        self.seed = seed
        self._trees: list[KDTree] = []
        self._rng = np.random.default_rng(seed)

    def prepare(self, data: np.ndarray, graph: Graph) -> None:
        self._trees = [
            KDTree(data, seed=self.seed + t) for t in range(self.num_trees)
        ]
        self.extra_bytes = sum(tree.nbytes() for tree in self._trees)

    def acquire(self, query, counter=None) -> np.ndarray:
        buckets = [tree.descend(query) for tree in self._trees]
        pool = np.unique(np.concatenate(buckets))
        if len(pool) <= self.count:
            return pool
        return self._rng.choice(pool, size=self.count, replace=False)

    def spec(self) -> dict:
        return {
            "kind": "kdtree-descend",
            "num_trees": self.num_trees,
            "count": self.count,
            "seed": self.seed,
        }


class VPTreeSeeds(SeedProvider):
    """NGT: vantage-point-tree entry (distance computations charged)."""

    def __init__(self, count: int = 4, seed: int = 0):
        self.count = count
        self.seed = seed
        self._tree: VPTree | None = None

    def prepare(self, data: np.ndarray, graph: Graph) -> None:
        self._tree = VPTree(data, seed=self.seed)
        self.extra_bytes = self._tree.nbytes()

    def acquire(self, query, counter=None) -> np.ndarray:
        return self._tree.search(query, self.count, counter=counter, max_nodes=24)

    def spec(self) -> dict:
        return {"kind": "vptree", "count": self.count, "seed": self.seed}


class KMeansTreeSeeds(SeedProvider):
    """SPTAG-BKT: balanced k-means tree entry."""

    def __init__(self, count: int = 8, seed: int = 0):
        self.count = count
        self.seed = seed
        self._tree: BalancedKMeansTree | None = None

    def prepare(self, data: np.ndarray, graph: Graph) -> None:
        self._tree = BalancedKMeansTree(data, seed=self.seed)
        self.extra_bytes = self._tree.nbytes()

    def acquire(self, query, counter=None) -> np.ndarray:
        return self._tree.search(query, self.count, counter=counter)

    def spec(self) -> dict:
        return {"kind": "kmeans-tree", "count": self.count, "seed": self.seed}


class LSHSeeds(SeedProvider):
    """IEH: hash-bucket entries — the best C4 in the study (§5.4)."""

    def __init__(self, count: int = 8, seed: int = 0):
        self.count = count
        self.seed = seed
        self._lsh: RandomHyperplaneLSH | None = None

    def prepare(self, data: np.ndarray, graph: Graph) -> None:
        self._lsh = RandomHyperplaneLSH(data, seed=self.seed)
        self.extra_bytes = self._lsh.nbytes()

    def acquire(self, query, counter=None) -> np.ndarray:
        return self._lsh.search(query, self.count, counter=counter)

    def spec(self) -> dict:
        return {"kind": "lsh", "count": self.count, "seed": self.seed}


def _pq_from_spec(spec: dict) -> SeedProvider:
    # deferred import: quantization imports this module for SeedProvider
    from repro.quantization import PQSeeds

    return PQSeeds(
        count=spec["count"],
        num_subspaces=spec["num_subspaces"],
        codebook_size=spec["codebook_size"],
        seed=spec["seed"],
    )


_SPEC_KINDS = {
    "random": lambda s: RandomSeeds(count=s["count"], seed=s["seed"]),
    "fixed": lambda s: FixedSeeds(np.asarray(s["ids"], dtype=np.int64)),
    "centroid": lambda s: CentroidSeeds(),
    "kdtree": lambda s: KDTreeSeeds(
        num_trees=s["num_trees"], count=s["count"], seed=s["seed"]
    ),
    "kdtree-descend": lambda s: KDTreeDescendSeeds(
        num_trees=s["num_trees"], count=s["count"], seed=s["seed"]
    ),
    "vptree": lambda s: VPTreeSeeds(count=s["count"], seed=s["seed"]),
    "kmeans-tree": lambda s: KMeansTreeSeeds(count=s["count"], seed=s["seed"]),
    "lsh": lambda s: LSHSeeds(count=s["count"], seed=s["seed"]),
    "pq": _pq_from_spec,
}


def provider_from_spec(spec: dict) -> SeedProvider:
    """Reconstruct a provider from its :meth:`SeedProvider.spec` recipe."""
    kind = spec.get("kind")
    if kind not in _SPEC_KINDS:
        raise ValueError(f"unknown seed-provider kind {kind!r}")
    return _SPEC_KINDS[kind](spec)
