"""Record pinned search-output hashes for the routing regression test.

Builds every registry algorithm, k-DR with range-search routing, the
§5.4 framework with each C7 choice, three sharded NSG indexes (one
shard; four shards at fan-out 2, plain and under an NDC budget) and eight
variants that finish queries differently (PQ re-rank on the fused and
the per-query path and under HNSW's layered descent; a delta tier with
tombstones, plain and under an NDC budget; SPTAG-KDT under an NDC
budget) on the pinned dataset of ``scripts/gen_build_hashes.py``,
answers a fixed query set once through a sequential ``search()`` loop
and once through
``search_batch()``, and writes a ``{mode: {config: {"search": {...}, "batch": {...}}}}`` map of
sha256 digests (ids, dists, per-query NDC, per-query hops) to
``tests/data/search_hashes.json``.  The plain delta variants also pin
the side-graph the inserts built (``"delta"``: the digests of
``DeltaTier.export_state()``'s indptr, neighbors and tombstones).
Three wrappers that walk a built index their own way — ML1's
embedding-guided routing over NSG, ML2's learned stop hop over HNSW
(fitted on a held-out query set) and the attribute filter over HNSW
(a ~50 % predicate and a selective one that hits the hop cap) — have
no batch form and pin their ``search()`` loop only.
Run once per mode::

    PYTHONPATH=src python scripts/gen_search_hashes.py
    REPRO_NO_NATIVE=1 PYTHONPATH=src python scripts/gen_search_hashes.py

The hashes pin the C7 routing of every algorithm, the compressed
re-rank, the two-tier delta merge and the scatter–gather of the sharded
front: a refactor of any of them must keep them stable.  Like the build hashes they are
BLAS-rounding-sensitive (the native kernel and NumPy differ in the last
ulp of a distance), hence the per-mode tables.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import _native  # noqa: E402
from repro.algorithms.registry import ALGORITHMS, create  # noqa: E402
from repro.extensions import AttributeFilteredIndex  # noqa: E402
from repro.ml import ML1LearnedRouting, ML2EarlyTermination  # noqa: E402
from repro.pipeline.framework import C7_CHOICES, BenchmarkAlgorithm  # noqa: E402
from repro.resilience import QueryBudget  # noqa: E402
from repro.sharding import ShardedIndex  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "search_hashes.json"

#: the build-hash dataset, plus a fixed query set drawn beside it
DATASET_N, DATASET_D, DATASET_SEED = 300, 24, 7
QUERY_COUNT, QUERY_SEED = 30, 8
K, EF = 10, 40

#: sharded configs: name -> (num_shards, fanout, max_ndc of the budget)
SHARDED = {
    "sharded-s1": (1, None, None),
    "sharded-s4-p2": (4, 2, None),
    "sharded-s4-p2-ndc": (4, 2, 80),
}

#: finishing variants: name -> (algorithm, compressed, delta, max_ndc).
#: "-pq" searches on the ADC tier (NSG fuses natively, HCNNG's guided
#: route stays per-query, HNSW descends its upper layers first);
#: "-delta" inserts DELTA_INSERTS points and tombstones two base points
#: and one delta point; "-ndc" caps every query's NDC (SPTAG-KDT's cap
#: cuts some queries inside the walk and lets others finish it)
VARIANTS = {
    "nsg-pq": ("nsg", True, False, None),
    "hcnng-pq": ("hcnng", True, False, None),
    "hnsw-pq": ("hnsw", True, False, None),
    "nsg-delta": ("nsg", False, True, None),
    "hcnng-delta": ("hcnng", False, True, None),
    "ieh-delta": ("ieh", False, True, None),
    "nsg-delta-ndc": ("nsg", False, True, 250),
    "sptag-kdt-ndc": ("sptag-kdt", False, False, 240),
}
DELTA_INSERTS, DELTA_SEED = 40, 9
BASE_TOMBSTONES = (3, 17)
DELTA_TOMBSTONE = 5   # the sixth inserted point
#: variants whose delta side-graph is pinned as well as their answers
DELTA_GRAPHS = ("nsg-delta", "hcnng-delta", "ieh-delta")

#: wrapper configs (search() loop only): ML1 over NSG, ML2 over HNSW
#: fitted on ML2_TRAIN held-out queries, the attribute filter over HNSW
#: with one record per vertex and the FILTERS predicates
WRAPPERS = ("ml1", "ml2", "filtered")
ML2_TRAIN, ML2_TRAIN_SEED = 20, 10
ATTRIBUTE_SEED = 11
FILTERS = (
    lambda record: record < 50,   # about half the vertices
    lambda record: record < 2,    # selective: the walk hits its hop cap
)

CONFIGS = (
    sorted(ALGORITHMS) + ["kdr-rs"] + [f"framework-{c7}" for c7 in C7_CHOICES]
    + sorted(SHARDED) + sorted(VARIANTS) + list(WRAPPERS)
)


def pinned_dataset() -> np.ndarray:
    rng = np.random.default_rng(DATASET_SEED)
    return rng.standard_normal((DATASET_N, DATASET_D)).astype(np.float32)


def pinned_queries() -> np.ndarray:
    rng = np.random.default_rng(QUERY_SEED)
    return rng.standard_normal((QUERY_COUNT, DATASET_D)).astype(np.float32)


def make_config(config: str):
    if config in VARIANTS:
        return create(VARIANTS[config][0], seed=0)
    if config == "kdr-rs":
        return create("kdr", seed=0, routing="rs")
    if config.startswith("framework-"):
        return BenchmarkAlgorithm(seed=0, c7=config.removeprefix("framework-"))
    return create(config, seed=0)


def churn(index) -> None:
    """Insert the pinned delta points, then tombstone two base points
    and one delta point."""
    index.auto_consolidate = False
    rng = np.random.default_rng(DELTA_SEED)
    for vector in rng.standard_normal((DELTA_INSERTS, DATASET_D)):
        index.insert(vector.astype(np.float32))
    for vertex in BASE_TOMBSTONES + (DATASET_N + DELTA_TOMBSTONE,):
        index.delete(vertex)


def sha256s(arrays: dict[str, np.ndarray]) -> dict[str, str]:
    return {
        key: hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()
        for key, arr in arrays.items()
    }


def digest(ids, dists, ndc, hops) -> dict[str, str]:
    return sha256s({
        "ids": np.asarray(ids, dtype=np.int64),
        "dists": np.asarray(dists, dtype=np.float64),
        "ndc": np.asarray(ndc, dtype=np.int64),
        "hops": np.asarray(hops, dtype=np.int64),
    })


def delta_digest(index) -> dict[str, str]:
    """Hashes of the delta side-graph the pinned inserts built."""
    _, indptr, neighbors, deleted, _ = index._delta.export_state()
    return sha256s({
        "indptr": np.asarray(indptr, dtype=np.int64),
        "neighbors": np.asarray(neighbors, dtype=np.int32),
        "deleted": np.asarray(deleted, dtype=bool),
    })


def loop_digest(search, queries) -> dict[str, str]:
    """Hashes of ``search(query)`` called once per query, in order."""
    ids = np.full((len(queries), K), -1, dtype=np.int64)
    dists = np.full((len(queries), K), np.inf)
    ndc, hops = [], []
    for i, query in enumerate(queries):
        result = search(query)
        ids[i, : len(result.ids)] = result.ids
        dists[i, : len(result.dists)] = result.dists
        ndc.append(result.ndc)
        hops.append(result.hops)
    return digest(ids, dists, ndc, hops)


def sharded_outputs(config: str) -> dict[str, dict[str, str]]:
    """Hashes of a sharded NSG index's ``search()`` loop and
    ``search_batch()``, at the config's fan-out and budget."""
    num_shards, fanout, max_ndc = SHARDED[config]
    index = ShardedIndex.build(pinned_dataset(), num_shards=num_shards,
                               algorithm="nsg", seed=0)
    budget = None if max_ndc is None else QueryBudget(max_ndc=max_ndc)
    queries = pinned_queries()
    single = loop_digest(
        lambda q: index.search(q, k=K, ef=EF, fanout=fanout, budget=budget),
        queries,
    )
    batch = index.search_batch(queries, k=K, ef=EF, fanout=fanout,
                               budget=budget)
    return {
        "search": single,
        "batch": digest(batch.ids, batch.dists, batch.ndc, batch.hops),
    }


def wrapper_outputs(config: str) -> dict[str, dict[str, str]]:
    """Hashes of one wrapper's ``search()`` loop over the pinned queries
    (the filter runs the loop once per predicate, in order)."""
    data, queries = pinned_dataset(), pinned_queries()
    index = create("nsg" if config == "ml1" else "hnsw", seed=0)
    index.build(data)
    if config == "ml1":
        wrapper = ML1LearnedRouting(index, epochs=5, seed=0).fit()
        return {"search": loop_digest(
            lambda q: wrapper.search(q, k=K, ef=EF), queries)}
    if config == "ml2":
        train = np.random.default_rng(ML2_TRAIN_SEED).standard_normal(
            (ML2_TRAIN, DATASET_D)).astype(np.float32)
        wrapper = ML2EarlyTermination(index, seed=0).fit(train, ef=EF, k=K)
        return {"search": loop_digest(
            lambda q: wrapper.search(q, k=K, ef=EF), queries)}
    records = np.random.default_rng(ATTRIBUTE_SEED).integers(
        0, 100, DATASET_N).tolist()
    wrapper = AttributeFilteredIndex(index, records)
    pairs = [(query, keep) for keep in FILTERS for query in queries]
    return {"search": loop_digest(
        lambda pair: wrapper.search(pair[0], pair[1], k=K, ef=EF), pairs)}


def search_outputs(config: str) -> dict[str, dict[str, str]]:
    """Hashes of one config's ``search()`` loop and ``search_batch()``.

    Both runs start from the same seed-provider state, so stateful
    random seeders draw identical seeds in each.
    """
    if config in SHARDED:
        return sharded_outputs(config)
    if config in WRAPPERS:
        return wrapper_outputs(config)
    index = make_config(config)
    index.build(pinned_dataset())
    _, compressed, delta, max_ndc = VARIANTS.get(config, (config, False, False, None))
    if compressed:
        index.enable_compressed()
    if delta:
        churn(index)
    options = dict(
        k=K, ef=EF, compressed=compressed,
        budget=None if max_ndc is None else QueryBudget(max_ndc=max_ndc),
    )
    queries = pinned_queries()
    provider = copy.deepcopy(index.seed_provider)
    single = loop_digest(lambda q: index.search(q, **options), queries)
    index.seed_provider = provider
    batch = index.search_batch(queries, **options)
    outputs = {
        "search": single,
        "batch": digest(batch.ids, batch.dists, batch.ndc, batch.hops),
    }
    if config in DELTA_GRAPHS:
        outputs["delta"] = delta_digest(index)
    return outputs


def main() -> None:
    mode = "no_native" if os.environ.get("REPRO_NO_NATIVE") else "native"
    if mode == "native" and _native.LIB is None:
        raise SystemExit("native mode requested but the kernel failed to load")
    recorded = json.loads(OUT.read_text()) if OUT.exists() else {}
    recorded[mode] = {}
    for config in CONFIGS:
        recorded[mode][config] = search_outputs(config)
        print(f"{config:18s} {recorded[mode][config]['search']['ids'][:16]}")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {mode} hashes to {OUT}")


if __name__ == "__main__":
    main()
