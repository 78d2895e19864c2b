"""Deployment helpers: scenario advice, hybrid queries, storage modelling.

Three tools built on the survey's §6 discussion:

1. the Table 7 advisor recommends algorithms from data characteristics;
2. attribute-filtered search answers hybrid vector+predicate queries
   (the "structured attribute constraints" tendency);
3. the I/O cost model replays Table 7's external-memory argument:
   query path length ≈ I/O count, so low-PL indexes win on disk.

Run:  python examples/hybrid_queries_and_deployment.py
"""

import numpy as np

from repro import create, load_dataset
from repro.advisor import profile_dataset, recommend_for_data
from repro.extensions import AttributeFilteredIndex, DiskIOModel
from repro.extensions.io_model import StorageProfile

dataset = load_dataset("sift1m", cardinality=2000, num_queries=20)

# 1. ask the advisor -------------------------------------------------------
profile = profile_dataset(dataset.base)
picks = recommend_for_data(dataset.base)
print(
    f"profile: n={profile.cardinality} dim={profile.dim} "
    f"LID={profile.lid:.1f} ({'hard' if profile.is_hard else 'simple'})"
)
print(f"Table 7 recommends: {', '.join(picks)}\n")

index = create(picks[0], seed=0)
index.build(dataset.base)

# 2. hybrid query: nearest red items under a price cap ---------------------
rng = np.random.default_rng(0)
attributes = [
    {"color": ("red" if flag else "blue"), "price": int(price)}
    for flag, price in zip(
        rng.random(dataset.n) < 0.5, rng.integers(1, 100, dataset.n)
    )
]
hybrid = AttributeFilteredIndex(index, attributes)
result = hybrid.search(
    dataset.queries[0],
    lambda a: a["color"] == "red" and a["price"] < 50,
    k=5,
    ef=60,
)
print("hybrid query (red, price < 50):")
for idx, dist in zip(result.ids, result.dists):
    print(f"  id={int(idx):5d} dist={dist:7.3f} attrs={attributes[int(idx)]}")

# 3. storage modelling ------------------------------------------------------
print("\nmodelled per-query latency by storage tier:")
stats = index.evaluate(dataset.queries, dataset.ground_truth, k=10, ef=60)
for profile_cls in (StorageProfile.ram, StorageProfile.ssd, StorageProfile.hdd):
    storage = profile_cls()
    estimate = DiskIOModel(storage).estimate(stats)
    print(
        f"  {storage.name:3s}: {estimate.latency_s * 1000:8.3f} ms "
        f"({estimate.io_count:.0f} I/Os, {estimate.ndc:.0f} distance evals)"
    )
print("\nOn disk, hops dominate: that is why Table 7's S3 row favours")
print("low-path-length indexes like DPG and HCNNG.")
