"""Quickstart: build a graph index, search it, measure recall.

Run:  python examples/quickstart.py
"""

from repro import create, load_dataset
from repro.metrics import recall_at_k

# A scaled-down stand-in for SIFT1M (128-d image descriptors).
dataset = load_dataset("sift1m", cardinality=2000, num_queries=20)
print(f"dataset: {dataset.name}  n={dataset.n}  dim={dataset.dim}")

# Build an HNSW index -- any name from repro.ALGORITHMS works here.
index = create("hnsw", m=10, ef_construction=40, seed=0)
report = index.build(dataset.base)
print(
    f"built in {report.build_time_s:.2f}s, "
    f"index size {report.index_size_bytes / 1024:.0f} KiB, "
    f"avg out-degree {index.graph.average_out_degree:.1f}"
)

# Search: ef is the candidate-set size, the accuracy/speed knob.
query = dataset.queries[0]
result = index.search(query, k=10, ef=60)
print(f"top-10 ids: {result.ids.tolist()}")
print(f"distance computations for this query: {result.ndc} of {dataset.n}")
print(f"recall@10: {recall_at_k(result.ids, dataset.ground_truth[0], 10):.2f}")

# Batch evaluation over all queries.
stats = index.evaluate(dataset.queries, dataset.ground_truth, k=10, ef=60)
print(
    f"batch: recall={stats.recall:.3f}  QPS={stats.qps:.0f}  "
    f"speedup over linear scan={stats.speedup:.0f}x"
)
