"""Component lab: assemble your own ANNS algorithm from C1-C7 parts.

The survey's central tool is a unified pipeline where each fine-grained
component can be swapped independently (§5.4).  This example builds the
Table 13 benchmark algorithm, then swaps the neighbor-selection rule
(C3) and the routing strategy (C7) one at a time, reproducing a slice
of Figure 10 on your machine.

Run:  python examples/component_lab.py
"""

from repro import load_dataset
from repro.pipeline import BENCHMARK_DEFAULTS, BenchmarkAlgorithm

dataset = load_dataset("sift1m", cardinality=2000, num_queries=30)
print(f"benchmark defaults (Table 13): {BENCHMARK_DEFAULTS}\n")


def evaluate(label, **swap):
    algorithm = BenchmarkAlgorithm(**swap, seed=0)
    algorithm.build(dataset.base)
    stats = algorithm.evaluate(
        dataset.queries, dataset.ground_truth, k=10, ef=60
    )
    print(
        f"{label:22s} recall={stats.recall:.3f}  ndc={stats.mean_ndc:6.0f}  "
        f"AD={algorithm.graph.average_out_degree:5.1f}  "
        f"build={algorithm.build_report.build_time_s:5.2f}s"
    )


print("C3 (neighbor selection) swaps:")
evaluate("C3_HNSW (default)")
evaluate("C3_KGraph (dist only)", c3="kgraph")
evaluate("C3_DPG (angle sum)", c3="dpg")
evaluate("C3_NSSG (angle cut)", c3="nssg")

print("\nC7 (routing) swaps:")
evaluate("C7_NSW (best-first)")
evaluate("C7_NGT (range)", c7="ngt")
evaluate("C7_HCNNG (guided)", c7="hcnng")
evaluate("C7_FANNG (backtrack)", c7="fanng")

print(
    "\nDistribution-aware selection (C3_HNSW/DPG/NSSG) beats distance-only"
    "\nselection, and guided routing trades a little recall for fewer"
    "\ndistance computations — Figure 10(c)/(f) in miniature."
)
