"""Collect benchmarks/results/*.txt into EXPERIMENTS.md.

Run after a full benchmark pass:

    python benchmarks/collect_results.py

Replaces everything below the ``MEASURED_RESULTS`` marker in
EXPERIMENTS.md with the recorded tables.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.observability.slog import get_logger  # noqa: E402

log = get_logger("repro.bench.collect")

MARKER = "<!-- MEASURED_RESULTS -->"
ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

# the order experiments appear in the paper
ORDER = [
    "fig5_construction_time",
    "fig6_index_size",
    "table4_graph_stats",
    "fig7_qps_recall",
    "fig8_speedup_recall",
    "table5_search_stats",
    "fig9_ml_optimizations",
    "fig10_components",
    "fig11_optimized_algorithm",
    "table7_recommendations",
    "table11_degrees",
    "table12_scalability",
    "fig14_complexity",
    "fig15_iterations",
    "table16_kdr_vs_ngt",
    "table23_randomness",
    "ablations",
    "observability_overhead",
]


def main() -> None:
    experiments = ROOT / "EXPERIMENTS.md"
    text = experiments.read_text()
    if MARKER not in text:
        raise SystemExit(f"marker {MARKER!r} missing from EXPERIMENTS.md")
    head = text.split(MARKER)[0] + MARKER + "\n"
    chunks = []
    missing = []
    for name in ORDER:
        path = RESULTS / f"{name}.txt"
        if not path.exists():
            missing.append(name)
            chunks.append(f"\n*(no recorded run for `{name}`)*\n")
            continue
        chunks.append("\n```\n" + path.read_text().rstrip() + "\n```\n")
    experiments.write_text(head + "".join(chunks))
    if missing:
        log.warning("collect.missing_results", count=len(missing),
                    experiments=",".join(missing))
    log.echo(
        f"embedded {len(chunks)} result tables into EXPERIMENTS.md",
        event="collect.done", tables=len(chunks), missing=len(missing),
    )


if __name__ == "__main__":
    main()
