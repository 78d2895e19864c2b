"""Record pinned adjacency hashes for the build-determinism regression test.

Builds every registry algorithm, the §5.4 framework default
(``framework``) and every framework C2 x C3 pairing (``framework[c2|c3]``,
other components at their defaults) on the small fixed synthetic dataset
used by ``tests/test_build_engine.py`` and writes a
``{mode: {algorithm: {"adjacency": sha256, "ndc": int}}}`` map to
``tests/data/build_hashes.json``.  Run once per *reference* machine per
mode::

    PYTHONPATH=src python scripts/gen_build_hashes.py
    REPRO_NO_NATIVE=1 PYTHONPATH=src python scripts/gen_build_hashes.py

The hashes pin the construction output at ``n_workers=1`` (the test
also checks that four workers give the same bits): any refactor of the
build layer must keep them stable at the same seed.  They are
BLAS-rounding-sensitive, so they hold on machines whose NumPy produces
bit-identical float32 matmuls (in practice: same NumPy wheel family);
the cross-``n_workers`` equality tests are machine-independent and run
everywhere.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import _native  # noqa: E402
from repro.algorithms.registry import ALGORITHMS, create  # noqa: E402
from repro.pipeline.framework import (  # noqa: E402
    C2_CHOICES,
    C3_CHOICES,
    BenchmarkAlgorithm,
)

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "build_hashes.json"

#: the dataset every determinism test builds on
DATASET_N, DATASET_D, DATASET_SEED = 300, 24, 7


def pinned_dataset() -> np.ndarray:
    rng = np.random.default_rng(DATASET_SEED)
    return rng.standard_normal((DATASET_N, DATASET_D)).astype(np.float32)


def adjacency_hash(graph) -> str:
    indptr, indices = graph.csr()
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(indptr).tobytes())
    digest.update(np.ascontiguousarray(indices).tobytes())
    return digest.hexdigest()


def framework_grid() -> dict[str, dict]:
    """Every C2 x C3 pairing of the framework, other components default."""
    return {
        f"framework[{c2}|{c3}]": {"c2": c2, "c3": c3}
        for c2 in C2_CHOICES for c3 in C3_CHOICES
    }


def build_all() -> dict[str, dict]:
    data = pinned_dataset()
    builders = {name: (lambda name=name: create(name, seed=0))
                for name in sorted(ALGORITHMS)}
    builders["framework"] = lambda: BenchmarkAlgorithm(seed=0)
    for key, choice in framework_grid().items():
        builders[key] = lambda choice=choice: BenchmarkAlgorithm(
            seed=0, **choice
        )
    out: dict[str, dict] = {}
    for name, make in builders.items():
        algo = make()
        report = algo.build(data)
        out[name] = {
            "adjacency": adjacency_hash(algo.graph),
            "ndc": int(report.build_ndc),
        }
        print(f"{name:24s} {out[name]['adjacency'][:16]} ndc={out[name]['ndc']}")
    return out


def main() -> None:
    mode = "no_native" if os.environ.get("REPRO_NO_NATIVE") else "native"
    if mode == "native" and _native.LIB is None:
        raise SystemExit("native mode requested but the kernel failed to load")
    recorded = {}
    if OUT.exists():
        recorded = json.loads(OUT.read_text())
    recorded[mode] = build_all()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {mode} hashes to {OUT}")


if __name__ == "__main__":
    main()
