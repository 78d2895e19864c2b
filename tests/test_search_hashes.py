"""Pinned search outputs: every C7 route, the compressed re-rank, the
delta merge and the sharded front, single and batched.

``tests/data/search_hashes.json`` holds, per mode, the sha256 of the
ids, distances, per-query NDC and per-query hops that a sequential
``search()`` loop and a ``search_batch()`` call return for every
registry algorithm, k-DR with range-search routing, the framework with
each C7 choice, three sharded NSG indexes (S=1; S=4 at fan-out 2,
plain and NDC-budgeted) and eight finishing variants (PQ re-rank, fused,
per-query and under HNSW's descent; a delta tier with tombstones, plain
and NDC-budgeted; NDC-budgeted SPTAG-KDT)
return (``scripts/gen_search_hashes.py`` regenerates it).  The plain
delta variants also pin the side-graph their inserts built (the
indptr, neighbors and tombstones of ``DeltaTier.export_state()``).
Three wrappers with no batch form pin their ``search()`` loop only:
ML1 over NSG, ML2 over HNSW and the attribute filter over HNSW.
Matching it proves a routing, finishing or scatter–gather refactor changed no bit
of any output, on the serial kernel, the fused batch kernel or the
Python frontier.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro import _native

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "gen_search_hashes", _ROOT / "scripts" / "gen_search_hashes.py"
)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

MODE = "no_native" if _native.LIB is None else "native"
PINNED = json.loads((_ROOT / "tests" / "data" / "search_hashes.json").read_text())[MODE]


def test_every_config_is_pinned():
    assert sorted(PINNED) == sorted(gen.CONFIGS)


@pytest.mark.parametrize("config", gen.CONFIGS)
def test_search_outputs_match_pinned(config):
    assert gen.search_outputs(config) == PINNED[config]
