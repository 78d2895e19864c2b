"""Write one golden index archive with the writer of the format's own release.

Each index format version v1-v5 is pinned by a tiny archive under
``tests/data/formats/``, written by the commit that introduced (or last
wrote) that format, so ``tests/test_io.py`` proves today's reader still
loads what old releases saved.  Run this script against a checkout of
the writer commit, not against the current tree::

    mkdir ../writer-v1 && git archive f738999 | tar -x -C ../writer-v1
    REPRO_NO_NATIVE=1 PYTHONPATH=../writer-v1/src \\
        python scripts/gen_format_archives.py 1 tests/data/formats

It saves ``v<N>.npz`` and prints a JSON record of sha256 digests of the
arrays the old writer stored; ``tests/data/formats/golden.json`` keeps
those records beside the writer commit of each archive, plus the
search hashes ``tests/test_io.py`` pinned on the archive's first load.

Writer commits and what each archive exercises:

* v1 ``f738999`` - no checksum, no seed recipe (loads as ``FixedSeeds``);
* v2 ``fed8793`` - checksum and seed recipe, no ``id_map``;
* v3 ``5265392`` - reordered, so ``id_map`` is stored;
* v4 ``7417c7b`` - the compressed (PQ) tier;
* v5 ``e69cb7a`` - a non-empty delta tier and one tombstone.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro import create
from repro.io import save_index

#: the dataset every archive indexes
N, DIM, SEED = 300, 8, 2024


def digest(array) -> str:
    """sha256 of an array's shape and values; ints widen to int64 so
    the digest does not depend on the index dtype a release chose."""
    array = np.asarray(array)
    if array.dtype.kind in "iu":
        array = array.astype(np.int64)
    array = np.ascontiguousarray(array)
    h = hashlib.sha256(str(array.shape).encode())
    h.update(str(array.dtype).encode())
    h.update(array.tobytes())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    version, out_dir = int(argv[1]), Path(argv[2])
    rng = np.random.default_rng(SEED)
    data = rng.standard_normal((N, DIM)).astype(np.float32)
    index = create("nsg", seed=0)
    index.build(data)
    if version >= 3:
        index.reorder("bfs")
    if version == 4:
        index.enable_compressed(num_subspaces=4, codebook_size=16)
    if version == 5:
        index.auto_consolidate = False
        for vector in rng.standard_normal((6, DIM)).astype(np.float32):
            index.insert(vector)
        index.delete(7)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"v{version}.npz"
    save_index(index, path)
    with np.load(path, allow_pickle=False) as archive:
        stored = int(archive["format_version"])
        if stored != version:
            raise SystemExit(f"writer produced format {stored}, not {version}")
        arrays = {
            name: digest(archive[name]) for name in sorted(archive.files)
            if archive[name].dtype.kind in "biuf"
            and name != "format_version"
        }
    print(json.dumps({"version": version, "arrays": arrays}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
