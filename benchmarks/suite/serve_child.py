"""Server subprocess of the serve workload.

    python serve_child.py INDEX.npz [SPANS.jsonl.gz]

Loads the saved index, serves it on an ephemeral localhost port with
``ServingConfig()`` defaults, and prints ``{"port": N}`` once listening.
When its standard input closes it drains, stops, and prints one JSON
summary line (coalescer stats, peak RSS).  Given a spans path it times
the served index's layers and writes their spans there.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.io import load_index  # noqa: E402
from repro.serving import ServingConfig  # noqa: E402
from repro.serving.server import Server  # noqa: E402

from layers import instrument  # noqa: E402
from spans import Tracer, write_jsonl  # noqa: E402


async def _serve(index) -> dict:
    server = Server(index, ServingConfig(port=0))
    await server.start()
    print(json.dumps({"port": server.config.port}), flush=True)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def wait_for_eof():
        sys.stdin.read()
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=wait_for_eof, daemon=True).start()
    forever = asyncio.ensure_future(server.serve_forever())
    await stop.wait()
    await server.drain_and_stop()
    forever.cancel()
    try:
        await forever
    except asyncio.CancelledError:
        pass
    return server.coalescer.stats.snapshot()


def _peak_rss_mb() -> float:
    """This process's own peak RSS.  Its ``ru_maxrss`` would read the
    benchmark process's peak at the time it spawned this one, which Linux
    carries across ``exec``."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    index = load_index(argv[0])
    tracer = Tracer(proc="server") if len(argv) > 1 else None
    if tracer is not None:
        instrument(tracer, [index], served=index)
    try:
        stats = asyncio.run(_serve(index))
    finally:
        if tracer is not None:
            tracer.uninstall()
            write_jsonl(tracer.spans, argv[1])
    print(json.dumps({"stats": stats, "peak_rss_mb": _peak_rss_mb()}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
