"""Async serving front door: continuous batching onto the fused
MT kernel.

Concurrent single-query HTTP requests queue behind the running batch
and start as one ``search_batch`` call on the GIL-free multi-threaded C
kernel once a slot frees, then demultiplex — each response
bit-identical (ids and NDC) to a direct ``search()``.  Per-request
deadlines ride the existing :class:`~repro.resilience.QueryBudget` +
``degraded`` machinery; admission control sheds load with 429/503
instead of collapsing; a draining server finishes in-flight batches
before exiting.  See ``docs/serving.md`` and ``python -m repro serve
--help``.
"""

from repro.serving.coalescer import (
    Coalescer,
    CoalescerStats,
    DeadlineExceeded,
    Draining,
    Overloaded,
    RequestFailed,
)
from repro.serving.protocol import (
    ProtocolError,
    SearchRequest,
    encode_error,
    encode_result,
    parse_search_request,
)
from repro.serving.server import (
    BackgroundServer,
    Server,
    ServingConfig,
    serve,
)

__all__ = [
    "Coalescer", "CoalescerStats",
    "Overloaded", "Draining", "DeadlineExceeded", "RequestFailed",
    "ProtocolError", "SearchRequest", "parse_search_request",
    "encode_result", "encode_error",
    "Server", "ServingConfig", "serve", "BackgroundServer",
]
