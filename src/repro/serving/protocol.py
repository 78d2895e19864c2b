"""Wire protocol of the serving front door: JSON in, JSON out.

One request = one query vector plus its search parameters and SLO:

``{"vector": [...], "k": 10, "ef": 64, "deadline_ms": 50,
   "max_ndc": 20000}``

``k``/``ef`` default to the server's configuration; ``deadline_ms``
(optional, overriding the server default) and ``max_ndc`` map onto the
existing :class:`~repro.resilience.QueryBudget` machinery — a request
that exhausts its budget still gets its best-k back, flagged
``"degraded": true``, never an error.  Validation happens *here*,
before a request can join a batch, so a malformed request 400s on its
own and cannot poison its batchmates.

The response carries exactly what a direct ``index.search()`` of the
same vector would produce — ids, distances and NDC are bit-identical —
plus serving telemetry (batch size, kernel path, wait/total timings).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.resilience import QueryBudget

__all__ = [
    "ProtocolError",
    "SearchRequest",
    "parse_search_request",
    "encode_result",
    "encode_error",
]

#: sanity ceilings — a front door should not let one request request
#: unbounded work (they are generous next to any real configuration)
MAX_K = 4096
MAX_EF = 65536
MAX_DIM = 16384


class ProtocolError(Exception):
    """A request the protocol rejects; maps to an HTTP 400."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


@dataclass
class SearchRequest:
    """A parsed, validated single-query request."""

    vector: np.ndarray                  # (dim,) float32, finite
    k: int
    ef: int
    deadline_ms: float | None = None    # SLO; None = no deadline
    max_ndc: int | None = None
    max_hops: int | None = None
    compressed: bool = False
    rerank_factor: int | None = None
    extras: dict = field(default_factory=dict)

    @property
    def batch_key(self) -> tuple:
        """Requests coalesce only with requests sharing this key —
        ``search_batch`` takes scalar ``k``/``ef``/``compressed``, and
        bit-identity to a direct ``search`` requires the exact same
        parameters."""
        return (self.k, self.ef, self.compressed, self.rerank_factor)

    def make_budget(self, remaining_s: float | None) -> QueryBudget | None:
        """The :class:`QueryBudget` for this request given ``remaining_s``
        seconds until its deadline (computed by the coalescer when the
        batch starts, so queue wait is charged against the SLO)."""
        if remaining_s is None and self.max_ndc is None and self.max_hops is None:
            return None
        return QueryBudget(
            deadline_s=remaining_s,
            max_ndc=self.max_ndc,
            max_hops=self.max_hops,
        )


def _require_int(obj: dict, name: str, default: int | None,
                 low: int, high: int) -> int | None:
    value = obj.get(name, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"'{name}' must be an integer")
    if not (low <= value <= high):
        raise ProtocolError(f"'{name}' must be in [{low}, {high}], got {value}")
    return value


def parse_search_request(
    body: bytes,
    dim: int,
    default_k: int,
    default_ef: int,
    default_deadline_ms: float | None = None,
    compressed: bool = False,
    rerank_factor: int | None = None,
) -> SearchRequest:
    """Parse and validate one request body; raises :class:`ProtocolError`
    (→ 400) on anything malformed.  ``dim`` is the index dimensionality;
    a wrong-length or non-finite vector is rejected here, before the
    coalescer ever sees it."""
    if len(body) > 64 * 1024 * 1024:
        raise ProtocolError("request body too large")
    try:
        obj = json.loads(body)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    vector = obj.get("vector")
    if not isinstance(vector, list) or not vector:
        raise ProtocolError("'vector' must be a non-empty JSON array")
    if len(vector) > MAX_DIM:
        raise ProtocolError(f"'vector' longer than {MAX_DIM}")
    try:
        arr = np.asarray(vector, dtype=np.float32)
    except (TypeError, ValueError):
        raise ProtocolError("'vector' must contain only numbers") from None
    if arr.ndim != 1:
        raise ProtocolError("'vector' must be one-dimensional")
    if arr.shape[0] != dim:
        raise ProtocolError(
            f"dimension mismatch: index is {dim}-d, vector is {arr.shape[0]}-d"
        )
    if not np.isfinite(arr).all():
        raise ProtocolError("'vector' contains non-finite values (NaN/Inf)")

    k = _require_int(obj, "k", default_k, 1, MAX_K)
    ef = _require_int(obj, "ef", None, 1, MAX_EF)
    if ef is None:
        ef = max(default_ef, k)
    ef = max(ef, k)
    max_ndc = _require_int(obj, "max_ndc", None, 1, 2**62)
    max_hops = _require_int(obj, "max_hops", None, 1, 2**62)

    deadline_ms = obj.get("deadline_ms", default_deadline_ms)
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(
            deadline_ms, (int, float)
        ):
            raise ProtocolError("'deadline_ms' must be a number")
        deadline_ms = float(deadline_ms)
        if not math.isfinite(deadline_ms) or deadline_ms <= 0:
            raise ProtocolError("'deadline_ms' must be a positive number")

    unknown = set(obj) - {
        "vector", "k", "ef", "deadline_ms", "max_ndc", "max_hops",
    }
    if unknown:
        raise ProtocolError(f"unknown fields: {sorted(unknown)}")

    return SearchRequest(
        vector=np.ascontiguousarray(arr),
        k=k, ef=ef,
        deadline_ms=deadline_ms,
        max_ndc=max_ndc, max_hops=max_hops,
        compressed=compressed, rerank_factor=rerank_factor,
    )


def encode_result(
    ids: np.ndarray,
    dists: np.ndarray,
    ndc: int,
    degraded: bool,
    *,
    batch_size: int,
    kernel_path: str | None,
    wait_ms: float,
    total_ms: float,
) -> bytes:
    """One request's JSON response body (``-1`` padding stripped)."""
    keep = ids >= 0
    payload = {
        "ids": [int(v) for v in ids[keep]],
        "dists": [float(v) for v in dists[keep]],
        "ndc": int(ndc),
        "degraded": bool(degraded),
        "batch_size": int(batch_size),
        "kernel_path": kernel_path,
        "wait_ms": round(wait_ms, 3),
        "total_ms": round(total_ms, 3),
    }
    return json.dumps(payload).encode()


def encode_error(message: str) -> bytes:
    return json.dumps({"error": message}).encode()
