"""HTTP load for the serve workload: one asyncio thread, keep-alive
connections, open-loop Poisson arrivals or a closed loop.

In the open loop each request has a due time drawn from the workload's
seeded generator; a request whose due time comes while every
connection is busy waits in a queue, so its latency — measured from the
due time — includes the stall it suffered.  The generator's own
lateness (due → sent while a connection was free) is recorded apart, so
a run can show that it kept its schedule.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

__all__ = ["Record", "Load", "Client", "request_bytes"]


def request_bytes(body: bytes) -> bytes:
    head = (
        "POST /search HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


@dataclass
class Record:
    """One request: which query, when it was due, sent and answered."""

    query: int
    due: float
    sent: float
    recv: float
    status: int
    payload: bytes
    free: bool        # a connection was idle when the request fell due


@dataclass
class Load:
    """One phase of load: its requests and wall-clock bounds, plus, for
    an open loop, the generator's idle intervals and the requests still
    queued when the schedule ended."""

    records: list
    start: float
    end: float
    sleeps: list = field(default_factory=list)
    backlog: int = 0


class _Connection:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    async def request(self, raw: bytes) -> tuple[int, bytes]:
        self.writer.write(raw)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload


class Client:
    """``connections`` keep-alive connections to one server."""

    def __init__(self, host: str, port: int, connections: int = 2):
        self.host = host
        self.port = port
        self.count = connections
        self.conns: list[_Connection] = []

    async def open(self) -> None:
        for _ in range(self.count):
            reader, writer = await asyncio.open_connection(self.host, self.port)
            self.conns.append(_Connection(reader, writer))

    async def close(self) -> None:
        for conn in self.conns:
            conn.writer.close()
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self.conns = []

    async def get_json(self, path: str):
        """``GET path`` on the first connection, decoded from JSON."""
        raw = f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
        status, payload = await self.conns[0].request(raw.encode("latin-1"))
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(payload)

    async def open_loop(self, requests, picks, rate: float, duration: float,
                        rng) -> Load:
        """Poisson arrivals at ``rate`` per second for ``duration`` s.

        ``requests[q]`` is the raw HTTP request for query ``q``;
        ``picks`` yields query ids.
        """
        gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 2) + 16)
        dues = gaps.cumsum()
        dues = dues[dues < duration]
        queue: asyncio.Queue = asyncio.Queue()
        idle = [len(self.conns)]
        records: list[Record] = []
        sleeps: list[tuple[float, float]] = []

        async def worker(conn):
            while True:
                item = await queue.get()
                if item is None:
                    return
                query, due, free = item
                idle[0] -= 1
                sent = time.perf_counter()
                status, payload = await conn.request(requests[query])
                recv = time.perf_counter()
                idle[0] += 1
                records.append(
                    Record(query, due, sent, recv, status, payload, free)
                )

        workers = [asyncio.ensure_future(worker(c)) for c in self.conns]
        start = time.perf_counter()
        for offset in dues:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                slept = time.perf_counter()
                await asyncio.sleep(delay)
                sleeps.append((slept, time.perf_counter()))
            queue.put_nowait((next(picks), due, idle[0] > queue.qsize()))
        backlog = max(0, queue.qsize() - idle[0])
        for _ in self.conns:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
        return Load(records, start, time.perf_counter(), sleeps, backlog)

    async def closed_loop(self, requests, picks, duration: float) -> Load:
        """Every connection sends its next request as soon as the last
        one is answered, for ``duration`` seconds."""
        records: list[Record] = []
        start = time.perf_counter()
        stop = start + duration

        async def worker(conn):
            while time.perf_counter() < stop:
                query = next(picks)
                sent = time.perf_counter()
                status, payload = await conn.request(requests[query])
                records.append(Record(query, sent, sent, time.perf_counter(),
                                      status, payload, True))

        await asyncio.gather(*(worker(c) for c in self.conns))
        return Load(records, start, time.perf_counter())
