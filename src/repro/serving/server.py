"""Asyncio HTTP/1.1 front door over the :class:`Coalescer`.

Stdlib-only by design (the repo's no-new-dependencies rule): a minimal
HTTP/1.1 server on ``asyncio`` streams with keep-alive, enough for a
JSON search API and its operational endpoints — not a general web
server.

Routes:

* ``POST /search`` — one query vector (see ``protocol.py``); answers
  200 with the bit-identical search result, 400 on a malformed
  request, 429 when the bounded queue is full, 503 while draining,
  504 when the request's deadline expired before its batch started.
* ``GET /healthz`` — 200 ``{"status": "ok"}`` (503 while draining).
* ``GET /stats`` — coalescer counters as JSON.
* ``GET /metrics`` — Prometheus text exposition of the process
  registry (serving instruments included when metrics are enabled).

Shutdown is a graceful drain: SIGINT/SIGTERM stop admissions (new
requests see 503), queued requests run, in-flight batches finish and
their responses go out, then the listener closes.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from dataclasses import dataclass

import repro.observability as obs

from repro.serving.coalescer import (
    Coalescer,
    DeadlineExceeded,
    Draining,
    Overloaded,
    RequestFailed,
)
from repro.serving.protocol import (
    ProtocolError,
    encode_error,
    encode_result,
    parse_search_request,
)

__all__ = ["ServingConfig", "Server", "serve", "BackgroundServer"]

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}
_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 64 * 1024 * 1024


@dataclass
class ServingConfig:
    """Everything ``repro serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 8080
    max_batch: int = 64             # queries per kernel call
    queue_depth: int = 256          # admission bound (queued + in flight)
    deadline_ms: float | None = None  # default per-request SLO
    workers: int = 1                # MT kernel threads per batch
    inflight_batches: int = 1       # concurrent search_batch calls
    default_k: int = 10
    default_ef: int = 64
    compressed: bool = False        # serve the ADC tier
    rerank_factor: int | None = None
    drain_timeout_s: float = 30.0


class Server:
    """One listening socket + one :class:`Coalescer` over one index."""

    def __init__(self, index, config: ServingConfig | None = None):
        self.config = config or ServingConfig()
        self.index = index
        self.dim = int(self._index_dim(index))
        self.coalescer = Coalescer(
            index,
            max_batch=self.config.max_batch,
            queue_depth=self.config.queue_depth,
            workers=self.config.workers,
            inflight_batches=self.config.inflight_batches,
        )
        self._server: asyncio.base_events.Server | None = None
        self._drained = asyncio.Event()

    @staticmethod
    def _index_dim(index) -> int:
        dim = getattr(index, "dim", None)
        if dim is not None:
            return dim
        data = getattr(index, "data", None)
        if data is not None:
            return data.shape[1]
        raise TypeError(
            "index exposes neither .dim nor .data — cannot infer "
            "query dimensionality"
        )

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
        )
        if self.config.port == 0:
            self.config.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self.config.port}"

    async def drain_and_stop(self) -> None:
        """Graceful shutdown: 503 new work, finish in-flight, close."""
        await self.coalescer.drain(self.config.drain_timeout_s)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.coalescer.close()
        self._drained.set()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    # -- HTTP ------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, body, keep_alive = request
                status, payload = await self._dispatch(method, path, body)
                await self._write_response(
                    writer, status, payload, keep_alive
                )
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; None at EOF / on an unparseable preamble."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            return None
        if len(head) > _MAX_HEADER_BYTES:
            return None
        try:
            preamble = head.decode("latin-1")
            request_line, *header_lines = preamble.split("\r\n")
            method, path, _version = request_line.split(" ", 2)
        except ValueError:
            return None
        headers = {}
        for line in header_lines:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        keep_alive = headers.get("connection", "").lower() != "close"
        length = 0
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                return None
            if length < 0 or length > _MAX_BODY_BYTES:
                return None
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return None
        return method.upper(), path, body, keep_alive

    async def _write_response(
        self, writer, status: int, payload: bytes, keep_alive: bool,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    async def _dispatch(self, method: str, path: str, body: bytes):
        path = path.split("?", 1)[0]
        if path == "/search":
            if method != "POST":
                return 405, encode_error("use POST /search")
            return await self._handle_search(body)
        if path == "/healthz":
            if self.coalescer.draining:
                return 503, json.dumps({"status": "draining"}).encode()
            return 200, json.dumps({"status": "ok"}).encode()
        if path == "/stats":
            stats = self.coalescer.stats.snapshot()
            stats["queue_depth"] = self.coalescer.outstanding
            stats["draining"] = self.coalescer.draining
            return 200, json.dumps(stats).encode()
        if path == "/metrics":
            return 200, obs.prometheus_text().encode()
        return 404, encode_error(f"no route for {path}")

    async def _handle_search(self, body: bytes):
        cfg = self.config
        try:
            request = parse_search_request(
                body, self.dim,
                default_k=cfg.default_k, default_ef=cfg.default_ef,
                default_deadline_ms=cfg.deadline_ms,
                compressed=cfg.compressed,
                rerank_factor=cfg.rerank_factor,
            )
        except ProtocolError as exc:
            return 400, encode_error(exc.message)
        try:
            result = await self.coalescer.submit(request)
        except Overloaded as exc:
            return 429, encode_error(str(exc))
        except Draining as exc:
            return 503, encode_error(str(exc))
        except DeadlineExceeded as exc:
            return 504, encode_error(str(exc))
        except RequestFailed as exc:
            return 400, encode_error(exc.reason)
        except Exception as exc:  # noqa: BLE001 - never kill the conn
            return 500, encode_error(f"{type(exc).__name__}: {exc}")
        return 200, encode_result(
            result["ids"], result["dists"], result["ndc"],
            result["degraded"],
            batch_size=result["batch_size"],
            kernel_path=result["kernel_path"],
            wait_ms=result["wait_ms"],
            total_ms=result["total_ms"],
        )


def serve(index, config: ServingConfig | None = None) -> None:
    """Blocking entry point: run the server until SIGINT/SIGTERM, then
    drain gracefully (in-flight batches finish, new requests 503)."""

    async def main():
        server = Server(index, config)
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        print(
            f"repro serving on {server.address} "
            f"(max_batch={server.config.max_batch}, "
            f"queue_depth={server.config.queue_depth})",
            flush=True,
        )
        forever = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        print("repro serving: draining...", flush=True)
        await server.drain_and_stop()
        forever.cancel()
        print("repro serving: stopped", flush=True)

    asyncio.run(main())


class BackgroundServer:
    """Run a :class:`Server` on a daemon thread — the shape tests, the
    benchmark, and the CI smoke harness all want: start, get a port,
    fire requests from the calling thread, stop.

    ::

        with BackgroundServer(index, ServingConfig(port=0)) as srv:
            http.client.HTTPConnection("127.0.0.1", srv.port)...
    """

    def __init__(self, index, config: ServingConfig | None = None):
        self.config = config or ServingConfig(port=0)
        self.index = index
        self.server: Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.config.port

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self.config.port}"

    def start(self) -> "BackgroundServer":
        def run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            server = Server(self.index, self.config)
            self.server = server
            try:
                loop.run_until_complete(server.start())
            except BaseException as exc:  # noqa: BLE001 - surface to caller
                self._error = exc
                self._started.set()
                loop.close()
                return
            self._started.set()
            try:
                loop.run_until_complete(server.serve_forever())
                # closing the listener unblocks serve_forever before the
                # drain coroutine finishes — let it run to completion so
                # stop()'s future resolves
                loop.run_until_complete(server._drained.wait())
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-serving", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._error is not None:
            raise RuntimeError(
                f"serving thread failed to start: {self._error}"
            ) from self._error
        return self

    def begin_drain(self) -> None:
        """Flip the server to draining (503 for new requests) without
        waiting — tests poke at in-between states."""
        assert self._loop is not None and self.server is not None
        self.server.coalescer._draining = True  # noqa: SLF001

    def stop(self) -> None:
        if self._loop is None or self.server is None:
            return
        loop, server = self._loop, self.server
        fut = asyncio.run_coroutine_threadsafe(
            server.drain_and_stop(), loop
        )
        try:
            fut.result(timeout=self.config.drain_timeout_s + 10.0)
        finally:
            try:
                loop.call_soon_threadsafe(lambda: None)  # wake the loop
            except RuntimeError:
                pass  # the drained loop already finished and closed
            if self._thread is not None:
                self._thread.join(timeout=10.0)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
