"""The HTTP transport under both servers: one listener, one keep-alive
connection loop, one graceful drain.

:class:`HttpTransport` owns the sockets; *what* is served comes from a
subclass (:class:`~repro.serve.server.RetrievalServer`,
:class:`~repro.cluster.shard_server.ShardServer`) through hooks the
loop calls and never branches on.  So both tiers give one **drain
guarantee** — once :meth:`~HttpTransport.shutdown` begins the listener
closes, idle keep-alive connections are disconnected, every request
whose request line had arrived (even one still streaming its body) is
answered in full, and one arriving later on a kept-alive connection
gets ``503`` + ``Retry-After: 1`` — and fail alike: a protocol
violation answers with its own status, a failure carrying
``http_status`` with that (plus its ``retry_after`` hint, if any), a
handler bug with exactly one ``500`` on a listener that keeps going.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time
from pathlib import Path

from .protocol import (
    STREAM_LIMIT,
    ProtocolError,
    Request,
    json_body,
    read_request,
    render_response,
)

#: Environment variable naming a file the server appends its access log
#: to (CI tails it on failure); constructor argument wins over it.
LOG_ENV = "REPRO_SERVE_LOG"

#: Seconds a drain waits for in-flight requests before force-closing
#: their connections.
DRAIN_TIMEOUT = 10.0


class _Connection:
    """Per-connection state the drain logic needs: whether the handler
    is mid-request (must finish) or idle between keep-alive requests
    (safe to disconnect), and whether the current request arrived after
    draining began (rejected with 503) or was already in flight (served
    to completion — the drain guarantee)."""

    __slots__ = ("writer", "busy", "reject")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.busy = False
        self.reject = False


class HttpTransport:
    """Listener + connection loop + drain over hand-rolled HTTP/1.1.

    ``sock`` is an already-bound listen socket to adopt instead of
    binding ``host:port`` (a pre-fork worker's — see
    :mod:`repro.serve.prefork`)."""

    def __init__(self, host: str, port: int, *, max_body: int,
                 log_path: str | Path | None, sock=None):
        self.host = host
        self._requested_port = port
        self._sock = sock
        self.max_body = max_body
        self._server: asyncio.Server | None = None
        self._connections: set[_Connection] = set()
        self._draining = False
        self._stopped = asyncio.Event()
        if log_path is None:
            log_path = os.environ.get(LOG_ENV) or None
        self._log_path = None if log_path is None else Path(log_path)
        self._log_handle = None

    # ------------------------------------------------------------------
    # Hooks: what a subclass is.  It also keeps ``requests_total`` and
    # ``queries_total``, which the closing log line reports.
    # ------------------------------------------------------------------
    def _boot(self) -> str:
        """Ready what is served before the listener opens (raising
        refuses to start); returns its access-log description."""
        raise NotImplementedError

    async def _respond(self, request: Request) -> tuple[int, dict, int]:
        """The route table: ``(status, payload, n_queries)``."""
        raise NotImplementedError

    def _account(self, status: int, latency: float, n_queries: int) -> None:
        """Count one answered request (``latency`` in seconds)."""
        raise NotImplementedError

    async def _flush(self) -> None:
        """Hurry out the work in-flight requests wait on: called as the
        drain begins and on every poll of it, since a handler that read
        its request just before the listener closed may queue more."""

    async def _release(self) -> None:
        """Let go of what outlives the connections, after the drain."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral pick)."""
        if self._server is not None:
            return self._server.sockets[0].getsockname()[1]
        if self._sock is not None:
            return self._sock.getsockname()[1]
        return self._requested_port

    async def start(self) -> None:
        """Open the access log, boot the subclass, listen.  If any step
        raises, what was opened here is closed again before the error
        propagates."""
        if self._log_path is not None:
            self._log_path.parent.mkdir(parents=True, exist_ok=True)
            self._log_handle = open(self._log_path, "a", encoding="utf-8")
        try:
            described = self._boot()
            # An adopted socket is already bound; asyncio listens on it.
            where = ({"sock": self._sock} if self._sock is not None
                     else {"host": self.host, "port": self._requested_port})
            self._server = await asyncio.start_server(
                self._handle_connection, limit=STREAM_LIMIT, **where)
        except BaseException:
            self._close_log()
            raise
        self._log(f"{described} on http://{self.host}:{self.port}")

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight requests,
        then return.  Idempotent."""
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        self._log("draining: listener closing")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Idle keep-alive connections are parked in readline; closing
        # their transports turns that into a clean EOF.  Busy ones keep
        # running — their response is the whole point of draining.
        for connection in list(self._connections):
            if not connection.busy:
                connection.writer.close()
        await self._flush()
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while self._connections and time.monotonic() < deadline:
            await self._flush()
            await asyncio.sleep(0.01)
        for connection in list(self._connections):
            self._log("drain timeout: force-closing a connection")
            connection.writer.close()
        await self._release()
        self._log(f"stopped after {self.requests_total} requests / "
                  f"{self.queries_total} queries")
        self._close_log()
        self._stopped.set()

    def _log(self, message: str) -> None:
        if self._log_handle is not None:
            stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
            self._log_handle.write(f"{stamp} {message}\n")
            self._log_handle.flush()

    def _close_log(self) -> None:
        if self._log_handle is not None:
            self._log_handle.close()
            self._log_handle = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        connection = _Connection(writer)
        self._connections.add(connection)
        loop = asyncio.get_running_loop()
        try:
            def mark_request_started() -> None:
                # Fires the moment a request line arrives: busy makes a
                # concurrent drain wait for this request (even if the
                # client is still streaming its body) instead of
                # severing the upload; reject records whether draining
                # had *already* begun, in which case the request gets a
                # 503 rather than sneaking in behind the drain.
                connection.busy = True
                connection.reject = self._draining

            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.max_body,
                        on_request_line=mark_request_started)
                except ProtocolError as error:
                    started = loop.time()
                    self._log(f"protocol error -> {error.status}: "
                              f"{error.message}")
                    writer.write(render_response(
                        error.status, json_body({"error": error.message}),
                        keep_alive=not error.close))
                    self._account(error.status, loop.time() - started, 0)
                    await writer.drain()
                    connection.busy = False
                    if error.close:
                        break
                    continue
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if request is None:
                    break
                started = loop.time()
                n_queries = 0
                if connection.reject:
                    # A keep-alive client racing the shutdown.  A
                    # request already in flight when the drain started
                    # is served normally — that is the drain guarantee.
                    status, payload = 503, {"error": "server is draining"}
                    retry_after = 1
                else:
                    retry_after = None
                    try:
                        status, payload, n_queries = await self._respond(
                            request)
                    except Exception as error:  # noqa: BLE001 - last resort
                        # A failure that knows its own HTTP status (the
                        # dispatcher's 429 load shed, the cluster
                        # tier's 503s) also says whether retrying can
                        # help — both duck-typed, so this layer needs
                        # no upward imports.  Anything else is a bug:
                        # one 500, not a dead connection.
                        status = getattr(error, "http_status", None)
                        if status is None:
                            status, payload = 500, {"error": repr(error)}
                        else:
                            self._log(f"query shed -> {status}: {error}")
                            payload = {"error": str(error)}
                            retry_after = getattr(error, "retry_after", None)
                # The connection stays open after a 429 — that is the
                # *point* of not melting down: the client should come
                # right back.
                keep_alive = (request.keep_alive and not self._draining
                              and status < 500)
                extra = (None if retry_after is None
                         else {"Retry-After": str(retry_after)})
                writer.write(render_response(status, json_body(payload),
                                             keep_alive=keep_alive,
                                             extra_headers=extra))
                await writer.drain()
                latency = loop.time() - started
                self._account(status, latency, n_queries)
                self._log(f"{request.method} {request.target} -> {status} "
                          f"({n_queries} queries, {latency * 1000:.2f} ms)")
                connection.busy = False
                if not keep_alive:
                    break
        except ConnectionError:
            pass
        finally:
            self._connections.discard(connection)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
