"""The load generator: keep-alive raw-socket HTTP clients, closed loop.

Request bytes are encoded before a round's clock starts and response
bytes are only parsed after it stops, so the timed loop is one
``sendall`` and the reads of one response per request.
"""

from __future__ import annotations

import json
import socket
import threading
import time

REQUEST_TIMEOUT_S = 30.0


def encode_request(method: str, target: str, payload: dict | None = None
                   ) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("latin-1") + body


def encode_query(vector, k: int) -> bytes:
    return encode_request("POST", "/query",
                          {"vector": [float(x) for x in vector], "k": k})


class Connection:
    """One keep-alive connection; ``exchange`` is one closed-loop
    request."""

    def __init__(self, port: int):
        self.port = port
        self._sock: socket.socket | None = None
        self._buffer = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port),
                                        timeout=REQUEST_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        return sock

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        """Send one request, return ``(status, body)``.  Any socket
        failure or malformed framing is status 0 — a failed request —
        and the next exchange reconnects."""
        try:
            if self._sock is None:
                self._sock = self._connect()
            self._sock.sendall(request)
            return self._read_response()
        except (OSError, ValueError):
            self.close()
            return 0, b""

    def _read_response(self) -> tuple[int, bytes]:
        buffer = self._buffer
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ValueError("connection closed mid-response")
            buffer += chunk
        head = buffer[:end].decode("latin-1")
        status = int(head[9:12])
        length = None
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                length = int(value)
        if length is None:
            raise ValueError("response has no content-length")
        total = end + 4 + length
        while len(buffer) < total:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ValueError("connection closed mid-body")
            buffer += chunk
        self._buffer = buffer[total:]
        return status, buffer[end + 4:total]

    def get_json(self, target: str) -> dict:
        status, body = self.exchange(encode_request("GET", target))
        if status != 200:
            raise RuntimeError(f"GET {target} -> {status}")
        return json.loads(body)

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


def run_round(connections: list[Connection], requests: list[bytes],
              tracer=None, first_id: int = 0
              ) -> tuple[float, list[float], list[tuple[int, bytes]]]:
    """One closed-loop round: connection ``c`` sends requests ``c``,
    ``c + n``, ``c + 2n`` … each after its previous reply.  Returns the
    round's wall seconds, per-request latencies (seconds) and
    ``(status, body)`` replies, both in request order.  With a
    ``tracer`` every request is recorded as a root span whose request
    id is its position in the stream."""
    n = len(connections)
    latencies = [0.0] * len(requests)
    replies: list[tuple[int, bytes]] = [(0, b"")] * len(requests)
    clock = time.perf_counter

    def client(lane: int) -> None:
        connection = connections[lane]
        for i in range(lane, len(requests), n):
            started = clock()
            replies[i] = connection.exchange(requests[i])
            ended = clock()
            latencies[i] = ended - started
            if tracer is not None:
                tracer.add("client.request", started, ended,
                           request=f"r{first_id + i}")

    threads = [threading.Thread(target=client, args=(lane,))
               for lane in range(n)]
    started = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return clock() - started, latencies, replies
