"""HTTP/1.1 framing and the ``/query`` JSON wire shapes.

The retrieval server speaks hand-rolled HTTP/1.1 over raw
``asyncio`` streams — no ``http.server``, no third-party framework —
so this module owns the whole wire format in one unit-testable place:

- :func:`read_request` parses one request (request line, headers, body)
  off a :class:`asyncio.StreamReader`, enforcing size limits before a
  byte of body is buffered;
- :func:`render_response` frames one response (status line, headers,
  body) as bytes ready for ``writer.write``;
- :func:`parse_query_payload` validates a ``POST /query`` JSON body
  into a ``(Q, dim)`` query matrix plus ``k``/per-query excludes,
  accepting both the single-vector and the batch shape.

Anything a client can get wrong raises :class:`ProtocolError` carrying
the HTTP status to answer with — malformed JSON and bad shapes are 400,
an oversized body is 413 (and closes the connection, since the body was
never read), an unsupported transfer encoding is 501.
"""

from __future__ import annotations

import asyncio
import json
import sys
from dataclasses import dataclass, field

import numpy as np

#: Default cap on request body size (bytes).  A batch of ~8k queries at
#: dim 128 fits comfortably; anything larger should be chunked.
DEFAULT_MAX_BODY = 8 * 1024 * 1024

#: Cap on the number of request headers (sanity, not a real workload).
MAX_HEADERS = 100

#: ``asyncio.StreamReader`` buffer limit: bounds the request line and
#: each header line (readline past this raises, answered with 400).
STREAM_LIMIT = 64 * 1024

def _reason(status: int) -> str:
    """Standard reason phrase (stdlib-sourced; codes only matter to
    clients, the phrase is cosmetic)."""
    from http import HTTPStatus

    try:
        return HTTPStatus(status).phrase
    except ValueError:
        return "Unknown"


class ProtocolError(Exception):
    """A client-visible protocol failure: answer with ``status`` and a
    JSON ``{"error": message}`` body; ``close`` forces the connection
    shut afterwards (used when the request body was never consumed, so
    the stream position is unknowable)."""

    def __init__(self, status: int, message: str, close: bool = False):
        super().__init__(message)
        self.status = status
        self.message = message
        self.close = close


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str
    version: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 defaults to persistent connections; either side can
        opt out with ``Connection: close``."""
        token = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return token == "keep-alive"
        return token != "close"


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One CRLF-terminated line, or :class:`ProtocolError` when the
    client sends a line longer than the stream limit."""
    try:
        return await reader.readline()
    except ValueError:
        # StreamReader signals limit overruns as ValueError.
        raise ProtocolError(400, "request line or header exceeds "
                            f"{STREAM_LIMIT} bytes", close=True) from None


async def read_request(reader: asyncio.StreamReader,
                       max_body: int = DEFAULT_MAX_BODY,
                       on_request_line=None) -> Request | None:
    """Parse one request off ``reader``.

    Returns ``None`` on clean EOF (the client closed a keep-alive
    connection between requests).  Malformed framing raises
    :class:`ProtocolError`; an abruptly severed mid-request connection
    raises :class:`asyncio.IncompleteReadError` for the caller to treat
    as a disconnect.

    ``on_request_line`` (if given) fires as soon as a request line has
    arrived — the point a connection stops being "idle between
    requests" and becomes "mid-request".  Graceful drain hangs on this
    distinction: idle connections may be disconnected, one that has
    started sending (and may still be streaming its body) must be
    allowed to finish and get its response.
    """
    line = await _read_line(reader)
    if not line:
        return None
    if on_request_line is not None:
        on_request_line()
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(400, "malformed request line", close=True)
    method, target, version = parts
    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            # EOF mid-headers: the client gave up; nothing to answer.
            raise asyncio.IncompleteReadError(b"", None)
        if len(headers) >= MAX_HEADERS:
            raise ProtocolError(400, f"more than {MAX_HEADERS} headers",
                                close=True)
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(400, "malformed header line", close=True)
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise ProtocolError(501, "transfer-encoding is not supported",
                            close=True)
    length_header = headers.get("content-length")
    body = b""
    if length_header is not None:
        try:
            length = int(length_header)
            if length < 0:
                raise ValueError
        except ValueError:
            raise ProtocolError(400, "invalid content-length",
                                close=True) from None
        if length > max_body:
            # The body was never read, so the connection must close —
            # the next "request" would start mid-payload.
            raise ProtocolError(413, f"request body of {length} bytes "
                                f"exceeds the {max_body} byte limit",
                                close=True)
        if length:
            body = await reader.readexactly(length)
    elif method == "POST":
        raise ProtocolError(411, "POST requires content-length", close=True)
    return Request(method=method, target=target, version=version,
                   headers=headers, body=body)


def render_response(status: int, body: bytes,
                    content_type: str = "application/json",
                    keep_alive: bool = True,
                    extra_headers: dict[str, str] | None = None) -> bytes:
    """Frame one HTTP/1.1 response as bytes.  ``extra_headers`` adds
    response headers beyond the framing trio (e.g. ``Retry-After`` on a
    backpressure 429)."""
    extras = "".join(f"{name}: {value}\r\n"
                     for name, value in (extra_headers or {}).items())
    head = (f"HTTP/1.1 {status} {_reason(status)}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extras}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n")
    return head.encode("latin-1") + body


def json_body(payload: dict) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


def parse_json_object(body: bytes) -> dict:
    """Decode a request body into a JSON object, or 400.

    Split out of :func:`parse_query_payload` for the catalog-routed
    server: the optional ``"index"`` route field must be read (and the
    target index resolved — its ``dim`` drives validation) *before* the
    vectors can be checked."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError as error:
        # Bad UTF-8, bad JSON, and an integer literal past Python's
        # int-to-str digit limit all derive from ValueError.
        raise ProtocolError(400, f"request body is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise ProtocolError(400, "request body must be a JSON object")
    return payload


def index_route(payload: dict) -> str | None:
    """The optional ``"index"`` field of a ``POST /query`` payload:
    ``None`` when absent (→ the catalog's default entry), the name when
    it is a non-empty string, 400 otherwise.  Whether the *name* exists
    is the server's call (unknown → 404)."""
    name = payload.get("index")
    if name is None:
        return None
    if not isinstance(name, str) or not name:
        raise ProtocolError(400, "'index' must be a non-empty string "
                            "naming a catalog entry")
    return name


def no_cache_flag(payload: dict) -> bool:
    """The optional ``"no_cache"`` field of a ``POST /query`` payload:
    ``False`` when absent, the flag when it is a real boolean, 400
    otherwise (truthy strings must not silently bypass the cache)."""
    flag = payload.get("no_cache", False)
    if not isinstance(flag, bool):
        raise ProtocolError(400, "'no_cache' must be a boolean")
    return flag


def parse_query_payload(body: bytes | dict,
                        dim: int) -> tuple[np.ndarray, int,
                                           list[str | None], bool]:
    """Validate a ``POST /query`` body into query inputs.

    Two accepted shapes::

        {"vector":  [...],          "k": 5, "exclude": "key"}
        {"vectors": [[...], [...]], "k": 5, "excludes": ["key", null]}

    Accepts raw bytes or an already-decoded object (the routed server
    parses JSON once, resolves the ``"index"`` field, then validates
    against the routed index's ``dim``).  Returns ``(matrix, k,
    excludes, single)`` where ``single`` records which shape the client
    used (it picks the response shape).  Every validation failure is a
    :class:`ProtocolError` with status 400 and a message naming what
    was wrong — the server never 500s on bad input.
    """
    payload = (parse_json_object(body)
               if isinstance(body, (bytes, bytearray)) else body)
    if "vector" in payload and "vectors" in payload:
        raise ProtocolError(400, "'vector' and 'vectors' are mutually "
                            "exclusive")
    if "vector" in payload:
        single = True
        rows = [payload["vector"]]
        excludes = [payload.get("exclude")]
        if "excludes" in payload:
            raise ProtocolError(400, "'exclude' (singular) goes with "
                                "'vector'; 'excludes' goes with 'vectors'")
    elif "vectors" in payload:
        single = False
        rows = payload["vectors"]
        if not isinstance(rows, list) or not rows:
            raise ProtocolError(400, "'vectors' must be a non-empty list "
                                "of vectors")
        excludes = payload.get("excludes")
        if excludes is None:
            excludes = [None] * len(rows)
        elif (not isinstance(excludes, list)
              or len(excludes) != len(rows)):
            raise ProtocolError(400, f"'excludes' must align with the "
                                f"{len(rows)} vectors")
    else:
        raise ProtocolError(400, "missing 'vector' (single query) or "
                            "'vectors' (batch)")
    for exclude in excludes:
        if exclude is not None and not isinstance(exclude, str):
            raise ProtocolError(400, "excludes must be keys (strings) "
                                "or null")
    for q, row in enumerate(rows):
        if (not isinstance(row, list) or not row
                or not all(isinstance(x, (int, float))
                           and not isinstance(x, bool) for x in row)):
            raise ProtocolError(400, f"query {q} must be a non-empty "
                                f"numeric vector")
        if len(row) != dim:
            raise ProtocolError(400, f"query {q} has {len(row)} dims, "
                                f"index expects {dim}")
    try:
        matrix = np.asarray(rows, dtype=float)
    except OverflowError:
        # An integer element too large for float64.
        matrix = None
    if matrix is None or not np.isfinite(matrix).all():
        # json.loads accepts NaN/Infinity literals; a non-finite query
        # would poison every similarity it touches.
        raise ProtocolError(400, "query vectors must be finite")
    k = payload.get("k", 10)
    if (not isinstance(k, int) or isinstance(k, bool)
            or not 1 <= k <= sys.maxsize):
        # No ranking holds more than sys.maxsize hits, and islice (the
        # heap merge) takes no larger stop.
        raise ProtocolError(400, f"'k' must be an integer from 1 to "
                            f"{sys.maxsize}")
    return matrix, k, excludes, single


def format_hits(hits) -> list[dict]:
    """``SearchHit`` list to the wire shape."""
    return [{"key": hit.key, "score": hit.score, "meta": hit.meta}
            for hit in hits]
