"""Async retrieval serving over a catalog of saved indexes.

The served front-end for the concurrent query engine: a
:class:`~repro.catalog.CatalogHandle` of named indexes (each opened
lazily via :func:`~repro.index.open_index` — memory-mapped by default
from the CLI, so cold starts of huge sharded layouts read no vector
data — and LRU-evicted under a configurable cap), an asyncio HTTP/1.1
server (:class:`RetrievalServer`) that routes ``POST /query`` by the
optional ``"index"`` name field, and per-index micro-batching
dispatchers (:class:`MicroBatchDispatcher`) that coalesce concurrent
requests into shared ``query_many`` GEMMs while keeping every served
ranking identical to the offline CLI path.

The sockets live once, in :mod:`repro.serve.transport`:
:class:`~repro.serve.transport.HttpTransport` is the listener,
keep-alive loop and graceful drain under both this package's
:class:`RetrievalServer` and the cluster tier's shard server, so every
serving process fails, drains and logs the same way.

Start one from the command line with ``python -m repro.cli serve``
(a bare index path or a catalog directory), or in-process (tests,
benchmarks) with :class:`ServerThread`.  Either way every serve knob
arrives as one validated :class:`ServeConfig`.
"""

from .config import ServeConfig
from .dispatcher import MicroBatchDispatcher
from .protocol import (
    DEFAULT_MAX_BODY,
    ProtocolError,
    Request,
    index_route,
    no_cache_flag,
    parse_json_object,
    parse_query_payload,
    read_request,
    render_response,
)
from .prefork import (
    REUSEPORT_AVAILABLE,
    PreforkSupervisor,
    RestartBackoff,
    aggregate_worker_stats,
    bind_socket,
    read_worker_stats,
    write_worker_stats,
)
from .server import RetrievalServer, ServerThread
from .stats import ServerStats
from .transport import LOG_ENV

__all__ = [
    "RetrievalServer", "ServerThread", "MicroBatchDispatcher",
    "ServeConfig", "ServerStats", "ProtocolError", "Request",
    "read_request", "render_response", "parse_query_payload",
    "parse_json_object", "index_route", "no_cache_flag",
    "DEFAULT_MAX_BODY", "LOG_ENV",
    "PreforkSupervisor", "RestartBackoff", "REUSEPORT_AVAILABLE",
    "bind_socket", "write_worker_stats", "read_worker_stats",
    "aggregate_worker_stats",
]
