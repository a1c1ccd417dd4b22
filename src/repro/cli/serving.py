"""``serve`` and ``serve-shard``: every serving process (single,
catalog, cluster coordinator, pre-fork fleet, cluster shard) boots
through :func:`_serve_until_signalled`."""

from __future__ import annotations

import argparse
import sys

from ..catalog import Catalog
from ..index import open_index, read_index_spec
from ..serve import RetrievalServer, ServeConfig
from ..serve.config import MAX_WAIT_CEILING_MS
from . import CliError, _validate_counts, refusing


def _serve_until_signalled(args: argparse.Namespace, build,
                           banner=None) -> int:
    """The one boot path of every serving process: ``build()`` the
    server (a target that will not open, a refused setting or a busy
    port is a :class:`CliError`), serve until SIGINT/SIGTERM, drain.
    ``banner(server)`` is the first stdout line — harnesses parse its
    ``http://HOST:PORT`` token; a pre-fork worker passes none and stays
    silent, its supervisor speaks for the fleet.
    """
    import asyncio
    import signal

    async def _run() -> int:
        try:
            with refusing():
                server = build()
                await server.start()
        except OSError as error:
            raise CliError(f"cannot bind {args.host}:{args.port}: "
                           f"{error}") from error
        if banner is not None:
            print(banner(server), flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-posix
                pass
        try:
            await stop.wait()
        finally:
            if banner is not None:
                print("Draining in-flight requests ...", flush=True)
            await server.shutdown()
            if banner is not None:
                print(f"Served {server.requests_total} requests "
                      f"({server.queries_total} queries)")
        return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        return 0


def _add_listen_flags(parser: argparse.ArgumentParser, port: int) -> None:
    """The flags every serving process takes (``serve``, ``serve-shard``)."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=port,
                        help=f"listen port (0 picks an ephemeral port; "
                             f"default {port})")
    parser.add_argument("--no-mmap", action="store_true",
                        help="read vector matrices eagerly instead of "
                             "memory-mapping them")
    parser.add_argument("--log-file", default=None,
                        help="append an access/drain log to this file "
                             "(default: $REPRO_SERVE_LOG if set)")


def _port_refusals(args: argparse.Namespace) -> list[str]:
    """``--port`` outside the TCP range as a refusal line, checked
    before anything binds (a socket would overflow on it, and a
    pre-fork supervisor's ``getaddrinfo`` would wrap it modulo 65536)."""
    if 0 <= args.port <= 65535:
        return []
    return [f"--port must be in 0-65535 (0 picks an ephemeral port), "
            f"got {args.port}"]


def flags_serve_shard(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="saved layout this box holds: a "
                                     "single .npz shard or a sharded "
                                     "directory of co-located shards")
    _add_listen_flags(parser, port=8100)


def cmd_serve_shard(args: argparse.Namespace) -> int:
    """``serve-shard``: run one cluster shard server.

    Serves the per-shard half of the scatter-gather contract
    (``POST /partial_query`` / ``POST /brute_query`` / ``GET
    /healthz``) over one saved layout — a single ``.npz`` or a sharded
    directory whose shards are co-located on this box.  A coordinator
    (``serve --cluster``) fans query ticks across a fleet of these.
    Serves until SIGINT/SIGTERM, then drains in-flight requests and
    exits 0.
    """
    from ..cluster import ShardServer

    _validate_counts(args, also=_port_refusals(args))

    def build():
        return ShardServer(open_index(args.path, mmap=not args.no_mmap),
                           host=args.host, port=args.port,
                           log_path=args.log_file)

    def banner(server) -> str:
        # The harness parses host:port out of this line — keep the URL
        # as the banner's final colon-bearing token.
        return (f"Serving shard layout ({len(server.index)} entries, "
                f"{len(server.shards)} local shard(s), "
                f"{'mmap' if not args.no_mmap else 'eager'}) on "
                f"http://{args.host}:{server.port} — POST /partial_query, "
                f"POST /brute_query, GET /healthz")

    return _serve_until_signalled(args, build, banner)


def _load_serving_catalog(path: str):
    catalog = Catalog.load(path)
    if not len(catalog):
        raise ValueError(f"{path} is an empty catalog; register indexes "
                         f"with `catalog add` before serving")
    return catalog


def _open_serve_target(args: argparse.Namespace, config):
    """``serve PATH``'s target: a catalog directory's catalog (entries
    open lazily), else the opened layout."""
    if Catalog.handles(args.path):
        return _load_serving_catalog(args.path)
    return open_index(args.path, mmap=config.mmap)


def _serve_config(args: argparse.Namespace):
    """``serve``'s tuning flags as the one validated
    :class:`~repro.serve.ServeConfig` (``ValueError``, one line per bad
    flag, if any is refused)."""
    return ServeConfig(max_batch=args.max_batch,
                       max_wait_ms=args.max_wait_ms, jobs=args.jobs,
                       max_backlog=args.max_backlog,
                       cache_size=0 if args.no_cache else args.cache_size,
                       cache_ttl=args.cache_ttl, max_open=args.max_open,
                       mmap=not args.no_mmap, quantized=args.quantized)


def _serve_prefork(args: argparse.Namespace, config) -> int:
    """``serve --workers N``: a pre-fork supervisor plus N worker
    processes on one shared port.

    The parent holds the already-validated ``config``, checks the
    target *cheaply* (manifest/spec reads only — no vector data, no
    thread pools, nothing unsafe to fork over), binds the listen
    address once so ``--port 0`` resolves to a single shared port, then
    forks.  Each worker re-opens the target itself — memory-mapped
    unless ``--no-mmap``, so all workers map the same shard files and
    the kernel page cache keeps **one** resident copy of the vectors —
    and runs the ordinary :class:`~repro.serve.server.RetrievalServer`
    under that same config, with its own caches and dispatchers.  SIGTERM/SIGINT drain every worker gracefully; a
    crashed worker is restarted with capped backoff; ``GET /stats``
    answers with per-worker sections plus a fleet aggregate.
    """
    import os

    from ..serve import LOG_ENV
    from ..serve.prefork import REUSEPORT_AVAILABLE, PreforkSupervisor

    with refusing():
        if Catalog.handles(args.path):
            catalog = _load_serving_catalog(args.path)
            described = (f"catalog of {len(catalog)} indexes "
                         f"(default {catalog.default_name!r})")
        else:
            spec, _version = read_index_spec(args.path)
            described = f"{spec.kind} index"

    log_base = args.log_file or os.environ.get(LOG_ENV) or None

    def worker_main(worker_id: int, sock) -> int:
        # Runs in the forked child: the target, the server, and every
        # cache/dispatcher are built HERE, post-fork, so workers share
        # nothing but the listen port and the mmapped file pages.
        def build():
            return RetrievalServer(
                _open_serve_target(args, config), args.host, config=config,
                sock=sock, worker_id=worker_id,
                stats_dir=supervisor.stats_dir,
                log_path=(f"{log_base}.worker{worker_id}" if log_base
                          else None))

        try:
            return _serve_until_signalled(args, build)
        except CliError as error:
            # A worker never returns to `main`, so it reports its own
            # refusal.  Exit code 2 is the supervisor's fatal-config
            # signal: a target that won't open can never open on restart
            # either, so the fleet shuts down instead of crash-looping.
            print(f"worker {worker_id}: {error}", file=sys.stderr)
            return 2

    supervisor = PreforkSupervisor(worker_main, args.workers,
                                   host=args.host, port=args.port)
    try:
        supervisor.start()
    except OSError as error:
        raise CliError(f"cannot bind {args.host}:{args.port}: "
                       f"{error}") from error
    mode = ("SO_REUSEPORT" if REUSEPORT_AVAILABLE
            else "shared inherited socket")
    print(f"Serving {described} with {args.workers} pre-fork workers "
          f"({mode}, {'mmap' if config.mmap else 'eager'} pages "
          f"shared via page cache) on "
          f"http://{args.host}:{supervisor.port} — POST /query, "
          f"GET /healthz, GET /stats (per-worker + aggregate)",
          flush=True)
    code = supervisor.run()
    print(f"All {args.workers} workers drained "
          f"({supervisor.restarts_total} restart(s))", flush=True)
    return code


def flags_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", nargs="?", default=None,
                        help="saved index (.npz file or sharded "
                             "dir), e.g. out/tables, or a catalog "
                             "directory holding catalog.json "
                             "(omit with --cluster)")
    parser.add_argument("--cluster", default=None, metavar="TOPOLOGY",
                        help="serve a distributed index instead of a "
                             "local path: topology.json listing shard "
                             "servers ({\"shards\": [{\"host\": ..., "
                             "\"port\": ...}, ...]})")
    parser.add_argument("--max-backlog", type=int, default=None,
                        help="bound on queries pending in a micro-batch "
                             "queue; overflow is answered 429 + "
                             "Retry-After (default: unbounded)")
    parser.add_argument("--workers", type=int, default=1,
                        help="pre-fork this many worker processes "
                             "sharing the listen port (SO_REUSEPORT "
                             "where the platform has it, a shared "
                             "inherited socket elsewhere) and — via "
                             "mmap — the same resident vector pages; "
                             "crashed workers restart with capped "
                             "backoff; 1 (default) serves single-"
                             "process with no supervisor")
    _add_listen_flags(parser, port=8080)
    parser.add_argument("--max-batch", type=int,
                        default=ServeConfig.max_batch,
                        help="flush a micro-batch once this many queries "
                             "are pending (default %(default)s)")
    parser.add_argument("--max-wait-ms", type=float,
                        default=ServeConfig.max_wait_ms,
                        help="on an idle server, flush a partial "
                             "micro-batch this long after its first query "
                             "arrives; behind a running batch, queries "
                             "flush when it completes; at most "
                             f"{MAX_WAIT_CEILING_MS:g} (default "
                             "%(default)s: at once)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="fan per-shard work of each micro-batch over "
                             "N threads (sharded layouts)")
    parser.add_argument("--max-open", type=int, default=None,
                        help="cap on concurrently open catalog entries "
                             "(LRU-evicted beyond it; default unbounded; "
                             "ignored for a bare index path)")
    parser.add_argument("--cache-size", type=int,
                        default=ServeConfig.cache_size,
                        help="per-index result-cache bound: max entries "
                             "(default %(default)s; 0 disables caching)")
    parser.add_argument("--cache-ttl", type=float, default=None,
                        help="expire cache entries after this many "
                             "seconds (default: no expiry)")
    parser.add_argument("--no-cache", action="store_true",
                        help="serve every query uncached (same as "
                             "--cache-size 0)")
    parser.add_argument("--quantized", action="store_true",
                        help="score candidates through the layout's int8 "
                             "sidecar and rerank the shortlist exactly "
                             "(rankings identical to fp; requires a "
                             "layout built with `index build --quantize` "
                             "or retrofitted with `index quantize`)")


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: run the async retrieval server.

    ``path`` may be one saved index (single ``.npz`` or sharded
    directory) — opened once, memory-mapped unless ``--no-mmap`` — or a
    catalog directory, whose entries open lazily as queries route to
    them (``--max-open`` caps how many stay resident).  Alternatively
    ``--cluster topology.json`` serves a *distributed* index: a
    coordinator over the listed shard servers, same endpoints, same
    rankings.  Serves until SIGINT/SIGTERM, which triggers a graceful
    drain: in-flight requests complete, every open dispatcher flushes,
    then the process exits 0.
    """
    if (args.path is None) == (args.cluster is None):
        raise CliError("serve takes exactly one target: a saved index / "
                       "catalog path, or --cluster topology.json")
    # Every refused flag is reported in one pass: --port and --workers
    # here, the serve knobs by ServeConfig.
    refused = _port_refusals(args)
    try:
        config = _serve_config(args)
    except ValueError as error:
        refused.append(str(error))
    _validate_counts(args, "workers", also=refused)
    if args.cluster is not None and config.quantized:
        raise CliError("--quantized applies to locally opened layouts; a "
                       "cluster coordinator's shard servers quantize on "
                       "their own side")
    if args.workers > 1:
        if args.cluster is not None:
            raise CliError("--workers pre-forks local serving and cannot "
                           "combine with --cluster; run one coordinator "
                           "process per port instead")
        return _serve_prefork(args, config)
    remote = None
    if args.cluster is not None:
        from ..cluster import ClusterError, RemoteShardedIndex, Topology

        try:
            remote = RemoteShardedIndex.connect(Topology.load(args.cluster))
        except (FileNotFoundError, ValueError, ClusterError) as error:
            raise CliError(str(error)) from error

    def build():
        target = (remote if remote is not None
                  else _open_serve_target(args, config))
        return RetrievalServer(target, args.host, args.port, config=config,
                               log_path=args.log_file)

    def banner(server) -> str:
        url = f"http://{args.host}:{server.port}"
        mode = "mmap" if config.mmap else "eager"
        if remote is not None:
            return (f"Serving distributed index ({len(remote)} entries, "
                    f"{remote.n_shards} shard(s) across {remote.n_servers} "
                    f"server(s) per {args.cluster}) on {url} — POST /query, "
                    f"GET /healthz, GET /stats")
        if Catalog.handles(args.path):
            catalog = server.handle.catalog
            names = ", ".join(entry.name for entry in catalog)
            cap = "all resident" if config.max_open is None \
                else f"max {config.max_open} open"
            return (f"Serving catalog of {len(catalog)} indexes ({names}; "
                    f"default {catalog.default_name!r}, {mode}, {cap}) on "
                    f"{url} — POST /query (optional \"index\" route), "
                    f"GET /indexes, GET /healthz, GET /stats")
        if config.quantized:
            mode += ", int8 shortlist + exact rerank"
        index = server.index
        return (f"Serving {index.kind} index ({len(index)} entries, "
                f"{mode}) on {url} — POST /query, GET /healthz, GET /stats")

    try:
        return _serve_until_signalled(args, build, banner)
    finally:
        if remote is not None:
            remote.close()

