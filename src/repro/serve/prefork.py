"""Pre-fork multi-worker serving: one supervisor, N worker processes.

A single-process asyncio server is one event loop, one GIL, one
process.
The mmap work (PR 5) made the fix nearly free in memory — every worker
opens the same shard files with ``open_index(mmap=True)``, so the
kernel page cache holds **one** resident copy of the vector data no
matter how many workers map it.  This module multiplies the processes:

- :class:`PreforkSupervisor` binds the listen address once (resolving
  ``port=0`` to a concrete shared port *before* any fork), then forks
  N workers.  Where the platform has ``SO_REUSEPORT`` (Linux, BSDs)
  each worker binds its own socket to the resolved port and the kernel
  load-balances accepts across them; elsewhere the workers share the
  supervisor's inherited socket — one accept queue, classic pre-fork.
  The supervisor's own socket never listens, so it never siphons
  connections into a queue nobody drains.
- Each worker runs the unmodified asyncio
  :class:`~repro.serve.server.RetrievalServer` — same wire contract,
  same micro-batching, same served-rankings-equal-offline guarantee
  (the reference oracle's ``prefork`` mode checks a fleet's answers).
- SIGTERM/SIGINT to the supervisor fans SIGTERM out to every worker;
  each performs the server's graceful drain (in-flight requests,
  including ones parked in a micro-batch window, run to completion)
  and the supervisor waits for all of them before exiting 0.
- A crashed worker (killed, segfaulted, uncaught exception) is
  restarted in the same slot with capped exponential backoff
  (:class:`RestartBackoff`); a worker that exits with code 2 — the
  CLI's configuration-error code — is fatal: the whole fleet shuts
  down rather than crash-looping on a config that can never work.
- Workers publish their stats as atomically-replaced per-worker JSON
  files in a supervisor-owned directory; whichever worker answers
  ``GET /stats`` composes the fleet view (per-worker sections plus an
  aggregate) from them.  Files rather than a unix-socket control
  channel: restart-safe, zero cross-process coordination on the hot
  path, and the staleness bound is simply the flush interval (each
  section carries its ``updated_at``).

Caches and dispatchers are per-worker **by construction** — each
worker builds its own :class:`~repro.catalog.handles.CatalogHandle`
after the fork, so no cache entry, dispatcher queue, LRU-eviction
decision, or stats counter is ever shared between processes (see the
``repro.catalog.handles`` module docstring; pinned by
``tests/catalog/test_worker_isolation.py``).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import sys
import tempfile
import time
import traceback
from pathlib import Path

from .stats import _ms, percentile

#: Whether the platform can load-balance accepts across per-worker
#: listen sockets; without it workers share one inherited accept queue.
REUSEPORT_AVAILABLE = hasattr(socket, "SO_REUSEPORT")


def bind_socket(host: str, port: int, *,
                reuse_port: bool = False) -> socket.socket:
    """A bound — deliberately **not** listening — TCP socket for
    ``host:port``.  The caller (a worker's ``asyncio`` server) calls
    ``listen``; the supervisor keeps its copy bound-only so the port
    stays reserved across worker restarts without ever joining the
    kernel's accept distribution."""
    infos = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)
    family, type_, proto, _name, addr = infos[0]
    sock = socket.socket(family, type_, proto)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind(addr)
    except OSError:
        sock.close()
        raise
    return sock


class RestartBackoff:
    """Capped exponential backoff for one worker slot.

    A crash after a *stable* run (``uptime >= stable_after``) restarts
    at the initial delay — an isolated OOM kill should not be punished
    with a long outage.  Rapid crash loops double toward the cap, so a
    persistently-dying worker costs bounded CPU without ever giving up
    (code-2 config errors are handled separately, as fatal)."""

    def __init__(self, initial: float = 0.1, cap: float = 2.0,
                 stable_after: float = 5.0):
        if not 0 < initial <= cap:
            raise ValueError(f"need 0 < initial <= cap, got "
                             f"initial={initial} cap={cap}")
        self.initial = initial
        self.cap = cap
        self.stable_after = stable_after
        self._next = initial

    def next_delay(self, uptime: float) -> float:
        """The delay before restarting a worker that died after
        ``uptime`` seconds."""
        if uptime >= self.stable_after:
            self._next = self.initial
        delay = self._next
        self._next = min(self._next * 2.0, self.cap)
        return delay


# ----------------------------------------------------------------------
# Per-worker stats files (the fleet half of GET /stats)
# ----------------------------------------------------------------------

def stats_path(stats_dir, worker_id: int) -> Path:
    return Path(stats_dir) / f"worker-{worker_id:03d}.json"


def write_worker_stats(stats_dir, worker_id: int, record: dict) -> Path:
    """Atomically publish one worker's stats record: write a sibling
    temp file, then ``os.replace`` — a concurrent reader sees either
    the old record or the new one, never a torn file."""
    path = stats_path(stats_dir, worker_id)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record) + "\n")
    os.replace(tmp, path)
    return path


def read_worker_stats(stats_dir) -> dict[int, dict]:
    """Every worker's last published record, keyed by worker id.
    Records that fail to parse (a worker died mid-setup, the directory
    is tearing down) are skipped, not fatal — a fleet ``/stats`` must
    degrade to the sections it can read."""
    records: dict[int, dict] = {}
    for path in sorted(Path(stats_dir).glob("worker-*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(record, dict) and isinstance(
                record.get("worker_id"), int):
            records[record["worker_id"]] = record
    return records


def aggregate_worker_stats(records: dict[int, dict]) -> dict:
    """The fleet-wide rollup of per-worker records: counters and
    status tallies sum, QPS adds (each worker's own sliding-window
    figure), and latency percentiles are computed over the
    *concatenation* of every worker's reservoir — averaging per-worker
    percentiles would be statistically meaningless."""
    requests = queries = batches = rejected = 0
    qps = 0.0
    by_status: dict[str, int] = {}
    latencies: list[float] = []
    for record in records.values():
        stats = record.get("stats", {})
        requests += stats.get("requests_total", 0)
        queries += stats.get("queries_total", 0)
        qps += stats.get("qps", 0.0) or 0.0
        for status, count in stats.get("responses_by_status", {}).items():
            by_status[status] = by_status.get(status, 0) + count
        rejected += stats.get("dispatcher", {}).get("rejected", 0) or 0
        batches += stats.get("batch", {}).get("dispatched", 0) or 0
        latencies.extend(record.get("latencies", ()))
    return {
        "workers": len(records),
        "requests_total": requests,
        "queries_total": queries,
        "responses_by_status": dict(sorted(by_status.items())),
        "qps": qps,
        "latency_ms": {
            "p50": _ms(percentile(latencies, 0.50)),
            "p99": _ms(percentile(latencies, 0.99)),
            "max": _ms(max(latencies) if latencies else None),
        },
        "batch": {"dispatched": batches},
        "rejected": rejected,
    }


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------

def _describe_exit(status: int) -> tuple[int, str]:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return code, f"was killed by signal {-code}"
    return code, f"exited with code {code}"


class _WorkerSlot:
    """One worker position in the fleet: stable id, current pid (or
    ``None`` while down), its restart backoff, and when it last
    started (for the stable-uptime reset)."""

    __slots__ = ("worker_id", "pid", "backoff", "started_at",
                 "restart_at", "restarts")

    def __init__(self, worker_id: int, backoff: RestartBackoff):
        self.worker_id = worker_id
        self.pid: int | None = None
        self.backoff = backoff
        self.started_at = 0.0
        #: Monotonic deadline when a respawn is due; ``None`` = alive.
        self.restart_at: float | None = None
        self.restarts = 0


class PreforkSupervisor:
    """Fork-and-watch supervisor around a ``worker_main`` callable.

    Parameters
    ----------
    worker_main:
        ``worker_main(worker_id, sock) -> int`` — runs **in the forked
        child** with ``sock`` the child's listen socket (bound; the
        worker's asyncio server calls listen on it) and returns the
        child's exit code.  It runs after the fork, so closing over
        parent state (CLI args, the supervisor itself) is fine.
    n_workers:
        Fleet size (>= 1).
    host / port:
        Listen address.  ``port=0`` is resolved once, before any fork,
        so every worker shares the same concrete port.
    reuse_port:
        Force the socket strategy; default auto-detects
        ``SO_REUSEPORT``.
    stats_dir:
        Directory for the per-worker stats files.  ``None`` (default)
        creates a private temp directory, removed on exit.
    backoff_initial / backoff_cap / stable_after:
        :class:`RestartBackoff` knobs for crashed-worker restarts.
    drain_timeout:
        Seconds to wait for workers to finish their graceful drain
        after SIGTERM before escalating to SIGKILL.
    """

    #: Worker exit code meaning "this configuration can never work" —
    #: the CLI's own usage-error code.  Restarting would crash-loop,
    #: so the supervisor shuts the fleet down and exits with it.
    FATAL_EXIT = 2

    def __init__(self, worker_main, n_workers: int,
                 host: str = "127.0.0.1", port: int = 0, *,
                 reuse_port: bool | None = None, stats_dir=None,
                 backoff_initial: float = 0.1, backoff_cap: float = 2.0,
                 stable_after: float = 5.0, drain_timeout: float = 30.0,
                 log=None):
        if n_workers < 1:
            raise ValueError(f"n_workers must be at least 1, "
                             f"got {n_workers}")
        self.worker_main = worker_main
        self.n_workers = n_workers
        self.host = host
        self._requested_port = port
        self.reuse_port = (REUSEPORT_AVAILABLE if reuse_port is None
                           else reuse_port)
        self.drain_timeout = drain_timeout
        self.stats_dir = stats_dir
        self._owns_stats_dir = stats_dir is None
        self._slots = [
            _WorkerSlot(i, RestartBackoff(backoff_initial, backoff_cap,
                                          stable_after))
            for i in range(n_workers)]
        self._sock: socket.socket | None = None
        self._stop = False
        self._exit_code = 0
        self._log = log if log is not None else (
            lambda message: print(message, flush=True))

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._sock is not None:
            return self._sock.getsockname()[1]
        return self._requested_port

    @property
    def worker_pids(self) -> dict[int, int]:
        """Live workers only: ``{worker_id: pid}``."""
        return {slot.worker_id: slot.pid for slot in self._slots
                if slot.pid is not None}

    @property
    def restarts_total(self) -> int:
        return sum(slot.restarts for slot in self._slots)

    def start(self) -> "PreforkSupervisor":
        """Bind the listen address (resolving ``port=0``) and create
        the stats directory — separate from :meth:`run` so a CLI can
        print an accurate banner before blocking."""
        if self._sock is None:
            self._sock = bind_socket(self.host, self._requested_port,
                                     reuse_port=self.reuse_port)
        if self.stats_dir is None:
            self.stats_dir = Path(tempfile.mkdtemp(prefix="repro-prefork-"))
        else:
            Path(self.stats_dir).mkdir(parents=True, exist_ok=True)
        return self

    def request_stop(self) -> None:
        """Ask the supervise loop to drain the fleet and exit (what
        the SIGTERM/SIGINT handlers call; also the test hook)."""
        self._stop = True

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, install_signals: bool = True) -> int:
        """Fork the fleet and supervise until stopped; returns the
        process exit code (0 after a clean drain, 2 after a fatal
        worker config error)."""
        self.start()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    signal.signal(signum,
                                  lambda *_args: self.request_stop())
                except ValueError:  # not the main thread (tests)
                    pass
        try:
            for slot in self._slots:
                self._spawn(slot)
            while not self._stop:
                self._reap()
                if self._stop:
                    break
                self._respawn_due()
                time.sleep(0.02)
        finally:
            self._shutdown_workers()
            self._cleanup()
        return self._exit_code

    # ------------------------------------------------------------------
    # Fork plumbing
    # ------------------------------------------------------------------
    def _spawn(self, slot: _WorkerSlot) -> None:
        sys.stdout.flush()
        sys.stderr.flush()
        # Stop signals stay blocked across the fork: one that reaches
        # the child before its reset below stays pending instead of
        # running the supervisor's inherited handler on the child's
        # copy of the supervisor.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                      {signal.SIGTERM, signal.SIGINT})
        pid = os.fork()
        if pid == 0:
            # Child.  Must never return into the supervisor's stack,
            # and must skip the parent's atexit/finalizers (it shares
            # their state only copy-on-write): os._exit, always.
            code = 1
            try:
                # The supervisor's handlers must not run here — an
                # early SIGTERM should kill the child outright until
                # the worker's own asyncio drain handler takes over.
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                signal.signal(signal.SIGINT, signal.SIG_DFL)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                returned = self.worker_main(slot.worker_id,
                                            self._child_socket())
                code = 0 if returned is None else int(returned)
            except SystemExit as error:
                code = (error.code if isinstance(error.code, int)
                        else 0 if error.code is None else 1)
            except BaseException:  # noqa: BLE001 - child's last resort
                traceback.print_exc()
                code = 1
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        slot.pid = pid
        slot.started_at = time.monotonic()
        slot.restart_at = None
        self._log(f"prefork: worker {slot.worker_id} started (pid {pid})")

    def _child_socket(self) -> socket.socket:
        """The child's listen socket.  With ``SO_REUSEPORT`` each
        worker binds its own socket to the already-resolved port (the
        kernel then balances accepts per-socket); the inherited
        supervisor socket is closed in the child.  Without it, the
        inherited socket *is* the shared accept queue."""
        if not self.reuse_port:
            return self._sock
        port = self.port
        inherited = self._sock
        fresh = bind_socket(self.host, port, reuse_port=True)
        inherited.close()
        return fresh

    # ------------------------------------------------------------------
    # Reaping / restarting
    # ------------------------------------------------------------------
    def _reap(self) -> None:
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return
            slot = next((s for s in self._slots if s.pid == pid), None)
            if slot is None:
                continue
            slot.pid = None
            code, described = _describe_exit(status)
            if self._stop:
                continue
            if code == self.FATAL_EXIT:
                self._log(f"prefork: worker {slot.worker_id} exited with "
                          f"code {code} (configuration error) — shutting "
                          f"the fleet down")
                self._exit_code = self.FATAL_EXIT
                self._stop = True
                continue
            uptime = time.monotonic() - slot.started_at
            delay = slot.backoff.next_delay(uptime)
            slot.restarts += 1
            slot.restart_at = time.monotonic() + delay
            self._log(f"prefork: worker {slot.worker_id} {described} "
                      f"after {uptime:.1f}s; restarting in {delay:.2f}s "
                      f"(restart #{slot.restarts})")

    def _respawn_due(self) -> None:
        now = time.monotonic()
        for slot in self._slots:
            if (slot.pid is None and slot.restart_at is not None
                    and now >= slot.restart_at):
                self._spawn(slot)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def _shutdown_workers(self) -> None:
        live = [slot for slot in self._slots if slot.pid is not None]
        if live:
            self._log(f"prefork: draining {len(live)} worker(s) "
                      f"(SIGTERM fan-out)")
        for slot in live:
            try:
                os.kill(slot.pid, signal.SIGTERM)
            except ProcessLookupError:
                slot.pid = None
        deadline = time.monotonic() + self.drain_timeout
        while (any(slot.pid is not None for slot in self._slots)
               and time.monotonic() < deadline):
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                time.sleep(0.02)
                continue
            for slot in self._slots:
                if slot.pid == pid:
                    slot.pid = None
                    code, described = _describe_exit(status)
                    if code != 0:
                        self._log(f"prefork: worker {slot.worker_id} "
                                  f"{described} during drain")
        for slot in self._slots:
            if slot.pid is not None:
                self._log(f"prefork: worker {slot.worker_id} missed the "
                          f"{self.drain_timeout:.0f}s drain deadline; "
                          f"killing (SIGKILL)")
                try:
                    os.kill(slot.pid, signal.SIGKILL)
                    os.waitpid(slot.pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
                slot.pid = None
        self._log("prefork: all workers exited")

    def _cleanup(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        if self._owns_stats_dir and self.stats_dir is not None:
            shutil.rmtree(self.stats_dir, ignore_errors=True)
            self.stats_dir = None
