"""Subprocess harness for the pre-fork serving tests.

:class:`PreforkFleet` boots ``python -m repro.cli serve --workers N``
exactly as an operator would, parses the supervisor banner for the
bound port, and exposes the fleet to test clients.  ``/healthz``
answers carry the responding worker's ``worker_id``/``pid``, which is
how tests observe accept distribution and pick restart victims.

Clients talking to a fleet mid-fault use :meth:`post_query_retry`:
killing a worker resets the TCP connections it had accepted, which a
real client sees as a connection error and retries — the retry lands
on a live worker (kernel ``SO_REUSEPORT`` distribution only offers
live sockets).  "Zero dropped requests" under worker SIGKILL means
exactly that: every request eventually gets a correct answer.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from testutil import get_json, post_query

SRC = str(Path(__file__).resolve().parents[1] / "src")


class PreforkFleet:
    """``serve --workers N`` as a context manager.

    ``__enter__`` boots the CLI and blocks on the banner; ``__exit__``
    SIGTERMs the supervisor (unless :meth:`stop` already ran) and
    fails loudly if the process survives."""

    def __init__(self, path, workers: int, *, extra_args=(),
                 env_extra=None):
        self.args = [sys.executable, "-m", "repro.cli", "serve",
                     str(path), "--port", "0",
                     "--workers", str(workers), *extra_args]
        self.workers = workers
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = (SRC + os.pathsep
                                  + self.env.get("PYTHONPATH", ""))
        if env_extra:
            self.env.update(env_extra)
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self.banner = ""
        self._finished: tuple[int, str, str] | None = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "PreforkFleet":
        self.process = subprocess.Popen(
            self.args, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        self.banner = self.process.stdout.readline()
        if "http://127.0.0.1:" not in self.banner:
            _out, err = self.process.communicate(timeout=30)
            raise AssertionError(f"fleet failed to boot: "
                                 f"banner={self.banner!r} stderr={err!r}")
        self.port = int(self.banner.split("http://127.0.0.1:")[1]
                        .split()[0])
        self._wait_ready()
        return self

    def _wait_ready(self, deadline_seconds: float = 30.0) -> None:
        # The banner prints before the workers fork and listen; poll
        # until one answers (or the supervisor died a fatal death, in
        # which case readiness will never come — let stop() report it).
        deadline = time.monotonic() + deadline_seconds
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                return
            try:
                self.healthz(timeout=2.0)
                return
            except (ConnectionError, OSError, AssertionError):
                time.sleep(0.02)

    def __exit__(self, *exc_info) -> None:
        if self._finished is None and self.process is not None:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
            try:
                self.process.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.communicate(timeout=10)
                raise AssertionError("fleet did not drain on SIGTERM")

    def stop(self, sig=signal.SIGTERM,
             timeout: float = 60.0) -> tuple[int, str, str]:
        """Signal the supervisor and wait; returns
        ``(returncode, stdout, stderr)``."""
        if self._finished is None:
            if self.process.poll() is None:
                self.process.send_signal(sig)
            stdout, stderr = self.process.communicate(timeout=timeout)
            self._finished = (self.process.returncode, stdout, stderr)
        return self._finished

    # ------------------------------------------------------------------
    def healthz(self, timeout: float = 10.0) -> dict:
        status, payload = get_json(self.port, "/healthz", timeout=timeout)
        assert status == 200, (status, payload)
        return payload

    def stats(self, timeout: float = 10.0) -> dict:
        status, payload = get_json(self.port, "/stats", timeout=timeout)
        assert status == 200, (status, payload)
        return payload

    def sample_workers(self, attempts: int = 60,
                       want: int | None = None) -> dict[int, int]:
        """``{worker_id: pid}`` of workers observed answering
        ``/healthz`` over fresh connections; stops early once ``want``
        (default: the fleet size) distinct workers have answered."""
        want = self.workers if want is None else want
        seen: dict[int, int] = {}
        for _ in range(attempts):
            payload = self.healthz()
            if "worker_id" in payload:
                seen[payload["worker_id"]] = payload["pid"]
            if len(seen) >= want:
                break
            time.sleep(0.01)
        return seen

    def wait_for_pid_change(self, old_pids: set[int],
                            deadline_seconds: float = 20.0) -> int:
        """Block until ``/healthz`` answers from a pid outside
        ``old_pids`` (a restarted worker); returns that pid."""
        deadline = time.monotonic() + deadline_seconds
        while time.monotonic() < deadline:
            try:
                payload = self.healthz(timeout=5.0)
            except (ConnectionError, OSError):
                time.sleep(0.05)
                continue
            pid = payload.get("pid")
            if pid is not None and pid not in old_pids:
                return pid
            time.sleep(0.05)
        raise AssertionError(f"no restarted worker answered within "
                             f"{deadline_seconds}s (old pids: {old_pids})")


def post_query_retry(port: int, payload: dict, *, retries: int = 50,
                     timeout: float = 30.0) -> tuple[dict, int]:
    """POST /query, retrying on connection resets (a killed worker's
    accepted connections die mid-exchange) and on 503 (a worker
    draining); returns ``(parsed_response, n_retries)``.  Any other
    non-200 is a hard failure — faults must never produce wrong or
    half-baked answers, only retriable unavailability."""
    attempts = 0
    while True:
        try:
            status, parsed = post_query(port, payload, timeout=timeout)
        except (ConnectionError, OSError):
            status, parsed = None, None
        if status == 200:
            return parsed, attempts
        assert status in (None, 503), (status, parsed)
        attempts += 1
        if attempts > retries:
            raise AssertionError(
                f"query still failing after {retries} retries "
                f"(last status {status})")
        time.sleep(0.05)
