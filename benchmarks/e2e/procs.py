"""Child processes of the benchmark: spawn, observe through /proc, reap.

The program under test only ever runs in children (``repro.cli serve`` /
``serve-shard`` subprocesses and one worker child that makes the
library calls); the parent generates load.  Every child is registered
in a :class:`Children` registry whose ``close`` reaps all of them, so a
failed run leaves no process behind.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: One BLAS thread per child (two children already fill the two cores
#: this benchmark is sized for) and a fixed hash seed, so set iteration
#: order inside the program repeats between runs.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

BANNER_TIMEOUT_S = 60.0
REAP_GRACE_S = 10.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (f"{SRC}{os.pathsep}{inherited}" if inherited
                         else str(SRC))
    return env


class Children:
    """Every process the benchmark started, reaped together."""

    def __init__(self):
        self._procs: list[subprocess.Popen] = []

    def popen(self, command: list[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(command, env=child_env(), **kwargs)
        self._procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen) -> int:
        """SIGTERM, wait, SIGKILL after the grace period; returns the
        exit code."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=REAP_GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
        if proc in self._procs:
            self._procs.remove(proc)
        return proc.returncode

    def close(self) -> None:
        for proc in list(self._procs):
            self.stop(proc)


class Server:
    """One ``repro.cli serve`` / ``serve-shard`` subprocess."""

    def __init__(self, children: Children, cli_args: list[str],
                 stderr_path: Path):
        self._children = children
        started = time.perf_counter()
        with open(stderr_path, "wb") as stderr:
            self.proc = children.popen(
                [sys.executable, "-m", "repro.cli", *cli_args],
                stdout=subprocess.PIPE, stderr=stderr)
        banner = self._read_banner(stderr_path)
        self.boot_ms = (time.perf_counter() - started) * 1000.0
        self.port = int(banner.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])
        self.pid = self.proc.pid

    def _read_banner(self, stderr_path: Path) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    BANNER_TIMEOUT_S)
        banner = self.proc.stdout.readline().decode() if ready else ""
        if "http://" not in banner:
            self._children.stop(self.proc)
            raise RuntimeError(
                f"server printed no banner within {BANNER_TIMEOUT_S:.0f} s "
                f"(got {banner!r}); stderr: "
                f"{stderr_path.read_text(errors='replace')[-800:]}")
        return banner

    def stop(self) -> int:
        return self._children.stop(self.proc)


class WorkerError(RuntimeError):
    """An operation raised inside the worker child."""


class Worker:
    """The worker child: runs ``worker_ops`` functions by name, keeping
    its own state (open indexes, the embedder) between calls."""

    def __init__(self, children: Children):
        self._children = children
        self.proc = children.popen(
            [sys.executable, str(HERE / "worker_ops.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.pid = self.proc.pid

    def call(self, op: str, **kwargs):
        try:
            pickle.dump((op, kwargs), self.proc.stdin)
            self.proc.stdin.flush()
            status, value = pickle.load(self.proc.stdout)
        except (EOFError, BrokenPipeError, pickle.UnpicklingError) as error:
            raise WorkerError(f"worker child died during {op!r} "
                              f"(exit {self.proc.poll()})") from error
        if status != "ok":
            raise WorkerError(f"{op} failed in the worker child:\n{value}")
        return value

    def stop(self) -> int:
        return self._children.stop(self.proc)


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds the process has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name may hold spaces; fields count from after it.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """``VmHWM``: the most resident memory the process ever held."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def own_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system
