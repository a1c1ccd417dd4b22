"""Cluster harness: boot N shard servers + 1 coordinator in one
process (tests, benchmarks) or as subprocesses (CLI e2e).

Two pieces:

- :func:`split_layout` carves a saved/open local layout into
  per-server layouts **preserving flat shard order** — server 0 gets
  shards ``0..a``, server 1 gets ``a..b``, and so on — which is the
  property the whole equivalence story hangs on: the coordinator
  flattens server responses in topology order, so the distributed
  shard sequence must be the local one.
- :class:`ClusterHarness` boots one :class:`~repro.cluster.
  shard_server.ShardServerThread` — the serving layer's
  :class:`~repro.serve.server.ServerThread` bound to a shard server —
  per layout (or one ``repro.cli serve-shard`` subprocess with
  ``subprocesses=True``), hands out the resulting :class:`~repro.cluster.topology.Topology`,
  connects coordinators, and can kill/restart individual shard servers
  on their original ports — the fault-injection tests' lever.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from ..index import ShardedIndex, open_index
from .coordinator import RemoteShardedIndex
from .shard_server import ShardServerThread
from .topology import Topology


def split_layout(source, root: str | Path, n_servers: int) -> list[Path]:
    """Split ``source`` (an open index, single ``.npz`` path, or
    sharded directory path) into ``n_servers`` saved layouts whose
    concatenated shard lists equal the source's, in order.

    Servers get contiguous runs of shards (the first ``total %
    n_servers`` servers get one extra), so ``n_servers`` must not
    exceed the source's shard count.  A one-shard run is saved as a
    single ``.npz``; a multi-shard run as a sharded directory — shard
    servers serve either transparently."""
    if not hasattr(source, "kind"):
        source = open_index(source)
    shards = source._shards()
    if n_servers < 1:
        raise ValueError(f"n_servers must be at least 1, got {n_servers}")
    if n_servers > len(shards):
        raise ValueError(f"cannot split {len(shards)} shard(s) across "
                         f"{n_servers} servers")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    base, extra = divmod(len(shards), n_servers)
    paths, start = [], 0
    for position in range(n_servers):
        stop = start + base + (1 if position < extra else 0)
        run = shards[start:stop]
        start = stop
        if len(run) == 1:
            paths.append(run[0].save(root / f"server-{position:02d}.npz"))
        else:
            spec = source.spec
            paths.append(ShardedIndex(spec, run).save(
                root / f"server-{position:02d}"))
    return paths


class ClusterHarness:
    """Boot a cluster from per-server layout paths.

    Context manager::

        paths = split_layout(saved, tmp_path / "cluster", 2)
        with ClusterHarness(paths) as cluster:
            remote = cluster.connect(retries=1)
            ...
            remote.close()

    ``subprocesses=True`` boots each shard via ``python -m repro.cli
    serve-shard`` instead of an in-process thread (slower; exercises
    the real CLI entry point)."""

    def __init__(self, layout_paths, *, subprocesses: bool = False,
                 mmap: bool = True):
        self.layout_paths = [Path(path) for path in layout_paths]
        self.subprocesses = subprocesses
        self.mmap = mmap
        self.members: list = [None] * len(self.layout_paths)
        self.ports: list[int | None] = [None] * len(self.layout_paths)
        self._connected: list[RemoteShardedIndex] = []

    # ------------------------------------------------------------------
    # Boot / teardown
    # ------------------------------------------------------------------
    def start(self) -> "ClusterHarness":
        try:
            for position in range(len(self.layout_paths)):
                self.start_shard(position)
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        for index in self._connected:
            index.close()
        self._connected = []
        for position in range(len(self.members)):
            self.stop_shard(position)

    def __enter__(self) -> "ClusterHarness":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Individual members (fault injection kills/restarts these)
    # ------------------------------------------------------------------
    def start_shard(self, position: int) -> int:
        """Boot (or re-boot) member ``position``.  A restart reuses the
        port the member first bound, so a coordinator holding the
        topology reconnects without any reconfiguration."""
        if self.members[position] is not None:
            raise RuntimeError(f"shard {position} is already running")
        port = self.ports[position] or 0
        path = self.layout_paths[position]
        if self.subprocesses:
            member, port = _spawn_shard_process(path, port, self.mmap)
        else:
            member = ShardServerThread(open_index(path, mmap=self.mmap),
                                       port=port).start()
            port = member.port
        self.members[position] = member
        self.ports[position] = port
        return port

    def stop_shard(self, position: int) -> None:
        member = self.members[position]
        if member is None:
            return
        self.members[position] = None
        if self.subprocesses:
            member.terminate()
            member.wait(timeout=30)
        else:
            member.stop()

    # ------------------------------------------------------------------
    # Coordinator side
    # ------------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        if any(port is None for port in self.ports):
            raise RuntimeError("harness is not started")
        return Topology.from_addresses([("127.0.0.1", port)
                                        for port in self.ports])

    def connect(self, **kwargs) -> RemoteShardedIndex:
        """A coordinator over the running cluster (closed automatically
        at harness teardown)."""
        index = RemoteShardedIndex.connect(self.topology, **kwargs)
        self._connected.append(index)
        return index


def _spawn_shard_process(path: Path, port: int,
                         mmap: bool) -> tuple[subprocess.Popen, int]:
    """One ``repro.cli serve-shard`` subprocess; returns it plus the
    port parsed from its banner."""
    import os

    command = [sys.executable, "-m", "repro.cli", "serve-shard", str(path),
               "--port", str(port)]
    if not mmap:
        command.append("--no-mmap")
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = (f"{src}:{env['PYTHONPATH']}"
                         if env.get("PYTHONPATH") else str(src))
    process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
    banner = process.stdout.readline()
    if "http://" not in banner:
        process.terminate()
        _stdout, stderr = process.communicate(timeout=30)
        raise RuntimeError(f"serve-shard failed to boot: {banner!r}\n{stderr}")
    bound = int(banner.rsplit(":", 1)[1].split()[0])
    return process, bound
