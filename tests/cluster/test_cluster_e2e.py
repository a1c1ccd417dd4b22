"""End-to-end cluster serving: the whole stack — shard servers,
coordinator, micro-batch dispatcher, retrieval server — over real
sockets, pinned to the local offline rankings; plus the CLI entry
points (`serve-shard`, `serve --cluster`) as real subprocesses."""

import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest
from clusterutil import (
    get_json,
    make_corpus,
    post_json,
    query_pool,
    ranked,
    ranked_wire,
    save_layout,
)

from repro.cluster import ClusterHarness, split_layout
from repro.index import open_index
from repro.serve import ServeConfig, ServerThread

DIM = 16
SRC = Path(__file__).resolve().parents[2] / "src"


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = (f"{SRC}:{env['PYTHONPATH']}"
                         if env.get("PYTHONPATH") else str(SRC))
    return env


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    """Shard servers + coordinator + retrieval server, all in-process:
    (local index, harness, coordinator, server thread)."""
    tmp = tmp_path_factory.mktemp("cluster-e2e")
    keys, vectors = make_corpus(n=90, dim=DIM, seed=21)
    local_path = save_layout(tmp, keys, vectors, 4, seed=21)
    paths = split_layout(local_path, tmp / "split", 2)
    with ClusterHarness(paths) as harness:
        remote = harness.connect(retries=1, backoff=0.01, timeout=10.0)
        with ServerThread(remote,
                          config=ServeConfig(max_wait_ms=1.0)) as server:
            yield (open_index(local_path, mmap=True), harness, remote,
                   server, vectors)


class TestServedCluster:
    def test_served_equals_offline_local(self, stack):
        local, _harness, _remote, server, vectors = stack
        matrix = query_pool(vectors)
        status, payload = post_json(server.port, "/query",
                                    {"vectors": matrix.tolist(), "k": 7})
        assert status == 200
        offline = local.query_many(matrix, k=7)
        for entry, hits in zip(payload["results"], offline):
            assert ranked_wire(entry["hits"]) == ranked(hits)

    def test_single_query_shape(self, stack):
        local, _harness, _remote, server, vectors = stack
        status, payload = post_json(
            server.port, "/query",
            {"vector": vectors[0].tolist(), "k": 3, "exclude": "t00000"})
        assert status == 200
        offline = local.query_many(vectors[0][None, :], k=3,
                                   excludes=["t00000"])[0]
        assert ranked_wire(payload["hits"]) == ranked(offline)

    def test_healthz_aggregates_cluster(self, stack):
        _local, harness, remote, server, _vectors = stack
        status, payload = get_json(server.port, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        cluster = payload["cluster"]
        assert cluster["reachable"] == cluster["total"] == 2
        assert cluster["n_shards"] == 4
        addresses = {entry["address"] for entry in cluster["servers"]}
        assert addresses == {str(a) for a in harness.topology}
        for entry in cluster["servers"]:
            assert entry["ok"] is True
            assert entry["format_version"] == remote.format_version

    def test_healthz_degrades_when_a_shard_is_down(self, stack):
        _local, harness, _remote, server, vectors = stack
        harness.stop_shard(1)
        try:
            status, payload = get_json(server.port, "/healthz")
            assert status == 200
            assert payload["status"] == "degraded"
            cluster = payload["cluster"]
            assert cluster["reachable"] == 1 and cluster["total"] == 2
            down = [e for e in cluster["servers"] if not e["ok"]]
            assert len(down) == 1 and "error" in down[0]
            # Queries against the dead shard are one clean 503.
            q_status, q_payload = post_json(
                server.port, "/query",
                {"vector": vectors[0].tolist(), "k": 3})
            assert q_status == 503
            assert "error" in q_payload
        finally:
            harness.start_shard(1)
        status, payload = get_json(server.port, "/healthz")
        assert payload["status"] == "ok"

    def test_stats_shape(self, stack):
        _local, _harness, _remote, server, _vectors = stack
        status, payload = get_json(server.port, "/stats")
        assert status == 200
        assert "rejected" in payload["dispatcher"]
        assert "max_backlog" in payload["dispatcher"]


class TestCLI:
    @pytest.fixture(scope="class")
    def cli_cluster(self, tmp_path_factory):
        """Real `serve-shard` subprocesses + a real `serve --cluster`
        coordinator subprocess."""
        tmp = tmp_path_factory.mktemp("cli-cluster")
        keys, vectors = make_corpus(n=60, dim=DIM, seed=31)
        local_path = save_layout(tmp, keys, vectors, 2, seed=31)
        paths = split_layout(local_path, tmp / "split", 2)
        with ClusterHarness(paths, subprocesses=True) as harness:
            topology_path = harness.topology.save(tmp / "topology.json")
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--cluster", str(topology_path), "--port", "0"],
                env=_subprocess_env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True)
            banner = proc.stdout.readline()
            assert "http://" in banner, proc.stderr.read()
            port = int(banner.split("http://")[1].split()[0]
                       .rsplit(":", 1)[1])
            try:
                yield local_path, vectors, proc, port, banner
            finally:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGTERM)
                    proc.communicate(timeout=30)

    def test_cli_serves_local_rankings(self, cli_cluster):
        local_path, vectors, _proc, port, banner = cli_cluster
        assert "distributed index" in banner
        local = open_index(local_path, mmap=True)
        matrix = query_pool(vectors)[:4]
        status, payload = post_json(port, "/query",
                                    {"vectors": matrix.tolist(), "k": 5})
        assert status == 200
        for entry, hits in zip(payload["results"],
                               local.query_many(matrix, k=5)):
            assert ranked_wire(entry["hits"]) == ranked(hits)

    def test_cli_healthz_sees_both_shards(self, cli_cluster):
        _path, _vectors, _proc, port, _banner = cli_cluster
        status, payload = get_json(port, "/healthz")
        assert status == 200
        assert payload["cluster"]["reachable"] == 2

    def test_cli_sigterm_drains_cleanly(self, cli_cluster):
        _path, _vectors, proc, _port, _banner = cli_cluster
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert "Draining" in out


class TestCLIValidation:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            env=_subprocess_env(), capture_output=True, text=True,
            timeout=60)

    def test_serve_requires_exactly_one_target(self, tmp_path):
        result = self._run("serve")
        assert result.returncode == 2
        assert "exactly one target" in result.stderr
        topology = tmp_path / "t.json"
        topology.write_text(json.dumps(
            {"shards": [{"host": "h", "port": 1}]}))
        result = self._run("serve", "some/path", "--cluster", str(topology))
        assert result.returncode == 2
        assert "exactly one target" in result.stderr

    def test_serve_bad_backlog_exits_2(self, tmp_path):
        result = self._run("serve", "--cluster", "x.json",
                           "--max-backlog", "0")
        assert result.returncode == 2
        assert "max-backlog" in result.stderr

    def test_serve_missing_topology_exits_2(self, tmp_path):
        result = self._run("serve", "--cluster",
                           str(tmp_path / "absent.json"))
        assert result.returncode == 2
        assert "topology" in result.stderr

    def test_serve_unreachable_cluster_exits_2(self, tmp_path):
        topology = tmp_path / "t.json"
        topology.write_text(json.dumps(
            {"shards": [{"host": "127.0.0.1", "port": 1}]}))
        result = self._run("serve", "--cluster", str(topology))
        assert result.returncode == 2
        assert result.stderr.strip()

    def test_serve_shard_missing_layout_exits_2(self, tmp_path):
        result = self._run("serve-shard", str(tmp_path / "absent.npz"))
        assert result.returncode == 2

    @pytest.mark.parametrize("command", [
        ("serve",), ("serve-shard",), ("serve", "--workers", "2")],
        ids=" ".join)
    def test_busy_port_is_one_line_and_exit_2(self, tmp_path, command):
        """Every serving process reports an occupied port the same way:
        one stderr line, exit 2, no traceback."""
        keys, vectors = make_corpus(n=30, dim=DIM, seed=41)
        path = save_layout(tmp_path, keys, vectors, 1, seed=41)
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            result = self._run(command[0], str(path), *command[1:],
                               "--port", str(port))
        assert result.returncode == 2, result.stderr
        (line,) = result.stderr.splitlines()
        assert line.startswith(f"cannot bind 127.0.0.1:{port}: ")
        assert "in use" in line.lower()

    def test_serve_shard_sigterm_drains_cleanly(self, tmp_path):
        keys, vectors = make_corpus(n=30, dim=DIM, seed=41)
        path = save_layout(tmp_path, keys, vectors, 1, seed=41)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve-shard", str(path),
             "--port", "0"],
            env=_subprocess_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        banner = proc.stdout.readline()
        assert "http://" in banner, proc.stderr.read()
        port = int(banner.split("http://")[1].split()[0].rsplit(":", 1)[1])
        status, payload = get_json(port, "/healthz")
        assert status == 200 and payload["status"] == "ok"
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert "Draining" in out
